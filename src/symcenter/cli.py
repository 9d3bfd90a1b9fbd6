"""Command-line front end.

Exit codes: 0 every check passed, 1 a mathematical claim failed, 2 an
input or usage error (bad file, a radical hint that is not J(A), unknown
case).
Stdout is deterministic; wall-clock timing goes to stderr.  Each command
imports its own layer when it runs: ``analyze`` and ``construct`` the file
format, ``paper-suite`` the suites, corpus, lemmas and family.  The two
compile from source in ~20 ms and run from cached bytecode in ~5 ms.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import SymcenterError

CONSTRUCTION_TYPES = ("tensor", "trivial_extension", "quotient", "opposite")


def cmd_analyze(args) -> int:
    from .analysis import analyze
    from .fileformat import load_algebra

    algebra = load_algebra(args.file)
    report = analyze(algebra)
    if args.format == "machine":
        sys.stdout.write(
            json.dumps(report.to_machine(), indent=2, ensure_ascii=False) + "\n"
        )
    else:
        sys.stdout.write(report.to_text())
    return 0


def cmd_paper_suite(args) -> int:
    from .suites import run_paper_suite, suite_report_machine, suite_report_text

    t0 = time.perf_counter()
    results = run_paper_suite(case_filter=args.case)
    if args.format == "machine":
        sys.stdout.write(
            json.dumps(suite_report_machine(results), indent=2, ensure_ascii=False)
            + "\n"
        )
    else:
        sys.stdout.write(suite_report_text(results))
    print(f"[{time.perf_counter() - t0:.1f}s]", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def cmd_construct(args) -> int:
    from .fileformat import emit_structure_constants, parse_document, read_document

    doc = read_document(args.file)
    pres = doc.get("presentation") if isinstance(doc, dict) else None
    ptype = pres.get("type") if isinstance(pres, dict) else None
    if ptype not in CONSTRUCTION_TYPES:
        raise SymcenterError(
            f"construct expects a construction presentation {CONSTRUCTION_TYPES}, "
            f"got {ptype!r}"
        )
    algebra = parse_document(doc)
    text = emit_structure_constants(algebra)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    sys.stdout.write(f"wrote {algebra.dim}-dimensional algebra to {args.out}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcenter",
        description=(
            "Exact workbench for structure-constant algebras: centers, "
            "radicals, socles, symmetrizing forms and the three ideal "
            "properties of J(Z(A)), soc(Z(A)) and R(A)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze one algebra definition file")
    p_an.add_argument("file", help="algebra definition (JSON)")
    p_an.add_argument("--format", choices=("text", "machine"), default="text")
    p_an.set_defaults(func=cmd_analyze)

    p_ps = sub.add_parser(
        "paper-suite",
        help="run the full corpus, lemma and family verification suites",
    )
    p_ps.add_argument("--case", default=None,
                      help="restrict to one corpus entry, lemma id, or 'family'")
    p_ps.add_argument("--format", choices=("text", "machine"), default="text")
    p_ps.set_defaults(func=cmd_paper_suite)

    p_co = sub.add_parser(
        "construct",
        help="materialise a construction file as explicit structure constants",
    )
    p_co.add_argument("file", help="algebra definition with a construction node")
    p_co.add_argument("--out", required=True, help="output path")
    p_co.set_defaults(func=cmd_construct)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SymcenterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
