"""One cold iteration of a benchmark workload, in a fresh interpreter.

Started by ``run.py``, never by hand.  Every module registry and algebra
cache starts empty, as it does for a command-line user.  The child prints
what a user of the command line would see on stdout (the machine reports)
and writes its own timings, per-operation outcomes and, when traced, the
layer trace as one JSON line to the file descriptor given by ``--fd``.

Operation ids:

``paper-suite``            ``symcenter.cli.main(["paper-suite", "--format", "machine"])``
``analyze:<path>``         ``load_algebra`` -> ``analyze`` -> ``to_machine``
``roundtrip:<path>``       ``load_algebra`` -> ``emit_structure_constants`` ->
                           reload -> ``analyze`` -> ``to_machine``
``qq-skew:<b1,b2,...>``    ``from_skew_presentation(QQ, anticommuting(bounds))``
                           -> ``analyze`` -> ``to_machine``
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def machine_text(report) -> str:
    """The exact stdout of ``symcenter analyze --format machine``."""
    return json.dumps(report.to_machine(), indent=2, ensure_ascii=False) + "\n"


def invariants(report) -> dict:
    return {
        "dims": {k: int(v) for k, v in report.dims.items()},
        "loewy_layers": [int(x) for x in report.loewy_layers],
        "verdicts": {k: bool(v["holds"]) for k, v in report.verdicts.items()},
    }


def peak_rss_mb() -> float:
    """This process's own peak resident set size (``VmHWM``).

    ``ru_maxrss`` would not do: Linux carries the high-water mark of the
    forked parent's memory over ``execve``, so it reads at least the
    parent's size.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup(root: str, ops: list):
    """Import the program and read the inputs; no algebra is built here."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import symcenter
    import symcenter.cli  # noqa: F401  (imports every layer the CLI uses)

    where = os.path.realpath(os.path.dirname(symcenter.__file__))
    if where != os.path.realpath(os.path.join(src, "symcenter")):
        raise SystemExit(f"symcenter imported from {where}, not from {src}")
    for op in ops:
        kind, _, arg = op.partition(":")
        if kind in ("analyze", "roundtrip"):
            with open(os.path.join(root, arg), "rb") as fh:
                fh.read()
    return symcenter


def run_op(op: str, root: str, out) -> dict:
    from symcenter import QQ, SkewPresentation, analyze, from_skew_presentation
    from symcenter.fileformat import emit_structure_constants, load_algebra, parse_document

    kind, _, arg = op.partition(":")
    rec = {"id": op, "error": None, "build_s": 0.0, "analyze_s": 0.0}
    t0 = time.monotonic()
    try:
        if kind == "analyze":
            algebra = load_algebra(os.path.join(root, arg))
        elif kind == "roundtrip":
            text = emit_structure_constants(load_algebra(os.path.join(root, arg)))
            algebra = parse_document(json.loads(text))
        elif kind == "qq-skew":
            bounds = [int(b) for b in arg.split(",")]
            algebra = from_skew_presentation(QQ, SkewPresentation.anticommuting(bounds))
        else:
            raise ValueError(f"unknown operation {op!r}")
        t1 = time.monotonic()
        rec["build_s"] = t1 - t0
        report = analyze(algebra)
        text = machine_text(report)
        rec["analyze_s"] = time.monotonic() - t1
    except Exception as exc:  # one failed operation must not end the iteration
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    out.write(text)
    rec["invariants"] = invariants(report)
    rec["machine_sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return rec


def run_paper_suite() -> dict:
    from symcenter.cli import main

    rec = {"id": "paper-suite", "error": None}
    try:
        code = main(["paper-suite", "--format", "machine"])
    except Exception as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    if code != 0:
        rec["error"] = f"exit code {code}"
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--ops", required=True, help="JSON list of operation ids")
    ap.add_argument("--fd", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    ops = json.loads(args.ops)

    symcenter = setup(args.root, ops)
    t_setup = time.monotonic()
    result = {"t_start": T_START, "t_setup": t_setup, "ops": []}
    if not args.setup_only:
        tracer = None
        if args.trace:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(symcenter)
        for op in ops:
            if op == "paper-suite":
                result["ops"].append(run_paper_suite())
            else:
                result["ops"].append(run_op(op, args.root, sys.stdout))
        sys.stdout.flush()
        result["t_end"] = time.monotonic()
        if tracer is not None:
            result["trace"] = tracer.report()
    result["peak_rss_mb"] = peak_rss_mb()
    with os.fdopen(args.fd, "w") as fh:
        fh.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
