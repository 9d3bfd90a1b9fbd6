"""Orchestration of the full verification run: corpus, lemmas, family sweep.

Every suite is a body ``f(sink)`` that adds its claims to the
``SuiteResult`` it is handed.  ``SUITES`` lists them in their fixed output
order (corpus entries, then lemma suites, then the family sweep) and
``run_paper_suite`` runs the selected ones through ``corpus.run_suite``,
which hands each body its result and times it.  It runs them in
one interning block, so a table the run builds twice is validated and
analysed once.  Selecting by case (``--case`` on the command line) is the
one way to run part of the table.  Every random draw is seeded, so two
runs produce identical machine reports byte for byte.
"""

from __future__ import annotations

from . import corpus, lemmas
from .algebra import interning
from .analysis import SCHEMA_VERSION
from .corpus import SuiteResult, run_suite
from .errors import UnknownCase
from .family import (
    FAMILY_MAX_DIM,
    commutative_local_bases,
    dimension_histogram,
    generate_symmetric_local_family,
)
from .substructures import property_verdicts

FAMILY_MIN_SIZE = 30


def _family_suite(sink: SuiteResult):
    """The dimension-bound sweep over the generated symmetric local family."""
    members = generate_symmetric_local_family()
    sink.check("size_ge_30", "DERIVED", len(members) >= FAMILY_MIN_SIZE,
               witness=f"{len(members)} members")
    hist = dimension_histogram(members)
    sink.check("dimension_histogram", "DERIVED", True,
               witness=",".join(f"{d}:{c}" for d, c in hist.items()))
    p1_bad = [
        m.member_id for m in members
        if m.algebra.dim <= 11 and not property_verdicts(m.algebra).p1.holds
    ]
    sink.check("p1_zero_violations_dim_le_11", "PAPER", not p1_bad,
               witness=";".join(p1_bad) or None)
    p2_bad = [
        m.member_id for m in members
        if m.algebra.dim <= 16 and not property_verdicts(m.algebra).p2.holds
    ]
    sink.check("p2_zero_violations_dim_le_16", "PAPER", not p2_bad,
               witness=";".join(p2_bad) or None)
    # the small-dimension statement on every generated base of dim <= 9
    bad9 = [base.member_id for base in commutative_local_bases(FAMILY_MAX_DIM // 2)
            if base.algebra.dim <= 9 and not all(lemmas.dim9_statement(base.algebra))]
    sink.check("dim9_bases_trivext", "PAPER", not bad9,
               witness=";".join(bad9) or None)


# (case, suite id, body) in output order; ``--case`` matches the case
SUITES = (
    [(entry, entry, body) for entry, body in corpus.SUITES.items()]
    + [(lemma, f"lemma/{lemma}", body) for lemma, body in lemmas.CHECKERS.items()]
    + [("family", "family", _family_suite)]
)


def run_paper_suite(case_filter: str | None = None) -> list[SuiteResult]:
    """Run the selected suites and return results in the fixed order."""
    plan = [(sid, body) for case, sid, body in SUITES
            if case_filter in (None, case)]
    if not plan:
        raise UnknownCase(
            f"unknown case {case_filter!r}; cases are corpus entries, "
            "lemma ids, or 'family'"
        )
    with interning():
        return [run_suite(sid, body) for sid, body in plan]


def suite_report_machine(results: list[SuiteResult]) -> dict:
    claims = []
    for r in results:
        for c in r.claims:
            claims.append({
                "id": c.claim_id,
                "pass": c.passed,
                "tag": c.tag,
                "witness": c.witness,
            })
    failed = sum(1 for c in claims if not c["pass"])
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "paper_suite",
        "claims": claims,
        "summary": {"total": len(claims), "failed": failed,
                    "suites": len(results)},
    }
    if any(r.suite_id == "family" for r in results):
        hist = dimension_histogram(generate_symmetric_local_family())
        doc["family"] = {"dim_histogram": {str(d): n for d, n in hist.items()}}
    return doc


def suite_report_text(results: list[SuiteResult]) -> str:
    lines = []
    for r in results:
        for c in r.claims:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status} {c.claim_id}"
            if c.witness and (not c.passed or c.tag == "DERIVED"):
                line += f"  [{c.witness}]"
            lines.append(line)
    failed = sum(1 for r in results for c in r.claims if not c.passed)
    total = sum(len(r.claims) for r in results)
    lines.append(f"{'PASS' if failed == 0 else 'FAIL'} total: "
                 f"{total - failed}/{total} claims")
    return "\n".join(lines) + "\n"
