"""Orchestration of the full verification run: corpus, lemmas, family sweep.

Output order is fixed (corpus entries, then lemma suites, then the family
sweep) and every random draw is seeded, so two runs produce identical
machine reports byte for byte.
"""

from __future__ import annotations

import time

from .analysis import SCHEMA_VERSION
from .constructions import trivial_extension, trivext_criteria
from .corpus import ENTRY_IDS, ClaimSink, SuiteResult, run_corpus
from .errors import UnknownCase
from .family import (
    commutative_local_bases,
    dimension_histogram,
    generate_symmetric_local_family,
)
from .lemmas import LEMMA_IDS, check_lemma
from .substructures import property_verdicts

FAMILY_MAX_DIM = 16
FAMILY_MIN_SIZE = 30


def run_family_suite() -> SuiteResult:
    """The dimension-bound sweep over the generated symmetric local family."""
    t0 = time.perf_counter()
    sink = ClaimSink("family")
    members = generate_symmetric_local_family(FAMILY_MAX_DIM)
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
    bad9 = []
    for base in commutative_local_bases(FAMILY_MAX_DIM // 2):
        a = base.algebra
        if a.dim > 9:
            continue
        crit = trivext_criteria(a)
        ok = crit.i_is_ideal and crit.s_is_ideal
        ok = ok and property_verdicts(trivial_extension(a)).p2.holds
        if not ok:
            bad9.append(base.member_id)
    sink.check("dim9_bases_trivext", "PAPER", not bad9,
               witness=";".join(bad9) or None)
    return sink.result(time.perf_counter() - t0)


def _suite_plan(case_filter: str | None):
    plan = []
    known = set(ENTRY_IDS) | set(LEMMA_IDS) | {"family"}
    if case_filter is not None and case_filter not in known:
        raise UnknownCase(
            f"unknown case {case_filter!r}; cases are corpus entries, "
            "lemma ids, or 'family'"
        )
    for entry in ENTRY_IDS:
        if case_filter is None or case_filter == entry:
            plan.append(lambda e=entry: run_corpus(e)[0])
    for lemma in LEMMA_IDS:
        if case_filter is None or case_filter == lemma:
            plan.append(lambda l=lemma: check_lemma(l))
    if case_filter is None or case_filter == "family":
        plan.append(run_family_suite)
    return plan


def run_paper_suite(case_filter: str | None = None) -> list[SuiteResult]:
    """Run the selected suites and return results in the fixed order."""
    return [fn() for fn in _suite_plan(case_filter)]


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
    fam = [r for r in results if r.suite_id == "family"]
    if fam:
        hist = {}
        for c in fam[0].claims:
            if c.claim_id.endswith("dimension_histogram") and c.witness:
                for part in c.witness.split(","):
                    d, n = part.split(":")
                    hist[d] = int(n)
        doc["family"] = {"dim_histogram": hist}
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
