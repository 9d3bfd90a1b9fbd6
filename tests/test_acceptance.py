"""Acceptance criteria: the worked examples reproduced exactly, the lemma
suites at zero failures, the family sweep, and the engineering contract.

All arithmetic is exact, so every comparison is equality-exact; the only
tolerances are the stated wall-clock budgets.  Each criterion prints one
PASS line when it holds (failures surface as assertion errors).
"""

import hashlib
import json
import subprocess
import sys
import time

from symcenter.corpus import get
from symcenter.family import dimension_histogram
from symcenter.lemmas import LEMMA_IDS, ScopeRegistry
from symcenter.substructures import property_verdicts
from symcenter.suites import run_paper_suite


def _report(n: int, text: str):
    print(f"ACCEPTANCE {n} PASS: {text}")


def _timed_subprocess(code: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _suite_timing_code(*cases: str) -> str:
    calls = "; ".join(f"rs += run_paper_suite(case_filter={c!r})" for c in cases)
    return (
        "import json, time\n"
        "t0 = time.perf_counter()\n"
        "from symcenter.suites import run_paper_suite\n"
        "rs = []\n"
        f"{calls}\n"
        "elapsed = time.perf_counter() - t0\n"
        "bad = [c.claim_id for r in rs for c in r.claims if not c.passed]\n"
        "print(json.dumps({'elapsed': elapsed, 'failed': bad}))\n"
    )


def _run(case: str):
    [suite] = run_paper_suite(case_filter=case)
    return suite


def _claims_by_id(suite):
    return {c.claim_id: c for c in suite.claims}


def test_criterion_1_firstexample():
    out = _timed_subprocess(_suite_timing_code("firstexample_i"))
    assert out["failed"] == []
    assert out["elapsed"] < 2.0, f"took {out['elapsed']:.2f}s, budget 2s"
    suite = _run("firstexample_i")
    ids = _claims_by_id(suite)
    for cid in ("firstexample_i/p1_false_witness_x1^2",
                "firstexample_i/socZ_exact",
                "firstexample_i/p2_true",
                "firstexample_i/p3_true"):
        assert ids[cid].passed
    _report(1, f"dim-27 example exact, witness x1^2, {out['elapsed']:.2f}s < 2s")


def test_criterion_2_counterexample():
    out = _timed_subprocess(
        _suite_timing_code("counterexample_A", "counterexample_B")
    )
    assert out["failed"] == []
    assert out["elapsed"] < 5.0, f"took {out['elapsed']:.2f}s, budget 5s"
    ids = _claims_by_id(_run("counterexample_A"))
    assert ids["counterexample_A/center_basis_dim_2"].passed
    assert ids["counterexample_A/p1_true"].passed
    ids_b = _claims_by_id(_run("counterexample_B"))
    assert ids_b["counterexample_B/jz_eq_socz_basis"].passed
    assert ids_b["counterexample_B/b_times_jz_dim_4"].passed
    assert ids_b["counterexample_B/p1_false"].passed
    assert ids_b["counterexample_B/quotient_realisation_identical_table"].passed
    _report(2, f"GF(25) pair exact incl. quotient realisation, "
               f"{out['elapsed']:.2f}s < 5s")


def test_criterion_3_tensor_heredity_failure():
    ids = _claims_by_id(_run("mat2_dual_numbers"))
    for cid in ("mat2_dual_numbers/jz_dim_1",
                "mat2_dual_numbers/p1_false",
                "mat2_dual_numbers/factors_p1_true",
                "mat2_dual_numbers/p2_conjunction",
                "mat2_dual_numbers/p3_conjunction"):
        assert ids[cid].passed
    _report(3, "tensor breaks (P1) heredity while (P2)/(P3) factor as conjunctions")


def test_criterion_4_dim12_sharpness_example():
    suite = _run("dim12_sharp")
    assert suite.passed, [c.claim_id for c in suite.failures()]
    ids = _claims_by_id(suite)
    for cid in ("dim12_sharp/matrix_relations",
                "dim12_sharp/closure_dim_12_basis_verified",
                "dim12_sharp/soc_eq_M6",
                "dim12_sharp/K_basis_dim_6",
                "dim12_sharp/Z_basis_dim_6",
                "dim12_sharp/lambda_M6_accepted",
                "dim12_sharp/p1_false"):
        assert ids[cid].passed
    _report(4, "dim-12 generator relations, bases and failing (P1) all verified")


def test_criterion_5_soc20():
    out = _timed_subprocess(
        _suite_timing_code("soc20_base", "soc20_trivext")
    )
    assert out["failed"] == []
    assert out["elapsed"] < 5.0, f"took {out['elapsed']:.2f}s, budget 5s"
    ids = _claims_by_id(_run("soc20_base"))
    for cid in ("soc20_base/matrix_relations",
                "soc20_base/loewy_1_2_2_2_2_1",
                "soc20_base/jz_eq_M4_M5_inside_K",
                "soc20_base/k_not_ideal",
                "soc20_base/predict_p2T_false"):
        assert ids[cid].passed
    ids_t = _claims_by_id(_run("soc20_trivext"))
    assert ids_t["soc20_trivext/p2_false"].passed
    _report(5, f"soc20 relations, Loewy layers and dim-20 extension confirmed, "
               f"{out['elapsed']:.2f}s < 5s")


def test_criterion_6_lemma_suites_zero_failures():
    failed = []
    counts = {}
    for lemma_id in LEMMA_IDS:
        result = _run(lemma_id)
        counts[lemma_id] = len(result.claims)
        failed.extend(c.claim_id for c in result.failures())
    assert failed == [], failed
    assert counts["propertiesperp"] >= 6          # six identities per algebra
    assert counts["subspacest"] >= 5 * 7          # (i)-(vii) on >= 5 bases
    assert counts["soctensor"] >= 20              # >= 10 pairs, two formulas
    total = sum(counts.values())
    _report(6, f"all {len(LEMMA_IDS)} lemma suites exact, {total} claims, "
               "zero failures")


def test_criterion_7_family_sweep():
    members = ScopeRegistry().members
    assert len(members) >= 30
    bad_p1 = [m.member_id for m in members
              if m.algebra.dim <= 11 and not property_verdicts(m.algebra).p1.holds]
    bad_p2 = [m.member_id for m in members
              if m.algebra.dim <= 16 and not property_verdicts(m.algebra).p2.holds]
    assert bad_p1 == [] and bad_p2 == []
    suite = _run("family")
    assert suite.passed, [c.claim_id for c in suite.failures()]
    # sharpness pairing: the corpus violators sit just above the bounds
    assert not property_verdicts(get("dim12_sharp")).p1.holds
    assert not property_verdicts(get("soc20_trivext")).p2.holds
    hist = dimension_histogram(members)
    _report(7, f"{len(members)} verified members {dict(hist)}; no (P1) violation "
               "below 12, none for (P2) below 17; sharpness witnessed at 12 and 20")


PAPER_SUITE_SHA256 = "e5276b87be2a8d8b17cfc724bf4eb6a48843b33f913dd0af5a02462aeff27a18"


def test_criterion_8_engineering():
    runs = []
    for _ in range(2):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "symcenter", "paper-suite",
             "--format", "machine"],
            capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
        runs.append((proc.stdout, elapsed))
    assert runs[0][0] == runs[1][0], "machine reports differ between runs"
    # the frozen report: a kernel change that moves any byte fails here
    digest = hashlib.sha256(runs[0][0].encode("utf-8")).hexdigest()
    assert digest == PAPER_SUITE_SHA256, f"machine report sha256 is {digest}"
    doc = json.loads(runs[0][0])
    assert doc["schema_version"] == 1
    assert doc["summary"]["failed"] == 0
    _report(8, f"two full runs exit 0 in {runs[0][1]:.1f}s/{runs[1][1]:.1f}s "
               "with byte-identical machine reports")
