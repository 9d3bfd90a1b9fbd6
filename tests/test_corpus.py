"""Corpus suites, lemma checkers and the family generator."""

import pytest

from symcenter.corpus import ENTRY_IDS, get, run_corpus
from symcenter.errors import UnknownCase, UnknownLemma
from symcenter.family import (
    commutative_local_bases,
    dimension_histogram,
    generate_symmetric_local_family,
)
from symcenter.lemmas import LEMMA_IDS, check_lemma
from symcenter.substructures import is_local
from symcenter.symmetric import symmetric_structure


def test_run_corpus_all_pass():
    results = run_corpus()
    assert [r.suite_id for r in results] == ENTRY_IDS
    for r in results:
        assert r.claims, r.suite_id
        assert r.passed, [c.claim_id for c in r.failures()]


def test_claim_tags_are_valid():
    for r in run_corpus():
        for c in r.claims:
            assert c.tag in ("PAPER", "TRIVIAL", "DERIVED")
            assert c.claim_id.startswith(r.suite_id + "/")


def test_run_corpus_unknown_entry():
    with pytest.raises(UnknownCase):
        run_corpus("not_an_entry")


def test_registry_contents():
    assert get("counterexample_A").dim == 50
    assert get("soc20_trivext").dim == 20
    with pytest.raises(UnknownCase):
        get("unknown_algebra")


def test_family_generation():
    fam = generate_symmetric_local_family(16)
    assert len(fam) >= 30
    hist = dimension_histogram(fam)
    assert max(hist) <= 16
    assert sum(hist.values()) == len(fam)
    ids = [m.member_id for m in fam]
    assert len(ids) == len(set(ids))
    for m in fam:
        assert symmetric_structure(m.algebra) is not None
        assert is_local(m.algebra)


def test_family_guard():
    with pytest.raises(ValueError):
        generate_symmetric_local_family(100)


def test_commutative_local_bases_are_commutative_local():
    for base in commutative_local_bases(8):
        assert base.algebra.is_commutative()
        assert is_local(base.algebra)


@pytest.mark.parametrize("lemma_id", [
    "condsocleprod",
    "raidealnecessary",
    "socinj",
    "remark_ka",
    "reynoldsbasic",
    "centerdim3greater",
    "idealsymmetricalternative",
])
def test_fast_lemma_checkers(lemma_id):
    result = check_lemma(lemma_id)
    assert result.claims
    assert result.passed, [c.claim_id for c in result.failures()]


@pytest.mark.parametrize("lemma_id, scope", [
    ("condsocleprod", "dim12_sharp"),
    ("soctensor", "matn(x)dual_gf3"),
    ("prop_quotientalgebra", "dim12_sharp"),
])
def test_lemma_scope_filter(lemma_id, scope):
    result = check_lemma(lemma_id, scope=scope)
    assert result.claims
    assert result.passed
    assert all(scope in c.claim_id for c in result.claims)


def test_unknown_lemma():
    with pytest.raises(UnknownLemma):
        check_lemma("not_a_lemma")


def test_failing_claims_render_as_fail_lines():
    from symcenter.corpus import ClaimResult, SuiteResult
    from symcenter.suites import suite_report_machine, suite_report_text

    synthetic = SuiteResult("synthetic", [
        ClaimResult("synthetic/good", True, "TRIVIAL"),
        ClaimResult("synthetic/bad", False, "PAPER", witness="u = x"),
    ])
    text = suite_report_text([synthetic])
    assert "FAIL synthetic/bad  [u = x]" in text
    assert "PASS synthetic/good" in text
    assert "FAIL total: 1/2 claims" in text
    machine = suite_report_machine([synthetic])
    assert machine["summary"]["failed"] == 1
    assert not synthetic.passed


def test_paper_suite_repeats_with_memoised_quotients():
    from symcenter.suites import run_paper_suite, suite_report_machine

    first = suite_report_machine(run_paper_suite(case_filter="prop_quotientalgebra"))
    again = suite_report_machine(run_paper_suite(case_filter="prop_quotientalgebra"))
    assert first["summary"]["failed"] == 0 and first["summary"]["total"] > 0
    assert again == first


def test_lemma_registry_is_complete():
    assert len(LEMMA_IDS) == 24
    assert len(set(LEMMA_IDS)) == len(LEMMA_IDS)
