"""Corpus suites, lemma checkers and the family generator."""

import hashlib

import pytest

import symcenter.family as family
from symcenter.algebra import interning
from symcenter.corpus import ENTRY_IDS, get
from symcenter.errors import UnknownCase
from symcenter.family import (
    commutative_local_bases,
    dimension_histogram,
    generate_symmetric_local_family,
)
from symcenter.lemmas import LEMMA_IDS
from symcenter.substructures import is_local
from symcenter.suites import SUITES, run_paper_suite
from symcenter.symmetric import symmetric_gram, symmetric_quotient


def _corpus_results():
    return [run_paper_suite(case_filter=e)[0] for e in ENTRY_IDS]


def test_run_corpus_all_pass():
    results = _corpus_results()
    assert [r.suite_id for r in results] == ENTRY_IDS
    for r in results:
        assert r.claims, r.suite_id
        assert r.passed, [c.claim_id for c in r.failures()]


def test_claim_tags_are_valid():
    for r in _corpus_results():
        for c in r.claims:
            assert c.tag in ("PAPER", "TRIVIAL", "DERIVED")
            assert c.claim_id.startswith(r.suite_id + "/")


def test_suite_table_order():
    assert [sid for _, sid, _ in SUITES] == (
        ENTRY_IDS + [f"lemma/{lemma}" for lemma in LEMMA_IDS] + ["family"]
    )
    assert [case for case, _, _ in SUITES] == ENTRY_IDS + LEMMA_IDS + ["family"]


@pytest.mark.parametrize("case, suite_id", [
    ("matn", "matn"),
    ("remark_ka", "lemma/remark_ka"),
    ("family", "family"),
])
def test_single_case_runs_one_suite(case, suite_id):
    results = run_paper_suite(case_filter=case)
    assert [r.suite_id for r in results] == [suite_id]
    assert results[0].claims
    assert results[0].passed, [c.claim_id for c in results[0].failures()]
    assert all(c.claim_id.startswith(suite_id + "/") for c in results[0].claims)


@pytest.mark.parametrize("case", ["not_an_entry", "not_a_lemma", "lemma/remark_ka"])
def test_unknown_case(case):
    with pytest.raises(UnknownCase, match="unknown case"):
        run_paper_suite(case_filter=case)


def test_registry_contents():
    assert get("counterexample_A").dim == 50
    assert get("soc20_trivext").dim == 20
    with pytest.raises(UnknownCase):
        get("unknown_algebra")


def test_family_generation():
    fam = generate_symmetric_local_family()
    assert len(fam) >= 30
    hist = dimension_histogram(fam)
    assert max(hist) <= 16
    assert sum(hist.values()) == len(fam)
    ids = [m.member_id for m in fam]
    assert len(ids) == len(set(ids))
    for m in fam:
        assert symmetric_gram(m.algebra) is not None
        assert is_local(m.algebra)


# the member ids, joined by newlines, and the dimension histogram of the
# family when source (b) built a quotient for every z: reading dim I_mu
# first must leave both as they were
_FAMILY_IDS_SHA256 = "ef85f677140bc81b0fd831f2ea44d00f60bd8a408108773fb0dab95eb0fe3d56"
_FAMILY_HISTOGRAM = {1: 27, 2: 32, 3: 19, 4: 27, 5: 8, 6: 16, 7: 4, 8: 23, 9: 3, 10: 8,
                     12: 12, 14: 4, 16: 12}


def test_family_builds_one_quotient_per_source_b_member(monkeypatch):
    # source (b) reads dim I_mu first and builds a quotient only for a
    # dimension it has not taken: 136 quotients of the T(B), one per member
    # it keeps (one per z would be 224).  Source (c) is not counted: _admit
    # drops its quotients of dimension above 16 once built
    calls = []

    def counting(algebra, z):
        calls.append(algebra.name)
        return symmetric_quotient(algebra, z)

    monkeypatch.setattr(family, "symmetric_quotient", counting)
    family._truncated_polynomial_base.cache_clear()
    family.generate_symmetric_local_family.cache_clear()
    with interning():
        members = generate_symmetric_local_family()
    ids = [m.member_id for m in members]
    source_b = [i for i in ids if i.startswith("T(B_") and "/dim" in i]
    assert len(source_b) == 136
    # source (c) takes the corpus entries, whose names do not start "T(B_"
    assert sum(name.startswith("T(B_") for name in calls) == len(source_b)
    assert hashlib.sha256("\n".join(ids).encode()).hexdigest() == _FAMILY_IDS_SHA256
    assert dimension_histogram(members) == _FAMILY_HISTOGRAM


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
    [result] = run_paper_suite(case_filter=lemma_id)
    assert result.claims
    assert result.passed, [c.claim_id for c in result.failures()]


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


def test_run_suite_hands_its_body_the_result_it_returns():
    import time

    import symcenter.corpus as corpus

    handed = []

    def body(sink):
        handed.append(sink)
        sink.check("good", "TRIVIAL", True)
        time.sleep(0.01)

    result = corpus.run_suite("synthetic", body)
    assert len(handed) == 1 and handed[0] is result
    assert [(c.claim_id, c.passed) for c in result.claims] == [("synthetic/good", True)]
    assert result.elapsed >= 0.01
    assert not hasattr(corpus, "ClaimSink")


# the 27 claim ids of prop_quotientalgebra, each with its verdict, one a line
_PROP_QUOTIENTALGEBRA_SHA256 = (
    "6202bb0cf1529f99e6a072e02214c6f4d09dd5455b6f7a5f59aa0d789a3ede86")


def test_prop_quotientalgebra_takes_each_sampled_z_once(monkeypatch):
    # one symmetric quotient per sampled z serves both (P1) and (P2):
    # 205 witnesses, where taking z once per property made 368, over the
    # same 41 quotient tables
    from symcenter import symmetric

    tables = []
    init = symmetric.QuotientWitness.__init__

    def counting(self, *args):
        init(self, *args)
        q = self.quotient
        tables.append((q.field, q.dim, *(x.tobytes() for x in q.entries)))

    monkeypatch.setattr(symmetric.QuotientWitness, "__init__", counting)
    [result] = run_paper_suite(case_filter="prop_quotientalgebra")
    assert len(tables) == 205
    assert len(set(tables)) == 41
    lines = "\n".join(f"{c.claim_id} {c.passed}" for c in result.claims)
    assert len(result.claims) == 27 and result.passed
    assert hashlib.sha256(lines.encode()).hexdigest() == _PROP_QUOTIENTALGEBRA_SHA256


def test_the_dim9_statement_has_one_evaluator(monkeypatch):
    import symcenter.lemmas as lemmas

    statement = lemmas.dim9_statement

    def p2_false_on_b_gf2_2(a):
        i_ok, s_ok, p2_ok = statement(a)
        return i_ok, s_ok, p2_ok and a.name != "B_gf2_2"

    monkeypatch.setattr(lemmas, "dim9_statement", p2_false_on_b_gf2_2)
    [fam] = run_paper_suite(case_filter="family")
    [lemma] = run_paper_suite(case_filter="dim9_trivext_lemma")
    assert [(c.claim_id, c.witness) for c in fam.failures()] == [
        ("family/dim9_bases_trivext", "B_gf2_2")]
    assert [c.claim_id for c in lemma.failures()] == [
        "lemma/dim9_trivext_lemma/p2_of_T/base/B_gf2_2"]


def test_lemma_registry_is_complete():
    assert len(LEMMA_IDS) == 24
    assert len(set(LEMMA_IDS)) == len(LEMMA_IDS)
