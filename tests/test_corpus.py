"""Corpus suites, lemma checkers and the family generator."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symcenter.algebra import interning
from symcenter.corpus import ENTRY_IDS, get
from symcenter.errors import UnknownCase
from symcenter.family import (
    commutative_local_bases,
    dimension_histogram,
    generate_symmetric_local_family,
)
from symcenter.lemmas import LEMMA_IDS, ScopeRegistry
from symcenter.substructures import is_local, property_verdicts
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
    with ScopeRegistry() as registry:
        fam = registry.members
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


def test_family_builds_one_quotient_per_source_b_member():
    # source (b) reads dim I_mu first and builds a quotient only for a
    # dimension it has not taken: 136 quotients of the T(B), one per member
    # it keeps (one per z would be 224).  Source (c) is not counted: _admit
    # drops its quotients of dimension above 16 once built
    calls = []

    def counting(name, algebra, z):
        calls.append(name)
        return symmetric_quotient(algebra, z)

    with interning():
        members = generate_symmetric_local_family(commutative_local_bases(8), counting)
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
    # one symmetric quotient per sampled z serves both (P1) and (P2), and
    # the scope registry takes each (algebra, z) once: 175 witnesses, where
    # one per draw made 205 (a z drawn from a small J(Z) repeats, and
    # dim12_sharp's M^2 is also a derived quotient's z) and one per draw
    # and property 368, over the same 41 quotient tables
    from symcenter import symmetric

    tables = []
    init = symmetric.QuotientWitness.__init__

    def counting(self, *args):
        init(self, *args)
        q = self.quotient
        tables.append((q.field, q.dim, *(x.tobytes() for x in q.entries)))

    monkeypatch.setattr(symmetric.QuotientWitness, "__init__", counting)
    [result] = run_paper_suite(case_filter="prop_quotientalgebra")
    assert len(tables) == 175
    assert len(set(tables)) == 41
    lines = "\n".join(f"{c.claim_id} {c.passed}" for c in result.claims)
    assert len(result.claims) == 27 and result.passed
    assert hashlib.sha256(lines.encode()).hexdigest() == _PROP_QUOTIENTALGEBRA_SHA256


def test_the_lemma_suites_share_one_scope_registry_per_run(monkeypatch):
    # the three nu* suites read one symmetric quotient object per (entry, z)
    # in a run; a corpus case takes no quotient and propnustar only its 29;
    # no registry outlives the run
    import weakref

    from symcenter import lemmas, suites, symmetric

    registries, suite, read, taken = [], [None], {}, []
    init, run_suite = lemmas.ScopeRegistry.__init__, suites.run_suite
    az_rows, witness_init = symmetric.QuotientWitness.az_rows, symmetric.QuotientWitness.__init__

    def tracking(self):
        init(self)
        registries.append(weakref.ref(self))

    def running(suite_id, body):
        suite[0] = suite_id
        return run_suite(suite_id, body)

    def reading(self):
        read.setdefault(suite[0], []).append(self)
        return az_rows.func(self)

    def counting(self, *args):
        witness_init(self, *args)
        taken.append(suite[0])

    monkeypatch.setattr(lemmas.ScopeRegistry, "__init__", tracking)
    monkeypatch.setattr(suites, "run_suite", running)
    monkeypatch.setattr(symmetric.QuotientWitness, "az_rows", property(reading))
    monkeypatch.setattr(symmetric.QuotientWitness, "__init__", counting)
    run_paper_suite()
    objects = []
    for lemma in ("quotientalgebrasymmetric", "propnustar", "nustar_relations"):
        witnesses = read[f"lemma/{lemma}"]
        assert len({id(w) for w in witnesses}) == 29
        objects.append({(w.algebra.name, w.z.tobytes()): id(w) for w in witnesses})
    assert len(objects[0]) == 29 and objects[1] == objects[0] and objects[2] == objects[0]
    taken.clear()
    run_paper_suite(case_filter="matn")
    assert taken == []
    run_paper_suite(case_filter="propnustar")
    assert taken == ["lemma/propnustar"] * 29
    assert len(registries) == 3 and all(ref() is None for ref in registries)


def test_one_run_builds_the_family_once_in_its_registry(monkeypatch):
    # the registry owns the family: one build per run, the family suite and
    # kultheob read the same member objects, the family's quotients are the
    # lemma suites' witnesses (one per distinct (core, form, z)), and no base
    # or member algebra outlives the run
    import weakref

    from symcenter import lemmas, suites, symmetric

    generate, bases_of = lemmas.generate_symmetric_local_family, lemmas.commutative_local_bases
    scope, witness_init = lemmas.ScopeRegistry.scope, symmetric.QuotientWitness.__init__
    builds, refs, members, swept, kultheob, witnesses = [], [], set(), set(), set(), []

    def generating(bases, witness):
        builds.append(None)
        out = generate(bases, witness)
        members.update(id(m.algebra) for m in out)
        refs.extend(weakref.ref(m.algebra) for m in out)
        return out

    def basing(max_base_dim):
        out = bases_of(max_base_dim)
        refs.extend(weakref.ref(base.algebra) for base in out)
        return out

    def scoping(self, *sources, where=None):
        out = scope(self, *sources, where=where)
        if "family" in sources:
            kultheob.update(id(a) for name, a in out if name.startswith("family/"))
        return out

    def sweeping(a):
        swept.add(id(a))
        return property_verdicts(a)

    def counting(self, *args):
        witness_init(self, *args)
        a = self.algebra
        witnesses.append((id(a._core), a.sym_form.tobytes(), self.z.tobytes()))

    monkeypatch.setattr(lemmas, "generate_symmetric_local_family", generating)
    monkeypatch.setattr(lemmas, "commutative_local_bases", basing)
    monkeypatch.setattr(lemmas.ScopeRegistry, "scope", scoping)
    monkeypatch.setattr(suites, "property_verdicts", sweeping)
    monkeypatch.setattr(symmetric.QuotientWitness, "__init__", counting)
    run_paper_suite()
    assert len(builds) == 1 and len(members) == 195
    # every member is in kultheob's scope and in the sweep, as the same object
    assert kultheob == members and swept == members
    assert len(witnesses) == len(set(witnesses)) == 353
    assert refs and all(ref() is None for ref in refs)


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


# one fixed script of draws (low, high, size): ranges 1 (no word is drawn),
# 2, 3, 7, 25, 1024 and 3 * 2^30 (which rejects a quarter of all words), with
# scalar draws after odd-sized array draws so that a carried high half is read
_DRAW_SCRIPT = [
    (0, 1, None), (-4, -3, (2, 3)),
    (0, 2, None), (-1, 1, 5), (0, 2, None),
    (0, 3, (3, 5)), (-2, 1, None),
    (0, 7, 7), (-3, 4, None), (0, 7, (0, 4)),
    (-12, 13, (2, 3)), (0, 25, None),
    (0, 1024, 3), (-512, 512, None), (0, 1024, (3, 0)),
    (0, 3 << 30, 41), (-(3 << 30), 0, None), (0, 3 << 30, (5, 7)),
    (0, 3, None),
]


def test_pcg64_stream_is_default_rng(monkeypatch):
    import symcenter.lemmas as lemmas

    stream, seeds = lemmas.Pcg64Stream, []

    class Recording(stream):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(lemmas, "Pcg64Stream", Recording)
    run_paper_suite()
    assert len(seeds) > 30
    for seed in seeds + [0, 2**32 - 1]:
        ours, numpys = stream(seed), np.random.default_rng(seed)
        for low, high, size in _DRAW_SCRIPT:
            got = ours.integers(low, high, size)
            want = numpys.integers(low, high, size, dtype=np.int64)
            assert np.asarray(got).dtype == np.int64
            assert np.shape(got) == np.shape(want), (seed, low, high, size)
            assert np.array_equal(got, want), (seed, low, high, size)


def test_pcg64_stream_refuses_what_the_suites_never_draw():
    from symcenter.lemmas import Pcg64Stream

    with pytest.raises(ValueError):
        Pcg64Stream(2**32)
    with pytest.raises(ValueError):
        Pcg64Stream(-1)
    stream = Pcg64Stream(7)
    with pytest.raises(ValueError):
        stream.integers(0, 2**32)
    with pytest.raises(ValueError):
        stream.integers(3, 3)
    with pytest.raises(ValueError):
        stream.integers(0, 5, 4, dtype=np.int32)


def test_paper_suite_loads_no_numpy_random():
    # a subprocess, because this test process has numpy.random loaded
    code = (
        "import contextlib, io, sys\n"
        "from symcenter.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['paper-suite', '--case', 'commutatorsmallestideal',"
        " '--format', 'machine'])\n"
        "assert code == 0, code\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_lemma_registry_is_complete():
    assert len(LEMMA_IDS) == 24
    assert len(set(LEMMA_IDS)) == len(LEMMA_IDS)
