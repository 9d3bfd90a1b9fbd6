"""Hash-consed structure tables: one validated core per table in a block.

Every view of a table shares its core and the facts kept there.  Inside an
``interning()`` block equal tables share one core, whether or not the first
view is still alive; outside one every new table gets its own.  Unequal
tables never share a core, the certified radical is one per table, and
views and cores are freed by reference counting alone, so what a run
computes depends neither on when the cycle collector runs nor on who else
holds an algebra.
"""

import gc
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from symcenter import GF, QQ, SkewPresentation, from_skew_presentation, gf25
from symcenter import algebra, constructions, linalg, substructures
from symcenter.algebra import Algebra, interning, memoised
from symcenter.analysis import analyze
from symcenter.constructions import (
    from_matrix_generators,
    opposite,
    quotient,
    tensor,
    trivial_extension,
)
from symcenter.corpus import get
from symcenter.errors import (
    AlgebraMismatch,
    FieldMismatch,
    FileFormatError,
    SymcenterError,
)
from symcenter.fileformat import emit_structure_constants, load_algebra, parse_document
from symcenter.substructures import (
    j_of_center,
    property_verdicts,
    radical,
    reynolds,
    soc_of_center,
    socle,
)
from symcenter.suites import run_paper_suite
from symcenter.symmetric import symmetric_quotient, symmetrize

from conftest import CASES
from oracles import dense_entries, dense_table

ROOT = CASES.parent

# the operations of the analyze_small benchmark workload
_OPS = ([f"analyze:{name}" for name in (
    "counterexample_B", "dim12_sharp", "dual_numbers_gf3", "firstexample_i",
    "mat2_dual_numbers", "mat2_gf3", "scalars_gf3", "soc20_base", "soc20_trivext",
    "trivext_dual_gf3")]
    + [f"roundtrip:{name}" for name in
       ("mat2_dual_numbers", "soc20_trivext", "trivext_dual_gf3")])


def _dual_table(field):
    t = field.zeros((2, 2, 2))
    t[0, 0, 0] = t[0, 1, 1] = t[1, 0, 1] = field.one_enc
    return t


@contextmanager
def _counting():
    """Count the calls of algebra._validate and linalg.rref_data."""
    counts = Counter()
    saved = [(mod, name, getattr(mod, name))
             for mod, name in ((algebra, "_validate"), (linalg, "rref_data"))]

    def counter(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    for mod, name, fn in saved:
        setattr(mod, name, counter(name, fn))
    try:
        yield counts
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


# -- sharing ------------------------------------------------------------------


@pytest.mark.parametrize("field", [GF(7), gf25(), QQ], ids=repr)
def test_replace_shares_the_table_and_unit(field):
    a = from_skew_presentation(field, SkewPresentation.anticommuting([2, 2]))
    b = a.replace(name="x", sym_form=[0, 0, 0, 1])
    assert b._core is a._core and b.one is a.one
    assert all(x is y for x, y in zip(b.entries, a.entries))
    assert b.name == "x" and a.name is None


def _built(field, table, one, **view):
    """An algebra whose table is handed over as a construction hands one
    over: the flat indexes of its nonzero constants, their values and the
    unit."""
    flat = np.flatnonzero(table != field.zero_enc)
    core = algebra.core_of_terms(field, len(one), flat, table.reshape(-1)[flat], one)
    return Algebra(field, None, None, _core=core, **view)


def test_a_caller_array_is_copied():
    f = GF(101)
    with interning():
        built = _built(f, _dual_table(f), f.arr([1, 0]))
        table, one = _dual_table(f), f.arr([1, 0])
        copied = Algebra(f, table, one)
        # the table is read into entries, never aliased: writing it changes nothing
        assert not any(np.shares_memory(table, arr) for arr in copied.entries)
        table[1, 1, 0] = 1
        assert dense_table(copied).tolist() == _dual_table(f).tolist()
    assert copied._core is built._core
    assert not np.shares_memory(copied.one, one) and table.flags.writeable and one.flags.writeable


def test_core_of_terms_leaves_a_caller_unit_as_it_is():
    # a unit the caller could still write is copied, its flag untouched;
    # a read-only one is shared
    f = GF(101)
    one = f.arr([1, 0])
    a = _built(f, _dual_table(f), one)
    assert one.flags.writeable and not a.one.flags.writeable
    assert not np.shares_memory(a.one, one)
    one[0] = 0
    assert a.one.tolist() == [1, 0]
    frozen = f.arr([1, 0])
    frozen.flags.writeable = False
    assert _built(f, _dual_table(f), frozen).one is frozen


def test_every_table_reaches_its_core_through_one_core_of_terms_call(monkeypatch, g3):
    calls = []
    core_of_terms = algebra.core_of_terms

    def counting(*args):
        calls.append(args[1])
        return core_of_terms(*args)

    # the binding Algebra and quotient_core call, and the one the
    # constructions imported
    for module in (algebra, constructions):
        monkeypatch.setattr(module, "core_of_terms", counting)
    a = Algebra(g3, _dual_table(g3), [1, 0])
    assert calls == [2]
    builds = {
        "tensor": lambda: tensor(a, a),
        "trivial_extension": lambda: trivial_extension(a),
        "opposite": lambda: opposite(a),
        "quotient": lambda: quotient(a, linalg.Subspace.from_rows(g3, 2, [[0, 1]])),
        "from_skew_presentation": lambda: from_skew_presentation(
            g3, SkewPresentation.commuting([3])),
        "from_matrix_generators": lambda: from_matrix_generators(
            g3, 2, {"M": [[0, 1], [0, 0]]}),
    }
    for name, build in builds.items():
        del calls[:]
        assert [build().dim] == calls, name


def test_equal_tables_share_one_core_and_its_facts_inside_a_block(g3):
    with interning(), _counting() as counts:
        a = Algebra(g3, _dual_table(g3), [1, 0])
        b = Algebra(g3, _dual_table(g3), [1, 0], name="b")
    assert b._core is a._core and a.same_table(b) and counts["_validate"] == 1
    assert b.center() is a.center()


def test_outside_a_block_every_table_gets_its_own_core(g3):
    with _counting() as counts:
        a = Algebra(g3, _dual_table(g3), [1, 0])
        b = Algebra(g3, _dual_table(g3), [1, 0])
    assert b._core is not a._core and a.same_table(b) and counts["_validate"] == 2


def test_a_block_shares_a_table_whose_first_view_is_gone(g3):
    # what is shared depends on what the block built, not on what is alive
    with interning():
        first = Algebra(g3, _dual_table(g3), [1, 0])
        core = weakref.ref(first._core)
        del first
        again = Algebra(g3, _dual_table(g3), [1, 0])
        assert again._core is core()
    del again
    assert core() is None


def test_a_block_opened_inside_another_joins_it_and_any_block_ends(g3):
    with interning():
        a = Algebra(g3, _dual_table(g3), [1, 0])
        with interning():
            b = Algebra(g3, _dual_table(g3), [1, 0])
        c = Algebra(g3, _dual_table(g3), [1, 0])
        assert a._core is b._core is c._core
    with pytest.raises(ValueError), interning():
        raise ValueError
    assert algebra._INTERNED is None
    assert Algebra(g3, _dual_table(g3), [1, 0])._core is not a._core


def test_one_table_over_two_fields_gets_two_cores(g2, g3):
    with interning():
        a2 = Algebra(g2, _dual_table(g2), [1, 0])
        a3 = Algebra(g3, _dual_table(g3), [1, 0])
    assert a2._core is not a3._core


def test_tables_that_differ_in_one_entry_get_two_cores():
    f = GF(3)
    with interning():
        a = from_skew_presentation(f, SkewPresentation.commuting([3]))
        t = dense_table(a)
        t[1, 1, 2] = 2                # x * x = 2 x^2 is another algebra
        b = Algebra(f, t, a.one)
    assert b._core is not a._core and not a.same_table(b)
    assert not np.array_equal(dense_table(a), dense_table(b))


def test_a_colliding_hash_never_shares_unequal_tables(monkeypatch):
    monkeypatch.setattr(algebra, "_digest", lambda field, table, one: 0)
    f = GF(5)
    with interning():
        built = [from_skew_presentation(f, SkewPresentation.commuting([3])),
                 from_skew_presentation(f, SkewPresentation(bounds=(2, 2), q=(((1, 0), 2),))),
                 from_skew_presentation(f, SkewPresentation.anticommuting([2, 2])),
                 from_skew_presentation(f, SkewPresentation.commuting([2, 2]))]
        assert len({id(a._core) for a in built}) == 4
        # every equal table still finds its own core among the colliding ones
        again = from_skew_presentation(f, SkewPresentation.anticommuting([2, 2]))
        assert again._core is built[2]._core
        t1, t2 = tensor(built[0], built[2]), tensor(built[0], built[3])
    assert not t1.same_table(t2)


def test_qq_tables_are_keyed_by_value():
    with interning():
        a = Algebra(QQ, _dual_table(QQ), [1, 0])
        b = Algebra(QQ, np.array(_dual_table(QQ).tolist(), dtype=object), [Fraction(2, 2), 0])
        t = _dual_table(QQ)
        t[1, 1, 0] = Fraction(1, 2)   # x^2 = 1/2, not the dual numbers
        c = Algebra(QQ, t, [1, 0])
    assert b._core is a._core and c._core is not a._core


def test_an_integral_fraction_is_read_as_its_int():
    # a built table may hold Fraction(2) where a parsed one holds 2; every
    # reader goes by value: keys, digest, sharing, printing and emission
    def x_cubed_table(two, unit):
        t = np.zeros((3, 3, 3), dtype=object)    # basis 1, x, x^2/2
        t[0, 0, 0] = t[0, 1, 1] = t[1, 0, 1] = t[0, 2, 2] = t[2, 0, 2] = unit
        t[1, 1, 2] = two
        return t

    as_int = x_cubed_table(2, 1)
    as_frac = x_cubed_table(Fraction(2), Fraction(1))
    assert algebra.coords_key(QQ, as_int) == algebra.coords_key(QQ, as_frac)
    one_int, one_frac = np.array([1, 0, 0], dtype=object), np.array([Fraction(1), 0, 0], dtype=object)
    assert (algebra._digest(QQ, dense_entries(QQ, as_int), one_int)
            == algebra._digest(QQ, dense_entries(QQ, as_frac), one_frac))
    with interning():
        a = Algebra(QQ, as_int, one_int)
        b = _built(QQ, as_frac, one_frac, labels=["1", "x", "y"])
    assert b._core is a._core
    a = Algebra(QQ, x_cubed_table(2, 1), [1, 0, 0], labels=["1", "x", "y"], name="x3")
    b = _built(QQ, x_cubed_table(Fraction(2), Fraction(1)), np.array(one_frac),
               labels=["1", "x", "y"], name="x3")
    c = dense_table(b)[1, 1, 2]
    assert b._core is not a._core and c == 2 and type(c) is Fraction
    assert a.element_str([3, 0, Fraction(1, 2)]) == "3*1 + 1/2*y"
    assert b.element_str([Fraction(6, 2), 0, Fraction(1, 2)]) == "3*1 + 1/2*y"
    assert emit_structure_constants(a) == emit_structure_constants(b)
    assert json.loads(emit_structure_constants(b))["presentation"]["table"][1][1] == [0, 0, 2]
    assert analyze(a).to_text() == analyze(b).to_text()


def test_paper_suite_validates_each_table_once():
    # a cold process, so that no algebra from another test is reused
    proc = subprocess.run([sys.executable, __file__, "paper-suite"], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    per_table = json.loads(proc.stdout)
    assert per_table and set(per_table) == {1}


def test_paper_suite_runs_each_ideal_test_and_radical_rule_once():
    # a cold process, so that no memo from another test is found; the rule
    # runs on every table whose radical is asked for, at most once per core
    proc = subprocess.run([sys.executable, __file__, "memos"], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    for name in ("is_ideal", "radical_rule"):
        assert runs[name]["keys"] > 0 and runs[name]["runs per key"] == [1], name


def test_is_ideal_runs_once_per_table_and_subspace(monkeypatch):
    computed = []
    quotient_coords = linalg.Subspace.quotient_coords

    def counting(self, rows):
        computed.append(self.dim)
        return quotient_coords(self, rows)

    monkeypatch.setattr(linalg.Subspace, "quotient_coords", counting)
    base = get("dim12_sharp")
    a = Algebra(base.field, dense_table(base), base.one)      # a new core, with no memo
    k = a.commutator_space()
    for u in (k, a.ideal_closure(k)):
        verdict, before = a.is_ideal(u), len(computed)
        assert before > 0
        # another view of the table, and an equal subspace, compute nothing
        twin = linalg.Subspace(u.field, u.ambient_dim, u.basis.copy())
        assert a.replace(name="another view").is_ideal(twin) is verdict
        assert len(computed) == before
        computed.clear()
    assert not a.is_ideal(k) and a.is_ideal(a.ideal_closure(k))
    # a subspace with the same bytes over another field, or in another
    # ambient dimension, is refused before the memo is read
    with pytest.raises(FieldMismatch):
        a.is_ideal(linalg.Subspace(GF(5), k.ambient_dim, k.basis))
    with pytest.raises(AlgebraMismatch):
        a.is_ideal(linalg.Subspace(k.field, k.ambient_dim * k.dim, k.basis.reshape(1, -1)))


# -- one certified radical per table -------------------------------------------


def test_a_seedless_twin_of_a_certified_table_gets_the_rule():
    # every view takes the rule; the twin's radical is the core's certificate
    base = get("soc20_base")
    with interning():
        # soc20_trivext as the registry builds it, on tables new to the block
        t = trivial_extension(Algebra(base.field, dense_table(base), base.one.copy()))
        assert radical(t).strategy == "kuelshammer"
        facts = (socle, j_of_center, soc_of_center, reynolds, property_verdicts)
        kept = [fact(t) for fact in facts]
        twin = Algebra(t.field, dense_table(t), t.one.copy())
    assert twin._core is t._core
    # the certificate and the facts derived from it are kept on the core
    assert "radical_cert" not in twin._cache
    assert radical(twin) is radical(t) and twin._cache["radical_cert"] is radical(t)
    assert "radical_rule" in t._core.facts
    assert all(fact(twin) is k for fact, k in zip(facts, kept))


def test_the_radical_is_certified_once_per_table(monkeypatch):
    proved = []
    proves = substructures._proves_radical

    def counting(a, sub):
        proved.append(a._core)
        return proves(a, sub)

    monkeypatch.setattr(substructures, "_proves_radical", counting)
    f, facts = GF(7), (socle, j_of_center, soc_of_center, reynolds, property_verdicts)
    with interning():
        c = from_skew_presentation(f, SkewPresentation.commuting([3]))
        a = from_skew_presentation(f, SkewPresentation.commuting([2, 3])).replace(
            sym_form=[0, 0, 0, 0, 0, 1])
        # each table by a second route, a plain copy, then by replace views
        # and quotients: A/I_mu is A for mu = the form, k[x2]/(x2^3) for x1
        twin_c, twin_a = (Algebra(f, dense_table(b), b.one.copy()) for b in (c, a))
        views = [a, twin_a, a.replace(name="renamed"), twin_a.replace(sym_form=a.sym_form),
                 symmetrize(a, a.sym_form)[1]]
        quotients = [c, twin_c, symmetric_quotient(a, a.monomial("x1")).quotient]
        for group in (views, quotients):
            assert all(v._core is group[0]._core for v in group)
            cert = radical(group[0])
            assert all(radical(v) is cert and v._cache["radical_cert"] is cert for v in group)
            derived = [fact(group[0]) for fact in facts]
            assert all(fact(v) is d for v in group for fact, d in zip(facts, derived))
    assert proved == [a._core, c._core]


def test_a_wrong_hint_is_rejected_with_the_same_message_after_j_is_known():
    with interning():
        a = get("dim12_sharp")
        doc = {"field": {"kind": "prime", "p": 3},
               "presentation": {"type": "structure_constants", "dim": 12,
                                "table": dense_table(a).tolist(), "one": a.one.tolist()},
               "radical_hint": {"kind": "basis", "vectors": [[0] * 11 + [1]]}}
        for _ in range(2):      # the second time, J is known on the interned core
            with pytest.raises(FileFormatError, match=(
                    r"^radical_hint: the hint names a span of dimension 1, which is "
                    r"not J\(A\) \(dimension 11\)$")):
                parse_document(doc)


# -- lifetimes ----------------------------------------------------------------


@contextmanager
def _tracked(monkeypatch):
    """Weak references to every view built inside and to every core made
    inside, with the cycle collector off.  Cores that were alive before
    (say, a corpus algebra's, which the registry keeps) are left out."""
    refs = []
    init = Algebra.__init__
    first_new = next(algebra._SERIALS) + 1

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))
        if self._core.serial >= first_new:
            refs.append(weakref.ref(self._core))

    monkeypatch.setattr(Algebra, "__init__", tracking)
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def _run_op(op: str, raised=None):
    """One analyze_small operation; a SymcenterError it raises is kept in
    ``raised`` when given, and with it every frame of its traceback and
    the algebras they hold, as a caller that stores exceptions would."""
    kind, _, name = op.partition(":")
    path = CASES / f"{name}.json"
    try:
        if kind == "analyze":
            a = load_algebra(path)
        else:
            a = parse_document(json.loads(emit_structure_constants(load_algebra(path))))
        analyze(a).to_machine()
    except SymcenterError as exc:
        if raised is not None:
            raised.append(exc)


@pytest.mark.parametrize("path", sorted(CASES.glob("*.json")), ids=lambda p: p.stem)
def test_analyze_frees_every_algebra_by_reference_counting(path, monkeypatch):
    with _tracked(monkeypatch) as refs:
        _run_op(f"analyze:{path.stem}")
        assert refs and [r for r in refs if r() is not None] == []


def _build_every_construction(f):
    """Every construction on a table no other test builds, including the
    ones whose table is the input's own: A/I_mu with I_mu = 0, and A (x) k."""
    a = from_skew_presentation(f, SkewPresentation.commuting([2, 3])).replace(
        sym_form=[0, 0, 0, 0, 0, 1])
    k = Algebra(f, [[[1]]], [1])
    jz = linalg.Subspace.from_rows(f, 6, [[0, 0, 0, 0, 0, 1]])
    built = [tensor(a, a), trivial_extension(a), quotient(a, jz), opposite(a),
             symmetric_quotient(a, a.monomial("x2")).quotient,
             symmetric_quotient(a, a.one_element()).quotient,
             symmetrize(a, a.sym_form)[1], tensor(a, k), tensor(k, a)]
    built.append(trivial_extension(built[1]))
    for b in built:
        property_verdicts(b)
    return a, built


def test_constructions_free_every_algebra_by_reference_counting(monkeypatch):
    with _tracked(monkeypatch) as refs:
        _build_every_construction(GF(11))
        assert len(refs) > 10 and [r for r in refs if r() is not None] == []


def test_a_block_frees_every_algebra_by_reference_counting_when_it_ends(monkeypatch):
    with _tracked(monkeypatch) as refs:
        with interning():
            a, built = _build_every_construction(GF(13))
            # in the block these quotients and products have A's own table
            assert all(b._core is a._core for b in built[5:9])
            del a, built
        assert len(refs) > 10 and [r for r in refs if r() is not None] == []


def test_a_core_keeps_only_cores_made_after_it(g3):
    base = from_skew_presentation(g3, SkewPresentation.commuting([2]))
    t = trivial_extension(base)
    with interning():
        older = Algebra(g3, dense_table(t), t.one.copy())      # T(A)'s table first
        a = Algebra(g3, dense_table(base), base.one.copy())
        assert trivial_extension(a)._core is older._core
        assert trivial_extension(a)._core is older._core
    # A's memo of the older core is a weak reference, a miss once it is gone
    memo = a._core.facts["trivial_extension"]
    assert isinstance(memo, weakref.ref) and memo() is older._core
    del older
    assert memo() is None
    assert trivial_extension(a)._core is a._core.facts["trivial_extension"]
    assert trivial_extension(base)._core is base._core.facts["trivial_extension"]


def test_a_block_keeps_a_memo_whose_result_is_an_older_core(monkeypatch):
    built = []
    quotient_data = algebra.quotient_data

    def counting(a, ideal):
        built.append(ideal.dim)
        return quotient_data(a, ideal)

    # the one binding quotient_core builds A/I with
    monkeypatch.setattr(algebra, "quotient_data", counting)
    with interning():
        c = from_skew_presentation(GF(7), SkewPresentation.commuting([3]))
        a = from_skew_presentation(GF(7), SkewPresentation.commuting([2, 3])).replace(
            sym_form=[0, 0, 0, 0, 0, 1])
        for _ in range(3):
            # for z = x1, A/I_mu is k[x2]/(x2^3) on the table of c: an older core
            w = symmetric_quotient(a, a.monomial("x1"))
            assert w.ideal.dim == 3 and w.quotient._core is c._core
            # for z = 1, I_mu = 0 and A/I_mu is A itself, with nothing to build
            w = symmetric_quotient(a, a.one_element())
            assert w.ideal.dim == 0 and w.quotient._core is a._core
        assert built == [3]
        # A's core holds the older results only as weak references, which
        # the block keeps live
        assert not any(isinstance(v, algebra._Core) and v.serial <= a._core.serial
                       for v in a._core.facts.values())
        held = [v() for v in a._core.facts.values() if isinstance(v, weakref.ref)]
        assert sorted(core.serial for core in held) == [c._core.serial, a._core.serial]


def test_quotient_refuses_a_foreign_ideal_after_a_memo_hit():
    base = get("dim12_sharp")
    a = Algebra(base.field, dense_table(base), base.one)      # a new core, with no memo
    for ideal in (a.zero_space(), radical(a).radical):
        q = quotient(a, ideal)
        assert quotient(a, ideal)._core is q._core
        # the same coordinates over another field, or in another ambient
        # dimension, are refused before the memo is read
        with pytest.raises(FieldMismatch):
            quotient(a, linalg.Subspace(GF(5), ideal.ambient_dim, ideal.basis))
        wide = ideal.basis.reshape(min(ideal.dim, 1), ideal.dim * ideal.ambient_dim)
        with pytest.raises(AlgebraMismatch):
            quotient(a, linalg.Subspace(ideal.field, wide.shape[1], wide))
    assert quotient(a, a.zero_space())._core is a._core     # A/0 is A


def _counts_per_order(orders, keep_raised) -> list:
    """The _validate and rref_data calls of each order of operations, run
    one after another in this process."""
    seen, raised = [], []
    for order in orders:
        with _counting() as counts:
            for op in order:
                _run_op(op, raised if keep_raised else None)
        seen.append(dict(counts))
    return seen


@pytest.mark.parametrize("keep_raised", [False, True], ids=["dropped", "kept"])
def test_counts_do_not_depend_on_the_order_of_operations(keep_raised):
    # a cold process, where no other test keeps an algebra alive; with
    # "kept", every algebra of a failed operation stays alive to the end
    proc = subprocess.run([sys.executable, __file__, "orders", str(int(keep_raised))],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen[0] == seen[1] == seen[2] and seen[0]["_validate"] > 0


def _memo_runs_per_key() -> dict:
    """How often one in-process paper-suite run computes the ideal test of
    each (core, subspace) and the radical rule of each core, through the
    memos of the same slots."""
    runs = {"is_ideal": Counter(), "radical_rule": Counter()}

    def counting(name, fn):
        def counted(a, *sub):
            runs[name][(a._core.serial,
                        *(algebra.coords_key(a.field, u.basis) for u in sub))] += 1
            return fn(a, *sub)
        return memoised(name)(counted)

    algebra._is_ideal = counting("is_ideal", algebra._is_ideal.__wrapped__)
    substructures._radical_rule = counting("radical_rule",
                                           substructures._radical_rule.__wrapped__)
    run_paper_suite()
    return {name: {"keys": len(c), "runs per key": sorted(set(c.values()))}
            for name, c in runs.items()}


def _validations_per_table() -> list:
    """How often one in-process paper-suite run validates each table."""
    per_table = Counter()
    validate = algebra._validate

    def counting(core):
        per_table[(core.field._key(), core.dim, str([arr.tolist() for arr in core.entries]),
                   str(core.one.tolist()))] += 1
        return validate(core)

    algebra._validate = counting
    try:
        run_paper_suite()
    finally:
        algebra._validate = validate
    return sorted(set(per_table.values()))


if __name__ == "__main__":
    if sys.argv[1] == "orders":
        print(json.dumps(_counts_per_order(
            [_OPS, _OPS[::-1], _OPS[1::2] + _OPS[::2]], keep_raised=sys.argv[2] == "1")))
    elif sys.argv[1] == "memos":
        print(json.dumps(_memo_runs_per_key()))
    else:
        print(json.dumps(_validations_per_table()))
