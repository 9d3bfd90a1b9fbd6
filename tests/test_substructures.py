"""Radical strategies, socles, center substructures and the three verdicts."""

import numpy as np
import pytest

from oracles import naive_kernel_mod, naive_rank_mod, naive_span_contains_mod

from symcenter import GF, QQ, SkewPresentation, from_skew_presentation, tensor
from symcenter.algebra import Algebra, interning
from symcenter.analysis import analyze
from symcenter.corpus import get
from symcenter.constructions import opposite, quotient, trivial_extension
from symcenter.errors import HintRejected, InternalCheckError, RadicalUnavailable
from symcenter.linalg import Subspace, subspace_intersect
from symcenter.substructures import (
    RadicalHint,
    is_basic,
    is_local,
    j_of_center,
    property_verdicts,
    radical,
    reynolds,
    soc_of_center,
    socle,
    trace_gram,
    verify_certificate,
)


def _dual_table(field):
    t = field.zeros((2, 2, 2))
    t[0, 0, 0] = 1
    t[0, 1, 1] = 1
    t[1, 0, 1] = 1
    return t


def test_local_hint_on_skew_quotient(f25):
    b = get("counterexample_B")
    cert = radical(b)
    assert cert.strategy == "hinted_local" and cert.radical.dim == 7


def test_semisimple_hint_verified_by_gram_oracle(mat2):
    cert = radical(mat2)
    assert cert.radical.dim == 0
    # oracle: the trace-form Gram matrix of Mat2 has full naive rank
    gram = trace_gram(mat2.field, mat2.table)
    assert naive_rank_mod([list(map(int, r)) for r in gram], 3) == 4


def test_dim12_local_radical():
    cert = radical(get("dim12_sharp"))
    assert cert.radical.dim == 11
    assert is_local(get("dim12_sharp"))


def test_dickson_over_rationals():
    a = Algebra(QQ, _dual_table(QQ), QQ.arr([1, 0]), name="dual_qq")
    cert = radical(a)
    assert cert.strategy == "dickson"
    assert cert.radical == Subspace.from_rows(QQ, 2, [[0, 1]])


def test_dickson_large_characteristic():
    g7 = GF(7)
    a = Algebra(g7, _dual_table(g7), g7.arr([1, 0]))
    cert = radical(a)
    assert cert.strategy == "dickson" and cert.radical.dim == 1


def test_radical_unavailable_names_the_gap():
    g2 = GF(2)
    a = Algebra(g2, _dual_table(g2), g2.arr([1, 0]))
    with pytest.raises(RadicalUnavailable) as err:
        radical(a)
    assert "no hint" in str(err.value) and "char 2" in str(err.value)


def _diagonal_table(field):
    """F x F on the idempotents e_1, e_2."""
    t = field.zeros((2, 2, 2))
    t[0, 0, 0] = 1
    t[1, 1, 1] = 1
    return t


def test_hint_rejected_cases(mat2, dual3):
    g2, g3 = GF(2), GF(3)
    dual2 = Algebra(g2, _dual_table(g2), g2.arr([1, 0]),
                    radical_hint=RadicalHint("semisimple"))
    with pytest.raises(HintRejected,
                       match=r"^semisimple hint rejected: trace form tr\(L_xy\) is degenerate$"):
        radical(dual2)
    bad_local = Algebra(mat2.field, mat2.table, mat2.one,
                        radical_hint=RadicalHint("local_codim1"))
    with pytest.raises(HintRejected,
                       match=r"^local_codim1 hint rejected: span is not an ideal$"):
        radical(bad_local)
    split = Algebra(g3, _diagonal_table(g3), g3.arr([1, 1]),
                    radical_hint=RadicalHint("local_codim1"))
    with pytest.raises(HintRejected,
                       match=r"^local_codim1 hint rejected: span is not nilpotent$"):
        radical(split)
    too_big = Algebra(g3, _dual_table(g3), g3.arr([1, 0]),
                      radical_hint=RadicalHint("local_codim1", ((1, 0), (0, 1))))
    with pytest.raises(HintRejected,
                       match=r"^local_codim1 hint rejected: span has dimension 2, expected 1$"):
        radical(too_big)
    not_nilp = Algebra(
        mat2.field, mat2.table, mat2.one,
        radical_hint=RadicalHint("basis", ((1, 0, 0, 0), (0, 1, 0, 0),
                                           (0, 0, 1, 0), (0, 0, 0, 1))),
    )
    with pytest.raises(HintRejected,
                       match=r"^basis hint rejected: span is not nilpotent$"):
        radical(not_nilp)
    not_ideal = Algebra(mat2.field, mat2.table, mat2.one,
                        radical_hint=RadicalHint("basis", ((0, 1, 0, 0),)))
    with pytest.raises(HintRejected,
                       match=r"^basis hint rejected: span is not an ideal$"):
        radical(not_ideal)
    degenerate_quotient = Algebra(g2, _dual_table(g2), g2.arr([1, 0]),
                                  radical_hint=RadicalHint("basis", ()))
    with pytest.raises(HintRejected,
                       match=r"^basis hint rejected: trace form on the quotient is "
                             r"degenerate, so semisimplicity of A/N is not certified$"):
        radical(degenerate_quotient)
    no_vectors = Algebra(g3, _dual_table(g3), g3.arr([1, 0]),
                         radical_hint=RadicalHint("basis"))
    with pytest.raises(HintRejected, match=r"^basis hint requires explicit vectors$"):
        radical(no_vectors)
    unknown = Algebra(g3, _dual_table(g3), g3.arr([1, 0]),
                      radical_hint=RadicalHint("bogus"))
    with pytest.raises(HintRejected, match=r"^unknown hint kind 'bogus'$"):
        radical(unknown)


@pytest.mark.parametrize("seed_rows", [
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),   # not nilpotent
    ((0, 1, 0, 0),),                                           # not an ideal
])
def test_bad_seed_is_an_internal_error(mat2, seed_rows):
    seed = (Subspace.from_rows(mat2.field, 4, list(seed_rows)), "a bogus theorem")
    a = Algebra(mat2.field, mat2.table, mat2.one,
                radical_hint=RadicalHint("semisimple"), _radical_seed=lambda: seed)
    with pytest.raises(InternalCheckError,
                       match=r"^propagated radical failed verification: a bogus theorem$"):
        radical(a)


_CODIM1 = ("hinted_local", "nilpotent two-sided ideal of codimension 1 in a unital algebra")
_TENSOR = ("propagated", "J(A1) (x) A2 + A1 (x) J(A2) from component radicals")
_TRIVEXT = ("propagated", "J(A) + A* (dual copy squares to zero)")
_QUOTIENT = ("propagated", "J(A)/I: the ideal is contained in J(A), so the radical passes down")
_OPPOSITE = ("propagated", "the radical is opposite-invariant")
_SEMISIMPLE = ("semisimple_traceform", "trace form of the regular representation is nondegenerate")


def _trunc3(field, **kw):
    t = field.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3 - i):
            t[i, j, i + j] = 1
    return Algebra(field, t, field.arr([1, 0, 0]), **kw)


def _seeded():
    """An algebra whose radical comes from its construction."""
    return trivial_extension(from_skew_presentation(GF(3), SkewPresentation.commuting([2])))


def _cached():
    """No seed and no hint, but the radical has been computed (Dickson)."""
    a = _trunc3(GF(7))
    radical(a)
    return a


def _socle_quotient(a):
    return quotient(a, socle(a))


def _mat2():
    m = get("matn")
    return Algebra(m.field, m.table, m.one, radical_hint=RadicalHint("semisimple"))


def _hinted_general():
    """Mat2 (x) GF(3)[x]/(x^2) with its radical given as basis vectors E_ij (x) x."""
    t = tensor(_mat2(), from_skew_presentation(GF(3), SkewPresentation.commuting([2])))
    vectors = tuple(tuple(int(i == 2 * r + 1) for i in range(8)) for r in range(4))
    return Algebra(t.field, t.table, t.one, radical_hint=RadicalHint("basis", vectors))


_PROVENANCE = {
    "tensor_of_seeded": (lambda: tensor(_seeded(), _seeded()), _TENSOR),
    "tensor_of_cached": (lambda: tensor(_cached(), _cached()), _TENSOR),
    "trivext_of_seeded": (lambda: trivial_extension(_seeded()), _TRIVEXT),
    "trivext_of_cached": (lambda: trivial_extension(_cached()), _TRIVEXT),
    "quotient_of_seeded": (lambda: _socle_quotient(_seeded()), _QUOTIENT),
    "quotient_of_cached": (lambda: _socle_quotient(_cached()), _QUOTIENT),
    "quotient_of_unknown": (
        lambda: quotient(_trunc3(GF(7)), Subspace.from_rows(GF(7), 3, [[0, 0, 1]])),
        _QUOTIENT,
    ),
    "opposite_of_seeded": (lambda: opposite(_seeded()), _OPPOSITE),
    "opposite_of_cached": (lambda: opposite(_cached()), _OPPOSITE),
    "hinted_local_default_span": (
        lambda: from_skew_presentation(GF(3), SkewPresentation.anticommuting([2, 2])),
        _CODIM1,
    ),
    "hinted_local_vectors": (
        lambda: _trunc3(GF(3), radical_hint=RadicalHint("local_codim1",
                                                        ((0, 1, 0), (0, 0, 1)))),
        _CODIM1,
    ),
    "basis_hint_codim1": (
        lambda: _trunc3(GF(3), radical_hint=RadicalHint("basis", ((0, 1, 0), (0, 0, 1)))),
        _CODIM1,
    ),
    "hinted_general": (
        lambda: _hinted_general(),
        ("hinted_general",
         "nilpotent two-sided ideal with nondegenerate trace form on the quotient"),
    ),
    "semisimple_traceform": (lambda: _mat2(), _SEMISIMPLE),
    "semisimple_traceform_dim1": (
        lambda: Algebra(GF(3), GF(3).arr([[[1]]]), GF(3).arr([1]),
                        radical_hint=RadicalHint("semisimple")),
        _SEMISIMPLE,
    ),
    "dickson_qq": (
        lambda: Algebra(QQ, _dual_table(QQ), QQ.arr([1, 0])),
        ("dickson", "radical of the trace form tr(L_xy) (char 0 vs dim 2)"),
    ),
    "dickson_gf7": (
        lambda: _trunc3(GF(7)),
        ("dickson", "radical of the trace form tr(L_xy) (char 7 vs dim 3)"),
    ),
}


@pytest.mark.parametrize("case", list(_PROVENANCE))
def test_radical_provenance(case):
    build, expected = _PROVENANCE[case]
    a = build()
    cert = radical(a)
    assert (cert.strategy, cert.evidence) == expected
    assert verify_certificate(a, cert)


@pytest.mark.parametrize("case", list(_PROVENANCE))
def test_radical_provenance_with_a_twin_alive(case):
    # in an interning block, a twin of the same table certified by an
    # explicit basis hint shares the core (and its J) but not its strategy
    build, expected = _PROVENANCE[case]
    with interning():
        first = build()
        hint = RadicalHint("basis", tuple(map(tuple, radical(first).radical.basis.tolist())))
        twin = Algebra(first.field, first.table.copy(), first.one.copy(), radical_hint=hint)
        assert radical(twin).strategy.startswith("hinted")
        del first
        a = build()
    assert a._core is twin._core
    assert (radical(a).strategy, radical(a).evidence) == expected
    assert verify_certificate(a, radical(a))


def test_construction_provenance_does_not_depend_on_call_order():
    # a hintless GF(7) algebra, its quotient by x^2 (inside J) and its opposite
    def build(parent_first):
        a = _trunc3(GF(7))
        if parent_first:
            radical(a)
        return quotient(a, Subspace.from_rows(GF(7), 3, [[0, 0, 1]])), opposite(a)

    fresh, warmed = build(False), build(True)
    for expected, b1, b2 in zip((_QUOTIENT, _OPPOSITE), fresh, warmed):
        for b in (b1, b2):
            assert (radical(b).strategy, radical(b).evidence) == expected
        assert analyze(b1).to_text() == analyze(b2).to_text()


def test_constructions_compute_no_radical_at_build_time():
    # span{x} is not an ideal of k[x]/(x^3): the hint fails only when asked
    bogus = _trunc3(GF(3), radical_hint=RadicalHint("basis", ((0, 1, 0),)))
    x2 = Subspace.from_rows(GF(3), 3, [[0, 0, 1]])
    built = [tensor(bogus, bogus), trivial_extension(bogus), quotient(bogus, x2),
             opposite(bogus)]
    for b in built:
        with pytest.raises(HintRejected, match=r"^basis hint rejected: span is not an ideal$"):
            radical(b)


def test_general_basis_hint_with_nondegenerate_quotient(mat2, dual3):
    t = tensor(mat2, dual3)
    # strip the propagated radical, then certify via an explicit basis hint:
    # the span of E_ij (x) x is nilpotent with quotient Mat2
    vectors = []
    for i in range(4):
        vec = [0] * 8
        vec[2 * i + 1] = 1
        vectors.append(tuple(vec))
    bare = Algebra(t.field, t.table, t.one,
                   radical_hint=RadicalHint("basis", tuple(vectors)))
    cert = radical(bare)
    assert cert.strategy == "hinted_general" and cert.radical.dim == 4


def test_certificates_reverify():
    for entry in ("matn", "dim12_sharp", "soc20_base", "soc20_trivext",
                  "counterexample_A"):
        a = get(entry)
        assert verify_certificate(a, radical(a))


def test_socle_examples(mat2):
    assert socle(mat2) == mat2.full_space()
    a = get("dim12_sharp")
    assert socle(a) == a.monomial("M^6").span()


def test_socle_firstexample_matches_naive_rann_oracle():
    a = get("firstexample_i")
    j = radical(a).radical
    # oracle: right annihilator of J via naive kernels of stacked systems
    rows = []
    for s in j.basis:
        # rAnn(J) = {x : s x = 0}; in column convention s x = L_s x
        ls = a.left_mult_matrix(a.element(s))
        rows.extend([list(map(int, r)) for r in ls])
    oracle = naive_kernel_mod(rows, 3)
    assert len(oracle) == 1
    soc = socle(a)
    assert soc.dim == 1
    assert naive_span_contains_mod(oracle, [list(map(int, soc.basis[0]))], 3)
    top = a.monomial("x1^2*x2^2*x3^2")
    assert soc == top.span()


def test_center_substructures_on_counterexample_B():
    b = get("counterexample_B")
    jz = j_of_center(b)
    socz = soc_of_center(b)
    assert jz.dim == 2 and socz == jz
    full_times_jz = b.subspace_product(b.full_space(), jz)
    assert full_times_jz.dim == 4


def test_commutative_algebra_substructures(dual3):
    assert j_of_center(dual3) == radical(dual3).radical
    assert soc_of_center(dual3) == socle(dual3)
    assert reynolds(dual3) == socle(dual3)


def test_property_verdicts_examples(mat2):
    v = property_verdicts(get("firstexample_i"))
    assert (not v.p1.holds) and v.p2.holds and v.p3.holds
    a = get("firstexample_i")
    assert a.element_str(v.p1.witness.u) == "x1^2"
    prod = a.multiply_coords(v.p1.witness.u, v.p1.witness.k)
    assert np.any(prod != a.field.zero_enc)
    vb = property_verdicts(get("counterexample_B"))
    assert not vb.p1.holds and not vb.p2.holds
    vm = property_verdicts(mat2)
    assert vm.p1.holds and not vm.p2.holds and not vm.p3.holds


def test_is_basic(mat2, dual3):
    assert is_basic(get("dim12_sharp"))  # local
    assert not is_basic(mat2)
    t = tensor(get("dual_gf3"), get("trunc3_gf3"))
    # containment oracle: K(T) = 0 rows inside the radical rows
    j = radical(t).radical
    k = t.commutator_space()
    assert naive_span_contains_mod(
        [list(map(int, r)) for r in j.basis],
        [list(map(int, r)) for r in k.basis],
        3,
    )
    assert is_basic(t)


def test_reynolds_is_soc_cap_center(mat2):
    for entry in ("dim12_sharp", "soc20_trivext", "matn"):
        a = get(entry)
        assert reynolds(a) == subspace_intersect(socle(a), a.center())


def _first_witness_by_double_loop(a, u, k):
    for urow in u.basis:
        for krow in k.basis:
            prod = a.multiply_coords(urow, krow)
            if np.any(prod != a.field.zero_enc):
                return urow, krow, prod
    return None


def test_failing_verdict_witness_is_first_nonzero_product(mat2):
    algebras = [get("firstexample_i"), get("counterexample_B"), mat2]
    failures = 0
    for a in algebras:
        verdicts = property_verdicts(a)
        k = a.commutator_space()
        for verdict, u in ((verdicts.p1, j_of_center(a)), (verdicts.p2, soc_of_center(a)),
                           (verdicts.p3, reynolds(a))):
            if verdict.holds:
                assert verdict.witness is None
                continue
            failures += 1
            w = verdict.witness
            prod = a.multiply_coords(w.u, w.k)
            assert np.array_equal(prod, w.product)
            assert np.any(w.product != a.field.zero_enc)
            urow, krow, _ = _first_witness_by_double_loop(a, u, k)
            assert np.array_equal(w.u, urow) and np.array_equal(w.k, krow)
    assert failures >= 4


def test_qq_skew_cross_check_against_gf31():
    reports = [
        analyze(from_skew_presentation(field, SkewPresentation.anticommuting([3, 3, 2])))
        for field in (QQ, GF(31))
    ]
    for rep in reports:
        assert rep.dims == {"Z": 6, "K": 10, "J": 17, "soc": 1, "JZ": 5, "socZ": 3, "R": 1}
        assert tuple(rep.loewy_layers) == (1, 3, 5, 5, 3, 1)
        assert [rep.verdicts[p]["holds"] for p in ("p1", "p2", "p3")] == [False, False, True]
