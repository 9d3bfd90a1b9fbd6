"""Radical strategies, socles, center substructures and the three verdicts."""

import numpy as np
import pytest

from oracles import naive_kernel_mod, naive_rank_mod, naive_span_contains_mod

from symcenter import GF, QQ, SkewPresentation, from_skew_presentation, tensor
from symcenter.algebra import Algebra
from symcenter.analysis import analyze
from symcenter.corpus import get
from symcenter.errors import HintRejected, RadicalUnavailable
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
    assert cert.radical == Subspace.from_vectors(QQ, 2, [[0, 1]])


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


def test_hint_rejected_cases(mat2, dual3):
    g2 = GF(2)
    dual2 = Algebra(g2, _dual_table(g2), g2.arr([1, 0]),
                    radical_hint=RadicalHint("semisimple"))
    with pytest.raises(HintRejected):
        radical(dual2)
    bad_local = Algebra(mat2.field, mat2.table, mat2.one,
                        radical_hint=RadicalHint("local_codim1"))
    with pytest.raises(HintRejected):
        radical(bad_local)
    not_nilp = Algebra(
        mat2.field, mat2.table, mat2.one,
        radical_hint=RadicalHint("basis", ((1, 0, 0, 0), (0, 1, 0, 0),
                                           (0, 0, 1, 0), (0, 0, 0, 1))),
    )
    with pytest.raises(HintRejected):
        radical(not_nilp)
    degenerate_quotient = Algebra(g2, _dual_table(g2), g2.arr([1, 0]),
                                  radical_hint=RadicalHint("basis", ()))
    with pytest.raises(HintRejected):
        radical(degenerate_quotient)


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
    for s in j.basis_vectors():
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
