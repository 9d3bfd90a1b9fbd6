"""Radical routes, socles, center substructures and the three verdicts."""

import re
import tracemalloc

import numpy as np
import pytest

from oracles import (
    dense_table,
    naive_kernel_mod,
    naive_radical_mod,
    naive_rank_mod,
    naive_span_contains_mod,
)

from symcenter import (
    GF,
    QQ,
    SkewPresentation,
    from_skew_presentation,
    gf25,
    substructures,
    tensor,
)
from symcenter.algebra import Algebra, interning
from symcenter.analysis import analyze
from symcenter.corpus import _BUILDERS, get
from symcenter.constructions import (
    from_matrix_generators,
    opposite,
    quotient,
    trivial_extension,
)
from symcenter.errors import FileFormatError, InternalCheckError
from symcenter.fields import ExtensionField
from symcenter.fileformat import parse_document
from symcenter.lemmas import ScopeRegistry
from symcenter.linalg import Subspace, subspace_intersect
from symcenter.substructures import (
    RadicalCertificate,
    is_basic,
    is_nilpotent_ideal,
    is_local,
    j_of_center,
    property_verdicts,
    radical,
    reynolds,
    soc_of_center,
    socle,
    t_space,
    verify_certificate,
)
from symcenter.symmetric import perp, symmetric_gram


def _dual_table(field):
    t = field.zeros((2, 2, 2))
    t[0, 0, 0] = 1
    t[0, 1, 1] = 1
    t[1, 0, 1] = 1
    return t


def test_local_hint_on_skew_quotient(f25):
    # the rule finds the monomials of positive degree, which span J(A)
    b = get("counterexample_B")
    cert = radical(b)
    assert cert.strategy == "kuelshammer" and cert.radical.dim == 7


def test_semisimple_hint_verified_by_gram_oracle(mat2):
    cert = radical(mat2)
    assert cert.radical.dim == 0
    # oracle: the trace-form Gram matrix tr(L_{e_i e_j}) of Mat2 has full naive rank
    t = dense_table(mat2).tolist()
    tr = [sum(t[m][k][k] for k in range(4)) for m in range(4)]
    gram = [[sum(t[i][j][m] * tr[m] for m in range(4)) for j in range(4)] for i in range(4)]
    assert naive_rank_mod(gram, 3) == 4


def test_dim12_local_radical():
    cert = radical(get("dim12_sharp"))
    assert cert.radical.dim == 11
    assert is_local(get("dim12_sharp"))


def test_dickson_over_rationals():
    a = Algebra(QQ, _dual_table(QQ), QQ.arr([1, 0]), name="dual_qq")
    cert = radical(a)
    assert cert.strategy == "dickson"
    assert cert.radical == Subspace.from_rows(QQ, 2, [[0, 1]])


def test_rule_in_large_characteristic():
    g7 = GF(7)
    a = Algebra(g7, _dual_table(g7), g7.arr([1, 0]))
    cert = radical(a)
    assert cert.strategy == "kuelshammer" and cert.radical.dim == 1


def test_rule_closes_the_small_characteristic_gap():
    g2 = GF(2)
    a = Algebra(g2, _dual_table(g2), g2.arr([1, 0]))
    cert = radical(a)
    assert (cert.strategy, cert.evidence) == _rule(2)
    assert cert.radical == Subspace.from_rows(g2, 2, [[0, 1]])
    assert t_space(a) == cert.radical      # K(A) = 0


@pytest.mark.parametrize("field", [gf25(), ExtensionField(2, [1, 1, 1])], ids=repr)
def test_rule_over_an_extension_field(field):
    # GF(q)[g] for g with eigenvalues t, t (one Jordan block) and 1 + t, on
    # the basis 1, g, g^2: structure constants outside the prime field, so
    # the p-th powers of residues need the Frobenius on their coordinates
    t, u = field.coeffs_to_enc([0, 1]), field.coeffs_to_enc([1, 1])
    g = np.array([[t, 1, 0], [0, t, 0], [0, 0, u]], dtype=np.int64)
    a = from_matrix_generators(field, 3, {"g": g}, monomial_basis=["1", "g", "g^2"])
    cert = radical(a)
    # J = span{(g - t)(g - u)} = span{t u - (t + u) g + g^2}
    coords = [field.a_mul(t, u), field.a_neg(field.a_add(t, u)), field.one_enc]
    assert cert.strategy == "kuelshammer"
    assert cert.radical == Subspace.from_rows(field, 3, np.array([coords], dtype=np.int64))


def test_basis_powers_build_no_cube():
    # T(counterexample_A), dim 100 over GF(25): the rows e_i^p are summed
    # over the 2 025 nonzero constants a block of rows at a time, so the
    # peak stays below the size of one dense n x n x n int64 array
    a = trivial_extension(get("counterexample_A"))
    p = a.field.characteristic
    tracemalloc.start()
    try:
        powers = substructures._basis_powers(a, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.dim ** 3 * 8
    for i in (0, 1, a.dim // 2, a.dim - 1):
        assert np.array_equal(powers[i], (a.basis_element(i) ** p).coords)


def _diagonal_table(field):
    """F x F on the idempotents e_1, e_2."""
    t = field.zeros((2, 2, 2))
    t[0, 0, 0] = 1
    t[1, 1, 1] = 1
    return t


def _hinted_document(field, table, one, hint):
    return {"field": {"kind": "prime", "p": field.p},
            "presentation": {"type": "structure_constants", "dim": len(one),
                             "table": table.tolist(), "one": one.tolist()},
            "radical_hint": hint}


def test_hint_rejected_cases(mat2):
    # a file's hint is a claim about J(A), refused unless it names J(A) exactly
    g2, g3 = GF(2), GF(3)
    dual2 = (g2, _dual_table(g2), g2.arr([1, 0]))
    dual3 = (g3, _dual_table(g3), g3.arr([1, 0]))
    split = (g3, _diagonal_table(g3), g3.arr([1, 1]))
    mat = (mat2.field, dense_table(mat2), mat2.one)
    cases = [
        (dual2, {"kind": "semisimple"}, "dimension 0, which is not J(A) (dimension 1)"),
        (mat, {"kind": "local_codim1"}, "dimension 3, which is not J(A) (dimension 0)"),
        (split, {"kind": "local_codim1"}, "dimension 1, which is not J(A) (dimension 0)"),
        (dual3, {"kind": "local_codim1", "vectors": [[1, 0], [0, 1]]},
         "dimension 2, which is not J(A) (dimension 1)"),
        (mat, {"kind": "basis", "vectors": np.eye(4, dtype=int).tolist()},
         "dimension 4, which is not J(A) (dimension 0)"),
        (mat, {"kind": "basis", "vectors": [[0, 1, 0, 0]]},
         "dimension 1, which is not J(A) (dimension 0)"),
        (dual2, {"kind": "basis", "vectors": []},
         "dimension 0, which is not J(A) (dimension 1)"),
        (dual3, {"kind": "basis"}, "a basis hint needs 'vectors'"),
        (dual3, {"kind": "bogus"}, "unknown radical hint kind 'bogus'"),
    ]
    for algebra, hint, why in cases:
        with pytest.raises(FileFormatError, match="^radical_hint: .*" + re.escape(why)) as err:
            parse_document(_hinted_document(*algebra, hint))
        assert err.value.location == "radical_hint"
    for algebra, hint, dim_j in ((dual3, {"kind": "local_codim1"}, 1),
                                 (mat, {"kind": "semisimple"}, 0),
                                 (dual2, {"kind": "basis", "vectors": [[0, 1]]}, 1)):
        assert radical(parse_document(_hinted_document(*algebra, hint))).radical.dim == dim_j


@pytest.mark.parametrize("seed_rows", [
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),   # not nilpotent
    ((0, 1, 0, 0),),                                           # not an ideal
])
def test_bad_seed_is_an_internal_error(monkeypatch, mat2, seed_rows):
    # a rule that returns a wrong candidate on a new core is caught by _radical
    a = Algebra(mat2.field, dense_table(mat2), mat2.one)
    assert a._core is not mat2._core
    _rule_returns(monkeypatch, a, Subspace.from_rows(mat2.field, 4, list(seed_rows)))
    with pytest.raises(InternalCheckError, match=r"^computed radical failed verification$"):
        radical(a)
    assert "radical" not in a._core.facts and "radical_cert" not in a._cache


def _rule_returns(monkeypatch, algebra, sub):
    """Make the radical rule return sub on the algebra's table, and run as
    before on every other table (the quotients that ``_proves_radical`` checks)."""
    rule = substructures._radical_rule
    monkeypatch.setattr(substructures, "_radical_rule",
                        lambda b: sub if b._core is algebra._core else rule(b))


def test_a_nilpotent_ideal_smaller_than_the_radical_is_an_internal_error(monkeypatch):
    # soc(A) of dim12_sharp is a nilpotent ideal, so it lies in J(A), but its
    # dimension is 1 against J(A)'s 11: A/soc(A) is not semisimple.  Taken
    # as J(A), it would flip all three verdicts.
    base = get("dim12_sharp")
    soc = socle(base)
    assert soc.dim == 1 and base.is_ideal(soc) and is_nilpotent_ideal(base, soc)
    assert not verify_certificate(base, RadicalCertificate(soc, "kuelshammer", "soc(A)"))
    # a new core, on which J(A) is not known yet
    a = Algebra(base.field, dense_table(base), base.one)
    assert a._core is not base._core
    with monkeypatch.context() as patched:
        _rule_returns(patched, a, soc)
        with pytest.raises(InternalCheckError, match=r"^computed radical failed verification$"):
            radical(a)
    assert "radical" not in a._core.facts and "radical_cert" not in a._cache
    # with the true rule, another view of the same table gets J(A) and verdicts
    twin = Algebra(a.field, dense_table(a), a.one, _core=a._core)
    assert radical(twin).radical == radical(base).radical
    verdicts = property_verdicts(twin)
    assert (verdicts.p1.holds, verdicts.p2.holds, verdicts.p3.holds) == (False, True, True)


def _rule(e):
    return "kuelshammer", f"{{x : xA in T(A)}}, T(A) = {{x : x^{e} in K(A)}}"


def _trunc3(field, **kw):
    t = field.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3 - i):
            t[i, j, i + j] = 1
    return Algebra(field, t, field.arr([1, 0, 0]), **kw)


def _constructed():
    """An algebra built by constructions, its radical not yet asked for."""
    return trivial_extension(from_skew_presentation(GF(3), SkewPresentation.commuting([2])))


def _cached():
    """An algebra whose radical has been computed before anything is built on it."""
    a = _trunc3(GF(7))
    radical(a)
    return a


def _socle_quotient(a):
    return quotient(a, socle(a))


def _mat2():
    m = get("matn")
    return Algebra(m.field, dense_table(m), m.one)


def _mat2_dual():
    """The table of Mat2 (x) GF(3)[x]/(x^2), as a plain structure table."""
    t = tensor(_mat2(), from_skew_presentation(GF(3), SkewPresentation.commuting([2])))
    return Algebra(t.field, dense_table(t), t.one)


# Every algebra over a finite field takes Kuelshammer's rule, with its own
# exponent.  The *_of_constructed cases build on an algebra whose radical is
# not yet asked for, the *_of_cached ones on one whose radical is known.  The
# other cases are named after the algebra and its field.
_PROVENANCE = {
    "tensor_of_constructed": (lambda: tensor(_constructed(), _constructed()), _rule(27)),
    "tensor_of_cached": (lambda: tensor(_cached(), _cached()), _rule(49)),
    "trivext_of_constructed": (lambda: trivial_extension(_constructed()), _rule(9)),
    "trivext_of_cached": (lambda: trivial_extension(_cached()), _rule(7)),
    "quotient_of_constructed": (lambda: _socle_quotient(_constructed()), _rule(3)),
    "quotient_of_cached": (lambda: _socle_quotient(_cached()), _rule(7)),
    "quotient_of_unknown": (
        lambda: quotient(_trunc3(GF(7)), Subspace.from_rows(GF(7), 3, [[0, 0, 1]])),
        _rule(7),
    ),
    "quotient_outside_j": (
        lambda: quotient(Algebra(GF(3), _diagonal_table(GF(3)), GF(3).arr([1, 1])),
                         Subspace.from_rows(GF(3), 2, [[0, 1]])),
        _rule(3),
    ),
    "opposite_of_constructed": (lambda: opposite(_constructed()), _rule(9)),
    "opposite_of_cached": (lambda: opposite(_cached()), _rule(7)),
    "skew_anticommuting_2x2_gf3": (
        lambda: from_skew_presentation(GF(3), SkewPresentation.anticommuting([2, 2])),
        _rule(9),
    ),
    "trunc3_gf3": (lambda: _trunc3(GF(3)), _rule(3)),
    "trunc3_gf2": (lambda: _trunc3(GF(2)), _rule(4)),
    "mat2_dual_gf3": (_mat2_dual, _rule(9)),
    "semisimple_traceform": (_mat2, _rule(9)),
    "semisimple_traceform_dim1": (
        lambda: Algebra(GF(3), GF(3).arr([[[1]]]), GF(3).arr([1])), _rule(3)),
    "dickson_qq": (
        lambda: Algebra(QQ, _dual_table(QQ), QQ.arr([1, 0])),
        ("dickson", "radical of the trace form tr(L_xy) (char 0 vs dim 2)"),
    ),
    "dickson_gf7": (lambda: _trunc3(GF(7)), _rule(7)),
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
    # in an interning block, a plain twin of the same table shares the core,
    # its J and its certificate's strategy and evidence
    build, expected = _PROVENANCE[case]
    with interning():
        first = build()
        j = radical(first).radical
        twin = Algebra(first.field, dense_table(first), first.one.copy())
        assert (radical(twin).strategy, radical(twin).evidence) == expected
        assert radical(twin).radical == j
        del first
        a = build()
    assert a._core is twin._core
    assert (radical(a).strategy, radical(a).evidence) == expected
    assert verify_certificate(a, radical(a))


def test_construction_provenance_does_not_depend_on_call_order():
    # a GF(7) algebra, its quotient by x^2 (inside J) and its opposite
    def build(parent_first):
        a = _trunc3(GF(7))
        if parent_first:
            radical(a)
        return quotient(a, Subspace.from_rows(GF(7), 3, [[0, 0, 1]])), opposite(a)

    fresh, warmed = build(False), build(True)
    for b1, b2 in zip(fresh, warmed):
        for b in (b1, b2):
            assert (radical(b).strategy, radical(b).evidence) == _rule(7)
        assert analyze(b1).to_text() == analyze(b2).to_text()


def test_constructions_compute_no_radical_at_build_time(monkeypatch):
    # the rule runs only when a radical is asked for, never while building
    def refused(_algebra):
        raise InternalCheckError("the radical rule ran")

    g3 = GF(3)
    a = _trunc3(g3)
    monkeypatch.setattr(substructures, "_radical_rule", refused)
    x2 = Subspace.from_rows(g3, 3, [[0, 0, 1]])
    built = [tensor(a, a), trivial_extension(a), quotient(a, x2), opposite(a),
             from_skew_presentation(g3, SkewPresentation.anticommuting([2, 2]))]
    for b in [a] + built:
        assert "radical" not in b._core.facts
        with pytest.raises(InternalCheckError, match="^the radical rule ran$"):
            radical(b)


def test_general_basis_hint_with_nondegenerate_quotient(mat2, dual3):
    # the rule finds the span of E_ij (x) x, on a plain table and on the tensor
    t = tensor(mat2, dual3)
    bare = Algebra(t.field, dense_table(t), t.one)
    cert = radical(bare)
    vectors = [[int(i == 2 * r + 1) for i in range(8)] for r in range(4)]
    assert cert.strategy == "kuelshammer"
    assert cert.radical == Subspace.from_rows(t.field, 8, vectors) == radical(t).radical


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


# -- the radical rule against enumeration and the paper's T(A) --------------------


def _block_triangular_subalgebra(seed):
    """A seeded unital subalgebra of M_m(GF(p)), p in (2, 3) and m <= 4, with
    p^dim <= 4096: up to three random generators, all upper triangular in one
    random block pattern, so that most have a nonzero radical."""
    rng = np.random.default_rng(seed)
    p = (2, 3)[seed % 2]
    while True:
        m = int(rng.integers(2, 5))
        cuts = rng.integers(0, 2, m - 1).cumsum()
        block = np.concatenate([[0], cuts])
        mask = block[:, None] <= block[None, :]
        gens = {f"g{g}": rng.integers(0, p, (m, m)) * mask
                for g in range(int(rng.integers(1, 4)))}
        a = from_matrix_generators(GF(p), m, gens)
        if p ** a.dim <= 4096:
            return a


def _group_algebra(p, cayley):
    """GF(p)G from the Cayley table of G, element 0 the identity."""
    n = len(cayley)
    table = np.zeros((n, n, n), dtype=np.int64)
    for g in range(n):
        for h in range(n):
            table[g, h, cayley[g][h]] = 1
    return Algebra(GF(p), table, GF(p).arr([1] + [0] * (n - 1)))


# S3 as 0 = (), 1 = (123), 2 = (132), 3 = (12), 4 = (13), 5 = (23); C4 = Z/4
_S3 = [[0, 1, 2, 3, 4, 5],
       [1, 2, 0, 4, 5, 3],
       [2, 0, 1, 5, 3, 4],
       [3, 5, 4, 0, 2, 1],
       [4, 3, 5, 1, 0, 2],
       [5, 4, 3, 2, 1, 0]]
_C4 = [[(g + h) % 4 for h in range(4)] for g in range(4)]

_ORACLE_CASES = {
    **{f"matrix_subalgebra_{seed}": (lambda seed=seed: _block_triangular_subalgebra(seed), None)
       for seed in range(24)},
    # dim J from group theory: GF(2)S3 = GF(2)C2 + M_2(GF(2)); GF(3)S3 has a
    # normal Sylow 3-subgroup; GF(2)C4 is local
    "S3_gf2": (lambda: _group_algebra(2, _S3), 1),
    "S3_gf3": (lambda: _group_algebra(3, _S3), 4),
    "C4_gf2": (lambda: _group_algebra(2, _C4), 3),
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_radical_rule_matches_enumeration(case):
    build, dim_j = _ORACLE_CASES[case]
    built = build()
    a = Algebra(built.field, dense_table(built), built.one)     # no seed: the rule
    p = a.field.p
    rows = naive_radical_mod(dense_table(a).tolist(), a.one.tolist(), p)
    cert = radical(a)
    assert cert.strategy == "kuelshammer"
    assert cert.radical == Subspace.from_rows(a.field, a.dim, np.reshape(rows, (-1, a.dim)))
    if dim_j is not None:
        assert cert.radical.dim == dim_j


def _distinct_corpus_and_family():
    """Every corpus algebra and family member, one per (field, table)."""
    seen = {}
    algebras = [get(name) for name in _BUILDERS]
    algebras += [m.algebra for m in ScopeRegistry().members]
    for a in algebras:
        key = (a.field._key(), dense_table(a).tobytes() if a.field.dtype is not object
               else str(dense_table(a).tolist()), a.one.tobytes())
        seen.setdefault(key, a)
    return list(seen.values())


def test_radical_rule_matches_every_certificate_of_corpus_and_family():
    algebras = _distinct_corpus_and_family()
    assert len(algebras) > 49 and any(a.dim == 50 for a in algebras)  # counterexample_A
    for a in algebras:
        fresh = Algebra(a.field, dense_table(a), a.one)        # a new core: nothing shared
        assert fresh._core is not a._core
        assert radical(fresh).radical == radical(a).radical, a.name


def test_reynolds_ideal_is_the_perp_of_t():
    # the paper's characterisation R(A) = T(A)^perp of a symmetric algebra
    # over a finite field
    checked = 0
    for a in _distinct_corpus_and_family():
        if a.field.characteristic == 0 or a.sym_form is None:
            continue
        symmetric_gram(a)
        assert perp(a, t_space(a)) == reynolds(a), a.name
        checked += 1
    assert checked > 40
