"""Builders: tensor, trivial extension, quotient, opposite, presentations."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    dense_table,
    gf25_elements_of_order,
    gf25_enc_mul,
    naive_matrix_closure,
    naive_skew_table,
)

from symcenter import (
    GF,
    QQ,
    SkewPresentation,
    Subspace,
    contains,
    from_matrix_generators,
    from_skew_presentation,
    gf25,
    opposite,
    quotient,
    tensor,
    trivial_extension,
    trivext_criteria,
)
from symcenter.corpus import (
    _DIM12_M,
    _DIM12_N,
    _DIM12_WORDS,
    _SOC20_M,
    _SOC20_N,
    get,
    grid,
)
from symcenter.errors import (
    AlgebraValidationError,
    BasisClaimFailed,
    FieldMismatch,
    NotAnIdeal,
    ScalarFormatError,
)
from symcenter.fileformat import parse_document, parse_field, parse_vector
from symcenter.lemmas import TENSOR_PAIR_IDS, TRIVEXT_BASE_IDS
from symcenter.linalg import kernel, subspace_direct_sum, subspace_sum, subspace_tensor
from symcenter.substructures import (
    j_of_center,
    property_verdicts,
    radical,
    reynolds,
    socle,
    verify_certificate,
)

CASES = Path(__file__).parent.parent / "cases"


def test_tensor_dimension_and_field_guard(mat2, dual3):
    t = tensor(mat2, dual3)
    assert t.dim == 8
    with pytest.raises(FieldMismatch):
        tensor(mat2, get("dual_gf2"))


def test_tensor_heredity_failure_for_p1(mat2, dual3):
    t = get("mat2_dual_numbers")
    assert j_of_center(t).dim == 1
    v = property_verdicts(t)
    assert not v.p1.holds
    assert property_verdicts(mat2).p1.holds
    assert property_verdicts(dual3).p1.holds


def test_tensor_socle_formula():
    for ida, idb in (("matn", "dual_gf3"), ("dual_gf2", "dual_gf2"),
                     ("skew22_gf3", "dual_gf3")):
        a1, a2 = get(ida), get(idb)
        t = tensor(a1, a2)
        f = t.field
        s1, s2 = socle(a1), socle(a2)
        rows = f.a_mul(s1.basis[:, None, :, None],
                       s2.basis[None, :, None, :]).reshape(-1, t.dim)
        assert socle(t) == Subspace.from_rows(f, t.dim, rows)


def test_trivial_extension_of_commutative_base(dual3):
    t = trivial_extension(dual3)
    assert t.dim == 4 and t.is_commutative()
    assert t.sym_form is not None


def test_trivial_extension_is_built_once(dual3):
    a = dual3.replace(name="dual numbers, another view")
    t = trivial_extension(a)
    again, renamed = trivial_extension(a), trivial_extension(a.replace(name="b"))
    assert again is not t and again._core is t._core and renamed._core is t._core
    assert (t.name, renamed.name) == ("T(dual numbers, another view)", "T(b)")


def test_trivial_extension_soc20():
    t = get("soc20_trivext")
    assert t.dim == 20
    assert not property_verdicts(t).p2.holds


def test_trivext_center_formula():
    for entry in ("dual_gf3", "skew22_gf3", "counterexample_B"):
        a = get(entry)
        t = trivial_extension(a)
        f, n = a.field, a.dim
        z_rows = f.zeros((a.center().dim, 2 * n))
        z_rows[:, :n] = a.center().basis
        k = a.commutator_space()
        forms = kernel(f, k.basis).basis if k.dim else f.eye(n)
        dual_rows = f.zeros((forms.shape[0], 2 * n))
        dual_rows[:, n:] = forms
        expected = subspace_sum(
            Subspace.from_rows(f, 2 * n, z_rows),
            Subspace.from_rows(f, 2 * n, dual_rows),
        )
        assert t.center() == expected


def test_trivext_criteria_commutative_base(dual3):
    crit = trivext_criteria(dual3)
    assert crit.s_is_ideal and crit.i_is_ideal and crit.k_is_ideal
    assert crit.p1_prediction and crit.p2_prediction


def test_trivext_criteria_soc20():
    a = get("soc20_base")
    crit = trivext_criteria(a)
    k = a.commutator_space()
    assert crit.i == k
    assert not crit.k_is_ideal and not crit.i_is_ideal
    assert not crit.p2_prediction and not crit.p1_prediction


def test_trivext_predictions_match_direct():
    for entry in ("dual_gf3", "skew22_gf3", "matn", "soc20_base"):
        a = get(entry)
        crit = trivext_criteria(a)
        v = property_verdicts(trivial_extension(a))
        assert crit.p1_prediction == v.p1.holds
        assert crit.p2_prediction == v.p2.holds


def test_quotient_by_zero_is_identity(mat2):
    q = quotient(mat2, mat2.zero_space())
    assert q.same_table(mat2)


def test_quotient_commutator_formula():
    a = get("soc20_base")
    i = a.ideal_closure(a.commutator_space())
    q = quotient(a, i)
    projected = i.quotient_coords(a.commutator_space().basis)
    expected = Subspace.from_rows(a.field, q.dim, projected)
    assert q.commutator_space() == expected  # K(A/I) = (K(A)+I)/I
    j = radical(a).radical
    j2 = a.subspace_product(j, j)
    q2 = quotient(a, j2)
    proj2 = j2.quotient_coords(a.commutator_space().basis)
    assert q2.commutator_space() == Subspace.from_rows(a.field, q2.dim, proj2)


@pytest.mark.parametrize("make", [
    lambda: from_skew_presentation(GF(2), SkewPresentation.commuting((3,))),
    lambda: from_skew_presentation(gf25(), SkewPresentation.commuting((3,))),
    lambda: from_skew_presentation(QQ, SkewPresentation.commuting((3,))),
    lambda: get("counterexample_B"),
], ids=["trunc3_gf2", "trunc3_gf25", "trunc3_qq", "counterexample_B"])
def test_quotient_coords_round_trip(make, rng):
    a = make()
    f, n = a.field, a.dim
    j = radical(a).radical
    for ideal in (j, a.subspace_product(j, j)):
        assert 0 < ideal.dim < n
        d = n - ideal.dim
        # nu vanishes on the ideal
        assert not np.any(ideal.quotient_coords(ideal.basis) != f.zero_enc)
        # the lift is a section: nu(lift(y)) == y
        ys = np.concatenate([f.eye(d), f.random_enc(rng, (4, d))])
        assert np.array_equal(ideal.quotient_coords(ideal.lift_coords(ys)), ys)
        # and lift(nu(x)) == x modulo the ideal
        xs = f.random_enc(rng, (6, n))
        diff = f.a_sub(ideal.lift_coords(ideal.quotient_coords(xs)), xs)
        assert contains(ideal, Subspace.from_rows(f, n, diff))


def test_quotient_rejects_non_ideal(mat2):
    with pytest.raises(NotAnIdeal):
        quotient(mat2, Subspace.from_rows(mat2.field, 4, [[0, 1, 0, 0]]))


def test_counterexample_quotient_realisation(f25):
    a = get("counterexample_A")
    b = get("counterexample_B")
    gens = np.stack([a.monomial(w).coords for w in ("x1^2", "x2^4", "x3")])
    closure = a.ideal_closure(Subspace.from_rows(f25, 50, gens))
    assert closure.dim == 42
    assert quotient(a, closure).same_table(b)


def test_opposite_involution_and_invariants():
    a = get("dim12_sharp")
    op = opposite(a)
    assert opposite(op).same_table(a)
    assert op.center().dim == a.center().dim
    assert op.commutator_space().dim == a.commutator_space().dim
    assert socle(op).dim == socle(a).dim
    d = get("dual_gf3")
    assert opposite(d).same_table(d)


def test_skew_presentation_examples(g3, f25):
    dual = from_skew_presentation(g3, SkewPresentation.commuting([2]))
    assert dual.dim == 2
    fe = get("firstexample_i")
    assert fe.dim == 27
    a = get("counterexample_A")
    assert a.dim == 50


def test_skew_presentation_guards(g3):
    with pytest.raises(AlgebraValidationError):
        from_skew_presentation(g3, SkewPresentation((2, 0)))
    with pytest.raises(AlgebraValidationError):
        from_skew_presentation(g3, SkewPresentation((2, 2), (((1, 0), 0),)))
    with pytest.raises(AlgebraValidationError):
        from_skew_presentation(g3, SkewPresentation((2, 2), (((0, 1), 1),)))


@pytest.mark.parametrize("bounds, bad", [((2.5, 2), "2.5"), ((True, 2), "True"),
                                         ("22", "'2'")])
def test_skew_presentation_bounds_must_be_integers(g3, bounds, bad):
    # int() would truncate 2.5, read True as 1 and "2" as 2
    with pytest.raises(AlgebraValidationError, match=f"bound {bad} is not an integer"):
        from_skew_presentation(g3, SkewPresentation(bounds))
    assert from_skew_presentation(g3, SkewPresentation((np.int64(2), 2))).dim == 4


def test_skew_presentation_q_pair_given_twice_is_refused():
    # the later value used to overwrite the earlier one, giving a commutative algebra
    pres = SkewPresentation((2, 2), q=(((1, 0), 2), ((1, 0), 1)))
    with pytest.raises(AlgebraValidationError, match=r"q pair \(1, 0\) \(x2, x1\) is given twice"):
        from_skew_presentation(GF(5), pres)


@pytest.mark.parametrize("q", [((1, 2),), (((1, 0),),), (((1, 0), 2, 3),), (5,)])
def test_skew_presentation_malformed_q_entry(g3, q):
    with pytest.raises(AlgebraValidationError, match="is not \\(\\(j, i\\), value\\)"):
        from_skew_presentation(g3, SkewPresentation((2, 2), q=q))


@pytest.mark.parametrize("pair", [(1.0, 0), ("1", "0"), (True, 0)])
def test_skew_presentation_q_indices_must_be_integers(g3, pair):
    with pytest.raises(AlgebraValidationError, match="bad q index pair"):
        from_skew_presentation(g3, SkewPresentation((2, 2), q=((pair, 2),)))


_Q24 = gf25_elements_of_order(24)[0]


@pytest.mark.parametrize("field, bounds, q", [
    (GF(3), (3, 2), {}),
    (GF(3), (2, 3, 2), {(1, 0): -1, (2, 0): -1, (2, 1): -1}),
    (GF(5), (3, 1, 3), {(2, 0): 2, (1, 0): 3}),
    (QQ, (2, 3), {(1, 0): Fraction(-1)}),
    (QQ, (3, 3), {(1, 0): Fraction(2, 3)}),
    (gf25(), (5, 5, 2), {(1, 0): -1, (2, 0): _Q24, (2, 1): _Q24}),
    (gf25(), (2, 4), {(1, 0): _Q24}),
    (GF(3), (), {}),
    (GF(3), (1,), {}),
])
def test_skew_table_matches_the_per_pair_oracle(field, bounds, q):
    if field == gf25():
        def enc(v):
            return v[0] + 5 * v[1] if isinstance(v, tuple) else v % 5
        spec = {k: np.int64(enc(v)) for k, v in q.items()}   # numpy ints are encodings
        oracle = naive_skew_table(bounds, {k: enc(v) for k, v in q.items()},
                                  gf25_enc_mul, 0, 1)
    elif field == QQ:
        spec = q
        oracle = naive_skew_table(bounds, q, lambda x, y: x * y, Fraction(0), Fraction(1))
    else:
        p = field.order
        spec = q
        oracle = naive_skew_table(bounds, {k: v % p for k, v in q.items()},
                                  lambda x, y: x * y % p, 0, 1)
    a = from_skew_presentation(field, SkewPresentation(bounds, tuple(spec.items())))
    assert dense_table(a).tolist() == oracle
    assert a.one.tolist() == [field.one_enc] + [field.zero_enc] * (a.dim - 1)


def test_skew_presentation_names_must_match_bounds(g3):
    for names in (("x",), ("x", "y", "z"), ()):
        with pytest.raises(AlgebraValidationError, match="variable names"):
            from_skew_presentation(g3, SkewPresentation((2, 2), (), names))
    a = from_skew_presentation(g3, SkewPresentation((2, 2), (), ("x", "y")))
    assert a.labels == ["1", "x", "y", "x*y"]


def test_matrix_generators_size_zero_rejected(g3):
    with pytest.raises(AlgebraValidationError, match="size >= 1"):
        from_matrix_generators(g3, 0, {})


def test_matrix_generators_name_a_generator_of_the_wrong_size(g3):
    # three entries are neither a 2 x 2 matrix nor silently reshaped
    with pytest.raises(AlgebraValidationError, match=r"generator 'M' has shape \(1, 3\)"):
        from_matrix_generators(g3, 2, {"M": [[1, 0, 0]]})
    with pytest.raises(AlgebraValidationError, match="generator 'N'"):
        from_matrix_generators(g3, 2, {"M": [[1, 0], [0, 1]], "N": [1, 0, 0, 1]})


def test_matrix_generators_trivial(g3):
    a = from_matrix_generators(g3, 3, {})
    assert a.dim == 1


def test_matrix_generators_closures(g3, g2):
    a = get("dim12_sharp")
    assert a.dim == 12 and a.labels == _DIM12_WORDS
    b = get("soc20_base")
    assert b.dim == 10


def test_matrix_generators_ragged_generator_is_a_scalar_format_error(g3):
    with pytest.raises(ScalarFormatError, match="different shapes"):
        from_matrix_generators(g3, 2, {"M": [[1, 0], [0]]})


_JORDAN3 = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]


@pytest.mark.parametrize("p, size, gens", [
    (3, 12, {"M": grid(_DIM12_M), "N": grid(_DIM12_N)}),
    (2, 10, {"M": grid(_SOC20_M), "N": grid(_SOC20_N)}),
    (5, 3, {}),
    # 2 * 1 and 2 * N lie in the span of the identity and N already
    (3, 3, {"N": _JORDAN3, "twice_one": [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
            "twice_N": [[2 * x for x in row] for row in _JORDAN3]}),
    # the transpose of a Jordan block generates all of Mat_3
    (5, 3, {"N": _JORDAN3, "T": [list(col) for col in zip(*_JORDAN3)]}),
])
def test_matrix_closure_table_matches_the_frontier_oracle(p, size, gens):
    a = from_matrix_generators(GF(p), size, gens)
    table, one = naive_matrix_closure(list(gens.values()), size, p)
    assert dense_table(a).tolist() == table
    assert a.one.tolist() == one


def test_matrix_generators_basis_claims(g3):
    gens = {"M": grid(_DIM12_M), "N": grid(_DIM12_N)}
    with pytest.raises(BasisClaimFailed):
        from_matrix_generators(g3, 12, gens, monomial_basis=["1", "M"])
    bad_words = list(_DIM12_WORDS[:-1]) + ["M^7"]  # M^7 = 0 is dependent
    with pytest.raises(BasisClaimFailed):
        from_matrix_generators(g3, 12, gens, monomial_basis=bad_words)
    with pytest.raises(BasisClaimFailed):
        from_matrix_generators(g3, 12, gens,
                               monomial_basis=list(_DIM12_WORDS[:-1]) + ["Q"])


# -- each construction's theorem about its output's radical ----------------------


def _theorem_radical(kind, out, parts, ideal=None):
    """J(out) as the construction's theorem states it, from the certified
    radicals of its inputs."""
    j = [radical(part).radical for part in parts]
    if kind == "tensor":
        a1, a2 = parts
        return subspace_sum(subspace_tensor(j[0], a2.full_space()),
                            subspace_tensor(a1.full_space(), j[1]))
    if kind == "trivial_extension":
        return subspace_direct_sum(j[0], parts[0].full_space())
    if kind == "quotient":
        assert contains(j[0], ideal)        # the theorem needs I inside J(A)
        return Subspace.from_rows(out.field, out.dim, ideal.quotient_coords(j[0].basis))
    if kind == "opposite":
        return j[0]
    # skew_truncated: the monomials of positive degree; the unit is the first
    return Subspace.from_rows(out.field, out.dim, out.field.eye(out.dim)[1:])


def _case_node(field_spec, node):
    """A construction node of a case file: its algebra, its inputs' algebras
    (each parsed from its own node) and, for a quotient, the ideal."""
    def build(n):
        return parse_document({"field": field_spec, "presentation": n})

    parts = [build(node[key]) for key in ("left", "right", "base") if key in node]
    ideal = None
    if node["type"] == "quotient":
        field, base = parse_field(field_spec), parts[0]
        rows = [parse_vector(field, v, "ideal", base.dim) for v in node["ideal"]["vectors"]]
        ideal = Subspace.from_rows(field, base.dim, rows)
        if node["ideal"].get("closure", False):
            ideal = base.ideal_closure(ideal)
    return build(node), parts, ideal


def _theorem_cases():
    """Every construction node in cases/, nested ones too, then the tensor
    pairs and trivial-extension bases of the lemma suites."""
    params = []
    for path in sorted(CASES.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        stack = [("presentation", doc["presentation"])]
        while stack:
            where, node = stack.pop()
            if node["type"] not in ("structure_constants", "matrix_generators"):
                params.append(pytest.param(
                    node["type"], lambda f=doc["field"], n=node: _case_node(f, n),
                    id=f"{path.stem}:{where}"))
            stack += [(f"{where}.{key}", node[key])
                      for key in ("left", "right", "base") if key in node]
    for ida, idb in TENSOR_PAIR_IDS:
        params.append(pytest.param(
            "tensor", lambda a=ida, b=idb: (tensor(get(a), get(b)), [get(a), get(b)], None),
            id=f"tensor:{ida}(x){idb}"))
    for entry in TRIVEXT_BASE_IDS:
        params.append(pytest.param(
            "trivial_extension", lambda e=entry: (trivial_extension(get(e)), [get(e)], None),
            id=f"trivext:{entry}"))
    return params


@pytest.mark.parametrize("kind, build", _theorem_cases())
def test_certified_radical_equals_the_construction_theorem(kind, build):
    # the rule, which knows nothing of the construction, finds what its
    # theorem states: J(A1) (x) A2 + A1 (x) J(A2), J(A) + A*, J(A)/I, J(A)
    # for op(A), and the monomials of positive degree
    out, parts, ideal = build()
    cert = radical(out)
    assert cert.strategy in ("kuelshammer", "dickson")
    assert cert.radical == _theorem_radical(kind, out, parts, ideal)
    assert verify_certificate(out, cert)


def test_tensor_reynolds_formula():
    a1, a2 = get("matn"), get("dual_gf3")
    t = get("mat2_dual_numbers")
    f = t.field
    r1, r2 = reynolds(a1), reynolds(a2)
    rows = f.a_mul(r1.basis[:, None, :, None],
                   r2.basis[None, :, None, :]).reshape(-1, t.dim)
    assert reynolds(t) == Subspace.from_rows(f, t.dim, rows)
