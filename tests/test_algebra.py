"""Algebra values: validation, multiplication, centers, ideals, Loewy series."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    dense_table,
    gf25_enc_add,
    gf25_enc_mul,
    naive_ideal_closure,
    naive_rank_mod,
    naive_rref_frac,
    naive_rref_mod,
    naive_spans_equal_mod,
)

import symcenter.algebra as algebra_module
from symcenter import GF, QQ, Subspace, contains, gf25, rank
from symcenter.algebra import Algebra, form_gram, memoised, quotient_data, row_products
from symcenter.constructions import SkewPresentation, from_skew_presentation
from symcenter.corpus import get
from symcenter.errors import (
    AlgebraMismatch,
    AlgebraValidationError,
    ImproperIdeal,
    NotAnIdeal,
    NotNilpotent,
    ScalarFormatError,
)
from symcenter.substructures import radical
from symcenter.symmetric import symmetric_quotient


def _dual_table():
    """GF(3)[x]/(x^2) on (1, x): e_0 is the unit and e_1 squares to zero."""
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0, 0, 0] = t[0, 1, 1] = t[1, 0, 1] = 1
    return t


def test_validation_cites_failing_triple(g3, mat2):
    bad = dense_table(mat2)
    bad[1, 2, 0] = 2  # E12*E21 = 2*E11 breaks associativity
    with pytest.raises(AlgebraValidationError) as err:
        Algebra(g3, bad, g3.arr([1, 0, 0, 1]))
    # (E12 E21) E12 = 2 E12 but E12 (E21 E12) = E12; every smaller triple holds
    assert err.value.triple == (1, 2, 1)
    assert str(err.value) == (
        "associativity fails at basis triple (1,2,1): (e_1 e_2) e_1 != e_1 (e_2 e_1)"
    )


def test_validation_unit_law(g3):
    table = g3.zeros((2, 2, 2))
    table[0, 0, 0] = 1  # e0*e0 = e0 but e0*e1 = 0, so e0 is not a unit
    with pytest.raises(AlgebraValidationError) as err:
        Algebra(g3, table, g3.arr([1, 0]))
    assert "unit law" in str(err.value)
    table = _dual_table()
    table[1, 0, 1] = 0  # one * e_1 = e_1 still, but e_1 * one = 0
    with pytest.raises(AlgebraValidationError, match=r"unit law fails: e_1 \* one != e_1"):
        Algebra(g3, table, [1, 0])


@pytest.mark.parametrize("table, one, labels, message", [
    (np.zeros((2, 2, 3), dtype=np.int64), [1, 0], None, r"shape \(n, n, n\)"),
    (np.zeros((2, 2), dtype=np.int64), [1, 0], None, r"shape \(n, n, n\)"),
    (np.zeros((0, 0, 0), dtype=np.int64), [], None, "dim >= 1"),
    (_dual_table(), [1, 0], ["1"], "label count must equal the dimension"),
])
def test_constructor_refuses_malformed_data(g3, table, one, labels, message):
    with pytest.raises(AlgebraValidationError, match=message):
        Algebra(g3, table, one, labels=labels)


def test_a_callers_later_edit_does_not_reach_the_algebra(g3):
    table, one, form = _dual_table(), np.array([1, 0]), np.array([0, 1])
    a = Algebra(g3, table, one, sym_form=form)
    x = a.basis_element(1)
    assert (x * x).is_zero() and a.is_commutative()
    table[1, 1, 0] = 1
    one[1] = form[0] = 1
    assert (x * x).is_zero()
    assert (a.one.tolist(), a.sym_form.tolist()) == ([1, 0], [0, 1])


def test_table_unit_and_form_are_read_only_and_shared_by_replace(g3):
    table = _dual_table()
    a = Algebra(g3, table, np.array([1, 0]), sym_form=np.array([0, 1]))
    for arr in (*a.entries, a.one, a.sym_form):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    # the caller's table is read once, never aliased: writing it changes nothing
    assert not any(np.shares_memory(table, arr) for arr in a.entries)
    table[1, 1, 0] = 1
    assert dense_table(a).tolist() == _dual_table().tolist()
    b = a.replace(name="x")
    assert b._core is a._core and b.entries is not None
    assert all(x is y for x, y in zip(b.entries, a.entries))
    assert np.shares_memory(b.one, a.one) and np.shares_memory(b.sym_form, a.sym_form)


def test_one_times_x(mat2):
    x = mat2.element([1, 2, 0, 1])
    assert mat2.one_element() * x == x
    assert x * mat2.one_element() == x


def test_soc20_relation_nm():
    a = get("soc20_base")
    n, m = a.monomial("N"), a.monomial("M")
    rhs = m ** 2 + m * n + m ** 3 + (m ** 2) * n
    assert n * m == rhs


def test_dim12_relation_m5n_zero():
    a = get("dim12_sharp")
    m, n = a.monomial("M"), a.monomial("N")
    assert ((m ** 5) * n).is_zero()
    assert (m ** 7).is_zero()


def test_left_mult_matrix(mat2):
    assert np.array_equal(mat2.left_mult_matrix(mat2.one_element()), mat2.field.eye(4))


def test_left_mult_of_nilpotent_is_nilpotent():
    a = get("dim12_sharp")
    lm = a.left_mult_matrix(a.monomial("M"))
    power = lm
    for _ in range(6):
        power = a.field.matmul2(power, lm)
    assert np.all(power == a.field.zero_enc)  # L_M^7 = L_{M^7} = 0


def test_left_mult_rank_matches_naive_oracle():
    a = get("dim12_sharp")
    lm = a.left_mult_matrix(a.monomial("M"))
    oracle = naive_rank_mod([list(map(int, r)) for r in lm], 3)
    assert oracle == 10  # frozen from the naive elimination oracle
    assert rank(a.field, lm) == oracle


def test_center_of_commutative_algebra_is_everything(dual3):
    assert dual3.center() == dual3.full_space()
    assert dual3.commutator_space().is_zero()


def test_center_closed_under_multiplication():
    for entry in ("matn", "dim12_sharp", "soc20_base", "counterexample_B"):
        a = get(entry)
        z = a.center()
        assert z.contains_vector(a.one)
        prod = a.subspace_product(z, z)
        assert contains(z, prod)


def test_subspace_product_with_unit_span(mat2):
    u = Subspace.from_rows(mat2.field, 4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    one_span = Subspace.from_rows(mat2.field, 4, [[1, 0, 0, 1]])
    assert mat2.subspace_product(u, one_span) == u


def test_commutator_annihilation_characterises_central_multiples():
    # for each central basis vector z: Az central iff K(A) z = 0
    for entry in ("dim12_sharp", "soc20_base", "matn"):
        a = get(entry)
        z = a.center()
        k = a.commutator_space()
        for row in z.basis:
            az = a.right_mult_matrix(row).T
            central = bool(np.all(z.reduce(az) == a.field.zero_enc))
            span = Subspace.from_rows(a.field, a.dim, row.reshape(1, -1))
            annihilated = a.subspace_product(k, span).is_zero()
            assert central == annihilated


def test_is_ideal_trivial_cases(mat2):
    assert mat2.is_ideal(mat2.zero_space())
    assert mat2.is_ideal(mat2.full_space())


def test_jz_not_ideal_in_dim12():
    from symcenter.substructures import j_of_center

    a = get("dim12_sharp")
    assert not a.is_ideal(j_of_center(a))


def test_socz_ideal_in_firstexample():
    from symcenter.substructures import soc_of_center

    a = get("firstexample_i")
    assert a.is_ideal(soc_of_center(a))


def test_ideal_closure_smallest_with_commutative_quotient(mat2):
    k = mat2.commutator_space()
    closure = mat2.ideal_closure(k)
    assert closure == mat2.full_space()  # Mat2 is simple
    a = get("soc20_base")
    cl = a.ideal_closure(a.commutator_space())
    from symcenter.constructions import quotient

    assert quotient(a, cl).is_commutative()


def _arith(f):
    """(add, mul, zero) of the plain-Python oracles over the field ``f``:
    Fractions over QQ, the tuple-based GF(25), integers mod p otherwise."""
    if f == QQ:
        return lambda x, y: x + y, lambda x, y: x * y, Fraction(0)
    if f.order == 25:
        return gf25_enc_add, gf25_enc_mul, 0
    p = f.order
    return lambda x, y: (x + y) % p, lambda x, y: x * y % p, 0


def _closure_oracle(a, rows):
    """The fixpoint closure of the span of ``rows`` by ``naive_ideal_closure``,
    eliminated by the plain-Python RREFs (the library's over GF(25))."""
    f = a.field
    if f == QQ:
        def span(r):
            red, piv = naive_rref_frac(r)
            return red[:len(piv)]
    elif f.order == 25:
        def span(r):
            block = np.array(r, dtype=np.int64).reshape(-1, a.dim)
            return Subspace.from_rows(f, a.dim, block).basis.tolist()
    else:
        def span(r):
            red, piv = naive_rref_mod(r, f.order)
            return red[:len(piv)]
    return naive_ideal_closure(dense_table(a).tolist(), rows.tolist(), *_arith(f), span)


@pytest.mark.parametrize("entry", ["matn", "trunc3_gf3", "soc20_base",
                                   "counterexample_B", "skew23_qq"])
def test_ideal_closure_matches_the_fixpoint_oracle(entry):
    if entry == "skew23_qq":
        a = from_skew_presentation(QQ, SkewPresentation.anticommuting([2, 3]))
    else:
        a = get(entry)
    f, n = a.field, a.dim
    rng = np.random.default_rng(sum(map(ord, entry)))
    # U = 0, U = A, K(A), a random vector, and random vectors without a
    # component on e_0 (the unit of the presentations), which stay in J(A)
    blocks = [f.zeros((0, n)), f.eye(n), a.commutator_space().basis,
              f.random_enc(rng, (1, n))]
    for k in (1, 2):
        rows = f.random_enc(rng, (k, n))
        rows[:, 0] = f.zero_enc
        blocks.append(rows)
    for rows in blocks:
        closure = a.ideal_closure(Subspace.from_rows(f, n, rows))
        assert closure.basis.tolist() == _closure_oracle(a, rows)
        assert a.is_ideal(closure)


def _basis_products_oracle(a, u, v):
    """P[s][t][k] = sum over i, j of u[s, i] v[t, j] c_ijk: the plain dense
    contraction, in the oracle arithmetic of the field."""
    add, mul, zero = _arith(a.field)
    c, n = dense_table(a).tolist(), a.dim
    out = []
    for us in u.basis.tolist():
        out.append([])
        for vt in v.basis.tolist():
            acc = [zero] * n
            for i in range(n):
                for j in range(n):
                    w = mul(us[i], vt[j])
                    for k in range(n):
                        acc[k] = add(acc[k], mul(w, c[i][j][k]))
            out[-1].append(acc)
    return out


@pytest.mark.parametrize("entry", ["soc20_base", "mat2_dual_numbers", "qplane22_gf5",
                                   "counterexample_B", "skew23_qq"])
def test_basis_products_match_the_dense_contraction(entry):
    # GF(2), GF(3), GF(5), GF(25) and QQ
    if entry == "skew23_qq":
        a = from_skew_presentation(QQ, SkewPresentation.anticommuting([2, 3]))
    else:
        a = get(entry)
    f, n = a.field, a.dim
    rng = np.random.default_rng(sum(map(ord, entry)) + 1)

    def span(k, zero_columns=()):
        if f == QQ:
            rows = f.arr([[Fraction(int(x), int(d)) for x, d in
                           zip(rng.integers(-3, 4, n), rng.integers(1, 4, n))]
                          for _ in range(k)])
        else:
            rows = f.random_enc(rng, (k, n))
        rows[:, list(zero_columns)] = f.zero_enc
        return Subspace.from_rows(f, n, rows)

    j = radical(a).radical
    killer = a.left_annihilator(j)      # the socle on the side with u J(A) = 0
    sparse = span(3, rng.permutation(n)[: n // 2])
    assert np.any(np.all(sparse.basis == f.zero_enc, axis=0))
    cases = [(span(3), span(4)), (a.zero_space(), span(2)), (span(2), a.zero_space()),
             (span(2), sparse), (a.full_space(), sparse), (killer, j)]
    for u, v in cases:
        prods = a.basis_products(u, v)
        assert prods.shape == (u.dim, v.dim, n)
        assert prods.tolist() == _basis_products_oracle(a, u, v)
        if f == QQ:     # integral values are ints
            assert all(type(x) is int or x.denominator > 1 for x in prods.flat)
    assert killer.dim and j.dim and np.all(a.basis_products(killer, j) == f.zero_enc)


def test_annihilators(mat2):
    one_span = Subspace.from_rows(mat2.field, 4, [[1, 0, 0, 1]])
    assert mat2.left_annihilator(one_span).dim == 0
    assert mat2.right_annihilator(one_span).dim == 0
    assert mat2.left_annihilator(mat2.zero_space()) == mat2.full_space()
    a = get("dim12_sharp")
    j = radical(a).radical
    rann = a.right_annihilator(j)
    assert rann == a.monomial("M^6").span()


def test_loewy_series_examples(dual3):
    x_span = Subspace.from_rows(dual3.field, 2, [[0, 1]])
    layers = dual3.loewy_series(x_span)
    assert layers == (1, 1) and len(layers) == 2
    a = get("soc20_base")
    layers = a.loewy_series(radical(a).radical)
    assert layers == (1, 2, 2, 2, 2, 1) and len(layers) == 6


def test_loewy_dim12_against_naive_product_oracle():
    a = get("dim12_sharp")
    p = 3
    j_rows = [list(map(int, r)) for r in radical(a).radical.basis]
    chain = [j_rows]
    while chain[-1]:
        prev = chain[-1]
        prods = []
        for u in prev:
            for v in j_rows:
                prods.append(list(map(int, a.multiply_coords(
                    a.field.arr(u), a.field.arr(v)))))
        red = [r for r in prods if any(r)]
        from oracles import naive_rref_mod

        rr, piv = naive_rref_mod(red, p) if red else ([], [])
        chain.append([rr[i] for i in range(len(piv))])
    dims = [12] + [len(rows) for rows in chain]
    layers = tuple(dims[i] - dims[i + 1] for i in range(len(dims) - 1))
    assert layers == (1, 2, 2, 2, 2, 2, 1)  # frozen oracle value
    lib = a.loewy_series(radical(a).radical)
    assert lib == layers
    assert sum(lib) == a.dim


def test_loewy_rejects_non_nilpotent(mat2):
    with pytest.raises(NotNilpotent):
        mat2.loewy_series(mat2.full_space())


def test_opposite_duality():
    from symcenter.constructions import opposite

    for entry in ("dim12_sharp", "counterexample_B"):
        a = get(entry)
        op = opposite(a)
        assert op.center() == a.center()
        assert op.commutator_space() == a.commutator_space()
        assert a.loewy_series(radical(a).radical) == op.loewy_series(
            radical(op).radical
        )


def test_quotient_data_guards(mat2, dual3):
    with pytest.raises(NotAnIdeal):
        quotient_data(mat2, Subspace.from_rows(mat2.field, 4, [[0, 1, 0, 0]]))
    with pytest.raises(ImproperIdeal):
        quotient_data(dual3, dual3.full_space())


def test_element_mismatch(mat2, dual3):
    with pytest.raises(AlgebraMismatch):
        mat2.one_element() * dual3.one_element()


def test_ak_equals_ka_on_corpus():
    for entry in ("matn", "dim12_sharp", "soc20_base", "counterexample_B",
                  "firstexample_i"):
        a = get(entry)
        k = a.commutator_space()
        full = a.full_space()
        assert a.subspace_product(full, k) == a.subspace_product(k, full)


def test_soc20_ak_strictly_bigger_than_k():
    a = get("soc20_base")
    k = a.commutator_space()
    ak = a.subspace_product(a.full_space(), k)
    assert contains(ak, k) and ak.dim > k.dim
    assert ak.contains_vector((a.monomial("M") ** 3).coords)


def test_subspace_product_matches_naive_span():
    a = get("soc20_base")
    k = a.commutator_space()
    jz_rows = [list(map(int, r)) for r in k.basis]
    prods = []
    for u in k.basis:
        for i in range(a.dim):
            e = a.field.zeros(a.dim)
            e[i] = 1
            prods.append(list(map(int, a.multiply_coords(e, u))))
    lib = a.subspace_product(a.full_space(), k)
    assert naive_spans_equal_mod(prods, [list(map(int, r)) for r in lib.basis], 2)


def test_replace_returns_a_new_algebra_on_the_same_table(dual3):
    b = dual3.replace(name="other", sym_form=dual3.field.arr([1, 1]))
    assert b is not dual3
    assert (b.name, list(b.sym_form)) == ("other", [1, 1])
    assert dual3.name == "dual3"
    assert list(dual3.sym_form) == [0, 1]
    assert b._core is dual3._core
    assert all(x is y for x, y in zip(b.entries, dual3.entries))
    assert b.same_table(dual3) and b.labels == dual3.labels


def test_a_replace_view_gets_the_cores_certificate(mat2):
    cert = radical(mat2)
    assert cert.strategy == "kuelshammer" and cert.radical.dim == 0
    assert mat2._cache["radical_cert"] is cert
    renamed = mat2.replace(name="renamed")
    assert "radical_cert" not in renamed._cache
    assert radical(renamed) is cert and renamed._cache["radical_cert"] is cert


def test_memoised_computes_once_and_never_stores_a_failure(mat2):
    a = mat2.replace()
    calls = []

    @memoised("probe")
    def probe(algebra):
        calls.append(algebra)
        return len(calls)

    @memoised("failing")
    def failing(algebra):
        calls.append(algebra)
        raise NotAnIdeal("no")

    assert probe(a) == 1 and probe(a) == 1
    for _ in range(2):
        with pytest.raises(NotAnIdeal):
            failing(a)
    assert len(calls) == 3
    # the memo belongs to the table: another view of it reads the same result
    assert probe(mat2.replace()) == 1 and len(calls) == 3


def test_wrong_length_symmetrizing_form_rejected(g3, mat2):
    with pytest.raises(AlgebraValidationError, match="3 coordinates, expected 4"):
        Algebra(g3, dense_table(mat2), mat2.one, sym_form=g3.arr([1, 0, 1]))
    with pytest.raises(AlgebraValidationError, match="5 coordinates, expected 4"):
        mat2.replace(sym_form=g3.arr([1, 0, 0, 1, 0]))


def _products_oracle(a, rows, side):
    """Entry by entry: P[s, j] = rows[s] * e_j (left) or e_j * rows[s] (right)."""
    f, n, table = a.field, a.dim, dense_table(a)
    out = f.zeros((rows.shape[0], n, n))
    for s in range(rows.shape[0]):
        for j in range(n):
            for k in range(n):
                acc = f.zero_enc
                for i in range(n):
                    c = table[i, j, k] if side == "left" else table[j, i, k]
                    acc = f.a_add(acc, f.a_mul(rows[s, i], c))
                out[s, j, k] = acc
    return out


_PRODUCT_ENTRIES = ["matn", "dim12_sharp", "counterexample_B", "skew22_qq", "skew22_gf25"]


def _product_algebra(entry):
    if entry == "skew22_qq":
        return from_skew_presentation(QQ, SkewPresentation.anticommuting([2, 2]))
    if entry == "skew22_gf25":
        return from_skew_presentation(gf25(), SkewPresentation.anticommuting([2, 2]))
    return get(entry)


@pytest.mark.parametrize("entry", _PRODUCT_ENTRIES)
def test_left_and_right_products_match_entrywise_oracle(entry, rng):
    a = _product_algebra(entry)
    # skew22_gf25 has its own draws: the shared stream stays as it was
    draw = np.random.default_rng(25) if entry == "skew22_gf25" else rng
    assert not a.is_commutative()        # left and right products differ
    f, n = a.field, a.dim
    for r in (0, 1, 3):
        rows = f.random_enc(draw, (r, n))
        left, right = a.left_products(rows), a.right_products(rows)
        assert left.shape == right.shape == (r, n, n)
        assert np.array_equal(left, _products_oracle(a, rows, "left"))
        assert np.array_equal(right, _products_oracle(a, rows, "right"))


@pytest.mark.parametrize("entry", _PRODUCT_ENTRIES)
def test_row_products_match_entrywise_oracle(entry, monkeypatch):
    a = _product_algebra(entry)
    f, n, table = a.field, a.dim, dense_table(a)
    draw = np.random.default_rng(sum(map(ord, entry)))
    x, y = f.random_enc(draw, (5, n)), f.random_enc(draw, (5, n))
    expected = f.zeros((5, n))
    for s in range(5):
        for k in range(n):
            acc = f.zero_enc
            for i in range(n):
                for j in range(n):
                    acc = f.a_add(acc, f.a_mul(f.a_mul(x[s, i], y[s, j]), table[i, j, k]))
            expected[s, k] = acc
    assert np.array_equal(row_products(a, x, y), expected)
    assert row_products(a, x[:0], y[:0]).shape == (0, n)
    for s in range(5):
        assert np.array_equal(a.multiply_coords(x[s], y[s]), expected[s])
    # blocks of one row each give the same rows
    monkeypatch.setattr("symcenter.algebra._ROW_TERMS", 1)
    assert np.array_equal(row_products(a, x, y), expected)


@pytest.mark.parametrize("entry, repeats", [
    ("soc20_base", [True, True, True, True]),
    ("matn", [False, False, False, True]),
    ("scalars_gf3", [False, False, False, False]),
])
def test_contractions_keep_their_run_starts(entry, repeats, monkeypatch):
    # once a core's groupings exist, no contraction looks for its runs again
    a = (Algebra(GF(3), GF(3).arr([[[1]]]), GF(3).arr([1])) if entry == "scalars_gf3"
         else get(entry))
    f, n, table = a.field, a.dim, dense_table(a)
    nonzero = np.argwhere(table != f.zero_enc)
    # the kept indices of left, right, form and row products
    assert [len(np.unique(nonzero[:, keep], axis=0)) < len(nonzero)
            for keep in ((1, 2), (0, 2), (0, 1), (2,))] == repeats
    draw = np.random.default_rng(n)
    rows, mu = f.random_enc(draw, (3, n)), f.random_enc(draw, (n,))
    x, y = f.random_enc(draw, (3, n)), f.random_enc(draw, (3, n))

    def contract():
        return (a.left_products(rows), a.right_products(rows), form_gram(a, mu),
                row_products(a, x, y))

    gram, expected_rows = f.zeros((n, n)), f.zeros((3, n))
    for i, j, k in nonzero:
        gram[i, j] = f.a_add(gram[i, j], f.a_mul(table[i, j, k], mu[k]))
        term = f.a_mul(f.a_mul(x[:, i], y[:, j]), table[i, j, k])
        expected_rows[:, k] = f.a_add(expected_rows[:, k], term)
    expected = (_products_oracle(a, rows, "left"), _products_oracle(a, rows, "right"),
                gram, expected_rows)
    contract()
    calls = []
    run_starts = algebra_module._run_starts
    monkeypatch.setattr(algebra_module, "_run_starts",
                        lambda keys: calls.append(keys) or run_starts(keys))
    for _ in range(2):
        for got, want in zip(contract(), expected):
            assert np.array_equal(got, want)
    assert calls == []


def test_encoded_rows_over_gf25_are_kept():
    # 7 encodes 2 + t in GF(25); read as the integer 7 it would become 2
    a = get("dual_gf25")
    f = a.field
    assert f.format_enc(7) == "[2,1]"
    row = np.array([7, 0])
    assert a.element(row).coords.tolist() == [7, 0]
    assert a.element(row).coords is not row
    seven_eye = f.a_mul(7, f.eye(2))
    assert np.array_equal(a.left_mult_matrix(row), seven_eye)
    assert np.array_equal(a.right_mult_matrix(row), seven_eye)
    w = symmetric_quotient(a, row)
    assert w.z.tolist() == [7, 0] and w.ideal.dim == 0
    assert w.nu_star(np.array([1, 0])).tolist() == [7, 0]
    for bad in ([25, 0], [-1, 0]):
        with pytest.raises(ScalarFormatError):
            a.element(np.array(bad))


@pytest.mark.parametrize("form", [[0, 4], [0, -2]])
def test_out_of_range_encodings_are_refused(form):
    a = get("dual_gf3")
    with pytest.raises(ScalarFormatError):
        a.replace(sym_form=np.array(form))
    with pytest.raises(ScalarFormatError):
        Algebra(a.field, dense_table(a), np.array(form[::-1]))
    bad = dense_table(a)
    bad[1, 1] = form
    with pytest.raises(ScalarFormatError):
        Algebra(a.field, bad, a.one)


def test_float_multiples_are_refused(dual3):
    x = dual3.monomial("x1")
    assert (x * 2).coords.tolist() == [0, 2]
    for bad in (2.7, 2.0):
        with pytest.raises(ScalarFormatError):
            x * bad
        with pytest.raises(ScalarFormatError):
            bad * x


def test_element_str_reads_coordinates_by_the_encoding_rule():
    # the Python int 7 is the number 7 = 2 in GF(25); np.int64(30) is no encoding
    a = get("dual_gf25")
    assert a.element_str([7, 0]) == repr(a.element([7, 0])) == "[2,0]*1"
    assert a.element_str(np.array([7, 0])) == "[2,1]*1"
    with pytest.raises(ScalarFormatError):
        a.element_str(np.array([30, 0]))


def test_coordinates_of_the_wrong_width_are_an_algebra_mismatch():
    a = get("dual_gf3")
    calls = (
        lambda: a.element([1, 0, 0]),
        lambda: a.element_str([1, 0, 0]),
        lambda: a.left_mult_matrix([1]),
        lambda: symmetric_quotient(a, [1, 0, 0]),
    )
    for call in calls:
        with pytest.raises(AlgebraMismatch, match="dimension 2"):
            call()


def test_unit_of_the_wrong_width_is_a_validation_error():
    a = get("dual_gf3")
    with pytest.raises(AlgebraValidationError, match="unit has 3 coordinates, expected 2"):
        Algebra(a.field, dense_table(a), [1, 0, 0])


def test_monomial_names_a_missing_label_in_a_key_error():
    a = get("dual_gf3")
    for algebra in (a, Algebra(a.field, dense_table(a), a.one)):
        with pytest.raises(KeyError, match="'zz'"):
            algebra.monomial("zz")


def test_numpy_int_multiples_are_encodings():
    x = get("dual_gf25").one_element()
    f, seven = x.algebra.field, np.int64(7)
    expect = f.a_mul(seven, x.coords).tolist()
    assert (x * seven).coords.tolist() == expect
    assert (seven * x).coords.tolist() == expect
    assert (seven * x).coords.tolist() != (x * 7).coords.tolist()
