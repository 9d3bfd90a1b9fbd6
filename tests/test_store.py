"""The entry store: every reader of a structure table against a dense reference.

A core holds only the nonzero constants c_ijk of its table.  Each result
computed from them here -- products, center, commutator space, Gram
matrices, the unit-law checks, quotient tables, tensor products, trivial
extensions and opposites -- must equal the same result computed from the
dense table (``oracles.dense_table``) in the plain-Python arithmetic of
``oracles``.
"""

from fractions import Fraction

import numpy as np
import pytest

from oracles import dense_table, gf25_enc_add, gf25_enc_mul
from test_validation import matrix_algebra_random_basis

from symcenter import GF, QQ, SkewPresentation, Subspace, from_skew_presentation, gf25, kernel
from symcenter.algebra import Algebra, form_gram, form_values, quotient_core
from symcenter.constructions import opposite, quotient, tensor, trivial_extension
from symcenter.corpus import get
from symcenter.errors import AlgebraValidationError
from symcenter.linalg import rref_data
from symcenter.substructures import radical


def _arith(f):
    """(add, mul, zero, minus one) of the plain-Python oracles over the
    field ``f``; the encoding of -1 in GF(25) is 4."""
    if f == QQ:
        return lambda x, y: x + y, lambda x, y: x * y, Fraction(0), -1
    if f.order == 25:
        return gf25_enc_add, gf25_enc_mul, 0, 4
    p = f.order
    return lambda x, y: (x + y) % p, lambda x, y: x * y % p, 0, p - 1


def _random_basis(field, seed):
    table, one = matrix_algebra_random_basis(field, 2, np.random.default_rng(seed))
    return Algebra(field, table, one, name=f"M2 in a random basis over {field}")


def _in_random_basis(a, seed):
    """A in the basis b_x = sum_s P[x, s] e_s for a random invertible P:
    a non-monomial table with proper ideals, whose quotients sum terms."""
    f, n = a.field, a.dim
    rng = np.random.default_rng(seed)
    lower, upper = f.random_enc(rng, (n, n)), f.random_enc(rng, (n, n))
    for x in range(n):
        lower[x, x + 1:] = upper[x, :x] = f.zero_enc
        lower[x, x] = upper[x, x] = f.one_enc
    p = f.matmul2(lower, upper)
    inv = rref_data(f, np.concatenate([p, f.eye(n)], axis=1))[0][:, n:]
    inner = f.tensordot_lf(p, dense_table(a).transpose(1, 0, 2))    # [y, i, :]
    prods = f.tensordot_lf(p, inner.transpose(1, 0, 2))             # [x, y, :]
    table = f.tensordot_lf(prods.reshape(n * n, n), inv).reshape(n, n, n)
    one = f.tensordot_lf(a.one.reshape(1, n), inv).reshape(n)
    return Algebra(f, table, one, name=f"{a.name} in a random basis")


def _algebras():
    """GF(2) with several entries per product column, GF(3), GF(5), GF(25),
    QQ with Fraction constants, and random non-monomial tables."""
    yield get("soc20_trivext")
    yield get("mat2_dual_numbers")
    yield get("qplane22_gf5")
    yield get("counterexample_B")
    yield from_skew_presentation(QQ, SkewPresentation((2, 3), (((1, 0), Fraction(1, 2)),)),
                                 name="skew23_half_qq")
    yield _random_basis(GF(5), 51)
    yield _random_basis(QQ, 52)
    yield _in_random_basis(get("mat2_dual_numbers"), 53)


ALGEBRAS = list(_algebras())


@pytest.fixture(params=ALGEBRAS, ids=lambda a: a.name or repr(a))
def algebra(request):
    return request.param


def _rows(f, rng, r, n):
    if f == QQ and r:
        return f.arr([[Fraction(int(x), int(d)) for x, d in
                       zip(rng.integers(-3, 4, n), rng.integers(1, 4, n))] for _ in range(r)])
    return f.random_enc(rng, (r, n))


def test_the_suite_covers_every_field_and_a_column_with_several_entries():
    fields = {repr(a.field) for a in ALGEBRAS}
    assert fields == {"GF(2)", "GF(3)", "GF(5)", "GF(5^2)", "QQ"}
    a = get("soc20_trivext")
    for side in (dense_table(a), dense_table(a).transpose(1, 0, 2)):
        per_column = np.count_nonzero(side != 0, axis=0)
        assert per_column.max() > 1
    assert any(type(v) is Fraction for v in ALGEBRAS[4].entries[3])
    assert np.count_nonzero(dense_table(ALGEBRAS[5])) > ALGEBRAS[5].dim ** 3 // 2


def test_entries_are_the_nonzero_constants_in_c_order(algebra):
    c = dense_table(algebra)
    ei, ej, ek, val = algebra.entries
    assert [tuple(x) for x in np.argwhere(c != 0).tolist()] == list(zip(ei, ej, ek))
    assert list(val) == list(c[ei, ej, ek]) and all(v != 0 for v in val)


def test_products_match_the_dense_contraction(algebra):
    f, n = algebra.field, algebra.dim
    add, mul, zero, _ = _arith(f)
    c = dense_table(algebra).tolist()
    rng = np.random.default_rng(n)
    for r in (0, 1, n):
        rows = _rows(f, rng, r, n)
        for side, got in (("left", algebra.left_products(rows)),
                          ("right", algebra.right_products(rows))):
            want = []
            for row in rows.tolist():
                want.append([[zero] * n for _ in range(n)])
                for j in range(n):
                    for k in range(n):
                        for i in range(n):
                            const = c[i][j][k] if side == "left" else c[j][i][k]
                            want[-1][j][k] = add(want[-1][j][k], mul(row[i], const))
            assert got.shape == (r, n, n) and got.tolist() == want, side


def test_center_and_commutator_space_match_the_dense_systems(algebra):
    f, n = algebra.field, algebra.dim
    add, mul, _, minus = _arith(f)
    c = dense_table(algebra).tolist()
    # row (b, k), column a: c_bak - c_abk; row (i, j), column k: c_ijk - c_jik
    center = [[add(c[b][a][k], mul(minus, c[a][b][k])) for a in range(n)]
              for b in range(n) for k in range(n)]
    comm = [[add(c[i][j][k], mul(minus, c[j][i][k])) for k in range(n)]
            for i in range(n) for j in range(n)]
    assert algebra.center() == kernel(f, f.arr(center))
    assert algebra.commutator_space() == Subspace.from_rows(f, n, f.arr(comm))
    assert algebra.is_commutative() == (dense_table(algebra).tolist()
                                        == dense_table(algebra).transpose(1, 0, 2).tolist())


def test_form_gram_matches_the_dense_contraction(algebra):
    f, n = algebra.field, algebra.dim
    add, mul, zero, _ = _arith(f)
    c = dense_table(algebra).tolist()

    def values(mu):
        want = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    want[i][j] = add(want[i][j], mul(c[i][j][k], mu[k]))
        return want

    for mu in (algebra.one, _rows(f, np.random.default_rng(7), 1, n)[0]):
        assert form_gram(algebra, mu).tolist() == values(mu.tolist())
    # several forms at once, as the radical rule asks for up to n of them
    rng = np.random.default_rng(n)
    for r in (0, 1, n):
        forms = _rows(f, rng, r, n)
        want = [values(mu) for mu in forms.tolist()]
        got = form_values(algebra, forms)
        assert got.shape == (n, n, r)
        assert got.transpose(2, 0, 1).tolist() == want


def _unit_law_error(f, table, one):
    """The unit-law message of a dense check of (table, one), or None."""
    add, mul, zero, _ = _arith(f)
    n, c = len(one), table.tolist()
    for side in ("one * e_{i} != e_{i}", "e_{i} * one != e_{i}"):
        for j in range(n):
            row = [zero] * n
            for i in range(n):
                for k in range(n):
                    const = c[i][j][k] if side.startswith("one") else c[j][i][k]
                    row[k] = add(row[k], mul(one.tolist()[i], const))
            if row != [1 if k == j else 0 for k in range(n)]:
                return "unit law fails: " + side.format(i=j)
    return None


def test_unit_law_checks_match_the_dense_check(algebra):
    f, n = algebra.field, algebra.dim
    rng = np.random.default_rng(3 * n)
    support = np.flatnonzero(algebra.one != f.zero_enc)
    failures = 0
    for _ in range(8):
        bad = dense_table(algebra)
        # a constant of the unit's support times a basis vector, on either side
        u, j, k = int(rng.choice(support)), int(rng.integers(n)), int(rng.integers(n))
        pos = (u, j, k) if rng.integers(2) else (j, u, k)
        bad[pos] = f.a_add(bad[pos], f.one_enc)
        want = _unit_law_error(f, bad, algebra.one)
        if want is None:
            continue
        failures += 1
        with pytest.raises(AlgebraValidationError) as err:
            Algebra(f, bad, algebra.one)
        assert str(err.value) == want
    assert failures


def test_quotient_tables_match_the_dense_reduction(algebra):
    f, n = algebra.field, algebra.dim
    add, mul, zero, minus = _arith(f)
    c = dense_table(algebra).tolist()
    ideals = [radical(algebra).radical, algebra.ideal_closure(algebra.commutator_space())]
    for ideal in ideals:
        if ideal.dim in (0, n):
            continue
        comp, piv = ideal.complement_columns(), ideal.pivot_columns()
        basis = ideal.basis.tolist()

        def nu(vec):    # the residual on the complement columns
            out = []
            for col in comp:
                acc = vec[col]
                for s, p in enumerate(piv):
                    acc = add(acc, mul(minus, mul(vec[p], basis[s][col])))
                out.append(acc)
            return out

        want = [[nu(c[i][j]) for j in comp] for i in comp]
        assert dense_table(quotient(algebra, ideal)).tolist() == want
        core = quotient_core(algebra, ideal)
        d = len(comp)
        dense = [[[zero] * d for _ in range(d)] for _ in range(d)]
        for i, j, k, v in zip(*(x.tolist() for x in core.entries)):
            dense[i][j][k] = v
        assert dense == want and core.one.tolist() == nu(algebra.one.tolist())


def test_tensor_trivial_extension_and_opposite_match_dense_tables(algebra):
    f, n = algebra.field, algebra.dim
    _, mul, zero, _ = _arith(f)
    c = dense_table(algebra).tolist()
    other = get("dual_gf25") if f.order == 25 else (
        from_skew_presentation(f, SkewPresentation.commuting([2])))
    d, m = dense_table(other).tolist(), other.dim
    big = dense_table(tensor(algebra, other)).tolist()
    assert big == [[[mul(c[i][j][k], d[a][b][e]) for k in range(n) for e in range(m)]
                    for j in range(n) for b in range(m)]
                   for i in range(n) for a in range(m)]
    t = [[[zero] * (2 * n) for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t[i][j][k] = c[i][j][k]
                t[j][n + k][n + i] = c[i][j][k]     # e_j e_k* = sum_i c_ijk e_i*
                t[n + k][i][n + j] = c[i][j][k]     # e_k* e_i = sum_j c_ijk e_j*
    assert dense_table(trivial_extension(algebra)).tolist() == t
    assert dense_table(opposite(algebra)).tolist() == [[[c[j][i][k] for k in range(n)]
                                                 for j in range(n)] for i in range(n)]


def _arrays(x):
    """Every numpy array in x, through tuples, lists and dicts; a subspace
    basis is left out."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (tuple, list)):
        for y in x:
            yield from _arrays(y)
    elif isinstance(x, dict):
        for y in x.values():
            yield from _arrays(y)


def test_a_core_holds_no_dense_table_or_column_block():
    a = tensor(get("firstexample_i"), get("dual_gf3"))
    n = a.dim
    radical(a)
    a.center(), a.commutator_space(), a.left_products(a.one[None, :])
    core = a._core
    held = list(_arrays([getattr(core, slot) for slot in type(core).__slots__
                         if slot not in ("facts", "__weakref__")]))
    held += list(_arrays(core.facts))
    assert len(held) > 5
    blocks = {np.count_nonzero(np.any(side.reshape(n, n * n) != 0, axis=0))
              for side in (dense_table(a), dense_table(a).transpose(1, 0, 2))}
    for arr in held:
        assert arr.size < n ** 3
        assert not (arr.ndim == 2 and arr.shape[0] == n and arr.shape[1] in blocks)
