"""Exact linear algebra: RREF, kernels, the subspace lattice."""

import numpy as np
import pytest

from oracles import naive_kernel_mod, naive_rank_mod

from symcenter import GF, QQ, Subspace, contains, kernel, member, rank
from symcenter.errors import AmbientMismatch
from symcenter.linalg import (
    express_in_rows,
    random_subspace,
    reduce_rows,
    rref_data,
    subspace_intersect,
    subspace_sum,
)


def test_rref_identity_and_zero(g3):
    m = g3.eye(3)
    r, pivots = rref_data(g3, m)
    assert np.array_equal(r, m) and len(pivots) == 3
    z = g3.zeros((2, 2))
    r, pivots = rref_data(g3, z)
    assert np.array_equal(r, z) and len(pivots) == 0


def test_rref_proportional_rows_over_q():
    r, pivots = rref_data(QQ, QQ.arr([[1, 2], [2, 4]]))
    assert len(pivots) == 1
    assert r[0, 0] == 1 and r[0, 1] == 2
    assert r[1, 0] == 0 and r[1, 1] == 0


def test_kernel_examples(g3, g2):
    assert kernel(g3, g3.eye(4)).dim == 0
    assert kernel(g3, g3.zeros((1, 5))) == Subspace.full(g3, 5)
    k = kernel(g2, g2.arr([[1, 1]]))
    assert k.dim == 1 and list(k.basis[0]) == [1, 1]


def test_kernel_matches_naive_oracle(g3, rng):
    for _ in range(25):
        rows = g3.random_enc(rng, (4, 6))
        lib = kernel(g3, rows)
        oracle = naive_kernel_mod([list(map(int, r)) for r in rows], 3)
        assert lib.dim == len(oracle)
        for vec in oracle:
            assert member(lib, g3.arr(vec))


def test_rank_matches_naive_oracle(rng):
    g5 = GF(5)
    for _ in range(25):
        rows = g5.random_enc(rng, (5, 7))
        assert rank(g5, rows) == naive_rank_mod(
            [list(map(int, r)) for r in rows], 5
        )


def test_lattice_trivialities(g3):
    u = Subspace.from_vectors(g3, 4, [[1, 0, 2, 0], [0, 1, 1, 1]])
    zero = Subspace.zero(g3, 4)
    full = Subspace.full(g3, 4)
    assert subspace_sum(u, zero) == u
    assert subspace_intersect(u, full) == u
    e1 = Subspace.from_vectors(g3, 2, [[1, 0]])
    e2 = Subspace.from_vectors(g3, 2, [[0, 1]])
    assert subspace_intersect(e1, e2).dim == 0


def test_dimension_formula_on_100_random_pairs(g3, rng):
    # the modular-law oracle, checked directly
    for _ in range(100):
        u = random_subspace(g3, 6, rng)
        v = random_subspace(g3, 6, rng)
        s = subspace_sum(u, v)
        i = subspace_intersect(u, v)
        assert s.dim + i.dim == u.dim + v.dim
        assert subspace_sum(u, v) == subspace_sum(v, u)
        assert contains(s, u) and contains(s, v)
        assert contains(u, i) and contains(v, i)


def test_dimension_formula_other_fields(f25, rng):
    for field in (QQ, f25):
        for _ in range(20):
            u = random_subspace(field, 5, rng)
            v = random_subspace(field, 5, rng)
            assert (
                subspace_sum(u, v).dim + subspace_intersect(u, v).dim
                == u.dim + v.dim
            )


def test_kernel_of_rref_agrees(g3, rng):
    m = g3.random_enc(rng, (5, 8))
    r, _ = rref_data(g3, m)
    assert kernel(g3, m) == kernel(g3, r)


def test_canonical_equality_of_spanning_sets(g3):
    u = Subspace.from_vectors(g3, 3, [[1, 1, 0], [0, 1, 1]])
    v = Subspace.from_vectors(g3, 3, [[1, 2, 1], [2, 2, 0], [0, 2, 2]])
    assert u == v
    assert np.all(u.basis == v.basis)


def test_member_and_contains(g3):
    u = Subspace.from_vectors(g3, 3, [[1, 0, 2]])
    assert member(u, g3.arr([2, 0, 1]))
    assert not member(u, g3.arr([1, 1, 1]))
    w = Subspace.from_vectors(g3, 3, [[1, 0, 2], [0, 1, 0]])
    assert contains(w, u) and not contains(u, w)


def test_ambient_mismatch(g3):
    u = Subspace.full(g3, 3)
    v = Subspace.full(g3, 4)
    with pytest.raises(AmbientMismatch):
        subspace_sum(u, v)
    with pytest.raises(AmbientMismatch):
        member(u, g3.arr([1, 0, 0, 0]))


def test_express_in_rows(g3):
    basis = g3.arr([[1, 0, 1], [0, 1, 2]])
    targets = g3.arr([[2, 1, 1], [1, 2, 2]])
    x = express_in_rows(g3, basis, targets)
    assert np.array_equal(g3.matmul2(x, basis), targets)
    with pytest.raises(ValueError, match="outside the span"):
        express_in_rows(g3, basis, g3.arr([[0, 0, 1]]))
    dependent = g3.arr([[1, 0, 1], [2, 0, 2]])
    # a target outside the span is reported first, even for dependent rows
    with pytest.raises(ValueError, match="outside the span"):
        express_in_rows(g3, dependent, g3.arr([[0, 1, 0]]))
    # a target inside the span of dependent rows: only the dependence is wrong
    with pytest.raises(ValueError, match="linearly dependent"):
        express_in_rows(g3, dependent, g3.arr([[2, 0, 2]]))


def test_rref_and_reduce_leave_inputs_unmodified(f25, rng):
    for field in (GF(5), f25, QQ):
        data = field.random_enc(rng, (5, 7))
        data_before = data.copy()
        red, pivots = rref_data(field, data)
        assert np.array_equal(data, data_before)
        rows = field.random_enc(rng, (4, 7))
        rows_before = rows.copy()
        basis = red[: len(pivots)]
        basis_before = basis.copy()
        res = reduce_rows(field, rows, basis, pivots)
        assert np.array_equal(rows, rows_before)
        assert np.array_equal(basis, basis_before)
        # the residual has no support on the pivot columns
        assert np.all(res[:, pivots] == field.zero_enc)


def _random_rref_basis(field, rng, rank, n):
    """A random RREF basis of ``rank`` rows in F^n, with its pivot columns."""
    while True:
        red, pivots = rref_data(field, field.random_enc(rng, (rank, n)))
        if len(pivots) == rank:
            return red, pivots


def _sequential_reduce(field, rows, basis, pivots):
    """Reference: eliminate one entry at a time, pivot by pivot."""
    res = rows.copy()
    for i in range(res.shape[0]):
        for r, c in enumerate(pivots):
            f = res[i, c]
            for j in range(res.shape[1]):
                res[i, j] = field.s_sub(res[i, j], field.s_mul(f, basis[r, j]))
    return res


@pytest.mark.parametrize("field_name", ["GF(5)", "GF(25)", "QQ"])
def test_reduce_rows_equals_sequential_elimination(field_name, f25, rng):
    field = {"GF(5)": GF(5), "GF(25)": f25, "QQ": QQ}[field_name]
    for rank, n, t in [(1, 4, 3), (3, 7, 5), (5, 5, 2), (4, 9, 6)]:
        basis, pivots = _random_rref_basis(field, rng, rank, n)
        rows = field.random_enc(rng, (t, n))
        rows[0] = field.matmul2(field.random_enc(rng, (1, rank)), basis)[0]
        got = reduce_rows(field, rows, basis, pivots)
        want = _sequential_reduce(field, rows, basis, pivots)
        assert np.array_equal(got, want)
        assert np.all(got[0] == field.zero_enc)     # a row in the span reduces to 0


def test_pivot_columns_are_first_nonzero_columns(f25, rng):
    for field in (GF(5), f25, QQ):
        for rank, n in [(0, 4), (1, 1), (2, 6), (4, 8)]:
            sub = random_subspace(field, n, rng, max_dim=rank)
            want = [
                next(j for j in range(n) if sub.basis[i, j] != field.zero_enc)
                for i in range(sub.dim)
            ]
            assert sub.pivot_columns() == want


def test_kernel_is_rref_span_of_naive_kernel(rng):
    p = 5
    f = GF(p)
    for rows, cols in [(1, 1), (2, 5), (4, 4), (5, 3), (3, 8)]:
        m = f.random_enc(rng, (rows, cols))
        m[-1] = m[0]                                   # force a dependency
        k = kernel(f, m)
        red, pivots = rref_data(f, k.basis)
        assert np.array_equal(red[: len(pivots)], k.basis)   # already RREF
        naive = naive_kernel_mod(m.tolist(), p)
        assert k == Subspace.from_rows(f, cols, naive)
        assert not np.any(f.matmul2(m, k.basis.T))


def test_public_api_names_resolve():
    import symcenter

    for name in symcenter.__all__:
        assert hasattr(symcenter, name), name
    assert {"kernel", "rank", "rref_data"} <= set(symcenter.__all__)
    for gone in ("Matrix", "rref"):
        assert gone not in symcenter.__all__ and not hasattr(symcenter, gone)
