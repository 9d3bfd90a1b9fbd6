"""Exact linear algebra: RREF, kernels, the subspace lattice."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    naive_kernel_frac,
    naive_kernel_mod,
    naive_mat_mul_frac,
    naive_rank_mod,
    naive_rref_frac,
    naive_rref_mod,
)

from symcenter import GF, QQ, Subspace, contains, kernel, rank
from symcenter.errors import AmbientMismatch, ScalarFormatError
from symcenter.linalg import (
    express_in_rows,
    kernel_on,
    random_subspace,
    reduce_rows,
    rref_data,
    subspace_direct_sum,
    subspace_intersect,
    subspace_sum,
    subspace_tensor,
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
            assert lib.contains_vector(g3.arr(vec))


def test_rank_matches_naive_oracle(rng):
    g5 = GF(5)
    for _ in range(25):
        rows = g5.random_enc(rng, (5, 7))
        assert rank(g5, rows) == naive_rank_mod(
            [list(map(int, r)) for r in rows], 5
        )


def test_lattice_trivialities(g3):
    u = Subspace.from_rows(g3, 4, [[1, 0, 2, 0], [0, 1, 1, 1]])
    zero = Subspace.zero(g3, 4)
    full = Subspace.full(g3, 4)
    assert subspace_sum(u, zero) == u
    assert subspace_intersect(u, full) == u
    e1 = Subspace.from_rows(g3, 2, [[1, 0]])
    e2 = Subspace.from_rows(g3, 2, [[0, 1]])
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
    u = Subspace.from_rows(g3, 3, [[1, 1, 0], [0, 1, 1]])
    v = Subspace.from_rows(g3, 3, [[1, 2, 1], [2, 2, 0], [0, 2, 2]])
    assert u == v
    assert np.all(u.basis == v.basis)


def test_member_and_contains(g3):
    u = Subspace.from_rows(g3, 3, [[1, 0, 2]])
    assert u.contains_vector(g3.arr([2, 0, 1]))
    assert not u.contains_vector(g3.arr([1, 1, 1]))
    w = Subspace.from_rows(g3, 3, [[1, 0, 2], [0, 1, 0]])
    assert contains(w, u) and not contains(u, w)


def test_member_reads_vectors_by_the_encoding_rule(f25):
    # the Python ints 1, 7 are the numbers 1, 7 (encodings 1, 2) everywhere
    u = Subspace.from_rows(f25, 2, [[1, 7]])
    assert u.contains_vector([1, 7])
    assert u.contains_vector(np.array([1, 2]))
    assert not u.contains_vector(np.array([1, 7]))
    assert u.contains_vector([30, 0])
    with pytest.raises(ScalarFormatError, match=r"outside \[0, 25\)"):
        u.contains_vector(np.array([30, 0]))


def test_ambient_mismatch(g3):
    u = Subspace.full(g3, 3)
    v = Subspace.full(g3, 4)
    with pytest.raises(AmbientMismatch):
        subspace_sum(u, v)
    with pytest.raises(AmbientMismatch):
        u.contains_vector(g3.arr([1, 0, 0, 0]))


def test_from_rows_rejects_rows_of_the_wrong_width(g3):
    # one 4-vector is not two vectors of the plane
    with pytest.raises(AmbientMismatch):
        Subspace.from_rows(g3, 2, [[1, 2, 1, 0]])
    # nor are three 2-vectors two vectors of F^3
    with pytest.raises(AmbientMismatch):
        Subspace.from_rows(g3, 3, [[1, 2], [0, 1], [1, 1]])
    with pytest.raises(AmbientMismatch):
        Subspace.from_rows(g3, 3, g3.arr([[1, 2], [0, 1], [1, 1]]))


def test_from_rows_reads_rows_by_the_encoding_rule(f25, g3):
    # the Python int 7 is the number 7 = 2; the numpy int 7 is the encoding t + 2
    assert Subspace.from_rows(f25, 2, [[1, 7]]).basis.tolist() == [[1, 2]]
    assert Subspace.from_rows(f25, 2, np.array([[1, 7]])).basis.tolist() == [[1, 7]]
    # the number 30 is 0 in GF(3); the encoding 30 is out of range
    assert Subspace.from_rows(g3, 2, [[1, 30]]).basis.tolist() == [[1, 0]]
    with pytest.raises(ScalarFormatError, match=r"outside \[0, 3\)"):
        Subspace.from_rows(g3, 2, np.array([[1, 30]]))


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
    own = np.random.default_rng(24)   # GF(2), GF(3): the shared stream stays as it was
    for field, draw in [(GF(2), own), (GF(3), own), (GF(5), rng), (f25, rng), (QQ, rng)]:
        data = field.random_enc(draw, (5, 7))
        data_before = data.copy()
        red, pivots = rref_data(field, data)
        assert np.array_equal(data, data_before)
        # a read-only input (every Algebra array is one) is read, never written
        frozen = data.copy()
        frozen.flags.writeable = False
        red_frozen, pivots_frozen = rref_data(field, frozen)
        assert np.array_equal(frozen, data_before) and not frozen.flags.writeable
        assert pivots_frozen == pivots and np.array_equal(red_frozen, red)
        assert red_frozen.flags.writeable
        rows = field.random_enc(draw, (4, 7))
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
                res[i, j] = field.a_sub(res[i, j], field.a_mul(f, basis[r, j]))
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


def _first_nonzero_columns(sub):
    return [next(j for j in range(sub.ambient_dim) if sub.basis[i, j] != sub.field.zero_enc)
            for i in range(sub.dim)]


def test_pivot_columns_are_first_nonzero_columns(f25, rng):
    for field in (GF(5), f25, QQ):
        for rank, n in [(0, 4), (1, 1), (2, 6), (4, 8)]:
            sub = random_subspace(field, n, rng, max_dim=rank)
            want = _first_nonzero_columns(sub)
            assert sub._pivots == want          # carried from the elimination
            assert sub.pivot_columns() == want
    # every constructor: from_rows, kernel and subspace_intersect carry the
    # pivots their elimination found; the others find them once, when asked
    draw = np.random.default_rng(245)   # its own draws: the shared stream stays as it was
    for field in (GF(2), GF(3), GF(5), f25, QQ):
        u, v = (Subspace.from_rows(field, 7, field.random_enc(draw, (3, 7))) for _ in range(2))
        m = field.random_enc(draw, (4, 7))
        carried = [Subspace.from_rows(field, 7, m), kernel(field, m), kernel(field, m[:, :3]),
                   subspace_intersect(subspace_sum(u, v), u), subspace_intersect(u, v)]
        for sub in carried:
            assert sub._pivots == _first_nonzero_columns(sub) or (sub.dim, sub._pivots) == (0, None)
        found = [Subspace(field, 7, u.basis), Subspace.full(field, 3), Subspace.zero(field, 3),
                 Subspace.zero(field, 0),
                 subspace_tensor(u, v), subspace_direct_sum(u, v),
                 kernel_on(u, field.random_enc(draw, (u.dim, 2)))]
        for sub in found + carried:
            assert sub.pivot_columns() == _first_nonzero_columns(sub)
            assert sub.complement_columns() == [
                j for j in range(sub.ambient_dim) if j not in sub.pivot_columns()]


def test_subspace_basis_is_read_only(g3):
    for sub in (Subspace.from_rows(g3, 3, [[1, 2, 0]]), kernel(g3, g3.arr([[1, 1, 0]])),
                Subspace.full(g3, 2)):
        with pytest.raises(ValueError):
            sub.basis[0, 0] = 2


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


# -- single-elimination kernel and Zassenhaus intersection against the
# -- former multi-RREF implementations, kept here as references


def _kernel_two_rref(field, data):
    """Reference kernel: RREF, one row per free column, then a second RREF."""
    red, pivots = rref_data(field, data)
    n = red.shape[1]
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return Subspace.zero(field, n)
    rows = field.zeros((len(free), n))
    rows[np.arange(len(free)), free] = field.one_enc
    rows[:, pivots] = field.a_neg(red[: len(pivots), free].T)
    return Subspace.from_rows(field, n, rows)


def _intersect_by_kernel(u, v):
    """Reference intersection: the kernel of [U^T | -V^T], mapped through U."""
    field = u.field
    if u.is_zero() or v.is_zero():
        return Subspace.zero(field, u.ambient_dim)
    a, b = u.dim, v.dim
    block = field.zeros((u.ambient_dim, a + b))
    block[:, :a] = u.basis.T
    block[:, a:] = field.a_neg(v.basis.T)
    alpha = _kernel_two_rref(field, block)
    if alpha.is_zero():
        return Subspace.zero(field, u.ambient_dim)
    vectors = field.matmul2(alpha.basis[:, :a], u.basis)
    return Subspace.from_rows(field, u.ambient_dim, vectors)


def _low_rank(field, rng, rows, cols, r):
    """A seeded rows x cols matrix of rank at most r."""
    return field.matmul2(field.random_enc(rng, (rows, r)),
                         field.random_enc(rng, (r, cols)))


def _kernel_inputs(field, rng):
    yield field.zeros((0, 5))                          # no rows: everything
    yield field.zeros((3, 4))                          # zero matrix
    yield field.eye(4)                                 # full column rank, square
    tall = field.zeros((7, 4))
    tall[:4] = field.eye(4)
    tall[4:] = field.random_enc(rng, (3, 4))
    yield tall                                         # full column rank, tall
    yield field.eye(1)
    for rows, cols in [(7, 3), (3, 8), (5, 5), (2, 9), (9, 6)]:
        yield field.random_enc(rng, (rows, cols))
        for r in range(1, min(rows, cols)):
            yield _low_rank(field, rng, rows, cols, r)


@pytest.mark.parametrize("field_name", ["GF(2)", "GF(3)", "GF(25)", "QQ"])
def test_kernel_equals_two_rref_reference(field_name, f25, rng):
    field = {"GF(2)": GF(2), "GF(3)": GF(3), "GF(25)": f25, "QQ": QQ}[field_name]
    for data in _kernel_inputs(field, rng):
        got = kernel(field, data)
        want = _kernel_two_rref(field, data)
        assert got.basis.shape == want.basis.shape, data
        assert got.basis.dtype == want.basis.dtype
        assert np.array_equal(got.basis, want.basis), data
        red, pivots = rref_data(field, got.basis)
        assert len(pivots) == got.dim
        assert np.array_equal(red, got.basis)          # already RREF: a no-op
        if got.dim and data.shape[0]:
            assert np.all(field.matmul2(data, got.basis.T) == field.zero_enc)


def _mixed_rationals(rng, rows, cols, rank):
    """A seeded rows x cols rational matrix of rank at most ``rank`` as an
    object array whose entries mix ints, integral Fractions and
    non-integral Fractions, none of them canonicalised."""
    def draw(shape):
        return [[Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                 for _ in range(shape[1])] for _ in range(shape[0])]

    values = naive_mat_mul_frac(draw((rows, rank)), draw((rank, cols)))
    return np.array([[int(v) if v.denominator == 1 and rng.integers(2) else v for v in row]
                     for row in values], dtype=object)


def test_qq_kernels_agree_with_fraction_oracles_on_mixed_encodings():
    rng = np.random.default_rng(23)   # its own draws: the shared stream stays as it was
    kinds = set()
    for rows, cols, rank in [(4, 5, 2), (5, 3, 3), (6, 6, 4), (3, 7, 1), (5, 5, 5)]:
        a = _mixed_rationals(rng, rows, cols, rank)
        b = _mixed_rationals(rng, cols, 4, min(cols, 4))
        kinds.update((type(v), v.denominator == 1) for v in a.flat)
        assert QQ.matmul2(a, b).tolist() == naive_mat_mul_frac(a.tolist(), b.tolist())
        red, pivots = rref_data(QQ, a)
        assert (red.tolist(), pivots) == naive_rref_frac(a.tolist())
        k = kernel(QQ, a)
        naive = naive_kernel_frac(a.tolist())
        assert k.basis.tolist() == (naive_rref_frac(naive)[0] if naive else [])
        # canonical output: an integral entry is an int, zero rows included
        for v in [*red.flat, *k.basis.flat]:
            assert type(v) is int if v.denominator == 1 else type(v) is Fraction
    assert kinds == {(int, True), (Fraction, True), (Fraction, False)}


def _with_zero_rows(data, rng, k, zero):
    """``data`` with k all-zero rows (entries ``zero``) shuffled in among its
    rows."""
    stacked = np.concatenate([data, np.full((k, data.shape[1]), zero, dtype=data.dtype)])
    return stacked[rng.permutation(stacked.shape[0])]


_ZERO_ROW_SHAPES = [(3, 4, 2), (6, 5, 3), (5, 8, 5), (9, 6, 1), (4, 4, 4)]


def test_rref_data_drops_zero_rows_and_matches_naive_oracles():
    rng = np.random.default_rng(25)   # its own draws: the shared stream stays as it was
    for rows, cols, r in _ZERO_ROW_SHAPES:
        for k in (1, 4):
            data = _with_zero_rows(_low_rank(GF(5), rng, rows, cols, r), rng, k, 0)
            red, pivots = rref_data(GF(5), data)
            naive, naive_pivots = naive_rref_mod(data.tolist(), 5)
            assert red.dtype == np.int64 and red.shape == data.shape
            assert (red.tolist(), pivots) == (naive, naive_pivots)
            # QQ, its zero rows written as the non-canonical Fraction(0)
            data = _with_zero_rows(_mixed_rationals(rng, rows, cols, r), rng, k, Fraction(0))
            red, pivots = rref_data(QQ, data)
            assert red.dtype == object and red.shape == data.shape
            assert (red.tolist(), pivots) == naive_rref_frac(data.tolist())
            for v in red.flat:
                assert type(v) is int if v.denominator == 1 else type(v) is Fraction


def test_rref_data_over_gf25_ignores_zero_rows(f25):
    rng = np.random.default_rng(25)
    for rows, cols, r in _ZERO_ROW_SHAPES:
        data = _low_rank(f25, rng, rows, cols, r)
        padded = _with_zero_rows(data, rng, 4, 0)
        red, pivots = rref_data(f25, data)
        red_padded, pivots_padded = rref_data(f25, padded)
        assert red_padded.dtype == np.int64 and red_padded.shape == padded.shape
        assert pivots_padded == pivots
        assert np.array_equal(red_padded[:rows], red)
        assert np.all(red_padded[rows:] == 0)


def _quotient_inputs(field, rng):
    """(U, rows) pairs: the zero subspace, the full space (whose quotient
    coordinates have no columns), random subspaces with a first row in U,
    and no rows at all."""
    for n in (1, 4, 7):
        yield Subspace.zero(field, n), field.random_enc(rng, (3, n))
        yield Subspace.full(field, n), field.random_enc(rng, (3, n))
        for _ in range(4):
            u = random_subspace(field, n, rng)
            rows = field.random_enc(rng, (5, n))
            rows[0] = field.matmul2(field.random_enc(rng, (1, u.dim)), u.basis)[0]
            yield u, rows
    yield random_subspace(field, 5, rng), field.zeros((0, 5))


@pytest.mark.parametrize("field_name", ["GF(2)", "GF(3)", "GF(5)", "GF(25)", "QQ"])
def test_quotient_coords_and_contains_agree_with_the_full_reduce(field_name, f25):
    field = {"GF(2)": GF(2), "GF(3)": GF(3), "GF(5)": GF(5), "GF(25)": f25, "QQ": QQ}[field_name]
    rng = np.random.default_rng(25)   # its own draws: the shared stream stays as it was
    verdicts = set()
    for u, rows in _quotient_inputs(field, rng):
        comp = u.complement_columns()
        full = u.reduce(rows)
        got = u.quotient_coords(rows)
        assert got.shape == (rows.shape[0], len(comp)) and got.dtype == full.dtype
        assert np.array_equal(got, full[:, comp])
        for v in (Subspace.from_rows(field, u.ambient_dim, rows),
                  Subspace.from_rows(field, u.ambient_dim, rows[:1])):
            want = bool(np.all(u.reduce(v.basis) == field.zero_enc))
            assert contains(u, v) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def _sparse(field, rng, rows, cols, density):
    """A seeded rows x cols matrix whose entries are nonzero with the given
    probability: the shape of the tall commutator systems."""
    values = field.random_enc(rng, (rows, cols))
    return np.where(rng.random((rows, cols)) < density, values, 0)


def _bitsliced_inputs(field, rng):
    yield field.zeros((0, 5))
    yield field.zeros((5, 0))
    yield field.zeros((0, 0))
    yield field.zeros((4, 7))
    yield field.eye(9)
    # both sides of the 63 // (p - 1) columns that one int64 word packs (31
    # over GF(3), 63 over GF(2)), and rows of two and three words
    for cols in (30, 31, 32, 33, 61, 62, 63, 64, 65, 66, 127, 128, 129):
        yield field.random_enc(rng, (cols // 2, cols))
        yield field.random_enc(rng, (cols + 3, cols))
        yield _low_rank(field, rng, cols, cols, cols // 3)
    yield _sparse(field, rng, 2000, 54, 0.005)       # three rows in four are zero
    yield field.random_enc(rng, (108, 108))
    yield _low_rank(field, rng, 108, 108, 70)
    # the extremes of a row packed into one word: widths 1 and 2, and the
    # full width of 63 // (p - 1) columns.  A block of p - 1s packs to the
    # largest input word; its RREF is a row of 1s, so the largest RREF word
    # comes from rows of a 1 followed by p - 1s
    for cols in (1, 2, 63 // (field.order - 1)):
        yield field.random_enc(rng, (4, cols))
        top = np.full((3, cols), field.order - 1, dtype=np.int64)
        yield top
        yield np.concatenate([np.ones((3, 1), dtype=np.int64), top[:, 1:]], axis=1)


@pytest.mark.parametrize("p", [2, 3])
def test_rref_data_matches_naive_oracle_over_gf2_gf3(p):
    field = GF(p)
    rng = np.random.default_rng(24)   # its own draws: the shared stream stays as it was
    for data in _bitsliced_inputs(field, rng):
        red, pivots = rref_data(field, data)
        naive, naive_pivots = naive_rref_mod(data.tolist(), p)
        assert red.dtype == np.int64 and red.shape == data.shape
        assert pivots == naive_pivots
        assert np.array_equal(red, np.array(naive, dtype=np.int64).reshape(data.shape))


@pytest.mark.parametrize("p", [2, 3])
def test_rref_data_with_repeated_rows_matches_naive_oracle(p):
    # the bit-sliced elimination drops repeated packed rows before it starts
    field = GF(p)
    draw = np.random.default_rng(26)
    for cols in (5, 40, 70):
        rows = field.random_enc(draw, (6, cols))
        data = rows[draw.integers(0, 6, 30)]
        data[::5] = 0
        red, pivots = rref_data(field, data)
        naive, naive_pivots = naive_rref_mod(data.tolist(), p)
        assert pivots == naive_pivots
        assert np.array_equal(red, np.array(naive, dtype=np.int64).reshape(data.shape))


def _span_set(sub, p):
    """Every vector of a subspace of GF(p)^n, by enumerating coefficients."""
    d, n = sub.basis.shape
    coeffs = np.array(list(itertools.product(range(p), repeat=d)),
                      dtype=np.int64).reshape(p**d, d)
    vecs = coeffs @ sub.basis.astype(np.int64).reshape(d, n) % p
    return {tuple(v) for v in vecs.tolist()}


def _intersect_inputs(field, rng, n):
    zero, full = Subspace.zero(field, n), Subspace.full(field, n)
    u = random_subspace(field, n, rng)
    yield zero, zero
    yield zero, full
    yield full, full
    yield full, u
    yield u, u                                         # equal subspaces
    yield u, Subspace.from_rows(field, n, field.matmul2(
        field.random_enc(rng, (u.dim, u.dim)), u.basis))  # a subspace of u
    for _ in range(25):
        yield random_subspace(field, n, rng), random_subspace(field, n, rng)


@pytest.mark.parametrize("p", [2, 3])
def test_intersect_equals_kernel_reference_and_brute_force(p, rng):
    field = GF(p)
    for n in range(1, 7):
        for u, v in _intersect_inputs(field, rng, n):
            got = subspace_intersect(u, v)
            want = _intersect_by_kernel(u, v)
            assert got.basis.shape == want.basis.shape
            assert np.array_equal(got.basis, want.basis)
            red, pivots = rref_data(field, got.basis)
            assert len(pivots) == got.dim and np.array_equal(red, got.basis)
            assert _span_set(got, p) == _span_set(u, p) & _span_set(v, p)
            assert subspace_intersect(v, u) == got


@pytest.mark.parametrize("field_name", ["GF(25)", "QQ"])
def test_intersect_equals_kernel_reference_other_fields(field_name, f25, rng):
    field = {"GF(25)": f25, "QQ": QQ}[field_name]
    for n in (1, 3, 5, 7):
        for u, v in _intersect_inputs(field, rng, n):
            got = subspace_intersect(u, v)
            want = _intersect_by_kernel(u, v)
            assert got.basis.shape == want.basis.shape
            assert np.array_equal(got.basis, want.basis)


# -- the tensor span, the direct sum and the kernel on a subspace, against
# -- oracles written out entry by entry


_ALL_FIELDS = ["GF(2)", "GF(3)", "GF(25)", "QQ"]


def _field(name, f25):
    return {"GF(2)": GF(2), "GF(3)": GF(3), "GF(25)": f25, "QQ": QQ}[name]


def _assert_rref(sub):
    red, pivots = rref_data(sub.field, sub.basis)
    assert len(pivots) == sub.dim and np.array_equal(red, sub.basis)


def _subspace_pairs(field, rng):
    """Pairs (U, V) of subspaces of F^m and F^n, zero and full ones included."""
    for m, n in [(1, 1), (2, 3), (3, 2), (3, 3), (4, 2)]:
        yield Subspace.zero(field, m), random_subspace(field, n, rng)
        yield random_subspace(field, m, rng), Subspace.zero(field, n)
        yield Subspace.full(field, m), random_subspace(field, n, rng)
        for _ in range(4):
            yield (random_subspace(field, m, rng, max_dim=m),
                   random_subspace(field, n, rng, max_dim=n))


@pytest.mark.parametrize("field_name", _ALL_FIELDS)
def test_subspace_tensor_matches_entrywise_kronecker_rows(field_name, f25, rng):
    field = _field(field_name, f25)
    for u, v in _subspace_pairs(field, rng):
        m, n = u.ambient_dim, v.ambient_dim
        rows = field.zeros((u.dim * v.dim, m * n))
        for s, t, i, j in itertools.product(range(u.dim), range(v.dim),
                                            range(m), range(n)):
            rows[s * v.dim + t, i * n + j] = field.a_mul(u.basis[s, i], v.basis[t, j])
        got = subspace_tensor(u, v)
        assert got == Subspace.from_rows(field, m * n, rows)
        assert got.dim == u.dim * v.dim
        _assert_rref(got)


@pytest.mark.parametrize("field_name", _ALL_FIELDS)
def test_subspace_direct_sum_is_block_placement(field_name, f25, rng):
    field = _field(field_name, f25)
    for u, v in _subspace_pairs(field, rng):
        m, n = u.ambient_dim, v.ambient_dim
        rows = []
        for s in range(u.dim):
            rows.append(list(u.basis[s]) + [field.zero_enc] * n)
        for t in range(v.dim):
            rows.append([field.zero_enc] * m + list(v.basis[t]))
        got = subspace_direct_sum(u, v)
        assert got == Subspace.from_rows(field, m + n, rows)
        assert got.dim == u.dim + v.dim
        _assert_rref(got)


def _kernel_on_inputs(field, rng):
    """Pairs (W, images), with images of shape (dim W, ...)."""
    for n in (1, 3, 5):
        yield Subspace.zero(field, n), field.zeros((0, 4))       # dim W = 0
        yield Subspace.full(field, n), field.zeros((n, 0))       # empty images
        yield Subspace.full(field, n), field.zeros((n, 2))       # zero map
        for _ in range(6):
            w = random_subspace(field, n, rng)
            width = int(rng.integers(1, 5))
            images = field.random_enc(rng, (w.dim, width))
            if w.dim > 1:
                images[-1] = images[0]                          # force a kernel
            yield w, images
            yield w, field.random_enc(rng, (w.dim, 2, 2))       # further axes


def _kernel_on_by_enumeration(w, images, p):
    """Every vector sum_s a_s w_s with sum_s a_s images[s] = 0, over GF(p)."""
    out = set()
    for coeffs in itertools.product(range(p), repeat=w.dim):
        image = sum((c * images[s].astype(np.int64) for s, c in enumerate(coeffs)), 0)
        if not np.any(np.asarray(image) % p):
            vec = sum((c * w.basis[s] for s, c in enumerate(coeffs)),
                      np.zeros(w.ambient_dim, dtype=np.int64))
            out.add(tuple((vec % p).tolist()))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_kernel_on_matches_brute_force_enumeration(p, rng):
    field = GF(p)
    for w, images in _kernel_on_inputs(field, rng):
        want = _kernel_on_by_enumeration(w, images, p)
        before = images.copy()
        got = kernel_on(w, images)
        assert np.array_equal(images, before)
        assert got.ambient_dim == w.ambient_dim
        _assert_rref(got)
        assert _span_set(got, p) == want


@pytest.mark.parametrize("field_name", ["GF(25)", "QQ"])
def test_kernel_on_vectors_are_in_w_and_map_to_zero(field_name, f25, rng):
    field = _field(field_name, f25)
    for w, images in _kernel_on_inputs(field, rng):
        flat = images.reshape(w.dim, -1).copy() if images.size else field.zeros((w.dim, 0))
        got = kernel_on(w, images)
        _assert_rref(got)
        assert got.dim == w.dim - rank(field, flat)
        coeffs = express_in_rows(field, w.basis, got.basis)
        assert np.all(field.matmul2(coeffs, flat) == field.zero_enc)


def test_public_api_names_resolve():
    import symcenter

    for name in symcenter.__all__:
        assert hasattr(symcenter, name), name
    assert {"kernel", "rank", "rref_data"} <= set(symcenter.__all__)
    for gone in ("from_vectors", "basis_vectors"):
        assert not hasattr(symcenter.Subspace, gone)
    for gone in ("Matrix", "rref", "SymmetricStructure", "symmetric_structure",
                 "LoewyProfile", "member"):
        assert gone not in symcenter.__all__ and not hasattr(symcenter, gone)
    assert not hasattr(symcenter.linalg, "member")
