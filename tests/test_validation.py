"""Table validation: the sparse associativity check against the dense identity.

``dense_validation_error`` is the operator check L(e_i e_j) = L(e_i) L(e_j)
on the full table, with the same unit-law checks in front.  The sparse
check in ``Algebra`` must agree with it on every table: the same verdict,
the same message and the same failing triple.
"""

import json

import numpy as np
import pytest
from conftest import CASES
from oracles import dense_entries, dense_table

from symcenter import GF, QQ, SkewPresentation, from_skew_presentation, gf25
from symcenter import algebra
from symcenter.algebra import Algebra
from symcenter.constructions import trivial_extension
from symcenter.corpus import _BUILDERS, get
from symcenter.errors import AlgebraValidationError
from symcenter.fileformat import parse_document
from symcenter.linalg import rref_data


def _unvalidated(field, table, one) -> Algebra:
    """A view of the table on a core of its own, never validated or interned."""
    table, one = field.arr(table), field.arr(one)
    core = algebra._Core(field, len(table), dense_entries(field, table), one.reshape(-1))
    return Algebra(field, None, None, _core=core)


def dense_validation_error(field, table, one):
    """The AlgebraValidationError a dense check raises on (table, one), or None."""
    a = _unvalidated(field, table, one)
    f, c, n = field, dense_table(a), a.dim
    ident = f.eye(n)
    left_unit = a.left_products(a.one[None, :])[0]
    if not np.all(left_unit == ident):
        i = int(np.nonzero(np.any(left_unit != ident, axis=1))[0][0])
        return AlgebraValidationError(f"unit law fails: one * e_{i} != e_{i}")
    right_unit = a.right_products(a.one[None, :])[0]
    if not np.all(right_unit == ident):
        i = int(np.nonzero(np.any(right_unit != ident, axis=1))[0][0])
        return AlgebraValidationError(f"unit law fails: e_{i} * one != e_{i}")
    # L[i] is the matrix of y -> e_i y (column-vector convention)
    lops = np.ascontiguousarray(c.transpose(0, 2, 1))
    lflat = lops.reshape(n, n * n)
    lswap = np.ascontiguousarray(lops.transpose(1, 0, 2)).reshape(n, n * n)
    chunk = max(1, 4_000_000 // (n * n * n) + 1)
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        w = stop - start
        lhs = f.tensordot_lf(c[start:stop].reshape(w * n, n), lflat).reshape(w, n, n, n)
        rhs = f.tensordot_lf(lops[start:stop].reshape(w * n, n), lswap).reshape(w, n, n, n)
        rhs = rhs.transpose(0, 2, 1, 3)
        if not np.all(lhs == rhs):
            di, j, _, l = (int(v) for v in np.argwhere(lhs != rhs)[0])
            i = start + di
            return AlgebraValidationError(
                f"associativity fails at basis triple ({i},{j},{l}): "
                f"(e_{i} e_{j}) e_{l} != e_{i} (e_{j} e_{l})",
                triple=(i, j, l),
            )
    return None


def sparse_validation_error(field, table, one):
    try:
        Algebra(field, table, one)
    except AlgebraValidationError as exc:
        return exc
    return None


def assert_checks_agree(field, table, one):
    """Both checks give the same verdict; returns the error, or None."""
    dense = dense_validation_error(field, table, one)
    sparse = sparse_validation_error(field, table, one)
    assert (dense is None) == (sparse is None), (dense, sparse)
    if dense is not None:
        assert str(sparse) == str(dense)
        assert sparse.triple == dense.triple
    return sparse


def perturbed(field, table, one, rng, cells):
    """A copy of ``table`` with ``cells`` random entries changed.

    Where ``one`` is not supported on the whole basis, only products e_i e_j
    of basis vectors outside its support change, so the unit law keeps
    holding and the associativity check is what is exercised.
    """
    n = table.shape[0]
    free = np.nonzero(one == field.zero_enc)[0]
    if free.size == 0:
        free = np.arange(n)
    bad = table.copy()
    for _ in range(cells):
        i, j = (int(v) for v in rng.choice(free, 2))
        k = int(rng.integers(0, n))
        while True:
            v = field.random_enc(rng, 1)[0]
            if v != bad[i, j, k]:
                break
        bad[i, j, k] = v
    return bad


def matrix_algebra_random_basis(field, m, rng):
    """M_m in the basis b_a = sum_s P[a, s] E_s for a random invertible P."""
    n = m * m
    units = field.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            if a % m == b // m:
                units[a, b, (a // m) * m + b % m] = field.one_enc
    lower, upper = field.random_enc(rng, (n, n)), field.random_enc(rng, (n, n))
    for x in range(n):
        lower[x, x + 1:] = field.zero_enc
        upper[x, :x] = field.zero_enc
        lower[x, x] = upper[x, x] = field.one_enc
    p = field.matmul2(lower, upper)
    inv = rref_data(field, np.concatenate([p, field.eye(n)], axis=1))[0][:, n:]
    # b_a b_b = sum_{s,t} P[a,s] P[b,t] E_s E_t, then coordinates in the b basis
    inner = field.tensordot_lf(p, units.transpose(1, 0, 2))          # [b, s, :]
    prods = field.tensordot_lf(p, inner.transpose(1, 0, 2))          # [a, b, :]
    table = field.tensordot_lf(prods.reshape(n * n, n), inv).reshape(n, n, n)
    one = field.tensordot_lf(field.eye(m).reshape(1, n), inv).reshape(n)
    return table, one


def _case_algebras():
    for path in sorted(CASES.glob("*.json")):
        yield path.stem, parse_document(json.loads(path.read_text()))


def _small_algebras():
    """Corpus entries up to dim 20 and skew presentations over GF(2), GF(3), GF(25), QQ."""
    yield from (get(name) for name in _BUILDERS if get(name).dim <= 20)
    for field in (GF(2), GF(3), gf25(), QQ):
        for pres in (SkewPresentation.anticommuting([2, 2]),
                     SkewPresentation.commuting([2, 3])):
            yield from_skew_presentation(field, pres)


def test_corpus_and_cases_agree_with_dense_reference():
    for name in _BUILDERS:
        a = get(name)
        assert assert_checks_agree(a.field, dense_table(a), a.one) is None, name
    for name, a in _case_algebras():
        assert assert_checks_agree(a.field, dense_table(a), a.one) is None, name


@pytest.mark.parametrize("cells", [1, 2])
def test_perturbations_agree_with_dense_reference(cells, rng):
    algebras = list(_small_algebras()) + [a for _, a in _case_algebras()]
    triples = 0
    for a in algebras:
        for _ in range(6):
            bad = perturbed(a.field, dense_table(a), a.one, rng, cells)
            err = assert_checks_agree(a.field, bad, a.one)
            triples += err is not None and err.triple is not None
    # most perturbations break associativity; the rest leave a valid table
    assert triples > len(algebras) * 6 // 2


def test_large_corpus_tables_perturbed_agree_with_dense_reference(rng):
    for name in ("counterexample_A", "firstexample_i"):
        a = get(name)
        for cells in (1, 2):
            assert_checks_agree(a.field, perturbed(a.field, dense_table(a), a.one, rng, cells), a.one)


@pytest.mark.parametrize("field", [GF(3), gf25(), QQ], ids=str)
def test_dense_matrix_algebra_in_random_basis(field, rng):
    table, one = matrix_algebra_random_basis(field, 3, rng)
    zero = field.zero_enc
    assert np.count_nonzero(table != zero) > table.size // 2      # really dense
    assert assert_checks_agree(field, table, one) is None
    for cells in (1, 2):
        for _ in range(3):
            assert_checks_agree(field, perturbed(field, table, one, rng, cells), one)


@pytest.mark.parametrize("block", [1, 37, 500])
def test_small_join_blocks_agree_with_dense_reference(block, monkeypatch, rng):
    # blocks of one or a few basis pairs, ending inside rows of the table
    monkeypatch.setattr(algebra, "_JOIN_BLOCK", block)
    m3, one3 = matrix_algebra_random_basis(GF(3), 3, rng)
    tables = [(a.field, dense_table(a), a.one) for a in (get("dim12_sharp"), get("soc20_trivext"))]
    tables.append((GF(3), m3, one3))
    for field, table, one in tables:
        assert assert_checks_agree(field, table, one) is None
        for cells in (1, 2):
            for _ in range(4):
                assert_checks_agree(field, perturbed(field, table, one, rng, cells), one)


def test_dimension_100_trivial_extension(rng):
    a = trivial_extension(get("counterexample_A"))
    f, n = a.field, a.dim
    assert (n, f) == (100, gf25())
    # change one product of two non-unit basis vectors, so the unit law holds
    units = set(np.nonzero(a.one != f.zero_enc)[0].tolist())
    i, j = (int(v) for v in rng.choice([x for x in range(n) if x not in units], 2))
    bad = dense_table(a)
    k = int(rng.integers(0, n))
    bad[i, j, k] = f.a_add(bad[i, j, k], f.one_enc)
    with pytest.raises(AlgebraValidationError) as err:
        Algebra(f, bad, a.one)
    x, y, z = err.value.triple
    raw = _unvalidated(f, bad, a.one)
    e = f.eye(n)
    lhs = raw.multiply_coords(raw.multiply_coords(e[x], e[y]), e[z])
    rhs = raw.multiply_coords(e[x], raw.multiply_coords(e[y], e[z]))
    assert not np.array_equal(lhs, rhs)
