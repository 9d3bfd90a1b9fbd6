"""Structure-constant algebras and their first-order invariants.

An Algebra is a finite-dimensional unital associative algebra given by a
table of structure constants: ``table[i, j]`` holds the coordinates of
e_i * e_j.  Associativity and the unit law are always verified at
construction.  Associativity is checked on the nonzero structure constants
alone: the terms c_ijk c_klm of (e_i e_j) e_l and c_jlr c_irm of
e_i (e_j e_l) come from joining the table's nonzero entries with each
other, and are summed per key (i, j, m, l), where m is the output
coordinate.  The work is on the order of dim times the nonzero count,
against dim^5 for the dense identity L(e_i e_j) = L(e_i) L(e_j); the
tables the constructions build are monomial or nearly so.  That identity
is indexed in the same order, so the first failing key names the triple a
dense check would.  Everything downstream (centers, commutator spaces, ideal
tests, annihilators, Loewy series) is exact linear algebra over the
algebra's field.

Products of a block of rows with the table (``left_products`` and
``right_products``, and so ``is_ideal``, ``basis_products``,
``ideal_closure`` and the annihilators) read the n x n^2 table of their
side, ``table.reshape(n, n * n)`` or its (j, i) transpose, on its nonzero
columns alone (Gustavson's column compression, ACM TOMS 4(3), 1978): one
product with the dense n x c block of those columns, scattered into a zero
output.  A table is mostly zero; over paper-suite's tables a third of the
columns hold a nonzero constant.  ``basis_products(u, v)`` contracts v's
basis with the products u_s e_j the same way: only on the coordinates j
that v's basis uses, and on the columns of those rows that hold a nonzero
product.

An Algebra is a thin *view* over a *core* (hash-consing):

* per table, on the core: the field, the read-only table and unit, the
  validation, and every fact that depends on them alone -- the center,
  the commutator space, the nonzero columns of each side's table and their
  block, the ideal test of each subspace, the radical certificate checks
  and the facts derived from J(A), the Gram matrix of each verified form,
  I_mu for each form mu, and the tables that the quotient, tensor and
  trivial-extension constructions built from this one (A/I once per ideal
  I, whichever route asks for it) with the radical seed of each A/I.
  ``memoised(key)`` keeps a result there, once per further argument where
  it has one;
* per view, on the Algebra: the name, labels, symmetrizing form,
  construction seed, and the radical certificate with its provenance
  (``_cache["radical_cert"]``).

``replace`` and the constructions' memos hand out new views of an existing
core.  Tables are interned only inside an ``interning()`` block, which the
paper suite runs in: there a table equal to one built earlier in the block
(same field, exactly equal arrays, found by a hash of them) gets that
core, validated and analysed once.  The block holds its cores until it
ends, so what is shared depends only on what the block builds, never on
which algebras happen to be alive.  Outside a block every new table gets
a core of its own.  A core keeps only cores made after it, and no view,
so no core or view is ever in a reference cycle: each is freed as soon as
the last reference to it goes.  A memo whose result is an older core (A/I_mu
with I_mu = 0 has A's own table) is kept by the open block instead, until
it ends.  Both are immutable: the table, unit and form are read-only arrays
(a caller's writeable array is copied, never aliased).  A different name or
form means a new view of the same core, made by ``replace``.
"""

from __future__ import annotations

import functools
import itertools
from contextlib import contextmanager

import numpy as np

from .errors import (
    AlgebraMismatch,
    AlgebraValidationError,
    ImproperIdeal,
    NotAnIdeal,
    NotNilpotent,
)
from .fields import FieldDescriptor
from .linalg import Subspace, kernel


def memoised(key: str):
    """Decorator for a function of one algebra (or a method), optionally
    with further arguments, whose result depends only on the table and
    those arguments: compute it once and keep it on the table's core, for
    every view of the table.  The entry is ``key`` or ``(key, *args)``,
    where an array or subspace argument stands as its exact coordinates
    (``coords_key``).  A call that raises stores nothing.  A result that is
    a core made no later than the algebra's own (its own core, or one an
    interning block found) is never kept on the core: a core keeps only
    younger cores, so cores never form a reference cycle.  Inside an
    interning block the block keeps it instead, keyed by the core's serial
    and the slot, until the block ends; outside one it is recomputed."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(algebra, *args):
            core = algebra._core
            slot = (key, *(_arg_key(core.field, x) for x in args)) if args else key
            if slot in core.facts:
                return core.facts[slot]
            if _OLDER is not None and (core.serial, slot) in _OLDER:
                return _OLDER[core.serial, slot]
            result = fn(algebra, *args)
            if not (isinstance(result, _Core) and result.serial <= core.serial):
                core.facts[slot] = result
            elif _OLDER is not None:
                _OLDER[core.serial, slot] = result
            return result
        return wrapper
    return decorate


def _arg_key(field: FieldDescriptor, x):
    """A memo key for one further argument of a ``memoised`` function."""
    if isinstance(x, Subspace):
        return coords_key(field, x.basis)
    if isinstance(x, np.ndarray):
        return coords_key(field, x)
    return x


def coords_key(field: FieldDescriptor, coords: np.ndarray):
    """An exact hashable key for encoded coordinates: the int64 bytes over
    GF(p) and GF(p^k), the tuple of values over QQ (the bytes of an object
    array are pointers).  Keys are compared only within one core, so the
    field is fixed, and an argument's role fixes its shape up to length,
    which the key tells apart."""
    if field.dtype is object:
        return tuple(coords.flat)
    return coords.astype(np.int64, copy=False).tobytes()


_JOIN_BLOCK = 4_000_000     # terms per block of the associativity join


def _runs(starts: np.ndarray, counts: np.ndarray):
    """The index runs starts[t], ..., starts[t] + counts[t] - 1, flattened.

    Returns (t, index) for every index of every run, runs in order of t.
    """
    t = np.repeat(np.arange(len(counts)), counts)
    return t, starts[t] + np.arange(len(t)) - (np.cumsum(counts) - counts)[t]


def _first_nonassociative_triple(f: FieldDescriptor, c: np.ndarray):
    """The first basis triple (i, j, l) with (e_i e_j) e_l != e_i (e_j e_l), or None.

    Works on the nonzero entries (i, j, k) of the table, taken in C order,
    so the entries of each basis pair (i, j), and of each row i, are
    contiguous.  Coefficient m of (e_i e_j) e_l sums the terms c_ijk c_klm
    (pair (i, j) joined with row k); coefficient m of e_i (e_j e_l) sums
    c_jlr c_irm (row j joined with pair (i, r)).  Both kinds of term are
    keyed (i, j, m, l) and summed per key, the second negated; associativity
    holds where every sum is zero.  The key order is the index order of the
    operator identity L(e_i e_j) = L(e_i) L(e_j), so the smallest key whose
    sum is nonzero names the first failing (i, j, l) in that order, the
    triple a dense check of the identity reports.  Pairs (i, j) are joined
    in that order, in blocks of at most ``_JOIN_BLOCK`` terms (or of one
    pair), so memory stays bounded on dense tables too.
    """
    n = c.shape[0]
    ei, ej, ek = (x.astype(np.int64) for x in np.nonzero(c != f.zero_enc))
    val = c[ei, ej, ek]
    pair_cnt = np.bincount(ei * n + ej, minlength=n * n)
    pair_start = np.concatenate([[0], np.cumsum(pair_cnt)])
    row_cnt = np.bincount(ei, minlength=n)
    row_start = np.concatenate([[0], np.cumsum(row_cnt)])
    pi, pj = np.divmod(np.arange(n * n), n)
    # work per pair (i, j): left terms, right terms, and the row-j entries
    # the right terms are built from
    cost = (np.bincount(ei * n + ej, weights=row_cnt[ek], minlength=n * n).astype(np.int64)
            + (pair_cnt.reshape(n, n)
               @ np.bincount(ek * n + ei, minlength=n * n).reshape(n, n)).ravel()
            + row_cnt[pj])
    ends = np.concatenate([[0], np.cumsum(cost)])
    bounds = [0]
    while bounds[-1] < n * n:
        stop = int(np.searchsorted(ends, ends[bounds[-1]] + _JOIN_BLOCK, "right")) - 1
        bounds.append(max(bounds[-1] + 1, stop))
    for p0, p1 in zip(bounds, bounds[1:]):
        # (e_i e_j) e_l: each entry (i, j, k) of the pairs against row k
        e = np.arange(pair_start[p0], pair_start[p1])
        t, b = _runs(row_start[ek[e]], row_cnt[ek[e]])
        e = e[t]
        keys = [((ei[e] * n + ej[e]) * n + ek[b]) * n + ej[b]]
        terms = [f.a_mul(val[e], val[b])]
        # e_i (e_j e_l): each entry (j, l, r) of row j against pair (i, r)
        p = np.arange(p0, p1)
        t, e = _runs(row_start[pj[p]], row_cnt[pj[p]])
        p = p[t]
        r = pi[p] * n + ek[e]
        t, b = _runs(pair_start[r], pair_cnt[r])
        p, e = p[t], e[t]
        keys.append((p * n + ek[b]) * n + ej[e])
        terms.append(f.a_neg(f.a_mul(val[e], val[b])))
        keys = np.concatenate(keys)
        if keys.size == 0:
            continue
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        bad = np.flatnonzero(f.a_sum_runs(np.concatenate(terms)[order], starts) != f.zero_enc)
        if bad.size:
            i, j, _, l = (int(v) for v in np.unravel_index(keys[starts[bad[0]]], (n,) * 4))
            return i, j, l
    return None


def _read_only(field: FieldDescriptor, values, fresh: bool = False) -> np.ndarray:
    """The encodings of ``values`` in an array nobody can write.

    A construction's freshly built array of encodings (``fresh``) is frozen
    in place; otherwise an input array the caller could still write is
    copied, and a read-only one is shared.
    """
    if fresh and isinstance(values, np.ndarray) and values.dtype == field.dtype:
        arr = values
    else:
        arr = field.arr(values)
        if arr is values and arr.flags.writeable:
            arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _nonzero_rows(f: FieldDescriptor, system: np.ndarray) -> np.ndarray:
    """The rows of a linear system that have a nonzero entry.

    The n^2 x n center and commutator systems are mostly zero rows, and
    dropping them leaves the RREF, and so the kernel or span, unchanged.
    """
    return system[np.any(system != f.zero_enc, axis=1)]


def _validate(f: FieldDescriptor, c: np.ndarray, one: np.ndarray):
    """Raise AlgebraValidationError unless ``one`` is a two-sided unit of
    the table ``c`` and the table is associative."""
    n = c.shape[0]
    ident = f.eye(n)
    left_unit = f.tensordot_lf(one[None, :], c.reshape(n, -1)).reshape(n, n)
    if not np.all(left_unit == ident):
        i = int(np.nonzero(np.any(left_unit != ident, axis=1))[0][0])
        raise AlgebraValidationError(f"unit law fails: one * e_{i} != e_{i}")
    ct = np.ascontiguousarray(c.transpose(1, 0, 2))
    right_unit = f.tensordot_lf(one[None, :], ct.reshape(n, -1)).reshape(n, n)
    if not np.all(right_unit == ident):
        i = int(np.nonzero(np.any(right_unit != ident, axis=1))[0][0])
        raise AlgebraValidationError(f"unit law fails: e_{i} * one != e_{i}")
    triple = _first_nonassociative_triple(f, c)
    if triple is not None:
        i, j, l = triple
        raise AlgebraValidationError(
            f"associativity fails at basis triple ({i},{j},{l}): "
            f"(e_{i} e_{j}) e_{l} != e_{i} (e_{j} e_{l})",
            triple=triple,
        )


class _Core:
    """One structure table: the field, the read-only table and unit, and
    ``facts``, every result that depends on them alone.  It holds no view.
    ``serial`` orders cores by creation (see ``memoised``)."""

    __slots__ = ("field", "table", "one", "serial", "facts", "__weakref__")

    def __init__(self, field: FieldDescriptor, table: np.ndarray, one: np.ndarray):
        self.field = field
        self.table = table
        self.one = one
        self.serial = next(_SERIALS)
        self.facts: dict = {}

    def holds(self, table: np.ndarray, one: np.ndarray) -> bool:
        """Exactly this table and unit (the field is the caller's to check)."""
        return ((self.table is table or np.array_equal(self.table, table))
                and (self.one is one or np.array_equal(self.one, one)))


_SERIALS = itertools.count()

# the open interning block: (field key, dim, hash of table and unit) -> the
# cores with that key, in order of creation; None outside a block
_INTERNED: dict | None = None
# the open block's memo results that are cores no younger than the core
# they were computed on: (core serial, memo slot) -> that result core
_OLDER: dict | None = None


@contextmanager
def interning():
    """A block in which equal tables share one core.

    An Algebra built inside on the table and unit of a core the block made
    earlier, over the same field, gets that core: its table is validated,
    and each fact computed, once in the block.  The block holds every core
    it made until it ends, so sharing does not depend on which algebras are
    still alive; it also keeps the memo results that no core may keep (see
    ``memoised``).  A block opened inside another joins it.
    """
    global _INTERNED, _OLDER
    if _INTERNED is not None:
        yield
        return
    _INTERNED, _OLDER = {}, {}
    try:
        yield
    finally:
        _INTERNED = _OLDER = None


def _digest(field: FieldDescriptor, table: np.ndarray, one: np.ndarray) -> int:
    """A hash of the table and unit.  Over QQ it reads the positions and
    values of the nonzero entries, since the bytes of an object array are
    pointers; equal values hash equally, whatever their Python type."""
    if field.dtype is not object:
        return hash((table.tobytes(), one.tobytes()))
    nonzero = [np.flatnonzero(arr) for arr in (table, one)]
    return hash(tuple((nz.tobytes(), tuple(arr.flat[nz]))
                      for arr, nz in zip((table, one), nonzero)))


def _core_of(field: FieldDescriptor, table: np.ndarray, one: np.ndarray) -> _Core:
    """Inside an interning block, the block's core holding exactly this
    table and unit, if it has one.  Otherwise a new core, validated first
    (and, inside a block, interned).  Unequal tables whose hashes collide
    never share a core: the arrays are compared first."""
    if _INTERNED is None:
        _validate(field, table, one)
        return _Core(field, table, one)
    cores = _INTERNED.setdefault((field._key(), table.shape[0], _digest(field, table, one)), [])
    for core in cores:
        if core.holds(table, one):
            return core
    _validate(field, table, one)
    cores.append(_Core(field, table, one))
    return cores[-1]


@memoised("nonzero_columns")
def _nonzero_columns(algebra: Algebra, right: bool):
    """The columns of one side's n x n^2 table that hold a nonzero constant,
    and the n x c block of them: ``table.reshape(n, n * n)`` on the left,
    whose column (j, k) holds the coefficients of e_k in e_i e_j for each
    row i, and the (j, i) transpose on the right.  A table is mostly zero,
    so its products are read from the block alone."""
    n, table = algebra.dim, algebra.table
    flat = (table.transpose(1, 0, 2) if right else table).reshape(n, n * n)
    cols = np.flatnonzero(np.any(flat != algebra.field.zero_enc, axis=0))
    block = flat[:, cols]
    block.flags.writeable = False
    return cols, block


@memoised("is_ideal")
def _is_ideal(algebra: Algebra, u: Subspace) -> bool:
    """``Algebra.is_ideal`` for a nonzero subspace of the algebra."""
    n, zero = algebra.dim, algebra.field.zero_enc
    # A u first (e_j u_s), then u A (u_s e_j): each product is in u when
    # its quotient coordinates, all its residual can hold, are zero
    if np.any(u.quotient_coords(algebra.right_products(u.basis).reshape(-1, n)) != zero):
        return False
    return bool(np.all(u.quotient_coords(algebra.left_products(u.basis).reshape(-1, n)) == zero))


class Algebra:
    """A unital associative algebra presented by structure constants: a
    view (name, labels, form, seed, radical provenance) over the core of
    its table."""

    def __init__(self, field: FieldDescriptor, table, one, labels=None,
                 sym_form=None, name: str | None = None,
                 _radical_seed=None, _core: _Core | None = None, _fresh: bool = False):
        if _core is None:
            table = _read_only(field, table, _fresh)
            if table.ndim != 3 or table.shape[0] != table.shape[1] or table.shape[0] != table.shape[2]:
                raise AlgebraValidationError("structure table must have shape (n, n, n)")
            n = table.shape[0]
            if n == 0:
                raise AlgebraValidationError("algebras here are unital, so dim >= 1")
            one = _read_only(field, one, _fresh)
            if one.size != n:
                raise AlgebraValidationError(f"unit has {one.size} coordinates, expected {n}")
            _core = _core_of(field, table, one.reshape(n))
        n = _core.table.shape[0]
        if labels is not None:
            labels = [str(s) for s in labels]
            if len(labels) != n:
                raise AlgebraValidationError("label count must equal the dimension")
        if sym_form is not None:
            sym_form = _read_only(field, sym_form)
            if sym_form.size != n:
                raise AlgebraValidationError(
                    f"symmetrizing form has {sym_form.size} coordinates, expected {n}"
                )
            sym_form = sym_form.reshape(n)
        self._core = _core
        self.field = _core.field
        self.dim = n
        self.table = _core.table
        self.one = _core.one
        self.labels = labels
        self.sym_form = sym_form
        self.name = name
        # this view's radical certificate, under "radical_cert": its
        # provenance depends on the seed, not on the table alone
        self._cache: dict = {}
        # A function of no arguments returning (subspace, evidence) or None,
        # passed only by constructions whose math makes the subspace J(A);
        # radical() calls it once and re-checks that it is a nilpotent
        # ideal.  Without a seed, radical() computes J(A) from the table.
        self._radical_seed = _radical_seed

    def replace(self, *, name=None, sym_form=None) -> "Algebra":
        """A new view of the same core with the given fields changed.

        Arguments left as None keep this view's value, and the labels and
        construction seed are kept.  Nothing is validated or encoded again,
        and every per-table fact is shared; the new view certifies its own
        radical, by the same seed.
        """
        return Algebra(
            self.field, self.table, self.one, labels=self.labels,
            sym_form=self.sym_form if sym_form is None else sym_form,
            name=self.name if name is None else name,
            _radical_seed=self._radical_seed,
            _core=self._core,
        )

    # -- elements ---------------------------------------------------------------

    def element(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, self._coords_of(coords).copy())

    def basis_element(self, i: int) -> "AlgebraElement":
        coords = self.field.zeros(self.dim)
        coords[i] = self.field.one_enc
        return AlgebraElement(self, coords)

    def one_element(self) -> "AlgebraElement":
        return AlgebraElement(self, self.one.copy())

    def monomial(self, label: str) -> "AlgebraElement":
        if label not in (self.labels or ()):
            raise KeyError(f"no basis element is labelled {label!r}")
        return self.basis_element(self.labels.index(label))

    def left_products(self, rows: np.ndarray) -> np.ndarray:
        """Array P of shape (len(rows), dim, dim) with P[s, j] = rows[s] * e_j."""
        return self._products(rows, right=False)

    def right_products(self, rows: np.ndarray) -> np.ndarray:
        """Array P of shape (len(rows), dim, dim) with P[s, j] = e_j * rows[s]."""
        return self._products(rows, right=True)

    def _products(self, rows: np.ndarray, right: bool) -> np.ndarray:
        """rows times one side's n x n^2 table, read on its nonzero columns
        alone: one product with their block, scattered into zeros."""
        n = self.dim
        cols, block = _nonzero_columns(self, right)
        out = self.field.zeros((rows.shape[0], n * n))
        out[:, cols] = self.field.matmul2(rows, block)
        return out.reshape(rows.shape[0], n, n)

    def multiply_coords(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        xe = self.left_products(x[None, :])[0]
        return self.field.tensordot_lf(y[None, :], xe).reshape(self.dim)

    def left_mult_matrix(self, x) -> np.ndarray:
        """Matrix of y -> x y on the basis (columns are images)."""
        return self.left_products(self._coords_of(x)[None, :])[0].T.copy()

    def right_mult_matrix(self, x) -> np.ndarray:
        """Matrix of y -> y x on the basis."""
        return self.right_products(self._coords_of(x)[None, :])[0].T.copy()

    def _coords_of(self, x) -> np.ndarray:
        if isinstance(x, AlgebraElement):
            if x.algebra is not self:
                raise AlgebraMismatch("element belongs to a different algebra")
            return x.coords
        coords = self.field.arr(x)
        if coords.shape != (self.dim,):
            raise AlgebraMismatch(
                f"coordinates of shape {coords.shape} for an algebra of dimension {self.dim}"
            )
        return coords

    # -- basic subspaces ----------------------------------------------------------

    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.field, self.dim)

    @memoised("commutative")
    def is_commutative(self) -> bool:
        return bool(np.all(self.table == self.table.transpose(1, 0, 2)))

    @memoised("center")
    def center(self) -> Subspace:
        """Elements commuting with every basis vector."""
        f, c, n = self.field, self.table, self.dim
        diff = f.a_sub(np.ascontiguousarray(c.transpose(1, 0, 2)), c)  # [j,i,k] = (e_j e_i - e_i e_j)_k .. as functions of j
        system = np.ascontiguousarray(diff.transpose(1, 2, 0)).reshape(n * n, n)
        return kernel(f, _nonzero_rows(f, system))

    @memoised("commutator")
    def commutator_space(self) -> Subspace:
        """Span of all commutators [e_i, e_j]."""
        f, c, n = self.field, self.table, self.dim
        comm = f.a_sub(c, np.ascontiguousarray(c.transpose(1, 0, 2)))
        return Subspace.from_rows(f, n, _nonzero_rows(f, comm.reshape(n * n, n)))

    # -- subspace products and ideals ----------------------------------------------

    def basis_products(self, u: Subspace, v: Subspace) -> np.ndarray:
        """Array P of shape (u.dim, v.dim, dim) with P[s, t] = u_s * v_t."""
        self._check_subspace(u)
        self._check_subspace(v)
        f, n = self.field, self.dim
        if u.dim == 0 or v.dim == 0:
            return f.zeros((u.dim, v.dim, n))
        # contract v over j in u_s * e_j, on the rows j that v's basis uses
        # and the columns (s, k) of those rows that hold a nonzero product
        js = (v.basis != f.zero_enc).any(0).nonzero()[0]
        block = self.left_products(u.basis).transpose(1, 0, 2)[js].reshape(len(js), u.dim * n)
        cols = (block != f.zero_enc).any(0).nonzero()[0]
        prod = f.zeros((v.dim, u.dim * n))
        prod[:, cols] = f.matmul2(v.basis[:, js], block[:, cols])
        return prod.reshape(v.dim, u.dim, n).transpose(1, 0, 2)

    def subspace_product(self, u: Subspace, v: Subspace) -> Subspace:
        """Span of u_s * v_t over all basis pairs."""
        prod = self.basis_products(u, v)
        return Subspace.from_rows(self.field, self.dim, prod.reshape(-1, self.dim))

    def is_ideal(self, u: Subspace) -> bool:
        """Two-sided ideal test via basis products, run once per table and
        subspace; the subspace is checked against this algebra first."""
        self._check_subspace(u)
        if u.dim == 0:
            return True
        return _is_ideal(self, u)

    def ideal_closure(self, u: Subspace) -> Subspace:
        """Smallest two-sided ideal containing u: the span A u A.

        A u (every e_j u_s) contains u because 1 is in A, so the ideal is the
        span of the products (e_j u_s) e_k: two eliminations, no fixpoint.
        """
        self._check_subspace(u)
        n = self.dim
        au = Subspace.from_rows(self.field, n, self.right_products(u.basis).reshape(-1, n))
        return Subspace.from_rows(self.field, n, self.left_products(au.basis).reshape(-1, n))

    def left_annihilator(self, s: Subspace) -> Subspace:
        """{x : x v = 0 for all v in s}."""
        self._check_subspace(s)
        if s.dim == 0:
            return self.full_space()
        # x v_s = sum_j x_j (e_j v_s): one equation per (s, coordinate)
        system = self.right_products(s.basis).transpose(0, 2, 1)
        return kernel(self.field, system.reshape(-1, self.dim))

    def right_annihilator(self, s: Subspace) -> Subspace:
        """{x : v x = 0 for all v in s}."""
        self._check_subspace(s)
        if s.dim == 0:
            return self.full_space()
        system = self.left_products(s.basis).transpose(0, 2, 1)
        return kernel(self.field, system.reshape(-1, self.dim))

    def _check_subspace(self, u: Subspace):
        self.field.check_same(u.field)
        if u.ambient_dim != self.dim:
            raise AlgebraMismatch(
                f"subspace lives in dimension {u.ambient_dim}, algebra has {self.dim}"
            )

    # -- radical powers -------------------------------------------------------------

    def radical_powers(self, j: Subspace) -> list[Subspace]:
        """The chain [A, J, J^2, ...] down to the first zero power.

        Raises NotNilpotent when a power fails to shrink, which for a
        nilpotent ideal cannot happen before zero.
        """
        self._check_subspace(j)
        chain = [self.full_space(), j]
        while not chain[-1].is_zero():
            nxt = self.subspace_product(chain[-1], j)
            if nxt.dim >= chain[-1].dim:
                raise NotNilpotent("subspace power chain does not descend to zero")
            chain.append(nxt)
        return chain

    def loewy_series(self, j: Subspace) -> tuple[int, ...]:
        """Layer dimensions of A = J^0 over J, J over J^2, ... (J nilpotent);
        their number is the nilpotency index of J."""
        chain = self.radical_powers(j)
        return tuple(chain[i].dim - chain[i + 1].dim for i in range(len(chain) - 1))

    # -- formatting ----------------------------------------------------------------

    def element_str(self, coords) -> str:
        coords = self._coords_of(coords)
        nz = [i for i in range(self.dim) if coords[i] != self.field.zero_enc]
        if not nz:
            return "0"
        if self.labels is None:
            return "(" + ", ".join(self.field.format_enc(v) for v in coords) + ")"
        parts = []
        for i in nz:
            c = coords[i]
            if c == self.field.one_enc:
                parts.append(self.labels[i])
            else:
                parts.append(f"{self.field.format_enc(c)}*{self.labels[i]}")
        return " + ".join(parts)

    def subspace_str(self, u: Subspace) -> str:
        if u.dim == 0:
            return "0"
        return "span{" + ", ".join(self.element_str(r) for r in u.basis) + "}"

    def same_table(self, other: "Algebra") -> bool:
        """Byte-identical presentation: same field, table and identity."""
        return self._core is other._core or (
            self.field == other.field
            and self.dim == other.dim
            and self._core.holds(other.table, other.one)
        )

    def __repr__(self):
        label = self.name or "Algebra"
        return f"{label}(dim {self.dim} over {self.field})"


class AlgebraElement:
    """An element of a structure-constant algebra, held as coordinates.

    A numpy integer multiple is an encoding on either side: numpy defers to
    the reflected operators (``__array_ufunc__ = None``).
    """

    __slots__ = ("algebra", "coords")
    __array_ufunc__ = None

    def __init__(self, algebra: Algebra, coords: np.ndarray):
        self.algebra = algebra
        self.coords = coords

    def _same(self, other) -> np.ndarray:
        if not isinstance(other, AlgebraElement):
            raise AlgebraMismatch("expected an algebra element")
        if other.algebra is not self.algebra:
            raise AlgebraMismatch("elements belong to different algebras")
        return other.coords

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            y = self._same(other)
            return AlgebraElement(self.algebra, self.algebra.multiply_coords(self.coords, y))
        f = self.algebra.field
        c = f.scalar(other).value
        return AlgebraElement(self.algebra, f.a_mul(c, self.coords))

    def __rmul__(self, other):
        f = self.algebra.field
        c = f.scalar(other).value
        return AlgebraElement(self.algebra, f.a_mul(c, self.coords))

    def __add__(self, other):
        y = self._same(other)
        return AlgebraElement(self.algebra, self.algebra.field.a_add(self.coords, y))

    def __sub__(self, other):
        y = self._same(other)
        return AlgebraElement(self.algebra, self.algebra.field.a_sub(self.coords, y))

    def __neg__(self):
        return AlgebraElement(self.algebra, self.algebra.field.a_neg(self.coords))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined here")
        result = self.algebra.one_element()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_zero(self) -> bool:
        return bool(np.all(self.coords == self.algebra.field.zero_enc))

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and bool(np.all(self.coords == other.coords))

    def __repr__(self):
        return self.algebra.element_str(self.coords)

    def span(self) -> Subspace:
        return Subspace.from_rows(self.algebra.field, self.algebra.dim,
                                  self.coords.reshape(1, -1))


def quotient_data(algebra: Algebra, ideal: Subspace):
    """Complement-coordinate data of A / ideal.

    Returns (table, one), both freshly built.  The ideal must be a proper
    two-sided ideal; the quotient is coordinatised by
    ``ideal.quotient_coords`` on the non-pivot columns of the ideal's RREF
    basis, which makes the construction canonical and deterministic.
    """
    algebra._check_subspace(ideal)
    if ideal.dim == algebra.dim:
        raise ImproperIdeal("cannot form the quotient by the whole algebra")
    if not algebra.is_ideal(ideal):
        raise NotAnIdeal("quotient requires a two-sided ideal")
    c, n = algebra.table, algebra.dim
    comp = ideal.complement_columns()
    d = len(comp)
    table = ideal.quotient_coords(c[np.ix_(comp, comp)].reshape(d * d, n))
    return table.reshape(d, d, d), ideal.quotient_coords(algebra.one)[0]


@memoised("quotient")
def quotient_core(algebra: Algebra, ideal: Subspace) -> _Core:
    """The core of the table of A / ideal (``quotient_data``), validated
    and built once per table and ideal; A/0 is A's own core."""
    if ideal.dim == 0:
        return algebra._core
    table, one = quotient_data(algebra, ideal)
    return Algebra(algebra.field, table, one, _fresh=True)._core


def form_gram(field: FieldDescriptor, table: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Gram matrix G[i, j] = mu(e_i e_j) of the linear form mu on a structure table."""
    n = table.shape[0]
    return field.tensordot_lf(table, mu.reshape(n, 1)).reshape(n, n)
