"""Structure-constant algebras and their first-order invariants.

An Algebra is a finite-dimensional unital associative algebra given by its
structure constants: c_ijk is the coefficient of e_k in e_i * e_j.  A table
is mostly zero, so it is held as its nonzero constants alone (the entries:
index arrays i, j, k in C order and the encoded values).  Every table
reaches its core by one path, ``core_of_terms``, from flat indexes
(i n + j) n + k and the terms summed at each: ``Algebra(field, table,
one)`` hands it the nonzero cells of a dense n x n x n table, read once,
and the constructions and quotients the terms they compute.  Associativity
and the unit law are always verified there.  Associativity is checked by
joining the entries with each other: the terms c_ijk c_klm of (e_i e_j)
e_l and c_jlr c_irm of e_i (e_j e_l) are summed per key (i, j, m, l),
where m is the output coordinate.  The work is on the order of dim times
the nonzero count, against dim^5 for the dense identity L(e_i e_j) =
L(e_i) L(e_j).  That identity is indexed in the same order, so the first
failing key names the triple a dense check would.  Everything downstream
(centers, commutator spaces, ideal tests, annihilators, Loewy series) is
exact linear algebra over the algebra's field, on systems built from the
entries.

Every product with the table is one contraction of the entries with
rows, which keeps some of the indices (i, j, k) and sums over the others
(Gustavson's column compression, ACM TOMS 4(3), 1978): (j, k) for
``left_products``, where column (j, k) of rows[s] e_j sums rows[s, i]
c_ijk; (i, k) for ``right_products``; (i, j) for ``form_values`` and
``form_gram``, where mu_s(e_i e_j) sums c_ijk mu_s[k]; and (k) for
``row_products``, ``multiply_coords`` and the radical rule's powers, where
coordinate k of x[s] y[s] sums x[s, i] y[s, j] c_ijk.  The ideal tests,
``basis_products``, ``ideal_closure``, the annihilators and the unit law
read these.  For each kept index set the core keeps one grouping of the
entries, sorted by output column, with the distinct columns and the start
of each column's run of entries; the terms, laid out (entries, rows), are
summed per run by the field's ``a_sum_runs``, the one sum by key in the
program (``sum_by_key`` finds the runs of a key array for the one-shot
sums: the associativity join, the tables ``core_of_terms`` builds and
the trace functionals).  Most columns hold one entry, and a contraction
whose columns all do keeps no run starts and needs no sum.

An Algebra is a thin *view* over a *core* (hash-consing):

* per table, on the core: the field, the read-only entries and unit, the
  validation, and every fact that depends on them alone -- the center,
  the commutator space, each contraction's grouping, the ideal test of
  each subspace, the certified J(A) and the facts derived from it, one
  fact per form mu (I_mu, with the Gram matrix when I_mu = 0), one per
  symmetrizing form and central z (I_mu and mu for mu = lambda(. z)), and the
  tables that the quotient, tensor and trivial-extension constructions
  built from this one (A/I once per ideal I, whichever route asks for
  it).  ``memoised(key)`` keeps a result there, once per further
  argument where it has one;
* per view, on the Algebra: the name, labels and symmetrizing form.  A
  view holds no radical of its own: ``_cache["radical_cert"]`` notes the
  core's certificate once the view has asked for it.

``replace`` and the constructions' memos hand out new views of an existing
core.  Tables are interned only inside an ``interning()`` block, which the
paper suite runs in: there a table equal to one built earlier in the block
(same field, exactly equal entries, found by a hash of them) gets that
core, validated and analysed once.  The block holds its cores until it
ends, so what is shared depends only on what the block builds, never on
which algebras happen to be alive.  Outside a block every new table gets
a core of its own.  A core keeps only cores made after it, and no view,
so no core or view is ever in a reference cycle: each is freed as soon as
the last reference to it goes.  A memo whose result is an older core
(A/I_mu with I_mu = 0 has A's own table) is kept as a weak reference: it
is recomputed once that core is gone, which inside a block it never is.
Both are immutable: the entries, unit and form are read-only arrays (a
unit or form the caller could still write is copied, never aliased).  A
different name or form means a new view of the same core, made by
``replace``.
"""

from __future__ import annotations

import functools
import itertools
import weakref
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


_MISS = object()


def memoised(key: str):
    """Decorator for a function of one algebra (or a method), optionally
    with further arguments, whose result depends only on the table and
    those arguments: compute it once and keep it on the table's core, for
    every view of the table.  The entry is ``key`` or ``(key, *args)``,
    where an array or subspace argument stands as its exact coordinates
    (``coords_key``).  A call that raises stores nothing.  A result that is
    a core made no later than the algebra's own (its own core, or one an
    interning block found) is kept as a weak reference: a core holds only
    younger cores, so cores never form a reference cycle.  A dead reference
    reads as a miss."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(algebra, *args):
            core = algebra._core
            slot = (key, *(_arg_key(core.field, x) for x in args)) if args else key
            result = core.facts.get(slot, _MISS)
            if isinstance(result, weakref.ref):
                result = result() or _MISS
            if result is _MISS:
                result = fn(algebra, *args)
                older = isinstance(result, _Core) and result.serial <= core.serial
                core.facts[slot] = weakref.ref(result) if older else result
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
_ROW_TERMS = 200_000        # terms per row block of a contraction


def _runs(starts: np.ndarray, counts: np.ndarray):
    """The index runs starts[t], ..., starts[t] + counts[t] - 1, flattened.

    Returns (t, index) for every index of every run, runs in order of t.
    """
    t = np.repeat(np.arange(len(counts)), counts)
    return t, starts[t] + np.arange(len(t)) - (np.cumsum(counts) - counts)[t]


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values begins in a sorted key array."""
    if not keys.size:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))


def _first_nonassociative_triple(core: "_Core"):
    """The first basis triple (i, j, l) with (e_i e_j) e_l != e_i (e_j e_l), or None.

    Works on the entries (i, j, k) of the table, in C order, so the
    entries of each basis pair (i, j), and of each row i, are contiguous.
    Coefficient m of (e_i e_j) e_l sums the terms c_ijk c_klm (pair (i, j)
    joined with row k); coefficient m of e_i (e_j e_l) sums c_jlr c_irm
    (row j joined with pair (i, r)).  Both kinds of term are keyed (i, j,
    m, l) and summed per key, the second negated; associativity holds where
    every sum is zero.  The key order is the index order of the operator
    identity L(e_i e_j) = L(e_i) L(e_j), so the smallest key whose sum is
    nonzero names the first failing (i, j, l) in that order, the triple a
    dense check of the identity reports.  Pairs (i, j) are joined in that
    order, in blocks of at most ``_JOIN_BLOCK`` terms (or of one pair), so
    memory stays bounded on dense tables too.
    """
    f, n = core.field, core.dim
    ei, ej, ek, val = core.entries
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
        keys, sums = sum_by_key(f, keys[order], np.concatenate(terms)[order])
        bad = np.flatnonzero(sums != f.zero_enc)
        if bad.size:
            i, j, _, l = (int(v) for v in np.unravel_index(keys[bad[0]], (n,) * 4))
            return i, j, l
    return None


def _read_only(field: FieldDescriptor, values) -> np.ndarray:
    """The encodings of ``values`` (``field.arr``) in an array nobody can
    write: an array the caller could still write is copied, and a read-only
    one is shared."""
    arr = field.arr(values)
    if arr is values and arr.flags.writeable:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def sum_by_key(field: FieldDescriptor, keys: np.ndarray, terms: np.ndarray):
    """The distinct keys of a sorted key array and the sum of the terms
    (along axis 0) of each; where every key is distinct, the inputs."""
    starts = _run_starts(keys)
    if len(starts) == len(keys):
        return keys, terms
    return keys[starts], field.a_sum_runs(terms, starts)


def _difference_rows(f: FieldDescriptor, n: int, val: np.ndarray, plus, minus) -> np.ndarray:
    """The nonzero rows, in order, of the n-column system that holds
    +val[e] at plus[e] = (row, column) and -val[e] at minus[e].

    The center and commutator systems are two placements of the constants,
    subtracted, so only the rows a constant reaches are built; dropping the
    rest leaves the RREF, and so the kernel or span, unchanged.
    """
    reached = np.zeros(n * n, dtype=bool)
    reached[plus[0]] = reached[minus[0]] = True
    index = np.cumsum(reached) - 1
    a, b = f.zeros((index[-1] + 1, n)), f.zeros((index[-1] + 1, n))
    a[index[plus[0]], plus[1]] = val
    b[index[minus[0]], minus[1]] = val
    system = f.a_sub(a, b)
    return system[np.any(system != f.zero_enc, axis=1)]


def _grouping(core: "_Core", keep: tuple) -> tuple:
    """The entries grouped by output column for the contractions that keep
    the indices ``keep`` of (i, j, k) and sum over the others, kept on the
    core.  The output column of an entry is its kept indices, flattened.
    Returns (the summed indices of each entry in column order, their values
    as a column, the distinct output columns in order, the start of each
    column's run of entries, or None when every column holds one entry)."""
    key = ("grouping", keep)
    if key not in core.facts:
        n, entries, col = core.dim, core.entries, 0
        for axis in keep:
            col = col * n + entries[axis]
        order = np.argsort(col, kind="stable")
        col = col[order]
        starts = _run_starts(col)
        summed = tuple(entries[axis][order] for axis in range(3) if axis not in keep)
        core.facts[key] = (summed, core.val[order, None], col[starts],
                           None if len(starts) == len(col) else starts)
    return core.facts[key]


def _contract(core: "_Core", keep: tuple, *factors: np.ndarray) -> np.ndarray:
    """Array out of shape (rows, n ** len(keep)): out[s, c] sums, over the
    entries of output column c (``_grouping``), the constant times
    factors[t][s, x_t], where x_t is the t-th index of (i, j, k) that is
    summed over.  The terms are laid out (entries, rows) and built for a
    block of rows at a time, of at most ``_ROW_TERMS`` terms, so no
    n x n x n array is built."""
    f = core.field
    summed, val, cols, starts = _grouping(core, keep)
    out = f.zeros((len(factors[0]), core.dim ** len(keep)))
    step = _ROW_TERMS // max(1, len(val)) or 1
    for s in range(0, len(out), step):
        terms = val
        for x, factor in zip(summed, factors):
            terms = f.a_mul(factor[s: s + step].T[x], terms)
        sums = terms if starts is None else f.a_sum_runs(terms, starts)
        out[s: s + step, cols] = sums.T
    return out


def row_products(algebra: "Algebra", x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row s is x[s] * y[s]: each constant c_ijk adds x[s, i] y[s, j] c_ijk to
    coordinate k."""
    return _contract(algebra._core, (2,), x, y)


def _validate(core: "_Core"):
    """Raise AlgebraValidationError unless the core's unit is a two-sided
    unit of its table and the table is associative."""
    n, ident = core.dim, core.field.eye(core.dim)
    for keep, law in (((1, 2), "one * e_{i} != e_{i}"), ((0, 2), "e_{i} * one != e_{i}")):
        unit = _contract(core, keep, core.one[None, :]).reshape(n, n)
        if not np.all(unit == ident):
            i = int(np.nonzero(np.any(unit != ident, axis=1))[0][0])
            raise AlgebraValidationError("unit law fails: " + law.format(i=i))
    triple = _first_nonassociative_triple(core)
    if triple is not None:
        i, j, l = triple
        raise AlgebraValidationError(
            f"associativity fails at basis triple ({i},{j},{l}): "
            f"(e_{i} e_{j}) e_{l} != e_{i} (e_{j} e_{l})",
            triple=triple,
        )


class _Core:
    """One structure table: the field, the read-only entries and unit, and
    ``facts``, every result that depends on them alone.  It holds no view.
    ``serial`` orders cores by creation (see ``memoised``)."""

    __slots__ = ("field", "dim", "ei", "ej", "ek", "val", "one", "serial", "facts",
                 "__weakref__")

    def __init__(self, field: FieldDescriptor, dim: int, entries: tuple, one: np.ndarray):
        self.field = field
        self.dim = dim
        self.ei, self.ej, self.ek, self.val = entries
        self.one = one
        self.serial = next(_SERIALS)
        self.facts: dict = {}

    @property
    def entries(self) -> tuple:
        return self.ei, self.ej, self.ek, self.val

    def holds(self, entries: tuple, one: np.ndarray) -> bool:
        """Exactly these entries and unit (the field is the caller's to check)."""
        return (all(a is b or np.array_equal(a, b) for a, b in zip(self.entries, entries))
                and (self.one is one or np.array_equal(self.one, one)))


_SERIALS = itertools.count()

# the open interning block: (field key, dim, hash of entries and unit) ->
# the cores with that key, in order of creation; None outside a block
_INTERNED: dict | None = None


@contextmanager
def interning():
    """A block in which equal tables share one core.

    An Algebra built inside on the table and unit of a core the block made
    earlier, over the same field, gets that core: its table is validated,
    and each fact computed, once in the block.  The block holds every core
    it made until it ends, so sharing does not depend on which algebras are
    still alive, and a memo's weak reference to an older core (see
    ``memoised``) stays live.  A block opened inside another joins it.
    """
    global _INTERNED
    if _INTERNED is not None:
        yield
        return
    _INTERNED = {}
    try:
        yield
    finally:
        _INTERNED = None


def _digest(field: FieldDescriptor, entries: tuple, one: np.ndarray) -> int:
    """A hash of the entries and unit.  Over QQ it reads the values, since
    the bytes of an object array are pointers; equal values hash equally,
    whatever their Python type."""
    if field.dtype is not object:
        return hash(tuple(arr.tobytes() for arr in (*entries, one)))
    nz = np.flatnonzero(one)
    return hash((*(arr.tobytes() for arr in entries[:3]), tuple(entries[3]),
                 nz.tobytes(), tuple(one[nz])))


def core_of_terms(field: FieldDescriptor, n: int, flat: np.ndarray, terms: np.ndarray,
                  one: np.ndarray) -> _Core:
    """The core of the n-dimensional table whose constant at each flat index
    (i n + j) n + k is the sum of the terms there, with unit ``one``: the one
    way from constants to a core, for dense input, files, constructions and
    quotients alike.  Indexes may repeat and come in any order; they are
    sorted, the terms at each are summed, a zero sum is no entry, and the
    entries (i, j, k, value) are frozen.  The unit is ``_read_only``.
    Inside an interning block the result is the block's core holding
    exactly these entries and unit, if it has one; otherwise it is a new
    core, validated (and, inside a block, interned).  Unequal tables whose
    hashes collide never share a core: the entries are compared first."""
    order = np.argsort(flat)
    flat, val = sum_by_key(field, flat[order], terms[order])
    keep = val != field.zero_enc
    ij, k = np.divmod(flat[keep].astype(np.int64, copy=False), n)
    entries = (*np.divmod(ij, n), k, val[keep])
    for arr in entries:
        arr.flags.writeable = False
    one = _read_only(field, one)
    # outside a block, a list of its own that nothing keeps
    cores = [] if _INTERNED is None else _INTERNED.setdefault(
        (field._key(), n, _digest(field, entries, one)), [])
    for core in cores:
        if core.holds(entries, one):
            return core
    core = _Core(field, n, entries, one)
    _validate(core)
    cores.append(core)
    return core


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
    view (name, labels, form) over the core of its table.  Given
    ``_core``, the table and unit arguments are unused."""

    def __init__(self, field: FieldDescriptor, table, one, labels=None,
                 sym_form=None, name: str | None = None,
                 _core: _Core | None = None):
        if _core is None:
            table = field.arr(table)
            if table.ndim != 3 or table.shape[0] != table.shape[1] or table.shape[0] != table.shape[2]:
                raise AlgebraValidationError("structure table must have shape (n, n, n)")
            n = table.shape[0]
            if n == 0:
                raise AlgebraValidationError("algebras here are unital, so dim >= 1")
            one = field.arr(one)
            if one.size != n:
                raise AlgebraValidationError(f"unit has {one.size} coordinates, expected {n}")
            flat = np.flatnonzero(table != field.zero_enc)
            _core = core_of_terms(field, n, flat, table.reshape(-1)[flat], one.reshape(n))
        n = _core.dim
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
        self.one = _core.one
        self.labels = labels
        self.sym_form = sym_form
        self.name = name
        # the core's radical certificate, under "radical_cert", once asked for
        self._cache: dict = {}

    @property
    def entries(self) -> tuple:
        """The nonzero structure constants c_ijk: read-only index arrays i,
        j, k in C order and the encoded values."""
        return self._core.entries

    def replace(self, *, name=None, sym_form=None) -> "Algebra":
        """A new view of the same core with the given fields changed.

        Arguments left as None keep this view's value, and the labels are
        kept.  Nothing is validated or encoded again, and every per-table
        fact, the certified radical too, is shared.
        """
        return Algebra(
            self.field, None, None, labels=self.labels,
            sym_form=self.sym_form if sym_form is None else sym_form,
            name=self.name if name is None else name,
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
        return _contract(self._core, (1, 2), rows).reshape(-1, self.dim, self.dim)

    def right_products(self, rows: np.ndarray) -> np.ndarray:
        """Array P of shape (len(rows), dim, dim) with P[s, j] = e_j * rows[s]."""
        return _contract(self._core, (0, 2), rows).reshape(-1, self.dim, self.dim)

    def multiply_coords(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return row_products(self, x[None, :], y[None, :])[0]

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
        """The entries equal their transpose (i and j swapped)."""
        n, (ei, ej, ek, val) = self.dim, self.entries
        swapped = (ej * n + ei) * n + ek
        order = np.argsort(swapped)
        return bool(np.array_equal(swapped[order], (ei * n + ej) * n + ek)
                    and np.array_equal(val[order], val))

    @memoised("center")
    def center(self) -> Subspace:
        """Elements x commuting with every basis vector: row (b, k) of the
        system is coordinate k of e_b x - x e_b, which x_a enters with
        c_bak - c_abk."""
        n, (ei, ej, ek, val) = self.dim, self.entries
        system = _difference_rows(self.field, n, val, (ei * n + ek, ej), (ej * n + ek, ei))
        return kernel(self.field, system)

    @memoised("commutator")
    def commutator_space(self) -> Subspace:
        """Span of all commutators [e_i, e_j], whose coordinate k is c_ijk - c_jik."""
        n, (ei, ej, ek, val) = self.dim, self.entries
        system = _difference_rows(self.field, n, val, (ei * n + ej, ek), (ej * n + ei, ek))
        return Subspace.from_rows(self.field, n, system)

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
            and self._core.holds(other.entries, other.one)
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
    """Complement-coordinate data of A / ideal: (flat, terms, one), as every
    construction hands a table to ``core_of_terms``; the quotient's
    dimension is len(one).  The ideal must be a proper two-sided ideal; the
    quotient is coordinatised by ``ideal.quotient_coords`` on the non-pivot
    columns of the ideal's RREF basis, which makes the construction
    canonical and deterministic.  Each
    constant c_ijk with i and j complement columns adds c_ijk nu(e_k) to
    e_i e_j, for the nonzero coordinates of nu(e_k).
    """
    algebra._check_subspace(ideal)
    if ideal.dim == algebra.dim:
        raise ImproperIdeal("cannot form the quotient by the whole algebra")
    if not algebra.is_ideal(ideal):
        raise NotAnIdeal("quotient requires a two-sided ideal")
    f, n, (ei, ej, ek, val) = algebra.field, algebra.dim, algebra.entries
    comp = ideal.complement_columns()
    d = len(comp)
    pos = np.full(n, -1)
    pos[comp] = np.arange(d)
    nu = ideal.quotient_coords(f.eye(n))            # row k: nu(e_k)
    nk, nt = np.nonzero(nu != f.zero_enc)
    row_cnt = np.bincount(nk, minlength=n)
    e = np.flatnonzero((pos[ei] >= 0) & (pos[ej] >= 0))
    t, b = _runs((np.cumsum(row_cnt) - row_cnt)[ek[e]], row_cnt[ek[e]])
    e = e[t]
    flat = (pos[ei[e]] * d + pos[ej[e]]) * d + nt[b]
    return flat, f.a_mul(val[e], nu[nk[b], nt[b]]), ideal.quotient_coords(algebra.one)[0]


@memoised("quotient")
def quotient_core(algebra: Algebra, ideal: Subspace) -> _Core:
    """The core of the table of A / ideal (``quotient_data``), validated
    and built once per table and ideal; A/0 is A's own core."""
    if ideal.dim == 0:
        return algebra._core
    flat, terms, one = quotient_data(algebra, ideal)
    return core_of_terms(algebra.field, len(one), flat, terms, one)


def form_values(algebra: Algebra, forms: np.ndarray) -> np.ndarray:
    """V[i, j, s] = forms[s](e_i e_j) for linear forms given as rows: one
    term c_ijk forms[s, k] per constant, summed per pair (i, j)."""
    n = algebra.dim
    return _contract(algebra._core, (0, 1), forms).T.reshape(n, n, len(forms))


def form_gram(algebra: Algebra, mu: np.ndarray) -> np.ndarray:
    """Gram matrix G[i, j] = mu(e_i e_j) of a linear form mu on the algebra's table."""
    return form_values(algebra, mu.reshape(1, algebra.dim))[:, :, 0]
