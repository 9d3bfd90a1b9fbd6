"""Exact dense linear algebra over a FieldDescriptor.

A matrix is a plain 2-D numpy array of encoded field values, with no
wrapper class: ``rref_data``, ``rank`` and ``kernel`` take the field and
the array.  Every row operation is exact.  Subspaces are stored
canonically as reduced-row-echelon bases, which turns the set identities
used throughout the package into plain array equalities.

Over GF(2) and GF(3), the paper's fields and 97 % of the RREFs in a
``paper-suite`` run, ``rref_data`` runs Gauss-Jordan on bit-sliced rows
(Boothby and Bradshaw, arXiv:0901.1413, 2009): a row is one Python int
with b = p - 1 bits per entry, so a row operation is a few boolean
operations on the whole row.  Every other field eliminates column by
column through the field's ``elim``: more bits per entry would make the
sums longer, for a few percent of the calls.  Both drop the all-zero rows
first, which leaves the RREF unchanged.  Over QQ the returned entries are
``int`` wherever they are integral.

A bit-sliced elimination is small (a median of 8 rows by 10 columns in
``paper-suite``), so packing rows into ints and unpacking the RREF back
cost about as much as the row operations.  A row of at most 63 // b
columns, 97 % of them, is one int64 word: packed by one product and
unpacked by one shift and mask, where a wider row goes a word at a time.

Every basis handed to ``reduce_rows`` (and so every ``Subspace.basis``)
must be in RREF: its pivot columns form an identity block.  That lets a
whole block of rows be reduced with one product,
``rows - rows[:, pivots] @ basis``, instead of one elimination per pivot.

Kernels and intersections each cost one elimination, and the rows they
read off it are already the RREF basis of the result, so no second
canonicalising RREF runs: ``kernel`` eliminates the columns in reverse
order, which puts the leading 1 of each null-space row at its own free
column; ``subspace_intersect`` is the Zassenhaus algorithm, whose
intersection rows form the lower right block of a single RREF.

The quotient map F^n -> F^n / U has one home, ``Subspace.quotient_coords``:
the residual modulo U on the complement (non-pivot) columns of U's RREF
basis, the coordinates of every quotient built in this package.  The
residual is zero at the pivot columns, so only the complement columns are
computed, ``rows[:, comp] - rows[:, pivots] @ basis[:, comp]``; every
membership test (``contains``, ``contains_vector``, ``Algebra.is_ideal``)
tests that block for zero.  Its section ``lift_coords`` is zero at the
pivot columns.  Only the radical rule's Frobenius map, a square matrix,
takes the full residual (``reduce``).

Three more subspace constructions have one home each, and each reads its
RREF basis straight off its input bases, with no elimination of its own:
``subspace_tensor`` (U (x) V in the row-major coordinates of a tensor
product), ``subspace_direct_sum`` (U + V in the coordinates of F^m + F^n,
as in a trivial extension A + A*) and ``kernel_on`` (the vectors of W
whose images vanish under a linear map given on W's basis).
"""

from __future__ import annotations

import bisect

import numpy as np

from .errors import AmbientMismatch
from .fields import FieldDescriptor, _canon

_canon_entries = np.frompyfunc(_canon, 1, 1)


def rref_data(field: FieldDescriptor, data: np.ndarray):
    """RREF of an encoded 2-D array; returns (array, pivot column list).

    The array has the shape of ``data``: the RREF rows, then zero rows.
    """
    if field.order in (2, 3):
        return _rref_bitsliced(field.order, np.asarray(data))
    zero, one = field.zero_enc, field.one_enc
    out = field.zeros(np.shape(data))
    # all-zero rows take no part: the loop runs on (a copy of) the others
    m = np.asarray(data, dtype=field.dtype)
    m = m[np.any(m != zero, axis=1)]
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = (m[r:, c] != zero).nonzero()[0]
        if not nz.size:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        lead = m[r, c]
        if lead != one:
            m[r] = field.a_mul(field.s_inv(lead), m[r])
        factors = m[:, c].copy()
        factors[r] = zero
        field.elim(m, factors, m[r])
        pivots.append(c)
        r += 1
    # QQ: the elimination can leave integral Fractions; hand back ints
    out[:r] = _canon_entries(m[:r]) if field.dtype is object else m[:r]
    return out, pivots


# bit offsets and place values of the entries of one int64 word, for
# b = 1 and 2 bits an entry
_SHIFTS = {b: b * np.arange(63 // b, dtype=np.int64) for b in (1, 2)}
_WEIGHTS = {b: 1 << shifts for b, shifts in _SHIFTS.items()}


def _pack(data: np.ndarray, b: int) -> list[int]:
    """Each row of an array of b-bit entries as one int: the row read as a
    base-2^b number, entry j in bits b*j to b*j + b - 1.

    Each block of 63 // b columns is packed by one int64 product; the
    blocks of a row are then joined by shifts.
    """
    per = 63 // b
    ints = (data[:, :per] @ _WEIGHTS[b][: data.shape[1]]).tolist()
    for j in range(per, data.shape[1], per):
        words = (data[:, j: j + per] @ _WEIGHTS[b][: data.shape[1] - j]).tolist()
        ints = [x | w << b * j for x, w in zip(ints, words)]
    return ints


def _unpack(ints: list[int], out: np.ndarray, b: int) -> None:
    """The inverse of ``_pack``: writes row i of ``out`` from ``ints[i]``."""
    per, cols = 63 // b, out.shape[1]
    for j in range(0, cols, per):
        # each int is below 2^(b*cols), so a row of one word needs no mask
        words = np.array(ints if cols <= per else
                         [x >> b * j & (1 << b * per) - 1 for x in ints], dtype=np.int64)
        np.bitwise_and(words[:, None] >> _SHIFTS[b][: cols - j], (1 << b) - 1,
                       out=out[:, j: j + per])


def _rref_bitsliced(p: int, data: np.ndarray):
    """``rref_data`` over GF(2) or GF(3), on bit-sliced rows (see the module
    docstring).  ``data`` is read, never written; its all-zero rows are
    dropped as packed words, before the elimination."""
    rows, cols = data.shape
    out = np.zeros((rows, cols), dtype=np.int64)
    b = p - 1                                   # bits per entry
    # a repeated row adds nothing to the span, nor does a zero row
    packed = dict.fromkeys(_pack(data, b))
    packed.pop(0, None)
    basis = (_gf2_basis if p == 2 else _gf3_basis)(packed, cols)
    keys = sorted(basis)
    _unpack([basis[k] for k in keys], out[: len(keys)], b)
    return out, [(k.bit_length() - 1) // b for k in keys]


def _gf2_basis(rows: dict[int, None], cols: int) -> dict[int, int]:
    """The RREF of packed GF(2) rows, as {pivot bit: row}.

    The rows are inserted one at a time into a basis kept in RREF: a new
    row is reduced at the pivots it meets, and its own pivot is then
    cleared from the other basis rows.  Reading stops once the rank equals
    the width.
    """
    basis: dict[int, int] = {}
    seen = 0                                    # the union of the pivot bits
    for a in rows:
        hit = a & seen
        while hit:
            low = hit & -hit
            hit ^= low
            a ^= basis[low]
        if not a:
            continue
        low = a & -a
        for key, v in basis.items():
            if v & low:
                basis[key] = v ^ a
        basis[low] = a
        seen |= low
        if len(basis) == cols:
            break
    return basis


def _gf3_basis(rows: dict[int, None], cols: int) -> dict[int, int]:
    """``_gf2_basis`` over GF(3), on rows packed two bits an entry.

    The even bits of a packed row are its plane of 1s and the odd bits its
    plane of 2s.  Negation swaps the planes, and a + c is seven word-wide
    operations: t = (a1 | c2) ^ (a2 | c1), then (a2 | c2) ^ t and
    (a1 | c1) ^ t.
    """
    even = (4**cols - 1) // 3                   # bit 2j of every column j
    basis: dict[int, tuple[int, int]] = {}
    seen = 0
    for a in rows:
        a1, a2 = a & even, a >> 1 & even
        hit = (a1 | a2) & seen
        while hit:
            low = hit & -hit
            hit ^= low
            b1, b2 = basis[low]
            if a1 & low:                        # a - b = a + (b2, b1)
                t = (a1 | b1) ^ (a2 | b2)
                a1, a2 = (a2 | b1) ^ t, (a1 | b2) ^ t
            else:                               # a - 2b = a + b
                t = (a1 | b2) ^ (a2 | b1)
                a1, a2 = (a2 | b2) ^ t, (a1 | b1) ^ t
        support = a1 | a2
        if not support:
            continue
        low = support & -support
        if a2 & low:                            # lead with 1: a <- 2a = -a
            a1, a2 = a2, a1
        for key, (b1, b2) in basis.items():
            if b1 & low:
                t = (b1 | a1) ^ (b2 | a2)
                basis[key] = ((b2 | a1) ^ t, (b1 | a2) ^ t)
            elif b2 & low:
                t = (b1 | a2) ^ (b2 | a1)
                basis[key] = ((b2 | a2) ^ t, (b1 | a1) ^ t)
        basis[low] = (a1, a2)
        seen |= low
        if len(basis) == cols:
            break
    return {key: b1 | b2 << 1 for key, (b1, b2) in basis.items()}


def reduce_rows(field: FieldDescriptor, rows: np.ndarray, basis: np.ndarray,
                pivots) -> np.ndarray:
    """Residual of ``rows`` after elimination against an RREF ``basis``.

    ``basis`` must be in RREF with pivot columns ``pivots``, so that
    ``basis[:, pivots]`` is the identity.  Eliminating with one basis row
    then never changes another row's pivot column, so the factors of the
    sequential elimination are the input's pivot columns, and the residual
    is the single product ``rows - rows[:, pivots] @ basis``.
    """
    res = np.array(rows, dtype=field.dtype)
    if res.shape[0] == 0 or basis.shape[0] == 0:
        return res
    return field.a_sub(res, field.matmul2(res[:, pivots], basis))


def _coord_rows(field: FieldDescriptor, rows, width: int) -> np.ndarray:
    """``rows`` (one vector or a 2-D block) as encoded rows of ``width``
    coordinates, read by the field's encoding rule; raises AmbientMismatch
    on any other width.  An object array over QQ is taken as already
    encoded, since reading it again costs one Python call per entry."""
    if not (field.dtype is object and isinstance(rows, np.ndarray)
            and rows.dtype == object):
        rows = field.arr(rows)
    if rows.size == 0:
        return field.zeros((0, width))
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.ndim != 2 or rows.shape[1] != width:
        raise AmbientMismatch(
            f"coordinate rows of shape {rows.shape} do not have {width} columns"
        )
    return rows


def rank(field: FieldDescriptor, data: np.ndarray) -> int:
    """Rank of an encoded 2-D array."""
    return len(rref_data(field, data)[1])


class Subspace:
    """A linear subspace, stored as its unique RREF basis (no zero rows).

    ``basis`` must already be in RREF: ``pivot_columns``, ``reduce`` and the
    equality test rely on it.  ``from_rows`` canonicalises arbitrary rows.
    The basis is read-only, and its pivot columns are the ones passed by
    the elimination that found them, or found once when first asked for.
    """

    __slots__ = ("field", "ambient_dim", "basis", "_pivots", "_comp")

    def __init__(self, field: FieldDescriptor, ambient_dim: int, basis: np.ndarray,
                 pivots: list[int] | None = None):
        self.field = field
        self.ambient_dim = int(ambient_dim)
        self.basis = np.asarray(basis, dtype=field.dtype)
        self.basis.flags.writeable = False
        self._pivots = pivots
        self._comp = None

    @classmethod
    def from_rows(cls, field: FieldDescriptor, ambient_dim: int, rows) -> "Subspace":
        """Canonicalise spanning rows, read by ``_coord_rows``, into a Subspace."""
        red, pivots = rref_data(field, _coord_rows(field, rows, ambient_dim))
        # a view would pin red
        return cls(field, ambient_dim, red[: len(pivots)].copy(), pivots)

    @classmethod
    def zero(cls, field: FieldDescriptor, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, field.zeros((0, ambient_dim)))

    @classmethod
    def full(cls, field: FieldDescriptor, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, field.eye(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def pivot_columns(self) -> list[int]:
        """The leading column of each basis row."""
        if self._pivots is None:
            self._pivots = ((self.basis != self.field.zero_enc).argmax(axis=1).tolist()
                            if self.dim else [])
        return self._pivots

    def complement_columns(self) -> list[int]:
        if self._comp is None:
            self._comp = _complement(self.pivot_columns(), self.ambient_dim)
        return self._comp

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis.shape == other.basis.shape
            and bool(np.all(self.basis == other.basis))
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim})"

    def is_zero(self) -> bool:
        return self.dim == 0

    def _check_ambient(self, other: "Subspace"):
        self.field.check_same(other.field)
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def reduce(self, rows: np.ndarray) -> np.ndarray:
        """Residual of coordinate rows modulo this subspace."""
        return reduce_rows(self.field, rows, self.basis, self.pivot_columns())

    def contains_vector(self, vec) -> bool:
        return bool(np.all(self.quotient_coords(vec) == self.field.zero_enc))

    def quotient_coords(self, rows) -> np.ndarray:
        """The quotient map nu: F^n -> F^n / self on coordinate rows.

        The residual of the rows modulo this subspace, on the complement
        columns, on which every quotient built here is coordinatised.  The
        residual is zero at the pivot columns, since ``basis[:, pivots]``
        is the identity, so only ``rows[:, comp] - rows[:, pivots] @
        basis[:, comp]`` is computed.
        """
        rows = _coord_rows(self.field, rows, self.ambient_dim)
        pivots, comp = self.pivot_columns(), self.complement_columns()
        out = rows.take(comp, axis=1)
        if not pivots or not rows.shape[0]:
            return out
        f = self.field
        return f.a_sub(out, f.matmul2(rows.take(pivots, axis=1), self.basis.take(comp, axis=1)))

    def lift_coords(self, rows) -> np.ndarray:
        """The section of ``quotient_coords``: zero at the pivot columns."""
        comp = self.complement_columns()
        rows = _coord_rows(self.field, rows, len(comp))
        out = self.field.zeros((rows.shape[0], self.ambient_dim))
        out[:, comp] = rows
        return out


def _complement(pivots: list[int], n: int) -> list[int]:
    """The columns 0, ..., n - 1 that are not pivots."""
    piv = set(pivots)
    return [c for c in range(n) if c not in piv]


def kernel(field: FieldDescriptor, data: np.ndarray) -> Subspace:
    """Right null space {x : data x = 0} of an encoded 2-D array.

    One elimination, on the columns in reverse order.  In reversed
    coordinates the row of a free column f' is 1 at f' and minus column f'
    of the RREF at the pivots, all of which come before f'.  Reversing both
    axes back, the row of free column f has its leading 1 at f, its other
    nonzeros only at later pivot columns, and a zero at every other free
    column; with the rows in increasing order of f that is already the RREF
    basis of the kernel.
    """
    red, pivots = rref_data(field, np.asarray(data)[:, ::-1])
    n = red.shape[1]
    free = _complement(pivots, n)
    if not free:
        return Subspace.zero(field, n)
    # one row per free column: 1 there, minus that column of red at the pivots
    rows = field.zeros((len(free), n))
    rows[np.arange(len(free)), free] = field.one_enc
    rows[:, pivots] = field.a_neg(red[: len(pivots)].take(free, axis=1).T)
    return Subspace(field, n, rows[::-1, ::-1].copy(), [n - 1 - f for f in reversed(free)])


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    u._check_ambient(v)
    stacked = np.concatenate([u.basis, v.basis], axis=0)
    return Subspace.from_rows(u.field, u.ambient_dim, stacked)


def subspace_tensor(u: Subspace, v: Subspace) -> Subspace:
    """span{u_s (x) v_t} in F^(m n), coordinate (i, j) at i * n + j: the
    row-major order of the basis e_i (x) f_j of ``constructions.tensor``.

    The Kronecker rows of two RREF bases, in row-major order of (s, t), are
    already RREF: row (s, t) leads at (p_s, q_t), the pivots of u_s and v_t,
    and every other row is zero there.
    """
    u.field.check_same(v.field)
    n = u.ambient_dim * v.ambient_dim
    rows = u.field.a_mul(u.basis[:, None, :, None], v.basis[None, :, None, :])
    return Subspace(u.field, n, rows.reshape(-1, n))


def subspace_direct_sum(u: Subspace, v: Subspace) -> Subspace:
    """U + V in F^m + F^n: u in the first m coordinates, v in the last n.

    The block rows [[U, 0], [0, V]] of two RREF bases are already RREF.
    """
    u.field.check_same(v.field)
    m = u.ambient_dim
    rows = u.field.zeros((u.dim + v.dim, m + v.ambient_dim))
    rows[: u.dim, :m] = u.basis
    rows[u.dim:, m:] = v.basis
    return Subspace(u.field, m + v.ambient_dim, rows)


def kernel_on(w: Subspace, images) -> Subspace:
    """{sum_s a_s w_s : sum_s a_s images[s] = 0}, for the linear map that
    sends basis vector w_s to ``images[s]`` (an array whose first axis runs
    over W's basis; the further axes are flattened).

    With alpha the RREF kernel basis of the coefficient system, the rows
    alpha W are already RREF: row r is alpha_r at W's pivot columns, so it
    leads at the pivot of w_{s_r}, where s_r is the pivot of alpha_r, and
    is zero at every other such pivot.
    """
    f = w.field
    images = np.asarray(images)
    system = images.reshape(w.dim, -1) if images.size else f.zeros((w.dim, 0))
    alpha = kernel(f, system.T)
    return Subspace(f, w.ambient_dim, f.matmul2(alpha.basis, w.basis))


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """Intersection by the Zassenhaus algorithm: one RREF of [[U, U], [V, 0]].

    The rows of that block span {(x + y, x) : x in U, y in V}, whose
    vectors with left half zero are exactly (0, x) for x in U ∩ V.  In the
    RREF they are spanned by the rows whose pivot lies in the right half.
    Those rows are zero on the left, and every pivot column is zero outside
    its own row, so their right halves are already the RREF basis of U ∩ V.
    """
    u._check_ambient(v)
    field, n = u.field, u.ambient_dim
    if u.is_zero() or v.is_zero():
        return Subspace.zero(field, n)
    block = field.zeros((u.dim + v.dim, 2 * n))
    block[: u.dim, :n] = u.basis
    block[: u.dim, n:] = u.basis
    block[u.dim:, :n] = v.basis
    red, pivots = rref_data(field, block)
    first = bisect.bisect_left(pivots, n)
    return Subspace(field, n, red[first: len(pivots), n:].copy(), [p - n for p in pivots[first:]])


def contains(u: Subspace, v: Subspace) -> bool:
    """Whether v is a subspace of u."""
    u._check_ambient(v)
    if v.is_zero():
        return True
    return bool(np.all(u.quotient_coords(v.basis) == u.field.zero_enc))


def express_in_rows(field: FieldDescriptor, basis_rows: np.ndarray,
                    targets: np.ndarray) -> np.ndarray:
    """Coefficients X with X @ basis_rows == targets.

    The basis rows must be linearly independent; raises ValueError when a
    target is outside their span.
    """
    r = basis_rows.shape[0]
    t = targets.shape[0]
    if r == 0:
        if np.any(targets != field.zero_enc):
            raise ValueError("nonzero target outside the span of an empty basis")
        return field.zeros((t, 0))
    aug = np.concatenate([basis_rows.T, targets.T], axis=1)
    red, pivots = rref_data(field, aug)
    if any(p >= r for p in pivots):
        raise ValueError("target outside the span of the basis rows")
    if len(pivots) < r:
        raise ValueError("basis rows are linearly dependent")
    return red[:r, r:].T.copy()


def random_subspace(field: FieldDescriptor, ambient_dim: int,
                    rng, max_dim: int | None = None) -> Subspace:
    """A deterministic pseudorandom subspace (row span of a random matrix),
    drawn by ``rng.integers(low, high, size, dtype)``."""
    if max_dim is None:
        max_dim = ambient_dim
    k = int(rng.integers(0, max_dim + 1))
    rows = field.random_enc(rng, (k, ambient_dim))
    return Subspace.from_rows(field, ambient_dim, rows)
