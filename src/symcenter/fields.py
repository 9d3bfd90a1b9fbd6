"""Exact scalar arithmetic: prime fields GF(p), extension fields GF(p^k)
and arbitrary-precision rationals.

Finite-field values are stored *encoded* as Python ints in [0, q): a prime
field element is its representative, an extension element is the base-p
digit encoding of its coefficient vector (low degree first).  A rational
is a Python ``int`` when it is integral and a ``fractions.Fraction``
otherwise, so the zeros and units that fill most tables cost integer
arithmetic only.

One rule turns values into encodings, in ``arr`` (arrays) and ``scalar``
(one value) alike: a ``FieldScalar`` or a numpy integer (array or scalar)
is already an encoding, range-checked against [0, q) over a finite field; a
Python ``int`` or ``Fraction`` is a number, so over GF(25) the int 7 means
7 * 1 = 2 while ``np.int64(7)`` is the encoding of t + 2; a float or a
bool is refused, and so are nested rows of different lengths.  Over QQ a
value is its own number: every way in (``arr``, ``scalar``, ``parse_enc``,
``s_inv``, ``matmul2``, ``random_enc``, ``zeros``, ``eye``, and the RREF of
``linalg.rref_data``) hands back an ``int`` for an integral value, so
``Fraction(4, 2)`` is read as ``2``.  The elementwise kernels (``a_add``,
``a_sub``, ``a_neg``, ``a_mul``, ``a_sum_runs``) may leave an integral
``Fraction``; nothing depends on the type, because an integral
``Fraction`` equals, hashes and prints as its ``int``.  The same rule
holds for the operators of ``FieldScalar`` and ``AlgebraElement``: a numpy
integer on either side is an encoding.

Every descriptor is an array kernel: it knows how to add, multiply and
exactly matrix-multiply numpy arrays of encoded values, which is what the
linear-algebra layer builds on.  It is the only arithmetic: a single value
is a 0-d operand of the same ``a_add`` / ``a_sub`` / ``a_neg`` / ``a_mul``,
and ``s_div`` and ``s_pow`` are written once on ``a_mul``.  The one scalar
method per field is ``s_inv``, which has no array counterpart.

Exactness of the fast paths:

* prime fields use int64 / float64 arithmetic only while every intermediate
  integer is provably below 2**63 / 2**53, otherwise they fall back to
  Python integers;
* extension fields evaluate coefficient vectors at a power-of-two base X
  (Kronecker substitution), multiply matrices of these integer values, and
  read the product polynomial back off the base-X digits.  The base is
  chosen per call so that digits cannot collide and float64 stays exact.
  The encoding is one gather: per call, all q field elements are evaluated
  at X (a q x k digit table times the powers of X, q <= 1024 values), and
  each matrix entry indexes that vector by its encoded value.
  The read-back is one table lookup: the 2k - 1 digits, each reduced mod p,
  form a base-p index into ``_readback``, which holds the encoded value of
  that polynomial reduced by the modulus (p^(2k-1) = q^2 / p entries).
  The scalar multiplication table ``_mul_table`` is read back through
  ``_readback`` in the same way, so it is built without a q x q x (2k - 1)
  product-coefficient cube.
  When float64 could lose exactness, the coefficient planes are multiplied
  separately in int64 and end in the same lookup;
* rationals multiply through integers: each operand is scaled by the lcm
  of its denominators (an operand of ``int`` entries is taken as it is),
  the integer matrices are multiplied on the same float64 / int64 /
  Python-int ladder as prime fields (bounded by m * max|a| * max|b|), and
  the product is divided back into canonical entries: ``v // den`` where
  ``den`` divides ``v``, ``Fraction(v, den)`` elsewhere.  No arithmetic on
  ``Fraction`` objects runs inside the product.

Row elimination (``elim``) works in place on the rows whose factor is
nonzero and leaves every other row untouched; the linear-algebra layer
hands it matrices it owns.  ``linalg.rref_data`` reaches it only over
GF(p) for p >= 5, GF(p^k) and QQ: over GF(2) and GF(3) it eliminates on
bit-sliced rows of its own.  Over QQ the RREF it returns is canonical, an
``int`` wherever an entry is integral, zero rows included.

Descriptors and scalars are immutable after construction: lookup tables are
built once and only read.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import (
    DivisionByZero,
    FieldMismatch,
    InvalidField,
    NoSuchOrder,
    ScalarFormatError,
)

_MAX_PRIME = 2**31          # keeps int64 row operations overflow-free
_MAX_EXT_ORDER = 1024       # extension tables are q x q; desk-scale guard
_F64_EXACT = 2**53
_I64_SAFE = 2**62


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _int_matmul(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """Exact product of integer arrays whose dot products stay below ``bound``.

    float64 while every partial sum is provably below 2**53, int64 below
    2**62, Python integers (an object array) beyond.
    """
    if bound < _F64_EXACT:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    if bound < _I64_SAFE:
        return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return np.dot(a.astype(object), b.astype(object))


class FieldDescriptor:
    """Base class; concrete kinds are prime, extension and rational."""

    kind: str

    # -- identity ------------------------------------------------------------

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return self is other or (isinstance(other, FieldDescriptor)
                                 and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def check_same(self, other: "FieldDescriptor"):
        if self is not other and self != other:
            raise FieldMismatch(f"cannot mix elements of {self} and {other}")

    # -- scalar interface (encoded values) ------------------------------------

    zero_enc = 0
    one_enc = 1
    order: int | None = None          # q for finite fields, None for Q
    characteristic: int = 0

    def from_int(self, i: int):
        return int(i) % self.characteristic

    def s_inv(self, a):
        raise NotImplementedError

    def s_div(self, a, b):
        if b == self.zero_enc:
            raise DivisionByZero("division by zero")
        return self.a_mul(a, self.s_inv(b))

    def s_pow(self, a, e: int):
        if e < 0:
            return self.s_pow(self.s_inv(a), -e)
        result = self.one_enc
        base = a
        while e:
            if e & 1:
                result = self.a_mul(result, base)
            base = self.a_mul(base, base)
            e >>= 1
        return result

    # -- literals --------------------------------------------------------------

    def parse_enc(self, text: str):
        raise NotImplementedError

    def format_enc(self, enc) -> str:
        raise NotImplementedError

    # -- array kernel ------------------------------------------------------------

    dtype = np.int64

    def _enc(self, v):
        """The encoding of one value, by the rule in the module docstring."""
        if type(v) is int:      # the commonest value; the Fraction test is slow
            return self.from_int(v)
        if isinstance(v, (bool, np.bool_)):
            raise ScalarFormatError("booleans are not scalars")
        if isinstance(v, FieldScalar):
            self.check_same(v.field)
            return v.value
        if isinstance(v, np.integer) and self.order is not None:
            if not 0 <= v < self.order:
                raise ScalarFormatError(f"an encoded value lies outside [0, {self.order}) for {self}")
            return int(v)
        if isinstance(v, Fraction):
            return self._from_fraction(v)
        if isinstance(v, (int, np.integer)):
            return self.from_int(int(v))
        if isinstance(v, float):
            raise ScalarFormatError("floating-point values are not exact")
        raise ScalarFormatError(f"{v!r} is not a value of {self}")

    def arr(self, values) -> np.ndarray:
        """The encodings of an array or a nested sequence of values, each read
        by ``_enc``; a finite field takes an integer ndarray whole after
        checking its range.  A nested sequence must be rectangular: rows of
        different lengths are refused."""
        if isinstance(values, np.ndarray):
            if values.dtype.kind in "iu" and self.order is not None:
                # as uint64, a negative int64 reads >= 2**63; so does a uint64 the cast wrapped
                enc = values.astype(self.dtype, copy=False)
                if enc.size and enc.view(np.uint64).max() >= self.order:
                    raise ScalarFormatError(
                        f"an encoded value lies outside [0, {self.order}) for {self}")
                return enc
            flat = [self._enc(v) for v in values.flat]
            return np.array(flat, dtype=self.dtype).reshape(values.shape)
        def conv(v):
            # (nested list of encodings, shape)
            if not isinstance(v, (list, tuple, np.ndarray)):
                return self._enc(v), ()
            items = [conv(x) for x in v]
            shapes = {s for _, s in items}
            if len(shapes) > 1:
                raise ScalarFormatError(f"rows of different shapes {sorted(shapes)} in one array")
            return [x for x, _ in items], (len(items), *(shapes.pop() if shapes else ()))
        return np.array(conv(list(values))[0], dtype=self.dtype)

    def _from_fraction(self, f: Fraction):
        return self.s_div(self.from_int(f.numerator), self.from_int(f.denominator))

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=self.dtype)

    def a_add(self, a, b):
        raise NotImplementedError

    def a_sub(self, a, b):
        raise NotImplementedError

    def a_neg(self, a):
        raise NotImplementedError

    def a_mul(self, a, b):
        """Elementwise product with numpy broadcasting; scalars allowed."""
        raise NotImplementedError

    def elim(self, m, f, row):
        """Row elimination m -= outer(f, row), in place; returns ``m``.

        Only the rows whose factor is nonzero are touched, so the cost
        follows the number of nonzero factors rather than the height of
        ``m``.  ``f`` is read, never written; it must not be a view into
        ``m`` (callers pass a copy of the pivot column).  ``row`` may be a
        row of ``m`` as long as its own factor is zero.
        """
        idx = (f != self.zero_enc).nonzero()[0]
        if idx.size:
            m[idx] = self.a_sub(m[idx], self.a_mul(f[idx, None], row[None, :]))
        return m

    def a_sum_runs(self, a: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Sums of the runs a[starts[g]:starts[g + 1]] along axis 0.

        ``starts`` is strictly increasing from 0; the last run ends at the
        end of ``a``.
        """
        raise NotImplementedError

    def matmul2(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact product of 2-D encoded arrays."""
        raise NotImplementedError

    def tensordot_lf(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Contract the last axis of ``a`` with the first axis of ``b``."""
        m = a.shape[-1]
        if b.shape[0] != m:
            raise ValueError("contraction length mismatch")
        a2 = a.reshape(-1, m)
        b2 = b.reshape(m, -1)
        out = self.matmul2(a2, b2)
        return out.reshape(a.shape[:-1] + b.shape[1:])

    def random_enc(self, rng, shape) -> np.ndarray:
        """Pseudorandom encodings drawn by ``rng.integers(low, high, size, dtype)``."""
        raise NotImplementedError

    # -- convenience -------------------------------------------------------------

    def scalar(self, v) -> "FieldScalar":
        return FieldScalar(self, self._enc(v))

    def zero(self) -> "FieldScalar":
        return FieldScalar(self, self.zero_enc)

    def one(self) -> "FieldScalar":
        return FieldScalar(self, self.one_enc)


class PrimeField(FieldDescriptor):
    """GF(p) with elements stored canonically in [0, p)."""

    kind = "prime"

    def __init__(self, p: int):
        p = int(p)
        # the cap comes first: trial division of a huge p would not finish
        if p >= _MAX_PRIME:
            raise InvalidField(f"prime {p} exceeds the desk-scale cap {_MAX_PRIME}")
        if not _is_prime(p):
            raise InvalidField(f"{p} is not prime")
        self.p = p
        self.order = p
        self.characteristic = p

    def _key(self):
        return ("prime", self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def s_inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return pow(int(a), -1, self.p)

    def parse_enc(self, text: str) -> int:
        try:
            return int(text.strip(), 10) % self.p
        except ValueError:
            raise ScalarFormatError(f"bad GF({self.p}) literal {text!r}") from None

    def format_enc(self, enc) -> str:
        return str(int(enc))

    def a_add(self, a, b):
        return (a + b) % self.p

    def a_sub(self, a, b):
        return (a - b) % self.p

    def a_neg(self, a):
        return (-a) % self.p

    def a_mul(self, a, b):
        return (a * b) % self.p

    def a_sum_runs(self, a, starts):
        # exact while every run is shorter than 2**32 (p < 2**31)
        return np.add.reduceat(a, starts) % self.p

    def matmul2(self, a, b):
        r, m = a.shape
        c = b.shape[1]
        if r == 0 or m == 0 or c == 0:
            return self.zeros((r, c))
        prod = _int_matmul(a, b, m * (self.p - 1) ** 2)
        return (prod % self.p).astype(np.int64, copy=False)

    def random_enc(self, rng, shape):
        return rng.integers(0, self.p, size=shape, dtype=np.int64)


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of polynomial division over GF(p); den is monic."""
    num = [x % p for x in num]
    d = len(den) - 1
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            for j in range(d + 1):
                num[i - d + j] = (num[i - d + j] - c * den[j]) % p
    rem = num[:d]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


class ExtensionField(FieldDescriptor):
    """GF(p^k) presented by a monic irreducible modulus over GF(p).

    Elements are encoded as base-p digit strings of their coefficient
    vectors; q x q lookup tables drive elementwise arithmetic.
    """

    kind = "extension"

    def __init__(self, p: int, modulus):
        p = int(p)
        if p < 2:
            raise InvalidField(f"{p} is not prime")
        mod = [int(c) % p for c in modulus]
        while mod and mod[-1] == 0:
            mod.pop()
        k = len(mod) - 1
        if k < 2:
            raise InvalidField("modulus must have degree >= 2")
        if mod[-1] != 1:
            raise InvalidField("modulus must be monic")
        # the cap comes first: primality and irreducibility tests for a huge
        # order would not finish
        q = p**k
        if q > _MAX_EXT_ORDER:
            raise InvalidField(
                f"GF({p}^{k}) has order {q}, beyond the desk-scale cap {_MAX_EXT_ORDER}"
            )
        if not _is_prime(p):
            raise InvalidField(f"{p} is not prime")
        self._verify_irreducible(mod, p)
        self.p = p
        self.degree = k
        self.modulus = tuple(mod)
        self.order = q
        self.characteristic = p
        self._build_tables()

    @staticmethod
    def _verify_irreducible(mod: list[int], p: int):
        k = len(mod) - 1
        # trial division by every monic polynomial of degree <= k//2
        for d in range(1, k // 2 + 1):
            for idx in range(p**d):
                cand = []
                t = idx
                for _ in range(d):
                    cand.append(t % p)
                    t //= p
                cand.append(1)  # monic
                if not _poly_mod(list(mod), cand, p):
                    raise InvalidField(
                        "modulus is reducible: divisible by "
                        f"{cand} over GF({p})"
                    )

    def _build_tables(self):
        p, k, q = self.p, self.degree, self.order
        digits = np.zeros((q, k), dtype=np.int64)
        t = np.arange(q)
        for i in range(k):
            digits[:, i] = t % p
            t = t // p
        self._digits = digits
        self._digits_f64 = digits.astype(np.float64)
        self._p_pows = p ** np.arange(k, dtype=np.int64)
        # reduction matrix: row t = coefficients of X^t mod the modulus
        red = np.zeros((2 * k - 1, k), dtype=np.int64)
        rep = [0] * k
        rep[0] = 1
        for t in range(2 * k - 1):
            red[t] = rep
            # multiply by X and reduce once (modulus is monic)
            lead = rep[k - 1]
            rep = [0] + rep[:-1]
            if lead:
                for j in range(k):
                    rep[j] = (rep[j] - lead * self.modulus[j]) % p
        # digit-wise sums, one base-p digit at a time
        add = np.zeros((q, q), dtype=np.int64)
        for i in range(k):
            add += (np.add.outer(digits[:, i], digits[:, i]) % p) * self._p_pows[i]
        self._add_table = add
        self._neg_table = ((-digits) % p) @ self._p_pows
        self._sub_table = add[:, self._neg_table]
        # read-back of a product polynomial sum_t c_t X^t (t < 2k-1, c_t mod p):
        # entry sum_t c_t p^t is its encoded value mod the modulus, built one
        # coefficient at a time as field sums of c_t * (X^t mod the modulus)
        readback = np.zeros(1, dtype=np.int64)
        for t in range(2 * k - 1):
            readback = np.concatenate(
                [add[readback, int(((d * red[t]) % p) @ self._p_pows)] for d in range(p)]
            )
        self._readback = readback
        # products through the same read-back: coefficient t of x*y, mod p,
        # is base-p digit t of the index
        idx = np.zeros((q, q), dtype=np.int32)
        for t in range(2 * k - 1):
            coeff = sum(np.multiply.outer(digits[:, u], digits[:, t - u])
                        for u in range(max(0, t - k + 1), min(t, k - 1) + 1))
            idx += ((coeff % p) * p**t).astype(np.int32)
        self._mul_table = readback[idx]
        inv = np.zeros(q, dtype=np.int64)
        rows, cols = np.nonzero(self._mul_table == 1)
        inv[rows] = cols
        self._inv_table = inv

    def _key(self):
        return ("extension", self.p, self.modulus)

    def __repr__(self):
        return f"GF({self.p}^{self.degree})"

    def coeffs_to_enc(self, coeffs) -> int:
        vals = [int(c) % self.p for c in coeffs]
        if len(vals) > self.degree:
            raise ScalarFormatError(
                f"coefficient list longer than degree {self.degree}"
            )
        vals += [0] * (self.degree - len(vals))
        return int(sum(c * int(pw) for c, pw in zip(vals, self._p_pows)))

    def coeff_rows_to_enc(self, coeffs: np.ndarray) -> np.ndarray:
        """The encoding of each row of an int64 array of ``degree`` coefficients."""
        return (coeffs % self.p) @ self._p_pows

    def enc_to_coeffs(self, enc: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self._digits[enc])

    def s_inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return int(self._inv_table[a])

    def parse_enc(self, text: str) -> int:
        text = text.strip()
        if text.startswith("["):
            if not text.endswith("]"):
                raise ScalarFormatError(f"unterminated coefficient list {text!r}")
            body = text[1:-1].strip()
            parts = [s.strip() for s in body.split(",")] if body else []
            try:
                return self.coeffs_to_enc([int(s, 10) for s in parts])
            except ValueError:
                raise ScalarFormatError(f"bad {self} literal {text!r}") from None
        try:
            return self.from_int(int(text, 10))
        except ValueError:
            raise ScalarFormatError(f"bad {self} literal {text!r}") from None

    def format_enc(self, enc) -> str:
        return "[" + ",".join(str(c) for c in self.enc_to_coeffs(int(enc))) + "]"

    def a_add(self, a, b):
        return self._add_table[a, b]

    def a_sub(self, a, b):
        return self._sub_table[a, b]

    def a_neg(self, a):
        return self._neg_table[a]

    def a_mul(self, a, b):
        return self._mul_table[a, b]

    def a_sum_runs(self, a, starts):
        # digit-wise: coefficient sums of the runs, reduced mod p
        return (np.add.reduceat(self._digits[a], starts, axis=0) % self.p) @ self._p_pows

    def matmul2(self, a, b):
        r, m = a.shape
        c = b.shape[1]
        if r == 0 or m == 0 or c == 0:
            return self.zeros((r, c))
        p, k = self.p, self.degree
        x = 1 << (m * k * (p - 1) ** 2 + 1).bit_length()
        v_max = (p - 1) * (x**k - 1) // (x - 1)
        bound = m * v_max * v_max
        if bound < _F64_EXACT:
            cf = (self._kron_f64(a, x) @ self._kron_f64(b, x)).astype(np.int64)
            # coefficient t of the product polynomial is base-x digit t of cf
            shift = x.bit_length() - 1
            coeffs = ((cf >> (shift * t)) & (x - 1) for t in range(2 * k - 1))
        else:
            # coefficient planes: k^2 int64 matmuls, never overflows at desk
            # scale since m * (p-1)^2 is tiny
            da, db = self._digits[a], self._digits[b]
            coeffs = (
                sum(da[:, :, u] @ db[:, :, t - u]
                    for u in range(max(0, t - k + 1), min(t, k - 1) + 1)) % p
                for t in range(2 * k - 1)
            )
        # each coefficient mod p is base-p digit t of an index into _readback.
        # Coefficients are below x < 2**31 (or already reduced), so int32
        # holds them at half the memory traffic; d - d // p * p is d mod p,
        # and numpy divides by a scalar far faster than it takes a remainder.
        idx = np.zeros((r, c), dtype=np.int32)
        d = np.empty_like(idx)
        for t, coeff in enumerate(coeffs):
            d[...] = coeff
            d -= d // p * p
            d *= p**t
            idx += d
        return self._readback[idx]

    def _kron_f64(self, enc: np.ndarray, x: int) -> np.ndarray:
        """Evaluate coefficient vectors at the integer base x, as float64.

        All q encodings are evaluated at once and ``enc`` indexes the result:
        one gather per entry.  Exact on the float64 rung, where x is a power
        of two and every value is below 2**53.
        """
        powers = np.array([float(x**j) for j in range(self.degree)])
        return (self._digits_f64 @ powers)[enc]

    def random_enc(self, rng, shape):
        return rng.integers(0, self.order, size=shape, dtype=np.int64)


def _canon(x):
    """The canonical encoding of a rational ``int`` or ``Fraction``: an
    ``int`` when it is integral, else the ``Fraction``."""
    return x.numerator if x.denominator == 1 else x


def _common_denominator(a: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Scale a rational array to integers.

    Returns an object array of Python ints ``a * den``, the lcm ``den`` of
    the entries' denominators, and the largest absolute scaled entry.  An
    array of ``int`` entries is returned as it is, with ``den = 1``.
    """
    flat = a.ravel().tolist()
    if set(map(type, flat)) == {int}:
        return a, 1, max(map(abs, flat))
    den = math.lcm(*[x.denominator for x in flat])
    ints = [x.numerator * (den // x.denominator) for x in flat]
    return np.array(ints, dtype=object).reshape(a.shape), den, max(map(abs, ints))


class RationalField(FieldDescriptor):
    """The rationals with arbitrary-precision arithmetic: an integral value
    is a Python ``int``, any other a ``Fraction`` (see the module
    docstring)."""

    kind = "rational"
    dtype = object
    order = None
    characteristic = 0

    def _key(self):
        return ("rational",)

    def __repr__(self):
        return "QQ"

    def from_int(self, i: int) -> int:
        return int(i)

    def _from_fraction(self, f: Fraction):
        return _canon(f)

    def s_inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return _canon(1 / Fraction(a))

    def parse_enc(self, text: str):
        try:
            return _canon(Fraction(text.strip()))
        except (ValueError, ZeroDivisionError):
            raise ScalarFormatError(f"bad rational literal {text!r}") from None

    def format_enc(self, enc) -> str:
        return str(enc)

    def a_add(self, a, b):
        return a + b

    def a_sub(self, a, b):
        return a - b

    def a_neg(self, a):
        return -a

    def a_mul(self, a, b):
        return a * b

    def a_sum_runs(self, a, starts):
        return np.add.reduceat(a, starts)

    def matmul2(self, a, b):
        r, m = a.shape
        c = b.shape[1]
        if r == 0 or m == 0 or c == 0:
            return self.zeros((r, c))
        ia, da, ma = _common_denominator(a)
        ib, db, mb = _common_denominator(b)
        if ma == 0 or mb == 0:
            return self.zeros((r, c))
        prod = _int_matmul(ia, ib, m * ma * mb)
        den = da * db
        out = [v // den if v % den == 0 else Fraction(v, den) for v in prod.ravel().tolist()]
        return np.array(out, dtype=object).reshape(r, c)

    def random_enc(self, rng, shape):
        num = rng.integers(-3, 4, size=shape)
        den = rng.integers(1, 4, size=shape)
        out = np.empty(shape, dtype=object)
        flat_out = out.reshape(-1)
        flat_num = num.reshape(-1)
        flat_den = den.reshape(-1)
        for i in range(flat_out.size):
            flat_out[i] = _canon(Fraction(int(flat_num[i]), int(flat_den[i])))
        return out


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def gf25() -> ExtensionField:
    """The shipped default GF(25) = GF(5)[t]/(t^2 + 2)."""
    return ExtensionField(5, [2, 0, 1])


class FieldScalar:
    """An exact field element: a descriptor plus a canonical encoded value.

    ``value`` is a Python ``int`` over a finite field (table lookups of the
    array kernel return numpy integers); over QQ it is canonical, an ``int``
    when it is integral and a ``Fraction`` otherwise.  Numpy
    integers on either side of an operator are encodings, by ``_enc``;
    ``__array_ufunc__ = None`` makes numpy defer to the reflected operators.
    """

    __slots__ = ("field", "value")
    __array_ufunc__ = None

    def __init__(self, field: FieldDescriptor, value):
        self.field = field
        self.value = int(value) if field.order is not None else _canon(value)

    def _coerce(self, other):
        if isinstance(other, (FieldScalar, int, Fraction, np.integer)):
            return self.field._enc(other)
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldScalar(self.field, self.field.a_add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldScalar(self.field, self.field.a_sub(self.value, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldScalar(self.field, self.field.a_sub(v, self.value))

    def __neg__(self):
        return FieldScalar(self.field, self.field.a_neg(self.value))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldScalar(self.field, self.field.a_mul(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldScalar(self.field, self.field.s_div(self.value, v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldScalar(self.field, self.field.s_div(v, self.value))

    def __pow__(self, e: int):
        return FieldScalar(self.field, self.field.s_pow(self.value, e))

    def inverse(self) -> "FieldScalar":
        return FieldScalar(self.field, self.field.s_inv(self.value))

    def __bool__(self):
        return self.value != self.field.zero_enc

    def __eq__(self, other):
        if isinstance(other, FieldScalar):
            return self.field == other.field and self.value == other.value
        if isinstance(other, (int, Fraction, np.integer)):
            return self.value == self.field._enc(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return self.field.format_enc(self.value)

    def multiplicative_order(self) -> int:
        """Exact order in the unit group; finite fields only."""
        if self.field.order is None:
            raise NoSuchOrder("multiplicative order is only computed in finite fields")
        if not self:
            raise DivisionByZero("zero has no multiplicative order")
        n = 1
        acc = self.value
        while acc != self.field.one_enc:
            acc = self.field.a_mul(acc, self.value)
            n += 1
        return n


def element_of_order(field: FieldDescriptor, n: int) -> FieldScalar:
    """Smallest element (in encoded enumeration order) of exact order ``n``.

    Requires a finite field with n dividing q - 1; the scan is exhaustive,
    so the result is deterministic.
    """
    if field.order is None:
        raise NoSuchOrder("the rationals are not scanned for torsion elements")
    n = int(n)
    if n <= 0:
        raise NoSuchOrder("order must be positive")
    q = field.order
    if (q - 1) % n != 0:
        raise NoSuchOrder(f"{n} does not divide {q - 1}")
    cofs = [n // ell for ell in _prime_factors(n)]
    for enc in range(1, q):
        if field.s_pow(enc, n) != field.one_enc:
            continue
        if all(field.s_pow(enc, c) != field.one_enc for c in cofs):
            return FieldScalar(field, enc)
    raise NoSuchOrder(f"no element of order {n} found")  # unreachable: group is cyclic
