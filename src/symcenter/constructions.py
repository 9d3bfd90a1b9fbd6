"""Builders that produce new algebras from old ones.

Nothing about the radical is computed or stated at build time: every
output's J(A) comes from the radical rule of ``substructures``, run on its
table when first asked for.  Each construction's theorem about its
output's radical -- J(A1) (x) A2 + A1 (x) J(A2) for a tensor product, J(A)
+ A* for a trivial extension, J(A)/I for a quotient by an ideal inside
J(A), J(A) for an opposite, the monomials of positive degree for a skew
presentation -- is checked against the rule by the test suite and the
lemma claims.

Every call returns a new view, with its own name, labels and form;
another name or form is a ``replace`` of it (``symmetrize`` gives the
quotient view its induced form so).  The quotient, the tensor product and
the trivial extension keep the core they built on the input's core
(``memoised``, keyed by the ideal or the other factor's table), never a
view, so a repeated call builds and validates nothing and no algebra is
caught in a reference cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, core_of_terms, memoised, quotient_core
from .errors import AlgebraValidationError, BasisClaimFailed
from .fields import FieldDescriptor
from .linalg import Subspace, express_in_rows, kernel_on, subspace_sum
from .substructures import j_of_center, property_verdicts, soc_of_center


# -- tensor product ------------------------------------------------------------


def tensor(a1: Algebra, a2: Algebra) -> Algebra:
    """A1 (x) A2 on the basis e_i (x) f_j, ordered row-major in (i, j); its
    table is built once per pair of tables."""
    f = a1.field
    f.check_same(a2.field)
    n = a1.dim * a2.dim
    ei, ej, ek, val = a2.entries
    core = _tensor_core(a1, (ei * a2.dim + ej) * a2.dim + ek, val, a2.one)
    labels = None
    if a1.labels is not None and a2.labels is not None:
        labels = [f"{l1}⊗{l2}" for l1 in a1.labels for l2 in a2.labels]
    sym = None
    if a1.sym_form is not None and a2.sym_form is not None:
        sym = f.a_mul(a1.sym_form[:, None], a2.sym_form[None, :]).reshape(n)
    name = f"({a1.name or 'A1'})⊗({a2.name or 'A2'})"
    return Algebra(f, None, None, labels=labels, sym_form=sym, name=name, _core=core)


@memoised("tensor")
def _tensor_core(a1: Algebra, flat2: np.ndarray, val2: np.ndarray, one2: np.ndarray):
    """The core of the table of A1 (x) A2, given A2's entries (at flat
    indexes) and unit: c_ijk d_abc sits at ((i, a), (j, b), (k, c))."""
    f, n1, n2 = a1.field, a1.dim, len(one2)
    n = n1 * n2
    ei, ej, ek, val = a1.entries
    ij2, k2 = np.divmod(flat2, n2)
    i2, j2 = np.divmod(ij2, n2)
    i, j, k = (x1[:, None] * n2 + x2[None, :] for x1, x2 in ((ei, i2), (ej, j2), (ek, k2)))
    flat = ((i * n + j) * n + k).reshape(-1)
    one = f.a_mul(a1.one[:, None], one2[None, :]).reshape(n)
    return core_of_terms(f, n, flat, f.a_mul(val[:, None], val2[None, :]).reshape(-1), one)


# -- trivial extension -----------------------------------------------------------


def trivial_extension(a: Algebra) -> Algebra:
    """T(A) = A + A* with (a,f)(b,g) = (ab, ag + fb) and A* squaring to zero.

    The basis is all e_i followed by all dual vectors e_i*; the canonical
    symmetrizing form (a, f) -> f(1) is attached.  Its table is built once
    per table of A, so every view of T(A) shares what its core computes.
    """
    f, n = a.field, a.dim
    core = _trivext_core(a)
    lam = np.concatenate([f.zeros(n), a.one])
    labels = None
    if a.labels is not None:
        labels = list(a.labels) + [s + "*" for s in a.labels]
    name = f"T({a.name or 'A'})"
    return Algebra(f, None, None, labels=labels, sym_form=lam, name=name, _core=core)


@memoised("trivial_extension")
def _trivext_core(a: Algebra):
    """The core of the table of T(A): each constant c_ijk of A sits at
    (i, j, k), and twice more on the dual copy (e_i* is index n + i)."""
    f, n, (i, j, k, val) = a.field, a.dim, a.entries
    m = 2 * n
    flat = np.concatenate([
        (i * m + j) * m + k,
        # e_j * e_k^* = sum_i c[i, j, k] e_i^*   (module action (a f)(x) = f(x a))
        (j * m + n + k) * m + n + i,
        # e_k^* * e_i = sum_j c[i, j, k] e_j^*   (module action (f a)(x) = f(a x))
        ((n + k) * m + i) * m + n + j,
    ])
    one = np.concatenate([a.one, f.zeros(n)])
    return core_of_terms(f, m, flat, np.concatenate([val] * 3), one)


@dataclass(frozen=True)
class TrivExtCriteria:
    """The two subspaces controlling the ideal properties of T(A).

    s = {b in soc(Z(A)) : A b inside K(A)} and i = K(A) + A*J(Z(A)); T(A)
    has property (P1) iff A does and K(A) is an ideal, and property (P2)
    iff both s and i are ideals of A.
    """

    s: Subspace
    i: Subspace
    s_is_ideal: bool
    i_is_ideal: bool
    k_is_ideal: bool
    p1_prediction: bool
    p2_prediction: bool


def trivext_criteria(a: Algebra) -> TrivExtCriteria:
    n = a.dim
    k = a.commutator_space()
    jz = j_of_center(a)
    socz = soc_of_center(a)
    i_sub = subspace_sum(k, a.subspace_product(a.full_space(), jz))
    # b in soc(Z(A)) with e_j b in K(A) for every j: their images in A/K(A) vanish
    prods = a.right_products(socz.basis).reshape(-1, n)
    s_sub = kernel_on(socz, k.quotient_coords(prods).reshape(socz.dim, n * (n - k.dim)))
    s_ok = a.is_ideal(s_sub)
    i_ok = a.is_ideal(i_sub)
    k_ok = a.is_ideal(k)
    p1a = property_verdicts(a).p1.holds
    return TrivExtCriteria(
        s=s_sub,
        i=i_sub,
        s_is_ideal=s_ok,
        i_is_ideal=i_ok,
        k_is_ideal=k_ok,
        p1_prediction=p1a and k_ok,
        p2_prediction=s_ok and i_ok,
    )


# -- quotients and opposites -------------------------------------------------------


def quotient(a: Algebra, ideal: Subspace) -> Algebra:
    """A new view A/I, named (A)/I, on the complement coordinates of the
    ideal's RREF basis; its table is built once per table of A and ideal.
    The ideal is checked against A first: the memos are keyed by its
    coordinates alone."""
    a._check_subspace(ideal)
    labels = None
    if a.labels is not None:
        labels = [a.labels[i] for i in ideal.complement_columns()]
    return Algebra(a.field, None, None, labels=labels, name=f"({a.name or 'A'})/I",
                   _core=quotient_core(a, ideal))


def opposite(a: Algebra) -> Algebra:
    """Same space, reversed multiplication: c_ijk moves to (j, i, k)."""
    n, (i, j, k, val) = a.dim, a.entries
    core = core_of_terms(a.field, n, (j * n + i) * n + k, val, a.one)
    return Algebra(a.field, None, None, labels=a.labels, sym_form=a.sym_form,
                   name=f"op({a.name or 'A'})", _core=core)


# -- skew truncated presentations -----------------------------------------------------


@dataclass(frozen=True)
class SkewPresentation:
    """Generators x_1..x_n with x_i^{b_i} = 0 and x_j x_i = q_ji x_i x_j (j > i).

    q maps 0-based pairs (j, i) with j > i to a nonzero scalar spec (int,
    Fraction or FieldScalar); missing pairs default to commuting.
    """

    bounds: tuple[int, ...]
    q: tuple = ()
    names: tuple[str, ...] | None = None

    @staticmethod
    def anticommuting(bounds) -> "SkewPresentation":
        n = len(bounds)
        q = tuple(((j, i), -1) for j in range(n) for i in range(j))
        return SkewPresentation(tuple(bounds), q)

    @staticmethod
    def commuting(bounds) -> "SkewPresentation":
        return SkewPresentation(tuple(bounds))


def _monomial_label(exps, names) -> str:
    parts = []
    for e, nm in zip(exps, names):
        if e == 1:
            parts.append(nm)
        elif e > 1:
            parts.append(f"{nm}^{e}")
    return "*".join(parts) if parts else "1"


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def from_skew_presentation(field: FieldDescriptor, pres: SkewPresentation,
                           name: str | None = None) -> Algebra:
    """Monomial-basis algebra of a truncated skew-commutative presentation.

    The basis is all exponent tuples below the bounds, enumerated with the
    first variable fastest; the unit is the first.  The table is built for
    all basis pairs at once: x^a x^b = prod_{j > i} q_ji^(a_j b_i)
    x^(a + b) when every exponent of a + b stays below its bound, and 0
    otherwise.
    """
    for b in pres.bounds:
        if not _is_int(b):
            raise AlgebraValidationError(f"skew presentation bound {b!r} is not an integer")
    bounds = np.array(pres.bounds, dtype=np.int64)
    if np.any(bounds < 1):
        raise AlgebraValidationError("skew presentation bounds must be >= 1")
    nvars = len(bounds)
    if pres.names is not None and len(pres.names) != nvars:
        raise AlgebraValidationError(
            f"{len(pres.names)} variable names for {nvars} generators"
        )
    names = pres.names or tuple(f"x{i+1}" for i in range(nvars))
    qmap = {}
    for entry in pres.q:
        try:
            (j, i), val = entry
        except (TypeError, ValueError):
            raise AlgebraValidationError(f"q entry {entry!r} is not ((j, i), value)") from None
        if not (_is_int(j) and _is_int(i) and 0 <= i < j < nvars):
            raise AlgebraValidationError(f"bad q index pair {(j, i)}")
        j, i = int(j), int(i)
        if (j, i) in qmap:
            raise AlgebraValidationError(f"q pair {(j, i)} ({names[j]}, {names[i]}) is given twice")
        enc = field.scalar(val).value
        if enc == field.zero_enc:
            raise AlgebraValidationError("q coefficients must be nonzero")
        qmap[(j, i)] = enc
    strides = np.cumprod(np.concatenate([[1], bounds]))[:-1]
    dim = int(np.prod(bounds))
    exps = np.arange(dim)[:, None] // strides % bounds
    total = exps[:, None, :] + exps[None, :, :]
    a_idx, b_idx = np.nonzero(np.all(total < bounds, axis=2))
    factor = np.full(a_idx.size, field.one_enc, dtype=field.dtype)
    for (j, i), q in qmap.items():
        powers = [field.s_pow(q, e) for e in range((bounds[j] - 1) * (bounds[i] - 1) + 1)]
        exponent = exps[a_idx, j] * exps[b_idx, i]
        factor = field.a_mul(factor, np.array(powers, dtype=field.dtype)[exponent])
    flat = (a_idx * dim + b_idx) * dim + total[a_idx, b_idx] @ strides
    one = field.zeros(dim)
    one[0] = field.one_enc
    labels = [_monomial_label(e, names) for e in exps.tolist()]
    return Algebra(field, None, None, labels=labels, name=name,
                   _core=core_of_terms(field, dim, flat, factor, one))


# -- matrix-generated subalgebras ---------------------------------------------------


def _parse_word(word: str, names: list[str]) -> list[tuple[int, int]]:
    word = word.strip()
    if word == "1":
        return []
    out = []
    for factor in word.split("*"):
        factor = factor.strip()
        if "^" in factor:
            base, _, exp = factor.partition("^")
            base = base.strip()
            try:
                power = int(exp)
            except ValueError:
                raise BasisClaimFailed(f"bad exponent in word {word!r}") from None
        else:
            base, power = factor, 1
        if base not in names or power < 1:
            raise BasisClaimFailed(f"unknown factor {factor!r} in word {word!r}")
        out.append((names.index(base), power))
    return out


def _matrix_products(field: FieldDescriptor, left: np.ndarray,
                     right: np.ndarray) -> np.ndarray:
    """Every product left[s] @ right[t] of two stacks of size x size matrices,
    flattened, one row per pair (s, t) in row-major order: one contraction
    with the right stack placed side by side."""
    size = left.shape[-1]
    side = np.ascontiguousarray(right.transpose(1, 0, 2)).reshape(size, -1)
    prods = field.tensordot_lf(left, side).reshape(len(left), size, len(right), size)
    return np.ascontiguousarray(prods.transpose(0, 2, 1, 3)).reshape(-1, size * size)


def from_matrix_generators(field: FieldDescriptor, size: int, generators,
                           monomial_basis=None, name: str | None = None) -> Algebra:
    """Unitary subalgebra of Mat_size(F) generated by named matrices.

    The span S starts as span{1, generators} and grows by whole rounds,
    S <- S + S G for all generators at once, until its dimension stops
    growing; every round but the last adds a dimension.  Without a word list
    the RREF basis of S is the basis.  When a monomial_basis word list is
    supplied, the words are evaluated, checked to be an independent spanning
    set, and used as the labelled basis; structure constants are then solved
    exactly.
    """
    if size < 1:
        raise AlgebraValidationError("algebras here are unital, so size >= 1")
    gen_names = list(generators.keys())
    mats = [field.arr(generators[g]) for g in gen_names]
    for g, m in zip(gen_names, mats):
        if m.shape != (size, size):
            raise AlgebraValidationError(
                f"generator {g!r} has shape {m.shape}, expected ({size}, {size})"
            )
    amb = size * size
    ident = field.eye(size)
    gens = np.array(mats, dtype=field.dtype).reshape(-1, size, size)
    span = Subspace.from_rows(field, amb, np.concatenate([ident.reshape(1, amb),
                                                          gens.reshape(-1, amb)]))
    grown = 0
    while span.dim > grown:
        grown = span.dim
        prods = _matrix_products(field, span.basis.reshape(-1, size, size), gens)
        span = Subspace.from_rows(field, amb, np.concatenate([span.basis, prods]))
    d = span.dim
    if monomial_basis is not None:
        words = list(monomial_basis)
        if len(words) != d:
            raise BasisClaimFailed(
                f"claimed basis has {len(words)} words but the closure has dimension {d}"
            )
        basis_mats = []
        for w in words:
            m = ident
            for gi, power in _parse_word(w, gen_names):
                for _ in range(power):
                    m = field.matmul2(m, mats[gi])
            basis_mats.append(m)
        flats = np.stack([m.reshape(amb) for m in basis_mats], axis=0)
        probe = Subspace.from_rows(field, amb, flats)
        if probe.dim != d:
            raise BasisClaimFailed(
                f"claimed basis spans dimension {probe.dim}, closure has {d}"
            )
        labels = words
    else:
        flats = span.basis
        labels = None
    stack = flats.reshape(d, size, size)
    prods = _matrix_products(field, stack, stack)
    # the products and the identity in one solve: the last row is the unit
    try:
        coeffs = express_in_rows(field, flats, np.concatenate([prods, ident.reshape(1, amb)]))
    except ValueError as exc:
        raise BasisClaimFailed(f"basis solve failed: {exc}") from None
    flat = np.flatnonzero(coeffs[:-1] != field.zero_enc)
    return Algebra(field, None, None, labels=labels, name=name,
                   _core=core_of_terms(field, d, flat, coeffs.reshape(-1)[flat], coeffs[-1]))
