"""Radical certificates, socles, center substructures and ideal verdicts.

Every verdict rests on one verified object, J(A), which the rule computes
from the table alone: J(A) = {x : x e_j in T(A) for every j}, where T(A)
is ``t_space``.  Over QQ, T(A) is ker(tr o L) and the rule is Dickson's
criterion ("dickson"); over a field of q elements, T(A) is Kuelshammer's
{x : x^e in K(A)} = J(A) + K(A), with e the least power of q that is at
least dim A ("kuelshammer").  The constructions' theorems about their
outputs' radicals (tensor products, trivial extensions, quotients inside
J(A), opposites, skew presentations) are checked against the rule by the
test suite and the lemma claims, never used in its place.

``_proves_radical`` proves the rule's candidate N equal to J(A): N must be
a nilpotent two-sided ideal, which puts it inside J(A), and A/N must be
semisimple, which puts J(A) inside it.  The rule decides the latter on A/N
(J(A/N) = 0); when N has codimension 1, A/N is the field and nothing is
computed.  A candidate that fails is an internal error, never a verdict.
The certificate and every fact derived from it (socle, J(Z), soc(Z), R(A)
and the verdicts) depend only on the table, so each is computed once per
table and kept on its core (``memoised``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, form_values, memoised, quotient_core, row_products, sum_by_key
from .errors import CriterionDisagreement, InternalCheckError
from .linalg import Subspace, contains, kernel, kernel_on, subspace_intersect


@dataclass(frozen=True)
class RadicalCertificate:
    """A verified Jacobson radical together with its provenance."""

    radical: Subspace
    strategy: str
    evidence: str


def is_nilpotent_ideal(algebra: Algebra, n: Subspace) -> bool:
    """Nilpotency of a two-sided ideal, by repeated squaring."""
    current = n
    while current.dim > 0:
        nxt = algebra.subspace_product(current, current)
        if nxt.dim >= current.dim:
            return False
        current = nxt
    return True


def _proves_radical(algebra: Algebra, sub: Subspace) -> bool:
    """sub = J(A): a nilpotent two-sided ideal with A/sub semisimple."""
    if not (algebra.is_ideal(sub) and is_nilpotent_ideal(algebra, sub)):
        return False
    if algebra.dim - sub.dim == 1:
        return True     # A/sub is the field
    core = quotient_core(algebra, sub)
    return _radical_rule(Algebra(core.field, None, None, _core=core)).dim == 0


def _frobenius_exponent(algebra: Algebra) -> int:
    """The least power e of q = |F| with e >= dim A, over a finite field."""
    e = algebra.field.order
    while e < algebra.dim:
        e *= algebra.field.order
    return e


def _basis_powers(algebra: Algebra, e: int) -> np.ndarray:
    """Row i is e_i^e, for every basis vector at once, by square-and-multiply."""
    result, base = None, algebra.field.eye(algebra.dim)
    while True:
        if e & 1:
            result = base if result is None else row_products(algebra, result, base)
        e >>= 1
        if not e:
            return result
        base = row_products(algebra, base, base)


def _t_functionals(algebra: Algebra) -> np.ndarray:
    """Independent linear functionals, as rows, whose common kernel is T(A).

    Over QQ, T(A) = ker(tr o L), the x with tr(L_x) = 0: Dickson's
    criterion.  Over a finite field it is Kuelshammer's T(A) =
    {x : x^e in K(A)} = J(A) + K(A), with e from ``_frobenius_exponent``.  It
    contains J(A) + K(A) since e is at least the nilpotency index of J(A),
    and no more, since on a block M_n(E) of A/J(A), tr(x^e) = tr(x)^e.

    Since (a + b)^p = a^p + b^p mod K(A) and K(A)^p lies in K(A), the map
    x -> x^p mod K(A) is well defined on residues and sends sum_i x_i e_i
    to sum_i x_i^p e_i^p: from the rows e_i^p, every further p-th power is
    a matrix product.  As lambda^e = lambda on F, x -> x^e mod K(A) is
    F-linear; its matrix is the rows e_i^e reduced modulo K(A), and its
    columns are the functionals.
    """
    f, n, p = algebra.field, algebra.dim, algebra.field.characteristic
    if p == 0:
        # tr(L_{e_m}) sums the diagonal constants c_mkk, m for m
        ei, ej, ek, val = algebra.entries
        rows, sums = sum_by_key(f, ei[ej == ek], val[ej == ek])
        trace = f.zeros((1, n))
        trace[0, rows] = sums
        return trace
    frobenius = algebra.commutator_space().reduce(_basis_powers(algebra, p))
    rows, power = f.eye(n), 1
    while power < _frobenius_exponent(algebra):
        rows = f.matmul2(f.s_pow(rows, p), frobenius)
        power *= p
    return Subspace.from_rows(f, n, rows.T).basis


def t_space(algebra: Algebra) -> Subspace:
    """The space T(A) of the radical rule: J(A) = {x : x e_j in T(A) for all j}
    (see ``_t_functionals``).  For a symmetric algebra over a finite field,
    R(A) is T(A)^perp."""
    return kernel(algebra.field, _t_functionals(algebra))


@memoised("radical_rule")
def _radical_rule(algebra: Algebra) -> Subspace:
    """{x : x e_j in T(A) for every j}, which is J(A).

    Over a finite field J(A) lies in T(A) = J(A) + K(A), and the E-trace is
    nondegenerate on each block M_n(E) of A/J(A), so no x outside J(A) has
    x A inside J(A) + K(A).  The condition is linear in x: x e_j is
    sum_i x_i e_i e_j, on which every functional of T(A) must vanish.
    """
    phi = _t_functionals(algebra)
    return kernel_on(algebra.full_space(), form_values(algebra, phi))


def radical(algebra: Algebra) -> RadicalCertificate:
    """Verified Jacobson radical, by the rule: the core's certificate,
    noted in ``algebra._cache["radical_cert"]``.  A call that raises
    stores nothing."""
    cache = algebra._cache
    if "radical_cert" not in cache:
        cache["radical_cert"] = _radical(algebra)
    return cache["radical_cert"]


@memoised("radical")
def _radical(algebra: Algebra) -> RadicalCertificate:
    """The rule's candidate, certified as J(A) once per table."""
    sub = _radical_rule(algebra)
    if not _proves_radical(algebra, sub):
        raise InternalCheckError("computed radical failed verification")
    if algebra.field.characteristic == 0:
        return RadicalCertificate(
            sub, "dickson",
            f"radical of the trace form tr(L_xy) (char 0 vs dim {algebra.dim})")
    return RadicalCertificate(
        sub, "kuelshammer",
        f"{{x : xA in T(A)}}, T(A) = {{x : x^{_frobenius_exponent(algebra)} in K(A)}}")


def verify_certificate(algebra: Algebra, cert: RadicalCertificate) -> bool:
    """Re-check that the certificate's subspace is J(A) (used by the test
    suite)."""
    return _proves_radical(algebra, cert.radical)


# -- derived substructures ---------------------------------------------------


@memoised("socle")
def socle(algebra: Algebra) -> Subspace:
    """Right annihilator of the radical (the left socle)."""
    return algebra.right_annihilator(radical(algebra).radical)


@memoised("j_of_center")
def j_of_center(algebra: Algebra) -> Subspace:
    """J(Z(A)) = J(A) intersected with Z(A)."""
    return subspace_intersect(radical(algebra).radical, algebra.center())


def annihilator_in_center(algebra: Algebra, v: Subspace) -> Subspace:
    """{z in Z(A) : z v = 0 for all v in the given subspace}."""
    z = algebra.center()
    return kernel_on(z, algebra.basis_products(z, v))


@memoised("soc_of_center")
def soc_of_center(algebra: Algebra) -> Subspace:
    """Annihilator of J(Z(A)) inside Z(A) (two-sided by commutativity of Z)."""
    return annihilator_in_center(algebra, j_of_center(algebra))


@memoised("reynolds")
def reynolds(algebra: Algebra) -> Subspace:
    """R(A) = soc(A) intersected with Z(A)."""
    return subspace_intersect(socle(algebra), algebra.center())


def is_basic(algebra: Algebra) -> bool:
    """A/J(A) commutative, i.e. K(A) contained in J(A)."""
    return contains(radical(algebra).radical, algebra.commutator_space())


def is_local(algebra: Algebra) -> bool:
    """dim A / J(A) = 1."""
    return algebra.dim - radical(algebra).radical.dim == 1


# -- the three ideal properties ------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A pair u, k with u in the tested subspace, k in K(A) and u*k != 0."""

    u: np.ndarray
    k: np.ndarray
    product: np.ndarray

    def describe(self, algebra: Algebra) -> str:
        return (
            f"u = {algebra.element_str(self.u)}, k = {algebra.element_str(self.k)}, "
            f"u*k = {algebra.element_str(self.product)}"
        )


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Witness | None


@dataclass(frozen=True)
class PropertyVerdicts:
    p1: Verdict
    p2: Verdict
    p3: Verdict

    def as_dict(self) -> dict:
        return {"p1": self.p1, "p2": self.p2, "p3": self.p3}


def _verdict_for(algebra: Algebra, u: Subspace, k: Subspace, name: str) -> Verdict:
    by_ideal = algebra.is_ideal(u)
    prods = algebra.basis_products(u, k)
    nonzero = np.any(prods != algebra.field.zero_enc, axis=2)
    by_product = not nonzero.any()
    if by_ideal != by_product:
        raise CriterionDisagreement(
            f"{name}: is_ideal says {by_ideal} but the K(A)-annihilation "
            f"criterion says {by_product}"
        )
    if by_ideal:
        return Verdict(True, None)
    # argwhere lists pairs in row-major order: the first u row, then k row
    s, t = (int(i) for i in np.argwhere(nonzero)[0])
    return Verdict(False, Witness(u.basis[s].copy(), k.basis[t].copy(), prods[s, t].copy()))


@memoised("property_verdicts")
def property_verdicts(algebra: Algebra) -> PropertyVerdicts:
    """Is J(Z(A)) / soc(Z(A)) / R(A) an ideal of A?

    Each verdict is computed both by the direct two-sided ideal test and by
    the product-with-K(A)-vanishes criterion; the two must agree.
    """
    k = algebra.commutator_space()
    return PropertyVerdicts(
        p1=_verdict_for(algebra, j_of_center(algebra), k, "p1"),
        p2=_verdict_for(algebra, soc_of_center(algebra), k, "p2"),
        p3=_verdict_for(algebra, reynolds(algebra), k, "p3"),
    )
