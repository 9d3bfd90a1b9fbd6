"""Symmetrizing forms, orthogonal complements and symmetric quotients.

A symmetrizing form is a linear form lambda whose associated bilinear form
beta(a, b) = lambda(ab) is symmetric and nondegenerate.  It is part of the
algebra's data, ``Algebra.sym_form``: another form means another algebra.
Orthogonal complements under beta swap ideals with their annihilators.

``symmetrize`` builds every symmetric quotient: for any linear form mu
that kills K(A), I_mu = {x : mu(xA) = 0} is an ideal and A/I_mu is
symmetric with the induced form.  For central z and mu = lambda(. z),
I_mu = (Az)^perp: these are exactly the quotients of A that remain
symmetric, and come with an injective A-bimodule section x+I -> xz.

Each form is reduced once per table: ``_form`` keeps one fact per form mu
on the table's core (``memoised``, keyed by the form's coordinates), I_mu
with the Gram matrix when I_mu = 0, so every view of the table with an
equal form shares it.  ``verify_symmetric`` accepts lambda when I_lambda = 0
and ``symmetrize`` reads I_mu there, so A/(A 1)^perp of a verified form
reduces no Gram matrix again.  The table of A/I_mu is built once per
ideal, by ``quotient_core``, however many forms share the ideal.

Each z is taken once per (table, form, z): ``symmetric_ideal`` keeps I_mu
with mu = lambda(. z) on the table's core, keyed by the coordinates of the
view's form and of z, after the centrality test and the check of lambda,
and reads I_mu from ``_form``.  Each call of ``symmetrize`` or
``symmetric_quotient`` still builds one new quotient view, with its own
name and form, and ``symmetric_quotient`` a new QuotientWitness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import Algebra, form_gram, memoised, quotient_core
from .errors import (
    CentralityViolated,
    Degenerate,
    InternalCheckError,
    NotSymmetricForm,
)
from .linalg import Subspace, contains, kernel, rank, subspace_intersect
from .substructures import j_of_center, soc_of_center, socle


@memoised("form")
def _form(algebra: Algebra, mu: np.ndarray) -> tuple[np.ndarray | None, Subspace]:
    """The Gram matrix mu(e_i e_j) and I_mu, its kernel, for a linear form
    mu; raises NotSymmetricForm unless the Gram matrix is symmetric.  The
    Gram matrix is kept, read-only, only when I_mu = 0 (a form that
    verifies); otherwise it is None."""
    gram = form_gram(algebra, mu)
    if not np.all(gram == gram.T):
        i, j = (int(v) for v in np.argwhere(gram != gram.T)[0])
        raise NotSymmetricForm(
            f"lambda(e_{i} e_{j}) != lambda(e_{j} e_{i}); "
            "the form does not vanish on the commutator space"
        )
    ideal = kernel(algebra.field, gram)
    if ideal.dim:
        return None, ideal
    gram.setflags(write=False)
    return gram, ideal


def verify_symmetric(algebra: Algebra) -> np.ndarray:
    """The Gram matrix lambda(e_i e_j) of the algebra's form; raises unless
    the algebra has a form and it is symmetrizing."""
    if algebra.sym_form is None:
        raise NotSymmetricForm(f"{algebra!r} carries no symmetrizing form")
    gram, ideal = _form(algebra, algebra.sym_form)
    if ideal.dim:
        raise Degenerate(
            f"Gram matrix has rank {algebra.dim - ideal.dim} < {algebra.dim}; "
            "the kernel of lambda contains a nonzero one-sided ideal"
        )
    return gram


def symmetric_gram(algebra: Algebra) -> np.ndarray | None:
    """The verified Gram matrix of the algebra's form; None if it has none."""
    return None if algebra.sym_form is None else verify_symmetric(algebra)


def perp(algebra: Algebra, x: Subspace) -> Subspace:
    """Orthogonal complement {a : beta(a, v) = 0 for v in x} under beta."""
    gram = verify_symmetric(algebra)
    algebra._check_subspace(x)
    return kernel(algebra.field, algebra.field.matmul2(x.basis, gram.T))


def symmetrize(algebra: Algebra, mu) -> tuple[Subspace, Algebra]:
    """I_mu and A/I_mu with the induced form, for a linear form mu that
    kills K(A); raises NotSymmetricForm when mu(e_i e_j) is not symmetric."""
    mu = algebra._coords_of(mu)
    ideal = _form(algebra, mu)[1]
    return ideal, _quotient_view(algebra, ideal, mu, f"({algebra.name or 'A'})/I_mu")


def _quotient_view(algebra: Algebra, ideal: Subspace, mu: np.ndarray, name: str) -> Algebra:
    """One new view of A/I_mu (``quotient_core``), named ``name``, with the
    labels and the induced form mu on the complement columns; raises
    InternalCheckError unless that form is symmetrizing."""
    comp = ideal.complement_columns()
    labels = None if algebra.labels is None else [algebra.labels[c] for c in comp]
    quotient = Algebra(algebra.field, None, None, labels=labels, sym_form=mu[comp],
                       name=name, _core=quotient_core(algebra, ideal))
    try:
        symmetric_gram(quotient)
    except (NotSymmetricForm, Degenerate) as exc:
        raise InternalCheckError(
            f"symmetric quotient lost its form, which cannot happen: {exc}"
        ) from exc
    return quotient


@dataclass(frozen=True)
class QuotientWitness:
    """The symmetric quotient A/(Az)^perp with its transfer maps.

    The quotient is coordinatised on the non-pivot columns of the ideal's
    RREF basis, which makes everything canonical: the projection nu is
    ``ideal.quotient_coords``, its section ``ideal.lift_coords``, and
    nu*(xbar) is the lift of xbar times z.  The forms are
    ``algebra.sym_form`` and ``quotient.sym_form``.
    """

    algebra: Algebra
    z: np.ndarray
    ideal: Subspace
    quotient: Algebra

    @cached_property
    def az_rows(self) -> np.ndarray:
        """The rows e_j z, found on the first read and kept (read-only)."""
        rows = self.algebra.right_products(self.z[None, :])[0]
        rows.setflags(write=False)
        return rows

    @property
    def az(self) -> Subspace:
        """The left ideal Az, spanned by the rows e_j z; canonicalised on each read."""
        return Subspace.from_rows(self.algebra.field, self.algebra.dim, self.az_rows)

    def nu_star_rows(self, rows: np.ndarray) -> np.ndarray:
        """nu*(xbar) = (any lift of xbar) * z; well defined since I*z = 0."""
        return self.algebra.field.matmul2(self.ideal.lift_coords(rows), self.az_rows)

    def nu_star(self, xbar) -> np.ndarray:
        coords = self.quotient._coords_of(xbar)
        return self.nu_star_rows(coords.reshape(1, -1))[0]

    def nu_star_subspace(self, u: Subspace) -> Subspace:
        return Subspace.from_rows(self.algebra.field, self.algebra.dim,
                                  self.nu_star_rows(u.basis))

    def adjoint_identity_holds(self) -> bool:
        """beta(nu*(xbar), y) == beta_bar(xbar, nu(y)) on all basis pairs."""
        f = self.algebra.field
        d = self.quotient.dim
        nu_rows = self.nu_star_rows(f.eye(d))
        lhs = f.matmul2(nu_rows, symmetric_gram(self.algebra))
        proj = self.ideal.quotient_coords(f.eye(self.algebra.dim))
        rhs = f.matmul2(symmetric_gram(self.quotient), proj.T)
        return bool(np.all(lhs == rhs))

    def nu_star_injective(self) -> bool:
        f = self.algebra.field
        d = self.quotient.dim
        return rank(f, self.nu_star_rows(f.eye(d))) == d


@memoised("symmetric ideal")
def _symmetric_ideal(algebra: Algebra, form, z: np.ndarray) -> tuple[Subspace, np.ndarray]:
    """(I_mu, mu) for the view's form (``form``, keying the memo) and z."""
    if not algebra.center().contains_vector(z):
        raise CentralityViolated("symmetric quotients require a central element")
    # lambda must be symmetrizing, which makes mu = lambda(. z) kill K(A);
    # z is central, so mu(e_j) = lambda(z e_j) = (z G)_j on the Gram matrix G
    mu = algebra.field.matmul2(z[None, :], verify_symmetric(algebra))[0]
    mu.setflags(write=False)
    return _form(algebra, mu)[1], mu


def symmetric_ideal(algebra: Algebra, z) -> tuple[Subspace, np.ndarray]:
    """I_mu = (Az)^perp and mu = lam(. z) (read-only) for central z, computed
    once per table, form and z; raises unless z is central and the
    algebra's form is symmetrizing."""
    return _symmetric_ideal(algebra, algebra.sym_form, algebra._coords_of(z))


def symmetric_quotient(algebra: Algebra, z) -> QuotientWitness:
    """A/(Az)^perp = A/I_mu for mu = lam(. z), with its verified
    symmetrizing form: a new view per call of a table built once per
    table and I_mu."""
    z = algebra._coords_of(z).copy()
    ideal, mu = symmetric_ideal(algebra, z)
    return QuotientWitness(algebra, z, ideal, _quotient_view(
        algebra, ideal, mu, (algebra.name or "A") + "/(Az)^perp"))


@dataclass(frozen=True)
class NuStarReport:
    """Outcome of the three transfer identities for a symmetric quotient."""

    center_image_equal: bool
    jz_image_equal: bool
    jz_image_contained: bool
    socz_image_contained: bool

    def all_hold(self) -> bool:
        return all(vars(self).values())


def check_nustar_relations(witness: QuotientWitness) -> NuStarReport:
    """Exact subspace identities satisfied by the section nu*.

    (i)   nu*(Z(Abar)) = Z(A) ∩ Az
    (ii)  nu*(J(Z(Abar))) = Z(A) ∩ nu^{-1}(soc(Abar))^perp, contained in
          J(Z(A)) ∩ Az
    (iii) nu*(soc(Z(Abar))) contained in soc(Z(A))
    """
    a = witness.algebra
    q = witness.quotient
    az = witness.az
    z_a = a.center()
    img_center = witness.nu_star_subspace(q.center())
    center_ok = img_center == subspace_intersect(z_a, az)

    img_jz = witness.nu_star_subspace(j_of_center(q))
    # nu^{-1}(soc(Abar)) = ideal + the lift of soc(Abar)
    ideal = witness.ideal
    pre = Subspace.from_rows(a.field, a.dim, np.concatenate(
        [ideal.basis, ideal.lift_coords(socle(q).basis)]))
    rhs = subspace_intersect(z_a, perp(a, pre))
    jz_equal = img_jz == rhs
    bound = subspace_intersect(j_of_center(a), az)
    jz_contained = contains(bound, img_jz)

    img_socz = witness.nu_star_subspace(soc_of_center(q))
    socz_ok = contains(soc_of_center(a), img_socz)

    return NuStarReport(
        center_image_equal=center_ok,
        jz_image_equal=jz_equal,
        jz_image_contained=jz_contained,
        socz_image_contained=socz_ok,
    )
