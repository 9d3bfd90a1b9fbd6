"""Radical certificates, socles, center substructures and ideal verdicts.

Every verdict rests on one verified object, J(A), and one rule certifies
it: a subspace N is J(A) when N is a nilpotent two-sided ideal and A/N is
semisimple.  ``_certify`` checks the first half always; A/N is certified
semisimple by codimension 1 (A/N is then the field), by a nondegenerate
trace form tr(L_xy) on A/N, or by the theorem behind the candidate:

* propagated -- a construction (tensor, trivial extension, quotient,
  opposite) derives the radical of its output from its inputs' radicals
  when first asked; without them the output falls through to the rest;
* hinted_local / hinted_general / semisimple_traceform -- the caller's
  hint names the candidate (the non-identity coordinates, explicit
  vectors, or zero), and codimension 1 or the trace form certifies A/N;
* dickson -- over char 0 or char p > dim A, J(A) is exactly the radical of
  the trace form of the regular representation.

When nothing applies the engine raises RadicalUnavailable instead of
guessing; ``radical_or_none`` is the one place that turns that into None.

The certificate, with its strategy and evidence, belongs to the view: two
views of one table may reach J(A) by different routes, or one may not
reach it at all.  What ``_certify`` finds for a candidate depends only on
the table, so its outcome is kept on the table's core, as is the one
certified J(A); a view that certifies a different subspace is an internal
error.  The facts derived from J(A) (socle, J(Z), soc(Z), R(A) and the
verdicts) are kept on the core too, and a view reads them only after its
own radical has been certified.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, form_gram, memoised, quotient_data
from .errors import (
    CriterionDisagreement,
    HintRejected,
    InternalCheckError,
    RadicalUnavailable,
)
from .linalg import Subspace, contains, kernel, kernel_on, rank, subspace_intersect
from .fields import FieldDescriptor


@dataclass(frozen=True)
class RadicalHint:
    """Caller-supplied radical knowledge, verified before use.

    kind is one of 'local_codim1' (the non-identity part of the basis spans
    a nilpotent ideal), 'basis' (explicit spanning vectors) or 'semisimple'.
    """

    kind: str
    vectors: tuple | None = None


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


def trace_gram(field: FieldDescriptor, table: np.ndarray) -> np.ndarray:
    """Gram matrix of (x, y) -> tr(L_{xy}) on the given structure table."""
    n = table.shape[0]
    # tr(L_{e_m}) is the run m of the diagonal entries table[m, k, k]
    diag = np.diagonal(table, axis1=1, axis2=2).reshape(-1)
    return form_gram(field, table, field.a_sum_runs(diag, np.arange(0, n * n, n)))


def _certify(algebra: Algebra, sub: Subspace, fail, top_reason: str | None):
    """Raise fail(reason) unless sub is J(A).

    sub must be a nilpotent two-sided ideal, and A/sub semisimple: by
    codimension 1, or by a nondegenerate trace form on A/sub.  top_reason
    is None when the caller's theorem already makes A/sub semisimple.  The
    reason (or None) is kept on the core per candidate and top_reason; a
    certified sub becomes the table's J(A), which is unique.
    """
    reason = _failure(algebra, sub, top_reason)
    if reason is not None:
        raise fail(reason)
    facts = algebra._core.facts
    if facts.setdefault("radical", sub) != sub:
        raise InternalCheckError(
            f"certified radical of dimension {sub.dim} differs from the "
            f"table's J(A) of dimension {facts['radical'].dim}")


@memoised("certify")
def _failure(algebra: Algebra, sub: Subspace, top_reason: str | None) -> str | None:
    """Why sub is not certified as J(A), or None; see ``_certify``."""
    if not algebra.is_ideal(sub):
        return "span is not an ideal"
    if not is_nilpotent_ideal(algebra, sub):
        return "span is not nilpotent"
    if top_reason is None or algebra.dim - sub.dim == 1:
        return None
    f = algebra.field
    qtable = quotient_data(algebra, sub)[0]
    if rank(f, trace_gram(f, qtable)) < qtable.shape[0]:
        return top_reason
    return None


def _hint_span(algebra: Algebra, hint: RadicalHint) -> Subspace:
    """The candidate radical a hint names."""
    f, n = algebra.field, algebra.dim
    if hint.kind == "semisimple":
        return algebra.zero_space()
    if hint.kind == "local_codim1":
        if hint.vectors is not None:
            sub = Subspace.from_rows(f, n, list(hint.vectors))
        else:
            skip = int(np.nonzero(algebra.one != f.zero_enc)[0][0])
            sub = Subspace.from_rows(f, n, np.delete(f.eye(n), skip, axis=0))
        if sub.dim != n - 1:
            raise HintRejected(
                f"local_codim1 hint rejected: span has dimension {sub.dim}, "
                f"expected {n - 1}"
            )
        return sub
    if hint.kind == "basis":
        if hint.vectors is None:
            raise HintRejected("basis hint requires explicit vectors")
        return Subspace.from_rows(f, n, list(hint.vectors))
    raise HintRejected(f"unknown hint kind {hint.kind!r}")


def radical(algebra: Algebra) -> RadicalCertificate:
    """Verified Jacobson radical; strategy order: propagated, hinted, dickson.

    Kept per view, in ``algebra._cache["radical_cert"]``; a call that
    raises stores nothing."""
    cache = algebra._cache
    if "radical_cert" not in cache:
        cache["radical_cert"] = _radical(algebra)
    return cache["radical_cert"]


def _radical(algebra: Algebra) -> RadicalCertificate:
    seed = None if algebra._radical_seed is None else algebra._radical_seed()
    if seed is not None:
        sub, evidence = seed
        _certify(algebra, sub, lambda _: InternalCheckError(
            "propagated radical failed verification: " + evidence), None)
        return RadicalCertificate(sub, "propagated", evidence)
    hint = algebra.radical_hint
    if hint is not None:
        sub = _hint_span(algebra, hint)
        semisimple = hint.kind == "semisimple"
        _certify(
            algebra, sub, lambda why: HintRejected(f"{hint.kind} hint rejected: {why}"),
            "trace form tr(L_xy) is degenerate" if semisimple else
            "trace form on the quotient is degenerate, so semisimplicity of A/N "
            "is not certified",
        )
        if semisimple:
            return RadicalCertificate(
                sub, "semisimple_traceform",
                "trace form of the regular representation is nondegenerate",
            )
        if sub.dim == algebra.dim - 1:
            return RadicalCertificate(
                sub, "hinted_local",
                "nilpotent two-sided ideal of codimension 1 in a unital algebra",
            )
        return RadicalCertificate(
            sub, "hinted_general",
            "nilpotent two-sided ideal with nondegenerate trace form on the quotient",
        )
    f, p = algebra.field, algebra.field.characteristic
    if p == 0 or p > algebra.dim:
        j = kernel(f, trace_gram(f, algebra.table))
        _certify(algebra, j, lambda _: InternalCheckError(
            "trace-form radical failed verification"), None)
        return RadicalCertificate(
            j,
            "dickson",
            f"radical of the trace form tr(L_xy) (char {p or 0} vs dim {algebra.dim})",
        )
    raise RadicalUnavailable(
        "no radical strategy applies: no propagated radical, no hint, and "
        f"char {p} <= dim {algebra.dim} rules out the trace-form criterion"
    )


def radical_or_none(algebra: Algebra) -> RadicalCertificate | None:
    """The verified radical, or None when no strategy applies."""
    try:
        return radical(algebra)
    except RadicalUnavailable:
        return None


def verify_certificate(algebra: Algebra, cert: RadicalCertificate) -> bool:
    """Re-check the certificate invariants (used by the test suite)."""
    return algebra.is_ideal(cert.radical) and is_nilpotent_ideal(algebra, cert.radical)


# -- derived substructures ---------------------------------------------------


def _given_radical(key: str):
    """``memoised(key)`` for a fact derived from J(A), read only once the
    view's own radical is certified: the view's J(A) is then the core's."""
    def decorate(fn):
        shared = memoised(key)(fn)

        @functools.wraps(fn)
        def wrapper(algebra):
            radical(algebra)
            return shared(algebra)
        return wrapper
    return decorate


@_given_radical("socle")
def socle(algebra: Algebra) -> Subspace:
    """Right annihilator of the radical (the left socle)."""
    return algebra.right_annihilator(radical(algebra).radical)


@_given_radical("j_of_center")
def j_of_center(algebra: Algebra) -> Subspace:
    """J(Z(A)) = J(A) intersected with Z(A)."""
    return subspace_intersect(radical(algebra).radical, algebra.center())


def annihilator_in_center(algebra: Algebra, v: Subspace) -> Subspace:
    """{z in Z(A) : z v = 0 for all v in the given subspace}."""
    z = algebra.center()
    return kernel_on(z, algebra.basis_products(z, v))


@_given_radical("soc_of_center")
def soc_of_center(algebra: Algebra) -> Subspace:
    """Annihilator of J(Z(A)) inside Z(A) (two-sided by commutativity of Z)."""
    return annihilator_in_center(algebra, j_of_center(algebra))


@_given_radical("reynolds")
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


@_given_radical("property_verdicts")
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
