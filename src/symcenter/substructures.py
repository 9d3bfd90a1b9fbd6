"""Radical certificates, socles, center substructures and ideal verdicts.

The radical engine only ever returns *verified* answers.  The strategies it
knows are:

* propagated -- a construction (tensor, trivial extension, quotient) knows
  the radical of its output from the radicals of its inputs;
* hinted -- the caller asserts the radical and we verify the assertion:
  a codimension-1 nilpotent ideal is the radical of a unital algebra, and
  a nilpotent ideal with nondegenerate trace form on the quotient is the
  radical in any characteristic (the radical maps into the form's radical);
* semisimple -- a nondegenerate trace form on A itself certifies J = 0;
* dickson -- over char 0 or char p > dim A, J(A) is exactly the radical of
  the trace form of the regular representation.

When nothing applies the engine raises RadicalUnavailable instead of
guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, quotient_data
from .errors import (
    CriterionDisagreement,
    HintRejected,
    InternalCheckError,
    RadicalUnavailable,
)
from .linalg import Subspace, contains, kernel, rank, subspace_intersect
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
    traces = field.zeros(n)
    for m in range(n):
        acc = field.zero_enc
        for k in range(n):
            acc = field.s_add(acc, table[m, k, k])
        traces[m] = acc
    return field.tensordot_lf(table, traces.reshape(n, 1)).reshape(n, n)


def radical(algebra: Algebra) -> RadicalCertificate:
    """Verified Jacobson radical; strategy order: propagated, hinted, dickson."""
    cached = algebra._cache.get("radical_cert")
    if cached is not None:
        return cached
    cert = _compute_radical(algebra)
    algebra._cache["radical_cert"] = cert
    return cert


def _compute_radical(algebra: Algebra) -> RadicalCertificate:
    seed = algebra._radical_seed
    if seed is not None:
        sub, evidence = seed
        if not algebra.is_ideal(sub) or not is_nilpotent_ideal(algebra, sub):
            raise InternalCheckError(
                "propagated radical failed verification: " + evidence
            )
        return RadicalCertificate(sub, "propagated", evidence)
    hint = algebra.radical_hint
    if hint is not None:
        return _radical_from_hint(algebra, hint)
    f = algebra.field
    p = f.characteristic
    if p == 0 or p > algebra.dim:
        gram = trace_gram(f, algebra.table)
        j = kernel(f, gram)
        if not algebra.is_ideal(j) or not is_nilpotent_ideal(algebra, j):
            raise InternalCheckError("trace-form radical failed verification")
        return RadicalCertificate(
            j,
            "dickson",
            f"radical of the trace form tr(L_xy) (char {p or 0} vs dim {algebra.dim})",
        )
    raise RadicalUnavailable(
        "no radical strategy applies: no propagated radical, no hint, and "
        f"char {p} <= dim {algebra.dim} rules out the trace-form criterion"
    )


def _radical_from_hint(algebra: Algebra, hint: RadicalHint) -> RadicalCertificate:
    f, n = algebra.field, algebra.dim
    if hint.kind == "semisimple":
        if rank(f, trace_gram(f, algebra.table)) < n:
            raise HintRejected(
                "semisimple hint rejected: trace form tr(L_xy) is degenerate"
            )
        return RadicalCertificate(
            algebra.zero_space(),
            "semisimple_traceform",
            "trace form of the regular representation is nondegenerate",
        )
    if hint.kind == "local_codim1":
        if hint.vectors is not None:
            sub = Subspace.from_vectors(f, n, list(hint.vectors))
        else:
            nz = np.nonzero(algebra.one != f.zero_enc)[0]
            skip = int(nz[0])
            rows = f.eye(n)
            rows = np.delete(rows, skip, axis=0)
            sub = Subspace.from_rows(f, n, rows)
        if sub.dim != n - 1:
            raise HintRejected(
                f"local_codim1 hint rejected: span has dimension {sub.dim}, "
                f"expected {n - 1}"
            )
        if not algebra.is_ideal(sub):
            raise HintRejected("local_codim1 hint rejected: span is not an ideal")
        if not is_nilpotent_ideal(algebra, sub):
            raise HintRejected("local_codim1 hint rejected: span is not nilpotent")
        return RadicalCertificate(
            sub,
            "hinted_local",
            "nilpotent two-sided ideal of codimension 1 in a unital algebra",
        )
    if hint.kind == "basis":
        if hint.vectors is None:
            raise HintRejected("basis hint requires explicit vectors")
        sub = Subspace.from_vectors(f, n, list(hint.vectors))
        if not algebra.is_ideal(sub):
            raise HintRejected("basis hint rejected: span is not an ideal")
        if not is_nilpotent_ideal(algebra, sub):
            raise HintRejected("basis hint rejected: span is not nilpotent")
        if sub.dim == n - 1:
            return RadicalCertificate(
                sub,
                "hinted_local",
                "nilpotent two-sided ideal of codimension 1 in a unital algebra",
            )
        qtable, _, _, _ = quotient_data(algebra, sub)
        if rank(f, trace_gram(f, qtable)) < qtable.shape[0]:
            raise HintRejected(
                "basis hint rejected: trace form on the quotient is degenerate, "
                "so semisimplicity of A/N is not certified"
            )
        return RadicalCertificate(
            sub,
            "hinted_general",
            "nilpotent two-sided ideal with nondegenerate trace form on the quotient",
        )
    raise HintRejected(f"unknown hint kind {hint.kind!r}")


def verify_certificate(algebra: Algebra, cert: RadicalCertificate) -> bool:
    """Re-check the certificate invariants (used by the test suite)."""
    return algebra.is_ideal(cert.radical) and is_nilpotent_ideal(algebra, cert.radical)


# -- derived substructures ---------------------------------------------------


def socle(algebra: Algebra) -> Subspace:
    """Right annihilator of the radical (the left socle)."""
    key = "socle"
    if key in algebra._cache:
        return algebra._cache[key]
    j = radical(algebra).radical
    s = algebra.right_annihilator(j)
    algebra._cache[key] = s
    return s


def j_of_center(algebra: Algebra) -> Subspace:
    """J(Z(A)) = J(A) intersected with Z(A)."""
    key = "j_of_center"
    if key in algebra._cache:
        return algebra._cache[key]
    jz = subspace_intersect(radical(algebra).radical, algebra.center())
    algebra._cache[key] = jz
    return jz


def annihilator_in_center(algebra: Algebra, v: Subspace) -> Subspace:
    """{z in Z(A) : z v = 0 for all v in the given subspace}."""
    f, n = algebra.field, algebra.dim
    z = algebra.center()
    if v.dim == 0 or z.dim == 0:
        return z
    # z_s v_t summed over s: one equation per (t, coordinate)
    system = algebra.basis_products(z, v).transpose(1, 2, 0).reshape(-1, z.dim)
    alpha = kernel(f, system)
    return Subspace.from_rows(f, n, f.matmul2(alpha.basis, z.basis))


def soc_of_center(algebra: Algebra) -> Subspace:
    """Annihilator of J(Z(A)) inside Z(A) (two-sided by commutativity of Z)."""
    key = "soc_of_center"
    if key in algebra._cache:
        return algebra._cache[key]
    result = annihilator_in_center(algebra, j_of_center(algebra))
    algebra._cache[key] = result
    return result


def reynolds(algebra: Algebra) -> Subspace:
    """R(A) = soc(A) intersected with Z(A)."""
    key = "reynolds"
    if key in algebra._cache:
        return algebra._cache[key]
    r = subspace_intersect(socle(algebra), algebra.center())
    algebra._cache[key] = r
    return r


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


def property_verdicts(algebra: Algebra) -> PropertyVerdicts:
    """Is J(Z(A)) / soc(Z(A)) / R(A) an ideal of A?

    Each verdict is computed both by the direct two-sided ideal test and by
    the product-with-K(A)-vanishes criterion; the two must agree.
    """
    key = "property_verdicts"
    if key in algebra._cache:
        return algebra._cache[key]
    k = algebra.commutator_space()
    result = PropertyVerdicts(
        p1=_verdict_for(algebra, j_of_center(algebra), k, "p1"),
        p2=_verdict_for(algebra, soc_of_center(algebra), k, "p2"),
        p3=_verdict_for(algebra, reynolds(algebra), k, "p3"),
    )
    algebra._cache[key] = result
    return result
