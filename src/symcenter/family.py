"""Deterministic family of verified symmetric local algebras.

Used to test the dimension-bound statements at instance level: every member
of dimension <= 11 must satisfy (P1) and every member of dimension <= 16
must satisfy (P2).  The family combines

  (a) trivial extensions T(B) of commutative local truncated polynomial
      algebras B over GF(2) and GF(3),
  (b) symmetric quotients T(B)/(Tz)^perp of those (one per quotient
      dimension and member, z running over a J(Z) basis; dim I_mu is read
      first, by ``symmetric_ideal``, and a quotient is built only for a
      dimension not yet taken),
  (c) symmetric quotients of the corpus symmetric local algebras for every
      basis vector z of J(Z(A)), and
  (d) tensor products of pairs from (a) over the same field,

all of dimension at most ``FAMILY_MAX_DIM``, the (P2) bound, and each
verified to be symmetric and local before being admitted.  A paper-suite
run builds the family and its bases once, in its ``lemmas.ScopeRegistry``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra
from .constructions import SkewPresentation, from_skew_presentation, tensor, trivial_extension
from .corpus import ENTRY_IDS, get, is_symmetric_local
from .errors import InternalCheckError
from .fields import GF
from .substructures import j_of_center
from .symmetric import symmetric_ideal

FAMILY_MAX_DIM = 16


@dataclass(frozen=True)
class FamilyMember:
    member_id: str
    algebra: Algebra


def _bound_tuples(max_product: int):
    """Nondecreasing tuples of truncation bounds >= 2 with bounded product."""
    out = [()]
    def extend(prefix, prod, minimum):
        for b in range(minimum, max_product + 1):
            if prod * b > max_product:
                break
            nxt = prefix + (b,)
            out.append(nxt)
            extend(nxt, prod * b, b)
    extend((), 1, 2)
    return out


def commutative_local_bases(max_base_dim: int) -> list[FamilyMember]:
    """Truncated polynomial algebras F[x_i]/(x_i^{b_i}) over GF(2), GF(3),
    built anew on each call (a paper-suite run reads them once)."""
    bases = []
    for p in (2, 3):
        for bounds in _bound_tuples(max_base_dim):
            name = f"B_gf{p}_" + ("x".join(str(b) for b in bounds) or "1")
            alg = from_skew_presentation(GF(p), SkewPresentation.commuting(bounds), name=name)
            bases.append(FamilyMember(name, alg))
    return bases


def _admit(members: list, member: FamilyMember):
    if member.algebra.dim > FAMILY_MAX_DIM:
        return
    if not is_symmetric_local(member.algebra):
        raise InternalCheckError(f"family member {member.member_id} is not symmetric local")
    members.append(member)


def generate_symmetric_local_family(bases: list[FamilyMember], witness) -> list[FamilyMember]:
    """The deterministic verified family on ``bases``, in a fixed construction
    order, taking each symmetric quotient as ``witness(name, algebra, z)``."""
    members: list[FamilyMember] = []
    # bases of dim <= FAMILY_MAX_DIM // 2, so every T(B) is within the bound
    trivexts = [FamilyMember(f"T({base.member_id})", trivial_extension(base.algebra))
                for base in bases if base.algebra.dim <= FAMILY_MAX_DIM // 2]
    for member in trivexts:
        _admit(members, member)
    for member in trivexts:
        t = member.algebra
        dims_taken = set()
        for row in j_of_center(t).basis:
            dim = t.dim - symmetric_ideal(t, row)[0].dim
            if dim in dims_taken:
                continue
            dims_taken.add(dim)
            q = witness(member.member_id, t, row).quotient
            _admit(members, FamilyMember(f"{member.member_id}/dim{dim}", q))
    for entry_id in [e for e in ENTRY_IDS if is_symmetric_local(get(e))]:
        a = get(entry_id)
        for idx, row in enumerate(j_of_center(a).basis):
            q = witness(entry_id, a, row).quotient
            _admit(members, FamilyMember(f"{entry_id}/z{idx}_dim{q.dim}", q))
    for i, left in enumerate(trivexts):
        for right in trivexts[i:]:
            if left.algebra.field != right.algebra.field:
                continue
            if left.algebra.dim * right.algebra.dim > FAMILY_MAX_DIM:
                continue
            prod = tensor(left.algebra, right.algebra)
            _admit(members, FamilyMember(f"{left.member_id}(x){right.member_id}", prod))
    return members


def dimension_histogram(members: list[FamilyMember]) -> dict[int, int]:
    hist: dict[int, int] = {}
    for m in members:
        hist[m.algebra.dim] = hist.get(m.algebra.dim, 0) + 1
    return dict(sorted(hist.items()))
