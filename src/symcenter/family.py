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
verified to be symmetric and local before being admitted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .algebra import Algebra
from .constructions import SkewPresentation, from_skew_presentation, tensor, trivial_extension
from .corpus import ENTRY_IDS, get
from .errors import InternalCheckError
from .fields import GF
from .substructures import is_local, j_of_center
from .symmetric import symmetric_gram, symmetric_ideal, symmetric_quotient

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


@functools.cache
def _truncated_polynomial_base(p: int, bounds: tuple[int, ...]) -> FamilyMember:
    name = f"B_gf{p}_" + ("x".join(str(b) for b in bounds) or "1")
    alg = from_skew_presentation(GF(p), SkewPresentation.commuting(bounds), name=name)
    return FamilyMember(name, alg)


def commutative_local_bases(max_base_dim: int) -> list[FamilyMember]:
    """Truncated polynomial algebras F[x_i]/(x_i^{b_i}) over GF(2), GF(3).

    Each base is built once per process and shared by every caller.
    """
    return [_truncated_polynomial_base(p, bounds)
            for p in (2, 3) for bounds in _bound_tuples(max_base_dim)]


def symmetric_local_corpus_ids() -> list[str]:
    """Corpus entries that carry a symmetrizing form and are local."""
    return [entry_id for entry_id in ENTRY_IDS
            if symmetric_gram(get(entry_id)) is not None and is_local(get(entry_id))]


def _admit(members: list, member: FamilyMember):
    a = member.algebra
    if a.dim > FAMILY_MAX_DIM:
        return
    if symmetric_gram(a) is None:
        raise InternalCheckError(f"family member {member.member_id} has no form")
    if not is_local(a):
        raise InternalCheckError(f"family member {member.member_id} is not local")
    members.append(member)


@functools.cache
def generate_symmetric_local_family() -> list[FamilyMember]:
    """The deterministic verified family, in a fixed construction order;
    built once per process."""
    members: list[FamilyMember] = []
    # bases of dim <= FAMILY_MAX_DIM // 2, so every T(B) is within the bound
    trivexts = [FamilyMember(f"T({base.member_id})", trivial_extension(base.algebra))
                for base in commutative_local_bases(FAMILY_MAX_DIM // 2)]
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
            q = symmetric_quotient(t, row).quotient
            _admit(members, FamilyMember(f"{member.member_id}/dim{dim}", q))
    for entry_id in symmetric_local_corpus_ids():
        a = get(entry_id)
        for idx, row in enumerate(j_of_center(a).basis):
            witness = symmetric_quotient(a, row)
            q = witness.quotient
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
