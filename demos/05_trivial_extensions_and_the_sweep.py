"""Trivial extensions and the dimension-bound sweep.

T(A) = A + A* is always symmetric.  Whether soc(Z(T)) is an ideal of T is
controlled entirely inside A by two subspaces:

    i = K(A) + A*J(Z(A))     and     s = {b in soc(Z(A)) : Ab ⊆ K(A)},

and (P2) for T holds iff both are ideals of A.  The 10-dimensional char-2
algebra below fails the criterion, giving a 20-dimensional symmetric local
algebra whose soc(Z) is not an ideal, while the generated family shows no
violation at dimension <= 16.
"""

from symcenter import property_verdicts, trivext_criteria, trivial_extension
from symcenter.corpus import get
from symcenter.family import dimension_histogram, generate_symmetric_local_family

a = get("soc20_base")
print(a)
print("relations verified from the matrices: N M = M^2 + MN + M^3 + M^2 N,")
print("M^4 N = M^5, M^6 = N^2 = 0")
print()

crit = trivext_criteria(a)
print("K(A) is an ideal:          ", crit.k_is_ideal)
print("i = K + A*J(Z) is an ideal:", crit.i_is_ideal)
print("s-subspace is an ideal:    ", crit.s_is_ideal)
print("predicted (P2) for T(A):   ", crit.p2_prediction)
print()

t = trivial_extension(a)
v = property_verdicts(t)
print(t, "-> direct computation: (P2) holds:", v.p2.holds)
print("witness:", v.p2.witness.describe(t))
print()

print("-- the family sweep ----------------------------------------------")
members = generate_symmetric_local_family()
print(f"{len(members)} verified symmetric local algebras")
print("dimension histogram:", dimension_histogram(members))
bad_p1 = [m.member_id for m in members
          if m.algebra.dim <= 11 and not property_verdicts(m.algebra).p1.holds]
bad_p2 = [m.member_id for m in members
          if m.algebra.dim <= 16 and not property_verdicts(m.algebra).p2.holds]
print("members of dim <= 11 violating (P1):", bad_p1 or "none")
print("members of dim <= 16 violating (P2):", bad_p2 or "none")
print()
print("The two corpus violators sit just above these bounds: the dim-12")
print("example fails (P1) and the dim-20 trivial extension fails (P2).")
