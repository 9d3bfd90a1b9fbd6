"""Symmetrizing forms, orthogonal complements, and symmetric quotients.

A symmetrizing form lambda turns subspace identities into orthogonality
statements: K(A)^perp = Z(A), soc(A)^perp = J(A), and so on.  For central
z, the quotient A/(Az)^perp is again symmetric, with the section
nu*(xbar) = xz transporting centers and socles back into A.
"""

from symcenter import (
    check_nustar_relations,
    j_of_center,
    perp,
    radical,
    socle,
    symmetric_gram,
    symmetric_quotient,
)
from symcenter.corpus import get

a = get("dim12_sharp")
assert symmetric_gram(a) is not None   # raises if the form is not symmetrizing
print("the form lambda(M^6) = 1, lambda(other words) = 0 is verified")
print("symmetric: Gram matrix is symmetric and invertible")
print()

k, z = a.commutator_space(), a.center()
print("K(A)^perp == Z(A): ", perp(a, k) == z)
print("soc(A)^perp == J(A):", perp(a, socle(a)) == radical(a).radical)
print()

print("symmetric quotients by central elements:")
for label in ("M^6", "M^4", "M^2"):
    w = symmetric_quotient(a, a.monomial(label))
    print(f"  z = {label:4s} -> ideal dim {w.ideal.dim:2d}, "
          f"quotient dim {w.quotient.dim:2d}")
print()

w = symmetric_quotient(a, a.monomial("M^2"))
print("for z = M^2 the section nu* satisfies, exactly:")
rep = check_nustar_relations(w)
print("  nu*(Z(Abar)) == Z(A) ∩ Az:                 ", rep.center_image_equal)
print("  nu*(J(Z(Abar))) == Z(A) ∩ nu^-1(soc)^perp: ", rep.jz_image_equal)
print("  nu*(J(Z(Abar))) ⊆ J(Z(A)) ∩ Az:            ", rep.jz_image_contained)
print("  nu*(soc(Z(Abar))) ⊆ soc(Z(A)):             ", rep.socz_image_contained)
print()
print("adjoint identity beta(nu*(xbar), y) == beta_bar(xbar, nu(y)):",
      w.adjoint_identity_holds())
print("nu* injective:", w.nu_star_injective())
print()
print("The dim-8 quotient is itself symmetric local, and its J(Z) is an")
print("ideal (dimension below 12, where the bound theorem applies):")
from symcenter import property_verdicts

print("p1 of the quotient:", property_verdicts(w.quotient).p1.holds)
