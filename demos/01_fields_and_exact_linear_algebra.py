"""Exact scalars and exact linear algebra.

Everything in symcenter is computed over an exact field: a prime field
GF(p), an extension field GF(p^k) given by a monic irreducible modulus, or
the rationals with arbitrary-precision fractions.  There is no floating
point anywhere in the results; fast float64 matrix kernels are used only
where every intermediate integer is provably below 2**53.
"""

from fractions import Fraction

from symcenter import (
    GF,
    QQ,
    FieldScalar,
    Subspace,
    element_of_order,
    gf25,
    kernel,
    rref_data,
    subspace_intersect,
    subspace_sum,
)

print("-- scalars ------------------------------------------------------")
g3 = GF(3)
print("in GF(3):        2 + 2 =", g3.scalar(2) + g3.scalar(2))
print("in Q:        1/2 * 2/3 =", QQ.scalar(Fraction(1, 2)) * QQ.scalar(Fraction(2, 3)))

f25 = gf25()  # GF(25) = GF(5)[t]/(t^2 + 2), the shipped default modulus
t = FieldScalar(f25, f25.coeffs_to_enc([0, 1]))
print("in GF(25):       t * t =", t * t, " (the modulus forces t^2 = -2 = 3)")

q = element_of_order(f25, 24)
print("element of multiplicative order 24 in GF(25):", q,
      "-> order", q.multiplicative_order())

print()
print("-- matrices and subspaces ---------------------------------------")
# a matrix is a plain 2-D array of encoded field values
r, pivots = rref_data(QQ, QQ.arr([[1, 2], [2, 4]]))
rows = "; ".join("[" + ", ".join(QQ.format_enc(v) for v in row) + "]" for row in r)
print("rref over Q of [[1,2],[2,4]]:", rows, " rank", len(pivots))

g2 = GF(2)
k = kernel(g2, g2.arr([[1, 1]]))
print("kernel of [1 1] over GF(2):", k, "basis", k.basis.tolist())

u = Subspace.from_rows(g3, 4, [[1, 0, 2, 0], [0, 1, 1, 1]])
v = Subspace.from_rows(g3, 4, [[1, 1, 0, 1]])
s = subspace_sum(u, v)
i = subspace_intersect(u, v)
print("dim u =", u.dim, " dim v =", v.dim,
      " dim(u+v) =", s.dim, " dim(u∩v) =", i.dim)
print("dimension formula holds:", s.dim + i.dim == u.dim + v.dim)

print()
print("Subspaces are stored as reduced-row-echelon bases, so equal spaces")
print("compare equal as plain arrays:")
w = Subspace.from_rows(g3, 4, [[1, 1, 0, 1], [2, 2, 0, 2]])
print("span{[1,1,0,1]} == span{[1,1,0,1],[2,2,0,2]}:", v == w)
