"""Independent naive oracles used to derive expected values.

Everything here is deliberately written with plain Python integers and
lists, independent of the package's numpy-backed linear algebra, so that
derived expected values are frozen against a second implementation.
"""

import json
from fractions import Fraction
from itertools import product

from symcenter.fileformat import field_to_json, scalar_to_json
from symcenter.substructures import radical


def naive_rref_mod(rows, p):
    """Gauss-Jordan over GF(p) on lists of ints; returns (rref, pivots)."""
    m = [[x % p for x in row] for row in rows]
    if not m:
        return [], []
    cols = len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def naive_rank_mod(rows, p):
    return len(naive_rref_mod(rows, p)[1])


def naive_kernel_mod(rows, p):
    """Basis of {x : rows . x = 0} over GF(p)."""
    if not rows:
        return []
    cols = len(rows[0])
    red, pivots = naive_rref_mod(rows, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * cols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-red[i][fc]) % p
        basis.append(vec)
    return basis


def naive_in_span_mod(basis_rows, vec, p):
    before = naive_rank_mod(basis_rows, p) if basis_rows else 0
    after = naive_rank_mod(list(basis_rows) + [list(vec)], p)
    return before == after


def naive_span_contains_mod(basis_rows, other_rows, p):
    return all(naive_in_span_mod(basis_rows, v, p) for v in other_rows)


def naive_spans_equal_mod(rows_a, rows_b, p):
    return (
        naive_rank_mod(rows_a, p) == naive_rank_mod(rows_b, p)
        and naive_span_contains_mod(rows_a, rows_b, p)
    )


def naive_mat_mul_mod(a, b, p):
    n, m = len(a), len(b[0])
    inner = len(b)
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) % p for j in range(m)]
        for i in range(n)
    ]


def naive_rref_frac(rows):
    """Gauss-Jordan over Q with Fractions; returns (rref, pivots)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    cols = len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def naive_kernel_frac(rows):
    """Basis of {x : rows . x = 0} over Q, in Fractions."""
    if not rows:
        return []
    cols = len(rows[0])
    red, pivots = naive_rref_frac(rows)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(vec)
    return basis


def naive_mat_mul_frac(a, b):
    """Product of two list matrices over Q, summed in Fractions."""
    inner = len(b)
    return [[sum((Fraction(a[i][t]) * b[t][j] for t in range(inner)), Fraction(0))
             for j in range(len(b[0]))]
            for i in range(len(a))]


def dense_table(a):
    """The dense n x n x n array of an algebra's structure constants, built
    from its nonzero entries: table[i, j, k] is coefficient k of e_i e_j."""
    ei, ej, ek, val = a.entries
    table = a.field.zeros((a.dim,) * 3)
    table[ei, ej, ek] = val
    return table


def dense_entries(field, table):
    """The entries of an encoded dense n x n x n table, as a core holds
    them: the index arrays i, j, k of its nonzero constants in C order and
    their values."""
    i, j, k = (table != field.zero_enc).nonzero()
    return i, j, k, table[i, j, k]


def reference_emit(alg):
    """The canonical file of an algebra, as ``json.dumps(indent=2)`` gives
    it from the nested document with its dense n x n x n table: the
    reference the emitter's text must equal byte for byte."""
    field, n = alg.field, alg.dim
    doc = {"name": alg.name or "algebra", "field": field_to_json(field)}
    zero = scalar_to_json(field, field.zero_enc)
    table = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, v in zip(*(arr.tolist() for arr in alg.entries)):
        table[i][j][k] = scalar_to_json(field, v)
    pres = {
        "type": "structure_constants",
        "dim": n,
        "table": table,
        "one": [scalar_to_json(field, v) for v in alg.one],
    }
    if alg.labels is not None:
        pres["labels"] = list(alg.labels)
    doc["presentation"] = pres
    doc["radical_hint"] = {
        "kind": "basis",
        "vectors": [[scalar_to_json(field, v) for v in row]
                    for row in radical(alg).radical.basis],
    }
    if alg.sym_form is not None:
        doc["symmetrizing_form"] = [scalar_to_json(field, v) for v in alg.sym_form]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# -- a second, tuple-based implementation of GF(25) = GF(5)[t]/(t^2+2) -------


def gf25_mul(a, b):
    """(a0 + a1 t)(b0 + b1 t) with t^2 = -2, coefficients mod 5."""
    a0, a1 = a
    b0, b1 = b
    return ((a0 * b0 - 2 * a1 * b1) % 5, (a0 * b1 + a1 * b0) % 5)


def gf25_pow(a, e):
    out = (1, 0)
    base = a
    while e:
        if e & 1:
            out = gf25_mul(out, base)
        base = gf25_mul(base, base)
        e >>= 1
    return out


def gf25_order(a):
    n = 1
    acc = a
    while acc != (1, 0):
        acc = gf25_mul(acc, a)
        n += 1
        if n > 25:
            raise AssertionError("order computation ran away")
    return n


def gf25_elements_of_order(n):
    """All elements of exact multiplicative order n, in encoded order a0+5*a1."""
    out = []
    for enc in range(1, 25):
        a = (enc % 5, enc // 5)
        if gf25_order(a) == n:
            out.append(a)
    return out


def gf25_enc_add(a, b):
    """Sum of two GF(25) encodings a0 + 5 a1."""
    return (a % 5 + b % 5) % 5 + 5 * ((a // 5 + b // 5) % 5)


def gf25_enc_mul(a, b):
    """Product of two GF(25) encodings a0 + 5 a1."""
    c0, c1 = gf25_mul((a % 5, a // 5), (b % 5, b // 5))
    return c0 + 5 * c1


# -- three constructions, one vector or one basis pair at a time ----------------


def naive_ideal_closure(table, rows, add, mul, zero, span):
    """The fixpoint u <- u + A u + u A of the span of ``rows``.

    ``table[i][j][k]`` is coefficient k of e_i e_j, as nested lists of field
    values with the arithmetic ``add``/``mul``/``zero``; ``span`` takes a
    list of rows to the RREF basis of their span (a list of rows).
    """
    n = len(table)

    def times(u, left):
        # coefficient k of e_j u (left) or u e_j: sum_i u_i (e_j e_i)_k or (e_i e_j)_k
        out = []
        for j in range(n):
            vec = [zero] * n
            for i in range(n):
                if u[i] == zero:
                    continue
                entry = table[j][i] if left else table[i][j]
                for k in range(n):
                    vec[k] = add(vec[k], mul(u[i], entry[k]))
            out.append(vec)
        return out

    basis = span(list(rows))
    while True:
        grown = list(basis)
        for u in basis:
            grown += times(u, True) + times(u, False)
        grown = span(grown)
        if len(grown) == len(basis):
            return grown
        basis = grown


def naive_skew_table(bounds, q, mul, zero, one):
    """Structure table of x_i^{b_i} = 0, x_j x_i = q[(j, i)] x_i x_j (j > i),
    on the exponent tuples below the bounds, first variable fastest; one
    basis pair at a time.  Missing q pairs commute."""
    exps = [tuple(reversed(t)) for t in product(*(range(b) for b in reversed(bounds)))]
    dim = len(exps)
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for a, ra in enumerate(exps):
        for b, rb in enumerate(exps):
            total = tuple(x + y for x, y in zip(ra, rb))
            if any(t >= bd for t, bd in zip(total, bounds)):
                continue
            coeff = one
            for j in range(len(bounds)):
                for i in range(j):
                    for _ in range(ra[j] * rb[i]):
                        coeff = mul(coeff, q.get((j, i), one))
            table[a][b][exps.index(total)] = coeff
    return table


def naive_matrix_closure(gens, size, p):
    """Unital subalgebra of Mat_size(GF(p)) generated by plain-int matrices:
    a frontier search that multiplies each new matrix by every generator.

    Returns (table, one) on the RREF basis of the span: coefficient r of a
    span element is its entry at the pivot column of basis row r.
    """
    def flat(m):
        return [x % p for row in m for x in row]

    def matrix(v):
        return [v[r * size:(r + 1) * size] for r in range(size)]

    ident = [[int(r == c) for c in range(size)] for r in range(size)]
    rows = [flat(ident)]
    frontier = [ident]
    for g in gens:
        if not naive_in_span_mod(rows, flat(g), p):
            rows.append(flat(g))
            frontier.append(g)
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = naive_mat_mul_mod(m, g, p)
                if not naive_in_span_mod(rows, flat(prod), p):
                    rows.append(flat(prod))
                    new.append(prod)
        frontier = new
    red, pivots = naive_rref_mod(rows, p)
    basis = red[:len(pivots)]

    def coords(v):
        assert naive_in_span_mod(basis, v, p)
        return [v[c] for c in pivots]

    table = [[coords(flat(naive_mat_mul_mod(matrix(x), matrix(y), p))) for y in basis]
             for x in basis]
    return table, coords(flat(ident))


# -- the radical of a linear form ----------------------------------------------------


def naive_form_radical_mod(table, mu, p):
    """I_mu = {x : mu(x e_j) = 0 for all j} over GF(p), as RREF rows.

    ``table[i][j][k]`` is coefficient k of e_i e_j and ``mu[k]`` is mu(e_k),
    all plain ints; the system has one row per j, x -> sum_i x_i mu(e_i e_j).
    """
    n = len(table)
    rows = [[sum(table[i][j][k] * mu[k] for k in range(n)) % p for i in range(n)]
            for j in range(n)]
    basis = naive_kernel_mod(rows, p)
    red, pivots = naive_rref_mod(basis, p)
    return red[:len(pivots)]


# -- the Jacobson radical by enumeration ---------------------------------------------


def naive_radical_mod(table, one, p):
    """J(A) over GF(p) by enumeration, as RREF rows: x is in J(A) exactly
    when the two-sided ideal A x A it generates is nilpotent.

    ``table[i][j][k]`` is coefficient k of e_i e_j and ``one`` the unit's
    coordinates, all plain ints; meant for p^dim up to a few thousand.  Every
    element is visited once.  One that is nonzero at a pivot column of the
    part of J(A) found so far is skipped: its coset modulo that part holds
    an element zero at every such column, which is visited too.  A visited
    x is tested only if it is nilpotent, which every element of J(A) is;
    when A x A is nilpotent, all of it joins the part found.
    """
    n = len(table)
    assert len(one) == n
    terms = [[[(k, c) for k, c in enumerate(table[i][j]) if c % p] for j in range(n)]
             for i in range(n)]

    def mul(x, y):
        out = [0] * n
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        for k, c in terms[i][j]:
                            out[k] += xi * yj * c
        return [v % p for v in out]

    def nilpotent_span(rows):
        """Whether the algebra spanned by ``rows`` (closed under products) is nilpotent."""
        power = naive_rref_mod(rows, p)[0]
        power = [r for r in power if any(r)]
        while power:
            nxt = [r for r in naive_rref_mod([mul(u, v) for u in power for v in rows], p)[0]
                   if any(r)]
            if len(nxt) >= len(power):
                return False
            power = nxt
        return True

    def nilpotent(x):
        power = x
        for _ in range(n):
            if not any(power):
                return True
            power = mul(power, x)
        return not any(power)

    units = [[int(i == k) for k in range(n)] for i in range(n)]
    found, pivots = [], []
    for x in product(range(p), repeat=n):
        x = list(x)
        if not any(x) or any(x[c] for c in pivots) or not nilpotent(x):
            continue
        ideal = [mul(mul(e, x), f) for e in units for f in units]
        if nilpotent_span(ideal):
            red, pivots = naive_rref_mod(found + ideal, p)
            found = red[:len(pivots)]
    return found
