"""The curated corpus: every worked example, with its expected exact values.

Matrix generators are entered digit for digit (dots denote zero entries) and
the stated relations are *verified*, never assumed.  Every claim carries a
provenance tag: PAPER for published values, TRIVIAL for forced ones, DERIVED
for values frozen from an independent oracle in the test suite.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra
from .constructions import (
    SkewPresentation,
    from_matrix_generators,
    from_skew_presentation,
    quotient,
    tensor,
    trivial_extension,
    trivext_criteria,
)
from .errors import UnknownCase
from .fields import GF, element_of_order, gf25
from .linalg import Subspace, contains, rank, subspace_sum
from .substructures import (
    is_basic,
    is_local,
    j_of_center,
    property_verdicts,
    radical,
    reynolds,
    soc_of_center,
    socle,
)
from .symmetric import perp, symmetric_gram


@dataclass(frozen=True)
class ClaimResult:
    """One verified claim: stable id, verdict, provenance tag."""

    claim_id: str
    passed: bool
    tag: str
    witness: str | None = None


@dataclass
class SuiteResult:
    """All claims of one suite plus wall-clock timing (excluded from reports)."""

    suite_id: str
    claims: list
    elapsed: float = 0.0

    def check(self, cid: str, tag: str, ok: bool, witness: str | None = None):
        self.claims.append(
            ClaimResult(f"{self.suite_id}/{cid}", bool(ok), tag, witness)
        )

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def failures(self) -> list:
        return [c for c in self.claims if not c.passed]


def run_suite(suite_id: str, body) -> SuiteResult:
    """Run one suite body ``body(sink)`` on a new empty result, timed."""
    sink = SuiteResult(suite_id, [])
    t0 = time.perf_counter()
    body(sink)
    sink.elapsed = time.perf_counter() - t0
    return sink


# -- generator matrices, copied digit for digit (dots are zeros) ----------------

_DIM12_M = """
.  .  .  .  .  .  .  .  .  .  .  .
1  .  .  .  .  .  .  .  .  .  .  .
.  .  .  .  .  .  .  .  .  .  .  .
.  1  .  .  .  .  .  .  .  .  .  .
.  .  1  .  .  .  .  .  .  .  .  .
.  .  .  1  .  .  .  .  .  .  .  .
.  .  .  .  1  .  .  .  .  .  .  .
.  .  .  .  .  1  .  .  .  .  .  .
.  .  .  .  .  .  1  .  .  .  .  .
.  .  .  .  .  .  .  1  .  .  .  .
.  .  .  .  .  .  .  .  1  .  .  .
.  .  .  .  .  .  .  .  .  1  .  .
"""

_DIM12_N = """
.  .  .  .  .  .  .  .  .  .  .  .
.  .  .  .  .  .  .  .  .  .  .  .
1  .  .  .  .  .  .  .  .  .  .  .
.  .  1  .  .  .  .  .  .  .  .  .
. -1  .  .  .  .  .  .  .  .  .  .
.  .  .  . -1  .  .  .  .  .  .  .
.  .  .  1  .  .  .  .  .  .  .  .
.  .  .  .  .  .  1  .  .  .  .  .
.  .  .  .  . -1  .  .  .  .  .  .
.  .  .  .  .  .  .  . -1  .  .  .
.  .  .  .  .  .  .  1  .  .  .  .
.  .  .  .  .  .  .  .  .  .  1  .
"""

_SOC20_M = """
.  .  .  .  .  .  .  .  .  .
1  .  .  .  .  .  .  .  .  .
.  .  .  .  .  .  .  .  .  .
.  1  .  .  .  .  .  .  .  .
.  .  1  .  .  .  .  .  .  .
.  .  .  1  .  .  .  .  .  .
.  .  .  .  1  .  .  .  .  .
.  .  .  .  .  1  .  .  .  .
.  .  .  .  .  .  1  .  .  .
.  .  .  .  .  .  .  1  1  .
"""

_SOC20_N = """
.  .  .  .  .  .  .  .  .  .
.  .  .  .  .  .  .  .  .  .
1  .  .  .  .  .  .  .  .  .
.  1  .  .  .  .  .  .  .  .
.  1  .  .  .  .  .  .  .  .
.  1  .  .  .  .  .  .  .  .
.  1  .  1  1  .  .  .  .  .
.  .  .  1  .  1  .  .  .  .
.  .  .  .  1  1  .  .  .  .
.  .  .  .  .  1  1  1  1  .
"""


def grid(text: str) -> list[list[int]]:
    """Parse a dot-grid matrix literal into integer rows."""
    rows = []
    for line in text.strip().splitlines():
        entries = line.split()
        rows.append([0 if e == "." else int(e) for e in entries])
    return rows


# -- algebra registry ---------------------------------------------------------------


def _dual_numbers(field, name: str) -> Algebra:
    a = from_skew_presentation(field, SkewPresentation.commuting([2]), name=name)
    return a.replace(sym_form=field.arr([0, 1]))


def _mat2_gf3() -> Algebra:
    f = GF(3)
    basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
    tab = np.zeros((4, 4, 4), dtype=np.int64)
    for i, (a, b) in enumerate(basis):
        for j, (c, d) in enumerate(basis):
            if b == c:
                tab[i, j, basis.index((a, d))] = 1
    return Algebra(
        f, tab, f.arr([1, 0, 0, 1]),
        labels=["E11", "E12", "E21", "E22"],
        sym_form=f.arr([1, 0, 0, 1]),   # the trace form
        name="matn",
    )


def _firstexample() -> Algebra:
    a = from_skew_presentation(
        GF(3), SkewPresentation.anticommuting([3, 3, 3]), name="firstexample_i"
    )
    lam = np.zeros(27, dtype=np.int64)
    lam[a.labels.index("x1^2*x2^2*x3^2")] = 1
    return a.replace(sym_form=lam)


def _counterexample_A() -> Algebra:
    f = gf25()
    q = element_of_order(f, 24)
    pres = SkewPresentation(
        bounds=(5, 5, 2), q=(((1, 0), -1), ((2, 0), q), ((2, 1), q))
    )
    return from_skew_presentation(f, pres, name="counterexample_A")


def _counterexample_B() -> Algebra:
    f = gf25()
    pres = SkewPresentation(bounds=(2, 4), q=(((1, 0), -1),), names=("y1", "y2"))
    return from_skew_presentation(f, pres, name="counterexample_B")


_DIM12_WORDS = ["1", "M", "N", "M^2", "M*N", "M^3", "M^2*N", "M^4", "M^3*N",
                "M^5", "M^4*N", "M^6"]
_SOC20_WORDS = ["1", "M", "M^2", "M^3", "M^4", "N", "M*N", "M^2*N", "M^3*N",
                "M^4*N"]


def _dim12() -> Algebra:
    f = GF(3)
    a = from_matrix_generators(
        f, 12, {"M": grid(_DIM12_M), "N": grid(_DIM12_N)},
        monomial_basis=_DIM12_WORDS,
        name="dim12_sharp",
    )
    lam = np.zeros(12, dtype=np.int64)
    lam[_DIM12_WORDS.index("M^6")] = 1
    return a.replace(sym_form=lam)


def _soc20() -> Algebra:
    return from_matrix_generators(
        GF(2), 10, {"M": grid(_SOC20_M), "N": grid(_SOC20_N)},
        monomial_basis=_SOC20_WORDS,
        name="soc20_base",
    )


_BUILDERS = {
    "firstexample_i": _firstexample,
    "matn": _mat2_gf3,
    "counterexample_A": _counterexample_A,
    "counterexample_B": _counterexample_B,
    "mat2_dual_numbers": lambda: tensor(get("matn"), get("dual_gf3")),
    "dim12_sharp": _dim12,
    "soc20_base": _soc20,
    "soc20_trivext": lambda: trivial_extension(get("soc20_base")),
    "dual_gf2": lambda: _dual_numbers(GF(2), "dual_gf2"),
    "dual_gf3": lambda: _dual_numbers(GF(3), "dual_gf3"),
    "dual_gf25": lambda: _dual_numbers(gf25(), "dual_gf25"),
    "trunc3_gf3": lambda: from_skew_presentation(
        GF(3), SkewPresentation.commuting([3]), name="trunc3_gf3"),
    "skew22_gf3": lambda: from_skew_presentation(
        GF(3), SkewPresentation.anticommuting([2, 2]), name="skew22_gf3"),
    "skew24_gf3": lambda: from_skew_presentation(
        GF(3), SkewPresentation.anticommuting([2, 4]), name="skew24_gf3"),
    "skew222_gf3": lambda: from_skew_presentation(
        GF(3), SkewPresentation.anticommuting([2, 2, 2]), name="skew222_gf3"),
    "skew33_gf3": lambda: from_skew_presentation(
        GF(3), SkewPresentation.anticommuting([3, 3]), name="skew33_gf3"),
    "qplane22_gf5": lambda: from_skew_presentation(
        GF(5), SkewPresentation(bounds=(2, 2), q=(((1, 0), 2),)),
        name="qplane22_gf5"),
}


@functools.cache
def get(name: str) -> Algebra:
    """Registry access; algebras are built once and shared (immutable)."""
    if name not in _BUILDERS:
        raise UnknownCase(f"unknown corpus algebra {name!r}")
    return _BUILDERS[name]()


# -- entry suites --------------------------------------------------------------------


def _monomial_span(a: Algebra, labels) -> Subspace:
    return _element_span(a, [a.monomial(s) for s in labels])


def _element_span(a: Algebra, elements) -> Subspace:
    rows = np.stack([e.coords for e in elements], axis=0)
    return Subspace.from_rows(a.field, a.dim, rows)


def suite_firstexample(sink: SuiteResult):
    a = get("firstexample_i")
    sink.check("dim_27", "PAPER", a.dim == 27)
    cert = radical(a)
    sink.check("local_radical_dim_26", "TRIVIAL",
               cert.radical.dim == 26 and is_local(a))
    v = property_verdicts(a)
    wit = None if v.p1.witness is None else a.element_str(v.p1.witness.u)
    sink.check("p1_false_witness_x1^2", "PAPER",
               (not v.p1.holds) and wit == "x1^2", witness=wit)
    socz = soc_of_center(a)
    expected = _monomial_span(
        a, ["x1*x2^2*x3^2", "x1^2*x2*x3^2", "x1^2*x2^2*x3", "x1^2*x2^2*x3^2"]
    )
    sink.check("socZ_exact", "PAPER", socz == expected)
    sink.check("p2_true", "PAPER", v.p2.holds)
    sink.check("p3_true", "PAPER", v.p3.holds)
    sink.check("soc_exact", "DERIVED",
               socle(a) == _monomial_span(a, ["x1^2*x2^2*x3^2"]))
    sink.check("top_form_symmetric", "DERIVED",
               symmetric_gram(a) is not None)


def suite_matn(sink: SuiteResult):
    a = get("matn")
    sink.check("semisimple_j_zero", "DERIVED", radical(a).radical.dim == 0)
    v = property_verdicts(a)
    sink.check("p1_true", "PAPER", v.p1.holds)
    z = a.center()
    sink.check("socZ_eq_Z_not_ideal", "PAPER",
               soc_of_center(a) == z and not v.p2.holds)
    sink.check("R_eq_Z_not_ideal", "PAPER",
               reynolds(a) == z and not v.p3.holds)
    sink.check("not_basic", "TRIVIAL", not is_basic(a))


def suite_counterexample_A(sink: SuiteResult):
    a = get("counterexample_A")
    sink.check("dim_50", "PAPER", a.dim == 50)
    q = element_of_order(a.field, 24)
    sink.check("q_has_order_24", "DERIVED", q.multiplicative_order() == 24)
    z = a.center()
    sink.check("center_basis_dim_2", "PAPER",
               z == _monomial_span(a, ["1", "x1^4*x2^4*x3"]))
    v = property_verdicts(a)
    sink.check("p1_true", "PAPER", v.p1.holds)
    sink.check("p2_true", "PAPER", v.p2.holds)
    jz, socz, s = j_of_center(a), soc_of_center(a), socle(a)
    sink.check("jz_socz_soc_equal_ideal", "PAPER",
               jz == socz and socz == s and a.is_ideal(s))


def suite_counterexample_B(sink: SuiteResult):
    b = get("counterexample_B")
    sink.check("dim_8", "PAPER", b.dim == 8)
    jz = j_of_center(b)
    socz = soc_of_center(b)
    expected = _monomial_span(b, ["y2^2", "y1*y2^3"])
    sink.check("jz_eq_socz_basis", "PAPER", jz == expected and socz == expected)
    bjz = b.subspace_product(b.full_space(), jz)
    sink.check("b_times_jz_dim_4", "PAPER", bjz.dim == 4)
    v = property_verdicts(b)
    sink.check("p1_false", "PAPER", not v.p1.holds)
    sink.check("p2_false", "PAPER", not v.p2.holds)
    # realise B as the quotient of A by the ideal generated by x1^2, x2^4, x3
    a = get("counterexample_A")
    gens = np.stack(
        [a.monomial(w).coords for w in ("x1^2", "x2^4", "x3")], axis=0
    )
    closure = a.ideal_closure(Subspace.from_rows(a.field, a.dim, gens))
    bq = quotient(a, closure)
    sink.check("quotient_realisation_identical_table", "DERIVED",
               bq.same_table(b))


def suite_mat2_dual(sink: SuiteResult):
    t = get("mat2_dual_numbers")
    m2, dual = get("matn"), get("dual_gf3")
    sink.check("dim_8", "TRIVIAL", t.dim == m2.dim * dual.dim)
    vt = property_verdicts(t)
    sink.check("jz_dim_1", "PAPER", j_of_center(t).dim == 1)
    sink.check("p1_false", "PAPER", not vt.p1.holds)
    v1, v2 = property_verdicts(m2), property_verdicts(dual)
    sink.check("factors_p1_true", "PAPER", v1.p1.holds and v2.p1.holds)
    sink.check("p2_conjunction", "PAPER",
               vt.p2.holds == (v1.p2.holds and v2.p2.holds))
    sink.check("p3_conjunction", "PAPER",
               vt.p3.holds == (v1.p3.holds and v2.p3.holds))


def suite_dim12(sink: SuiteResult):
    f = GF(3)
    m = f.arr(grid(_DIM12_M))
    n = f.arr(grid(_DIM12_N))
    mm = f.matmul2
    m2 = mm(m, m)
    m5 = mm(mm(m2, m2), m)
    rel = (
        not np.any(mm(m5, m2))
        and not np.any(mm(m5, n))
        and not np.any(f.a_add(mm(n, m), mm(m, n)))
        and not np.any(f.a_sub(mm(n, n), m2))
    )
    sink.check("matrix_relations", "PAPER", rel)
    a = get("dim12_sharp")
    sink.check("closure_dim_12_basis_verified", "PAPER",
               a.dim == 12 and a.labels == _DIM12_WORDS)
    sink.check("soc_eq_M6", "PAPER", socle(a) == _monomial_span(a, ["M^6"]))
    k = a.commutator_space()
    kexp = _monomial_span(a, ["M*N", "M^2*N", "M^3*N", "M^4*N", "M^3", "M^5"])
    sink.check("K_basis_dim_6", "PAPER", k.dim == 6 and k == kexp)
    z = a.center()
    zexp = _monomial_span(a, ["1", "M^2", "M^4", "M^5", "M^4*N", "M^6"])
    sink.check("Z_basis_dim_6", "PAPER", z.dim == 6 and z == zexp)
    sink.check("lambda_M6_accepted", "PAPER", symmetric_gram(a) is not None)
    v = property_verdicts(a)
    wit = None if v.p1.witness is None else a.element_str(v.p1.witness.u)
    sink.check("p1_false", "PAPER", not v.p1.holds, witness=wit)
    sink.check("LM_rank_10", "DERIVED",
               rank(a.field, a.left_mult_matrix(a.monomial("M"))) == 10)
    j = radical(a).radical
    chain = a.radical_powers(j)
    sink.check("loewy_chain", "DERIVED",
               a.loewy_series(j) == (1, 2, 2, 2, 2, 2, 1)
               and chain[6] == _monomial_span(a, ["M^6"])
               and chain[7].is_zero())
    sink.check("perp_K_eq_Z", "PAPER", perp(a, k) == z)
    sink.check("perp_J_eq_soc", "PAPER", perp(a, j) == socle(a))


def suite_soc20(sink: SuiteResult):
    f = GF(2)
    m = f.arr(grid(_SOC20_M))
    n10 = f.arr(grid(_SOC20_N))
    mm = f.matmul2
    m2 = mm(m, m)
    m3 = mm(m2, m)
    m4 = mm(m3, m)
    m5 = mm(m4, m)
    nm = mm(n10, m)
    rhs = f.a_add(f.a_add(m2, mm(m, n10)), f.a_add(m3, mm(m2, n10)))
    rel = (
        np.array_equal(nm, rhs)
        and np.array_equal(mm(m4, n10), m5)
        and not np.any(mm(m5, m))
        and not np.any(mm(n10, n10))
    )
    sink.check("matrix_relations", "PAPER", rel)
    a = get("soc20_base")
    sink.check("dim_10", "PAPER", a.dim == 10)
    sink.check("loewy_1_2_2_2_2_1", "PAPER",
               a.loewy_series(radical(a).radical) == (1, 2, 2, 2, 2, 1))
    em = a.monomial("M")
    m4e, m5e = em ** 4, em ** 5
    jz = j_of_center(a)
    jz_exp = _element_span(a, [m4e, m5e])
    k = a.commutator_space()
    sink.check("jz_eq_M4_M5_inside_K", "PAPER",
               jz == jz_exp and contains(k, jz))
    kexp = _element_span(a, [
        em ** 2,
        em ** 3 + (em ** 3) * a.monomial("N"),
        (em ** 2) * a.monomial("N") + (em ** 3) * a.monomial("N"),
        m4e,
        m5e,
    ])
    sink.check("K_span", "PAPER", k == kexp)
    sink.check("k_not_ideal", "PAPER", not a.is_ideal(k))
    ak = a.subspace_product(a.full_space(), k)
    i_sub = subspace_sum(k, a.subspace_product(a.full_space(), jz))
    sink.check("I_eq_K_ne_AK", "PAPER",
               i_sub == k and ak != k and ak.contains_vector((em ** 3).coords))
    crit = trivext_criteria(a)
    sink.check("predict_p2T_false", "PAPER", not crit.p2_prediction)


def suite_soc20_trivext(sink: SuiteResult):
    t = get("soc20_trivext")
    sink.check("dim_20", "PAPER", t.dim == 20)
    v = property_verdicts(t)
    sink.check("p2_false", "PAPER", not v.p2.holds)
    sink.check("p1_false", "DERIVED", not v.p1.holds)
    sink.check("symmetric_local", "PAPER",
               symmetric_gram(t) is not None and is_local(t))


SUITES = {
    "firstexample_i": suite_firstexample,
    "matn": suite_matn,
    "counterexample_A": suite_counterexample_A,
    "counterexample_B": suite_counterexample_B,
    "mat2_dual_numbers": suite_mat2_dual,
    "dim12_sharp": suite_dim12,
    "soc20_base": suite_soc20,
    "soc20_trivext": suite_soc20_trivext,
}

ENTRY_IDS = list(SUITES)
