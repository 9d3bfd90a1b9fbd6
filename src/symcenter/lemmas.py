"""Instance checkers for the structural identities, one suite body each.

``CHECKERS`` maps each lemma id to a body ``f(sink)`` that adds its claims
to the ``SuiteResult`` it is handed, as suite ``lemma/<id>``.  Every
checker runs over its whole fixed scope (fixed tensor pairs and
trivial-extension bases, or a filter of the per-run ``ScopeRegistry``),
uses the fixed seed 0x5EED for any sampling, and reports one claim per
(identity, algebra) pair.  These are instance checks of universally quantified
statements; they verify, they do not prove.  Predicted subspaces come from
the ``linalg`` homes the constructions use: ``subspace_tensor`` for U1 (x) U2,
and for T(A) = A + A* ``subspace_direct_sum`` of a subspace of A and a
subspace of A*, such as ``kernel(f, rows)``, the forms vanishing on the rows.
"""

from __future__ import annotations

import math
import zlib
from functools import cached_property

import numpy as np

from .algebra import Algebra
from .constructions import quotient, tensor, trivial_extension, trivext_criteria
from .corpus import ENTRY_IDS, SuiteResult, get, is_symmetric_local
from .family import FamilyMember, commutative_local_bases, generate_symmetric_local_family
from .linalg import (
    Subspace,
    contains,
    kernel,
    random_subspace,
    subspace_direct_sum,
    subspace_intersect,
    subspace_sum,
    subspace_tensor,
)
from .substructures import (
    annihilator_in_center,
    is_basic,
    is_local,
    j_of_center,
    property_verdicts,
    radical,
    reynolds,
    soc_of_center,
    socle,
)
from .symmetric import (
    QuotientWitness,
    check_nustar_relations,
    perp,
    symmetric_gram,
    symmetric_quotient,
)

SEED = 0x5EED

# same-field pairs for the tensor identities (>= 10 pairs)
TENSOR_PAIR_IDS = [
    ("dual_gf3", "dual_gf3"),
    ("matn", "dual_gf3"),
    ("matn", "matn"),
    ("skew22_gf3", "dual_gf3"),
    ("skew22_gf3", "matn"),
    ("trunc3_gf3", "trunc3_gf3"),
    ("dim12_sharp", "dual_gf3"),
    ("dual_gf2", "dual_gf2"),
    ("soc20_base", "dual_gf2"),
    ("counterexample_B", "dual_gf25"),
    ("firstexample_i", "dual_gf3"),
]

# bases for the trivial-extension identities; counterexample_A is excluded
# because T(A) would have dimension 100, past the desk-scale budget
TRIVEXT_BASE_IDS = [
    "dual_gf3",
    "trunc3_gf3",
    "skew22_gf3",
    "qplane22_gf5",
    "matn",
    "counterexample_B",
    "mat2_dual_numbers",
    "soc20_base",
    "dim12_sharp",
    "firstexample_i",
]

# local algebras of dimension <= 9 exercising the small-dimension statement
DIM9_LOCAL_IDS = [
    "dual_gf2",
    "dual_gf3",
    "dual_gf25",
    "trunc3_gf3",
    "skew22_gf3",
    "skew24_gf3",
    "skew222_gf3",
    "skew33_gf3",
    "qplane22_gf5",
    "counterexample_B",
]


_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class Pcg64Stream:
    """The stream of ``np.random.default_rng(seed)``, drawn without ``numpy.random``.

    ``integers(low, high, size)`` returns, call for call, what numpy's
    ``Generator.integers(low, high, size, dtype=np.int64)`` returns for the
    same seed: SeedSequence mixing with a pool of four words, the PCG64
    XSL-RR step, 32-bit words taken low half first (the high half is
    carried to the next draw), and Lemire's bounded draw, which skips a
    word whose low product bits fall below 2^32 mod (high - low).  It
    supports what the lemma suites draw (seeds below 2^32, int64 values,
    1 <= high - low < 2^32) and refuses anything else.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= _M32:
            raise ValueError(f"seed {seed} outside [0, 2^32)")
        mult = 0x43B0D7E5

        def hashmix(value: int) -> int:
            nonlocal mult
            value ^= mult
            mult = mult * 0x931E8875 & _M32
            value = value * mult & _M32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return value ^ value >> 16

        pool = [hashmix(seed)] + [hashmix(0) for _ in range(3)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        mult = 0x8B51F9DD
        words = []
        for i in range(8):
            value = pool[i % 4] ^ mult
            mult = mult * 0x58F38DED & _M32
            value = value * mult & _M32
            words.append(value ^ value >> 16)
        # generate_state(4, np.uint64): each 64-bit word is (low, high)
        seed_words = [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]
        init_state = seed_words[0] << 64 | seed_words[1]
        self._inc = (seed_words[2] << 64 | seed_words[3]) << 1 & _M128 | 1
        # seeding steps from state 0, adds init_state and steps again
        self._state = ((self._inc + init_state) * _PCG_MULT + self._inc) & _M128
        self._carry: int | None = None  # the last output while its high half is unread

    def _words(self, count: int) -> np.ndarray:
        """The next ``count`` 32-bit words: each 64-bit output low half first."""
        outs, skip = ([], 0) if self._carry is None else ([self._carry], 1)
        state, inc = self._state, self._inc
        for _ in range(count - skip + 1 >> 1):
            state = (state * _PCG_MULT + inc) & _M128
            word = (state >> 64 ^ state) & _M64
            rot = state >> 122
            outs.append((word >> rot | word << 64 - rot) & _M64)
        self._state = state
        end = skip + count
        self._carry = outs[-1] if end & 1 else None
        return np.array(outs, dtype="<u8").view("<u4")[skip:end]

    def integers(self, low, high, size=None, dtype=np.int64):
        low, high = int(low), int(high)
        span = high - low
        if np.dtype(dtype) != np.int64 or not 1 <= span <= _M32:
            raise ValueError(f"unsupported draw: [{low}, {high}) as {np.dtype(dtype)}")
        shape = () if size is None else np.empty(size, dtype=bool).shape
        count = math.prod(shape)
        kept = np.zeros(count if span == 1 else 0, dtype=np.uint64)  # no word drawn
        threshold = (1 << 32) % span
        while kept.size < count:
            products = self._words(count - kept.size).astype(np.uint64) * span
            kept = np.concatenate([kept, products[products & _M32 >= threshold]])
        values = ((kept >> 32).astype(np.int64) + low).reshape(shape)
        return values[()] if size is None else values


def _rng(suite_id: str) -> Pcg64Stream:
    return Pcg64Stream(SEED ^ zlib.crc32(suite_id.encode()))


def _symmetric(a: Algebra) -> bool:
    return symmetric_gram(a) is not None


class ScopeRegistry:
    """The algebras the suites read in one paper-suite run, which enters it
    (inside its interning block).

    Each source is built on its first read: the corpus entries, derived
    quotients, a T(B) sample and the family members as lists of (name,
    algebra); ``bases``, the one ``commutative_local_bases(8)`` the T(B)
    sample and the family are built on; ``members``, the family itself.
    A lemma's scope is a filter or a concatenation of sources.  ``witness``
    takes each symmetric quotient, the family's too, once per (algebra, z).
    """

    def __init__(self):
        self._witnesses: dict[tuple[str, bytes], QuotientWitness] = {}

    def __enter__(self):
        global REGISTRY
        REGISTRY = self
        return self

    def __exit__(self, *exc):
        global REGISTRY
        REGISTRY = None

    def scope(self, *sources: str, where=None) -> list[tuple[str, Algebra]]:
        """The (name, algebra) of the sources, in order, that satisfy ``where``."""
        return [(name, a) for source in sources for name, a in getattr(self, source)
                if where is None or where(a)]

    def witness(self, name: str, a: Algebra, z) -> QuotientWitness:
        key = (name, a._coords_of(z).tobytes())
        if key not in self._witnesses:
            self._witnesses[key] = symmetric_quotient(a, z)
        return self._witnesses[key]

    @cached_property
    def corpus(self) -> list[tuple[str, Algebra]]:
        return [(entry, get(entry)) for entry in ENTRY_IDS]

    @cached_property
    def samples(self) -> list[tuple[str, QuotientWitness]]:
        """Each symmetric corpus entry's quotients at z = 1 and a J(Z) basis."""
        out = []
        for entry, a in self.scope("corpus", where=_symmetric):
            zs = [("one", a.one_element())]
            zs += [(f"jz{idx}", row) for idx, row in enumerate(j_of_center(a).basis)]
            out += [(f"{entry}/{tag}", self.witness(entry, a, z)) for tag, z in zs]
        return out

    @cached_property
    def derived(self) -> list[tuple[str, Algebra]]:
        """Noncommutative symmetric local quotients that de-trivialise scopes."""
        a12 = get("dim12_sharp")
        out = [("dim12_sharp/quot_M2",
                self.witness("dim12_sharp", a12, a12.monomial("M^2")).quotient)]
        t20 = get("soc20_trivext")
        for idx, row in enumerate(j_of_center(t20).basis):
            q = self.witness("soc20_trivext", t20, row).quotient
            if not q.is_commutative():
                return out + [(f"soc20_trivext/quot_z{idx}", q)]
        return out

    @cached_property
    def trivexts(self) -> list[tuple[str, Algebra]]:
        return [(f"T({base.member_id})", trivial_extension(base.algebra))
                for base in self.bases if base.algebra.dim <= 4]

    @cached_property
    def members(self) -> list[FamilyMember]:
        return generate_symmetric_local_family(self.bases, self.witness)

    @cached_property
    def family(self) -> list[tuple[str, Algebra]]:
        return [(f"family/{m.member_id}", m.algebra) for m in self.members]

    @cached_property
    def bases(self) -> list[FamilyMember]:
        return commutative_local_bases(8)


# the registry of the running paper suite, which its suites read; None outside it
REGISTRY: ScopeRegistry | None = None


# -- the checkers -----------------------------------------------------------------


def _check_commutatorsmallestideal(sink: SuiteResult):
    for entry, a in REGISTRY.corpus:
        k = a.commutator_space()
        full = a.full_space()
        ak = a.subspace_product(full, k)
        ka = a.subspace_product(k, full)
        sink.check(f"AK_eq_KA/{entry}", "PAPER", ak == ka)
        closure = a.ideal_closure(k)
        if closure.dim < a.dim:
            qa = quotient(a, closure)
            sink.check(f"quotient_commutative/{entry}", "PAPER", qa.is_commutative())
        else:
            sink.check(f"quotient_commutative/{entry}", "PAPER", True,
                       witness="closure is all of A; zero quotient is commutative")
        # minimality against sampled ideals with commutative quotient
        rng = _rng(sink.suite_id + entry)
        candidates = [radical(a).radical, socle(a)]
        for _ in range(2):
            candidates.append(a.ideal_closure(random_subspace(a.field, a.dim, rng)))
        ok_min = True
        ok_quot = True
        for cand in candidates:
            if not a.is_ideal(cand) or cand.dim == a.dim:
                continue
            qa = quotient(a, cand)
            if qa.is_commutative():
                ok_min = ok_min and contains(cand, closure)
            kq = qa.commutator_space()
            projected = Subspace.from_rows(a.field, qa.dim, cand.quotient_coords(k.basis))
            ok_quot = ok_quot and kq == projected
        sink.check(f"smallest_among_sampled/{entry}", "PAPER", ok_min)
        sink.check(f"K_of_quotient_formula/{entry}", "PAPER", ok_quot)


def _check_condsocleprod(sink: SuiteResult):
    for entry, a in REGISTRY.corpus:
        z = a.center()
        k = a.commutator_space()
        ok = True
        for row in z.basis:
            az_rows = a.right_products(row[None, :])[0]
            az_in_z = bool(np.all(z.quotient_coords(az_rows) == a.field.zero_enc))
            kz_zero = a.subspace_product(
                k, Subspace.from_rows(a.field, a.dim, row.reshape(1, -1))
            ).is_zero()
            ok = ok and (az_in_z == kz_zero)
        sink.check(f"az_central_iff_Kz_zero/{entry}", "PAPER", ok)
        # the verdict cross-check (ideal test vs annihilation) runs inside
        property_verdicts(a)
        sink.check(f"verdict_cross_check/{entry}", "PAPER", True)


def _check_raidealnecessary(sink: SuiteResult):
    for entry, a in REGISTRY.corpus:
        v = property_verdicts(a)
        sink.check(f"p2_implies_p3/{entry}", "PAPER",
                   (not v.p2.holds) or v.p3.holds)


def _check_socinj(sink: SuiteResult):
    for entry, a in REGISTRY.scope("corpus", where=is_local):
        if a.dim >= 2:
            sink.check(f"socZ_in_JZ/{entry}", "PAPER",
                       contains(j_of_center(a), soc_of_center(a)))
        v = property_verdicts(a)
        sink.check(f"p1_implies_p2/{entry}", "PAPER",
                   (not v.p1.holds) or v.p2.holds)


def _check_soctensor(sink: SuiteResult):
    for ida, idb in TENSOR_PAIR_IDS:
        pair = f"{ida}(x){idb}"
        a1, a2 = get(ida), get(idb)
        t = tensor(a1, a2)
        sink.check(f"soc_formula/{pair}", "PAPER",
                   socle(t) == subspace_tensor(socle(a1), socle(a2)))
        sink.check(f"reynolds_formula/{pair}", "PAPER",
                   reynolds(t) == subspace_tensor(reynolds(a1), reynolds(a2)))


def _check_idealtensor(sink: SuiteResult):
    rng = _rng(sink.suite_id)
    for ida, idb in TENSOR_PAIR_IDS:
        pair = f"{ida}(x){idb}"
        a1, a2 = get(ida), get(idb)
        t = tensor(a1, a2)
        samples = [
            (radical(a1).radical, radical(a2).radical),
            (socle(a1), socle(a2)),
            (a1.center(), radical(a2).radical),
        ]
        for _ in range(3):
            samples.append(
                (random_subspace(a1.field, a1.dim, rng),
                 random_subspace(a2.field, a2.dim, rng))
            )
        ok = True
        for u1, u2 in samples:
            if u1.dim == 0 or u2.dim == 0:
                continue
            lhs = t.is_ideal(subspace_tensor(u1, u2))
            rhs = a1.is_ideal(u1) and a2.is_ideal(u2)
            ok = ok and (lhs == rhs)
        sink.check(f"ideal_iff_both/{pair}", "PAPER", ok)


def _check_jacobsontensorproduct(sink: SuiteResult):
    for ida, idb in TENSOR_PAIR_IDS:
        pair = f"{ida}(x){idb}"
        v1 = property_verdicts(get(ida))
        v2 = property_verdicts(get(idb))
        vt = property_verdicts(tensor(get(ida), get(idb)))
        sink.check(f"p2_conjunction/{pair}", "PAPER",
                   vt.p2.holds == (v1.p2.holds and v2.p2.holds))
        sink.check(f"p3_conjunction/{pair}", "PAPER",
                   vt.p3.holds == (v1.p3.holds and v2.p3.holds))


def _check_propertiesperp(sink: SuiteResult):
    for entry, a in REGISTRY.scope("corpus", where=_symmetric):
        rng = _rng(sink.suite_id + entry)
        n = a.dim
        subspaces = [random_subspace(a.field, n, rng) for _ in range(50)]
        perps = [perp(a, x) for x in subspaces]
        dims_ok = all(x.dim + px.dim == n for x, px in zip(subspaces, perps))
        sink.check(f"dim_formula/{entry}", "PAPER", dims_ok)
        double_ok = all(perp(a, px) == x for x, px in zip(subspaces, perps))
        sink.check(f"double_perp/{entry}", "PAPER", double_ok)
        anti_ok = True
        for x, px in zip(subspaces, perps):
            if x.dim == 0:
                continue
            kcut = int(rng.integers(0, x.dim))
            y = Subspace.from_rows(a.field, n, x.basis[:kcut])
            anti_ok = anti_ok and contains(perp(a, y), px)
        sink.check(f"antitone/{entry}", "PAPER", anti_ok)
        dm_ok = True
        for x, y, px, py in zip(subspaces[::2], subspaces[1::2], perps[::2], perps[1::2]):
            dm_ok = dm_ok and perp(a, subspace_intersect(x, y)) == subspace_sum(px, py)
            dm_ok = dm_ok and perp(a, subspace_sum(x, y)) == subspace_intersect(px, py)
        sink.check(f"de_morgan/{entry}", "PAPER", dm_ok)
        ideals = [radical(a).radical, socle(a),
                  a.ideal_closure(a.commutator_space())]
        for _ in range(2):
            ideals.append(a.ideal_closure(random_subspace(a.field, n, rng)))
        ideal_ok = True
        for ideal in ideals:
            pi = perp(a, ideal)
            ideal_ok = ideal_ok and pi == a.left_annihilator(ideal)
            ideal_ok = ideal_ok and pi == a.right_annihilator(ideal)
            ideal_ok = ideal_ok and a.is_ideal(pi)
        ideal_ok = ideal_ok and perp(a, socle(a)) == radical(a).radical
        sink.check(f"ideal_perp_annihilator/{entry}", "PAPER", ideal_ok)
        sink.check(f"K_perp_eq_Z/{entry}", "PAPER",
                   perp(a, a.commutator_space()) == a.center())


def _check_reynoldsbasic(sink: SuiteResult):
    for entry, a in REGISTRY.scope("corpus", where=_symmetric):
        v = property_verdicts(a)
        basic = is_basic(a)
        sink.check(f"p3_iff_basic/{entry}", "PAPER", v.p3.holds == basic)
        if v.p3.holds:
            sink.check(f"reynolds_eq_socle/{entry}", "PAPER",
                       reynolds(a) == socle(a))


def _check_idealsymmetricalternative(sink: SuiteResult):
    for entry, a in REGISTRY.scope("corpus", where=_symmetric):
        v = property_verdicts(a)
        soc = socle(a)
        if soc.dim == a.dim:
            rhs1 = True  # zero quotient, commutator space vanishes
        else:
            q1 = quotient(a, soc)
            rhs1 = q1.is_ideal(q1.commutator_space())
        sink.check(f"p1_iff_K_ideal_mod_soc/{entry}", "PAPER",
                   v.p1.holds == rhs1)
        q2 = quotient(a, a.subspace_product(a.full_space(), j_of_center(a)))
        rhs2 = q2.is_ideal(q2.commutator_space())
        sink.check(f"p2_iff_K_ideal_mod_AJZ/{entry}", "PAPER",
                   v.p2.holds == rhs2)


def _check_remark_ka(sink: SuiteResult):
    for entry, a in REGISTRY.scope("corpus", where=_symmetric):
        sink.check(f"K_ideal_iff_commutative/{entry}", "PAPER",
                   a.is_ideal(a.commutator_space()) == a.is_commutative())


def _check_quotientalgebrasymmetric(sink: SuiteResult):
    for wid, w in REGISTRY.samples:
        a = w.algebra
        f = a.field
        # lambda_bar(nu(e_i)) == lambda(e_i z) for every basis vector
        proj = w.ideal.quotient_coords(f.eye(a.dim))
        lhs = f.matmul2(proj, w.quotient.sym_form.reshape(-1, 1)).reshape(a.dim)
        rhs = f.matmul2(w.az_rows, a.sym_form.reshape(-1, 1)).reshape(a.dim)
        sink.check(f"form_is_lambda_az/{wid}", "PAPER", bool(np.all(lhs == rhs)))


def _check_propnustar(sink: SuiteResult):
    for wid, w in REGISTRY.samples:
        a, q = w.algebra, w.quotient
        f = a.field
        n, d = a.dim, q.dim
        sink.check(f"adjoint_identity/{wid}", "PAPER", w.adjoint_identity_holds())
        nu_rows = w.nu_star_rows(f.eye(d))
        proj = w.ideal.quotient_coords(f.eye(n))
        # nu*(xbar) . e_j == nu*(xbar . nu(e_j)) and symmetrically; the
        # quotient products come as [j, i] and are swapped to [i, j]
        t1 = a.left_products(nu_rows)
        t2 = q.right_products(proj).swapaxes(0, 1).reshape(d * n, d)
        right_ok = bool(np.all(t1 == w.nu_star_rows(t2).reshape(d, n, n)))
        t1l = a.right_products(nu_rows)
        t2l = q.left_products(proj).swapaxes(0, 1).reshape(d * n, d)
        left_ok = bool(np.all(t1l == w.nu_star_rows(t2l).reshape(d, n, n)))
        sink.check(f"bimodule_identity/{wid}", "PAPER", right_ok and left_ok)
        sink.check(f"injective/{wid}", "PAPER", w.nu_star_injective())


def _check_nustar_relations(sink: SuiteResult):
    for wid, w in REGISTRY.samples:
        rep = check_nustar_relations(w)
        sink.check(f"center_image/{wid}", "PAPER", rep.center_image_equal)
        sink.check(f"jz_image/{wid}", "PAPER",
                   rep.jz_image_equal and rep.jz_image_contained)
        sink.check(f"socz_image/{wid}", "PAPER", rep.socz_image_contained)


def _z_samples(a: Algebra, rng) -> list:
    jz = j_of_center(a)
    rows = list(jz.basis)
    for _ in range(10):
        if jz.dim == 0:
            break
        coeffs = a.field.random_enc(rng, (1, jz.dim))
        vec = a.field.matmul2(coeffs, jz.basis)[0]
        if np.any(vec != a.field.zero_enc):
            rows.append(vec)
    return rows


def _check_prop_quotientalgebra(sink: SuiteResult):
    for name, a in REGISTRY.scope("corpus", "derived", "trivexts", where=_symmetric):
        v = property_verdicts(a)
        if not (v.p1.holds or v.p2.holds):
            continue
        p1_ok = p2_ok = True
        for vec in _z_samples(a, _rng(sink.suite_id + name)):
            w = REGISTRY.witness(name, a, vec)
            qq = w.quotient
            if v.p1.holds:
                p1_ok = p1_ok and property_verdicts(qq).p1.holds
            if v.p2.holds:
                image = Subspace.from_rows(qq.field, qq.dim,
                                           w.ideal.quotient_coords(j_of_center(a).basis))
                ann = annihilator_in_center(qq, image)
                p2_ok = p2_ok and qq.is_ideal(ann) and property_verdicts(qq).p2.holds
        if v.p1.holds:
            sink.check(f"p1_heredity/{name}", "PAPER", p1_ok)
        if v.p2.holds:
            sink.check(f"p2_heredity/{name}", "PAPER", p2_ok)


def _check_aicommutative_instance(sink: SuiteResult):
    for name, a in REGISTRY.scope("corpus", "derived", "trivexts", where=is_symmetric_local):
        if not property_verdicts(a).p1.holds:
            continue
        rng = _rng(sink.suite_id + name)
        ok = True
        for vec in _z_samples(a, rng):
            w = REGISTRY.witness(name, a, vec)
            ok = ok and w.quotient.is_commutative()
        sink.check(
            f"quotients_commutative/{name}", "PAPER", ok,
            witness="z-parameterised symmetric quotients only; that these "
                    "exhaust the symmetric quotients is the quoted "
                    "classification, not re-proven here",
        )


def _check_subspacest(sink: SuiteResult):
    for entry in TRIVEXT_BASE_IDS:
        a = get(entry)
        t = trivial_extension(a)
        f = a.field
        zero, full, z = a.zero_space(), a.full_space(), a.center()
        k = a.commutator_space()
        j = radical(a).radical
        k_perp = kernel(f, k.basis)
        sink.check(f"i_center/{entry}", "PAPER",
                   t.center() == subspace_direct_sum(z, k_perp))
        sink.check(f"ii_commutator/{entry}", "PAPER",
                   t.commutator_space() == subspace_direct_sum(k, kernel(f, z.basis)))
        sink.check(f"iii_radical/{entry}", "PAPER",
                   radical(t).radical == subspace_direct_sum(j, full))
        sink.check(f"iv_j_of_center/{entry}", "PAPER",
                   j_of_center(t) == subspace_direct_sum(j_of_center(a), k_perp))
        sink.check(f"v_socle/{entry}", "PAPER",
                   socle(t) == subspace_direct_sum(zero, kernel(f, j.basis)))
        crit = trivext_criteria(a)
        sink.check(f"vi_soc_of_center/{entry}", "PAPER",
                   soc_of_center(t) == subspace_direct_sum(crit.s, kernel(f, crit.i.basis)))
        kj = subspace_sum(k, j)
        sink.check(f"vii_reynolds/{entry}", "PAPER",
                   reynolds(t) == subspace_direct_sum(zero, kernel(f, kj.basis)))


def _check_soctaideal(sink: SuiteResult):
    for entry in TRIVEXT_BASE_IDS:
        a = get(entry)
        t = trivial_extension(a)
        crit = trivext_criteria(a)
        vt = property_verdicts(t)
        sink.check(f"p1_prediction/{entry}", "PAPER",
                   crit.p1_prediction == vt.p1.holds)
        sink.check(f"p2_prediction/{entry}", "PAPER",
                   crit.p2_prediction == vt.p2.holds)


def _check_remark_after_soctaideal(sink: SuiteResult):
    for entry in TRIVEXT_BASE_IDS:
        a = get(entry)
        if symmetric_gram(a) is None:
            continue
        vt = property_verdicts(trivial_extension(a))
        sink.check(f"p1T_iff_commutative/{entry}", "PAPER",
                   vt.p1.holds == a.is_commutative())


def _check_propertiessymmetriclocal(sink: SuiteResult):
    for name, a in REGISTRY.scope("corpus", "derived", where=is_symmetric_local):
        soc = socle(a)
        sink.check(f"soc_dim_1/{name}", "PAPER", soc.dim == 1)
        sink.check(f"soc_in_socZ/{name}", "PAPER",
                   contains(soc_of_center(a), soc))
        sink.check(f"K_meets_soc_trivially/{name}", "PAPER",
                   subspace_intersect(a.commutator_space(), soc).is_zero())
        chain = a.radical_powers(radical(a).radical)
        sink.check(f"last_power_is_soc/{name}", "PAPER",
                   a.dim == 1 or chain[len(chain) - 2] == soc)


def _check_chlz(sink: SuiteResult):
    for entry, a in REGISTRY.scope("corpus", where=is_local):
        chain = a.radical_powers(radical(a).radical)
        z = a.center()
        sym = _symmetric(a)
        ok = True
        ok_sym = True
        for i in range(1, len(chain) - 1):
            layer = chain[i].dim - chain[i + 1].dim
            if layer == 1:
                ok = ok and contains(z, chain[i])
                if sym:
                    ok_sym = ok_sym and contains(z, chain[i - 1])
        sink.check(f"one_dim_layer_central/{entry}", "PAPER", ok)
        if sym:
            sink.check(f"symmetric_previous_power_central/{entry}", "PAPER", ok_sym)


def _check_centerdim3greater(sink: SuiteResult):
    for name, a in REGISTRY.scope("corpus", "derived", where=_symmetric):
        if a.is_commutative():
            continue
        sink.check(f"dim_gap/{name}", "PAPER", a.dim >= a.center().dim + 3)


def _check_kultheob(sink: SuiteResult):
    small_center_comm = True
    center5_ok = True
    checked = 0
    nontrivial = 0
    for _, a in REGISTRY.scope("corpus", "derived", "family", where=is_symmetric_local):
        checked += 1
        zdim = a.center().dim
        if zdim <= 4:
            small_center_comm = small_center_comm and a.is_commutative()
        elif zdim == 5:
            if a.is_commutative():
                center5_ok = center5_ok and a.dim == 5
            else:
                nontrivial += 1
                lw = a.loewy_series(radical(a).radical)
                center5_ok = center5_ok and a.dim == 8 and lw in (
                    (1, 3, 3, 1), (1, 2, 2, 2, 1)
                )
    sink.check("center_le_4_commutative", "PAPER", small_center_comm,
               witness=f"{checked} algebras checked")
    sink.check("center_5_dims_and_loewy", "PAPER", center5_ok,
               witness=f"{nontrivial} noncommutative instances")


def dim9_statement(a: Algebra) -> tuple[bool, bool, bool]:
    """(I ideal, S ideal, T(a) has (P2)): the dim <= 9 statement, for both suites."""
    crit = trivext_criteria(a)
    return (crit.i_is_ideal, crit.s_is_ideal,
            property_verdicts(trivial_extension(a)).p2.holds)


def _check_dim9_trivext_lemma(sink: SuiteResult):
    named = [(entry, get(entry)) for entry in DIM9_LOCAL_IDS]
    named += [(f"base/{base.member_id}", base.algebra) for base in REGISTRY.bases]
    for name, a in [(name, a) for name, a in named if a.dim <= 9 and is_local(a)]:
        i_ok, s_ok, p2_ok = dim9_statement(a)
        sink.check(f"I_is_ideal/{name}", "PAPER", i_ok)
        sink.check(f"S_is_ideal/{name}", "PAPER", s_ok)
        sink.check(f"p2_of_T/{name}", "PAPER", p2_ok)


CHECKERS = {
    "commutatorsmallestideal": _check_commutatorsmallestideal,
    "condsocleprod": _check_condsocleprod,
    "raidealnecessary": _check_raidealnecessary,
    "socinj": _check_socinj,
    "soctensor": _check_soctensor,
    "idealtensor": _check_idealtensor,
    "jacobsontensorproduct": _check_jacobsontensorproduct,
    "propertiesperp": _check_propertiesperp,
    "reynoldsbasic": _check_reynoldsbasic,
    "idealsymmetricalternative": _check_idealsymmetricalternative,
    "remark_ka": _check_remark_ka,
    "quotientalgebrasymmetric": _check_quotientalgebrasymmetric,
    "propnustar": _check_propnustar,
    "nustar_relations": _check_nustar_relations,
    "prop_quotientalgebra": _check_prop_quotientalgebra,
    "aicommutative_instance": _check_aicommutative_instance,
    "subspacest": _check_subspacest,
    "soctaideal": _check_soctaideal,
    "remark_after_soctaideal": _check_remark_after_soctaideal,
    "propertiessymmetriclocal": _check_propertiessymmetriclocal,
    "chlz": _check_chlz,
    "centerdim3greater": _check_centerdim3greater,
    "kultheob": _check_kultheob,
    "dim9_trivext_lemma": _check_dim9_trivext_lemma,
}

LEMMA_IDS = list(CHECKERS)

