"""Symmetrizing forms, orthogonal complements and symmetric quotients."""

from dataclasses import FrozenInstanceError
from fractions import Fraction
import re

import numpy as np
import pytest

from oracles import dense_table, naive_form_radical_mod, naive_rank_mod

import symcenter.substructures as substructures
import symcenter.symmetric as symmetric
from symcenter import QQ, Algebra, SkewPresentation, analyze, from_skew_presentation
from symcenter.corpus import _BUILDERS, get
from symcenter.errors import (
    AmbientMismatch,
    CentralityViolated,
    Degenerate,
    ImproperIdeal,
    InternalCheckError,
    NotSymmetricForm,
    ScalarFormatError,
)
from symcenter.linalg import Subspace, kernel, random_subspace, subspace_intersect, subspace_sum
from symcenter.substructures import j_of_center, radical, socle
from symcenter.symmetric import (
    check_nustar_relations,
    perp,
    symmetric_gram,
    symmetric_ideal,
    symmetric_quotient,
    symmetrize,
    verify_symmetric,
)


def _with_form(a, lam):
    return a.replace(sym_form=a.field.arr(lam))


def test_dim12_top_form_accepted():
    a = get("dim12_sharp")
    lam = [0] * 12
    lam[a.labels.index("M^6")] = 1
    assert verify_symmetric(_with_form(a, lam)).shape == (12, 12)


def test_dual_numbers_antidiagonal_gram(dual3):
    gram = verify_symmetric(_with_form(dual3, [0, 1]))
    assert [list(map(int, r)) for r in gram] == [[0, 1], [1, 0]]


def test_zero_form_degenerate(dual3):
    with pytest.raises(Degenerate):
        verify_symmetric(_with_form(dual3, [0, 0]))
    with pytest.raises(Degenerate):
        symmetric_gram(_with_form(dual3, [0, 0]))


def test_asymmetric_form_rejected(mat2):
    # lambda dual to E11 does not vanish on [E12, E21]
    with pytest.raises(NotSymmetricForm):
        verify_symmetric(_with_form(mat2, [1, 0, 0, 0]))
    with pytest.raises(NotSymmetricForm):
        symmetric_gram(_with_form(mat2, [1, 0, 0, 0]))


_DEGENERATE = "; the kernel of lambda contains a nonzero one-sided ideal"


@pytest.mark.parametrize("fixture, lam, error, message, flags", [
    ("dual3", [0, 0], Degenerate, "Gram matrix has rank 0 < 2" + _DEGENERATE,
     "commutative=yes local=yes basic=yes"),
    ("dual3", [1, 0], Degenerate, "Gram matrix has rank 1 < 2" + _DEGENERATE,
     "commutative=yes local=yes basic=yes"),
    ("mat2", [1, 0, 0, 0], NotSymmetricForm,
     "lambda(e_1 e_2) != lambda(e_2 e_1); the form does not vanish on the commutator space",
     "commutative=no local=no basic=no"),
])
def test_rejected_forms_keep_their_messages(request, fixture, lam, error, message, flags):
    a = _with_form(request.getfixturevalue(fixture), lam)
    for check in (verify_symmetric, symmetric_gram):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            check(a)
    lines = analyze(a).to_text().splitlines()
    assert f"flags     {flags} symmetric=no (attached form rejected: {message})" in lines


def test_soc20_base_has_no_attached_form():
    a = get("soc20_base")
    assert symmetric_gram(a) is None
    lam = [0] * 10
    lam[a.labels.index("M^4*N")] = 1
    with pytest.raises(NotSymmetricForm):
        verify_symmetric(_with_form(a, lam))  # M^5 = M^4 N lies in K(A)


def test_no_form_raises_a_library_error():
    # one message for every entry point that needs the algebra's own form
    a = get("soc20_base")
    message = rf"^{re.escape(repr(a))} carries no symmetrizing form$"
    with pytest.raises(NotSymmetricForm, match=message):
        verify_symmetric(a)
    with pytest.raises(NotSymmetricForm, match=message):
        perp(a, a.zero_space())
    with pytest.raises(NotSymmetricForm, match=message):
        symmetric_quotient(a, a.one_element())


def test_perp_trivialities():
    a = get("dim12_sharp")
    assert perp(a, a.zero_space()) == a.full_space()
    assert perp(a, a.full_space()) == a.zero_space()


def test_perp_center_and_socle_identities():
    a = get("dim12_sharp")
    assert perp(a, a.commutator_space()) == a.center()
    assert perp(a, radical(a).radical) == socle(a)


def test_perp_lattice_properties(rng):
    a = get("dim12_sharp")
    n = a.dim
    for _ in range(25):
        x = random_subspace(a.field, n, rng)
        y = random_subspace(a.field, n, rng)
        px, py = perp(a, x), perp(a, y)
        assert x.dim + px.dim == n
        assert perp(a, px) == x
        assert perp(a, subspace_intersect(x, y)) == subspace_sum(px, py)
        assert perp(a, subspace_sum(x, y)) == subspace_intersect(px, py)


def test_symmetric_quotient_by_one_is_identity():
    a = get("dim12_sharp")
    w = symmetric_quotient(a, a.one_element())
    assert w.ideal.dim == 0
    assert w.quotient.same_table(a)


def test_symmetric_quotient_by_socle_element():
    a = get("dim12_sharp")
    w = symmetric_quotient(a, a.monomial("M^6"))
    assert w.ideal.dim == 11 and w.quotient.dim == 1


def test_symmetric_quotient_by_m2_dimension_oracle():
    a = get("dim12_sharp")
    rz = a.right_mult_matrix(a.monomial("M^2"))
    oracle_dim = naive_rank_mod([list(map(int, r)) for r in rz], 3)
    assert oracle_dim == 8  # frozen: dim A*M^2 by the naive rank oracle
    w = symmetric_quotient(a, a.monomial("M^2"))
    assert w.quotient.dim == oracle_dim
    assert w.az.dim == oracle_dim


def test_symmetric_quotient_requires_central_z():
    a = get("dim12_sharp")
    with pytest.raises(CentralityViolated):
        symmetric_quotient(a, a.monomial("M"))


def test_nu_star_of_unit_is_z():
    a = get("dim12_sharp")
    z = a.monomial("M^2")
    w = symmetric_quotient(a, z)
    onebar = w.ideal.quotient_coords(a.one.reshape(1, -1))[0]
    assert np.array_equal(w.nu_star_rows(onebar.reshape(1, -1))[0], z.coords)


def test_nu_star_bimodule_identity_and_injectivity():
    a = get("dim12_sharp")
    w = symmetric_quotient(a, a.monomial("M^2"))
    q = w.quotient
    assert w.adjoint_identity_holds()
    assert w.nu_star_injective()
    for s in range(q.dim):
        xbar = q.basis_element(s)
        for j in range(a.dim):
            y = a.basis_element(j)
            ybar = q.element(w.ideal.quotient_coords(y.coords.reshape(1, -1))[0])
            left = a.element(w.nu_star(xbar)) * y
            right = a.element(w.nu_star(xbar * ybar))
            assert left == right


def test_nu_projection_is_algebra_morphism():
    a = get("dim12_sharp")
    w = symmetric_quotient(a, a.monomial("M^2"))
    q = w.quotient
    proj = w.ideal.quotient_coords(a.field.eye(a.dim))
    for i in range(a.dim):
        for j in range(a.dim):
            prod = a.multiply_coords(a.field.eye(a.dim)[i], a.field.eye(a.dim)[j])
            lhs = w.ideal.quotient_coords(prod.reshape(1, -1))[0]
            rhs = q.multiply_coords(proj[i], proj[j])
            assert np.array_equal(lhs, rhs)


def test_nustar_relations_trivial_and_m2():
    a = get("dim12_sharp")
    for z in (a.one_element(), a.monomial("M^2")):
        rep = check_nustar_relations(symmetric_quotient(a, z))
        assert rep.all_hold()


def test_quotient_witness_keeps_its_rows_e_j_z(monkeypatch):
    # the witness finds the rows e_j z on their first read and keeps them;
    # Az and nu* read them.  A first check also computes the substructures
    # of A and A/I, which are kept per table; a second one then reaches no
    # right product at all
    t = get("soc20_trivext")
    w = symmetric_quotient(t, t.one_element())
    assert not w.az_rows.flags.writeable
    assert check_nustar_relations(w).all_hold()
    calls = []
    right_products = Algebra.right_products

    def counting(self, rows):
        calls.append(self)
        return right_products(self, rows)

    monkeypatch.setattr(Algebra, "right_products", counting)
    assert check_nustar_relations(w).all_hold()
    assert calls == []


def test_symmetric_quotient_reads_mu_off_the_gram_matrix(monkeypatch):
    # mu = lambda(. z) is z G for central z, read off the verified Gram
    # matrix G: once the table's facts are kept, a symmetric quotient makes
    # no right product
    a = get("dim12_sharp")
    z = a.monomial("M^2")
    first = symmetric_quotient(a, z)
    calls = []
    right_products = Algebra.right_products

    def counting(self, rows):
        calls.append(self)
        return right_products(self, rows)

    monkeypatch.setattr(Algebra, "right_products", counting)
    again = symmetric_quotient(a, z)
    assert calls == []
    assert again.ideal == first.ideal and again.quotient.same_table(first.quotient)
    assert np.array_equal(again.quotient.sym_form, first.quotient.sym_form)


def test_symmetric_quotient_lets_internal_check_errors_through(monkeypatch):
    # a fresh core, so the quotient's table is new and no radical of it is
    # known; each call returns a new quotient view with no certificate
    base = get("dim12_sharp")
    a = Algebra(base.field, dense_table(base), base.one, labels=base.labels,
                sym_form=base.sym_form, name="dim12_sharp, another table")
    assert a._core is not base._core
    w = symmetric_quotient(a, a.monomial("M^2"))

    def broken(_algebra):
        raise InternalCheckError("computed radical failed verification")

    monkeypatch.setattr(substructures, "_radical_rule", broken)
    with pytest.raises(InternalCheckError, match="^computed radical failed verification$"):
        radical(w.quotient)
    assert "radical" not in w.quotient._core.facts and "radical_cert" not in w.quotient._cache


def test_quotient_witness_reads_rows_by_the_encoding_rule():
    # the Python int 7 is the number 7 = 2 in GF(25); np.int64(30) is no encoding
    a = get("dual_gf25")
    w = symmetric_quotient(a, a.one)
    assert w.ideal.quotient_coords([[7, 0]]).tolist() == [[2, 0]]
    assert w.ideal.quotient_coords(np.array([[7, 0]])).tolist() == [[7, 0]]
    with pytest.raises(ScalarFormatError):
        w.ideal.quotient_coords(np.array([[30, 0]]))


def test_quotient_witness_lifts_rows_by_the_encoding_rule():
    a = get("dual_gf25")
    w = symmetric_quotient(a, a.one)
    assert w.ideal.lift_coords([[7, 0]]).tolist() == [[2, 0]]
    with pytest.raises(ScalarFormatError):
        w.ideal.lift_coords(np.array([[30, 0]]))


def test_quotient_map_rejects_rows_of_the_wrong_width():
    a = get("dual_gf3")
    zero = symmetric_quotient(a, a.one).ideal  # A/0 has dimension 2
    for ideal, bad_lift in ((zero, [1, 0, 0]), (radical(a).radical, [1, 0])):
        with pytest.raises(AmbientMismatch):
            ideal.quotient_coords([1, 0, 0, 1])
        with pytest.raises(AmbientMismatch):
            ideal.lift_coords(bad_lift)


def _same_quotient(w1, w2) -> bool:
    return w1.quotient._core is w2.quotient._core and w1.ideal == w2.ideal


def test_symmetric_quotient_is_built_once_per_z(monkeypatch):
    # I_mu is found once per (table, form, z): a second call on the same
    # view and z tests the centrality of z no more; each call builds one view
    a = get("dim12_sharp").replace(name="dim12_sharp, another view")
    z = a.monomial("M^2")
    tests, views = [], []
    contains_vector, init = Subspace.contains_vector, Algebra.__init__

    def counting_test(self, v):
        tests.append(self)
        return contains_vector(self, v)

    def counting_init(self, *args, **kwargs):
        views.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Subspace, "contains_vector", counting_test)
    monkeypatch.setattr(Algebra, "__init__", counting_init)
    w = symmetric_quotient(a, z)
    assert len(views) == 1
    first = len(tests)
    assert _same_quotient(symmetric_quotient(a, z), w)
    assert len(tests) == first and len(views) == 2
    assert _same_quotient(symmetric_quotient(a, z.coords.copy()), w)
    assert _same_quotient(symmetric_quotient(a, a.element(z.coords.copy())), w)
    assert not _same_quotient(symmetric_quotient(a, a.monomial("M^6")), w)
    with pytest.raises(FrozenInstanceError):
        w.quotient = a


def test_symmetric_quotient_memo_belongs_to_the_form(dual3):
    # lambda and lambda' are both symmetrizing on k[x]/(x^2); for z = 1 the
    # quotient form is the algebra's own form, so the two must differ
    w1 = symmetric_quotient(_with_form(dual3, [0, 1]), dual3.one)
    w2 = symmetric_quotient(_with_form(dual3, [1, 1]), dual3.one)
    assert [int(v) for v in w1.quotient.sym_form] == [0, 1]
    assert [int(v) for v in w2.quotient.sym_form] == [1, 1]


def test_symmetric_quotient_failure_is_not_memoised():
    a = get("dim12_sharp").replace(name="dim12_sharp, another view")
    for _ in range(2):
        with pytest.raises(CentralityViolated):
            symmetric_quotient(a, a.monomial("M"))


def test_symmetric_quotient_memo_over_qq_keys_on_values():
    # k[x, y]/(x^2, y^2) over QQ with the form dual to xy
    a = _with_form(from_skew_presentation(QQ, SkewPresentation.commuting([2, 2])),
                   [0, 0, 0, 1])
    w = symmetric_quotient(a, [0, Fraction(1, 2), 0, 0])
    assert _same_quotient(symmetric_quotient(a, a.element([0, Fraction(2, 4), 0, 0])), w)
    other = symmetric_quotient(a, [0, Fraction(1, 3), 0, 0])
    assert other.quotient.sym_form.tolist() != w.quotient.sym_form.tolist()


def test_form_is_verified_once_per_table_and_form(monkeypatch):
    # every Gram matrix computed, and those of a view's own form (its check)
    computed, calls = [], []
    form_gram = symmetric.form_gram

    def counting(algebra, mu):
        computed.append((algebra._core, mu.tobytes()))
        if np.array_equal(mu, algebra.sym_form):
            calls.append(computed[-1])
        return form_gram(algebra, mu)

    monkeypatch.setattr(symmetric, "form_gram", counting)
    # a form no other test gives dim12_sharp's table, so its check is new
    a = get("dim12_sharp")
    a = a.replace(name="dim12_sharp, 2 lambda", sym_form=a.field.a_mul(2, a.sym_form))
    assert perp(a, a.commutator_space()) == perp(a, a.commutator_space())
    w = symmetric_quotient(a, a.monomial("M^2"))
    assert _same_quotient(symmetric_quotient(a, a.monomial("M^2")), w)
    assert w.adjoint_identity_holds()
    assert analyze(a).symmetric and analyze(w.quotient).symmetric
    assert analyze(a.replace(name="again")).symmetric
    assert calls[0] == (a._core, a.sym_form.tobytes())
    assert len(calls) == len(set(calls)) and 1 <= len(calls) <= 2
    assert len(computed) == len(set(computed))


def test_a_verified_form_is_not_reduced_again_for_its_quotient(monkeypatch):
    # symmetric_gram finds lambda nondegenerate; A/(A 1)^perp = A/I_lambda
    # then needs I_lambda, which the same memo entry already holds
    a = _with_form(from_skew_presentation(QQ, SkewPresentation.commuting([2, 2])),
                   [0, 0, 0, 1])
    calls = []
    form_gram = symmetric.form_gram

    def counting(algebra, mu):
        calls.append((algebra._core, tuple(mu.tolist())))
        return form_gram(algebra, mu)

    monkeypatch.setattr(symmetric, "form_gram", counting)
    assert symmetric_gram(a) is not None
    w = symmetric_quotient(a, a.one_element())
    assert w.ideal.dim == 0 and w.quotient.same_table(a)
    assert calls == [(a._core, tuple(a.sym_form.tolist()))]


_SYMMETRIZE_ENTRIES = ("dual_gf3", "trunc3_gf3", "skew22_gf3", "matn", "skew222_gf3",
                       "mat2_dual_numbers")


@pytest.mark.parametrize("entry", _SYMMETRIZE_ENTRIES)
def test_symmetrize_matches_the_form_radical_oracle(entry):
    a = get(entry)
    f, p = a.field, a.field.characteristic
    table = dense_table(a).tolist()
    # the forms that kill K(A): {mu : k . mu = 0 for k in K(A)}
    forms = kernel(f, a.commutator_space().basis)
    rng = np.random.default_rng(0x5EED + a.dim)
    draws = [mu for mu in f.matmul2(f.random_enc(rng, (8, forms.dim)), forms.basis)
             if np.any(mu != f.zero_enc)]
    assert len(draws) >= 4
    for mu in draws:
        ideal, q = symmetrize(a, mu)
        assert ideal.basis.tolist() == naive_form_radical_mod(table, mu.tolist(), p)
        comp = ideal.complement_columns()
        assert q.dim == len(comp)
        assert q.sym_form.tolist() == [int(mu[c]) for c in comp]
        assert symmetric_gram(q) is not None


@pytest.mark.parametrize("entry", ["skew22_gf3", "matn", "skew222_gf3", "mat2_dual_numbers"])
def test_symmetrize_rejects_a_form_that_does_not_kill_k(entry):
    a = get(entry)
    k = a.commutator_space()
    # mu = e_c^* with column c of K's basis nonzero: mu(k) != 0 for some k in K
    c = int(np.nonzero(np.any(k.basis != a.field.zero_enc, axis=0))[0][0])
    with pytest.raises(NotSymmetricForm, match="does not vanish on the commutator space"):
        symmetrize(a, a.field.eye(a.dim)[c])


@pytest.mark.parametrize("entry", ["dual_gf3", "matn", "mat2_dual_numbers", "dim12_sharp"])
def test_symmetrize_by_the_own_form_is_the_identity(entry):
    a = get(entry)
    ideal, q = symmetrize(a, a.sym_form)
    assert ideal.dim == 0
    assert q.same_table(a)
    assert np.array_equal(q.sym_form, a.sym_form)


def test_symmetrize_by_the_zero_form_is_improper():
    a = get("skew22_gf3")
    with pytest.raises(ImproperIdeal):
        symmetrize(a, a.field.zeros(a.dim))


@pytest.mark.parametrize("entry", [name for name in _BUILDERS if get(name).sym_form is not None])
def test_symmetric_quotient_is_the_perp_of_az(entry):
    a = get(entry)
    f, n = a.field, a.dim
    for z in [a.one, *j_of_center(a).basis]:
        w = symmetric_quotient(a, z)
        assert symmetric_ideal(a, z)[0] == w.ideal == perp(a, w.az)
        # lambda_bar(e_c + I) = lambda(e_c z) on the complement columns c
        comp = w.ideal.complement_columns()
        ez = a.right_products(z[None, :])[0]
        expected = f.matmul2(ez[comp], a.sym_form.reshape(n, 1)).reshape(len(comp))
        assert np.array_equal(w.quotient.sym_form, expected)
