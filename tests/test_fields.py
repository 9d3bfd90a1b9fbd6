"""Exact scalar arithmetic: examples, exhaustive axioms, literals."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from oracles import gf25_elements_of_order, naive_mat_mul_frac

from symcenter import (
    GF,
    QQ,
    ExtensionField,
    FieldScalar,
    SkewPresentation,
    element_of_order,
    from_skew_presentation,
    gf25,
)
from symcenter.algebra import sum_by_key
from symcenter.fields import _F64_EXACT, _poly_mod
from symcenter.errors import (
    DivisionByZero,
    FieldMismatch,
    InvalidField,
    NoSuchOrder,
    ScalarFormatError,
)


def test_gf3_addition_wraps():
    g3 = GF(3)
    assert g3.scalar(2) + g3.scalar(2) == 1


def test_rational_product_reduces():
    assert QQ.scalar(Fraction(1, 2)) * QQ.scalar(Fraction(2, 3)) == Fraction(1, 3)


def test_gf25_generator_square_is_minus_two(f25):
    t = FieldScalar(f25, f25.coeffs_to_enc([0, 1]))
    assert t * t == 3


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    f = GF(p)
    for a, b, c in product(range(p), repeat=3):
        assert f.a_add(f.a_add(a, b), c) == f.a_add(a, f.a_add(b, c))
        assert f.a_mul(f.a_mul(a, b), c) == f.a_mul(a, f.a_mul(b, c))
        assert f.a_mul(a, f.a_add(b, c)) == f.a_add(f.a_mul(a, b), f.a_mul(a, c))
    for a in range(1, p):
        assert f.a_mul(a, f.s_inv(a)) == 1


def test_field_axioms_sampled_gf25_and_rationals(f25, rng):
    for f in (f25, QQ):
        for _ in range(200):
            a, b, c = (f.scalar(v) for v in _draw3(f, rng))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * a.inverse() == f.one()


def _draw3(field, rng):
    if field.order is None:
        return [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                for _ in range(3)]
    return [FieldScalar(field, int(e)) for e in rng.integers(0, field.order, 3)]


def test_element_of_order_examples(f25):
    assert element_of_order(GF(3), 2) == 2
    with pytest.raises(NoSuchOrder):
        element_of_order(GF(5), 3)
    # oracle: exhaustive scan with an independent tuple-based GF(25)
    oracle = gf25_elements_of_order(24)
    assert oracle, "GF(25)* is cyclic of order 24, a generator must exist"
    smallest = oracle[0]
    q = element_of_order(f25, 24)
    assert f25.enc_to_coeffs(q.value) == smallest
    assert f25.enc_to_coeffs(q.value) == (1, 1)  # frozen from the oracle
    assert q ** 24 == f25.one()
    for ell in (2, 3):
        assert q ** (24 // ell) != f25.one()


def test_element_of_order_rationals_rejected():
    with pytest.raises(NoSuchOrder):
        element_of_order(QQ, 2)


def test_canonicalisation_idempotent(f25):
    g7 = GF(7)
    assert g7.parse_enc("-1") == 6
    assert g7.parse_enc(g7.format_enc(5)) == 5
    assert QQ.parse_enc("2/4") == Fraction(1, 2)
    assert QQ.parse_enc(QQ.format_enc(Fraction(-3, 7))) == Fraction(-3, 7)
    for enc in range(25):
        assert f25.parse_enc(f25.format_enc(enc)) == enc
    with pytest.raises(ScalarFormatError):
        GF(3).parse_enc("x")
    with pytest.raises(ScalarFormatError):
        QQ.parse_enc("1/0")


def test_field_construction_guards():
    with pytest.raises(InvalidField):
        GF(6)
    with pytest.raises(InvalidField):
        ExtensionField(5, [1, 0, 1])  # t^2 + 1 = (t+2)(t+3) mod 5
    with pytest.raises(InvalidField):
        ExtensionField(5, [2, 0, 2])  # not monic
    with pytest.raises(InvalidField):
        ExtensionField(5, [2, 1])  # degree 1
    assert ExtensionField(2, [1, 1, 0, 1]).order == 8  # t^3 + t + 1 irreducible
    # a huge p is refused by the size caps, before any trial division
    with pytest.raises(InvalidField, match="cap"):
        GF(2**61 - 1)
    with pytest.raises(InvalidField, match="cap"):
        ExtensionField(2**61 - 1, [1, 0, 1])


def test_mixed_field_arithmetic_rejected():
    a = GF(3).scalar(1)
    b = GF(5).scalar(1)
    with pytest.raises(FieldMismatch):
        _ = a + b
    # equal parameters are interoperable even for distinct instances
    assert GF(3).scalar(2) + GF(3).scalar(2) == 1


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        GF(3).scalar(1) / GF(3).scalar(0)
    with pytest.raises(DivisionByZero):
        QQ.scalar(1) / QQ.scalar(0)


def test_matmul_exact_against_naive(f25, rng):
    for field in (GF(3), GF(7), f25, QQ):
        a = field.random_enc(rng, (6, 5))
        b = field.random_enc(rng, (5, 4))
        m = field.matmul2(a, b)
        for i in range(6):
            for j in range(4):
                acc = field.zero_enc
                for t in range(5):
                    acc = field.a_add(acc, field.a_mul(a[i, t], b[t, j]))
                assert m[i, j] == acc


_SUM_FIELDS = {
    "GF(2)": lambda: GF(2),
    "GF(7)": lambda: GF(7),
    "GF(25)": gf25,
    "GF(2^10)": lambda: ExtensionField(2, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1]),
    "QQ": lambda: QQ,
}


@pytest.mark.parametrize("name", _SUM_FIELDS)
def test_sum_runs_match_entrywise_oracle(name, rng):
    """a_sum_runs, the one sum of every product with a table (directly,
    and through sum_by_key), adds each run as a_add folded entry by entry: on 1-D and on
    (entries, rows) terms, with runs of one term and a run of 70."""
    field = _SUM_FIELDS[name]()
    for lengths in ([1] * 9, [2, 1, 70, 1, 3]):
        starts = np.cumsum([0, *lengths[:-1]])
        keys = np.repeat(3 * np.arange(len(lengths)), lengths)
        for shape in ((len(keys),), (len(keys), 4)):
            terms = field.random_enc(rng, shape)
            if field.order is not None and max(lengths) > 64:
                terms[starts[2]: starts[2] + 70] = field.order - 1     # the largest digits
            want = []
            for start, length in zip(starts, lengths):
                acc = terms[start]
                for term in terms[start + 1: start + length]:
                    acc = field.a_add(acc, term)
                want.append(acc)
            got = field.a_sum_runs(terms, starts)
            assert got.shape == (len(lengths), *shape[1:])
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            got_keys, sums = sum_by_key(field, keys, terms)
            assert got_keys.tolist() == sorted(set(keys.tolist()))
            if len(starts) == len(keys):
                assert got_keys is keys and sums is terms
            else:
                assert all(np.array_equal(g, w) for g, w in zip(sums, want))


def test_matmul_large_prime_fallback(rng):
    # p large enough that the float64 path is refused for long contractions
    p = 2147483629
    f = GF(p)
    a = f.random_enc(rng, (3, 4))
    b = f.random_enc(rng, (4, 2))
    m = f.matmul2(a, b)
    for i in range(3):
        for j in range(2):
            acc = sum(int(a[i, t]) * int(b[t, j]) for t in range(4)) % p
            assert m[i, j] == acc


def test_scalar_literal_forms(f25):
    assert f25.parse_enc("[2,3]") == f25.coeffs_to_enc([2, 3])
    assert f25.parse_enc("7") == 2
    assert f25.format_enc(f25.coeffs_to_enc([2, 3])) == "[2,3]"
    assert GF(11).format_enc(7) == "7"
    assert QQ.format_enc(Fraction(5)) == "5"
    assert QQ.format_enc(Fraction(-1, 2)) == "-1/2"


def test_python_ints_are_numbers_and_numpy_ints_are_encodings(f25):
    # 7 encodes t + 2 in GF(25); the number 7 is 7 * 1 = 2
    assert f25.arr([7]).tolist() == [2]
    assert f25.scalar(7) == 2
    assert f25.arr([np.int64(7), 7]).tolist() == [7, 2]
    assert f25.arr(np.array([7, 0])).tolist() == [7, 0]
    assert f25.scalar(np.int64(7)).value == 7
    assert f25.arr([Fraction(1, 2), f25.scalar(np.int64(7))]).tolist() == [3, 7]
    assert QQ.arr(np.array([-3, 2])).tolist() == [Fraction(-3), Fraction(2)]
    assert QQ.scalar(np.int64(-3)) == -3


def test_numpy_ints_beside_a_scalar_are_encodings(f25):
    # np.int64(7) encodes t + 2, so 1 + it is t + 3 = [3,1] in either order
    one, seven = f25.scalar(1), np.int64(7)
    assert (one + seven).value == (seven + one).value == f25.coeffs_to_enc([3, 1])
    assert (seven - one).value == f25.coeffs_to_enc([1, 1])
    assert (one - seven).value == f25.coeffs_to_enc([4, 4])
    assert (one * seven).value == (seven * one).value == 7
    assert (f25.scalar(2) == seven) is False
    assert (seven == f25.scalar(2)) is False
    assert f25.scalar(seven) == seven and seven == f25.scalar(seven)
    with pytest.raises(ScalarFormatError, match=r"outside \[0, 25\)"):
        one + np.int64(25)
    with pytest.raises(ScalarFormatError, match=r"outside \[0, 25\)"):
        np.int64(25) * one


def _qq_type(v):
    """The type of the canonical rational encoding of ``v``: ``int`` exactly
    when ``v`` is integral, ``Fraction`` otherwise."""
    return int if Fraction(v).denominator == 1 else Fraction


@pytest.mark.parametrize("field", [GF(3), gf25(), QQ], ids=repr)
def test_scalar_values_stay_python_numbers(field):
    a, b = field.scalar(2), field.scalar(np.int64(1))
    for r in (a + b, a - b, -a, a * b, a / b, 1 / a, a ** 3, a ** -2, a.inverse()):
        assert type(r.value) is (int if field.order is not None else _qq_type(r.value))
    if field.order is not None:
        assert type(a.multiplicative_order()) is int


@pytest.mark.parametrize("bad", [np.int64(25), np.int64(-1), np.uint8(30), np.uint64(2**63)],
                         ids=repr)
def test_numpy_ints_outside_the_field_are_refused(f25, bad):
    with pytest.raises(ScalarFormatError, match=r"outside \[0, 25\)"):
        f25.scalar(bad)
    with pytest.raises(ScalarFormatError, match=r"outside \[0, 25\)"):
        f25.arr([0, bad])
    with pytest.raises(ScalarFormatError, match=r"outside \[0, 25\)"):
        f25.arr(np.array([0, bad], dtype=bad.dtype))


@pytest.mark.parametrize("bad", [-1, 7, int(np.iinfo(np.int64).min)],
                         ids=["negative", "order", "int64_min"])
def test_an_encoded_array_outside_the_prime_field_is_refused(bad):
    f = GF(7)
    # an int64 array is checked as uint64, where a negative value is >= 2**63;
    # a strided view is read through the same view
    wide = np.array([[0, 5, 6, 5], [bad, 5, 1, 5]], dtype=np.int64)
    arrays = [np.array([[0, 6], [bad, 1]], dtype=dtype) for dtype in (np.int64, np.int32)
              if np.iinfo(dtype).min <= bad <= np.iinfo(dtype).max]
    for values in arrays + [wide[:, ::2], wide.T[::2]]:
        with pytest.raises(ScalarFormatError, match=r"^an encoded value lies outside "
                                                    r"\[0, 7\) for GF\(7\)$"):
            f.arr(values)
    assert f.arr(np.array([[0, 6]], dtype=np.int32)).dtype == np.int64
    assert f.arr(wide[:, 1::2]).tolist() == [[5, 5], [5, 5]]


@pytest.mark.parametrize("field", [GF(3), gf25(), QQ], ids=repr)
@pytest.mark.parametrize("ragged", [
    [[1, 0], [0]],
    [[1, 0], []],
    [[1], [[2]]],
    [[[1, 2]], [[3]]],
], ids=repr)
def test_ragged_nested_input_is_a_scalar_format_error(field, ragged):
    with pytest.raises(ScalarFormatError, match="different shapes"):
        field.arr(ragged)


@pytest.mark.parametrize("field", [GF(3), gf25(), QQ], ids=repr)
def test_rectangular_nested_input_keeps_its_shape(field):
    assert field.arr([[1, 0], [0, 2]]).shape == (2, 2)
    assert field.arr([[], []]).shape == (2, 0)
    assert field.arr(([1], (2,), np.array([1]))).shape == (3, 1)
    assert field.arr(np.array([[1, 0]], dtype=object)).tolist() == [[field.one_enc, field.zero_enc]]


@pytest.mark.parametrize("field", [GF(3), QQ], ids=repr)
def test_floats_are_refused(field):
    for bad in (2.7, 2.0, np.float64(0.5)):
        with pytest.raises(ScalarFormatError, match="floating-point"):
            field.scalar(bad)
        with pytest.raises(ScalarFormatError, match="floating-point"):
            field.arr([1, bad])
    with pytest.raises(ScalarFormatError, match="floating-point"):
        field.arr(np.array([0.0, 1.0]))
    with pytest.raises(TypeError):
        field.scalar(1) * 2.7


@pytest.mark.parametrize("field", [GF(5), gf25(), QQ], ids=repr)
def test_booleans_are_refused(field):
    for bad in (True, False, np.True_):
        with pytest.raises(ScalarFormatError, match="booleans are not scalars"):
            field.scalar(bad)
        with pytest.raises(ScalarFormatError, match="booleans are not scalars"):
            field.arr([1, bad])
    for bad in (True, False):
        with pytest.raises(ScalarFormatError, match="booleans are not scalars"):
            field.scalar(2) + bad
    with pytest.raises(ScalarFormatError, match="booleans are not scalars"):
        field.arr(np.array([True, False]))
    with pytest.raises(ScalarFormatError, match="booleans are not scalars"):
        from_skew_presentation(field, SkewPresentation((2, 2), (((1, 0), True),)))


# -- the exact QQ matrix product and the in-place row elimination --------------


def _assert_canonical_product(a, b):
    got = QQ.matmul2(a, b)
    assert got.dtype == object and got.shape == (a.shape[0], b.shape[1])
    assert all(type(v) is _qq_type(v) for v in got.flat)
    assert got.tolist() == naive_mat_mul_frac(a.tolist(), b.tolist())


def test_qq_matmul2_mixed_denominators(rng):
    for _ in range(20):
        a = QQ.random_enc(rng, (4, 5))
        b = QQ.random_enc(rng, (5, 3))
        _assert_canonical_product(a, b)
    a = QQ.arr([[Fraction(1, 6), Fraction(-5, 4)], [Fraction(7, 9), 0]])
    b = QQ.arr([[Fraction(3, 10), 2], [Fraction(1, 14), Fraction(-2, 3)]])
    _assert_canonical_product(a, b)


def test_qq_matmul2_int64_rung():
    # scaled entries near 2**28: past the float64 bound, inside int64
    a = QQ.arr([[2**28 - 1, -(2**28) + 5, 3], [1, Fraction(2**27 + 1, 2), 0]])
    b = QQ.arr([[2**28 - 3, 1], [Fraction(-(2**28) + 7, 2), 2**27], [5, -1]])
    _assert_canonical_product(a, b)


def test_qq_matmul2_beyond_int64_bound():
    big = 2**41 + 3
    a = QQ.arr([[big, Fraction(1, big)], [Fraction(-big, 7), 5]])
    b = QQ.arr([[Fraction(big, 3), 1], [Fraction(2, 5 * big), -big]])
    # the scaled operands break 2**62, so the Python-int rung runs
    _assert_canonical_product(a, b)
    huge = QQ.arr([[2**70 + 1, -(2**65)], [Fraction(1, 2**50), 3]])
    _assert_canonical_product(huge, huge)


def test_qq_matmul2_zero_sizes_and_zero_operand():
    for r, m, c in ((0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0)):
        got = QQ.matmul2(QQ.zeros((r, m)), QQ.zeros((m, c)))
        assert got.shape == (r, c) and got.dtype == object
        assert all(v == 0 and type(v) is _qq_type(v) for v in got.flat)
    zero = QQ.zeros((2, 2))
    huge = QQ.arr([[2**2000, 1], [Fraction(1, 3), 2]])
    _assert_canonical_product(zero, huge)


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(7), gf25(), QQ], ids=repr)
def test_eye_equals_the_identity_built_entry_by_entry(field):
    want = field.zeros((4, 4))
    for i in range(4):
        want[i, i] = field.one_enc
    got = field.eye(4)
    assert got.dtype == want.dtype and got.flags.writeable
    assert got.tolist() == want.tolist()
    assert [type(v) for v in got.flat] == [type(v) for v in want.flat]
    if field.dtype is object:
        assert {type(v) for v in got.flat} == {int}


def test_qq_entry_points_return_canonical_values():
    def canonical(*values):
        return all(type(v) is _qq_type(v) for v in values)

    assert QQ.zero_enc == 0 and QQ.one_enc == 1 and canonical(QQ.zero_enc, QQ.one_enc)
    assert QQ.from_int(4) == 4 and canonical(QQ.from_int(4), QQ.from_int(np.int64(-4)))
    reads = [(4, 4), (Fraction(4, 2), 2), (np.int64(-4), -4), (Fraction(-1, 2), Fraction(-1, 2)),
             (QQ.scalar(Fraction(8, 4)), 2), (QQ.scalar(Fraction(1, 2)) * 4, 2)]
    for v, want in reads:
        got = QQ._enc(v)
        assert got == want and canonical(got), v
        assert QQ.scalar(v).value == want and canonical(QQ.scalar(v).value)
    assert QQ.arr([Fraction(6, 3), Fraction(1, 3), 0]).tolist() == [2, Fraction(1, 3), 0]
    assert canonical(*QQ.arr([Fraction(6, 3), Fraction(1, 3), np.int64(0)]).flat)
    for text, want in (("4/2", 2), ("-6/3", -2), (" 7 ", 7), ("1/2", Fraction(1, 2))):
        assert QQ.parse_enc(text) == want and canonical(QQ.parse_enc(text)), text
    for a, want in ((1, 1), (-1, -1), (2, Fraction(1, 2)), (Fraction(1, 3), 3),
                    (Fraction(2), Fraction(1, 2)), (Fraction(-2, 4), -2)):
        assert QQ.s_inv(a) == want and canonical(QQ.s_inv(a)), a
    half = QQ.arr([[Fraction(1, 2), Fraction(3, 2)]])
    got = QQ.matmul2(half, QQ.arr([[1], [1]]))
    assert got.tolist() == [[2]] and canonical(*got.flat)
    assert canonical(*QQ.matmul2(half, QQ.arr([[1], [0]])).flat)
    assert canonical(*QQ.zeros((2, 3)).flat, *QQ.eye(3).flat)
    assert QQ.eye(2).tolist() == [[1, 0], [0, 1]]
    drawn = QQ.random_enc(np.random.default_rng(23), (6, 6))
    assert canonical(*drawn.flat) and {int, Fraction} == set(map(type, drawn.flat))


@pytest.mark.parametrize("field_name", ["gf7", "gf25", "qq"])
def test_elim_touches_only_rows_with_nonzero_factor(field_name, f25, rng):
    field = {"gf7": GF(7), "gf25": f25, "qq": QQ}[field_name]
    m = field.random_enc(rng, (6, 4))
    before = m.copy()
    f = field.zeros(6)
    f[1] = field.from_int(2)
    f[4] = field.from_int(3)
    f_before = f.copy()
    row = field.random_enc(rng, (4,))
    out = field.elim(m, f, row)
    assert out is m
    assert np.array_equal(f, f_before)
    for i in range(6):
        if f[i] == field.zero_enc:
            assert np.array_equal(m[i], before[i])
        else:
            expect = [field.a_sub(x, field.a_mul(f[i], y)) for x, y in zip(before[i], row)]
            assert list(m[i]) == expect


def _rung(field, m):
    """Which product rung ExtensionField.matmul2 takes for contraction m."""
    p, k = field.p, field.degree
    x = 1 << (m * k * (p - 1) ** 2 + 1).bit_length()
    v_max = (p - 1) * (x**k - 1) // (x - 1)
    bound = m * v_max * v_max
    return "float64" if bound < _F64_EXACT else "planes"


@pytest.mark.parametrize("p, modulus, shape, rung", [
    (2, [1, 1, 1], (5, 7, 4), "float64"),          # GF(4)
    (2, [1, 1, 0, 1], (5, 7, 4), "float64"),       # GF(8)
    (3, [1, 0, 1], (5, 7, 4), "float64"),          # GF(9)
    (3, [1, 2, 0, 1], (5, 7, 4), "float64"),       # GF(27)
    (5, [2, 0, 1], (5, 7, 4), "float64"),          # GF(25)
    (5, [1, 1, 0, 1], (4, 50, 3), "planes"),       # GF(125)
    (2, [1, 1, 0, 0, 0, 0, 1], (4, 40, 3), "planes"),  # GF(64)
])
def test_extension_matmul_every_rung(p, modulus, shape, rung, rng):
    field = ExtensionField(p, modulus)
    k = field.degree
    assert field._readback.size == p ** (2 * k - 1)
    r, m, c = shape
    assert _rung(field, m) == rung
    a = field.random_enc(rng, (r, m))
    b = field.random_enc(rng, (m, c))
    a[0] = field.order - 1                      # the largest digits everywhere
    b[:, 0] = field.order - 1
    got = field.matmul2(a, b)
    for i in range(r):
        for j in range(c):
            acc = field.zero_enc
            for t in range(m):
                acc = field.a_add(acc, field.a_mul(int(a[i, t]), int(b[t, j])))
            assert got[i, j] == acc


def _base_p_digits(enc, p, k):
    return [enc // p**i % p for i in range(k)]


@pytest.mark.parametrize("p, modulus", [
    (2, [1, 1, 1]),            # GF(4)
    (2, [1, 1, 0, 1]),         # GF(8)
    (3, [1, 0, 1]),            # GF(9)
    (5, [2, 0, 1]),            # GF(25)
    (3, [1, 2, 0, 1]),         # GF(27)
])
def test_extension_tables_match_schoolbook_arithmetic(p, modulus):
    field = ExtensionField(p, modulus)
    q, k = field.order, field.degree
    for a in range(q):
        da = _base_p_digits(a, p, k)
        for b in range(q):
            db = _base_p_digits(b, p, k)
            conv = [0] * (2 * k - 1)
            for u in range(k):
                for v in range(k):
                    conv[u + v] += da[u] * db[v]
            rem = _poly_mod(conv, modulus, p)
            assert field._mul_table[a, b] == sum(c * p**i for i, c in enumerate(rem))
            assert field._add_table[a, b] == sum(
                (x + y) % p * p**i for i, (x, y) in enumerate(zip(da, db)))


def _kron_per_plane(field, enc, x):
    """Reference encoding: gather the (..., k) digit planes, then combine."""
    dig = field._digits_f64[enc]
    out = dig[..., 0].copy()
    scale = 1.0
    for j in range(1, field.degree):
        scale *= x
        out += dig[..., j] * scale
    return out


def _largest_f64_base(field):
    """The base x of the longest contraction that stays on the float64 rung."""
    m = 1
    while _rung(field, m + 1) == "float64":
        m += 1
    return 1 << (m * field.degree * (field.p - 1) ** 2 + 1).bit_length()


@pytest.mark.parametrize("p, modulus", [
    (2, [1, 1, 1]),            # GF(4)
    (3, [1, 0, 1]),            # GF(9)
    (5, [2, 0, 1]),            # GF(25)
    (3, [1, 2, 0, 1]),         # GF(27)
])
def test_kron_f64_is_digit_by_digit_evaluation(p, modulus):
    field = ExtensionField(p, modulus)
    q, k = field.order, field.degree
    x = _largest_f64_base(field)
    assert (p - 1) * (x**k - 1) // (x - 1) < _F64_EXACT
    encs = np.arange(q).reshape(1, q)[:, ::-1]           # every encoding, 2-D
    got = field._kron_f64(encs, x)
    assert got.shape == encs.shape and got.dtype == np.float64
    want = [sum(d * x**j for j, d in enumerate(_base_p_digits(int(e), p, k)))
            for e in encs[0]]
    assert [int(v) for v in got[0]] == want                 # exact, as integers
    assert np.array_equal(got, _kron_per_plane(field, encs, x))
