"""Property tests of the exact kernel on both sides of its dtype switches.

Scalar products and conjugates are compared with sympy's remainder modulo
the cyclotomic polynomial; matrix products, scalar multiples and sums with
entrywise CycNumber arithmetic.  Coefficients are drawn up to 2^62, so the
work dtype chosen from the worst-case bound falls on every side: float64
below 2^53 (matrix products only), int64 below 2^61, Python ints above.
Matrix products in the float64 tier are also compared with the same product
run on Python ints, and products against a multiplication matrix with
_product, on each side of the 2^53 bound over their contracted length.
Inverses are compared with sympy's invert where that finishes quickly
(two-term numerators, or degree 8) and otherwise checked by sympy's product.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, Poly, cyclotomic_poly, invert, symbols

from so3tqft.cyclo import _INT64_GUARD, CycNumber, _split_primes, get_field
from so3tqft.cycmatrix import (
    CycMatrix,
    _mul_dtype,
    _mul_matrix,
    _mul_product,
    _product,
    _product_dtype,
)

X = symbols("x")

# field moduli n with degrees phi(n) = 8, 24, 60 and 72
MODULI = (20, 52, 124, 148)
# and with degree 36 as well
INV_MODULI = (20, 52, 76, 124, 148)

KERNEL = settings(max_examples=25, deadline=None)

# float64 represents every integer of magnitude up to 2^53 exactly
FLOAT64_EXACT = 1 << (np.finfo(np.float64).nmant + 1)


def coeffs(d, min_bits=0, max_bits=62):
    """d integers bounded by 2^b in magnitude, b drawn once per vector."""
    return st.integers(min_bits, max_bits).flatmap(
        lambda b: st.lists(st.integers(-(1 << b), 1 << b), min_size=d, max_size=d)
    )


def near_power_coeffs(d, min_bits=40, max_bits=62):
    """d integers of magnitude between 2^(b-1) and 2^b, random signs."""
    return st.integers(min_bits, max_bits).flatmap(
        lambda b: st.lists(
            st.tuples(st.sampled_from((1, -1)), st.integers(1 << (b - 1), 1 << b)).map(
                lambda t: t[0] * t[1]
            ),
            min_size=d,
            max_size=d,
        )
    )


def sympy_reduce(terms, n, d):
    """Ascending coefficients of sum c x^e modulo Phi_n, from {e: c}."""
    phi = Poly(cyclotomic_poly(n, X), X)
    rem = Poly.from_dict({(e,): c for e, c in terms.items()}, X).rem(phi)
    out = [int(c) for c in reversed(rem.all_coeffs())]
    return tuple(out + [0] * (d - len(out)))


def sympy_mul(a, b, n):
    terms = {}
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            terms[i + j] = terms.get(i + j, 0) + x * y
    return sympy_reduce(terms, n, len(a))


def sympy_conj(a, n):
    return sympy_reduce({(n - j) % n: x for j, x in enumerate(a)}, n, len(a))


@pytest.mark.parametrize("n", MODULI)
@KERNEL
@given(data=st.data())
def test_scalar_mul_and_conj_match_sympy(n, data):
    f = get_field(n)
    d = f.degree
    a = data.draw(near_power_coeffs(d))
    b = data.draw(coeffs(d))
    x, y = CycNumber(f, a, 1), CycNumber(f, b, 1)
    assert (x * y).num == sympy_mul(a, b, n)
    assert x.conj().num == sympy_conj(a, n)
    assert y.conj().num == sympy_conj(b, n)


@pytest.mark.parametrize("n", MODULI)
def test_scalar_mul_at_the_dtype_switch(n):
    # the largest and smallest factors on each side of the int64 bound
    f = get_field(n)
    d = f.degree
    ma = 1 << 40
    mb = _INT64_GUARD // (ma * d * (1 + d * f.red_max))
    a = [ma if j % 2 else -ma for j in range(d)]
    for m, dtype in ((mb, np.int64), (mb + 1, object)):
        assert f.product_dtype(ma, m) is dtype
        b = [m] * d
        assert (CycNumber(f, a, 1) * CycNumber(f, b, 1)).num == sympy_mul(a, b, n)


def _max(arr):
    return int(np.abs(arr).max(initial=0))


def object_product(f, a, b, shift=64):
    """_product(f, a, b) computed on Python ints: a scaled by 2^shift puts
    the bound past int64, and the exact result is scaled back."""
    big = a.astype(object) * (1 << shift)
    assert _product_dtype(f, _max(big), _max(b), a.shape[1]) is object or not a.any()
    return _product(f, big, b).astype(object) // (1 << shift)


def entrywise_product(f, a, b):
    """The coefficient rows of the matrix product of a and b, entry by entry
    in CycNumber arithmetic."""
    return [
        [
            sum(
                (CycNumber(f, a[i, j].tolist(), 1) * CycNumber(f, b[j, l].tolist(), 1)
                 for j in range(a.shape[1])),
                f.zero,
            ).num
            for l in range(b.shape[1])
        ]
        for i in range(a.shape[0])
    ]


@pytest.mark.parametrize("n", MODULI)
def test_matrix_product_at_the_float64_switch(n):
    # the largest and smallest factors on each side of the float64 bound
    f = get_field(n)
    d = f.degree
    k = 3
    ma = 1 << 20
    mb = (FLOAT64_EXACT - 1) // (ma * k * d * (1 + d * f.red_max))
    a = np.array([[[ma if (i + j + p) % 2 else -ma for p in range(d)] for j in range(k)]
                  for i in range(2)], dtype=np.int64)
    for m, dtype in ((mb, np.float64), (mb + 1, np.int64)):
        assert (f.product_bound(ma, m, k) < FLOAT64_EXACT) == (dtype is np.float64)
        assert _product_dtype(f, ma, m, k) is dtype
        b = np.full((k, 2, d), m, dtype=np.int64)
        b[1, 0] = -m
        got = _product(f, a, b)
        assert got.dtype == np.int64
        assert np.array_equal(got, object_product(f, a, b))
        assert [[tuple(x) for x in row] for row in got.tolist()] == entrywise_product(f, a, b)


@pytest.mark.parametrize("n", MODULI)
def test_mul_product_at_the_float64_switch(n):
    # the largest and smallest multipliers on each side of the float64 bound
    # of a (2, k, d) product against the multiplication matrix of b, whose
    # contracted length is k d
    f = get_field(n)
    d = f.degree
    k = 3
    ma = 1 << 20
    a = np.array([[[ma if (i + j + p) % 2 else -ma for p in range(d)] for j in range(k)]
                  for i in range(2)], dtype=np.int64)
    unit = np.ones((k, 2, d), dtype=np.int64)
    unit[1, 0] = -1
    c = _max(_mul_matrix(f, unit))
    mb = (FLOAT64_EXACT - 1) // (ma * c * k * d)
    for m, dtype in ((mb, np.float64), (mb + 1, np.int64)):
        b = unit * m
        bmul = _mul_matrix(f, b)
        assert _max(bmul) == m * c
        assert (ma * m * c * k * d < FLOAT64_EXACT) == (dtype is np.float64)
        assert _mul_dtype(a, bmul) is dtype
        got = _mul_product(a, bmul)
        assert got.dtype == np.int64
        assert np.array_equal(got, _product(f, a, b))
        assert [[tuple(x) for x in row] for row in got.tolist()] == entrywise_product(f, a, b)
        # past 2^63: Python ints, the same coefficients scaled
        big = a.astype(object) * (1 << 64)
        assert _mul_dtype(big, bmul) is object
        assert np.array_equal(_mul_product(big, bmul), got.astype(object) * (1 << 64))


@pytest.mark.parametrize("n", (20, 52, 148))
@KERNEL
@given(data=st.data())
def test_float64_products_match_python_int_products(n, data):
    f = get_field(n)
    d = f.degree
    m, k, l = (data.draw(st.integers(1, 3)) for _ in range(3))
    # magnitudes up to about the largest the float64 tier admits
    top = (53 - (k * d * (1 + d * f.red_max)).bit_length()) // 2
    a = np.array(data.draw(st.lists(coeffs(d, 0, top), min_size=m * k, max_size=m * k)))
    b = np.array(data.draw(st.lists(coeffs(d, 0, top), min_size=k * l, max_size=k * l)))
    a, b = a.reshape(m, k, d), b.reshape(k, l, d)
    assert _product_dtype(f, _max(a), _max(b), k) is np.float64
    assert np.array_equal(_product(f, a, b), object_product(f, a, b))


@pytest.mark.parametrize("n", (20, 52, 148))
@KERNEL
@given(data=st.data())
def test_mul_products_match_products(n, data):
    # coefficients up to 2^70, so every tier is drawn
    f = get_field(n)
    d = f.degree
    m, k, l = (data.draw(st.integers(1, 3)) for _ in range(3))
    a = data.draw(st.lists(coeffs(d, 0, 70), min_size=m * k, max_size=m * k))
    b = data.draw(st.lists(coeffs(d, 0, 70), min_size=k * l, max_size=k * l))
    a = np.array(a, dtype=object).reshape(m, k, d)
    b = np.array(b, dtype=object).reshape(k, l, d)
    got = _mul_product(a, _mul_matrix(f, b))
    assert np.array_equal(got, _product(f, a, b))
    assert [[tuple(x) for x in row] for row in got.tolist()] == entrywise_product(f, a, b)


def cyc_matrix(draw, f, rows, cols, max_bits=62):
    entries = [
        CycNumber(f, draw(coeffs(f.degree, 0, max_bits)), draw(st.integers(1, 12)))
        for _ in range(rows * cols)
    ]
    return CycMatrix(f, rows, cols, entries)


@pytest.mark.parametrize("n", (20, 52, 148))
@KERNEL
@given(data=st.data())
def test_matrix_ops_match_entrywise_arithmetic(n, data):
    f = get_field(n)
    m, k, l = (data.draw(st.integers(1, 3)) for _ in range(3))
    a = cyc_matrix(data.draw, f, m, k)
    b = cyc_matrix(data.draw, f, k, l)
    c = cyc_matrix(data.draw, f, m, k)
    s = CycNumber(f, data.draw(coeffs(f.degree)), data.draw(st.integers(1, 12)))

    prod = a @ b
    for i in range(m):
        for j in range(l):
            want = f.zero
            for t in range(k):
                want = want + a[i, t] * b[t, j]
            assert prod[i, j] == want
    assert a.scalar_mul(s).entries == [e * s for e in a.entries]
    assert (a + c).entries == [x + y for x, y in zip(a.entries, c.entries)]
    assert (a - c).entries == [x - y for x, y in zip(a.entries, c.entries)]
    assert a.conj_transpose().transpose().entries == [e.conj() for e in a.entries]


@pytest.mark.parametrize("n", MODULI)
@KERNEL
@given(data=st.data())
def test_equal_matrices_reached_through_either_dtype_have_one_key(n, data):
    f = get_field(n)
    a = cyc_matrix(data.draw, f, 2, 2, max_bits=20)
    assert a.arr.dtype == np.int64
    big = f.from_int(1 << 70)
    scaled = a.scalar_mul(big)
    shifted = a + CycMatrix.identity(f, 2).scalar_mul(big)
    assert scaled.arr.dtype == object or a.is_zero()
    assert shifted.arr.dtype == object
    for back in (
        scaled.scalar_mul(f.from_fraction(Fraction(1, 1 << 70))),
        shifted - CycMatrix.identity(f, 2).scalar_mul(big),
    ):
        assert back.arr.dtype == np.int64
        assert back == a
        assert back.key() == a.key()
        assert hash(back) == hash(a)


def test_sum_with_zero_over_a_huge_denominator():
    f = get_field(20)
    tiny = CycMatrix.identity(f, 2).scalar_mul(f.from_fraction(Fraction(3, 1 << 70)))
    zero = CycMatrix.identity(f, 2) - CycMatrix.identity(f, 2)
    assert zero.is_zero() and zero.den == 1
    assert zero + tiny == tiny
    assert (tiny - zero).entries == tiny.entries
    assert (tiny - tiny).key() == zero.key()


def sympy_inverse(a, n):
    """Fraction coefficients of 1 / a(x) modulo Phi_n, by sympy's invert."""
    phi = Poly(cyclotomic_poly(n, X), X, domain=QQ)
    u = invert(Poly(list(reversed(a)), X, domain=QQ), phi)
    out = [Fraction(int(c.p), int(c.q)) for c in reversed(u.all_coeffs())]
    return out + [Fraction(0)] * (len(a) - len(out))


def fractions(x):
    return [Fraction(c, x.den) for c in x.num]


def nonzero(bits=62):
    return st.integers(-(1 << bits), 1 << bits).filter(bool)


@pytest.mark.parametrize("n", INV_MODULI)
@KERNEL
@given(data=st.data())
def test_inv_matches_sympy_invert(n, data):
    f = get_field(n)
    d = f.degree
    if d <= 8:
        a = data.draw(coeffs(d).filter(any))
    else:  # sympy's invert takes minutes on dense numerators here
        i, j = data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        a = [0] * d
        a[i], a[j] = data.draw(nonzero()), data.draw(nonzero())
    den = data.draw(st.integers(2, 1 << 62))
    want = [den * c for c in sympy_inverse(a, n)]
    assert fractions(CycNumber(f, a, den).inv()) == want


@pytest.mark.parametrize("n", INV_MODULI)
@KERNEL
@given(data=st.data())
def test_inv_is_an_inverse_in_sympy_arithmetic(n, data):
    f = get_field(n)
    d = f.degree
    a = data.draw(coeffs(d).filter(any))
    den = data.draw(st.integers(2, 1 << 62))
    u = CycNumber(f, a, den).inv()
    assert sympy_mul(a, u.num, n) == (den * u.den,) + (0,) * (d - 1)


@pytest.mark.parametrize("n", INV_MODULI)
def test_inv_with_zero_constant_coefficient(n):
    f = get_field(n)
    d = f.degree
    a = [0, 3] + [0] * (d - 3) + [-(1 << 40)]
    assert fractions(CycNumber(f, a, 7).inv()) == [7 * c for c in sympy_inverse(a, n)]


@pytest.mark.parametrize("n", INV_MODULI)
def test_inv_through_a_prime_that_divides_the_norm(n):
    # p0 is the first prime every inversion uses, and x = 0 modulo p0 there
    f = get_field(n)
    p0 = next(_split_primes(n))
    assert f.from_int(p0).inv() == f.from_fraction(Fraction(1, p0))
    y = f.zeta_power(1) + 2
    assert (y * p0).inv() == y.inv() * Fraction(1, p0)
    with pytest.raises(ZeroDivisionError):
        f.zero.inv()
