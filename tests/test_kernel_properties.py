"""Property tests of the exact kernel on both sides of its switches.

Scalar products and conjugates are compared with sympy's remainder modulo
the cyclotomic polynomial; matrix products, scalar multiples and sums with
entrywise CycNumber arithmetic.  Scalar coefficients are drawn up to 2^62,
so the work dtype chosen from the worst-case bound falls on both sides:
int64 below 2^61, Python ints above; the exact integer matmul
(_int_matmul) is tested at the same switch.  Matrix products, which are taken at
the roots of Phi_N modulo split primes, are also compared with the product
on Python ints, with the bound on each side of one-, two- and three-prime
products and of the int64 CRT lift, and a product with one prime fewer
than the bound asks is shown to be wrong.  The identity check a b == c,
which compares values at the roots with no product formed, is compared
with the product on the same range, and with one prime fewer than its
bound asks it is shown to accept a false identity.  Inverses are compared with
sympy's invert where that finishes quickly (two-term numerators, or degree
8) and otherwise checked by sympy's product.
"""

from fractions import Fraction
from itertools import islice
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, Poly, cyclotomic_poly, invert, symbols

from so3tqft.cyclo import (
    _INT64_GUARD,
    CycField,
    CycNumber,
    _int_matmul,
    _split_primes,
    get_field,
    work_dtype,
)
from so3tqft.cycmatrix import CycMatrix, _product, _product_equals

X = symbols("x")

# field moduli n with degrees phi(n) = 8, 24, 60 and 72
MODULI = (20, 52, 124, 148)
# and with degree 36 as well
INV_MODULI = (20, 52, 76, 124, 148)

KERNEL = settings(max_examples=25, deadline=None)


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
        assert work_dtype(f.product_bound(ma, m)) is dtype
        b = [m] * d
        assert (CycNumber(f, a, 1) * CycNumber(f, b, 1)).num == sympy_mul(a, b, n)


@pytest.mark.parametrize("k", (1, 7, 224))
def test_int_matmul_at_the_int64_switch(k):
    # max|a| max|b| k just below 2^61 takes int64, just above Python ints,
    # and both equal the product on Python ints
    ma = 1 << 40
    mb = (_INT64_GUARD - 1) // (ma * k)
    a = np.array([[ma] * k, [-ma] * k, [ma if j % 2 else -ma for j in range(k)]])
    for m, dtype in ((mb, np.int64), (mb + 1, object)):
        assert (ma * m * k < _INT64_GUARD) == (dtype is np.int64)
        b = np.full((k, 2), m, dtype=np.int64)
        got = _int_matmul(a, b)
        assert got.dtype == dtype
        assert got.tolist() == (a.astype(object) @ b.astype(object)).tolist()
    # object inputs whose values fit take int64
    got = _int_matmul(a.astype(object), np.full((k, 2), mb, dtype=object))
    assert got.dtype == np.int64
    assert got.tolist() == (a.astype(object) @ np.full((k, 2), mb, dtype=object)).tolist()


def _max(arr):
    return int(np.abs(arr).max(initial=0))


def object_product(f, a, b):
    """The coefficients of the matrix product of a (m, n, d) and b (n, k, d)
    on Python ints: one shifted block per coefficient plane of a, reduced
    through the field's table."""
    a, b = a.astype(object), b.astype(object)
    (m, n, d), k = a.shape, b.shape[1]
    full = np.zeros((m, k, 2 * d - 1), dtype=object)
    for p in range(d):
        full[..., p : p + d] += (a[..., p] @ b.reshape(n, k * d)).reshape(m, k, d)
    return f.reduce(full)


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


def prime_counts(monkeypatch, f):
    """The number of primes each product of field f takes, recorded."""
    take, counts = f.split.take, []

    def spy(bound):
        out = take(bound)
        counts.append(len(out[0]))
        return out

    monkeypatch.setattr(f.split, "take", spy)
    return counts


def covered(f, k, terms, mb):
    """The largest ma for which the first k split primes cover the product
    bound of sums of `terms` products of coefficients bounded by ma and mb,
    and the product of those primes."""
    big_p = prod(islice(_split_primes(f.n), k))
    c = terms * f.degree * (1 + f.degree * f.red_max)
    return (big_p - 1) // (2 * c * mb), big_p


@pytest.mark.parametrize("n", MODULI)
def test_matrix_product_at_the_prime_count_switches(n, monkeypatch):
    # the largest and smallest factors on each side of the one-, two- and
    # three-prime products; past three primes the CRT lift is on Python ints
    f = get_field(n)
    d = f.degree
    k, mb = 3, 1 << 10
    counts = prime_counts(monkeypatch, f)
    assert covered(f, 3, k, mb)[1] < _INT64_GUARD <= covered(f, 4, k, mb)[1]
    for primes in (1, 2, 3):
        top, big_p = covered(f, primes, k, mb)
        b = np.full((k, 2, d), mb, dtype=np.int64)
        b[1, 0] = -mb
        for ma, want in ((top, primes), (top + 1, primes + 1)):
            a = np.array([[[ma if (i + j + p) % 2 else -ma for p in range(d)]
                           for j in range(k)] for i in range(2)], dtype=np.int64)
            got = _product(f, a, b)
            assert counts[-1] == want
            assert got.dtype == (np.int64 if want < 4 else object)
            assert np.array_equal(got, object_product(f, a, b))
            assert [[tuple(x) for x in row] for row in got.tolist()] == entrywise_product(f, a, b)


@pytest.mark.parametrize("n", MODULI)
def test_one_prime_fewer_than_the_bound_asks_gives_a_wrong_product(n, monkeypatch):
    # a and b hold only constant coefficients, so the product's constant
    # coefficient is k ma mb, about P / (2 d (1 + d red_max)) for the P the
    # bound asks for: past half the product of one prime fewer
    f = get_field(n)
    d = f.degree
    k, mb = 3, 1 << 10
    for primes in (2, 3):
        ma, _ = covered(f, primes, k, mb)
        a = np.zeros((1, k, d), dtype=np.int64)
        b = np.zeros((k, 1, d), dtype=np.int64)
        a[..., 0], b[..., 0] = ma, mb
        want = object_product(f, a, b)
        assert np.array_equal(_product(f, a, b), want)
        fewer = prod(islice(_split_primes(n), primes - 1))
        assert 2 * want[0, 0, 0] > fewer
        with monkeypatch.context() as m:
            m.setattr(f, "product_bound", lambda *args: (fewer - 1) // 2)
            counts = prime_counts(m, f)
            got = _product(f, a, b)
        assert counts == [primes - 1]
        assert not np.array_equal(got, want)


@pytest.mark.parametrize("n", (20, 52, 148))
@KERNEL
@given(data=st.data())
def test_float64_products_match_python_int_products(n, data):
    # coefficients up to 2^70, so products take from one to many primes and
    # both lifts; stacks broadcast over their leading axes as in the search
    f = get_field(n)
    d = f.degree
    m, k, l, s, t = (data.draw(st.integers(1, 3)) for _ in range(5))
    top = data.draw(st.integers(0, 70))
    a = data.draw(st.lists(coeffs(d, 0, top), min_size=s * m * k, max_size=s * m * k))
    b = data.draw(st.lists(coeffs(d, 0, top), min_size=t * k * l, max_size=t * k * l))
    a = np.array(a, dtype=np.int64 if top < 63 else object).reshape(s, m, k, d)
    b = np.array(b, dtype=np.int64 if top < 63 else object).reshape(t, 1, k, l, d)
    got = _product(f, a, b)
    assert got.shape == (t, s, m, l, d)
    for i in range(s):
        for j in range(t):
            assert np.array_equal(got[j, i], object_product(f, a[i], b[j, 0]))
    assert [[tuple(x) for x in row] for row in got[0, 0].tolist()] == entrywise_product(
        f, a[0], b[0, 0]
    )


@pytest.mark.parametrize("n", (20, 52, 148))
@KERNEL
@given(data=st.data())
def test_product_check_agrees_with_the_product(n, data):
    # the same range of coefficients and stack shapes as above; c is the true
    # product, or the product with one coefficient moved by +-1
    f = get_field(n)
    d = f.degree
    m, k, l, s = (data.draw(st.integers(1, 3)) for _ in range(4))
    top = data.draw(st.integers(0, 70))
    a = data.draw(st.lists(coeffs(d, 0, top), min_size=s * m * k, max_size=s * m * k))
    b = data.draw(st.lists(coeffs(d, 0, top), min_size=k * l, max_size=k * l))
    a = np.array(a, dtype=np.int64 if top < 63 else object).reshape(s, m, k, d)
    b = np.array(b, dtype=np.int64 if top < 63 else object).reshape(k, l, d)
    want = _product(f, a, b)
    c = want.astype(object)
    if data.draw(st.booleans()):
        at = tuple(data.draw(st.integers(0, x - 1)) for x in c.shape)
        c[at] += data.draw(st.sampled_from((1, -1)))
    assert _product_equals(f, a, b, c) == np.array_equal(want, c)


@pytest.mark.parametrize("n", MODULI)
def test_one_prime_fewer_than_the_bound_asks_accepts_a_false_identity(n, monkeypatch):
    # c is a b with one coefficient moved by Q, the product of the first j
    # split primes.  The bound, which counts max|c| >= Q, asks for j + 1
    # primes, and the last of them rejects c; without it every prime divides
    # Q and c passes
    f = get_field(n)
    d = f.degree
    rng = np.random.default_rng(n)
    a = rng.integers(-9, 10, size=(2, 3, d))
    b = rng.integers(-9, 10, size=(3, 2, d))
    want = object_product(f, a, b)
    for j in (1, 2, 3):
        c = want.copy()
        c[1, 0, 1] += prod(islice(_split_primes(n), j))
        with monkeypatch.context() as m:
            counts = prime_counts(m, f)
            assert not _product_equals(f, a, b, c)
        assert counts == [j + 1]
        take = f.split.take

        def one_fewer(bound):
            ps, roots, w, big_p = take(bound)
            return ps[:-1], roots[:-1], w[:-1], big_p // int(ps[-1])

        with monkeypatch.context() as m:
            m.setattr(f.split, "take", one_fewer)
            assert _product_equals(f, a, b, c)
        assert _product_equals(f, a, b, want)


@pytest.mark.parametrize("n", MODULI)
def test_the_check_compares_every_root(n):
    # c = Q (zeta - alpha), with alpha = root k of the first split prime p0
    # (|alpha| < p0 / 2) and Q the product of the next j - 1 primes: c
    # vanishes at root k modulo each of the j primes its bound asks for, and
    # only the other roots modulo p0 show that c != 0 = a b
    f = get_field(n)
    d = f.degree
    zero = np.zeros((1, 1, d), dtype=np.int64)
    ps, roots, _, _ = f.split.take(1)
    p0 = int(ps[0])
    for j in (1, 2, 3):
        for k in (0, d - 1):
            alpha = (int(roots[0, k]) + p0 // 2) % p0 - p0 // 2
            c = np.zeros((1, 1, d), dtype=object)
            c[0, 0, :2] = -alpha, 1
            c *= prod(islice(_split_primes(n), 1, j))
            assert not _product_equals(f, zero, zero, c)


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
    for x in (a, a.scalar_mul(s), a.scalar_mul(f.from_fraction(Fraction(1 << 70, 3 << 66)))):
        assert x.to_json()["entries"] == [e.to_json() for e in x.entries]


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
    assert tiny.to_json()["entries"] == [e.to_json() for e in tiny.entries]


def test_product_of_zero_matrices_takes_one_prime():
    f = CycField(44)  # a fresh field, with no split prime taken yet
    zero = CycMatrix.identity(f, 2) - CycMatrix.identity(f, 2)
    assert (zero @ zero).is_zero()
    assert len(f.split.p) == 1


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
