import math
import random

import numpy as np
import pytest

from so3tqft.cyclo import (
    CycNumber,
    cyclotomic_polynomial,
    get_field,
    is_odd_prime,
    is_prime,
    sqrt_r,
    zeta,
)


def rand_elem(rng, field, span=9):
    return CycNumber(
        field,
        [rng.randint(-span, span) for _ in range(field.degree)],
        rng.randint(1, span),
    )


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    # Phi_20(x) = Phi_5(-x^2)
    assert cyclotomic_polynomial(20) == (1, 0, -1, 0, 1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_match_sympy():
    from sympy import cyclotomic_poly, symbols

    x = symbols("x")
    for n in [*range(1, 400), 660, 1092, 3420]:
        want = cyclotomic_poly(n, x, polys=True).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == tuple(want), n


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))

    limit = 10 ** 5
    assert [n for n in range(limit) if is_prime(n)] == [
        n for n in range(limit) if trial(n)
    ]
    assert [n for n in range(10) if is_odd_prime(n)] == [3, 5, 7]
    assert is_prime((1 << 61) - 1) and is_prime((1 << 31) - 1)
    # strong pseudoprimes to the bases 2..7 and to the bases 2..23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)


def test_zeta_orders():
    assert zeta(1) == 1
    assert zeta(4) ** 2 == -1
    f = get_field(20)
    z = zeta(20)
    assert z ** 20 == f.one
    assert z ** 10 == -1
    for k in range(1, 20):
        assert z ** k != f.one, f"zeta_20^{k} should not be 1"


def test_inverse_of_root_of_unity():
    z = zeta(20)
    assert z.inv() == z ** 19
    assert (z * z.inv()) == 1


def test_division_by_zero():
    f = get_field(20)
    with pytest.raises(ZeroDivisionError):
        f.zero.inv()
    with pytest.raises(ZeroDivisionError):
        f.one / f.zero


def test_field_axioms_randomized():
    rng = random.Random(20240817)
    f = get_field(28)
    for _ in range(200):
        x, y, z = (rand_elem(rng, f) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x + (-x) == f.zero
        if not x.is_zero():
            assert x * x.inv() == f.one


def test_conj_is_involutive_automorphism():
    rng = random.Random(7)
    f = get_field(20)
    for _ in range(100):
        x, y = rand_elem(rng, f), rand_elem(rng, f)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()
        assert abs(x.conj().embed() - x.embed().conjugate()) < 1e-9


def test_canonical_form_idempotent():
    rng = random.Random(11)
    f = get_field(44)
    for _ in range(50):
        x = rand_elem(rng, f)
        again = CycNumber(f, x.num, x.den)
        assert again == x and again.num == x.num and again.den == x.den
    # non-normalized input data reduces to the same form
    a = CycNumber(f, [2] * f.degree, 4)
    b = CycNumber(f, [1] * f.degree, 2)
    assert a == b


def test_embed_values():
    f = get_field(20)
    assert f.zero.embed() == 0
    z8 = zeta(8)
    assert abs(z8.embed() - (math.sqrt(2) / 2) * (1 + 1j)) < 1e-12
    # A = zeta_{4r}^{r+1} at r = 7 is a root of unity
    a = get_field(28).zeta_power(8)
    assert abs(abs(a.embed()) - 1.0) < 1e-12


def test_embed_is_multiplicative():
    rng = random.Random(3)
    f = get_field(52)
    for _ in range(50):
        x, y = rand_elem(rng, f), rand_elem(rng, f)
        lhs = (x * y).embed()
        rhs = x.embed() * y.embed()
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) < 1e-9 * scale


def test_sqrt_r():
    s5 = sqrt_r(5)
    assert s5 * s5 == 5
    assert abs(sqrt_r(7).embed() - 2.6457513110645907) < 1e-12
    assert sqrt_r(7).embed().real > 0
    for r in (5, 7, 11, 13):
        s = sqrt_r(r)
        assert s * s == r
        assert abs(s.embed().imag) < 1e-12
    with pytest.raises(ValueError):
        sqrt_r(9)
    with pytest.raises(ValueError):
        sqrt_r(4)


def test_gauss_sum_oracle_r5():
    # independent summation: squares mod 5 are {1, 4}
    f = get_field(20)
    z5 = f.zeta_power(4)
    g = z5 - z5 ** 2 - z5 ** 3 + z5 ** 4
    assert g == sqrt_r(5)


def test_a_square_identity():
    # A^2 equals the residue-field exponential at (r+1)/2 for each level
    for r in (5, 7, 11, 13):
        f = get_field(4 * r)
        a = f.zeta_power(r + 1)
        assert a * a == f.zeta_power(4 * ((r + 1) // 2))


def test_lift_to_bigger_field():
    z5 = zeta(5)
    f20 = get_field(20)
    assert z5.lift_to(f20) == f20.zeta_power(4)
    x = (zeta(5) + 2) / 3
    y = x.lift_to(f20)
    assert abs(x.embed() - y.embed()) < 1e-12
    with pytest.raises(ValueError):
        zeta(7).lift_to(f20)


def test_lift_coeffs_matches_lift_to_past_int64():
    # one routine lifts a stack of elements (the Borel table) and a single
    # number, here through its Python-int path
    f5, f20 = get_field(5), get_field(20)
    rng = random.Random(3)
    xs = [CycNumber(f5, [rng.randint(-2**70, 2**70) for _ in range(4)]) for _ in range(5)]
    rows = f20.lift_coeffs(np.array([x.num for x in xs], dtype=object), f5).tolist()
    for x, y, row in zip(xs, xs[1:], rows):
        assert CycNumber(f20, row) == x.lift_to(f20)
        assert (x * y).lift_to(f20) == x.lift_to(f20) * y.lift_to(f20)


def test_json_round_trip():
    rng = random.Random(5)
    f = get_field(20)
    for _ in range(20):
        x = rand_elem(rng, f)
        assert CycNumber.from_json(x.to_json()) == x


def test_power_negative_exponent():
    z = zeta(20)
    x = (z + 1) / 2
    assert x ** -3 == (x ** 3).inv()
    assert x ** 0 == 1


def test_hashable_and_equality_across_fields():
    a = get_field(20).one
    b = get_field(28).one
    assert a != b
    assert len({a, a, get_field(20).one}) == 1


def test_bigint_fallback_multiplication():
    # coefficients large enough to force the exact big-int path past the
    # int64 guard; ring identities must still hold on the nose
    rng = random.Random(31)
    f = get_field(20)
    big = 1 << 45
    for _ in range(10):
        x, y, z = (
            CycNumber(
                f,
                [rng.randint(-big, big) for _ in range(f.degree)],
                rng.randint(1, 7),
            )
            for _ in range(3)
        )
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert (x * y).conj() == x.conj() * y.conj()
    # small*big crosses the guard boundary consistently
    small = CycNumber(f, [3, -1, 0, 2, 0, 0, 1, 0], 5)
    large = CycNumber(f, [big, 0, -big, 1, 0, big, 0, -1], 7)
    prod = small * large
    # scaling by an integer commutes with the product (computed small-side)
    assert prod * 1000003 == small * (large * 1000003)
