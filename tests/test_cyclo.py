import math
import random
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from so3tqft.cycmatrix import CycMatrix
from so3tqft.cyclo import (
    CycField,
    CycNumber,
    cyclotomic_polynomial,
    get_field,
    is_odd_prime,
    is_prime,
    sqrt_r,
    work_dtype,
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


def block_multiplication_matrix(x):
    """The multiplication matrix of x.num as CycNumber.inv once formed it, a
    (d, 2d - 1) block of shifted numerators reduced by CycField.reduce (row
    j: num z^j), with the bits s of its Hadamard bound, the bit lengths of
    the squared row norms summed."""
    f = x.field
    d = f.degree
    full = np.zeros((d, 2 * d - 1), dtype=work_dtype(f.product_bound(x.max_abs_coeff(), 1)))
    for j in range(d):
        full[j, j : j + d] = x.num
    m = f.reduce(full)
    mx = int(np.abs(m).max())
    m = m.astype(work_dtype(d * mx * mx))
    return m, sum(int(v).bit_length() for v in (m * m).sum(axis=1))


@pytest.mark.parametrize("n", (1, 2, 12, 28, 76, 105, 452))
def test_inverse_bound_from_the_shift_walk_equals_the_block_bound(n, monkeypatch):
    # Phi_105 has a coefficient -2.  At 3 * 2^26 the column norms in
    # Q(zeta_105) pass 2^63 though d max|num|^2 stays below 2^61, so a walk
    # in int64 would wrap; past 2^40 the walk of inv, and at the larger
    # degrees the block, run in Python ints.  Q(zeta_452) has too few split
    # primes below 2^20 to invert either large span.
    f = get_field(n)
    rng = random.Random(n)
    bounds = []
    take = f.split.take
    monkeypatch.setattr(f.split, "take", lambda bound: bounds.append(bound) or take(bound))
    for span in (9, 3 << 26, 1 << 41):
        x = rand_elem(rng, f, span)
        m, s = block_multiplication_matrix(x)
        walk = islice(f.shifts(np.array(x.num, dtype=object)), f.degree)
        assert np.array_equal(np.array([col.copy() for col in walk]), m.astype(object))
        if n == 452 and span > 9:
            continue
        u = x.inv()
        assert x * u == f.one
        # the same bound, so the same split primes
        assert bounds[-1] == 1 << (1 + (s + 1) // 2), span


@pytest.mark.parametrize("n", (76, 452))
def test_inverse_reads_the_split_tables_transforms(n):
    # a fresh field, so its split table holds only what the inversions build:
    # one forward and one backward transform per prime, kept for the next
    f = CycField(n)
    rng = random.Random(n)
    x = rand_elem(rng, f)
    assert x * x.inv() == f.one
    split = f.split
    used = list(range(len(split.p)))
    assert used and sorted(split._fwd) == sorted(split._back) == used
    kept = [(split._fwd[i], split._back[i]) for i in used]
    y = rand_elem(rng, f, 1)  # a smaller bound: no new prime
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    y.inv()
    grown = tracemalloc.get_traced_memory()[0] - start
    tracemalloc.stop()
    assert len(split.p) == len(used)
    assert sorted(split._fwd) == sorted(split._back) == used
    assert all(split._fwd[i] is a and split._back[i] is b for i, (a, b) in enumerate(kept))
    assert grown < kept[0][0].nbytes


def recurrence_tables(n):
    """The reduction rows x^k mod Phi_n, d <= k <= 2d - 2, by the
    recurrence x^(k+1) = x * x^k; the power table zeta^k, k < n, by the
    same step against the row of x^d; and the conjugation rows zeta^-j,
    j < d, copied out of it one by one."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    cur = [-c for c in phi[:-1]]
    rows = [tuple(cur)]
    for _ in range(d + 1, 2 * d - 1):
        nxt = [0] + cur[: d - 1]
        lead = cur[d - 1]
        if lead:
            for j in range(d):
                nxt[j] -= lead * phi[j]
        cur = nxt
        rows.append(tuple(cur))
    red = np.array(rows, dtype=np.int64)
    pw = np.zeros((n, d), dtype=np.int64)
    cur = np.zeros(d, dtype=np.int64)
    cur[0] = 1
    for k in range(n):
        pw[k] = cur
        nxt = np.roll(cur, 1)
        nxt[0] = 0
        cur = nxt + cur[d - 1] * red[0]
    conj = np.zeros((d, d), dtype=np.int64)
    for j in range(d):
        conj[j] = pw[(n - j) % n]
    return red, pw, conj


def test_tables_read_off_the_power_table_match_the_recurrences():
    for n in [*range(1, 400), 452, 660, 1092, 3420]:
        f = CycField(n)  # not get_field: keep no table past its check
        red, pw, conj = recurrence_tables(n)
        assert np.array_equal(f.pw, pw), n
        assert np.array_equal(f.conj_rows, conj), n
        if f.degree >= 2:
            assert np.array_equal(f.red_np, red), n
            assert f.red_max == int(np.abs(red).max()), n
        else:  # a degree-1 product has no tail to reduce
            assert f.red_np.shape == (0, 1) and f.red_max == 0, n


@pytest.mark.parametrize("n", (1, 2, 12, 28, 76, 660, 1092))
def test_rows_equal_the_eager_power_table(n):
    # any integer k, negative or past N, in any shape, against the table
    # built row by row by the recurrence; the field here is a fresh one
    _, pw, _ = recurrence_tables(n)
    f = CycField(n)
    rng = np.random.default_rng(n)
    ks = np.concatenate([np.arange(-2 * n, 3 * n), rng.integers(-10**12, 10**12, size=50)])
    assert np.array_equal(f.rows(ks), pw[ks % n])
    assert np.array_equal(f.rows(ks.reshape(-1, 5)), pw[ks % n].reshape(-1, 5, f.degree))
    assert f.rows(np.zeros(0, dtype=np.int64)).shape == (0, f.degree)
    assert not {"pw", "red_np", "conj_rows"} & set(vars(f))


@pytest.mark.parametrize("n", (20, 91, 105, 1092))
def test_rows_match_sympy_remainders(n):
    from sympy import Poly, cyclotomic_poly, rem, symbols

    x = symbols("x")
    phi = cyclotomic_poly(n, x)
    f = get_field(n)
    ks = random.Random(n).sample(range(-n, 2 * n), 12)
    for k, row in zip(ks, f.rows(ks).tolist()):
        want = Poly(rem(x ** (k % n), phi, x), x).all_coeffs()[::-1]
        assert row == [int(c) for c in want] + [0] * (f.degree - len(want)), (n, k)


@pytest.mark.parametrize("n", (1, 2))
def test_degree_one_products_are_integer_products(n):
    f = get_field(n)
    rng = random.Random(n)
    for span in (9, 1 << 40, 1 << 70):
        a, b = ([[rng.randint(-span, span) for _ in range(3)] for _ in range(3)] for _ in "ab")
        for x, y in zip(a[0], b[0]):
            assert (CycNumber(f, [x]) * CycNumber(f, [y])).num == (x * y,)
        m = CycMatrix.from_rows(f, [[CycNumber(f, [x]) for x in row] for row in a])
        w = CycMatrix.from_rows(f, [[CycNumber(f, [y]) for y in row] for row in b])
        want = np.array(a, dtype=object) @ np.array(b, dtype=object)
        got = m @ w
        assert (got.arr[:, :, 0] * got.den).tolist() == want.tolist()
