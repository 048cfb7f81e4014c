import random

import pytest

from so3tqft.cyclo import CycNumber, get_field
from so3tqft.cycmatrix import CycMatrix
from so3tqft.modular_data import build_modular_data, rho_genus1


def rand_matrix(rng, f, n, span=5, den=3):
    return CycMatrix(
        f,
        n,
        n,
        [
            CycNumber(
                f,
                [rng.randint(-span, span) for _ in range(f.degree)],
                rng.randint(1, den),
            )
            for _ in range(n * n)
        ],
    )


def test_matmul_matches_slow_path():
    # the matrix kernel and entrywise CycNumber arithmetic must agree
    rng = random.Random(8)
    f = get_field(20)
    for _ in range(10):
        a = rand_matrix(rng, f, 3)
        b = rand_matrix(rng, f, 3)
        fast = a @ b
        slow_entries = []
        for i in range(3):
            for k in range(3):
                acc = f.zero
                for j in range(3):
                    acc = acc + a[(i, j)] * b[(j, k)]
                slow_entries.append(acc)
        assert fast.entries == slow_entries


def test_matmul_bigint_fallback():
    rng = random.Random(9)
    f = get_field(20)
    big = 1 << 45
    a = rand_matrix(rng, f, 2, span=big)
    b = rand_matrix(rng, f, 2, span=big)
    c = rand_matrix(rng, f, 2, span=4)
    # associativity across the guard boundary
    assert (a @ b) @ c == a @ (b @ c)
    ident = CycMatrix.identity(f, 2)
    assert a @ ident == a
    assert ident @ a == a


def test_scalar_mul_fallback_and_fast_agree():
    rng = random.Random(10)
    f = get_field(20)
    a = rand_matrix(rng, f, 3)
    c = CycNumber(f, [1 << 45, 0, -3, 0, 0, 1, 0, 0], 7)
    by_kernel = a.scalar_mul(c)
    entrywise = CycMatrix(f, 3, 3, [e * c for e in a.entries])
    assert by_kernel == entrywise


def test_predicates():
    md = build_modular_data(5)
    f = md.field
    ident = CycMatrix.identity(f, 2)
    assert ident.is_identity() and ident.is_scalar() and ident.is_diagonal()
    two = ident.scalar_mul(f.from_int(2))
    assert two.is_scalar() and not two.is_identity()
    assert two.scalar_value() == 2
    rho_s, rho_t = rho_genus1(5)
    assert rho_s.is_symmetric()
    assert not rho_s.is_diagonal()
    assert rho_t.is_diagonal() and not rho_t.is_scalar()
    with pytest.raises(ValueError):
        rho_t.scalar_value()


def test_matpow():
    rho_s, rho_t = rho_genus1(7)
    assert rho_t.matpow(0).is_identity()
    assert rho_t.matpow(1) == rho_t
    assert rho_t.matpow(7).is_identity()
    assert (rho_s @ rho_t).matpow(3) == (rho_s @ rho_t) @ (rho_s @ rho_t) @ (rho_s @ rho_t)
    with pytest.raises(ValueError):
        rho_t.matpow(-1)


def test_conj_transpose_and_unitarity():
    md = build_modular_data(7)
    s = md.s_unitary
    assert s.is_unitary()
    assert s.conj_transpose().is_unitary()
    assert s.transpose() == s  # symmetric
    scaled = s.scalar_mul(md.field.from_int(3))
    assert not scaled.is_unitary()


def test_is_unitary_rejects_a_scaled_or_changed_s():
    md = build_modular_data(13)
    s = md.s_unitary
    f = md.field
    assert s.is_unitary()
    assert not s.scalar_mul(f.from_int(2)).is_unitary()
    for i, j, p in [(0, 0, 0), (2, 5, 3), (5, 1, 1)]:
        arr = s.arr.copy()
        arr[i, j, p] += 1
        assert not CycMatrix._from_array(f, arr, s.den).is_unitary()


def test_shape_checks():
    f = get_field(20)
    with pytest.raises(ValueError):
        CycMatrix(f, 2, 2, [f.one] * 3)
    a = CycMatrix.identity(f, 2)
    b = CycMatrix.identity(f, 3)
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a + b


def test_roots_matches_entrywise_build():
    f = get_field(28)
    rng = random.Random(3)
    n = 7

    def entrywise(ks, cols):
        rows = [[f.zero] * n for _ in range(n)]
        for i, (k, c) in enumerate(zip(ks, cols)):
            rows[i][c] = f.zeta_power(k)
        return CycMatrix.from_rows(f, rows)

    perm = list(range(n))
    rng.shuffle(perm)
    cases = [
        ([4 * i * i for i in range(n)], None),  # a diagonal
        ([0] * n, [(i + 1) % n for i in range(n)]),  # the shift rho_y
        ([rng.randrange(28) for _ in range(n)], perm),  # a random permutation
        ([-rng.randrange(1, 100) for _ in range(n)], None),  # negative exponents
        ([rng.randrange(-60, 60) for _ in range(n)], perm),
    ]
    for ks, cols in cases:
        want = entrywise(ks, range(n) if cols is None else cols)
        assert CycMatrix.roots(f, ks, cols) == want
    assert CycMatrix.roots(f, [0] * n).is_identity()
