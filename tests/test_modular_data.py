import cmath
import math
import random

import pytest

from so3tqft.cycmatrix import CycMatrix
from so3tqft.cyclo import get_field
from so3tqft.levels import is_odd_prime, prime_divisors
from so3tqft.modular_data import (
    a_root,
    build_modular_data,
    central_charge_order,
    dehn_twist_spectrum,
    quantum_integer,
    rho_genus1,
)

PRIMES = (5, 7, 11, 13)


def test_labels():
    assert build_modular_data(5).labels == (0, 2)
    assert build_modular_data(7).labels == (0, 2, 4)
    for r in PRIMES:
        assert len(build_modular_data(r).labels) == (r - 1) // 2


def test_rejects_bad_level():
    for bad in (4, 9, 3, 1, -5):
        with pytest.raises(ValueError):
            build_modular_data(bad)


def test_quantum_integer_values():
    assert quantum_integer(1, 7) == 1
    assert quantum_integer(0, 7).is_zero()
    # float oracle: [2] = A^2 + A^-2 with A = e^{2 pi i 6/20}
    a = cmath.exp(2j * cmath.pi * 6 / 20)
    expected = (a ** 2 + a ** -2).real
    got = quantum_integer(2, 5).embed()
    assert abs(got.imag) < 1e-12
    assert abs(got.real - expected) < 1e-9
    assert abs(expected - 2 * math.cos(6 * math.pi / 5)) < 1e-12


def test_quantum_integer_ratio_identity():
    # [k] (A^2 - A^-2) = A^2k - A^-2k, division-free cross-check
    rng = random.Random(2)
    for r in PRIMES:
        f = get_field(4 * r)
        a2 = f.zeta_power(2 * (r + 1))
        denom = a2 - a2.conj()
        for _ in range(10):
            k = rng.randint(-20, 20)
            lhs = quantum_integer(k, r) * denom
            rhs = f.zeta_power(2 * k * (r + 1)) - f.zeta_power(-2 * k * (r + 1))
            assert lhs == rhs


@pytest.mark.parametrize("r", [5, 7, 13, 19])
def test_quantum_integer_by_residue_matches_geometric_sum(r):
    # the unreduced sum A^{2(k-1)} + A^{2(k-3)} + ... + A^{-2(k-1)} of |k| terms
    f = get_field(4 * r)
    for k in range(-3 * r, 3 * r + 1):
        n = abs(k)
        total = f.zero
        for m in range(n):
            total = total + f.zeta_power(2 * (r + 1) * (n - 1 - 2 * m))
        assert quantum_integer(k, r) == (total if k >= 0 else -total), k


def _quantum_integer_by_sum(k, r):
    """[k] as a sum of CycNumbers: k reduced by [k + r] = [k] and
    [r - k] = -[k], then the geometric sum of its k roots A^{2(k-1-2m)}."""
    k %= r
    if k > r // 2:
        return -_quantum_integer_by_sum(r - k, r)
    f = get_field(4 * r)
    acc = f.zero
    for m in range(k):
        acc = acc + f.zeta_power(2 * (r + 1) * (k - 1 - 2 * m))
    return acc


@pytest.mark.parametrize("r", [r for r in range(5, 62) if is_odd_prime(r)])
def test_s_tilde_and_qdim_match_the_scalar_builder(r):
    md = build_modular_data(r)
    labels = md.labels
    want = CycMatrix.from_rows(
        md.field,
        [[_quantum_integer_by_sum((li + 1) * (lj + 1), r) for lj in labels] for li in labels],
    )
    assert md.s_tilde == want
    assert [md.qdim[l] for l in labels] == [_quantum_integer_by_sum(l + 1, r) for l in labels]


def test_global_dim():
    md = build_modular_data(7)
    want = math.sqrt(7) / (2 * math.sin(math.pi / 7))
    assert abs(md.global_dim.embed() - want) < 1e-9
    for r in PRIMES:
        md = build_modular_data(r)
        total = md.field.zero
        for l in md.labels:
            total = total + md.qdim[l] * md.qdim[l]
        assert md.global_dim * md.global_dim == total
        assert md.qdim[0] == 1
        assert md.twist[0] == 1


def test_s_matrix_structure():
    for r in PRIMES:
        md = build_modular_data(r)
        assert md.s_tilde.is_symmetric()
        for j, l in enumerate(md.labels):
            assert md.s_tilde[(0, j)] == md.qdim[l]
        assert md.s_unitary.is_unitary()


def test_rho_t_entries_r7():
    md = build_modular_data(7)
    _, rho_t = rho_genus1(7)
    a = a_root(7)
    assert rho_t[(0, 0)] == md.field.one
    assert rho_t[(1, 1)] == a ** -8
    assert rho_t[(2, 2)] == a ** -24
    assert rho_t.is_diagonal()
    assert rho_t.is_unitary()


def test_projective_relations():
    for r in PRIMES:
        rho_s, rho_t = rho_genus1(r)
        assert rho_s.matpow(4).is_scalar()
        braid = (rho_s @ rho_t).matpow(3)
        assert braid.is_scalar()
        s_sq = rho_s @ rho_s
        # braid cubes to a scalar multiple of s^2
        assert braid == s_sq.scalar_mul(braid.scalar_value())
        assert rho_t.matpow(r).is_scalar()


def test_p_plus_p_minus():
    for r in PRIMES:
        md = build_modular_data(r)
        lhs = (md.p_plus * md.p_minus).embed()
        rhs = (md.global_dim * md.global_dim).embed()
        assert abs(lhs - rhs) < 1e-9 * abs(rhs)
        order = central_charge_order(md)
        kappa = md.p_minus / md.global_dim
        assert kappa ** order == md.field.one
        for q in prime_divisors(order):  # and no proper divisor is an order
            assert kappa ** (order // q) != md.field.one
        assert abs(abs(kappa.embed()) - 1) < 1e-12


def test_dehn_twist_spectrum_counts():
    for r in PRIMES:
        sp = dehn_twist_spectrum(r)
        assert sp.distinct_count == (r - 1) // 2
        assert len(set(sp.values)) == (r - 1) // 2


def test_dehn_twist_spectrum_r5():
    # after removing the common scalar the ratio set is {zeta_5, zeta_5^4}
    sp = dehn_twist_spectrum(5)
    assert not sp.conjugated
    f = get_field(20)
    normalized = {v * sp.scalar.conj() for v in sp.values}
    assert normalized == {f.zeta_power(4), f.zeta_power(16)}


def test_dehn_twist_spectrum_r7():
    # three distinct primitive 7th roots of unity
    sp = dehn_twist_spectrum(7)
    f = get_field(28)
    nontrivial = 0
    for v in sp.values:
        assert v ** 7 == f.one
        if v != f.one:
            nontrivial += 1
    assert nontrivial == 2  # theta_0 ratio is 1 itself
    assert len(set(sp.values)) == 3
    # the match at r = 3 mod 4 is against the conjugated reference set
    assert sp.conjugated


def test_spectrum_orientation_tracks_r_mod_4():
    for r in PRIMES:
        sp = dehn_twist_spectrum(r)
        assert sp.conjugated == (r % 4 == 3)


@pytest.mark.parametrize("r", (5, 13, 113))
def test_build_modular_data_inverts_nothing(monkeypatch, r):
    # D^-1 = 2 sin(pi/r) sqrt(r) / r and D = (sum d_i^2) D^-1 need no inverse;
    # the oracle is D = sqrt(r) / (2 sin(pi/r)) by one exact division
    from so3tqft.cyclo import CycNumber, sqrt_r

    f = get_field(4 * r)
    two_sin = (f.zeta_power(2) - f.zeta_power(-2)) * f.zeta_power(-r)
    want = sqrt_r(r) / two_sin

    def no_inv(self):
        raise AssertionError("build_modular_data inverted an element")

    monkeypatch.setattr(CycNumber, "inv", no_inv)
    md = build_modular_data.__wrapped__(r)
    assert md.global_dim == want
    assert md.global_dim * md.global_dim_inv == 1
    assert md.global_dim.embed() == pytest.approx(math.sqrt(r) / (2 * math.sin(math.pi / r)))
