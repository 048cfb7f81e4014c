"""Acceptance suite: one test per criterion, run at the stated tolerances.

Criterion 7 is split in two: the orthogonality/degree/tensor checks, which
pass, and the pinned degree set {1, r-1} for the irreducibles of the
upper-triangular subgroup, which exact computation contradicts (the computed
set is {1, (r-1)/2}, cross-checked by the class count r+3 and the
sum-of-squares identity).  That single check is kept as stated and fails.
"""

import math
import random
import time

import numpy as np

from so3tqft.cyclo import CycNumber, get_field
from so3tqft.modular_data import build_modular_data, rho_genus1
from so3tqft.weil import (
    HeisenbergWord,
    S_GEN,
    T_GEN,
    apply_action,
    build_weil,
    heisenberg_presentation,
    verify_odd_block_identification,
)
from so3tqft.fusion_dims import (
    SurfaceSpec,
    dim_space,
    goslow_margin,
    twist_multiplicities,
    verlinde_dim,
)
from so3tqft.finite_image import so3_closure, weil_closure
from so3tqft.sl2_char import borel_table, sl2_table
from so3tqft.mfld3 import (
    ChainSurgery,
    heegaard_tau,
    lens_word,
    norm_survey,
    tau,
    tau_union,
)

PRIMES = (5, 7, 11, 13)
PRIMES_TO_31 = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_criterion_01_odd_block_identities_exact():
    for r in PRIMES:
        start = time.perf_counter()
        report = verify_odd_block_identification(r)  # raises on any entrywise mismatch
        assert report["s_block_identity"] and report["t_block_identity"]
        md = build_modular_data(r)
        w = build_weil(r)
        rho_s, rho_t = rho_genus1(r)
        assert w.r_s_odd == md.s_tilde.scalar_mul(report["s_constant"])
        assert w.r_t_odd == rho_t.scalar_mul(report["t_constant"])
        assert time.perf_counter() - start < 5.0


def test_criterion_02_intertwiner_relation_exact():
    for r in PRIMES:
        pres = heisenberg_presentation(r)
        w = build_weil(r)
        x = HeisenbergWord.of(r, 0, 1, 0)
        y = HeisenbergWord.of(r, 0, 0, 1)
        for mat, gen in ((w.r_s, S_GEN), (w.r_t, T_GEN)):
            for h in (x, y):
                assert mat @ pres.rho_word(h) == pres.rho_word(
                    apply_action(gen, r, h)
                ) @ mat


def test_criterion_03_dimensions():
    start = time.perf_counter()
    assert dim_space(SurfaceSpec(7, 1, (0,))) == 3
    assert dim_space(SurfaceSpec(7, 2)) == 14
    assert dim_space(SurfaceSpec(7, 3)) == 98
    assert dim_space(SurfaceSpec(11, 2)) == 55
    assert dim_space(SurfaceSpec(13, 2)) == 91
    assert dim_space(SurfaceSpec(13, 2)) == (13 ** 3 - 13) // 24
    for r in PRIMES_TO_31:
        for g in range(1, 7):
            vfloat, _ = verlinde_dim(r, g)
            exact = dim_space(SurfaceSpec(r, g))
            assert math.isclose(vfloat, exact, rel_tol=1e-6)
    assert time.perf_counter() - start < 30.0


def test_criterion_04_twist_multiplicities():
    assert twist_multiplicities(13) == [6, 15, 20, 21, 18, 11]
    for r in PRIMES_TO_31:
        mults = twist_multiplicities(r)
        assert len(set(mults)) == len(mults)
        assert sum(mults) == dim_space(SurfaceSpec(r, 2))


def test_criterion_05_goslow_margin():
    assert goslow_margin(7, 2) == -7
    closed_form = (7 + 5) * (7 + 3) * (7 + 1) * 7 * (7 - 1) * (7 - 8) // 5760
    assert goslow_margin(7, 2) == closed_form
    for r, g in ((11, 2), (13, 2), (7, 3), (7, 4)):
        assert goslow_margin(r, g) > 0


def test_criterion_06_finite_image():
    for r in PRIMES:
        start = time.perf_counter()
        gc = so3_closure(r)
        assert gc.complete
        full = r * (r * r - 1)
        assert gc.order in (full, full // 2)
        _, rho_t = rho_genus1(r)
        # projective order r, a prime: rho(t) is not scalar and rho(t)^r is
        assert not rho_t.is_scalar() and rho_t.matpow(r).is_scalar()
        wc = weil_closure(r)
        assert wc.order == gc.order
        assert set(wc.elements.keys()) == set(gc.elements.keys())
        elapsed = time.perf_counter() - start
        if r == 13:
            assert elapsed < 60.0


def test_criterion_07_character_theory():
    for r in PRIMES:
        start = time.perf_counter()
        tbl = sl2_table(r)  # construction verifies exact orthogonality
        half = (r - 1) // 2
        small = [d for d in tbl.degrees if 1 < d <= half]
        assert small == [half, half]
        triv = tbl.trivial_index()
        # has_big[a, b]: chi_a chi_b has a constituent of degree > (r-1)/2
        big = np.array(tbl.degrees) > half
        has_big = (tbl.tensor_mults[:, :, big] > 0).any(axis=2)
        for a, b in zip(*np.triu_indices(tbl.num_classes())):
            if triv not in (a, b):
                assert has_big[a, b], (r, a, b)
        elapsed = time.perf_counter() - start
        if r == 13:
            assert elapsed < 120.0


def test_criterion_07b_borel_degree_set_as_stated():
    # Stated: the irreducible degrees of the upper-triangular subgroup lie in
    # {1, r-1}.  Exact computation gives {1, (r-1)/2} (r-1 linear characters
    # and four of degree (r-1)/2; class count r+3 and sum of squares r(r-1)
    # both confirm), so this check fails and is left failing on purpose.
    for r in PRIMES:
        bt = borel_table(r)
        assert sum(d * d for d in bt.degrees) == r * (r - 1)
        assert bt.group.num_classes() == r + 3
        assert set(bt.degrees) <= {1, r - 1}, (
            f"r={r}: computed degree set {sorted(set(bt.degrees))} "
            f"is not contained in {{1, {r - 1}}}"
        )


def test_criterion_08_invariants():
    for r in PRIMES:
        md = build_modular_data(r)
        d_inv = md.global_dim.inv()
        assert tau(md, ChainSurgery(())).value == d_inv
        assert tau(md, ChainSurgery((0,))).value == md.field.one
        base = ChainSurgery((3, 2))
        t_base = tau(md, base)
        for sign in (1, -1):
            assert tau_union(md, [base, ChainSurgery((sign,))]).value == t_base.value
        for p in range(-12, 13):
            lhs = tau(md, ChainSurgery((p,))).norm
            rhs = heegaard_tau(md, lens_word(p))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), (r, p)


def test_criterion_09_genus1_norms_finite():
    report = norm_survey(build_modular_data(5), 12)
    assert report["bounded_by_closure"]
    assert report["distinct_value_count"] <= so3_closure(5).order
    report7 = norm_survey(build_modular_data(7), 10)
    assert report7["bounded_by_closure"]
    assert report7["distinct_value_count"] <= so3_closure(7).order


def test_criterion_10_foundations():
    rng = random.Random(1729)
    failures = 0
    fields = [get_field(4 * r) for r in PRIMES]
    for case in range(1000):
        f = fields[case % len(fields)]
        x, y, z = (
            CycNumber(
                f,
                [rng.randint(-9, 9) for _ in range(f.degree)],
                rng.randint(1, 9),
            )
            for _ in range(3)
        )
        ok = (
            (x + y) * z == x * z + y * z
            and (x * y) * z == x * (y * z)
            and x + (-x) == f.zero
            and (x * y).conj() == x.conj() * y.conj()
        )
        if not x.is_zero():
            ok = ok and x * x.inv() == f.one
        if not ok:
            failures += 1
    assert failures == 0

    for r in PRIMES:
        md = build_modular_data(r)
        assert md.s_unitary.is_unitary()
        rho_s, rho_t = rho_genus1(r)
        assert rho_s.matpow(4).is_scalar()
        braid = (rho_s @ rho_t).matpow(3)
        assert braid.is_scalar()
        assert braid == (rho_s @ rho_s).scalar_mul(braid.scalar_value())
        assert rho_t.matpow(r).is_scalar()
