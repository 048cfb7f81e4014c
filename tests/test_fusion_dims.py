import math
import random

import pytest

from so3tqft.cyclo import get_field
from so3tqft.fusion_dims import (
    SurfaceSpec,
    dim_space,
    fusion_coeff,
    goslow_margin,
    labels,
    twist_multiplicities,
    verlinde_dim,
)

SMALL_PRIMES = (5, 7, 11, 13)
ALL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_fusion_coeff_examples():
    assert fusion_coeff(7, 0, 0, 0) == 1
    assert fusion_coeff(7, 2, 2, 4) == 1   # 4 <= 4 and sum 8 <= 10
    assert fusion_coeff(7, 4, 4, 4) == 0   # sum 12 > 10
    with pytest.raises(ValueError):
        fusion_coeff(7, 1, 2, 2)
    with pytest.raises(ValueError):
        fusion_coeff(7, 0, 2, 6)


def test_fusion_tensor_symmetry_and_vacuum():
    for r in SMALL_PRIMES:
        n = lambda a, b, c: fusion_coeff(r, a, b, c)
        ls = labels(r)
        for a in ls:
            for b in ls:
                assert n(a, b, 0) == (1 if a == b else 0)
                for c in ls:
                    v = n(a, b, c)
                    assert v == n(b, a, c) == n(c, b, a) == n(a, c, b)


def test_sphere_base_cases():
    for r in SMALL_PRIMES:
        assert dim_space(SurfaceSpec(r, 0)) == 1
        for h in labels(r):
            assert dim_space(SurfaceSpec(r, 0, (h,))) == (1 if h == 0 else 0)
            for h2 in labels(r):
                want = 1 if h == h2 else 0
                assert dim_space(SurfaceSpec(r, 0, (h, h2))) == want


def test_torus_one_boundary():
    for r in SMALL_PRIMES:
        for h in labels(r):
            assert dim_space(SurfaceSpec(r, 1, (h,))) == (r - 1 - h) // 2


def test_pinned_dimensions():
    assert dim_space(SurfaceSpec(7, 1, (0,))) == 3
    assert dim_space(SurfaceSpec(7, 2)) == 14
    assert dim_space(SurfaceSpec(7, 3)) == 98
    assert dim_space(SurfaceSpec(11, 2)) == 55
    assert dim_space(SurfaceSpec(13, 2)) == 91
    for r in ALL_PRIMES:
        assert dim_space(SurfaceSpec(r, 2)) == (r ** 3 - r) // 24


def test_trailing_zero_label():
    for r in (7, 11):
        for g in (0, 1, 2):
            for h in labels(r):
                a = dim_space(SurfaceSpec(r, g, (h,)))
                b = dim_space(SurfaceSpec(r, g, (h, 0)))
                assert a == b


def test_cut_independence():
    # separating versus non-separating pants decompositions
    for r in (5, 7, 11, 13, 17, 19):
        ls = labels(r)
        sep = sum(dim_space(SurfaceSpec(r, 1, (x,))) ** 2 for x in ls)
        assert sep == dim_space(SurfaceSpec(r, 2))
        sep3 = sum(
            dim_space(SurfaceSpec(r, 1, (x,))) * dim_space(SurfaceSpec(r, 2, (x,)))
            for x in ls
        )
        assert sep3 == dim_space(SurfaceSpec(r, 3))


def test_verlinde_values():
    vfloat, vnear = verlinde_dim(7, 1)
    assert vnear == 3
    assert abs(vfloat - 3) < 1e-9
    assert verlinde_dim(7, 2)[1] == 14
    assert verlinde_dim(11, 2)[1] == 55


def test_verlinde_matches_gluing():
    for r in ALL_PRIMES:
        for g in range(1, 7):
            vfloat, vnear = verlinde_dim(r, g)
            exact = dim_space(SurfaceSpec(r, g))
            assert math.isclose(vfloat, exact, rel_tol=1e-6)
            assert vnear == exact


def test_verlinde_is_exact_past_double_precision():
    for g in range(9, 13):
        assert verlinde_dim(13, g)[1] == dim_space(SurfaceSpec(13, g))
    assert verlinde_dim(31, 6)[1] == 249182977056820


def _verlinde_traces(r, genera):
    """The power sums p_(g-1) as half the trace from Q(zeta_r) to Q of
    alpha_1^(g-1), alpha_1 = r / (2 - z^2 - z^-2): alpha_j = alpha_(r-j) runs
    over the conjugates twice, and Tr(x) = r x_0 - (x_0 + ... + x_(r-2))."""
    f = get_field(r)
    alpha = f.from_int(r) / (2 - f.zeta_power(2) - f.zeta_power(-2))
    x = f.one
    out = []
    for _ in range(genera):
        exact, rem = divmod(r * x.num[0] - sum(x.num), 2 * x.den)
        assert rem == 0
        out.append(exact)
        x = x * alpha
    return out


def test_verlinde_matches_cyclotomic_trace():
    for r in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        oracle = _verlinde_traces(r, 30)
        assert [verlinde_dim(r, g)[1] for g in range(1, 31)] == oracle, r


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _matrix_dim(r, g, boundary):
    """dim_space by whole matrices: e_(h_0) H^g N_(h_1) ... N_(h_(k-2))
    e_(h_(k-1)) with N_h read entry by entry from fusion_coeff, H = sum_x
    N_x^2 and H^g by repeated multiplication, past the same base cases."""
    hs = list(boundary)
    if g == 0 and len(hs) <= 2:
        return int(hs in ([], [0]) or (len(hs) == 2 and hs[0] == hs[1]))
    hs += [0] * (2 - len(hs))
    ls = labels(r)
    fusion = {h: [[fusion_coeff(r, a, h, b) for b in ls] for a in ls] for h in ls}
    squares = [_matmul(fusion[x], fusion[x]) for x in ls]
    handle = [[sum(sq[i][j] for sq in squares) for j in range(len(ls))] for i in range(len(ls))]
    chain = [[int(i == j) for j in range(len(ls))] for i in range(len(ls))]
    for _ in range(g):
        chain = _matmul(chain, handle)
    for h in hs[1:-1]:
        chain = _matmul(chain, fusion[h])
    return chain[ls.index(hs[0])][ls.index(hs[-1])]


def test_row_walk_matches_the_matrix_chain():
    rng = random.Random(25)
    zeros = 0
    for r in (5, 7, 11, 13, 17, 19, 23):
        ls = labels(r)
        for g in range(5):
            for k in range(5):
                for _ in range(4):
                    boundary = tuple(rng.choice(ls) for _ in range(k))
                    want = _matrix_dim(r, g, boundary)
                    assert dim_space(SurfaceSpec(r, g, boundary)) == want, (r, g, boundary)
                    zeros += want == 0
    assert zeros > 0  # vanishing dimensions are among the cases


def test_row_walk_has_no_genus_recursion():
    assert dim_space(SurfaceSpec(5, 1200)) == _matrix_dim(5, 1200, ())


def test_row_walk_matches_verlinde_at_the_level_cap():
    for g in range(1, 7):
        assert dim_space(SurfaceSpec(113, g)) == verlinde_dim(113, g)[1]


def test_verlinde_dim_past_double_range():
    # alpha^(g-1) passes double range, so the float saturates and the exact
    # integer is still returned
    for r, g in ((5, 1200), (113, 69)):
        vfloat, exact = verlinde_dim(r, g)
        assert vfloat == math.inf
        assert exact == dim_space(SurfaceSpec(r, g))
    assert verlinde_dim(113, 68)[0] < math.inf


def test_twist_multiplicities():
    assert twist_multiplicities(13) == [6, 15, 20, 21, 18, 11]
    assert twist_multiplicities(7) == [3, 6, 5]
    assert twist_multiplicities(5) == [2, 3]
    for r in ALL_PRIMES:
        mults = twist_multiplicities(r)
        assert len(set(mults)) == len(mults)
        assert sum(mults) == dim_space(SurfaceSpec(r, 2))


def test_twist_multiplicities_match_gluing():
    for r in SMALL_PRIMES:
        mults = twist_multiplicities(r)
        for l, m in enumerate(mults):
            assert m == dim_space(SurfaceSpec(r, 1, (2 * l, 2 * l)))


def test_goslow_margin():
    assert goslow_margin(7, 2) == -7
    closed = (7 + 5) * (7 + 3) * (7 + 1) * 7 * (7 - 1) * (7 - 8) // 5760
    assert closed == -7
    assert goslow_margin(11, 2) > 0
    assert goslow_margin(13, 2) > 0
    assert goslow_margin(7, 3) > 0
    assert goslow_margin(7, 4) > 0
    with pytest.raises(ValueError):
        goslow_margin(5, 2)
    with pytest.raises(ValueError):
        goslow_margin(7, 1)


def test_surface_spec_validation():
    with pytest.raises(ValueError):
        SurfaceSpec(7, -1)
    with pytest.raises(ValueError):
        SurfaceSpec(7, 1, (5,))
    with pytest.raises(ValueError):
        SurfaceSpec(6, 1)


def test_surface_spec_is_an_immutable_value():
    spec = SurfaceSpec(7, 2)
    assert (spec.r, spec.genus, spec.boundary) == (7, 2, ())
    assert spec == SurfaceSpec(7, 2, ()) == SurfaceSpec(r=7, genus=2, boundary=())
    assert spec != SurfaceSpec(7, 2, (0,))
    assert spec != SurfaceSpec(7, 3)
    assert spec != (7, 2, ())
    assert hash(spec) == hash(SurfaceSpec(7, 2, ()))
    assert len({spec, SurfaceSpec(7, 2), SurfaceSpec(7, 1, (2,))}) == 2
    assert repr(SurfaceSpec(7, 1, (2,))) == "SurfaceSpec(r=7, genus=1, boundary=(2,))"
    with pytest.raises(AttributeError):
        spec.genus = 3
    with pytest.raises(AttributeError):
        del spec.r
    with pytest.raises(AttributeError):
        spec.extra = 1
    assert spec.genus == 2
