import dataclasses
import random

import pytest

from so3tqft.cyclo import get_field
from so3tqft.cycmatrix import CycMatrix
from so3tqft.modular_data import build_modular_data, rho_genus1
from so3tqft import weil
from so3tqft.weil import (
    HeisenbergWord,
    OddBlockMismatch,
    S_GEN,
    T_GEN,
    _compose,
    _monomial,
    _restrict_to_odd,
    apply_action,
    build_weil,
    heisenberg_action,
    heisenberg_presentation,
    verify_odd_block_identification,
)

PRIMES = (5, 7, 11, 13)


def rand_sl2(rng, r):
    while True:
        a, b, c = (rng.randrange(r) for _ in range(3))
        # solve a d - b c = 1 for d when possible
        if a != 0:
            d = (1 + b * c) * pow(a, r - 2, r) % r
            return ((a, b), (c, d))
        if b != 0 and c != 0:
            # a = 0: need -bc = 1
            c = (-pow(b, r - 2, r)) % r
            return ((0, b), (c, rng.randrange(r)))


def mat_mul(m1, m2, r):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return (((a * e + b * g) % r, (a * f + b * h) % r),
            ((c * e + d * g) % r, (c * f + d * h) % r))


def mat_inv(m, r):
    (a, b), (c, d) = m
    return ((d % r, (-b) % r), ((-c) % r, a % r))


def test_stone_von_neumann_matrices():
    pres = heisenberg_presentation(7)
    f = pres.rho_x.field
    for k in range(7):
        assert pres.rho_x[(k, k)] == f.zeta_power(4 * 2 * k)
    # cyclic shift: e_k -> e_{k-1}
    for i in range(7):
        for j in range(7):
            want = f.one if j == (i + 1) % 7 else f.zero
            assert pres.rho_y[(i, j)] == want
    assert pres.rho_z.is_scalar()
    assert pres.rho_z.scalar_value() == f.zeta_power(4)


def test_central_extension_relation():
    for r in (5, 7, 11):
        pres = heisenberg_presentation(r)
        lhs = pres.rho_y @ pres.rho_x
        rhs = (pres.rho_z @ pres.rho_z) @ (pres.rho_x @ pres.rho_y)
        assert lhs == rhs


def test_word_normal_form():
    r = 7
    x = HeisenbergWord.of(r, 0, 1, 0)
    y = HeisenbergWord.of(r, 0, 0, 1)
    # y x = z^2 x y
    assert y * x == HeisenbergWord.of(r, 2, 1, 1)
    assert (x * y) ** r == HeisenbergWord.of(r, 0, 0, 0)
    w = HeisenbergWord.of(r, 3, 2, 5)
    assert (w * w.inv()).is_identity()
    pres = heisenberg_presentation(r)
    # rho respects the normal form product on random pairs
    rng = random.Random(1)
    for _ in range(20):
        w1 = HeisenbergWord.of(r, rng.randrange(r), rng.randrange(r), rng.randrange(r))
        w2 = HeisenbergWord.of(r, rng.randrange(r), rng.randrange(r), rng.randrange(r))
        assert pres.rho_word(w1 * w2) == pres.rho_word(w1) @ pres.rho_word(w2)


def test_words_of_different_levels_do_not_multiply():
    # a ValueError, not an assert: it must hold under python -O too
    with pytest.raises(ValueError, match="levels 5 and 7"):
        HeisenbergWord.of(5, 0, 1, 0) * HeisenbergWord.of(7, 0, 1, 0)


@pytest.mark.parametrize("r", PRIMES)
def test_monomial_composition_matches_dense_products(r):
    # the exponent route of the relation checks against the dense products
    # of rho_word, on random Heisenberg words
    pres = heisenberg_presentation(r)
    f = pres.rho_x.field
    rng = random.Random(r)
    word = lambda: HeisenbergWord.of(r, *(rng.randrange(r) for _ in range(3)))
    for _ in range(10):
        w1, w2 = word(), word()
        composed = _compose(_monomial(r, w1), _monomial(r, w2), 4 * r)
        dense = pres.rho_word(w1) @ pres.rho_word(w2)
        assert CycMatrix.roots(f, *composed) == dense == pres.rho_word(w1 * w2)


def test_intertwiner_check_is_load_bearing(monkeypatch):
    # with the action replaced by the identity, R_s rho(x) = rho(x) R_s is
    # false, and the exponent check must say so
    monkeypatch.setattr(weil, "apply_action", lambda m, r, w: w)
    with pytest.raises(ArithmeticError, match="intertwiner"):
        build_weil.__wrapped__(7)


def test_action_on_generators():
    r = 7
    fx, fy = heisenberg_action(((1, 0), (0, 1)), r)
    assert fx == HeisenbergWord.of(r, 0, 1, 0)
    assert fy == HeisenbergWord.of(r, 0, 0, 1)
    # s sends x to y and y to x^{-1}
    fx, fy = heisenberg_action(S_GEN, r)
    assert fx == HeisenbergWord.of(r, 0, 0, 1)
    assert fy == HeisenbergWord.of(r, 0, -1, 0)
    with pytest.raises(ValueError):
        heisenberg_action(((1, 1), (1, 1)), r)


def test_action_functorial_and_invertible():
    rng = random.Random(42)
    r = 11
    x = HeisenbergWord.of(r, 0, 1, 0)
    y = HeisenbergWord.of(r, 0, 0, 1)
    for _ in range(100):
        m = rand_sl2(rng, r)
        mi = mat_inv(m, r)
        for w in (x, y):
            assert apply_action(m, r, apply_action(mi, r, w)) == w
    for _ in range(50):
        m1 = rand_sl2(rng, r)
        m2 = rand_sl2(rng, r)
        m12 = mat_mul(m1, m2, r)
        for w in (x, y):
            assert apply_action(m12, r, w) == apply_action(
                m1, r, apply_action(m2, r, w)
            )


def test_weil_entry_formulas():
    w = build_weil(7)
    f = w.r_s.field
    assert w.r_s[(1, 1)] == f.zeta_power(4 * 2)  # e(2)
    assert w.r_t[(0, 0)] == f.one
    for i in range(7):
        assert w.r_t[(i, i)] == f.zeta_power(4 * (-i * i))


def test_intertwiner_relation_explicit():
    # R_t rho(x) R_t^{-1} = rho(f_t(x)) checked as products at r = 7
    r = 7
    pres = heisenberg_presentation(r)
    w = build_weil(r)
    for gen_mat, gen_name in ((w.r_s, S_GEN), (w.r_t, T_GEN)):
        for h in (HeisenbergWord.of(r, 0, 1, 0), HeisenbergWord.of(r, 0, 0, 1)):
            lhs = gen_mat @ pres.rho_word(h)
            rhs = pres.rho_word(apply_action(gen_name, r, h)) @ gen_mat
            assert lhs == rhs


def test_odd_block_dimensions_and_formulas():
    w = build_weil(11)
    assert w.r_s_odd.rows == 5 and w.r_s_odd.cols == 5
    f = w.r_s.field
    labels = list(range(0, 9, 2))
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            mi = (11 - 1 - li) // 2
            mj = (11 - 1 - lj) // 2
            want = f.zeta_power(4 * 2 * mi * mj) - f.zeta_power(-4 * 2 * mi * mj)
            assert w.r_s_odd[(i, j)] == want
    # diagonal block: global phase times the inverse twists
    md = build_modular_data(11)
    phase = f.zeta_power(-((11 - 1) ** 2))
    for j, lj in enumerate(labels):
        assert w.r_t_odd[(j, j)] == phase * md.theta_power(lj, -1)
    assert w.r_t_odd.is_diagonal()


def test_odd_block_symmetric_and_magnitudes():
    for r in (5, 7, 11, 13):
        md = build_modular_data(r)
        w = build_weil(r)
        assert w.r_s_odd.is_symmetric()
        f = md.field
        a2 = f.zeta_power(2 * (r + 1))
        c_inv = (a2 - a2.conj()).inv()
        k = len(md.labels)
        for i in range(k):
            for j in range(k):
                lhs = abs((w.r_s_odd[(i, j)] * c_inv).embed())
                rhs = abs(md.s_tilde[(i, j)].embed())
                assert abs(lhs - rhs) < 1e-9 * max(1.0, rhs)


def test_odd_block_constants():
    for r in PRIMES:
        rep = verify_odd_block_identification(r)
        assert rep["s_block_identity"] and rep["t_block_identity"]
        f = get_field(4 * r)
        a2 = f.zeta_power(2 * (r + 1))
        assert rep["s_constant"] == a2 - a2.conj()
        assert rep["t_constant"] == f.zeta_power(-((r - 1) ** 2))


def test_odd_block_proportional_to_genus1():
    for r in PRIMES:
        md = build_modular_data(r)
        w = build_weil(r)
        rep = verify_odd_block_identification(r)
        rho_s, rho_t = rho_genus1(r)
        assert w.r_s_odd == md.s_tilde.scalar_mul(rep["s_constant"])
        assert w.r_t_odd == rho_t.scalar_mul(rep["t_constant"])


def test_odd_block_mismatch_names_the_changed_entry(monkeypatch):
    w = build_weil(7)
    arr = w.r_s_odd.arr.copy()
    arr[1, 2, 0] += 1
    changed = CycMatrix._from_array(w.r_s_odd.field, arr, w.r_s_odd.den)
    monkeypatch.setattr(weil, "build_weil", lambda r: dataclasses.replace(w, r_s_odd=changed))
    with pytest.raises(OddBlockMismatch) as caught:
        verify_odd_block_identification(7)
    assert caught.value.which == "S-block"
    assert caught.value.position == (1, 2)
    assert caught.value.got == w.r_s_odd[1, 2] + 1
    assert caught.value.want == w.r_s_odd[1, 2]


@pytest.mark.parametrize(
    "row, col, why",
    [(0, 3, "e_0 component"), (2, 3, "symmetry"), (5, 4, "symmetry"), (6, 6, "symmetry")],
)
def test_restrict_to_odd_refuses_a_changed_entry(row, col, why):
    # r = 7: the f_i use the columns (r-1-i)/2 = 3, 2, 1 and (r+1+i)/2 = 4, 5, 6
    w = build_weil(7)
    arr = w.r_s.arr.copy()
    arr[row, col, 0] += 1
    changed = CycMatrix._from_array(w.r_s.field, arr, w.r_s.den)
    _restrict_to_odd(7, w.r_s, w.r_t)  # the unchanged pair restricts
    with pytest.raises(ArithmeticError, match=why):
        _restrict_to_odd(7, changed, w.r_t)
