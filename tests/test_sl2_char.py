import copy
import os
import random
import subprocess
import sys
from itertools import islice
from math import prod
from pathlib import Path

import numpy as np
import pytest

from so3tqft import sl2_char
from so3tqft.cycmatrix import CycMatrix, _product, _product_equals
from so3tqft.cyclo import CycNumber, _split_primes, get_field
from so3tqft.levels import SUPPORTED_RANGE, _primitive_root, is_odd_prime, sl2_mul
from so3tqft.sl2_char import (
    _certify_tensor,
    _dixon_primes,
    _split_eigenvectors,
    _tensor_multiplicities,
    _verify_orthogonality,
    borel_check,
    borel_group,
    borel_table,
    chi_beta_report,
    regular_congruence_check,
    screen_induction_triples,
    sl2_group,
    sl2_inv,
    sl2_table,
    tensor_decompose,
)

PRIMES = (5, 7, 11, 13)


def test_group_orders_and_classes():
    g = sl2_group(7)
    assert g.order() == 336
    assert g.num_classes() == 11  # r + 4
    assert sum(g.class_sizes) == 336
    for size in g.class_sizes:
        assert 336 % size == 0
    singletons = [i for i, s in enumerate(g.class_sizes) if s == 1]
    assert len(singletons) == 2  # the center {I, -I}
    for r in PRIMES:
        g = sl2_group(r)
        assert g.order() == r ** 3 - r
        assert g.num_classes() == r + 4


def test_enumerate_group_range():
    with pytest.raises(ValueError):
        sl2_group(17)
    with pytest.raises(ValueError):
        sl2_group(4)
    assert sl2_group(7).num_classes() == 11


def shuffled_sl2_group(r):
    """SL2(F_r) with its elements in a seeded random order, not by entries."""
    g = sl2_group(r)
    elements = random.Random(r).sample(g.elements, len(g.elements))
    return sl2_char.FiniteGroup(r, "SL2 shuffled", elements, g.generators)


@pytest.mark.parametrize("r", (5, 7, 11))
@pytest.mark.parametrize("group", (sl2_group, borel_group, shuffled_sl2_group))
def test_class_mult_tensor_matches_the_counting_loop(group, r):
    # one x in C_i and one representative z_l at a time, in Python ints
    g = group(r)
    k = g.num_classes()
    want = [[[0] * k for _ in range(k)] for _ in range(k)]
    for l, z in enumerate(g.class_reps):
        for i in range(k):
            for xi in g.classes[i]:
                y = sl2_mul(sl2_inv(g.elements[xi], r), z, r)
                want[i][g.class_of[g.index[y]]][l] += 1
    got = g.class_mult_tensor()
    assert got.dtype == np.int64 and got.tolist() == want


def _proportional(v, w, p):
    """v and w are proportional mod p iff every 2x2 minor vanishes."""
    return not ((np.outer(v, w) - np.outer(w, v)) % p).any()


@pytest.mark.parametrize("r", PRIMES)
@pytest.mark.parametrize("group", (sl2_group, borel_group))
def test_split_gives_common_eigenvectors(group, r):
    g = group(r)
    k = g.num_classes()
    tensor = g.class_mult_tensor()
    p = next(_dixon_primes(g.order(), g.exponent))
    vecs = np.array(_split_eigenvectors(tensor, p, k), dtype=np.int64)
    assert vecs.shape == (k, k)
    assert all(((v % p) != 0).any() for v in vecs)
    for a in range(k):
        for b in range(a + 1, k):
            assert not _proportional(vecs[a], vecs[b], p)
    # M_i v = lambda_i v (mod p) for every class matrix, lambda_i read off
    # the first nonzero coordinate of v
    for v in vecs % p:
        j = int(np.flatnonzero(v)[0])
        for mat in np.array(tensor, dtype=np.int64) % p:
            lam = int(mat[j] @ v) * pow(int(v[j]), -1, p) % p
            assert not ((mat @ v - lam * v) % p).any()


def test_split_raises_when_eigenvalues_are_not_in_f_p():
    # 43 is not 1 mod the exponent 168 of SL2(F_7), so some central
    # characters take values outside F_43
    g = sl2_group(7)
    with pytest.raises(ArithmeticError):
        _split_eigenvectors(g.class_mult_tensor(), 43, g.num_classes())


def test_degrees():
    for r in PRIMES:
        tbl = sl2_table(r)
        half = (r - 1) // 2
        assert sum(d * d for d in tbl.degrees) == r ** 3 - r
        assert len(tbl.degrees) == r + 4
        nontrivial_small = [d for d in tbl.degrees if 1 < d <= half]
        assert nontrivial_small == [half, half]
        assert tbl.degrees.count(1) == 1
    # the Dixon prime sequence is pinned: p = 1 (mod exponent), p > 2 sqrt(order)
    assert [sl2_table(r).dixon_prime for r in PRIMES] == [61, 337, 661, 1093]
    assert [borel_table(r).dixon_prime for r in PRIMES] == [41, 43, 331, 157]
    # 1 + 2 ((r-1)/2)^2 = (r^2 - 2r + 3)/2 instantiated at r = 11
    assert 1 + 2 * ((11 - 1) // 2) ** 2 == (11 * 11 - 2 * 11 + 3) // 2 == 51


def test_orthogonality_spot():
    # the constructor verifies exact row/column orthogonality; re-derive one
    tbl = sl2_table(5)
    g = tbl.group
    f = tbl.value_field
    acc = f.zero
    for i in range(tbl.num_classes()):
        acc = acc + tbl.char_table[2][i] * tbl.char_table[2][g.inverse_class[i]] * g.class_sizes[i]
    assert acc == f.from_int(g.order())


def test_char_values_are_algebraic_integers():
    rng = random.Random(17)
    tbl = sl2_table(7)
    f = tbl.value_field
    k = tbl.num_classes()
    picks = [(rng.randrange(k), rng.randrange(k)) for _ in range(10)]
    for a, i in picks:
        v = tbl.char_table[a][i]
        # Z[zeta_n] is the full ring of integers, so denominator 1 in the
        # power basis is integrality; the Galois trace must land in Z
        assert v.den == 1
        trace = f.zero
        for s in range(f.n):
            if _coprime(s, f.n):
                trace = trace + _galois(v, s)
        assert trace.is_rational()
        assert trace.as_fraction().denominator == 1


def _coprime(a, n):
    from math import gcd

    return gcd(a, n) == 1


def _galois(v, s):
    f = v.field
    acc = f.zero
    for j, c in enumerate(v.num):
        if c:
            acc = acc + f.zeta_power(j * s) * c
    return CycNumber(f, acc.num, acc.den * v.den)


def test_chi_beta_values_minus_one():
    for r in PRIMES:
        rep = chi_beta_report(r)
        assert rep["degree"] == (r - 1) // 2
        assert len(rep["irrep_indices"]) == 2
        assert rep["square_torus_classes"], "no regular square torus classes"
        assert rep["all_values_minus_one"]


def test_tensor_with_trivial():
    tbl = sl2_table(7)
    triv = tbl.trivial_index()
    for b in range(tbl.num_classes()):
        mults = tensor_decompose(tbl, triv, b)
        assert mults == [1 if c == b else 0 for c in range(tbl.num_classes())]


def test_tensor_with_conjugate_contains_trivial_once():
    tbl = sl2_table(7)
    g = tbl.group
    triv = tbl.trivial_index()
    k = tbl.num_classes()
    for a in range(k):
        # the conjugate character is the row evaluated at inverse classes
        conj_row = [tbl.char_table[a][g.inverse_class[i]] for i in range(k)]
        b = next(
            i for i in range(k) if tbl.char_table[i] == conj_row
        )
        mults = tensor_decompose(tbl, a, b)
        assert mults[triv] == 1
        for c in range(k):
            if c != a:
                other = [tbl.char_table[c][g.inverse_class[i]] for i in range(k)]
                bc = next(i for i in range(k) if tbl.char_table[i] == other)
                if bc != b:
                    assert tensor_decompose(tbl, a, bc)[triv] == 0


def test_ltwo_exhaustive_small():
    for r in (5, 7, 11):
        tbl = sl2_table(r)
        half = (r - 1) // 2
        triv = tbl.trivial_index()
        k = tbl.num_classes()
        for a in range(k):
            if a == triv:
                continue
            for b in range(a, k):
                if b == triv:
                    continue
                mults = tensor_decompose(tbl, a, b)
                assert any(
                    m > 0 and tbl.degrees[c] > half for c, m in enumerate(mults)
                ), (r, a, b)


def test_borel_group_structure():
    b = borel_group(7)
    assert b.order() == 42
    assert sum(b.class_sizes) == 42
    for r in PRIMES:
        assert borel_group(r).order() == r * (r - 1)


def test_borel_degrees_observed():
    # exact computation: degrees are 1 (r-1 times) and (r-1)/2 (4 times)
    for r in (5, 7, 11):
        bt = borel_table(r)
        assert sorted(set(bt.degrees)) == [1, (r - 1) // 2]
        assert bt.degrees.count(1) == r - 1
        assert bt.degrees.count((r - 1) // 2) == 4
        assert sum(d * d for d in bt.degrees) == r * (r - 1)
        assert bt.group.num_classes() == r + 3


def test_borel_check_report():
    bc = borel_check(7)
    assert bc["borel_order"] == 42
    assert bc["index"] == 8
    assert bc["index_is_r_plus_1"]
    assert bc["observed_degree_set"] == [1, 3]
    assert bc["degrees_match_stated_set"] is False
    assert bc["linear_character_count"] == 6
    # every induced character has degree (r+1) * dim and integral multiplicities
    for row in bc["inductions"]:
        assert row["induced_degree"] == 8 * row["borel_degree"]
    # trivial character of B induces 1 + Steinberg
    gt = sl2_table(7)
    triv_g = gt.trivial_index()
    bt = borel_table(7)
    triv_b = bt.trivial_index()
    mults = bc["inductions"][_index_of_borel_row(bc, triv_b)]["multiplicities"]
    assert mults[triv_g] == 1
    steinberg = next(i for i, d in enumerate(gt.degrees) if d == 7)
    assert mults[steinberg] == 1
    assert sum(m * d for m, d in zip(mults, gt.degrees)) == 8
    # both degree families are screened out by congruence or inequality
    assert bc["all_screened_out"]


def _index_of_borel_row(bc, borel_irrep_index):
    # inductions are listed in borel irrep order
    return borel_irrep_index


def test_regular_and_screening():
    rc7 = regular_congruence_check(7)
    assert rc7["regular_multiplicities_equal_degrees"]
    assert rc7["inequality_lhs"] == [19, 1]
    assert rc7["inequality_rhs"] == [21, 1]
    assert rc7["inequality_holds"]
    assert rc7["surviving_triples"] == [(7, 1, 48)]
    # Borel-induced candidates all die by congruence or inequality
    assert rc7["borel_all_screened_out"]
    assert {row["dim"] for row in rc7["borel_screening"]} == {1, 3}

    rc11 = regular_congruence_check(11)
    assert rc11["surviving_triples"] == [(11, 1, 120)]
    assert rc11["inequality_lhs"] == [51, 1]
    assert rc11["inequality_rhs"] == [55, 1]

    # for r > 11 everything is screened out; the screen presumes r >= 7
    # (at r = 5 the congruence is only mod 2 and cuts nothing)
    assert screen_induction_triples(13)["survivors"] == []


def test_dual_route_guard():
    # the multiplicity array is read off mod p and certified exactly when the
    # table is built; a full pass over one table reads every row of it
    tbl = sl2_table(5)
    k = tbl.num_classes()
    for a in range(k):
        for b in range(k):
            mults = tensor_decompose(tbl, a, b)
            assert all(m >= 0 for m in mults)
            total = sum(m * d for m, d in zip(mults, tbl.degrees))
            assert total == tbl.degrees[a] * tbl.degrees[b]


def _exact_inner_product(table, a, b, c):
    """<chi_a chi_b, chi_c> as one exact sum over the classes in the value
    field, independent of the certified mod-p array."""
    g = table.group
    f = table.value_field
    ct = table.char_table
    acc = f.zero
    for i in range(table.num_classes()):
        acc = acc + ct[a][i] * ct[b][i] * ct[c][g.inverse_class[i]] * g.class_sizes[i]
    q = acc.as_fraction() / g.order()
    assert q.denominator == 1 and q >= 0
    return int(q)


@pytest.mark.parametrize("r", [5, 7])
def test_tensor_decompose_matches_exact_inner_products(r):
    tbl = sl2_table(r)
    k = tbl.num_classes()
    for a in range(k):
        for b in range(k):
            oracle = [_exact_inner_product(tbl, a, b, c) for c in range(k)]
            assert tensor_decompose(tbl, a, b) == oracle, (r, a, b)


def test_certificate_rejects_a_tampered_modp_entry():
    tbl = sl2_table(7)
    assert np.array_equal(_tensor_multiplicities(tbl), tbl.tensor_mults)
    p = tbl.dixon_prime
    for a, i in [(0, 0), (4, 2), (10, 10)]:
        bad = copy.copy(tbl)
        bad.char_table_modp = [row[:] for row in tbl.char_table_modp]
        bad.char_table_modp[a][i] = (bad.char_table_modp[a][i] + 1) % p
        with pytest.raises(ArithmeticError):
            _tensor_multiplicities(bad)


def _conjugated(table, count):
    """Copies of the table with the multiplicities of one non-real value
    chi_a(g_i) swapped, mus_s <-> mus_(-s mod m), which conjugates that value
    alone: the first `count` such entries."""
    out = []
    for a in range(table.num_classes()):
        for i, m in enumerate(table.group.class_orders):
            mus = table.mus[a, i, :m]
            if len(out) < count and (mus != mus[-np.arange(m) % m]).any():
                bad = copy.copy(table)
                bad.mus = table.mus.copy()
                bad.mus[a, i, :m] = mus[-np.arange(m) % m]
                out.append(bad)
    return out


def test_orthogonality_rejects_a_conjugated_value():
    tbl = sl2_table(7)
    _verify_orthogonality(tbl)
    bad = _conjugated(tbl, 3)
    assert len(bad) == 3
    for t in bad:
        with pytest.raises(ArithmeticError):
            _verify_orthogonality(t)


def test_borel_check_rejects_a_conjugated_borel_value(monkeypatch):
    # a conjugated value v of the Borel table moves one Frobenius sum by
    # (conj(v) - v) |C_i| / |B| times a value of psi; against the trivial psi
    # that is imaginary and nonzero, so the sum is no longer rational
    bad = _conjugated(borel_table(7), 3)
    assert len(bad) == 3
    for t in bad:
        with monkeypatch.context() as m:
            m.setattr(sl2_char, "borel_table", lambda r: t)
            with pytest.raises(ArithmeticError, match="not rational"):
                borel_check(7)
    assert borel_check(7)["inductions"]


# the dense route: each identity checked on the power-basis table by
# cycmatrix._product_equals, and the Frobenius sums by a lifted _product


def _dense_orthogonality(table):
    g = table.group
    k = g.num_classes()
    x = table.values
    x_inv_t = x.arr[:, g.inverse_class].transpose(1, 0, 2).astype(object)
    w = x_inv_t * np.array(g.class_sizes, dtype=object)[:, None, None]
    n_id = np.zeros(x.arr.shape, dtype=object)
    n_id[range(k), range(k), 0] = g.order()
    return _product_equals(x.field, x.arr, w, n_id) and _product_equals(
        x.field, x.arr.transpose(1, 0, 2), w.transpose(1, 0, 2), n_id
    )


def _dense_tensor(table, m):
    k = table.num_classes()
    f = table.value_field
    arr = table.values.arr
    for i in range(k):
        col = arr[:, i : i + 1, :]
        rhs = (m.reshape(k * k, k).astype(object) @ col[:, 0, :].astype(object)).reshape(k, k, -1)
        if not _product_equals(f, col, col.transpose(1, 0, 2), rhs):
            return False
    return True


def _dense_frobenius(r, bt):
    """The induction multiplicities [borel irrep][SL2 irrep], or None when a
    Frobenius sum is not a rational integer divisible by |B|."""
    gt = sl2_table(r)
    g, b = gt.group, bt.group
    fg = gt.value_field
    lifted = fg.lift_coeffs(bt.values.arr.astype(object), bt.value_field)
    cls = [g.inverse_class[g.class_of[g.index[x]]] for x in b.class_reps]
    restricted = gt.values.arr[:, cls].transpose(1, 0, 2).astype(object)
    restricted *= np.array(b.class_sizes, dtype=object)[:, None, None]
    num = _product(fg, lifted, restricted)
    if num[..., 1:].any() or (num[..., 0] % b.order()).any():
        return None
    return (num[..., 0] // b.order()).tolist()


def _rebuilt(table):
    """The table with its power basis rebuilt from its multiplicities."""
    out = copy.copy(table)
    e = table.group.exponent
    arr = sl2_char._power_basis(table.mus, table.group.class_orders, e)
    out.values = CycMatrix._from_array(table.value_field, arr, 1)
    return out


@pytest.mark.parametrize("r", PRIMES)
@pytest.mark.parametrize("make_table", (sl2_table, borel_table))
def test_certificates_agree_with_the_dense_route(make_table, r, monkeypatch):
    tbl = make_table(r)
    assert _dense_orthogonality(tbl)
    assert _dense_tensor(tbl, tbl.tensor_mults)
    for bad in _conjugated(tbl, 2):
        bad = _rebuilt(bad)
        assert not _dense_orthogonality(bad)
        with pytest.raises(ArithmeticError):
            _verify_orthogonality(bad)
    m = tbl.tensor_mults.copy()
    m[-1, -1, -1] += 1
    assert not _dense_tensor(tbl, m)
    with pytest.raises(ArithmeticError):
        _certify_tensor(tbl, m)
    if make_table is borel_table:
        rows = [row["multiplicities"] for row in borel_check(r)["inductions"]]
        assert _dense_frobenius(r, tbl) == rows
        for bad in _conjugated(tbl, 2):
            assert _dense_frobenius(r, _rebuilt(bad)) is None
            with monkeypatch.context() as mp:
                mp.setattr(sl2_char, "borel_table", lambda r: bad)
                with pytest.raises(ArithmeticError):
                    borel_check(r)


@pytest.mark.parametrize("r", (7, 13))
def test_fewer_primes_than_the_bound_asks_accept_a_false_tensor_identity(r, monkeypatch):
    # m is the certified array with one entry moved by Q, the product of the
    # first j split primes of Q(zeta_e).  The bound counts sum_c m[a, b, c]
    # >= Q, so it asks for more than j primes and rejects m; with the first j
    # alone, every prime divides Q and m passes
    tbl = sl2_table(r)
    f = tbl.value_field
    for j in (1, 2):
        ps, roots, w, q = f.split.take(prod(islice(_split_primes(f.n), j)) - 1)
        assert len(ps) == j
        m = tbl.tensor_mults.copy()
        m[1, 2, 3] += q
        with pytest.raises(ArithmeticError):
            _certify_tensor(tbl, m)
        with monkeypatch.context() as mp:
            mp.setattr(f.split, "take", lambda bound: (ps, roots, w, q))
            _certify_tensor(tbl, m)


@pytest.mark.parametrize("check", ("orthogonality", "tensor", "borel"))
def test_the_certificates_compare_every_root(check, monkeypatch):
    # one value chi_a(g_i), at a class of order m > 2, moved by zeta_m - alpha
    # with alpha = omega^(e/m) mod p0, omega the first root of the first split
    # prime p0: the move vanishes at that root mod p0 and at no other root
    # of it.  With p0 alone, only the other roots can show the tampering
    make_table = borel_table if check == "borel" else sl2_table
    tbl = make_table(7)
    f = get_field(sl2_table(7).group.exponent)
    e = f.n
    ps, roots, w, q = f.split.take(1)
    p0, omega = int(ps[0]), int(roots[0, 0])
    i = next(i for i, m in enumerate(tbl.group.class_orders) if m > 2)
    m = tbl.group.class_orders[i]
    bad = copy.copy(tbl)
    bad.mus = tbl.mus.copy()
    bad.mus[1, i, 0] -= pow(omega, e // m, p0)
    bad.mus[1, i, 1] += 1
    with monkeypatch.context() as mp:
        mp.setattr(f.split, "take", lambda bound: (ps, roots, w, q))
        with pytest.raises(ArithmeticError):
            if check == "orthogonality":
                _verify_orthogonality(bad)
            elif check == "tensor":
                _certify_tensor(bad, tbl.tensor_mults)
            else:
                mp.setattr(sl2_char, "borel_table", lambda r: bad)
                borel_check(7)


def test_dixon_field_builds_no_power_table():
    # in a fresh process: after the r = 13 table, its field Q(zeta_1092)
    # holds no (N, d) array, and no table read off the powers of zeta
    src = str(Path(sl2_char.__file__).resolve().parents[1])
    code = (
        "from so3tqft.sl2_char import sl2_table\n"
        "t = sl2_table(13)\n"
        "f = t.value_field\n"
        "assert f.n == 1092, f\n"
        "big = [k for k, v in vars(f).items() if getattr(v, 'ndim', 0) == 2]\n"
        "assert not big and not {'pw', 'red_np', 'conj_rows'} & set(vars(f)), vars(f)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _dft_lift(table):
    """The exact table by the pure-Python DFT over the residues mod p: for
    a class of order m, mu_s = (1/m) sum_t chi(g^t) lambda_m^(-st) mod p is
    the multiplicity of zeta_m^s, one CycNumber per entry."""
    g = table.group
    p = table.dixon_prime
    e = g.exponent
    f = table.value_field
    lam_e = pow(_primitive_root(p), (p - 1) // e, p)
    out = []
    for chi in table.char_table_modp:
        row = []
        for i in range(g.num_classes()):
            m = g.class_orders[i]
            lam_m = pow(lam_e, e // m, p)
            mus = []
            for s in range(m):
                tot = 0
                for t in range(m):
                    tot += chi[g.power_map[i][t]] * pow(lam_m, (-s * t) % (p - 1), p)
                mus.append(tot % p * pow(m, p - 2, p) % p)
            value = np.array(mus, dtype=np.int64) @ f.rows((e // m) * np.arange(m))
            row.append(CycNumber(f, value.tolist()))
        out.append(row)
    return out


@pytest.mark.parametrize(
    "r", [r for r in range(SUPPORTED_RANGE[0], SUPPORTED_RANGE[1] + 1) if is_odd_prime(r)]
)
@pytest.mark.parametrize("make_table", (sl2_table, borel_table))
def test_lift_matches_the_pure_python_dft(make_table, r):
    tbl = make_table(r)
    assert _dft_lift(tbl) == tbl.char_table


def test_tensor_degrees_add_up():
    tbl = sl2_table(13)
    k = tbl.num_classes()
    for a in range(k):
        for b in range(k):
            mults = tensor_decompose(tbl, a, b)
            total = sum(m * d for m, d in zip(mults, tbl.degrees))
            assert total == tbl.degrees[a] * tbl.degrees[b], (a, b)
