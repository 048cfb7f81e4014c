import dataclasses
import random
from collections import deque

import pytest
from sympy.combinatorics.fp_groups import FpGroup, coset_enumeration_r
from sympy.combinatorics.free_groups import free_group

import so3tqft.cycmatrix as cycmatrix
import so3tqft.finite_image as finite_image
import so3tqft.weil as weil
from so3tqft.cli import MAX_ENUMERATION_R
from so3tqft.cyclo import is_odd_prime
from so3tqft.cycmatrix import CycMatrix
from so3tqft.finite_image import (
    canonicalize,
    closure,
    identify_group,
    mod_r_graph_report,
    linear_lift_report,
    psl2_relators,
    sl2_relators,
    so3_closure,
    so3_generators,
    weil_closure,
)
from so3tqft.modular_data import build_modular_data, rho_genus1
from so3tqft.levels import sl2_mul
from so3tqft.sl2_char import sl2_inv


# The one-element-at-a-time projective search that the batched search up to
# sign replaced, kept here as the oracle for its element order, words and
# cut-offs: each class divided by its first nonzero entry.


def reference_closure(gens, max_order=10**7, names=None):
    names = names or tuple(f"g{i}" for i in range(len(gens)))
    gens_c = [canonicalize(g) for g in gens]
    ident = canonicalize(CycMatrix.identity(gens[0].field, gens[0].rows))
    elements = {ident.key(): ident}
    words = {ident.key(): ""}
    queue = deque([ident])
    while queue:
        cur = queue.popleft()
        for name, g in zip(names, gens_c):
            nxt = canonicalize(g @ cur)
            if nxt.key() not in elements:
                if len(elements) >= max_order:
                    return elements, words, False
                elements[nxt.key()] = nxt
                words[nxt.key()] = name + words[cur.key()]
                queue.append(nxt)
    return elements, words, True


# The real odd Weil pair, for the one-at-a-time search: the certificate route
# never searches it.


def proj_inverse(m: CycMatrix) -> CycMatrix:
    """Inverse up to scalar for a matrix that is unitary up to scalar:
    m * m^dagger must be scalar, and then m^-1 is proportional to m^dagger."""
    h = m.conj_transpose()
    if not (m @ h).is_scalar():
        raise ValueError("matrix is not unitary up to scalar")
    return h


def weil_generators(r: int):
    w = weil.build_weil(r)
    gens = (w.r_s_odd, w.r_t_odd)
    return ("s", "t", "S", "T"), gens + tuple(proj_inverse(g) for g in gens)


@pytest.mark.parametrize("r", (5, 7))
@pytest.mark.parametrize("which", ("so3", "weil"))
def test_batched_closure_matches_one_at_a_time_search(r, which):
    names, gens = (so3_generators if which == "so3" else weil_generators)(r)
    gc = (so3_closure if which == "so3" else weil_closure)(r)
    elements, words, complete = reference_closure(gens, names=names)
    assert gc.complete and complete
    assert list(gc.generator_words.values()) == list(words.values())
    assert [canonicalize(m) for m in gc.elements.values()] == list(elements.values())


def test_max_order_cut_off_matches_one_at_a_time_search():
    names, gens = so3_generators(5)
    for m in range(1, 61):
        gc = closure(gens, max_order=m, names=names)
        elements, words, complete = reference_closure(gens, max_order=m, names=names)
        assert gc.complete == complete == (m == 60)
        assert list(gc.generator_words.values()) == list(words.values())
        assert [canonicalize(x) for x in gc.elements.values()] == list(elements.values())


def test_closure_through_python_int_work_arrays(monkeypatch):
    # every product lifted from its residues in Python ints: keys and order
    # must not depend on it
    names, gens = so3_generators(5)
    want = closure(gens, names=names)
    lift, dtypes = cycmatrix._lift, []

    def spy(*args):
        out = lift(*args)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(cycmatrix, "work_dtype", lambda bound: object)
    monkeypatch.setattr(cycmatrix, "_lift", spy)
    got = closure(gens, names=names)
    assert dtypes and all(dt == object for dt in dtypes)
    assert list(got.elements) == list(want.elements)
    assert got.generator_words == want.generator_words


def test_closure_caches_are_bounded():
    cached = finite_image._genus1_closure
    assert cached.cache_info().maxsize == finite_image._CLOSURE_CACHE <= 16
    for m in range(1, 2 * finite_image._CLOSURE_CACHE + 1):
        so3_closure(5, max_order=m)
    assert cached.cache_info().currsize <= finite_image._CLOSURE_CACHE


def test_so3_and_weil_closures_share_one_cache_entry():
    cached = finite_image._genus1_closure
    cached.cache_clear()
    gc = so3_closure(11)
    assert weil_closure(11) is gc
    assert so3_closure(11, 10**7) is gc
    assert so3_closure(11, max_order=10**7) is gc
    info = cached.cache_info()
    assert info.misses == 1 and info.currsize == 1


def test_canonicalize_scalar_collapse():
    md = build_modular_data(5)
    f = md.field
    ident = CycMatrix.identity(f, 2)
    three_i = ident.scalar_mul(f.from_int(3))
    assert canonicalize(three_i) == ident
    rho_s, _ = rho_genus1(5)
    zeta_s = rho_s.scalar_mul(f.zeta_power(3))
    assert canonicalize(zeta_s) == canonicalize(rho_s)
    with pytest.raises(ValueError):
        canonicalize(CycMatrix(f, 1, 1, [f.zero]))


def test_canonicalize_idempotent_on_random_words():
    rng = random.Random(99)
    rho_s, rho_t = rho_genus1(5)
    for _ in range(100):
        m = CycMatrix.identity(rho_s.field, rho_s.rows)
        for _ in range(rng.randint(1, 6)):
            m = m @ (rho_s if rng.random() < 0.5 else rho_t)
        c1 = canonicalize(m)
        c2 = canonicalize(c1)
        assert c1 == c2
        first = next(e for e in c1.entries if not e.is_zero())
        assert first == c1.field.one


def test_identity_closure():
    md = build_modular_data(5)
    gc = closure([CycMatrix.identity(md.field, 2)], max_order=10)
    assert gc.order == 1 and gc.complete


def test_closure_orders():
    for r, expected in ((5, 60), (7, 168)):
        gc = so3_closure(r)
        full = r * (r * r - 1)
        assert gc.complete
        assert gc.order in (full, full // 2)
        assert gc.order == expected  # BFS oracle, frozen
        assert full % gc.order == 0  # Lagrange consistency


def test_max_order_bound_is_a_result():
    rho_s, rho_t = rho_genus1(5)
    gc = closure([rho_s, rho_t], max_order=10)
    assert not gc.complete
    assert gc.order == 10


def test_bfs_deterministic():
    names, gens = so3_generators(5)
    a = closure(gens, names=names)
    b = closure(gens, names=names)
    assert set(a.elements.keys()) == set(b.elements.keys())
    assert a.generator_words == b.generator_words
    lengths_a = sorted(len(w) for w in a.generator_words.values())
    lengths_b = sorted(len(w) for w in b.generator_words.values())
    assert lengths_a == lengths_b


def test_closure_invariant_under_scalar_twist():
    for r in (5, 7):
        names, gens = so3_generators(r)
        base = closure(gens, names=names)
        # the search is up to sign, so flipping any generators changes nothing
        for flips in range(1, 1 << len(gens)):
            flipped = [-g if flips >> i & 1 else g for i, g in enumerate(gens)]
            got = closure(flipped, names=names)
            assert list(got.elements) == list(base.elements)
            assert got.generator_words == base.generator_words
        # G = <m_s, m_t> is perfect, so <m_s, zeta_r m_t> contains its
        # commutators G, hence zeta_r I, and is G x mu_r: only +-I is divided out
        zeta_r = gens[0].field.zeta_power(4)
        m_s, m_t, inv_s, inv_t = gens
        twisted = (m_s, m_t.scalar_mul(zeta_r), inv_s, inv_t.scalar_mul(zeta_r.conj()))
        got = closure(twisted, names=names)
        assert got.complete
        assert got.order == r * base.order == {5: 300, 7: 1176}[r]


def projective_order(m: CycMatrix, bound: int = 10**5) -> int:
    """Order of the projective class of m: the least k with m^k scalar."""
    p = m
    for k in range(1, bound + 1):
        if p.is_scalar():
            return k
        p = p @ m
    raise ArithmeticError("projective order exceeds bound")


def test_projective_generator_orders():
    for r in (5, 7, 11):
        rho_s, rho_t = rho_genus1(r)
        assert projective_order(rho_s) == 2
        assert projective_order(rho_t) == r
        assert projective_order(rho_s @ rho_t) == 3
        with pytest.raises(ArithmeticError):
            projective_order(rho_t, bound=r - 1)


def test_proj_inverse():
    rho_s, rho_t = rho_genus1(7)
    for m in (rho_s, rho_t, rho_s @ rho_t):
        prod = m @ proj_inverse(m)
        assert prod.is_scalar()


def test_identify_group_small():
    for r in (5, 7):
        rep = identify_group(r)
        assert rep["matches"] == "PSL2"
        assert rep["order"] == r * (r * r - 1) // 2
        assert rep["generator_orders"] == {"s": 2, "t": r, "st": 3}
        assert all(rep["relations"].values())
        assert rep["mod_r_graph"]["is_homomorphism"]
        assert rep["mod_r_graph"]["kernel_is_center"]
        assert rep["linear_lift"]["is_linear_representation"]


def test_linear_lift_tracks_r_mod_4():
    # the unique scalar-normalized lift is faithful exactly when r = 1 mod 4
    assert linear_lift_report(5)["linear_image"] == "SL2"
    assert linear_lift_report(7)["linear_image"] == "PSL2"
    assert linear_lift_report(11)["linear_image"] == "PSL2"
    assert linear_lift_report(13)["linear_image"] == "SL2"


def test_mod_r_graph_small():
    rep = mod_r_graph_report(5)
    assert rep["is_homomorphism"]
    assert rep["pair_closure_order"] == 120
    assert rep["kernel_size"] == 2
    rep11 = mod_r_graph_report(11)
    assert rep11["is_homomorphism"]
    assert rep11["pair_closure_order"] == 1320
    assert rep11["kernel_is_center"]


def test_weil_image_equality():
    # the canonical-key comparison that the odd-block certificate replaced,
    # kept as its oracle: the Weil generators and their inverses, each
    # divided by its first nonzero entry, are those of the genus-1 pair
    keys = lambda gens: [canonicalize(g).key() for g in gens]
    for r in (5, 7):
        rho_s, rho_t = rho_genus1(r)
        genus1 = (rho_s, rho_t, proj_inverse(rho_s), proj_inverse(rho_t))
        assert keys(weil_generators(r)[1]) == keys(genus1)
        assert weil_closure(r) is so3_closure(r)


def test_weil_certificate_rejects_a_tampered_generator(monkeypatch):
    w = weil.build_weil(5)
    for tampered in (
        dataclasses.replace(w, r_s_odd=w.r_t_odd, r_t_odd=w.r_s_odd),  # blocks swapped
        dataclasses.replace(w, r_t_odd=w.r_t_odd @ w.r_t_odd),  # t-block squared
    ):
        monkeypatch.setattr(weil, "build_weil", lambda r: tampered)
        with pytest.raises(ArithmeticError):
            weil_closure(5)


def test_weil_closure_order_r11():
    assert weil_closure(11).order == so3_closure(11).order == 660


ENUMERATED = [p for p in range(5, MAX_ENUMERATION_R + 1) if is_odd_prime(p)]


@pytest.mark.parametrize("r", ENUMERATED)
def test_certificate_route_matches_enumeration(r):
    rep = identify_group(r)
    gc = so3_closure(r)
    full = r * (r * r - 1)
    assert gc.complete
    assert rep["order"] == gc.order
    assert rep["matches"] == {full: "SL2", full // 2: "PSL2"}.get(gc.order, "neither")
    rho_s, rho_t = rho_genus1(r)
    assert rep["generator_orders"] == {
        "s": projective_order(rho_s),
        "t": projective_order(rho_t),
        "st": projective_order(rho_s @ rho_t),
    }


@pytest.mark.parametrize("r", ENUMERATED)
def test_presentations_define_psl2_and_sl2(r):
    # Coset enumeration gives the index of <x> in G = <x, y | relators>, and
    # x^r = 1 bounds |<x>| by r, so |G| <= index * r.  (t, s) satisfies
    # every relator, up to -I for PSL2, so x -> t, y -> s maps G onto
    # SL2(F_r), or PSL2(F_r); with r prime and t != I, |<x>| = r, and the
    # bound equals the order of the image: G is that group.
    free, x, y = free_group("x, y")
    letters = {"x": x, "y": y}
    sl2 = {"x": (1, 1, 0, 1), "y": (0, r - 1, 1, 0)}
    ident, minus = (1, 0, 0, 1), (r - 1, 0, 0, r - 1)
    for relators, index, trivial in (
        (psl2_relators(r), (r * r - 1) // 2, {ident, minus}),
        (sl2_relators(r), r * r - 1, {ident}),
    ):
        words = []
        for word in relators:
            w, g = free.identity, ident
            for letter, e in word:
                w = w * letters[letter] ** e
                base = sl2[letter] if e > 0 else sl2_inv(sl2[letter], r)
                for _ in range(abs(e)):
                    g = sl2_mul(g, base, r)
            assert g in trivial, word
            words.append(w)
        # bounded, so a presentation of an infinite group fails fast
        table = coset_enumeration_r(FpGroup(free, words), [x], max_cosets=20 * index)
        table.compress()
        assert len(table.table) == index


@pytest.mark.parametrize("r", (5, 7, 11, 13))
def test_graph_certificate_rejects_a_tampered_generator(r, monkeypatch):
    rho_s, rho_t = rho_genus1(r)
    for tampered in ((rho_s, rho_t @ rho_t), (rho_t, rho_s)):  # t -> t^2; s, t swapped
        monkeypatch.setattr(finite_image, "rho_genus1", lambda r: tampered)
        assert mod_r_graph_report(r) == {
            "pair_closure_order": None,
            "is_homomorphism": False,
            "kernel_size": None,
            "kernel_is_center": False,
        }


@pytest.mark.parametrize("r", (5, 7, 11, 13))
def test_linear_lift_rejects_a_tampered_scalar(r, monkeypatch):
    lift = finite_image._lift_scalars
    zeta_r = rho_genus1(r)[0].field.zeta_power(4)

    def tampered(*args):
        lam_s, lam_t = lift(*args)
        return lam_s, lam_t * zeta_r

    monkeypatch.setattr(finite_image, "_lift_scalars", tampered)
    assert not linear_lift_report(r)["is_linear_representation"]


def test_relator_check_evaluates_each_power():
    rho_s, rho_t = rho_genus1(7)
    check = lambda relators: finite_image._relators_hold(
        relators, rho_t, rho_s, CycMatrix.is_scalar
    )
    assert check(((("x", 7),), (("y", 2),), (("x", 3), ("y", 1), ("y", -1), ("x", -3))))
    assert not check(((("x", 5),), (("y", 2),)))
    assert not check(((("x", 7),), (("y", 2),), (("x", 1), ("y", -1))))


@pytest.mark.parametrize("how", ("t_squared", "s_t_swapped", "lambda_t_times_zeta_r"))
@pytest.mark.parametrize("r", (5, 7, 11, 13))
def test_identify_group_rejects_a_tampered_certificate(r, how, break_certificate):
    break_certificate(r, how)
    rep = identify_group(r)
    assert rep["matches"] == "neither"
    assert rep["order"] is None


def test_certified_order_is_exact():
    rho_s, rho_t = rho_genus1(7)
    s, t = finite_image._Letter(rho_s), finite_image._Letter(rho_t)
    assert finite_image._certified_order(s, 2) == 2
    assert finite_image._certified_order(t, 7) == 7
    # a multiple of the order, and a divisor of it, are both refused
    assert finite_image._certified_order(s, 4) is None
    assert finite_image._certified_order(t, 1) is None
    assert finite_image._certified_order(t, 14) is None


@pytest.mark.parametrize("r", (5, 13))
def test_diagonal_letters_match_dense_products(r):
    rho_s, rho_t = rho_genus1(r)
    t = finite_image._Letter(rho_t)
    assert t.exponents is not None
    assert finite_image._Letter(rho_s).exponents is None
    for e in (1, 2, (r + 1) // 2, r - 1, r):
        assert t.power(e) == rho_t.matpow(e)
        assert t.times(rho_s, e) == rho_s @ rho_t.matpow(e)
        assert t.power(-e) == rho_t.conj_transpose().matpow(e)
    with pytest.raises(ValueError):
        finite_image._Letter(rho_s).power(-1)
