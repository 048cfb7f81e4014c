import random
from collections import deque

import pytest

import so3tqft.cycmatrix as cycmatrix
import so3tqft.finite_image as finite_image
from so3tqft.cycmatrix import CycMatrix
from so3tqft.finite_image import (
    canonicalize,
    closure,
    identify_group,
    mod_r_graph_report,
    linear_lift_report,
    proj_inverse,
    projective_order,
    so3_closure,
    so3_generators,
    weil_closure,
    weil_generators,
    weil_image_equality,
)
from so3tqft.modular_data import build_modular_data, rho_genus1
from so3tqft.sl2_char import sl2_mul


# The one-element-at-a-time searches that the batched search replaced, kept
# here as oracles for its element order, words and cut-offs.


def reference_closure(gens, max_order=10**7, names=None):
    names = names or tuple(f"g{i}" for i in range(len(gens)))
    gens_c = [canonicalize(g).mat for g in gens]
    ident = canonicalize(CycMatrix.identity(gens[0].field, gens[0].rows))
    elements = {ident.key(): ident}
    words = {ident.key(): ""}
    queue = deque([ident])
    while queue:
        cur = queue.popleft()
        for name, g in zip(names, gens_c):
            nxt = canonicalize(g @ cur.mat)
            if nxt.key() not in elements:
                if len(elements) >= max_order:
                    return elements, words, False
                elements[nxt.key()] = nxt
                words[nxt.key()] = name + words[cur.key()]
                queue.append(nxt)
    return elements, words, True


def reference_graph_closure(pairs, ident_second, canonical, r, bound):
    mul = (lambda a, b: canonicalize(a @ b).mat) if canonical else (lambda a, b: a @ b)
    elements = {}
    queue = deque()

    def push(g, m):
        k = (g, m.key())
        if k not in elements:
            elements[k] = (g, m)
            queue.append((g, m))
            return True
        return False

    push((1, 0, 0, 1), ident_second)
    while queue:
        g, m = queue.popleft()
        for gg, mm in pairs:
            if push(sl2_mul(gg, g, r), mul(mm, m)) and len(elements) > bound:
                return elements, False
    return elements, True


@pytest.mark.parametrize("r", (5, 7))
@pytest.mark.parametrize("which", ("so3", "weil"))
def test_batched_closure_matches_one_at_a_time_search(r, which):
    names, gens = (so3_generators if which == "so3" else weil_generators)(r)
    gc = (so3_closure if which == "so3" else weil_closure)(r)
    elements, words, complete = reference_closure(gens, names=names)
    assert gc.complete and complete
    assert list(gc.elements) == list(elements)
    assert list(gc.generator_words.items()) == list(words.items())
    assert all(gc.elements[k] == elements[k] for k in elements)


@pytest.mark.parametrize("r", (5, 7))
def test_batched_graph_closures_match_one_at_a_time_search(r, monkeypatch):
    calls = []
    batched = finite_image._graph_closure

    def spy(*args, **kwargs):
        out = batched(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(finite_image, "_graph_closure", spy)
    mod_r_graph_report(r)
    linear_lift_report(r)
    assert [args[2] for args, _, _ in calls] == [True, False]  # projective, linear
    for args, kwargs, (elements, complete) in calls:
        want, want_complete = reference_graph_closure(*args, **kwargs)
        assert complete == want_complete
        assert list(elements) == list(want)
        assert all(elements[k][1] == want[k][1] for k in want)


def test_graph_closure_stops_after_the_push_past_the_bound():
    r = 5
    rho_s, rho_t = rho_genus1(r)
    pairs = [((0, r - 1, 1, 0), canonicalize(rho_s).mat), ((1, 1, 0, 1), canonicalize(rho_t).mat)]
    ident = CycMatrix.identity(rho_s.field, rho_s.rows)
    for bound in (1, 2, 7, 50, 119, 120):
        elements, complete = finite_image._graph_closure(pairs, ident, True, r, bound)
        want, want_complete = reference_graph_closure(pairs, ident, True, r, bound)
        assert (complete, list(elements)) == (want_complete, list(want))
        assert len(elements) == (120 if complete else bound + 1)


def test_max_order_cut_off_matches_one_at_a_time_search():
    names, gens = so3_generators(5)
    for m in range(1, 61):
        gc = closure(gens, max_order=m, names=names)
        elements, words, complete = reference_closure(gens, max_order=m, names=names)
        assert gc.complete == complete == (m == 60)
        assert list(gc.elements) == list(elements)
        assert gc.generator_words == words


def test_closure_through_python_int_work_arrays(monkeypatch):
    # every product on object arrays: keys and order must not depend on it
    names, gens = so3_generators(5)
    want = closure(gens, names=names)
    monkeypatch.setattr(cycmatrix, "_product_dtype", lambda *args: object)
    got = closure(gens, names=names)
    assert list(got.elements) == list(want.elements)
    assert got.generator_words == want.generator_words


def test_closure_caches_are_bounded():
    for cached in (so3_closure, weil_closure):
        assert cached.cache_info().maxsize == finite_image._CLOSURE_CACHE <= 16
    for m in range(1, 2 * finite_image._CLOSURE_CACHE + 1):
        so3_closure(5, max_order=m)
    assert so3_closure.cache_info().currsize <= finite_image._CLOSURE_CACHE


def test_canonicalize_scalar_collapse():
    md = build_modular_data(5)
    f = md.field
    ident = CycMatrix.identity(f, 2)
    three_i = ident.scalar_mul(f.from_int(3))
    assert canonicalize(three_i).mat == ident
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
        c2 = canonicalize(c1.mat)
        assert c1 == c2
        first = next(e for e in c1.mat.entries if not e.is_zero())
        assert first == c1.mat.field.one


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
    md = build_modular_data(5)
    f = md.field
    rho_s, rho_t = rho_genus1(5)
    base = closure([rho_s, rho_t])
    twisted = closure(
        [rho_s.scalar_mul(f.zeta_power(7)), rho_t.scalar_mul(f.from_int(2))]
    )
    assert twisted.order == base.order
    assert set(twisted.elements.keys()) == set(base.elements.keys())


def test_projective_generator_orders():
    for r in (5, 7, 11):
        rho_s, rho_t = rho_genus1(r)
        assert projective_order(rho_s) == 2
        assert projective_order(rho_t) == r
        assert projective_order(rho_s @ rho_t) == 3


def test_proj_inverse():
    rho_s, rho_t = rho_genus1(7)
    for m in (rho_s, rho_t, rho_s @ rho_t):
        prod = m @ proj_inverse(m)
        assert prod.is_scalar()


def test_identify_group_small():
    for r in (5, 7):
        gc = so3_closure(r)
        rep = identify_group(gc, r)
        assert rep["matches"] == "PSL2"
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
    assert weil_image_equality(5)
    assert weil_image_equality(7)


def test_weil_certificate_rejects_a_tampered_generator(monkeypatch):
    names, gens = weil_generators(5)
    for tampered in (
        (gens[0], gens[1] @ gens[1], gens[2], gens[3]),  # t replaced by t^2
        (gens[1], gens[0], gens[2], gens[3]),  # s and t swapped
    ):
        monkeypatch.setattr(finite_image, "weil_generators", lambda r: (names, tampered))
        assert not weil_image_equality(5)
        with pytest.raises(ArithmeticError):
            weil_closure.__wrapped__(5)


def test_weil_closure_order_r11():
    assert weil_closure(11).order == so3_closure(11).order == 660
