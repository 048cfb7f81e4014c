"""Enumeration of the projective image of the genus-1 representation.

Matrices are canonicalized by dividing out the first nonzero entry in
row-major order, which gives a unique exact representative per projective
class; the closure is then a breadth-first search under left multiplication
by the generators, hashing canonical coefficient data.  The search is
deterministic: frontier order, generator order and shortest words are all
reproducible.

Besides the raw closure, identify_group pins the group down: it compares the
order against |SL2(F_r)| = r(r^2-1) and |PSL2(F_r)| = r(r^2-1)/2, computes
projective generator orders, checks the SL2(Z) relations, certifies that
s -> rho(s), t -> rho(t) defines a homomorphism out of SL2(F_r) by closing
the graph subgroup of SL2(F_r) x PGL, and solves for the unique scalar
normalization making the pair an honest linear representation (whose image
distinguishes r = 1 from r = 3 mod 4).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclo import CycNumber
from .cycmatrix import CycMatrix
from .modular_data import build_modular_data, rho_genus1
from .sl2_char import sl2_inv, sl2_mul
from .weil import build_weil, verify_odd_block_identification

__all__ = [
    "ProjMatrix",
    "GroupClosure",
    "canonicalize",
    "proj_inverse",
    "closure",
    "so3_generators",
    "weil_generators",
    "so3_closure",
    "weil_closure",
    "projective_order",
    "mod_r_graph_report",
    "linear_lift_report",
    "identify_group",
    "weil_image_equality",
]


class ProjMatrix:
    """A projective class, stored as the canonical representative whose first
    nonzero entry (row-major) is exactly 1."""

    __slots__ = ("mat",)

    def __init__(self, mat: CycMatrix):
        self.mat = mat

    def key(self):
        return self.mat.key()

    def __eq__(self, other):
        return isinstance(other, ProjMatrix) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"ProjMatrix({self.mat!r})"


@lru_cache(maxsize=1024)
def _scalar_inverse(c: CycNumber) -> CycNumber:
    # bounded: `image` at its cap r = 13 inverts 204 distinct pivots
    return c.inv()


def canonicalize(m: CycMatrix) -> ProjMatrix:
    """Divide by the first nonzero entry in row-major order."""
    nonzero = np.flatnonzero((m.arr != 0).any(axis=2))
    if not len(nonzero):
        raise ValueError("cannot canonicalize the zero matrix")
    pivot = m[divmod(int(nonzero[0]), m.cols)]
    if pivot == m.field.one:
        return ProjMatrix(m)
    return ProjMatrix(m.scalar_mul(_scalar_inverse(pivot)))


def proj_inverse(m: CycMatrix) -> CycMatrix:
    """Inverse up to scalar for a matrix that is unitary up to scalar:
    m * m^dagger must be scalar, and then m^-1 is proportional to m^dagger."""
    h = m.conj_transpose()
    if not (m @ h).is_scalar():
        raise ValueError("matrix is not unitary up to scalar")
    return h


@dataclass
class GroupClosure:
    order: int
    elements: dict            # canonical key -> ProjMatrix
    generator_words: dict     # canonical key -> shortest word over the names
    complete: bool            # False when max_order was hit
    generator_names: tuple

    def contains(self, m: CycMatrix) -> bool:
        return canonicalize(m).key() in self.elements


def closure(gens, max_order: int = 10**7, names=None) -> GroupClosure:
    """BFS closure of the projective classes of `gens` under left
    multiplication.  Exceeding max_order is reported through complete=False
    rather than raised: not terminating within the bound is a finding."""
    if not gens:
        raise ValueError("need at least one generator")
    if names is None:
        names = tuple(f"g{i}" for i in range(len(gens)))
    field = gens[0].field
    n = gens[0].rows
    gens_c = [canonicalize(g).mat for g in gens]

    ident = canonicalize(CycMatrix.identity(field, n))
    elements = {ident.key(): ident}
    words = {ident.key(): ""}
    queue = deque([ident])
    complete = True
    while queue:
        cur = queue.popleft()
        w = words[cur.key()]
        for name, g in zip(names, gens_c):
            nxt = canonicalize(g @ cur.mat)
            k = nxt.key()
            if k not in elements:
                if len(elements) >= max_order:
                    complete = False
                    queue.clear()
                    break
                elements[k] = nxt
                words[k] = name + w
                queue.append(nxt)
        if not complete:
            break
    return GroupClosure(
        order=len(elements),
        elements=elements,
        generator_words=words,
        complete=complete,
        generator_names=tuple(names),
    )


def so3_generators(r: int):
    """(names, matrices) for s, t and their inverses in the genus-1 pair."""
    rho_s, rho_t = rho_genus1(r)
    return ("s", "t", "S", "T"), (rho_s, rho_t, proj_inverse(rho_s), proj_inverse(rho_t))


def weil_generators(r: int):
    w = build_weil(r)
    return ("s", "t", "S", "T"), (
        w.r_s_odd,
        w.r_t_odd,
        proj_inverse(w.r_s_odd),
        proj_inverse(w.r_t_odd),
    )


@lru_cache(maxsize=None)
def so3_closure(r: int, max_order: int = 10**7) -> GroupClosure:
    names, gens = so3_generators(r)
    return closure(gens, max_order=max_order, names=names)


@lru_cache(maxsize=None)
def weil_closure(r: int, max_order: int = 10**7) -> GroupClosure:
    names, gens = weil_generators(r)
    return closure(gens, max_order=max_order, names=names)


def projective_order(m: CycMatrix, bound: int = 10**5) -> int:
    start = canonicalize(m)
    ident_key = canonicalize(CycMatrix.identity(m.field, m.rows)).key()
    cur = start
    for k in range(1, bound + 1):
        if cur.key() == ident_key:
            return k
        cur = canonicalize(cur.mat @ start.mat)
    raise ArithmeticError("projective order exceeds bound")


# ---------------------------------------------------------------------------
# mod-r matrices and the graph (fiber-product) certificates


_SL2_S = lambda r: (0, r - 1, 1, 0)
_SL2_T = lambda r: (1, 1, 0, 1)


def _graph_closure(pairs, ident_second, mul_second, key_second, r, bound):
    """Closure of [(g_i, M_i)] in SL2(F_r) x (matrix group).  Returns the
    element dict; the subgroup is the graph of a homomorphism iff its order
    equals r^3 - r."""
    elements = {}
    queue = deque()

    def push(g, m):
        k = (g, key_second(m))
        if k not in elements:
            elements[k] = (g, m)
            queue.append((g, m))
            return True
        return False

    push((1, 0, 0, 1), ident_second)
    while queue:
        g, m = queue.popleft()
        for gg, mm in pairs:
            if push(sl2_mul(gg, g, r), mul_second(mm, m)):
                if len(elements) > bound:
                    return elements, False
    return elements, True


def mod_r_graph_report(r: int) -> dict:
    """Certify that s -> rho(s), t -> rho(t) induces a homomorphism
    SL2(F_r) -> PGL by closing the generated subgroup of the direct product
    and checking it is a graph over SL2(F_r); also reports its kernel."""
    rho_s, rho_t = rho_genus1(r)
    ident = canonicalize(CycMatrix.identity(rho_s.field, rho_s.rows))
    s, t = _SL2_S(r), _SL2_T(r)
    pairs = [
        (s, canonicalize(rho_s).mat),
        (t, canonicalize(rho_t).mat),
        (sl2_inv(s, r), canonicalize(proj_inverse(rho_s)).mat),
        (sl2_inv(t, r), canonicalize(proj_inverse(rho_t)).mat),
    ]

    def mul_second(a, b):
        return canonicalize(a @ b).mat

    elements, complete = _graph_closure(
        pairs, ident.mat, mul_second, lambda m: m.key(), r, bound=2 * r * (r * r - 1)
    )
    group_order = r * (r * r - 1)
    is_graph = complete and len(elements) == group_order
    kernel = sorted(g for (g, mk) in elements if mk == ident.key())
    minus_ident = ((r - 1) % r, 0, 0, (r - 1) % r)
    return {
        "pair_closure_order": len(elements),
        "is_homomorphism": is_graph,
        "kernel_size": len(kernel),
        "kernel_is_center": set(kernel) == {(1, 0, 0, 1), minus_ident},
    }


def linear_lift_report(r: int) -> dict:
    """Solve for the unique scalars (lambda_s, lambda_t) making
    (lambda_s rho(s), lambda_t rho(t)) a linear representation of SL2(F_r),
    then certify it by the graph closure and read off the image of -I.

    The braid relation fixes lambda_s lambda_t^3 times the projective braid
    scalar to be 1; with lambda_s^4 = lambda_t^r = 1 the pair is unique."""
    md = build_modular_data(r)
    f = md.field
    rho_s, rho_t = rho_genus1(r)

    braid = (rho_s @ rho_t).matpow(3)
    s_sq = rho_s @ rho_s
    assert s_sq.is_identity()
    mu = braid.scalar_value()  # (rho_s rho_t)^3 = mu * rho(s)^2 = mu * I
    k = f.root_of_unity_exponent(mu)
    if k is None:
        raise ArithmeticError("braid scalar is not a root of unity")
    # split mu = zeta_4^a zeta_r^b: k = a*r + b*4 (mod 4r) since
    # zeta_{4r}^r = zeta_4 and zeta_{4r}^4 = zeta_r
    a = (k * pow(r, -1, 4)) % 4
    b = (k * pow(4, -1, r)) % r
    assert (a * r + b * 4) % (4 * r) == k
    # need lambda_s * lambda_t^3 * mu = 1 with lambda_s in mu_4, lambda_t in mu_r
    lam_s = f.zeta_power((-a % 4) * r)
    lam_t = f.zeta_power(4 * ((-b * pow(3, -1, r)) % r))
    m_s = rho_s.scalar_mul(lam_s)
    m_t = rho_t.scalar_mul(lam_t)
    assert (m_s @ m_t).matpow(3) == m_s @ m_s
    assert m_t.matpow(r).is_identity()
    assert m_s.matpow(4).is_identity()

    s, t = _SL2_S(r), _SL2_T(r)
    m_s_inv = m_s.scalar_mul(lam_s.conj() * lam_s.conj())  # m_s^-1 = lam_s^-2 m_s
    m_t_inv = CycMatrix.diagonal(
        f, [lam_t.conj() * md.theta_power(l, 1) for l in md.labels]
    )
    pairs = [
        (s, m_s),
        (t, m_t),
        (sl2_inv(s, r), m_s_inv),
        (sl2_inv(t, r), m_t_inv),
    ]
    elements, complete = _graph_closure(
        pairs,
        CycMatrix.identity(f, len(md.labels)),
        lambda x, y: x @ y,
        lambda m: m.key(),
        r,
        bound=2 * r * (r * r - 1),
    )
    group_order = r * (r * r - 1)
    is_rep = complete and len(elements) == group_order
    minus_ident = ((r - 1) % r, 0, 0, (r - 1) % r)
    image_of_minus = None
    for (g, mk), (_, m) in elements.items():
        if g == minus_ident:
            image_of_minus = m
            break
    faithful = image_of_minus is not None and not image_of_minus.is_identity()
    return {
        "lambda_s": lam_s.to_json(),
        "lambda_t": lam_t.to_json(),
        "is_linear_representation": is_rep,
        "minus_identity_acts_nontrivially": faithful,
        "linear_image": "SL2" if faithful else "PSL2",
    }


def identify_group(gc: GroupClosure, r: int) -> dict:
    """Order comparison, generator orders, relation checks, and the two
    homomorphism certificates for a closure of the genus-1 generators."""
    full = r * (r * r - 1)
    half = full // 2
    if gc.order == full:
        matches = "SL2"
    elif gc.order == half:
        matches = "PSL2"
    else:
        matches = "neither"

    rho_s, rho_t = rho_genus1(r)
    st = rho_s @ rho_t
    orders = {
        "s": projective_order(rho_s),
        "t": projective_order(rho_t),
        "st": projective_order(st),
    }
    relations = {
        "s4_scalar": (rho_s.matpow(4)).is_scalar(),
        "braid_scalar": (st.matpow(3)).is_scalar(),
        "t_r_scalar": (rho_t.matpow(r)).is_scalar(),
    }
    report = {
        "r": r,
        "order": gc.order,
        "complete": gc.complete,
        "sl2_order": full,
        "psl2_order": half,
        "matches": matches,
        "order_divides_sl2": gc.order > 0 and full % gc.order == 0,
        "generator_orders": orders,
        "relations": relations,
        "mod_r_graph": mod_r_graph_report(r),
        "linear_lift": linear_lift_report(r),
        "r_mod_4": r % 4,
    }
    return report


def weil_image_equality(r: int) -> bool:
    """The closures generated by the odd Weil pair and by the genus-1 pair
    coincide as sets of canonical matrices (no basis change needed: the two
    generating pairs are scalar multiples of each other entrywise)."""
    verify_odd_block_identification(r)  # the scalar identification; raises on mismatch
    a = so3_closure(r)
    b = weil_closure(r)
    return a.order == b.order and set(a.elements.keys()) == set(b.elements.keys())
