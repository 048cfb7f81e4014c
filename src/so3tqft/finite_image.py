"""The projective image of the genus-1 representation: identified by
certificates, and enumerated as an independent check.

identify_group(r) pins the group down without enumerating it, from one
walk of the relators of the presentation of SL2(F_r) at (rho(t), rho(s))
and c = rho(s)^2.  Each is one of Sunday's relators of PSL2(F_r) times a
power of y^2, or y^4, or y^2 x y^2 x^(r-1) = c^2 rho(t)^r for scalar c, so
when c and every value are scalar, s -> rho(s), t -> rho(t) induces a
homomorphism out of PSL2(F_r); that group is simple for r >= 5 and rho(s)
is not scalar, so the projective image is PSL2(F_r), of order r(r^2-1)/2.
The scalar normalization m = lambda rho that makes the pair linear needs
no second walk: a relator walked with exponent sums (a, b) in (x, y) is
lambda_t^a lambda_s^b times its value at rho, so the lift holds when each
such product is 1, and m_s^2 = lambda_s^2 c tells r = 1 from 3 mod 4.  The
projective order d of each generator word is its order in PSL2(F_r), by
integer arithmetic mod r, certified exactly: the word's matrix to the d is
scalar, and to d/q is not for any prime q | d.  The walk is cycmatrix._walk
over _Letter: powers of the diagonal rho(t) are power-table lookups.

The enumeration searches the group generated by the linear lift (m_s, m_t)
and its inverses m^dagger, up to sign: identify_group certifies that
group to be SL2(F_r) or PSL2(F_r), whose only scalars are +-I, so its
classes up to sign are the projective classes.  Of m and -m it keeps the
one whose first nonzero coefficient is positive, so keying a class needs
no division.  The closure is a breadth-first search under left
multiplication by the generators, hashing that representative's
coefficient data, in a reproducible frontier and generator order.  It runs
by blocks: a block of frontier elements is multiplied by all distinct
generator matrices in one kernel call, and the products are normalized,
signed and keyed as one stack; new elements are then taken in the order
the one-at-a-time search would find them, so orders, words and cut-offs
are unchanged.  (The norm survey of mfld3 walks PSL2(F_r) mod r instead.)
The odd Weil generators are not searched again: the odd-block
identification of weil certifies them to be nonzero scalar multiples of
rho(s) and rho(t), so weil_closure runs that certificate and returns the
genus-1 closure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclo import CycNumber
from .cycmatrix import CycMatrix, _Letter, _normalize, _product, _stack_keys, _walk
from .levels import prime_divisors, sl2_mul
from .modular_data import genus1_letters, projective_relations, rho_genus1

__all__ = [
    "GroupClosure",
    "canonicalize",
    "closure",
    "linear_lift",
    "so3_generators",
    "so3_closure",
    "weil_closure",
    "psl2_relators",
    "sl2_relators",
    "mod_r_graph_report",
    "linear_lift_report",
    "identify_group",
]


# kept in src because perfbench's tracer patches it (and weil_closure) by name
def canonicalize(m: CycMatrix) -> CycMatrix:
    """m divided by its first nonzero entry in row-major order: one exact
    representative per projective class."""
    flat = m.arr.reshape(-1, m.field.degree)
    nonzero = flat.any(axis=1)
    if not nonzero.any():
        raise ValueError("cannot canonicalize the zero matrix")
    pivot = CycNumber(m.field, flat[nonzero.argmax()].tolist(), m.den)
    return m.scalar_mul(pivot.inv())


@dataclass
class GroupClosure:
    order: int
    elements: dict            # key -> the representative of {m, -m}
    generator_words: dict     # key -> shortest word over the names
    complete: bool            # False when max_order was hit


# frontier elements multiplied by one batched product; in process
# so3_closure(13) takes 0.124 s at 16, 0.128 s at 8 and 0.142 s at 64
_BLOCK = 16


def _up_to_sign(arr, den):
    """The stack arr / den normalized (see cycmatrix._normalize), each matrix
    negated when its first nonzero coefficient is negative: one fixed
    representative of {m, -m}."""
    arr, den = _normalize(arr, den)
    flat = arr.reshape(len(arr), -1)
    first = flat[np.arange(len(arr)), (flat != 0).argmax(axis=1)]
    sign = np.where(first < 0, -1, 1).reshape((-1,) + (1,) * (arr.ndim - 1))
    return arr * sign, den


def closure(gens, max_order: int = 10**7, names=None) -> GroupClosure:
    """BFS closure of the group generated by `gens` modulo +-I, under left
    multiplication: each element is kept as its representative up to sign.
    For the certified lift, whose only scalars are +-I, that is the
    projective image.  Exceeding max_order is reported through
    complete=False rather than raised: not terminating within the bound is
    a finding.  Only the new elements are copied out of each block's stack
    of products."""
    if not gens:
        raise ValueError("need at least one generator")
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if names is None:
        names = tuple(f"g{i}" for i in range(len(gens)))
    field, n, d = gens[0].field, gens[0].rows, gens[0].field.degree
    # one product per distinct generator up to sign (m_s^-1 = +-m_s)
    garr, gden = _up_to_sign(np.stack([g.arr for g in gens]), [g.den for g in gens])
    gkeys = _stack_keys(garr, gden)
    distinct = list(dict.fromkeys(gkeys))
    slots = [distinct.index(k) for k in gkeys]
    first = [gkeys.index(k) for k in distinct]
    u = len(distinct)
    garr, gden = garr[first], gden[first]

    ident = CycMatrix.identity(field, n)
    elements, words = {ident.key(): ident}, {ident.key(): ""}
    frontier = [(ident, "")]  # (element, word) in discovery order
    complete = True
    head = 0
    while complete and head < len(frontier):
        block = frontier[head : head + _BLOCK]
        b = len(block)
        operand = np.stack([m.arr for m, _ in block])[:, None]
        raw = _product(field, garr, operand).reshape(b * u, n, n, d)
        dens = np.array([m.den for m, _ in block], dtype=object)[:, None] * gden
        arr, dens = _up_to_sign(raw, dens.reshape(-1))
        keys = _stack_keys(arr, dens)
        new = []
        for i, j in itertools.product(range(b), range(len(gens))):
            s = i * u + slots[j]
            if keys[s] in words:
                continue
            if len(words) >= max_order:
                complete = False
                break
            words[keys[s]] = names[j] + block[i][1]
            new.append(s)
        for s, a in zip(new, arr[new]):
            elements[keys[s]] = m = CycMatrix._from_normalized(field, a, dens[s])
            frontier.append((m, words[keys[s]]))
        head += b
    return GroupClosure(
        order=len(elements),
        elements=elements,
        generator_words=words,
        complete=complete,
    )


def linear_lift(r: int, scalars=None):
    """(m_s, m_t) = (lambda_s rho(s), lambda_t rho(t)) for the given scalars
    or those _lift_scalars solves for; ArithmeticError when there are none."""
    rho_s, rho_t = rho_genus1(r)
    lift = scalars or _lift_scalars(genus1_letters(rho_s, rho_t)["st"], r)
    if lift is None:
        raise ArithmeticError("the genus-1 pair has no linear lift")
    return rho_s.scalar_mul(lift[0]), rho_t.scalar_mul(lift[1])


def so3_generators(r: int):
    """(names, matrices) for s, t and their inverses in linear_lift(r),
    which is unitary: each inverse is exactly m^dagger."""
    m_s, m_t = linear_lift(r)
    return ("s", "t", "S", "T"), (m_s, m_t, m_s.conj_transpose(), m_t.conj_transpose())


# closures kept per process: one holds up to |PSL2(F_13)| = 1092 matrices
_CLOSURE_CACHE = 8


@lru_cache(maxsize=_CLOSURE_CACHE)
def _genus1_closure(r: int, max_order: int) -> GroupClosure:
    names, gens = so3_generators(r)
    return closure(gens, max_order=max_order, names=names)


def so3_closure(r: int, max_order: int = 10**7) -> GroupClosure:
    """Closure of the genus-1 generators, kept in one cache entry per
    (r, max_order) however the bound is passed."""
    return _genus1_closure(r, max_order)


def weil_closure(r: int, max_order: int = 10**7) -> GroupClosure:
    """Closure of the odd Weil generators: the genus-1 closure, the same
    cache entry, once verify_odd_block_identification has proved
    R_s_odd = c_s S~ and R_t_odd = c_t rho(t), raising otherwise.  As
    rho(s) = S~ / D by construction, c_t is a root of unity and
    c_s = A^2 - A^-2 is checked nonzero, the odd Weil pair is a pair of
    nonzero scalar multiples of (rho(s), rho(t)): the same projective image."""
    from .weil import verify_odd_block_identification

    verify_odd_block_identification(r)
    return _genus1_closure(r, max_order)


# ---------------------------------------------------------------------------
# the homomorphism certificates: presentations of PSL2(F_r) and SL2(F_r)


def psl2_relators(r: int) -> tuple:
    """Relators of Sunday's presentation of PSL2(F_r), r >= 5 prime, in
    x = t and y = s: x^r, y^2, (xy)^3, (x^4 y x^h y)^2 with h = (r+1)/2.
    A word is a tuple of (letter, exponent) pairs, read left to right."""
    h = (r + 1) // 2
    return (
        (("x", r),),
        (("y", 2),),
        (("x", 1), ("y", 1)) * 3,
        (("x", 4), ("y", 1), ("x", h), ("y", 1)) * 2,
    )


def sl2_relators(r: int) -> tuple:
    """Relators of its central extension SL2(F_r), where y^2 = -I:
    x^r, y^4, y^2 x y^-2 x^-1, (xy)^3 y^-2, (x^4 y x^h y)^2 y^2."""
    x_r, _, braid, congruence = psl2_relators(r)
    return (
        x_r,
        (("y", 4),),
        (("y", 2), ("x", 1), ("y", -2), ("x", -1)),
        braid + (("y", -2),),
        congruence + (("y", 2),),
    )


def _scalar(m: CycMatrix):
    """m's scalar, or None when m is not scalar."""
    return m.scalar_value() if m.is_scalar() else None


def _relator_values(relators, letters: dict) -> list:
    """(v, a, b) for each relator w: w's scalar at the letters x and y or
    None, and the exponent sums of x and y as walked.  A negative exponent
    is taken modulo n for the letter's power relator x^n or y^n, walked
    too: when that is scalar, the power is the inverse up to a scalar."""
    order = {w[0][0]: w[0][1] for w in relators if len(w) == 1}
    values = []
    for word in relators:
        runs = [(a, e if e >= 0 else e % order[a]) for a, e in word]
        m = _walk(None, ((letters[a], e) for a, e in runs))
        values.append((_scalar(m), *(sum(e for a, e in runs if a == z) for z in "xy")))
    return values


def mod_r_graph_report(r: int) -> dict:
    """identify_group(r)'s graph certificate."""
    return identify_group(r)["mod_r_graph"]


def _lift_scalars(st: _Letter, r):
    """The unique (lambda_s, lambda_t) with lambda_s^4 = lambda_t^r = 1 and
    lambda_s lambda_t^3 mu = 1, mu the projective braid scalar of the letter
    st: (rho(s) rho(t))^3 = mu rho(s)^2 = mu I; None when the braid is not a
    root of unity times I, so that no such pair exists."""
    f = st.mat.field
    braid = st.power(3)
    k = f.root_of_unity_exponent(braid[0, 0]) if braid.is_scalar() else None
    if k is None:
        return None
    # split mu = zeta_4^a zeta_r^b: k = a*r + b*4 (mod 4r) since
    # zeta_{4r}^r = zeta_4 and zeta_{4r}^4 = zeta_r
    a = (k * pow(r, -1, 4)) % 4
    b = (k * pow(4, -1, r)) % r
    assert (a * r + b * 4) % (4 * r) == k
    # need lambda_s * lambda_t^3 * mu = 1 with lambda_s in mu_4, lambda_t in mu_r
    lam_s = f.zeta_power((-a % 4) * r)
    lam_t = f.zeta_power(4 * ((-b * pow(3, -1, r)) % r))
    return lam_s, lam_t


def linear_lift_report(r: int) -> dict:
    """identify_group(r)'s linear lift certificate."""
    return identify_group(r)["linear_lift"]


def _psl2_order(g, r: int) -> int:
    """Order of the class of g in PSL2(F_r): the least k with g^k = +-I."""
    x, k = g, 1
    while x not in ((1, 0, 0, 1), (r - 1, 0, 0, r - 1)):
        x, k = sl2_mul(x, g, r), k + 1
    return k


def _certified_order(letter: _Letter, d: int):
    """d when the projective class of letter.mat has order exactly d, that
    is, mat^d is scalar and mat^(d/q) is not for any prime q | d; else None."""
    if not letter.power(d).is_scalar():
        return None
    if any(letter.power(d // q).is_scalar() for q in prime_divisors(d)):
        return None
    return d


def identify_group(r: int) -> dict:
    """The projective image of the genus-1 pair, identified from one walk
    of sl2_relators(r) (module docstring): PSL2(F_r), of order r(r^2-1)/2,
    when the graph certificate holds with the center as kernel, the lift is
    certified and every generator order is certified; else order is None
    and matches is "neither".  The graph has order r^3 - r and its kernel
    contains -I = s^2; SL2(F_r), r >= 5, has normal subgroups 1, {+-I} and
    itself, so the kernel is the center unless rho(s), rho(t) are scalar.
    A failed relator leaves pair_closure_order and kernel_size None; no
    lift scalars leave every lift field but is_linear_representation None."""
    full = r * (r * r - 1)
    half = full // 2
    rho_s, rho_t = rho_genus1(r)
    letters = genus1_letters(rho_s, rho_t)
    walked = _relator_values(sl2_relators(r), {"x": letters["t"], "y": letters["s"]})
    c = _scalar(letters["s"].power(2))
    hom = c is not None and None not in [v for v, _, _ in walked]
    trivial = rho_s.is_scalar() and rho_t.is_scalar()
    graph = {
        "pair_closure_order": full if hom else None,
        "is_homomorphism": hom,
        "kernel_size": (full if trivial else 2) if hom else None,
        "kernel_is_center": hom and not trivial,
    }

    scalars = _lift_scalars(letters["st"], r)
    if scalars is None:
        lift = {
            "lambda_s": None,
            "lambda_t": None,
            "is_linear_representation": False,
            "minus_identity_acts_nontrivially": None,
            "linear_image": None,
        }
    else:
        lam_s, lam_t = scalars
        is_rep = all(v is not None and lam_t**a * lam_s**b * v == 1 for v, a, b in walked)
        faithful = c is None or lam_s * lam_s * c != 1
        lift = {
            "lambda_s": lam_s.to_json(),
            "lambda_t": lam_t.to_json(),
            "is_linear_representation": is_rep,
            "minus_identity_acts_nontrivially": faithful,
            "linear_image": "SL2" if faithful else "PSL2",
        }

    g_s, g_t = (0, r - 1, 1, 0), (1, 1, 0, 1)  # the generators s, t of SL2(F_r)
    words = (("s", g_s), ("t", g_t), ("st", sl2_mul(g_s, g_t, r)))
    orders = {name: _certified_order(letters[name], _psl2_order(g, r)) for name, g in words}
    # the same letters, so the walk's powers and the braid cube serve these too
    relations = projective_relations(r, letters)
    certified = (
        graph["kernel_is_center"]
        and lift["is_linear_representation"]
        and None not in orders.values()
    )
    return {
        "r": r,
        "order": half if certified else None,
        "sl2_order": full,
        "psl2_order": half,
        "matches": "PSL2" if certified else "neither",
        "generator_orders": orders,
        "relations": relations,
        "mod_r_graph": graph,
        "linear_lift": lift,
        "r_mod_4": r % 4,
    }
