"""The projective image of the genus-1 representation: identified by
certificates, and enumerated as an independent check.

identify_group(r) pins the group down without enumerating it.  The relators
of Sunday's presentation of PSL2(F_r) are scalar at (rho(t), rho(s)), so
s -> rho(s), t -> rho(t) induces a homomorphism out of PSL2(F_r); that group
is simple for r >= 5 and rho(s) is not scalar, so the projective image is
PSL2(F_r), of order r(r^2-1)/2.  The unique scalar normalization making the
pair an honest linear representation is certified by the relators of the
presentation of SL2(F_r), and its image distinguishes r = 1 from r = 3
mod 4.  The projective order d of each generator word is its order in
PSL2(F_r), found by integer arithmetic mod r, and certified exactly: the
word's matrix to the d is scalar, and to d/q is not for any prime q | d.
The relators are walked by cycmatrix._walk through cycmatrix._Letter, which
keeps a diagonal letter (rho(t) and its lift) as the exponents of its roots
of unity, so its powers, negative ones included, are read off the field's
power table; every product by a letter is one exact matrix product.

The enumeration searches the group generated by the linear lift (m_s, m_t)
and its inverses m^dagger, up to sign: linear_lift_report certifies that
group to be SL2(F_r) or PSL2(F_r), whose only scalars are +-I, so its
classes up to sign are the projective classes.  Of m and -m it keeps the
one whose first nonzero coefficient is positive, so keying a class needs
no division.  The closure is a breadth-first search
under left multiplication by the generators, hashing that representative's
coefficient data.  The search is deterministic: frontier order, generator
order and shortest words are all reproducible.  It runs by blocks: a block
of frontier elements is multiplied by all distinct generator matrices in
one kernel call, and the products are normalized, signed and keyed as one
stack; new elements are then taken in the order the one-at-a-time search
would find them, so orders, words and cut-offs are unchanged.  The norm
survey of mfld3 walks the same search.  The odd Weil generators are not
searched again: the odd-block identification of weil certifies them to be
nonzero scalar multiples of rho(s) and rho(t), so weil_closure runs that
certificate and returns the genus-1 closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclo import CycNumber
from .cycmatrix import CycMatrix, _Letter, _normalize, _product, _stack_keys, _walk
from .levels import prime_divisors, sl2_mul
from .modular_data import genus1_letters, projective_relations, rho_genus1
from .weil import verify_odd_block_identification

__all__ = [
    "GroupClosure",
    "canonicalize",
    "closure",
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


def _bfs(gens):
    """Breadth-first closure of the identity under left multiplication by
    gens, each product taken to its representative up to sign.

    Yields (matrix, matrix key, parent index, generator index) for each new
    element in the order of the one-at-a-time search: frontier order, then
    generator order; the identity, index 0, is not yielded.  The frontier is
    taken _BLOCK elements at a time, and all their products with the
    distinct generator matrices (up to sign) are one cycmatrix._product of
    the stacked generators by the stacked block, normalized and keyed as one
    stack; only the new elements are copied out of it."""
    field = gens[0].field
    n = gens[0].rows
    d = field.degree
    # one product per distinct generator up to sign (m_s^-1 = +-m_s)
    garr, gden = _up_to_sign(np.stack([g.arr for g in gens]), [g.den for g in gens])
    gkeys = _stack_keys(garr, gden)
    distinct = list(dict.fromkeys(gkeys))
    slots = [distinct.index(k) for k in gkeys]
    first = [gkeys.index(k) for k in distinct]
    u = len(distinct)
    garr, gden = garr[first], gden[first]

    start = CycMatrix.identity(field, n)
    frontier = [start]
    seen = {start.key()}
    head = 0
    while head < len(frontier):
        block = frontier[head : head + _BLOCK]
        b = len(block)
        operand = np.stack([m.arr for m in block])[:, None]
        raw = _product(field, garr, operand).reshape(b * u, n, n, d)
        dens = np.array([m.den for m in block], dtype=object)[:, None] * gden
        arr, dens = _up_to_sign(raw, dens.reshape(-1))
        keys = _stack_keys(arr, dens)
        new = []
        for i in range(b):
            for j in range(len(gens)):
                s = i * u + slots[j]
                if keys[s] not in seen:
                    seen.add(keys[s])
                    new.append((s, head + i, j))
        compact = arr[[s for s, _, _ in new]]
        for (s, parent, j), a in zip(new, compact):
            m = CycMatrix._from_normalized(field, a, dens[s])
            frontier.append(m)
            yield m, keys[s], parent, j
        head += b


def closure(gens, max_order: int = 10**7, names=None) -> GroupClosure:
    """BFS closure of the group generated by `gens` modulo +-I, under left
    multiplication: each element is kept as its representative up to sign.
    For the certified lift, whose only scalars are +-I, that is the
    projective image.  Exceeding max_order is reported through
    complete=False rather than raised: not terminating within the bound is
    a finding."""
    if not gens:
        raise ValueError("need at least one generator")
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if names is None:
        names = tuple(f"g{i}" for i in range(len(gens)))
    ident = CycMatrix.identity(gens[0].field, gens[0].rows)
    elements = {ident.key(): ident}
    words = {ident.key(): ""}
    order = [""]  # words in discovery order
    complete = True
    for mat, key, parent, j in _bfs(gens):
        if len(elements) >= max_order:
            complete = False
            break
        elements[key] = mat
        words[key] = names[j] + order[parent]
        order.append(words[key])
    return GroupClosure(
        order=len(elements),
        elements=elements,
        generator_words=words,
        complete=complete,
    )


def so3_generators(r: int):
    """(names, matrices) for s, t and their inverses in the linear lift
    (m_s, m_t) = (lambda_s rho(s), lambda_t rho(t)) of linear_lift_report.
    The lift is unitary, so each inverse is exactly m^dagger.  Raises
    ArithmeticError when there is no lift."""
    rho_s, rho_t = rho_genus1(r)
    lift = _lift_scalars(rho_s, rho_t, r)
    if lift is None:
        raise ArithmeticError("the genus-1 pair has no linear lift")
    m_s, m_t = rho_s.scalar_mul(lift[0]), rho_t.scalar_mul(lift[1])
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


def _relators_hold(relators, x, y, holds) -> bool:
    """Whether holds(w(x, y)) for every relator w.  A negative exponent is
    taken modulo n for the letter's power relator x^n or y^n, which is
    checked too: when every relator holds, those powers are the inverses
    (up to a scalar, when holds asks only for a scalar)."""
    letters = {"x": _Letter(x), "y": _Letter(y)}
    order = {w[0][0]: w[0][1] for w in relators if len(w) == 1}
    return all(
        holds(_walk(None, ((letters[a], e if e >= 0 else e % order[a]) for a, e in word)))
        for word in relators
    )


def mod_r_graph_report(r: int) -> dict:
    """Certify that s -> rho(s), t -> rho(t) induces a homomorphism
    SL2(F_r) -> PGL, and report its kernel.  It does exactly when every
    relator of psl2_relators(r) is scalar at (rho(t), rho(s)); the pairs
    (g, rho(g)) then generate its graph, of order r^3 - r.  The kernel
    contains -I = s^2, and for r >= 5 the normal subgroups of SL2(F_r) are
    1, {+-I} and SL2(F_r), so it is the center unless rho(s) and rho(t) are
    both scalar.  When a relator fails, pair_closure_order and kernel_size
    are None and kernel_is_center is False."""
    rho_s, rho_t = rho_genus1(r)
    hom = _relators_hold(psl2_relators(r), rho_t, rho_s, CycMatrix.is_scalar)
    group_order = r * (r * r - 1)
    trivial = rho_s.is_scalar() and rho_t.is_scalar()
    return {
        "pair_closure_order": group_order if hom else None,
        "is_homomorphism": hom,
        "kernel_size": (group_order if trivial else 2) if hom else None,
        "kernel_is_center": hom and not trivial,
    }


def _lift_scalars(rho_s, rho_t, r):
    """The unique (lambda_s, lambda_t) with lambda_s^4 = lambda_t^r = 1 and
    lambda_s lambda_t^3 mu = 1, mu the projective braid scalar
    (rho(s) rho(t))^3 = mu rho(s)^2 = mu I; None when the braid is not a
    root of unity times I, so that no such pair exists."""
    f = rho_s.field
    braid = genus1_letters(rho_s, rho_t)["st"].power(3)
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
    """Solve for the unique scalars (lambda_s, lambda_t) making
    (m_s, m_t) = (lambda_s rho(s), lambda_t rho(t)) a linear representation
    of SL2(F_r), certify it by the relators of sl2_relators(r) at (m_t, m_s),
    and read off m_s^2, the image of -I = s^2.

    The braid relation fixes lambda_s lambda_t^3 times the projective braid
    scalar to be 1; with lambda_s^4 = lambda_t^r = 1 the pair is unique.
    When there is no such pair, every field but is_linear_representation
    (False) is None."""
    rho_s, rho_t = rho_genus1(r)
    lift = _lift_scalars(rho_s, rho_t, r)
    if lift is None:
        return {
            "lambda_s": None,
            "lambda_t": None,
            "is_linear_representation": False,
            "minus_identity_acts_nontrivially": None,
            "linear_image": None,
        }
    lam_s, lam_t = lift
    m_s = rho_s.scalar_mul(lam_s)
    m_t = rho_t.scalar_mul(lam_t)
    is_rep = _relators_hold(sl2_relators(r), m_t, m_s, CycMatrix.is_identity)
    faithful = not (m_s @ m_s).is_identity()
    return {
        "lambda_s": lam_s.to_json(),
        "lambda_t": lam_t.to_json(),
        "is_linear_representation": is_rep,
        "minus_identity_acts_nontrivially": faithful,
        "linear_image": "SL2" if faithful else "PSL2",
    }


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
    """The projective image of the genus-1 pair, identified from the
    certificates: PSL2(F_r), of order r(r^2-1)/2, when the graph
    certificate holds with the center as kernel, the linear lift is
    certified and every generator order is certified.  Otherwise order is
    None and matches is "neither"."""
    full = r * (r * r - 1)
    half = full // 2
    graph = mod_r_graph_report(r)
    lift = linear_lift_report(r)

    letters = genus1_letters(*rho_genus1(r))
    g_s, g_t = (0, r - 1, 1, 0), (1, 1, 0, 1)  # the generators s, t of SL2(F_r)
    words = (("s", g_s), ("t", g_t), ("st", sl2_mul(g_s, g_t, r)))
    orders = {name: _certified_order(letters[name], _psl2_order(g, r)) for name, g in words}
    # the same letters, so the powers of the orders serve the relations too
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
