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
The words are evaluated letter by letter through cycmatrix._Letter, which
keeps a diagonal letter (rho(t) and its lift) as the exponents of its roots
of unity, so its powers are read off the field's power table and a product
by it scales columns, and only the dense letter rho(s) costs full matrix
products.

The enumeration canonicalizes matrices by dividing out the first nonzero
entry in row-major order, which gives a unique exact representative per
projective class; the closure is then a breadth-first search under left
multiplication by the generators, hashing canonical coefficient data.  The
search is deterministic: frontier order, generator order and shortest words
are all reproducible.  It runs by blocks: a block of frontier elements is
multiplied by all distinct generator matrices in one kernel call, and the
products are canonicalized, gcd-normalized and keyed as one stack, with one
inversion per distinct pivot; new elements are then taken in the order the
one-at-a-time search would find them, so orders, words and cut-offs are
unchanged.  The odd Weil generators are not searched again: once the
odd-block identification holds, their canonical forms equal those of the
genus-1 generators, and weil_closure checks that and returns the genus-1
closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclo import CycNumber
from .cycmatrix import CycMatrix, _Letter, _mul_matrix, _mul_product, _normalize, _stack_keys
from .levels import sl2_mul
from .modular_data import genus1_letters, projective_relations, rho_genus1
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
    "psl2_relators",
    "sl2_relators",
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
    # bounded: the enumeration at its cap r = 13 inverts 205 distinct pivots
    return c.inv()


def _canonical_stack(field, raw):
    """Numerators and denominators (as cycmatrix._normalize returns them) of
    the canonical representatives of the nonzero matrices in the stack raw,
    whose denominators do not matter: dividing by the pivot cancels them.

    The pivot is factored as content times primitive part, and each
    distinct primitive part is inverted once."""
    p, d = len(raw), field.degree
    flat = raw.reshape(p, -1, d)
    nonzero = flat.any(axis=2)
    if not nonzero.any(axis=1).all():
        raise ValueError("cannot canonicalize the zero matrix")
    pivots = flat[np.arange(p), nonzero.argmax(axis=1)]
    content = np.gcd.reduce(pivots, axis=1)
    distinct = {}
    which = [
        distinct.setdefault(tuple(v), len(distinct))
        for v in (pivots // content[:, None]).tolist()
    ]
    invs = [_scalar_inverse(CycNumber(field, v, 1)) for v in distinct]
    nums = np.array([u.num for u in invs], dtype=object)
    # raw / pivot = raw * u / content, u the inverse of the primitive part
    umul = _mul_matrix(field, nums[:, None, None, :])
    out = _mul_product(flat[:, :, None, :], umul[which])
    dens = np.array([u.den for u in invs], dtype=object)[which]
    return _normalize(out.reshape(raw.shape), dens * content.astype(object))


def canonicalize(m: CycMatrix) -> ProjMatrix:
    """Divide by the first nonzero entry in row-major order."""
    arr, den = _canonical_stack(m.field, m.arr[None])
    return ProjMatrix(CycMatrix._from_array(m.field, arr[0], den[0]))


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


# frontier elements multiplied by one batched product; larger blocks save no
# time and raise peak memory (`image --r 11`: 49.3 MB at 16, 54.6 MB at 64)
_BLOCK = 16


def _bfs(gens, start):
    """Breadth-first closure of the canonical matrix start under left
    multiplication by the canonical matrices gens, products taken to their
    canonical representatives.

    Yields (matrix, matrix key, parent index, generator index) for each new
    element in the order of the one-at-a-time search: frontier order, then
    generator order.  The frontier is taken _BLOCK elements at a time, and
    all their products with the distinct generator matrices are one kernel
    call, canonicalized and keyed as one stack; only the new elements are
    copied out of it.  The distinct generators are fixed for the whole
    search, so their products are one matmul per block against their
    stacked multiplication matrix (cycmatrix._mul_matrix), built once."""
    field = start.field
    n = start.rows
    d = field.degree
    # one product per distinct generator matrix (canonically rho(s)^-1 = rho(s))
    slot, distinct = {}, []
    for g in gens:
        if g.key() not in slot:
            slot[g.key()] = len(distinct)
            distinct.append(g)
    slots = [slot[g.key()] for g in gens]
    u = len(distinct)
    # entries commute, so g @ m = (m^T g^T)^T: a block is its stacked m^T
    # times the multiplication matrix gmul (n d, u n d) of [g_1^T ... g_u^T]
    stacked = np.concatenate([g.arr for g in distinct])  # (u n, n, d)
    gmul = _mul_matrix(field, stacked.transpose(1, 0, 2))

    frontier = [start]
    seen = {start.key()}
    head = 0
    while head < len(frontier):
        block = frontier[head : head + _BLOCK]
        b = len(block)
        operand = np.concatenate([m.arr.transpose(1, 0, 2) for m in block])
        raw = _mul_product(operand, gmul).reshape(b, n, u, n, d)  # (b, l, g, i)
        raw = raw.transpose(0, 2, 3, 1, 4).reshape(b * u, n, n, d)
        arr, dens = _canonical_stack(field, raw)
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
    """BFS closure of the projective classes of `gens` under left
    multiplication.  Exceeding max_order is reported through complete=False
    rather than raised: not terminating within the bound is a finding."""
    if not gens:
        raise ValueError("need at least one generator")
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if names is None:
        names = tuple(f"g{i}" for i in range(len(gens)))
    field = gens[0].field
    n = gens[0].rows
    gens_c = [canonicalize(g).mat for g in gens]

    ident = canonicalize(CycMatrix.identity(field, n))
    elements = {ident.key(): ident}
    words = {ident.key(): ""}
    order = [""]  # words in discovery order
    complete = True
    for mat, key, parent, j in _bfs(gens_c, ident.mat):
        if len(elements) >= max_order:
            complete = False
            break
        elements[key] = ProjMatrix(mat)
        words[key] = names[j] + order[parent]
        order.append(words[key])
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


def weil_image_equality(r: int) -> bool:
    """The odd Weil pair and the genus-1 pair generate the same projective
    image.  After the exact odd-block identification (the two pairs are
    scalar multiples of each other), the canonical Weil generators must
    equal the canonical genus-1 generators in order, so the two closures
    are one and the same search."""
    verify_odd_block_identification(r)  # the scalar identification; raises on mismatch
    keys = lambda gens: [canonicalize(g).key() for g in gens]
    return keys(weil_generators(r)[1]) == keys(so3_generators(r)[1])


def weil_closure(r: int, max_order: int = 10**7) -> GroupClosure:
    """Closure of the odd Weil generators, certified by weil_image_equality
    to be the closure of the genus-1 generators: the same cache entry."""
    if not weil_image_equality(r):
        raise ArithmeticError("canonical Weil generators differ from the genus-1 ones")
    return _genus1_closure(r, max_order)


def projective_order(m: CycMatrix, bound: int = 10**5) -> int:
    """Order of the projective class of m: the least k with m^k scalar."""
    p = m
    for k in range(1, bound + 1):
        if p.is_scalar():
            return k
        p = p @ m
    raise ArithmeticError("projective order exceeds bound")


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
    for word in relators:
        m = None
        for letter, e in word:
            m = letters[letter].times(m, e if e >= 0 else e % order[letter])
        if not holds(m):
            return False
    return True


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


def _prime_divisors(n: int):
    """The distinct primes dividing n, by trial division."""
    q = 2
    while q * q <= n:
        if n % q == 0:
            yield q
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        yield n


def _certified_order(letter: _Letter, d: int):
    """d when the projective class of letter.mat has order exactly d, that
    is, mat^d is scalar and mat^(d/q) is not for any prime q | d; else None."""
    if not letter.power(d).is_scalar():
        return None
    if any(letter.power(d // q).is_scalar() for q in _prime_divisors(d)):
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
