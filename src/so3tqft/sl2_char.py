"""Exact character tables of SL2(F_r) and of its Borel subgroup by the
Burnside-Dixon method, plus the tensor-product and induction checks built
on top of them.

The pipeline is classical: enumerate the group, partition it into conjugacy
classes by orbit search, form the class-multiplication matrices M_i, find
their common eigenvectors over a prime field F_p with p = 1 (mod exponent)
and p > 2 sqrt(|G|), normalize to central characters, recover degrees
through orthogonality mod p, and lift each character value exactly by
reading off root-of-unity multiplicities with a discrete Fourier transform
mod p.  The eigenvectors come from one matrix M(x) = sum_i x^i M_i with k
distinct eigenvalues: its eigenspaces are lines that every M_i preserves,
each the column space of a projection prod_{mu != lambda} (M(x) - mu I).
Every stage works on integer arrays.  The lift keeps the multiplicities,
FiniteGroupTable.mus, which every certificate checks; the power basis of
Q(zeta_exponent) is built only for output, as mus times the rows
zeta_e^(s e/m) (CycField.rows): FiniteGroupTable.values, a CycMatrix
holding chi_a(g_i) at (a, i).  CycNumber entries are built only where a
caller asks for them.

Tensor-product multiplicities M[a, b, c] = <chi_a chi_b, chi_c> are read off
for all (a, b, c) at once mod p and then certified: for every class i the
identity chi_a(i) chi_b(i) = sum_c M[a, b, c] chi_c(i) is checked exactly.
Row orthogonality makes the chi_c linearly independent, so the identity
pins M as integers.

None of these checks forms a product or transforms a table: both
orthogonality relations, the tensor identity and the Frobenius sums of
borel_check are evaluated at the roots of Phi_exponent modulo split primes,
straight from the multiplicities (see "certificates at the roots" below).
borel_check requires each Frobenius sum to take one value at every root,
reads that rational integer by symmetric CRT, and checks integrality,
non-negativity and the induced degrees on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

import numpy as np

from .cyclo import _int_matmul, _mod, get_field
from .cycmatrix import CycMatrix, _lift
from .levels import SUPPORTED_RANGE, is_odd_prime, is_prime, prime_divisors, sl2_mul

__all__ = [
    "FiniteGroup",
    "FiniteGroupTable",
    "sl2_group",
    "borel_group",
    "dixon_char_table",
    "sl2_table",
    "borel_table",
    "tensor_decompose",
    "chi_beta_report",
    "borel_check",
    "regular_congruence_check",
    "screen_induction_triples",
    "SUPPORTED_RANGE",
]


def sl2_inv(x, r):
    """Inverse of a determinant-1 matrix over F_r stored as (a, b, c, d)."""
    a, b, c, d = x
    return (d % r, (-b) % r, (-c) % r, a % r)


class FiniteGroup:
    """A finite matrix group over F_r, given by its element list and a
    generating set; conjugacy classes come from orbit search under
    conjugation by the generators."""

    def __init__(self, r, name, elements, generators):
        self.r = r
        self.name = name
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        self.generators = generators
        self.identity = (1, 0, 0, 1)

        n = len(elements)
        class_of = [-1] * n
        classes = []
        ginv = [sl2_inv(g, r) for g in generators]
        for i0 in range(n):
            if class_of[i0] != -1:
                continue
            ci = len(classes)
            orbit = [i0]
            class_of[i0] = ci
            stack = [elements[i0]]
            while stack:
                x = stack.pop()
                for g, gi in zip(generators, ginv):
                    y = sl2_mul(sl2_mul(g, x, r), gi, r)
                    j = self.index[y]
                    if class_of[j] == -1:
                        class_of[j] = ci
                        orbit.append(j)
                        stack.append(elements[j])
            classes.append(orbit)
        self.class_of = class_of
        self.classes = classes
        self.class_reps = [elements[c[0]] for c in classes]
        self.class_sizes = [len(c) for c in classes]

        self.inverse_class = [
            self.class_of[self.index[sl2_inv(g, r)]] for g in self.class_reps
        ]
        # power_map[i][t] = class of class_reps[i]^t, t in [0, order): the
        # walk g^t up to the identity, whose length is the order of g
        self.power_map = []
        for g in self.class_reps:
            row = [self.class_of[self.index[self.identity]]]
            y = g
            while y != self.identity:
                row.append(self.class_of[self.index[y]])
                y = sl2_mul(y, g, r)
            self.power_map.append(row)
        self.class_orders = [len(row) for row in self.power_map]
        self.exponent = lcm(*self.class_orders)

    def order(self):
        return len(self.elements)

    def num_classes(self):
        return len(self.classes)

    def class_mult_tensor(self):
        """The (k, k, k) int64 array a with K_i K_j = sum_l a[i, j, l] K_l:
        a[i, j, l] counts the x in C_i with x^-1 z_l in C_j, for one
        representative z_l per class.  For each z_l the n products x^-1 z_l
        are formed at once on the entries mod r, and their classes found by
        binary search among the sorted codes of the n elements."""
        r, k = self.r, self.num_classes()

        def code(a, b, c, d):
            return ((a * r + b) * r + c) * r + d

        a, b, c, d = np.array(self.elements, dtype=np.int64).T
        codes = code(a, b, c, d)
        order = np.argsort(codes)
        codes, class_by_code = codes[order], np.array(self.class_of)[order]
        row = np.array(self.class_of) * k
        out = np.empty((k, k, k), dtype=np.int64)
        # x^-1 = [[d, -b], [-c, a]] times z_l = [[z0, z1], [z2, z3]]
        for l, (z0, z1, z2, z3) in enumerate(self.class_reps):
            j = class_by_code[np.searchsorted(codes, code(
                (d * z0 - b * z2) % r, (d * z1 - b * z3) % r,
                (a * z2 - c * z0) % r, (a * z3 - c * z1) % r))]
            out[:, :, l] = np.bincount(row + j, minlength=k * k).reshape(k, k)
        return out


def _check_desk_scale(r):
    lo, hi = SUPPORTED_RANGE
    if not (is_odd_prime(r) and lo <= r <= hi):
        raise ValueError(f"character tables are supported for primes {lo} <= r <= {hi}")


@lru_cache(maxsize=None)
def sl2_group(r: int) -> FiniteGroup:
    _check_desk_scale(r)
    els = [
        (a, b, c, d)
        for a in range(r)
        for b in range(r)
        for c in range(r)
        for d in range(r)
        if (a * d - b * c) % r == 1
    ]
    gens = [(0, r - 1, 1, 0), (1, 1, 0, 1)]
    return FiniteGroup(r, "SL2", els, gens)


def _primitive_root(p):
    """Smallest generator of F_p^*, p prime."""
    fac = prime_divisors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ArithmeticError("no primitive root found")


@lru_cache(maxsize=None)
def borel_group(r: int) -> FiniteGroup:
    """Upper-triangular determinant-1 matrices, order r(r-1)."""
    _check_desk_scale(r)
    els = [
        (a, b, 0, pow(a, r - 2, r))
        for a in range(1, r)
        for b in range(r)
    ]
    g0 = _primitive_root(r)
    gens = [(g0, 0, 0, pow(g0, r - 2, r)), (1, 1, 0, 1)]
    return FiniteGroup(r, "Borel", els, gens)


# ---------------------------------------------------------------------------
# Dixon mod p


def _dixon_primes(order, exponent):
    """Deterministic sequence of primes p = 1 (mod exponent), p > 2 sqrt(order)."""
    p = max(2 * isqrt(order) + 1, exponent + 1)
    while True:
        if p % exponent == 1 and is_prime(p):
            yield p
        p += 1


def _charpoly_modp(a, p):
    """Coefficients of det(lambda I - a) mod p, constant term first, by
    Faddeev-LeVerrier: 1..k must be units mod p, and k^2 p^2 must fit in
    int64 (the trace of a product of two reduced matrices)."""
    k = len(a)
    coeffs = [0] * k + [1]
    m = np.zeros_like(a)
    for j in range(1, k + 1):
        m = a @ m
        m[np.diag_indices(k)] += coeffs[k - j + 1]
        m %= p
        coeffs[k - j] = -int(np.trace(a @ m)) * pow(j, -1, p) % p
    return coeffs


def _split_eigenvectors(tensor, p, k):
    """Common eigenvectors over F_p of the class-multiplication matrices
    M_i[j, l] = a_ijl, split by one combination M(x) = sum_i x^i M_i, as
    the rows of a (k, k) int64 array.

    For x = 2, 3, ..., p - 1 the characteristic polynomial of M(x) is
    evaluated at every lambda in F_p; the first x with k distinct roots is
    taken (x = 1 never works: sum_i K_i sends every nontrivial central
    character to 0).  Each M_i commutes with M(x), so it preserves the k
    one-dimensional eigenspaces, and their spanning vectors are common
    eigenvectors of all class matrices.  The one for a root lambda is the
    first nonzero column of P = prod_{mu != lambda} (M(x) - mu I):
    (M(x) - lambda I) P = 0 by Cayley-Hamilton, and P != 0 since the
    minimal polynomial has all k roots.  Raises ArithmeticError when no x
    has k distinct roots, e.g. when p is not 1 mod the exponent."""
    mats = np.asarray(tensor, dtype=np.int64) % p
    lams = np.arange(p, dtype=np.int64)
    eye = np.eye(k, dtype=np.int64)
    for x in range(2, p):
        powers = np.array([pow(x, i, p) for i in range(k)], dtype=np.int64)
        comb = np.tensordot(powers, mats, axes=1) % p
        vals = np.zeros(p, dtype=np.int64)
        for c in reversed(_charpoly_modp(comb, p)):
            vals = (vals * lams + c) % p
        roots = np.flatnonzero(vals == 0)
        if len(roots) == k:
            vecs = []
            for lam in roots:
                proj = eye
                for mu in roots[roots != lam]:
                    proj = proj @ (comb - mu * eye) % p  # k p^2 fits in int64
                vecs.append(proj[:, proj.any(axis=0).argmax()])
            return np.array(vecs)
    raise ArithmeticError("no class-matrix combination has distinct eigenvalues mod p")


@dataclass
class FiniteGroupTable:
    """Conjugacy data plus the exact character table of a finite group:
    `mus[a, i, s]` is the multiplicity of zeta_m^s (m the order of class i,
    s < m; zero past m) as an eigenvalue of g_i in chi_a, the data the
    certificates check, and `values` holds chi_a(g_i) =
    sum_s mus[a, i, s] zeta_m^s at (a, i) over Q(zeta_exponent)."""

    r: int
    group_name: str
    group: FiniteGroup
    degrees: list = dc_field(default=None)
    values: CycMatrix = dc_field(default=None)      # [irrep, class]
    char_table_modp: list = dc_field(default=None)  # same, residues mod p
    dixon_prime: int = 0
    mus: np.ndarray = dc_field(default=None, compare=False)
    # [a, b, c] = <chi_a chi_b, chi_c>, certified by _tensor_multiplicities
    tensor_mults: np.ndarray = dc_field(default=None, compare=False)

    @property
    def value_field(self):
        return self.values.field

    @property
    def char_table(self):
        """The table as rows of CycNumbers, built on every call."""
        return [self.values.row(a) for a in range(self.values.rows)]

    @property
    def class_sizes(self):
        return self.group.class_sizes

    def num_classes(self):
        return self.group.num_classes()

    def trivial_index(self):
        arr = self.values.arr
        one = (arr[:, :, 0] == self.values.den).all(axis=1) & ~arr[:, :, 1:].any(axis=(1, 2))
        if not one.any():
            raise ArithmeticError("trivial character missing")
        return int(one.argmax())


def dixon_char_table(table: FiniteGroupTable) -> FiniteGroupTable:
    """Complete a FiniteGroupTable in place (and return it)."""
    g = table.group
    n = g.order()
    k = g.num_classes()
    tensor = g.class_mult_tensor()
    ident_class = g.class_of[g.index[g.identity]]

    last_err = None
    for p in _dixon_primes(n, g.exponent):
        try:
            eigvecs = _split_eigenvectors(tensor, p, k)
        except ArithmeticError as err:  # retry with the next admissible prime
            last_err = err
            if p > 100 * n:
                raise
            continue
        break
    else:  # pragma: no cover
        raise last_err

    # central characters omega, normalized to 1 at the identity class;
    # residues stay below p < 2^31, so every product here fits in int64
    scale = [pow(int(v), p - 2, p) for v in eigvecs[:, ident_class]]
    omegas = eigvecs * np.array(scale, dtype=np.int64)[:, None] % p
    inv_sizes = np.array([pow(s, p - 2, p) for s in g.class_sizes], dtype=np.int64)
    ssums = (omegas * omegas[:, g.inverse_class] % p * inv_sizes % p).sum(axis=1) % p

    degrees = []
    for ssum in ssums.tolist():
        d_sq = n * pow(ssum, p - 2, p) % p
        root = _sqrt_mod(d_sq, p)
        if root is None:
            raise ArithmeticError("degree is not a square mod p")
        deg = min(root, p - root)
        if deg * deg > n:
            raise ArithmeticError("implausible degree")
        degrees.append(deg)
    if sum(d * d for d in degrees) != n:
        raise ArithmeticError("degrees fail sum of squares")
    chis = np.array(degrees, dtype=np.int64)[:, None] * omegas % p * inv_sizes % p

    # deterministic row order: by degree, then by mod-p fingerprint
    order = sorted(range(k), key=lambda a: (degrees[a], chis[a].tolist()))
    degrees = [degrees[a] for a in order]
    chis = chis[order]

    # exact lift: mus[a, i, s] is the multiplicity of zeta_m^s as an
    # eigenvalue of g_i in chi_a, read off by one DFT mod p per class
    e = g.exponent
    lam_e = pow(_primitive_root(p), (p - 1) // e, p)
    mus = np.zeros((k, k, max(g.class_orders)), dtype=np.int64)
    for i, (m, powers) in enumerate(zip(g.class_orders, g.power_map)):
        lam_m = pow(lam_e, e // m, p)
        lam_pows = np.array([pow(lam_m, t, p) for t in range(m)], dtype=np.int64)
        ts = np.arange(m)
        dft = lam_pows[-np.outer(ts, ts) % m]  # [t, s] = lam_m^(-st)
        mus[:, i, :m] = chis[:, powers] @ dft % p * pow(m, p - 2, p) % p
    if (mus > np.array(degrees)[:, None, None]).any():
        raise ArithmeticError("eigenvalue multiplicity out of range")

    table.degrees = degrees
    table.mus = mus
    # denominator 1 is already canonical, so the table is stored as built
    table.values = CycMatrix._from_normalized(get_field(e), _power_basis(mus, g.class_orders, e), 1)
    table.char_table_modp = chis.tolist()
    table.dixon_prime = p

    _verify_orthogonality(table)
    table.tensor_mults = _tensor_multiplicities(table)
    return table


def _sqrt_mod(a, p):
    a %= p
    for x in range(p):  # p stays small at desk scale
        if x * x % p == a:
            return x
    return None


def _power_basis(mus, orders, e):
    """The (k, k, d) coefficients over Q(zeta_e) of the values
    sum_s mus[a, i, s] zeta_m^s, m = orders[i]: mus times the rows
    zeta_e^(s e/m) (CycField.rows), each distinct row built once."""
    s = np.arange(mus.shape[-1])
    m = np.array(orders)[:, None]
    ks, idx = np.unique(np.where(s < m, s * (e // m), 0), return_inverse=True)
    f = get_field(e)
    rows = f.rows(ks)
    out = np.empty(mus.shape[:2] + (f.degree,), dtype=np.int64)
    for i, js in enumerate(idx.reshape(len(orders), -1)):
        out[:, i] = _int_matmul(mus[:, i], rows[js])
    return out


# ---------------------------------------------------------------------------
# certificates at the roots of Phi_e
#
# A character value chi_a(g_i) = sum_s mus[a, i, s] zeta_m^s lies in
# Z[zeta_e].  For a split prime p = 1 (mod e) and omega of order e mod p, the
# roots of Phi_e mod p are omega^u for the units u mod e, and evaluation at
# them maps Z[zeta_e] / p onto F_p^d.  The value at omega^u is
# sum_s mus[a, i, s] omega^(u s e/m), which depends on u mod m alone: one
# gather from the table w[a, i, t] = sum_s mus[a, i, s] omega^(t s e/m)
# (_class_values), with no power basis and no transform.  An identity x = 0,
# x in Z[zeta_e], that holds at every root modulo primes with product P puts
# x in P Z[zeta_e]; if also |sigma(x)| < P for every embedding sigma, the
# norm of x is below P^d in modulus and divisible by P^d, so x = 0.  Every
# embedding of chi_a(g_i) is at most sum_s |mus[a, i, s]| in modulus
# (_value_bound), which bounds each side from the certified data alone, and
# the primes' product is taken above twice that bound (_split_roots).

_ROOT_BLOCK = 1 << 14  # values at the roots held at once, per array


def _value_bound(table) -> int:
    return int(np.abs(table.mus).sum(axis=2).max())


def _split_roots(e, bound):
    """The split primes of Q(zeta_e) (CycField.split) whose product exceeds
    2 bound, each with omega, a root of Phi_e mod p (so of order e), and
    that product."""
    ps, roots, _, big_p = get_field(e).split.take(2 * bound)
    return list(zip(ps.tolist(), roots[:, 0].tolist())), big_p


def _class_values(table, e, p, omega):
    """w[a, i, t] = sum_s mus[a, i, s] omega^(t s e/m) mod p, m the order of
    class i, for t < m, as float64: the value of chi_a(g_i) at each root
    omega^u of Phi_e with u = t (mod m).  Residues times residues stay
    below 2^40 and their sums below 2^53, so _mod is exact."""
    pows = np.ones(1, dtype=np.int64)  # omega^j mod p, j < e, by doubling
    while len(pows) < e:
        pows = np.concatenate([pows, pows * pow(omega, len(pows), p) % p])
    m = np.array(table.group.class_orders)[:, None, None]
    ts = np.arange(table.mus.shape[-1])
    ex = ts[:, None] * ts % m * (e // m)  # [i, s, t] = (s t mod m) e/m
    mus = (table.mus % p).astype(np.float64).transpose(1, 0, 2)
    return _mod(mus @ pows[ex].astype(np.float64), p).transpose(1, 0, 2)


def _at_roots(e, orders, *ws):
    """Each table w[a, i, t] of the ws at the roots omega^u of Phi_e, as
    w[a, i, u mod orders[i]] in a (root, a, i) array, over blocks of the
    units u mod e of at most _ROOT_BLOCK values per table."""
    units = np.array(get_field(e).split.units)
    step = max(1, _ROOT_BLOCK // max(w.shape[0] * w.shape[1] for w in ws))
    for j in range(0, len(units), step):
        t = units[j : j + step, None] % np.array(orders)
        yield [w[:, np.arange(w.shape[1]), t].transpose(1, 0, 2) for w in ws]


def _verify_orthogonality(table: FiniteGroupTable):
    """Exact row and column orthogonality over Q(zeta_exponent): with
    X[a, i] = chi_a(g_i), X'[a, i] = chi_a(g_i^-1) and D = diag(|C_i|),
    X D X'^T = n I and X^T X' D = n I.  D is invertible, so the second is
    the column relation X^T X' = diag(n / |C_i|).  Both are checked at
    every root of Phi_e, one block of roots at a time; with S bounding
    every value, each entry of either side is at most max(n, k max|C_i|) S^2
    in every embedding."""
    g = table.group
    n, k = g.order(), g.num_classes()
    e = g.exponent
    sizes = np.array(g.class_sizes)
    bound = max(n, k * int(sizes.max())) * _value_bound(table) ** 2 + n
    primes, _ = _split_roots(e, bound)
    for p, omega in primes:
        w = _class_values(table, e, p, omega)
        n_id = np.eye(k) * (n % p)
        for (x,) in _at_roots(e, g.class_orders, w):
            x_inv = x[:, :, g.inverse_class]
            rows = _mod(_mod(x * (sizes % p), p) @ x_inv.transpose(0, 2, 1), p)
            if _mod(rows - n_id, p).any():
                raise ArithmeticError("row orthogonality failed")
            cols = _mod(x.transpose(0, 2, 1) @ _mod(x_inv * (sizes % p), p), p)
            if _mod(cols - n_id, p).any():
                raise ArithmeticError("column orthogonality failed")


def _tensor_multiplicities(table: FiniteGroupTable) -> np.ndarray:
    """M[a, b, c] = (1/n) sum_i |C_i| chi_a(g_i) chi_b(g_i) chi_c(g_i^-1) for
    all (a, b, c), computed mod the Dixon prime p and certified exactly
    (_certify_tensor)."""
    g = table.group
    n = g.order()
    k = g.num_classes()
    p = table.dixon_prime
    x = np.array(table.char_table_modp, dtype=np.int64)
    sizes = np.array(g.class_sizes, dtype=np.int64) % p
    y = x[:, g.inverse_class] * sizes % p  # y[c, i] = |C_i| chi_c(g_i^-1)
    # residues are below p < 2^31, so every product and sum here fits in int64
    m = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        xx = x[:, None, i] * x[None, :, i] % p
        m = (m + xx[:, :, None] * y[None, None, :, i]) % p
    m = m * pow(n, -1, p) % p
    _certify_tensor(table, m)
    return m


def _certify_tensor(table: FiniteGroupTable, m):
    """Check chi_a(g_i) chi_b(g_i) = sum_c m[a, b, c] chi_c(g_i) for every
    class i and all (a, b, c).  Since the chi_c are linearly independent
    (row orthogonality), this identity holds for exactly one integer array,
    so any mod-p error in m raises.  Both sides at class i lie in
    Z[zeta_m], so their values at the roots of Phi_e are those at the units
    t mod m: the identity is checked there, on w[:, i, t], and each side is
    at most S^2 + S max_ab sum_c |m[a, b, c]| in every embedding."""
    g = table.group
    k = g.num_classes()
    e = g.exponent
    s = _value_bound(table)
    bound = s * s + s * int(np.abs(m).sum(axis=2).max())
    at = [(i, t) for i, o in enumerate(g.class_orders) for t in range(o) if gcd(t, o) == 1]
    cls, ts = np.array(at).T
    primes, _ = _split_roots(e, bound)
    for p, omega in primes:
        v = _class_values(table, e, p, omega)[:, cls, ts]  # [c, (i, t)]
        lhs = _mod(v[:, None] * v[None], p).reshape(k * k, -1)
        rhs = _mod((m.reshape(k * k, k) % p).astype(np.float64) @ v, p)
        bad = _mod(lhs - rhs, p).any(axis=0)
        if bad.any():
            raise ArithmeticError(f"tensor multiplicity certificate failed at class {cls[bad.argmax()]}")


@lru_cache(maxsize=None)
def sl2_table(r: int) -> FiniteGroupTable:
    return dixon_char_table(
        FiniteGroupTable(r=r, group_name="SL2", group=sl2_group(r))
    )


@lru_cache(maxsize=None)
def borel_table(r: int) -> FiniteGroupTable:
    return dixon_char_table(
        FiniteGroupTable(r=r, group_name="Borel", group=borel_group(r))
    )


# ---------------------------------------------------------------------------
# tensor products


def tensor_decompose(table: FiniteGroupTable, a: int, b: int):
    """Multiplicities of each irreducible in chi_a * chi_b: row [a][b] of the
    table's certified multiplicity array (see _tensor_multiplicities)."""
    return table.tensor_mults[a, b].tolist()


def chi_beta_report(r: int) -> dict:
    """Locate the two degree-(r-1)/2 irreducibles and evaluate them on the
    regular square elements of the nonsplit torus (the cyclic subgroup of
    order r+1); those values are checked to be exactly -1."""
    table = sl2_table(r)
    g = table.group
    f = table.value_field
    half = (r - 1) // 2
    idx = [i for i, d in enumerate(table.degrees) if d == half]

    # nonsplit torus: [[a, eps b], [b, a]] with a^2 - eps b^2 = 1, eps non-square
    squares = {x * x % r for x in range(1, r)}
    eps = next(x for x in range(2, r) if x not in squares)
    torus = [
        (a, eps * b % r, b, a)
        for a in range(r)
        for b in range(r)
        if (a * a - eps * b * b) % r == 1
    ]
    if len(torus) != r + 1:
        raise ArithmeticError("the nonsplit torus does not have r + 1 elements")
    torus_squares = sorted({sl2_mul(x, x, r) for x in torus})
    central = {(1, 0, 0, 1), (r - 1, 0, 0, r - 1)}
    regular = [x for x in torus_squares if x not in central]
    classes = sorted({g.class_of[g.index[x]] for x in regular})

    minus_one = -f.one
    values = {ci: [table.values[i, ci] for i in idx] for ci in classes}
    return {
        "degree": half,
        "irrep_indices": idx,
        "square_torus_classes": classes,
        "all_values_minus_one": all(
            v == minus_one for vals in values.values() for v in vals
        ),
        "values": values,
    }


# ---------------------------------------------------------------------------
# induction from the Borel subgroup and the screening bounds


def _congruence_ok(product: int, dim: int, half: int) -> bool:
    """Index-times-dimension must reduce to 0 (dim > 1) or 1 (dim = 1)
    modulo (r-1)/2 to fit inside the low-degree part of the regular
    representation."""
    return product % half == (0 if dim > 1 else 1)


def _borel_screening(r: int, index: int, degrees) -> tuple:
    """The screen above applied to [G:B] dim V for each distinct irreducible
    degree of B: (rows, whether every row is ruled out)."""
    half = (r - 1) // 2
    bound = (r * r - 2 * r + 3) // 2
    rows = [
        {
            "dim": bdeg,
            "index_times_dim": index * bdeg,
            "congruence_ok": _congruence_ok(index * bdeg, bdeg, half),
            "inequality_ok": index * bdeg <= bound,
        }
        for bdeg in sorted(set(degrees))
    ]
    ruled_out = all(not (row["congruence_ok"] and row["inequality_ok"]) for row in rows)
    return rows, ruled_out


def screen_induction_triples(r: int) -> dict:
    """Arithmetic screening of candidate triples (r, dim V, |H|) for proper
    subgroups H with |H| in {24, 48, 60, 120}: the index [G:H] dim V must
    satisfy the congruence above and be at most 1 + 2((r-1)/2)^2 =
    (r^2 - 2r + 3)/2.  The screen carries weight for r >= 7; at r = 5 the
    congruence is only mod 2 and cuts nothing."""
    _check_desk_scale(r)
    n = r * (r * r - 1)
    half = (r - 1) // 2
    bound = (r * r - 2 * r + 3) // 2
    survivors = []
    tested = []
    for h_order in (24, 48, 60, 120):
        if n % h_order != 0:
            continue
        index = n // h_order
        for dim in range(1, isqrt(h_order) + 1):
            product = index * dim
            ok = _congruence_ok(product, dim, half) and product <= bound
            tested.append((dim, h_order, product, ok))
            if ok:
                survivors.append((r, dim, h_order))
    return {
        "r": r,
        "bound": bound,
        "survivors": survivors,
        "tested": tested,
    }


def borel_check(r: int) -> dict:
    """Dixon on the Borel subgroup B, the index [G:B], the decomposition of
    every induced character Ind_B^G by Frobenius reciprocity, and the
    congruence/inequality screening of [G:B] dim V for each irreducible V
    of B.

    The observed irreducible degrees of B are reported next to the stated
    target set {1, r-1}; the computed set is {1, (r-1)/2}, backed by the
    exact class count and sum-of-squares identity."""
    gt = sl2_table(r)
    bt = borel_table(r)
    g = gt.group
    b = bt.group
    n = g.order()
    nb = b.order()
    index = n // nb
    e = g.exponent  # e(B) | e(G), so both tables evaluate at the roots of Phi_e

    # Frobenius reciprocity: <Ind chi, psi>_G = <chi, Res psi>_B, for every
    # pair at once as (1/|B|) sum_bc chi(bc) |bc| psi(g_bc^-1); every
    # element of a B-class lands in one G-class, of the same order.  Each
    # sum is a rational integer: it takes one value at every root of Phi_e
    # modulo each prime, and that value is read by symmetric CRT (cycmatrix
    # _lift); |sum| <= |B| S_B S_G in every embedding
    g_inv_of_bclass = [g.inverse_class[g.class_of[g.index[x]]] for x in b.class_reps]
    sizes = np.array(b.class_sizes)
    primes, big_p = _split_roots(e, nb * _value_bound(bt) * _value_bound(gt))
    res = []
    for p, omega in primes:
        wb = _class_values(bt, e, p, omega)
        wg = _class_values(gt, e, p, omega)[:, g_inv_of_bclass]
        first = None
        for xb, xg in _at_roots(e, b.class_orders, wb, wg):
            sums = _mod(_mod(xb * (sizes % p), p) @ xg.transpose(0, 2, 1), p)
            first = sums[0] if first is None else first
            if _mod(sums - first, p).any():
                raise ArithmeticError("an induction multiplicity is not rational")
        res.append(first)
    num = _lift(np.stack(res), [p for p, _ in primes], big_p)
    if (num % nb).any() or (num < 0).any():
        raise ArithmeticError("induction multiplicity is not a non-negative integer")
    inductions = []
    for bdeg, mults in zip(bt.degrees, (num // nb).tolist()):
        total = sum(m * d for m, d in zip(mults, gt.degrees))
        if total != index * bdeg:
            raise ArithmeticError("induced degree mismatch")
        inductions.append({"borel_degree": bdeg, "multiplicities": mults,
                           "induced_degree": total})

    screening, all_screened_out = _borel_screening(r, index, bt.degrees)
    observed = sorted(set(bt.degrees))
    return {
        "r": r,
        "borel_order": nb,
        "index": index,
        "index_is_r_plus_1": index == r + 1,
        "borel_degrees": sorted(bt.degrees),
        "observed_degree_set": observed,
        "stated_degree_set": [1, r - 1],
        "degrees_match_stated_set": set(observed) <= {1, r - 1},
        "linear_character_count": bt.degrees.count(1),
        "inductions": inductions,
        "screening": screening,
        "all_screened_out": all_screened_out,
    }


def regular_congruence_check(r: int) -> dict:
    """Every irreducible occurs in the regular character with multiplicity
    equal to its degree (verified exactly); the inequality
    (r^2-2r+3)/2 < |G| / (2(r+1)) is instantiated; and the surviving
    induction triples are listed."""
    table = sl2_table(r)
    g = table.group
    n = g.order()
    ident_class = g.class_of[g.index[g.identity]]

    # <reg, chi> = (1/|G|) sum_C |C| reg(g_C) conj(chi(g_C)) = chi(1^-1):
    # reg is |G| at 1 and 0 elsewhere
    at_one = table.values.arr[:, g.inverse_class[ident_class]]
    if table.values.den != 1 or at_one[:, 1:].any():
        raise ArithmeticError("regular multiplicity is not an integer")
    reg_mults = at_one[:, 0].tolist()

    lhs = Fraction(r * r - 2 * r + 3, 2)
    rhs = Fraction(n, 2 * (r + 1))
    screen = screen_induction_triples(r)

    # the same screen applied to H = B with its computed irreducible degrees
    borel_rows, borel_out = _borel_screening(r, r + 1, borel_table(r).degrees)
    return {
        "r": r,
        "regular_multiplicities_equal_degrees": reg_mults == table.degrees,
        "regular_multiplicities": reg_mults,
        "degrees": table.degrees,
        "inequality_lhs": [lhs.numerator, lhs.denominator],
        "inequality_rhs": [rhs.numerator, rhs.denominator],
        "inequality_holds": lhs < rhs,
        "borel_screening": borel_rows,
        "borel_all_screened_out": borel_out,
        "surviving_triples": screen["survivors"],
    }
