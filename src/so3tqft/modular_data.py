"""SO(3)-type modular data at an odd prime level r and the genus-1
representation of SL2(Z) it generates.

All scalars live in Q(zeta_{4r}).  The deformation parameter is the root of
unity A = zeta_{4r}^(r+1) (equivalently i * e^{2 pi i / 4r}), the label set is
the even integers {0, 2, ..., r-3}, quantum dimensions are quantum integers
d_i = [i+1], twists are theta_i = A^{i(i+2)}, and the S-matrix entries are
[(i+1)(j+1)] up to the global normalization 1/D with D = sqrt(r)/(2 sin(pi/r)).
Everything here is exact; floats appear only through explicit embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .cyclo import CycField, CycNumber, get_field, sqrt_r
from .cycmatrix import CycMatrix, _Letter
from .levels import _require_level, so3_labels

__all__ = [
    "ModularData",
    "SpectrumReport",
    "a_root",
    "quantum_integer",
    "build_modular_data",
    "rho_genus1",
    "genus1_letters",
    "projective_relations",
    "dehn_twist_spectrum",
    "central_charge_order",
    "so3_labels",
]


def a_root(r: int) -> CycNumber:
    """The root of unity A = zeta_{4r}^{r+1}."""
    _require_level(r)
    return get_field(4 * r).zeta_power(r + 1)


def _quantum_integer_rows(r: int):
    """The (r, degree) coefficient array of [q] = (A^2q - A^-2q)/(A^2 - A^-2),
    0 <= q < r, over Q(zeta_{4r}); [k] is row k mod r.

    [q] is the geometric sum of the q roots A^{2(q-1-2m)}, 0 <= m < q.  A^2
    has order r, so [k + r] = [k], and for q < r those q exponents of A^2
    are distinct mod r: the sum is a 0/1 count of each power of A^2 times
    the power table."""
    f = get_field(4 * r)
    q, m = np.nonzero(np.tri(r, r, -1, dtype=bool))  # m < q
    counts = np.zeros((r, r), dtype=np.int64)
    counts[q, (q - 1 - 2 * m) % r] = 1
    return counts @ f.pw[2 * (r + 1) * np.arange(r) % (4 * r)]


def quantum_integer(k: int, r: int) -> CycNumber:
    """[k] = (A^2k - A^-2k)/(A^2 - A^-2), exactly (see _quantum_integer_rows)."""
    _require_level(r)
    return CycNumber(get_field(4 * r), _quantum_integer_rows(r)[k % r].tolist())


@dataclass(frozen=True)
class ModularData:
    """All matrices here (and everything derived from them downstream) are
    indexed by the label order 0, 2, ..., r-3."""

    r: int
    field: CycField
    labels: tuple
    qdim: dict
    twist: dict
    s_tilde: CycMatrix
    s_unitary: CycMatrix
    global_dim: CycNumber
    global_dim_inv: CycNumber
    p_plus: CycNumber
    p_minus: CycNumber

    def theta_power(self, label: int, n: int) -> CycNumber:
        """theta_label^n as a single root-of-unity lookup (n may be negative)."""
        return self.field.zeta_power((self.r + 1) * label * (label + 2) * n)


@lru_cache(maxsize=None)
def build_modular_data(r: int) -> ModularData:
    _require_level(r)
    f = get_field(4 * r)
    labels = tuple(so3_labels(r))
    assert len(labels) == (r - 1) // 2

    # S~[i, j] = [(l_i + 1)(l_j + 1)]; row 0 (l_0 = 0) holds the qdims
    l1 = np.array(labels) + 1
    s_tilde = CycMatrix._from_array(f, _quantum_integer_rows(r)[np.outer(l1, l1) % r], 1)
    qdim = dict(zip(labels, s_tilde.row(0)))
    twist = {l: f.zeta_power((r + 1) * l * (l + 2)) for l in labels}  # A^{l(l+2)}

    # D = sqrt(r) / (2 sin(pi/r)) with no inversion: D^-1 = 2 sin(pi/r) sqrt(r) / r
    # and D = (sum d_i^2) D^-1, checked exactly; 2 sin(pi/r) = -i (zeta_2r - zeta_2r^-1)
    two_sin = (f.zeta_power(2) - f.zeta_power(-2)) * f.zeta_power(-r)
    global_dim_inv = two_sin * sqrt_r(r) * f.from_fraction(Fraction(1, r))
    d_sq = {l: qdim[l] * qdim[l] for l in labels}
    dim_sq = sum(d_sq.values(), f.zero)
    global_dim = dim_sq * global_dim_inv
    if global_dim * global_dim_inv != f.one or global_dim * global_dim != dim_sq:
        raise ArithmeticError("global dimension identities D D^-1 = 1, D^2 = sum d_i^2 failed")
    s_unitary = s_tilde.scalar_mul(global_dim_inv)

    p_plus = sum((twist[l] * d_sq[l] for l in labels), f.zero)
    p_minus = sum((twist[l].conj() * d_sq[l] for l in labels), f.zero)

    return ModularData(
        r=r,
        field=f,
        labels=labels,
        qdim=qdim,
        twist=twist,
        s_tilde=s_tilde,
        s_unitary=s_unitary,
        global_dim=global_dim,
        global_dim_inv=global_dim_inv,
        p_plus=p_plus,
        p_minus=p_minus,
    )


def rho_genus1(r: int):
    """The genus-1 pair (rho(s), rho(t)) = ((1/D) S~, T^-1).

    rho(t) is the inverse twist diagonal diag(A^{-j(j+2)}): Dehn-twist
    eigenvalues are the inverse twists in this convention."""
    md = build_modular_data(r)
    t_inv = CycMatrix.roots(md.field, [-(r + 1) * l * (l + 2) for l in md.labels])
    return md.s_unitary, t_inv


def genus1_letters(rho_s: CycMatrix, rho_t: CycMatrix) -> dict:
    """The letters s, t and st of the genus-1 pair, each caching its powers;
    t is diagonal, so its powers are power-table lookups."""
    s, t = _Letter(rho_s), _Letter(rho_t)
    return {"s": s, "t": t, "st": _Letter(t.times(rho_s, 1))}


def projective_relations(r: int, letters: dict) -> dict:
    """The relations of SL2(Z) mod r up to scalars, at the genus1_letters:
    rho(s)^4, (rho(s) rho(t))^3 and rho(t)^r are scalar."""
    return {
        "s4_scalar": letters["s"].power(4).is_scalar(),
        "braid_scalar": letters["st"].power(3).is_scalar(),
        "t_r_scalar": letters["t"].power(r).is_scalar(),
    }


@dataclass(frozen=True)
class SpectrumReport:
    r: int
    values: tuple            # eigenvalue ratios theta_i^-1 * theta_0, exact
    scalar: CycNumber        # common scalar c with values == c * reference set
    conjugated: bool         # True when the match is against the conjugate set
    distinct_count: int


def _quadratic_exponent_set(r: int):
    """Exponents {n^2 mod r : 0 < n < r/2}; each nonzero square mod r once."""
    return {(n * n) % r for n in range(1, (r + 1) // 2)}


def dehn_twist_spectrum(r: int) -> SpectrumReport:
    """Eigenvalue ratios of rho(t), matched as a set against
    {e^{2 pi i n^2 / r} : 0 < n < r/2} after one common scalar.

    The ratios are r-th roots of unity.  For r = 1 (mod 4) the match is on
    the nose; for r = 3 (mod 4) the ratio set is a common scalar times the
    *conjugate* of the reference set (and the two sets differ), which the
    report flags via `conjugated`."""
    md = build_modular_data(r)
    f = md.field
    ratios = [md.theta_power(l, -1) for l in md.labels]  # theta_0 = 1
    if len(set(ratios)) != (r - 1) // 2:
        raise ArithmeticError("Dehn twist eigenvalue ratios are not distinct")

    # exact exponents: each ratio is zeta_r^e
    exps = set()
    for v in ratios:
        e = f.root_of_unity_exponent(v)
        if e is None or e % 4 != 0:
            raise ArithmeticError("twist ratio is not an r-th root of unity")
        exps.add((e // 4) % r)
    squares = _quadratic_exponent_set(r)
    for reference, conjugated in ((squares, False), ({(-q) % r for q in squares}, True)):
        for q0 in reference:
            shift = (min(exps) - q0) % r
            if {(q + shift) % r for q in reference} == exps:
                scalar = f.zeta_power(4 * shift)
                return SpectrumReport(
                    r=r,
                    values=tuple(ratios),
                    scalar=scalar,
                    conjugated=conjugated,
                    distinct_count=len(exps),
                )
    raise ArithmeticError("twist spectrum matches neither orientation of the "
                          "quadratic-exponent set")


def central_charge_order(md: ModularData) -> int:
    """Multiplicative order of p_minus / D, read off its exponent:
    p_minus / D = zeta_4r^k has order 4r / gcd(k, 4r)."""
    n = md.field.n
    k = md.field.root_of_unity_exponent(md.p_minus * md.global_dim_inv)
    if k is None:
        raise ArithmeticError("p_minus/D is not a root of unity")
    return n // gcd(k, n)
