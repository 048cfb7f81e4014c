"""The Weil representation of SL2(F_r) built from the Heisenberg group,
its odd (r-1)/2-dimensional block, and the exact matrix identities that
identify the odd block with the genus-1 representation.

The Heisenberg group of order r^3 is generated by x, y with central z,
z^2 = y x y^-1 x^-1, all of order r.  Words are kept in the normal form
z^e x^a y^c with exponents mod r; SL2(F_r) acts by

    f_M(x) = z^{ac} x^a y^c,   f_M(y) = z^{bd} x^b y^d,   M = [[a, b], [c, d]].

The Stone-von-Neumann representation on C^r sends x to diag(e(2k)), y to the
cyclic shift e_k -> e_{k-1} and z to e(1) * Id, where e(k) = e^{2 pi i k / r}.
Intertwiners R_s = (e(2ij)) and R_t = diag(e(-i^2)) realize the action of the
generators s, t of SL2(F_r); the span of f_i = e_{(r-1-i)/2} - e_{(r+1+i)/2}
for even i is invariant and carries the odd block.

Every entry in the Heisenberg and intertwiner relations is a root of unity
or zero, so they are checked on exponent arrays mod 4r with no matrix
product: rho(z^e x^a y^c) is a monomial, and multiplying R by one permutes
R's columns or rows and shifts their exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclo import get_field
from .cycmatrix import CycMatrix
from .levels import _require_level
from .modular_data import build_modular_data, rho_genus1

__all__ = [
    "HeisenbergWord",
    "HeisenbergPresentation",
    "WeilMatrices",
    "heisenberg_presentation",
    "heisenberg_action",
    "build_weil",
    "verify_odd_block_identification",
    "OddBlockMismatch",
]


@dataclass(frozen=True)
class HeisenbergWord:
    """Group element z^z_exp x^x_exp y^y_exp of the Heisenberg group,
    exponents reduced mod r.  Multiplication uses y^c x^a = z^{2ca} x^a y^c."""

    r: int
    z_exp: int
    x_exp: int
    y_exp: int

    @staticmethod
    def of(r, z_exp=0, x_exp=0, y_exp=0):
        return HeisenbergWord(r, z_exp % r, x_exp % r, y_exp % r)

    def __mul__(self, other: "HeisenbergWord") -> "HeisenbergWord":
        assert self.r == other.r
        r = self.r
        # (z^e x^a y^c)(z^e' x^a' y^c') = z^{e+e'+2ca'} x^{a+a'} y^{c+c'}
        return HeisenbergWord.of(
            r,
            self.z_exp + other.z_exp + 2 * self.y_exp * other.x_exp,
            self.x_exp + other.x_exp,
            self.y_exp + other.y_exp,
        )

    def __pow__(self, k: int) -> "HeisenbergWord":
        r = self.r
        k = k % r  # every element has order dividing r
        # (z^e x^a y^c)^k = z^{ke + ac k(k-1)} x^{ka} y^{kc}
        return HeisenbergWord.of(
            r,
            k * self.z_exp + self.x_exp * self.y_exp * k * (k - 1),
            k * self.x_exp,
            k * self.y_exp,
        )

    def inv(self) -> "HeisenbergWord":
        return self ** (self.r - 1)

    def is_identity(self):
        return self.z_exp == 0 and self.x_exp == 0 and self.y_exp == 0


def _monomial(r: int, w: HeisenbergWord):
    """rho(z^e x^a y^c) as (exponents, columns): row i holds
    zeta_4r^k_i = e(e + 2ia) in column i + c."""
    i = np.arange(r)
    return 4 * (w.z_exp + 2 * i * w.x_exp) % (4 * r), (i + w.y_exp) % r


def _compose(m1, m2, n: int):
    """The monomial product m1 m2, exponents mod n: row i picks row c1[i] of m2."""
    (k1, c1), (k2, c2) = m1, m2
    return (k1 + k2[c1]) % n, c2[c1]


@dataclass(frozen=True)
class HeisenbergPresentation:
    """rho_x, rho_y and rho_z are rho_word of the generators, built on access."""

    r: int

    def rho_word(self, w: HeisenbergWord) -> CycMatrix:
        """Image of z^e x^a y^c: entries e(e + 2ia) at positions (i, i+c)."""
        return CycMatrix.roots(get_field(4 * self.r), *_monomial(self.r, w))

    rho_x = property(lambda self: self.rho_word(HeisenbergWord.of(self.r, 0, 1, 0)))
    rho_y = property(lambda self: self.rho_word(HeisenbergWord.of(self.r, 0, 0, 1)))
    rho_z = property(lambda self: self.rho_word(HeisenbergWord.of(self.r, 1, 0, 0)))


@lru_cache(maxsize=None)
def heisenberg_presentation(r: int) -> HeisenbergPresentation:
    """The presentation, once y x = z^2 x y holds between the monomials."""
    _require_level(r)
    n = 4 * r
    words = [HeisenbergWord.of(r, *e) for e in ((0, 1, 0), (0, 0, 1), (1, 0, 0))]
    x, y, z = (_monomial(r, w) for w in words)
    lhs, rhs = _compose(y, x, n), _compose(_compose(z, z, n), _compose(x, y, n), n)
    if not np.array_equal(lhs, rhs):
        raise ArithmeticError("Heisenberg commutation relation failed")
    return HeisenbergPresentation(r)


def heisenberg_action(m, r: int):
    """Automorphism images (f_M(x), f_M(y)) for M = [[a, b], [c, d]],
    det M = 1 mod r."""
    (a, b), (c, d) = m
    if (a * d - b * c) % r != 1:
        raise ValueError("matrix must have determinant 1 mod r")
    fx = HeisenbergWord.of(r, a * c, a, c)
    fy = HeisenbergWord.of(r, b * d, b, d)
    return fx, fy


def apply_action(m, r: int, w: HeisenbergWord) -> HeisenbergWord:
    """Image of an arbitrary normal-form word under the automorphism of M."""
    fx, fy = heisenberg_action(m, r)
    out = HeisenbergWord.of(r, w.z_exp, 0, 0)
    return out * (fx ** w.x_exp) * (fy ** w.y_exp)


S_GEN = ((0, -1), (1, 0))
T_GEN = ((1, 1), (0, 1))


@dataclass(frozen=True)
class WeilMatrices:
    r: int
    r_s: CycMatrix
    r_t: CycMatrix
    r_s_odd: CycMatrix
    r_t_odd: CycMatrix


# the exponent array entry of a zero matrix entry
_ZERO = -1


def _shift(ex, ks, n: int):
    """ex with ks added to the exponent of every nonzero entry, mod n."""
    return np.where(ex == _ZERO, _ZERO, (ex + ks) % n)


@lru_cache(maxsize=None)
def build_weil(r: int) -> WeilMatrices:
    """Intertwiners R_s = (e(2ij)), R_t = diag(e(-i^2)) together with their
    odd-block restrictions.  The defining relation

        R_alpha rho(h) R_alpha^{-1} = rho(alpha(h))

    is verified exactly for alpha in {s, t} and h in {x, y}, as
    R_alpha rho(h) = rho(alpha(h)) R_alpha on exponent arrays mod 4r, and
    the matrices are read off the power table from the arrays checked."""
    heisenberg_presentation(r)
    f = get_field(4 * r)
    i = np.arange(r)
    ex_s = 8 * np.outer(i, i) % f.n
    ex_t = np.where(np.eye(r, dtype=bool), -4 * i * i % f.n, _ZERO)
    for ex, alpha in ((ex_s, S_GEN), (ex_t, T_GEN)):
        for h in (HeisenbergWord.of(r, 0, 1, 0), HeisenbergWord.of(r, 0, 0, 1)):
            ks, cols = _monomial(r, h)
            lhs = np.empty_like(ex)  # R rho(h): column j of R, scaled, to column cols[j]
            lhs[:, cols] = _shift(ex, ks, f.n)
            ks, cols = _monomial(r, apply_action(alpha, r, h))
            # rho(alpha(h)) R: row i is row cols[i] of R, scaled
            if not np.array_equal(lhs, _shift(ex[cols], ks[:, None], f.n)):
                raise ArithmeticError("intertwiner relation failed for a generator")
    r_s, r_t = (
        CycMatrix._from_array(f, f.pw[ex % f.n] * (ex != _ZERO)[..., None], 1)
        for ex in (ex_s, ex_t)
    )
    r_s_odd, r_t_odd = _restrict_to_odd(r, r_s, r_t)
    return WeilMatrices(r=r, r_s=r_s, r_t=r_t, r_s_odd=r_s_odd, r_t_odd=r_t_odd)


def _restrict_to_odd(r: int, r_s: CycMatrix, r_t: CycMatrix):
    """r_s and r_t on the basis f_i, checking exactly that each image v of
    an f_i is in their span: v[0] = 0 and v[k] = -v[r-k].  f_i has +1 at
    position (r-1-i)/2, so that is its coordinate."""
    labels = np.arange(0, r - 2, 2)
    hi, lo = (r - 1 - labels) // 2, (r + 1 + labels) // 2
    out = []
    for mat in (r_s, r_t):
        image = mat.arr[:, hi] - mat.arr[:, lo]  # (r, k, d)
        if image[0].any():
            raise ArithmeticError("odd subspace is not invariant (e_0 component)")
        if not (image[1:] == -image[:0:-1]).all():
            raise ArithmeticError("odd subspace is not invariant (symmetry)")
        out.append(CycMatrix._from_array(mat.field, image[hi], mat.den))
    return out[0], out[1]


class OddBlockMismatch(ArithmeticError):
    """Raised when an identity check fails; carries the first bad entry."""

    def __init__(self, which, i, j, got, want):
        super().__init__(f"{which} mismatch at entry ({i},{j}): {got} != {want}")
        self.which = which
        self.position = (i, j)
        self.got = got
        self.want = want


def verify_odd_block_identification(r: int) -> dict:
    """Exact identification of the odd Weil block with the genus-1 pair:

        R_s_odd = (A^2 - A^-2) * S~        (entrywise)
        R_t_odd = zeta_{4r}^{-(r-1)^2} * rho(t)   (entrywise)

    with A^2 - A^-2 nonzero; raises OddBlockMismatch on the first differing
    entry.  Returns the two proportionality constants and check flags."""
    md = build_modular_data(r)
    w = build_weil(r)
    f = md.field
    rho_t = rho_genus1(r)[1]

    a2 = f.zeta_power(2 * (r + 1))
    c_s = a2 - a2.conj()  # A^2 - A^-2
    if c_s.is_zero():
        raise ArithmeticError("A^2 - A^-2 is zero")
    c_t = f.zeta_power(-((r - 1) ** 2))
    blocks = (("S-block", w.r_s_odd, c_s, md.s_tilde), ("T-block", w.r_t_odd, c_t, rho_t))
    for which, odd, c, mat in blocks:
        want = mat.scalar_mul(c)
        if odd != want:  # name the first differing entry, in row-major order
            pairs = enumerate(zip(odd.entries, want.entries))
            i, j = divmod(next(k for k, (a, b) in pairs if a != b), odd.cols)
            raise OddBlockMismatch(which, i, j, odd[i, j], want[i, j])

    return {
        "r": r,
        "s_block_identity": True,
        "t_block_identity": True,
        "s_constant": c_s,
        "t_constant": c_t,
        "s_constant_json": c_s.to_json(),
        "t_constant_json": c_t.to_json(),
    }
