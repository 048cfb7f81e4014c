"""Dimension engine: fusion coefficients, pants-decomposition dimensions for
surfaces with boundary, the closed Verlinde formula, twist-eigenvalue
multiplicities, and the genus-growth margin.

Labels at level r are the even integers {0, 2, ..., r-3}.  A triple admits an
invariant vector iff it satisfies the triangle inequality and a + b + c <=
2(r-2), so for fixed a and b the admissible c form one window of even labels.
Dimensions of arbitrary (genus, boundary) surfaces are assembled from these
0/1 coefficients by cutting the surface into pants along a canonical linear
chain of handles, walking one row vector along the chain: a product by a
fusion matrix is a pass of prefix sums over the windows, and no matrix is
formed.  Dimensions are exact Python integers throughout: the Verlinde power
sum comes from Newton's identities on an integer polynomial whose roots are
its terms, and its float value is kept only as a diagnostic.  Nothing here
needs a cyclotomic field or numpy.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, inf, pi, sin

from .levels import _require_level, so3_labels

__all__ = [
    "SurfaceSpec",
    "labels",
    "fusion_coeff",
    "dim_space",
    "verlinde_dim",
    "twist_multiplicities",
    "goslow_margin",
]


def labels(r: int):
    _require_level(r)
    return so3_labels(r)


def _check_label(r, h):
    if h % 2 != 0 or not (0 <= h <= r - 3):
        raise ValueError(f"label {h} outside {{0, 2, ..., {r - 3}}}")


def _window(r: int, a: int, b: int):
    """(lo, hi): N(a, b, c) = 1 exactly for the even c with lo <= c <= hi.
    hi is even and at most r - 2, so it never passes the last label r - 3."""
    return abs(a - b), min(a + b, 2 * (r - 2) - a - b)


def fusion_coeff(r: int, a: int, b: int, c: int) -> int:
    """1 iff |a-b| <= c <= a+b and a+b+c <= 2(r-2), else 0."""
    _require_level(r)
    for h in (a, b, c):
        _check_label(r, h)
    lo, hi = _window(r, a, b)
    return 1 if lo <= c <= hi else 0


class SurfaceSpec:
    """A surface of the given genus with boundary labels at level r, checked
    on construction.  Immutable; equal and hashed by (r, genus, boundary)."""

    __slots__ = ("r", "genus", "boundary")

    def __init__(self, r: int, genus: int, boundary: tuple = ()):
        _require_level(r)
        if genus < 0:
            raise ValueError("genus must be non-negative")
        for h in boundary:
            _check_label(r, h)
        for name, value in (("r", r), ("genus", genus), ("boundary", boundary)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self):
        return (self.r, self.genus, self.boundary)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        r, genus, boundary = self._fields()
        return f"SurfaceSpec(r={r!r}, genus={genus!r}, boundary={boundary!r})"


def _fuse(r: int, row: list, h: int) -> list:
    """row N_h, where (N_h)_(ab) = N(a, h, b): entry b sums row over the
    window of (h, b), read off one pass of prefix sums."""
    prefix = list(accumulate(row, initial=0))
    out = []
    for b in range(0, 2 * len(row), 2):
        lo, hi = _window(r, h, b)
        out.append(prefix[hi // 2 + 1] - prefix[lo // 2] if lo <= hi else 0)
    return out


def dim_space(spec: SurfaceSpec) -> int:
    """Exact dimension for (genus, boundary labels) from the gluing rules.

    Base cases: a sphere with <= 2 boundary components gives Kronecker
    deltas, three components give the fusion coefficient.  Otherwise the
    dimension is the entry e_(h_0) H^g N_(h_1) ... N_(h_(k-2)) e_(h_(k-1)),
    H = sum_x N_x^2 gluing one handle: the row of the first label is walked
    through g handles, row H = sum_x (row N_x) N_x, and the fusion matrices of
    the inner labels, then read at the last label.  Trailing 0-labels are
    free to add, which settles the closed and one-holed cases."""
    r, g = spec.r, spec.genus
    hs = list(spec.boundary)
    ls = labels(r)

    if g == 0:
        if len(hs) == 0:
            return 1
        if len(hs) == 1:
            return 1 if hs[0] == 0 else 0
        if len(hs) == 2:
            return 1 if hs[0] == hs[1] else 0
    while len(hs) < 2:
        hs.append(0)  # capping with the trivial label leaves the space unchanged

    row = [1 if h == hs[0] else 0 for h in ls]
    for _ in range(g):
        row = [sum(col) for col in zip(*(_fuse(r, _fuse(r, row, x), x) for x in ls))]
    for h in hs[1:-1]:
        row = _fuse(r, row, h)
    return row[hs[-1] // 2]


def _verlinde_polynomial(r: int):
    """Coefficients, highest degree first, of H(a) = a^n F(2 - r/a), n = (r-1)/2.

    F(y) = 1 + S_1(y) + ... + S_n(y), with S_0 = 2, S_1 = y and
    S_(k+1) = y S_k - S_(k-1), so F(2 cos t) = sin(rt/2) / sin(t/2) has the
    roots y_k = 2 cos(2 pi k / r), k = 1..n, and H has the roots
    r / (2 - y_k).  H is integral with leading coefficient F(2) = r."""
    n = (r - 1) // 2
    f = [1] + [0] * n  # ascending in y
    s_prev, s_cur = [2], [0, 1]
    for _ in range(n):
        for i, c in enumerate(s_cur):
            f[i] += c
        s_prev, s_cur = s_cur, [
            (s_cur[i - 1] if i else 0) - (s_prev[i] if i < len(s_prev) else 0)
            for i in range(len(s_cur) + 1)
        ]
    # y^i a^n = (2a - r)^i a^(n-i): its a^(n-i+j) coefficient is C(i,j) 2^j (-r)^(i-j)
    h = [0] * (n + 1)  # ascending in a
    for i, c in enumerate(f):
        for j in range(i + 1):
            h[n - i + j] += c * comb(i, j) * 2**j * (-r) ** (i - j)
    return h[::-1]


def verlinde_dim(r: int, g: int):
    """Closed-surface dimension as the power sum p_(g-1) over alpha_j =
    r csc^2(2 pi j / r) / 4, j = 1..(r-1)/2.  Returns (float value, exact
    integer); the float is a diagnostic only, inf past double range.

    The alpha_j = r / (2 - 2 cos(2 pi k / r)), k = 1..(r-1)/2, are the roots
    of the integer polynomial H of `_verlinde_polynomial`, so Newton's
    identities give every power sum from H's coefficients e_0 = r, e_1, ...:
    e_0 p_m = -(e_1 p_(m-1) + ... + e_(m-1) p_1 + m e_m), with e_k = 0 past
    the degree.  Each division by r must be exact."""
    _require_level(r)
    if g < 1:
        raise ValueError("the power-sum formula needs genus >= 1")
    alphas = [r / (4.0 * sin(2.0 * pi * j / r) ** 2) for j in range(1, (r - 1) // 2 + 1)]
    try:  # past double range the float saturates
        total = sum(alpha ** (g - 1) for alpha in alphas)
    except OverflowError:
        total = inf
    e = _verlinde_polynomial(r)
    n = len(e) - 1
    p = [n]  # p_0
    for m in range(1, g):
        acc = m * e[m] if m <= n else 0
        acc += sum(e[k] * p[m - k] for k in range(1, min(m, n + 1)))
        q, rem = divmod(-acc, e[0])
        if rem:
            raise ArithmeticError(f"Verlinde sum at r={r}, g={g} is not an integer")
        p.append(q)
    return total, p[g - 1]


def twist_multiplicities(r: int):
    """[(2l+1)(r-2l-1)/2 for l = 0..(r-3)/2]: genus-2 twist-eigenvalue
    multiplicities.  Checked to be pairwise distinct and to sum to the
    genus-2 dimension."""
    _require_level(r)
    out = [(2 * l + 1) * (r - 2 * l - 1) // 2 for l in range(0, (r - 1) // 2)]
    if len(set(out)) != len(out):
        raise ArithmeticError("twist multiplicities are not pairwise distinct")
    if sum(out) != dim_space(SurfaceSpec(r, 2)):
        raise ArithmeticError("twist multiplicities do not sum to dim V_2")
    return out


def goslow_margin(r: int, g: int) -> int:
    """C(dim V_g, 2) - dim V_{g+1}, exact.

    At g = 2 the margin has the closed form
    (r+5)(r+3)(r+1) r (r-1)(r-8) / 5760, which is asserted."""
    _require_level(r)
    if r < 7 or g < 2:
        raise ValueError("margin is defined for r >= 7, g >= 2")
    dg = dim_space(SurfaceSpec(r, g))
    dg1 = dim_space(SurfaceSpec(r, g + 1))
    margin = comb(dg, 2) - dg1
    if g == 2:
        closed = (r + 5) * (r + 3) * (r + 1) * r * (r - 1) * (r - 8)
        if closed % 5760 != 0 or margin != closed // 5760:
            raise ArithmeticError("genus-2 margin disagrees with closed form")
    return margin
