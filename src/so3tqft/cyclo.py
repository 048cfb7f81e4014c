"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, z, ..., z^(phi(N)-1) reduced modulo
the N-th cyclotomic polynomial, with an integer coefficient vector and a
common positive denominator (gcd-normalized).  This representation is
canonical: two elements are equal iff their stored data are equal, so
CycNumber is hashable and equality is O(1) exact.

Multiplication is one numpy convolution followed by reduction against the
precomputed rows for z^k, k >= phi(N) (CycField.reduce, shared with the
matrix kernel in cycmatrix).  Every product runs the same code; only the
dtype of its work arrays is chosen per call: int64 when a worst-case
magnitude bound proves it cannot overflow, numpy object arrays of Python ints
otherwise (work_dtype), so results are exact and identical either way.
Inversion is the extended Euclidean algorithm against the cyclotomic
polynomial over Q.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

__all__ = [
    "CycField",
    "CycNumber",
    "cyclotomic_polynomial",
    "get_field",
    "zeta",
    "sqrt_r",
    "embed",
    "is_odd_prime",
]


def is_odd_prime(r: int) -> bool:
    if r < 3 or r % 2 == 0:
        return False
    f = 3
    while f * f <= r:
        if r % f == 0:
            return False
        f += 2
    return True


def _polydiv_int(num, den):
    """Exact division of integer polynomials (raises if not exact)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            q, rem = divmod(c, den[dd])
            if rem:
                raise ArithmeticError("non-exact polynomial division")
            out[i - dd] = q
            for j in range(dd + 1):
                num[i - dd + j] -= q * den[j]
    if any(num[:dd]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients of Phi_n, ascending degree, computed by dividing x^n - 1
    by Phi_d for all proper divisors d of n."""
    if n < 1:
        raise ValueError("n must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_int(poly, cyclotomic_polynomial(d))
    return tuple(poly)


# int64 work is safe when the worst-case accumulated magnitude stays below this
_INT64_GUARD = 1 << 61


def work_dtype(bound: int):
    """dtype for exact integer work whose magnitudes are at most `bound`:
    int64 when that provably cannot overflow, Python ints (object) otherwise."""
    return np.int64 if bound < _INT64_GUARD else object


class CycField:
    """Shared immutable data for Q(zeta_N): reduction tables, power tables,
    and the pieces of the exact product kernel.  Obtain instances via
    get_field(N)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("modulus must be a positive integer")
        self.n = n
        phi = cyclotomic_polynomial(n)
        self.poly = phi
        d = len(phi) - 1
        self.degree = d

        # rows[k - d] = coefficients of x^k mod Phi_n for k in [d, 2d-2]
        rows = []
        cur = [-c for c in phi[:-1]]
        if d >= 1:
            rows.append(tuple(cur))
        for _ in range(d + 1, 2 * d - 1):
            nxt = [0] + cur[: d - 1]
            lead = cur[d - 1]
            if lead:
                for j in range(d):
                    nxt[j] -= lead * phi[j]
            cur = nxt
            rows.append(tuple(cur))
        self.red_np = (
            np.array(rows, dtype=np.int64)
            if rows
            else np.zeros((0, d), dtype=np.int64)
        )
        self.red_max = int(np.abs(self.red_np).max()) if rows else 0

        # power table: zeta^k in the basis, for k in [0, N)
        pw = np.zeros((n, d), dtype=np.int64)
        cur = np.zeros(d, dtype=np.int64)
        cur[0] = 1
        for k in range(n):
            pw[k] = cur
            nxt = np.roll(cur, 1)
            nxt[0] = 0
            lead = cur[d - 1]
            if lead and d >= 1 and len(rows):
                nxt = nxt + lead * self.red_np[0]
            cur = nxt
        self.pw = pw
        self.pw.setflags(write=False)

        # conjugation zeta^j -> zeta^(N-j) as an integer matrix acting on
        # coefficient vectors from the left: conj(v) = conj_mat @ v is wrong
        # shape-wise; we use v @ conj_rows with conj_rows[j] = repr of zeta^(-j)
        conj_rows = np.zeros((d, d), dtype=np.int64)
        for j in range(d):
            conj_rows[j] = pw[(n - j) % n]
        self.conj_rows = conj_rows
        self.conj_max = int(np.abs(conj_rows).max())

        self.unit_complex = np.array(
            [cmath.exp(2j * cmath.pi * k / n) for k in range(d)]
        )
        self._root_index = None

        self.one = CycNumber(self, (1,) + (0,) * (d - 1), 1, _normalized=True)
        self.zero = CycNumber(self, (0,) * d, 1, _normalized=True)

    def __repr__(self):
        return f"CycField(Q(zeta_{self.n}))"

    def product_dtype(self, ma: int, mb: int, terms: int = 1):
        """Work dtype for a sum of `terms` products of coefficient vectors
        bounded by ma and mb: bounds the operands, the convolution and its
        reduction."""
        d = self.degree
        return work_dtype(max(ma, mb, ma * mb * terms * d * (1 + d * self.red_max)))

    def reduce(self, full):
        """Reduce convolution coefficients (last axis, length <= 2d - 1)
        modulo Phi_N; the dtype of `full` is kept."""
        d = self.degree
        tail = full[..., d:]
        red = self.red_np[: tail.shape[-1]].astype(full.dtype, copy=False)
        return full[..., :d] + tail @ red

    def conj_coeffs(self, arr, ma: int):
        """Coefficients of the complex conjugates of the elements stored
        along the last axis of arr, whose coefficients are bounded by ma."""
        dt = work_dtype(ma * self.conj_max * self.degree)
        return arr.astype(dt, copy=False) @ self.conj_rows.astype(dt, copy=False)

    def zeta_power(self, k: int) -> "CycNumber":
        """zeta_N^k as an exact element (k may be any integer)."""
        row = self.pw[k % self.n]
        return CycNumber(self, tuple(int(x) for x in row), 1, _normalized=True)

    def from_int(self, a: int) -> "CycNumber":
        return CycNumber(self, (int(a),) + (0,) * (self.degree - 1), 1)

    def from_fraction(self, q) -> "CycNumber":
        q = Fraction(q)
        return CycNumber(
            self, (int(q.numerator),) + (0,) * (self.degree - 1), int(q.denominator)
        )

    def root_of_unity_exponent(self, x: "CycNumber"):
        """If x == zeta_N^k return k, else None."""
        if self._root_index is None:
            self._root_index = {
                tuple(int(v) for v in self.pw[k]): k for k in range(self.n)
            }
        if x.den != 1:
            return None
        return self._root_index.get(x.num)


@lru_cache(maxsize=None)
def get_field(n: int) -> CycField:
    return CycField(n)


class CycNumber:
    """An exact element of Q(zeta_N).  Immutable, canonical, hashable."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycField, num, den: int = 1, _normalized=False):
        self.field = field
        if _normalized:
            self.num = num
            self.den = den
            return
        num = tuple(map(int, num))
        den = int(den)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if len(num) != field.degree:
            raise ValueError("coefficient vector has wrong length")
        g = gcd(*num)
        if g == 0:
            self.num = (0,) * field.degree
            self.den = 1
            return
        g = gcd(g, den)
        if den < 0:
            g = -g
        if g != 1:
            num = tuple(x // g for x in num)
            den //= g
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q, n: int) -> "CycNumber":
        return get_field(n).from_fraction(q)

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNumber):
            if other.field is not self.field:
                raise ValueError("operands live in different cyclotomic fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction):
            return self.field.from_fraction(other)
        return None

    def is_zero(self) -> bool:
        return self.den == 1 and not any(self.num)

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self.num[0], self.den)

    def max_abs_coeff(self) -> int:
        return max(map(abs, self.num), default=0)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return CycNumber(self.field, [x + y for x, y in zip(self.num, o.num)], da)
        g = gcd(da, db)
        l = da // g * db
        fa, fb = l // da, l // db
        return CycNumber(
            self.field, [x * fa + y * fb for x, y in zip(self.num, o.num)], l
        )

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(
            self.field, tuple(-x for x in self.num), self.den, _normalized=True
        )

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        ma = self.max_abs_coeff()
        mb = o.max_abs_coeff()
        if ma == 0 or mb == 0:
            return f.zero
        dt = f.product_dtype(ma, mb)
        full = np.convolve(np.array(self.num, dtype=dt), np.array(o.num, dtype=dt))
        return CycNumber(f, f.reduce(full).tolist(), self.den * o.den)

    __rmul__ = __mul__

    def inv(self) -> "CycNumber":
        """Multiplicative inverse via extended Euclid against Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_%d)" % self.field.n)
        f = self.field
        u = _poly_invert_mod(self.num, f.poly)
        l = 1
        for q in u:
            l = l // gcd(l, q.denominator) * q.denominator
        nums = [int(q * l) for q in u] + [0] * (f.degree - len(u))
        return CycNumber(f, [x * self.den for x in nums], l)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self.inv() if k < 0 else self
        k = abs(k)
        out = self.field.one
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def conj(self) -> "CycNumber":
        """Complex conjugation, the field automorphism zeta -> zeta^(-1)."""
        f = self.field
        v = f.conj_coeffs(np.array(self.num, dtype=object), self.max_abs_coeff())
        return CycNumber(f, v.tolist(), self.den)

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, CycNumber) else other
        if o is None:
            return NotImplemented
        if isinstance(o, CycNumber) and o.field is not self.field:
            return False
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.field.n, self.num, self.den))

    # -- output --------------------------------------------------------------

    def embed(self) -> complex:
        """Principal embedding zeta_N -> exp(2*pi*i/N)."""
        acc = 0j
        uc = self.field.unit_complex
        for j, x in enumerate(self.num):
            if x:
                acc += x * uc[j]
        return complex(acc) / self.den

    def lift_to(self, field: "CycField") -> "CycNumber":
        """Image under the embedding zeta_m -> zeta_n^(n/m), m | n."""
        if field is self.field:
            return self
        if field.n % self.field.n != 0:
            raise ValueError("target modulus must be a multiple of the source")
        step = field.n // self.field.n
        acc = field.zero
        for j, x in enumerate(self.num):
            if x:
                acc = acc + field.zeta_power(step * j) * x
        return CycNumber(field, acc.num, acc.den * self.den)

    def to_json(self):
        coeffs = []
        for x in self.num:
            q = Fraction(x, self.den)
            coeffs.append([q.numerator, q.denominator])
        return {"n": self.field.n, "coeffs": coeffs}

    @staticmethod
    def from_json(obj) -> "CycNumber":
        f = get_field(int(obj["n"]))
        acc = f.zero
        for j, (num, den) in enumerate(obj["coeffs"]):
            if num:
                acc = acc + f.zeta_power(j) * Fraction(num, den)
        return acc

    def __repr__(self):
        terms = []
        for j, x in enumerate(self.num):
            if x:
                if j == 0:
                    terms.append(f"{x}")
                elif j == 1:
                    terms.append(f"{x}*z")
                else:
                    terms.append(f"{x}*z^{j}")
        body = " + ".join(terms) if terms else "0"
        if self.den != 1:
            body = f"({body})/{self.den}"
        return f"Cyc[{self.field.n}]({body})"


def _poly_invert_mod(num, modpoly):
    """Inverse of the integer polynomial `num` modulo `modpoly` over Q.

    Returns Fraction coefficients u with u*num = 1 (mod modpoly)."""

    def trim(p):
        dd = len(p) - 1
        while dd >= 0 and p[dd] == 0:
            dd -= 1
        return p[: dd + 1]

    r0 = trim([Fraction(x) for x in num])
    r1 = trim([Fraction(x) for x in modpoly])
    s0, s1 = [Fraction(1)], []
    while r1:
        q = [Fraction(0)] * (max(len(r0) - len(r1), 0) + 1)
        rem = list(r0)
        while len(rem) >= len(r1) and rem:
            c = rem[-1] / r1[-1]
            sh = len(rem) - len(r1)
            q[sh] += c
            for i, yc in enumerate(r1):
                rem[sh + i] -= c * yc
            rem = trim(rem)
        q = trim(q)
        prod = [Fraction(0)] * (len(q) + len(s1) if s1 and q else 0)
        for i, qc in enumerate(q):
            if qc:
                for j, pc in enumerate(s1):
                    prod[i + j] += qc * pc
        news = list(s0) + [Fraction(0)] * max(0, len(prod) - len(s0))
        for i, pc in enumerate(prod):
            news[i] -= pc
        r0, r1 = r1, rem
        s0, s1 = s1, trim(news)
    if len(r0) != 1 or r0[0] == 0:
        raise ZeroDivisionError("element is a zero divisor (not invertible)")
    c = r0[0]
    return [x / c for x in s0]


def zeta(n: int) -> CycNumber:
    """A primitive n-th root of unity, embed(zeta(n)) = exp(2*pi*i/n)."""
    return get_field(n).zeta_power(1)


def embed(x: CycNumber) -> complex:
    return x.embed()


def _legendre(k: int, r: int) -> int:
    k %= r
    if k == 0:
        return 0
    return 1 if pow(k, (r - 1) // 2, r) == 1 else -1


def sqrt_r(r: int) -> CycNumber:
    """The positive square root of r inside Q(zeta_{4r}), r an odd prime.

    Built from the quadratic Gauss sum g = sum_k (k|r) zeta_r^k, which equals
    sqrt(r) for r = 1 mod 4 and i*sqrt(r) for r = 3 mod 4; the latter is
    corrected by zeta_4^(-1) = zeta_{4r}^(-r)."""
    if not is_odd_prime(r):
        raise ValueError("r must be an odd prime")
    f = get_field(4 * r)
    acc = f.zero
    for k in range(1, r):
        term = f.zeta_power(4 * k)  # zeta_r^k = zeta_{4r}^{4k}
        acc = acc + term if _legendre(k, r) == 1 else acc - term
    if r % 4 == 3:
        acc = acc * f.zeta_power(-r)
    if acc * acc != f.from_int(r):
        raise ArithmeticError("Gauss sum construction failed")
    if acc.embed().real <= 0:
        acc = -acc
    return acc
