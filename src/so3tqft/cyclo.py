"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, z, ..., z^(phi(N)-1) reduced modulo
the N-th cyclotomic polynomial, with an integer coefficient vector and a
common positive denominator (gcd-normalized).  This representation is
canonical: two elements are equal iff their stored data are equal, so
CycNumber is hashable and equality is O(1) exact.

Multiplication is one numpy convolution followed by reduction against the
rows for z^k, k >= phi(N) (CycField.reduce).  Those rows, the conjugation
rows and the whole power table of the zeta^k, k < N, are all zeta^k reduced
modulo Phi_N, read off one walk (CycField.rows) and each built only when
first read: a large field, such as the one Dixon's character values live
in, builds no (N, d) table unless a caller asks for one.  Every scalar
product runs the same code; only the dtype of its work arrays is chosen per
call: int64 when a worst-case magnitude bound proves it cannot overflow,
numpy object arrays of Python ints otherwise (work_dtype), so results are
exact and identical either way.

Inversion is multimodular.  For x = num/den, the inverse of num is
adj(M) e_0 / det(M), with M the integer matrix of multiplication by num; the
Hadamard bound on M fixes how many primes p = 1 (mod N), p < 2^20, are
needed.  Modulo each such prime Phi_N splits into linear factors, so
adj(M) e_0 and det(M) are found by evaluating num at the phi(N) primitive
N-th roots of unity mod p, taking products and interpolating back, in
float64 numpy arithmetic reduced by x - p floor(x / p) (_mod), which is
exact because every product of two residues is below 2^40.  The Chinese
remainder theorem and a symmetric lift give the exact integers, and one
exact product x * x^-1 == 1 checks the result.  M is never formed: its
column j is num z^j, so the column norms of the Hadamard bound are read off
the same walk started at num (CycField.shifts).
The primes and their roots are one table per field (CycField.split), which
the matrix products of cycmatrix share.
"""

from __future__ import annotations

import cmath
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import count, islice
from math import gcd

import numpy as np

from .levels import is_odd_prime, is_prime, prime_divisors

__all__ = [
    "CycField",
    "CycNumber",
    "cyclotomic_polynomial",
    "get_field",
    "zeta",
    "sqrt_r",
    "embed",
    "is_prime",
    "is_odd_prime",
]


def _split_primes(n: int):
    """Primes p = 1 (mod n) below 2^20, largest first.  Phi_n splits into
    distinct linear factors mod p, and a sum of fewer than 2^13 products of
    two residues stays below 2^53, so it is exact in float64."""
    p = ((1 << 20) - 2) // n * n + 1
    while p > 1:
        if is_prime(p):
            yield p
        p -= n


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients of Phi_n, ascending degree, by the product formula
    Phi_n = prod_{m | n} (x^(n/m) - 1)^mu(m) over the squarefree m: multiply
    by the factors with mu(m) = 1, then divide exactly by the others."""
    if n < 1:
        raise ValueError("n must be positive")
    squarefree = [(1, 1)]  # (m, mu(m))
    for p in prime_divisors(n):
        squarefree += [(m * p, -mu) for m, mu in squarefree]
    poly = [1]
    for d in [n // m for m, mu in squarefree if mu == 1]:
        # (x^d - 1) p: coefficient i is p_(i-d) - p_i
        padded = poly + [0] * d
        poly = [(padded[i - d] if i >= d else 0) - padded[i] for i in range(len(padded))]
    for d in [n // m for m, mu in squarefree if mu == -1]:
        # p = (x^d - 1) q: q_i = q_(i-d) - p_i
        q = []
        for i in range(len(poly) - d):
            q.append((q[i - d] if i >= d else 0) - poly[i])
        poly = q
    return tuple(poly)


# int64 work is safe when the worst-case accumulated magnitude stays below this
_INT64_GUARD = 1 << 61


def work_dtype(bound: int):
    """dtype for exact integer work whose magnitudes are at most `bound`:
    int64 when that provably cannot overflow, Python ints (object) otherwise."""
    return np.int64 if bound < _INT64_GUARD else object


def _max_abs(arr) -> int:
    return int(np.abs(arr).max(initial=0))


def _int_matmul(a, b):
    """a @ b exactly, for integer arrays of any dtype: in int64 when
    max|a| max|b| times the contracted length is below 2^61 (work_dtype),
    in Python ints otherwise."""
    dt = work_dtype(_max_abs(a) * _max_abs(b) * a.shape[-1])
    return a.astype(dt, copy=False) @ b.astype(dt, copy=False)


def _mod(x, p):
    """x - p floor(x / p) in place, for float64 integers |x| < 2^53: the
    residue, or the residue minus p when the quotient rounds up (never for
    |x| < 2p, where the quotient is far from its floor's rounding)."""
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


class _SplitTable:
    """The primes of _split_primes(N) in order, each with the phi(N) primitive
    N-th roots of unity mod p and the inverses w of Phi_N' at them.  Empty
    until used, then extended only as far as one inversion or product has
    needed.  Each prime's float64 transforms are built on first use and kept:
    the evaluation matrix (row k: the powers of the root alpha_k), which
    every product and identity check needs, and the interpolation matrix
    (column k: w_k times the coefficients of Phi_N / (x - alpha_k)), which
    only a lifted product needs; fwd @ coefficients are the values at the
    roots and back @ values the coefficients again, mod p."""

    def __init__(self, n: int, poly):
        self.n = n
        self.poly = poly
        self.units = [e for e in range(n) if gcd(e, n) == 1]
        self.stream = _split_primes(n)
        self.products = [1]  # products[i] = p_0 * ... * p_(i-1)
        d = len(self.units)
        self.p = np.zeros(0, dtype=np.int64)
        self.roots = np.zeros((0, d), dtype=np.int64)
        self.w = np.zeros((0, d), dtype=np.int64)
        self._fwd, self._back = {}, {}

    def take(self, bound: int):
        """(p, roots, w, P) for the shortest nonempty prefix of primes whose
        product P exceeds `bound`."""
        bound = max(bound, 1)
        new = []
        while self.products[-1] <= bound:
            p = next(self.stream, None)
            if p is None:
                raise OverflowError(f"too few split primes below 2^20 for Q(zeta_{self.n})")
            new.append(p)
            self.products.append(self.products[-1] * p)
        if new:
            self._extend(new)
        k = bisect_right(self.products, bound)
        return self.p[:k], self.roots[:k], self.w[:k], self.products[k]

    def forward(self, i: int):
        """The (d, d) evaluation matrix of prime i, i < len(self.p)."""
        fwd = self._fwd.get(i)
        if fwd is None:
            p, roots = self.p[i], self.roots[i]
            fwd = np.empty((len(roots),) * 2)
            col = np.ones_like(roots)
            for j in range(len(roots)):
                fwd[:, j] = col
                col = col * roots % p
            self._fwd[i] = fwd
        return fwd

    def backward(self, i: int):
        """The (d, d) interpolation matrix of prime i, i < len(self.p)."""
        back = self._back.get(i)
        if back is None:
            p, roots, w = self.p[i], self.roots[i], self.w[i]
            back = np.empty((len(roots),) * 2)
            # the recurrence of CycNumber.inv: q_(d-1) = 1, q_(j-1) = c_j + alpha q_j
            q = np.ones_like(roots)
            for j in range(len(roots) - 1, -1, -1):
                back[j] = w * q % p
                q = (q * roots + self.poly[j]) % p
            self._back[i] = back
        return back

    def _extend(self, primes):
        n, poly = self.n, self.poly
        rows = []
        for p in primes:
            for g in count(2):
                om = pow(g, (p - 1) // n, p)
                pw = [1]
                for _ in range(n - 1):
                    pw.append(pw[-1] * om % p)
                if 1 not in pw[1:]:  # om has order exactly n
                    break
            rows.append([pw[e] for e in self.units])
        roots = np.array(rows, dtype=np.int64)
        p = np.array(primes, dtype=np.int64)[:, None]
        dphi = np.zeros_like(roots)
        for j in range(len(poly) - 1, 0, -1):
            dphi = (dphi * roots + j * poly[j]) % p
        w = [[pow(x, -1, q) for x in row] for q, row in zip(primes, dphi.tolist())]
        self.p = np.concatenate([self.p, p[:, 0]])
        self.roots = np.concatenate([self.roots, roots])
        self.w = np.concatenate([self.w, np.array(w, dtype=np.int64)])


class CycField:
    """Shared immutable data for Q(zeta_N): the cyclotomic polynomial, the
    pieces of the exact product kernel, and the tables read off the powers
    of zeta (rows), each built on first use and kept.  Obtain instances via
    get_field(N)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("modulus must be a positive integer")
        self.n = n
        phi = cyclotomic_polynomial(n)
        self.poly = phi
        d = len(phi) - 1
        self.degree = d

        self.unit_complex = np.array(
            [cmath.exp(2j * cmath.pi * k / n) for k in range(d)]
        )
        self._root_index = None
        self.split = _SplitTable(n, phi)

        self.one = CycNumber(self, (1,) + (0,) * (d - 1), 1, _normalized=True)
        self.zero = CycNumber(self, (0,) * d, 1, _normalized=True)

    def shifts(self, start):
        """x^j start modulo Phi_N for j = 0, 1, 2, ...: one copy of `start`,
        shifted in place and in its dtype per step, x^d = -(Phi_N - x^d)."""
        row = start.copy()
        top = -np.array(self.poly[:-1], dtype=row.dtype)
        while True:
            yield row
            lead = row[-1]
            row[1:] = row[:-1]
            row[0] = 0
            row += lead * top

    def rows(self, ks):
        """zeta^k in the power basis for each integer k of the array ks (any
        sign or size), as an int64 array of shape ks.shape + (d,): the
        remainder of x^(k mod N) modulo Phi_N, read off the shifts of 1
        walked up to the largest k mod N asked for."""
        ks = np.asarray(ks, dtype=np.int64) % self.n
        flat = ks.ravel().tolist()
        at = {k: j for j, k in enumerate(set(flat))}
        d = self.degree
        out = np.empty((len(at), d), dtype=np.int64)
        one = np.array(self.one.num, dtype=np.int64)
        for k, row in zip(range(max(at, default=-1) + 1), self.shifts(one)):
            if k in at:
                out[at[k]] = row
        return out[[at[k] for k in flat]].reshape(ks.shape + (d,))

    @cached_property
    def pw(self):
        """The power table, rows(arange(N)): the (N, d) array that the
        monomial matrices and root lookups of the small fields read."""
        pw = self.rows(np.arange(self.n))
        pw.setflags(write=False)
        return pw

    @cached_property
    def red_np(self):
        """The reduction rows x^k, d <= k <= 2d - 2, which are zeta^k since
        x^N = 1 modulo Phi_N."""
        return self.rows(np.arange(self.degree, 2 * self.degree - 1))

    @cached_property
    def red_max(self) -> int:
        return _max_abs(self.red_np)

    @cached_property
    def conj_rows(self):
        """The conjugates zeta^-j of the basis, j < d."""
        return self.rows(-np.arange(self.degree))

    def __repr__(self):
        return f"CycField(Q(zeta_{self.n}))"

    def product_bound(self, ma: int, mb: int, terms: int = 1) -> int:
        """Bound on every magnitude met in a sum of `terms` products of
        coefficient vectors bounded by ma and mb: the operands, every partial
        sum of the convolution and of its reduction."""
        d = self.degree
        return max(ma, mb, ma * mb * terms * d * (1 + d * self.red_max))

    def reduce(self, full):
        """Reduce convolution coefficients (last axis, length <= 2d - 1)
        modulo Phi_N; the dtype of `full` is kept."""
        d = self.degree
        tail = full[..., d:]
        red = self.red_np[: tail.shape[-1]].astype(full.dtype, copy=False)
        return full[..., :d] + tail @ red

    def lift_coeffs(self, arr, source: "CycField"):
        """Coefficients here of the elements of Q(zeta_m), m | N, stored
        along the last axis of arr: the image under zeta_m -> zeta_N^(N/m),
        zeta_m^j being the row of zeta_N^(j N/m)."""
        if self.n % source.n:
            raise ValueError("target modulus must be a multiple of the source")
        return _int_matmul(arr, self.rows(self.n // source.n * np.arange(source.degree)))

    def conj_coeffs(self, arr):
        """Coefficients of the complex conjugates of the elements stored
        along the last axis of arr."""
        return _int_matmul(arr, self.conj_rows)

    def zeta_power(self, k: int) -> "CycNumber":
        """zeta_N^k as an exact element (k may be any integer)."""
        row = self.pw[k % self.n]
        return CycNumber(self, tuple(row.tolist()), 1, _normalized=True)

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
        dt = work_dtype(f.product_bound(ma, mb))
        full = np.convolve(np.array(self.num, dtype=dt), np.array(o.num, dtype=dt))
        return CycNumber(f, f.reduce(full).tolist(), self.den * o.den)

    __rmul__ = __mul__

    def inv(self) -> "CycNumber":
        """Multiplicative inverse, by the multimodular method in the module
        docstring."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_%d)" % self.field.n)
        f = self.field
        d = f.degree
        ma = self.max_abs_coeff()

        # Hadamard: |det M| and the entries of adj(M) e_0 are at most
        # H = prod |column| < 2^(s/2); the primes' product must exceed 2H.
        # Column j is num z^j, step j of the shift walk: each entry is at
        # most e = ma d max(1, red_max), so d e^2 bounds every step and norm
        e = ma * d * max(1, f.red_max)
        num = np.array(self.num, dtype=work_dtype(d * e * e))
        s = sum(int(col @ col).bit_length() for col in islice(f.shifts(num), d))
        ps, roots, w, big_p = f.split.take(1 << (1 + (s + 1) // 2))

        # every product of two residues is below 2^40 and every sum of d such
        # products below 2^53, so x - p floor(x / p) in float64 (_mod) is exact
        p = ps[:, None].astype(np.float64)
        roots, w = roots.astype(np.float64), w.astype(np.float64)
        a = (num % ps.astype(num.dtype)[:, None]).astype(np.float64)
        v = np.zeros_like(roots)
        for j in range(d - 1, -1, -1):  # v = num(roots)
            v = _mod(v * roots + a[:, j, None], p)
        # adj(M) e_0 takes the value prod_{l != k} num(alpha_l) at alpha_k;
        # no residue is inverted, so a prime dividing det(M) serves as well.
        # left[k] = prod_{l < k} v_l and right[k] = prod_{l > k} v_l, by
        # doubling the span of each product
        left, right = np.ones_like(v), np.ones_like(v)
        left[:, 1:], right[:, :-1] = v[:, :-1], v[:, 1:]
        span = 1
        while span < d:
            left[:, span:] = _mod(left[:, span:] * left[:, :-span], p)
            right[:, :-span] = _mod(right[:, :-span] * right[:, span:], p)
            span *= 2
        z = _mod(_mod(left * right, p) * w, p)
        # interpolate: adj(M) e_0 = sum_k z_k Phi(x) / (x - alpha_k), whose
        # coefficients are q_(d-1) = 1, q_(j-1) = c_j + alpha q_j
        res = np.empty((len(ps), d + 1))
        res[:, d] = left[:, -1] * v[:, -1]  # det(M)
        q = np.ones_like(v)
        for j in range(d - 1, -1, -1):
            res[:, j] = (z * q).sum(axis=1)
            q = _mod(q * roots + f.poly[j], p)
        res = _mod(res, p)

        crt = [big_p // pi * pow(big_p // pi, -1, pi) for pi in ps.tolist()]
        lifted = (res.T.astype(np.int64).astype(object) @ np.array(crt, dtype=object)) % big_p
        y = [x - big_p if 2 * x > big_p else x for x in lifted.tolist()]
        u = CycNumber(f, [x * self.den for x in y[:d]], y[d])
        if self * u != f.one:
            raise ArithmeticError("multimodular inverse failed its exact check")
        return u

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
        v = f.conj_coeffs(np.array(self.num, dtype=object))
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
        num = field.lift_coeffs(np.array(self.num, dtype=object), self.field)
        return CycNumber(field, num.tolist(), self.den)

    def to_json(self):
        """Each coefficient as a reduced fraction [numerator, denominator]."""
        den = self.den
        coeffs = []
        for x in self.num:
            g = gcd(x, den)
            coeffs.append([x // g, den // g])
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
