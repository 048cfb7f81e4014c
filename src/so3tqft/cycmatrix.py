"""Dense matrices over a cyclotomic field.

CycMatrix is the carrier for every representation matrix in the package.
All entries live in one (rows, cols, degree) integer array of power-basis
coefficients over a single positive denominator, gcd-normalized once per
matrix.  The array is int64 whenever every coefficient fits and an object
array of Python ints otherwise, so the stored data are canonical and key()
is exact.

Every matrix product, scalar multiples included, takes one route
(_product, which also takes stacks of matrices along leading axes).  For a
split prime p = 1 (mod N), p < 2^20, evaluation at the phi(N) primitive
N-th roots of unity mod p maps Z[zeta_N] / p onto F_p^d, so a product is a
forward transform of both sides, d independent matmuls of residues and an
interpolation back, all as float64 matmuls that are exact because every
sum stays below d p^2 or n p^2 < 2^53 (n, d < 2^13).  Enough primes are
taken, from the field's one table (CycField.split, shared with
CycNumber.inv), for their product to exceed twice the proven bound on the
result's coefficients (CycField.product_bound), and Garner's CRT with
symmetric digits lifts the residues to the exact integers: in int64 while
the primes' product is below 2^61 (work_dtype), in Python ints otherwise.
The package sets OPENBLAS_NUM_THREADS=1 on import unless it is already set,
so these small float64 matmuls run on one BLAS thread.

An identity a b == c needs no product: _product_equals walks the split
primes one at a time and compares both sides at the roots, which takes the
forward matrix alone, with no interpolation, lift or normalization.
CycMatrix.is_unitary is checked that way.  The character-table
certificates of sl2_char also work at the roots, but from the eigenvalue
multiplicities of Dixon's method, with no power-basis table to transform;
sl2_char.borel_check reads its Frobenius integers with _lift.
A lift still runs for every product whose coefficients are kept: @,
scalar_mul, matpow, the closure search and the presentation certificates.
Each prime's interpolation matrix is built only once a lift needs it.

Matrices of roots of unity are built from their exponents: CycMatrix.roots
reads a monomial matrix (the diagonal rho(t), the Heisenberg matrices, the
Weil intertwiner R_t) off the field's power table.  A diagonal one that is
multiplied into words is kept as its exponents by _Letter, so its powers
are power-table lookups; a product by it is an ordinary _product.  _walk
applies (letter, exponent) runs through _Letter.times to a start row or to
nothing: the chain bracket of mfld3 (from the row q), heegaard_word_matrix,
heegaard_tau (from the row e_0) and finite_image._relators_hold.

CycNumber objects are built only at the API edge: indexing, entries, rows
and embedding.  to_json keeps each entry's coefficients as a view of the
array (_Coefficients), written as JSON text only when the report is
emitted, so no Python list per coefficient is built.
"""

from __future__ import annotations

import json
from math import lcm

import numpy as np

from .cyclo import CycField, CycNumber, _max_abs, _mod, work_dtype

__all__ = ["CycMatrix"]

_INT64_MAX = int(np.iinfo(np.int64).max)


def _lift(res, ps, big_p):
    """The integers of magnitude below big_p / 2 with the residues
    res[..., i, :, :] (float64, magnitude at most ps[i]) modulo ps[i]: Garner's
    mixed radix with digits in [-p/2, p/2), summed in the dtype work_dtype
    picks for big_p: int64 for up to three primes, Python ints past."""
    digits = []
    for p in ps:
        x = res[..., len(digits), :, :]
        for q, v in zip(ps, digits):
            x = _mod((x - v) * pow(q, -1, p), p)
        digits.append(_mod(x + p // 2, p) - p // 2)
    dt = work_dtype(big_p)
    out = np.zeros(digits[0].shape, dtype=dt)
    for p, v in zip(ps[::-1], digits[::-1]):
        out *= p
        out += v.astype(np.int64).astype(dt, copy=False)
    return out


def _values(field: CycField, i: int, x, mx: int):
    """The blocks x (..., rows, cols, d), coefficients bounded by mx, at the
    roots of Phi_N modulo split prime i: (..., d, rows, cols) float64, each
    value congruent to the true one and of magnitude at most p (see _mod)."""
    p = int(field.split.p[i])
    d = x.shape[-1]
    x = np.moveaxis(x, -1, -3)
    if mx * d >> 33:  # the transform's sums would pass 2^53: reduce first
        x = x % p
    shape = x.shape[-2:]
    x = x.astype(np.float64, order="C").reshape(x.shape[:-2] + (-1,))
    x = _mod(field.split.forward(i) @ x, p)
    return x.reshape(x.shape[:-1] + shape)


def _primes_for(field: CycField, a, b, extra: int = 0):
    """The split primes that prove the coefficients of the products of the
    blocks a and b, plus anything of magnitude up to `extra`: their product
    exceeds twice field.product_bound + extra.  Returns (primes, product,
    max|a|, max|b|)."""
    n, d = a.shape[-2:]
    if max(n, d) >> 13:
        raise OverflowError("float64 residue sums are exact only below 2^13 terms")
    ma, mb = _max_abs(a), _max_abs(b)
    ps, _, _, big_p = field.split.take(2 * (field.product_bound(ma, mb, n) + extra))
    return ps.tolist(), big_p, ma, mb


def _product(field: CycField, a, b):
    """Coefficients of the matrix products of the blocks a (..., m, n, d) and
    b (..., n, k, d), broadcast over the leading axes, denominators aside:
    the values at the roots of Phi_N modulo enough split primes to cover
    twice field.product_bound, one batched matmul per root, interpolation
    and CRT.  The result is int64 or, past the int64 lift, Python ints."""
    ps, big_p, ma, mb = _primes_for(field, a, b)
    res = None
    for i, p in enumerate(ps):
        prod = _values(field, i, a, ma) @ _values(field, i, b, mb)
        m, k = prod.shape[-2:]
        prod = _mod(prod.reshape(prod.shape[:-2] + (m * k,)), p)
        prod = _mod(field.split.backward(i) @ prod, p)
        if res is None:
            res = np.empty(prod.shape[:-2] + (len(ps),) + prod.shape[-2:])
        res[..., i, :, :] = prod
    out = _lift(res, ps, big_p)
    return np.moveaxis(out.reshape(out.shape[:-1] + (m, k)), -3, -1)


def _product_equals(field: CycField, a, b, c) -> bool:
    """Whether _product(field, a, b) == c, for an integer coefficient stack c
    of the product's shape, decided without forming the product: at each
    split prime in turn both sides are evaluated at the roots by the forward
    matrix alone and compared pointwise, with no interpolation, lift or
    normalization.  Evaluation is an isomorphism Z[zeta_N] / p -> F_p^d, so
    agreement at every prime makes each coefficient of a b - c a multiple of
    the primes' product, which exceeds twice the bound on its magnitude
    (product_bound + max|c|): it is zero.  Stops at the first disagreement."""
    mc = _max_abs(c)
    ps, _, ma, mb = _primes_for(field, a, b, mc)
    for i, p in enumerate(ps):
        lhs = _mod(_values(field, i, a, ma) @ _values(field, i, b, mb), p)
        if _mod(lhs - _values(field, i, c, mc), p).any():
            return False
    return True


def _normalize(arr, den):
    """Canonical form of the stack of matrices arr[i] / den[i]: each divided
    by the gcd of its coefficients and denominator, with denominator 1 for a
    zero matrix.  Returns the numerators (dtype kept) and the denominators
    as an object array of Python ints."""
    lead = (len(arr),) + (1,) * (arr.ndim - 1)
    content = np.gcd.reduce(arr.reshape(len(arr), -1), axis=1).astype(object)
    den = np.where(content == 0, 1, np.asarray(den, dtype=object))
    g = np.gcd(content, den)  # divides the coefficients, so fits their dtype
    return arr // g.astype(arr.dtype).reshape(lead), den // g


def _key(arr, den: int):
    """The canonical hashable key of arr / den, arr already in canonical
    form and storage dtype."""
    data = tuple(arr.ravel().tolist()) if arr.dtype == object else arr.tobytes()
    return (arr.shape[0], arr.shape[1], den, data)


def _storage(arr):
    """arr as stored: int64 exactly when every coefficient fits."""
    if arr.dtype == object and _max_abs(arr) <= _INT64_MAX:
        return arr.astype(np.int64)
    return arr


def _stack_keys(arr, den):
    """The key() of each matrix arr[i] / den[i] of a normalized stack (see
    _normalize), without building the matrices."""
    return [_key(_storage(a), q) for a, q in zip(arr, den.tolist())]


class _Coefficients:
    """The coefficients num / den of one matrix entry as CycNumber.to_json
    writes them, a [numerator, denominator] pair each reduced by its own gcd,
    formed only when written: json_text() is their compact JSON, and the
    object compares equal to, and reprs as, the list of pairs.  So a report
    holds no Python list per coefficient."""

    __slots__ = ("num", "den")

    def __init__(self, num, den: int):
        self.num = num
        self.den = den

    def tolist(self):
        num = self.num if self.den <= _INT64_MAX else self.num.astype(object)
        g = np.gcd(num, self.den)
        return np.stack([num // g, self.den // g], axis=-1).tolist()

    def json_text(self) -> str:
        return json.dumps(self.tolist(), separators=(",", ":"))

    def __eq__(self, other):
        return self.tolist() == other

    def __repr__(self):
        return repr(self.tolist())


class CycMatrix:
    """An exact matrix over Q(zeta_N).  Immutable, canonical, hashable."""

    __slots__ = ("field", "rows", "cols", "den", "arr")

    def __init__(self, field: CycField, rows: int, cols: int, entries):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        den = lcm(*(e.den for e in entries))
        nums = [
            e.num if e.den == den else [x * (den // e.den) for x in e.num]
            for e in entries
        ]
        big = max((max(max(v), -min(v)) for v in nums), default=0)
        arr = np.array(nums, dtype=np.int64 if big <= _INT64_MAX else object)
        self._set(field, arr.reshape(rows, cols, field.degree), den)

    @classmethod
    def _from_array(cls, field: CycField, arr, den: int) -> "CycMatrix":
        out = cls.__new__(cls)
        out._set(field, arr, den)
        return out

    @classmethod
    def _from_normalized(cls, field: CycField, arr, den: int) -> "CycMatrix":
        """arr / den, already in the form _normalize returns."""
        out = cls.__new__(cls)
        out._store(field, arr, den)
        return out

    def _set(self, field, arr, den):
        """Store arr / den in canonical form: gcd-normalized, positive
        denominator (1 for the zero matrix), int64 exactly when every
        coefficient fits."""
        arr, den = _normalize(arr[None], (den,))
        self._store(field, arr[0], den[0])

    def _store(self, field, arr, den):
        arr = _storage(arr)
        arr.setflags(write=False)
        self.field = field
        self.rows, self.cols = arr.shape[:2]
        self.den = den
        self.arr = arr

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rows(field, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return CycMatrix(field, r, c, flat)

    @staticmethod
    def identity(field, n):
        arr = np.zeros((n, n, field.degree), dtype=np.int64)
        arr[range(n), range(n), 0] = 1
        return CycMatrix._from_array(field, arr, 1)

    @staticmethod
    def roots(field, ks, cols=None):
        """The square monomial matrix whose row i holds zeta_N^ks[i] in
        column cols[i], or on the diagonal when cols is None: read off the
        field's power table, with no CycNumber built."""
        ks = np.asarray(ks)
        n = len(ks)
        arr = np.zeros((n, n, field.degree), dtype=np.int64)
        arr[np.arange(n), np.arange(n) if cols is None else cols] = field.pw[ks % field.n]
        return CycMatrix._from_array(field, arr, 1)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return CycNumber(self.field, self.arr[i, j].tolist(), self.den)

    def row(self, i):
        return [CycNumber(self.field, v, self.den) for v in self.arr[i].tolist()]

    @property
    def entries(self):
        """All entries in row-major order."""
        return [e for i in range(self.rows) for e in self.row(i)]

    # -- arithmetic -------------------------------------------------------------

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        if self.cols != other.rows or self.field is not other.field:
            raise ValueError("incompatible matrices")
        out = _product(self.field, self.arr, other.arr)
        return CycMatrix._from_array(self.field, out, self.den * other.den)

    def scalar_mul(self, c: CycNumber) -> "CycMatrix":
        d = self.field.degree
        row = self.arr.reshape(1, -1, d)
        out = _product(self.field, np.array(c.num, dtype=object).reshape(1, 1, d), row)
        return CycMatrix._from_array(self.field, out.reshape(self.arr.shape), self.den * c.den)

    def _combine(self, other, sign):
        """self + sign * other."""
        if (
            self.rows != other.rows
            or self.cols != other.cols
            or self.field is not other.field
        ):
            raise ValueError("shape mismatch")
        den = lcm(self.den, other.den)
        fa = den // self.den
        fb = den // other.den
        dt = work_dtype(max(fa, fb, _max_abs(self.arr) * fa + _max_abs(other.arr) * fb))
        arr = self.arr.astype(dt) * fa + other.arr.astype(dt) * (sign * fb)
        return CycMatrix._from_array(self.field, arr, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return CycMatrix._from_array(self.field, -self.arr, self.den)

    def matpow(self, k: int) -> "CycMatrix":
        if self.rows != self.cols:
            raise ValueError("matrix power needs a square matrix")
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        out = CycMatrix.identity(self.field, self.rows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            if k > 1:
                base = base @ base
            k >>= 1
        return out

    def conj_transpose(self) -> "CycMatrix":
        f = self.field
        out = f.conj_coeffs(self.arr.transpose(1, 0, 2))
        return CycMatrix._from_array(f, out, self.den)

    def transpose(self) -> "CycMatrix":
        return CycMatrix._from_array(self.field, self.arr.transpose(1, 0, 2), self.den)

    # -- predicates ---------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, CycMatrix)
            and self.field is other.field
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash(self.key())

    def key(self):
        """Canonical hashable key (used by the group-closure hash set)."""
        return _key(self.arr, self.den)

    def is_zero(self):
        return not self.arr.any()

    def is_identity(self):
        return self.rows == self.cols and self == CycMatrix.identity(
            self.field, self.rows
        )

    def is_scalar(self):
        """Off-diagonal entries exactly zero and diagonal entries exactly equal
        (on the canonical array, so no entry is built)."""
        if self.rows != self.cols or self.rows == 0:
            return False
        diag = self.arr[range(self.rows), range(self.rows)]
        return self.is_diagonal() and bool((diag == diag[0]).all())

    def scalar_value(self):
        if not self.is_scalar():
            raise ValueError("matrix is not scalar")
        return self[0, 0]

    def is_symmetric(self):
        return self.rows == self.cols and self == self.transpose()

    def is_unitary(self):
        """self @ self^H == I, checked pointwise at the roots (_product_equals)
        as arr @ conj(arr)^T == den^2 I, with no product formed."""
        if self.rows != self.cols:
            return False
        ct = self.conj_transpose()
        den = self.den * ct.den
        eye = np.zeros(self.arr.shape, dtype=work_dtype(den))
        eye[range(self.rows), range(self.rows), 0] = den
        return _product_equals(self.field, self.arr, ct.arr, eye)

    def is_diagonal(self):
        off = ~np.eye(self.rows, self.cols, dtype=bool)
        return not self.arr[off].any()

    # -- output ---------------------------------------------------------------------

    def embed(self) -> np.ndarray:
        values = [e.embed() for e in self.entries]
        return np.array(values, dtype=complex).reshape(self.rows, self.cols)

    def to_json(self):
        """Entries in row-major order as CycNumber.to_json writes them, each
        entry's coefficients kept as a view of the array (_Coefficients)."""
        n, den = self.field.n, self.den
        entries = [{"n": n, "coeffs": _Coefficients(v, den)} for row in self.arr for v in row]
        return {"rows": self.rows, "cols": self.cols, "entries": entries}

    def __repr__(self):
        return f"CycMatrix({self.rows}x{self.cols} over Q(zeta_{self.field.n}))"


def _root_exponents(m: CycMatrix):
    """The exponents k_j with m = diag(zeta_N^k_j), as an array, or None
    when m is not a diagonal of roots of unity."""
    if not m.is_diagonal():
        return None
    ks = [m.field.root_of_unity_exponent(m[j, j]) for j in range(m.rows)]
    return None if None in ks else np.array(ks)


class _Letter:
    """A matrix to be raised to powers and multiplied into words, with its
    powers cached.  A diagonal of roots of unity (rho(t) and its lift) is
    kept as its exponents, so its powers, negative ones included, are read
    off the power table; a product by any power is an ordinary @."""

    __slots__ = ("mat", "exponents", "_powers")

    def __init__(self, mat: CycMatrix):
        self.mat = mat
        self.exponents = _root_exponents(mat)
        self._powers = {}

    def power(self, e: int) -> CycMatrix:
        """mat^e, e >= 0 unless mat is diagonal; a dense one by squaring the
        cached mat^(e//2).  A diagonal one's exponents are taken times e mod
        N, which keeps the int64 products exact for any e."""
        p = self._powers.get(e)
        if p is None:
            m = self.mat
            if self.exponents is not None:
                p = CycMatrix.roots(m.field, self.exponents * (e % m.field.n))
            elif e < 0:
                raise ValueError("only a diagonal letter takes negative powers")
            elif e <= 1:
                p = m if e else CycMatrix.identity(m.field, m.rows)
            else:
                h = self.power(e // 2)
                p = h @ h if e % 2 == 0 else h @ h @ m
            self._powers[e] = p
        return p

    def times(self, m, e: int) -> CycMatrix:
        """m @ mat^e, or mat^e when m is None."""
        return self.power(e) if m is None else m @ self.power(e)


def _walk(start, runs):
    """start @ a^e @ b^f @ ... for the (letter, exponent) runs, by
    _Letter.times; from None the word's matrix, None for no runs."""
    for letter, e in runs:
        start = letter.times(start, e)
    return start
