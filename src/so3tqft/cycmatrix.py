"""Dense matrices over a cyclotomic field.

CycMatrix is the carrier for every representation matrix in the package.
All entries live in one (rows, cols, degree) integer array of power-basis
coefficients over a single positive denominator, gcd-normalized once per
matrix.  The array is int64 whenever every coefficient fits and an object
array of Python ints otherwise, so the stored data are canonical and key()
is exact.  Every operation has one numpy code path: products accumulate
shifted coefficient blocks and reduce them through the field's reduction
table, exactly as scalar products do, and only the dtype of the work arrays
is chosen per call from a worst-case magnitude bound (int64 where it cannot
overflow, Python ints otherwise).  CycNumber objects are built only at the
API edge: indexing, entries, rows, JSON output and embedding.
"""

from __future__ import annotations

from math import gcd, lcm

import numpy as np

from .cyclo import CycField, CycNumber, work_dtype

__all__ = ["CycMatrix"]

_INT64_MAX = int(np.iinfo(np.int64).max)


def _max_abs(arr) -> int:
    return int(np.abs(arr).max(initial=0))


def _product(field: CycField, a, b):
    """Coefficients of the matrix product of the blocks a (m, n, d) and
    b (n, k, d), denominators aside."""
    m, n, d = a.shape
    k = b.shape[1]
    dt = field.product_dtype(_max_abs(a), _max_abs(b), n)
    a = a.astype(dt, copy=False)
    b = b.astype(dt, copy=False).reshape(n, k * d)
    full = np.zeros((m, k, 2 * d - 1), dtype=dt)
    for p in np.flatnonzero(a.any(axis=(0, 1))):  # skip all-zero coefficient planes
        full[:, :, p : p + d] += (a[:, :, p] @ b).reshape(m, k, d)
    return field.reduce(full)


class CycMatrix:
    """An exact matrix over Q(zeta_N).  Immutable, canonical, hashable."""

    __slots__ = ("field", "rows", "cols", "den", "arr")

    def __init__(self, field: CycField, rows: int, cols: int, entries):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        den = lcm(*(e.den for e in entries))
        arr = np.array(
            [[x * (den // e.den) for x in e.num] for e in entries], dtype=object
        )
        self._set(field, arr.reshape(rows, cols, field.degree), den)

    @classmethod
    def _from_array(cls, field: CycField, arr, den: int) -> "CycMatrix":
        out = cls.__new__(cls)
        out._set(field, arr, den)
        return out

    def _set(self, field, arr, den):
        """Store arr / den in canonical form: gcd-normalized, positive
        denominator (1 for the zero matrix), int64 exactly when every
        coefficient fits."""
        content = int(np.gcd.reduce(arr, axis=None))
        if content == 0:
            den = 1
        g = gcd(content, den)
        if g > 1:
            arr = arr // g
            den //= g
        if arr.dtype == object and _max_abs(arr) <= _INT64_MAX:
            arr = arr.astype(np.int64)
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
    def diagonal(field, diag):
        n = len(diag)
        flat = [diag[i] if i == j else field.zero for i in range(n) for j in range(n)]
        return CycMatrix(field, n, n, flat)

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
        a = self.arr.reshape(-1, 1, d)
        b = np.array(c.num, dtype=object).reshape(1, 1, d)
        out = _product(self.field, a, b).reshape(self.arr.shape)
        return CycMatrix._from_array(self.field, out, self.den * c.den)

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
        out = f.conj_coeffs(self.arr.transpose(1, 0, 2), _max_abs(self.arr))
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
        arr = self.arr
        data = tuple(arr.ravel().tolist()) if arr.dtype == object else arr.tobytes()
        return (self.rows, self.cols, self.den, data)

    def is_zero(self):
        return not self.arr.any()

    def is_identity(self):
        return self.rows == self.cols and self == CycMatrix.identity(
            self.field, self.rows
        )

    def is_scalar(self):
        """Off-diagonal entries exactly zero and diagonal entries exactly equal."""
        if self.rows != self.cols or self.rows == 0:
            return False
        return self == CycMatrix.diagonal(self.field, [self[0, 0]] * self.rows)

    def scalar_value(self):
        if not self.is_scalar():
            raise ValueError("matrix is not scalar")
        return self[0, 0]

    def is_symmetric(self):
        return self.rows == self.cols and self == self.transpose()

    def is_unitary(self):
        if self.rows != self.cols:
            return False
        return (self @ self.conj_transpose()).is_identity()

    def is_diagonal(self):
        off = ~np.eye(self.rows, self.cols, dtype=bool)
        return not self.arr[off].any()

    # -- output ---------------------------------------------------------------------

    def embed(self) -> np.ndarray:
        values = [e.embed() for e in self.entries]
        return np.array(values, dtype=complex).reshape(self.rows, self.cols)

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [e.to_json() for e in self.entries],
        }

    def __repr__(self):
        return f"CycMatrix({self.rows}x{self.cols} over Q(zeta_{self.field.n}))"
