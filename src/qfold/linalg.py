"""Exact linear algebra over an arbitrary field.

Matrices are immutable and generic over the entry type: anything with
field arithmetic (+, -, *, /, ==, bool) works, so the same code runs over
`fractions.Fraction`, prime fields (`qfold.numberfield.Fp`) and number
fields (`qfold.numberfield.NumberFieldElement`).  Zero-row and zero-column
matrices are first-class citizens; shape is always carried explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import NotInvertible, ShapeMismatch

QQ0 = Fraction(0)
QQ1 = Fraction(1)


class Mat:
    """Immutable matrix with explicit shape."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ShapeMismatch(f"data does not match shape {rows}x{cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", tuple(tuple(r) for r in data))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Mat is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rows(data: Sequence[Sequence]) -> "Mat":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return Mat(rows, cols, data)

    @staticmethod
    def zeros(rows: int, cols: int, zero=QQ0) -> "Mat":
        return Mat(rows, cols, [[zero] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int, one=QQ1) -> "Mat":
        zero = one - one
        return Mat(n, n, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def rational(data: Sequence[Sequence]) -> "Mat":
        """Build a matrix of Fractions from ints/strings/Fractions."""
        return Mat.from_rows([[Fraction(x) for x in row] for row in data])

    # -- basics -------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {list(map(list, self.data))})"

    def __getitem__(self, rc):
        r, c = rc
        return self.data[r][c]

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def map(self, f: Callable) -> "Mat":
        return Mat(self.rows, self.cols, [[f(x) for x in row] for row in self.data])

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows, [[self.data[r][c] for r in range(self.rows)] for c in range(self.cols)])

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("add: shapes differ")
        return Mat(self.rows, self.cols,
                   [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("sub: shapes differ")
        return Mat(self.rows, self.cols,
                   [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __neg__(self) -> "Mat":
        return self.map(lambda x: -x)

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ShapeMismatch(f"mul: {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            ot = other.transpose().data
            return Mat(self.rows, other.cols,
                       [[_dot(r, c) for c in ot] for r in self.data])
        return self.map(lambda x: x * other)

    def __rmul__(self, scalar):
        return self.map(lambda x: scalar * x)

    def scaled(self, s) -> "Mat":
        return self.map(lambda x: x * s)

    # -- block operations ---------------------------------------------
    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack: row counts differ")
        return Mat(self.rows, self.cols + other.cols,
                   [list(r1) + list(r2) for r1, r2 in zip(self.data, other.data)])

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack: column counts differ")
        return Mat(self.rows + other.rows, self.cols, list(self.data) + list(other.data))

    @staticmethod
    def block_diag(blocks: Sequence["Mat"], zero=QQ0) -> "Mat":
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = [[zero] * cols for _ in range(rows)]
        r0 = c0 = 0
        for b in blocks:
            for r in range(b.rows):
                for c in range(b.cols):
                    out[r0 + r][c0 + c] = b.data[r][c]
            r0 += b.rows
            c0 += b.cols
        return Mat(rows, cols, out)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        return Mat(len(row_idx), len(col_idx),
                   [[self.data[r][c] for c in col_idx] for r in row_idx])

    def columns(self) -> list["Mat"]:
        return [self.submatrix(range(self.rows), [c]) for c in range(self.cols)]

    # -- reductions ---------------------------------------------------
    def rref(self) -> tuple["Mat", list[int]]:
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        m = [list(r) for r in self.data]
        pivots: list[int] = []
        pr = 0
        for pc in range(self.cols):
            pivot_row = next((r for r in range(pr, self.rows) if m[r][pc]), None)
            if pivot_row is None:
                continue
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
            inv = m[pr][pc]
            m[pr] = [x / inv for x in m[pr]]
            for r in range(self.rows):
                if r != pr and m[r][pc]:
                    f = m[r][pc]
                    m[r] = [a - f * b for a, b in zip(m[r], m[pr])]
            pivots.append(pc)
            pr += 1
            if pr == self.rows:
                break
        return Mat(self.rows, self.cols, m), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullity(self) -> int:
        return self.cols - self.rank()

    def nullspace(self, one=QQ1) -> "Mat":
        """Basis of the right kernel, returned as columns of a cols x k matrix."""
        zero = one - one
        red, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = [zero] * self.cols
            v[fc] = one
            for pr, pc in enumerate(pivots):
                v[pc] = -red.data[pr][fc]
            basis.append(v)
        return Mat(self.cols, len(basis), [[basis[k][r] for k in range(len(basis))] for r in range(self.cols)])

    def solve(self, rhs: "Mat"):
        """One solution X of self * X = rhs, or None if inconsistent.

        Free variables are set to zero, so the answer is deterministic.
        """
        if rhs.rows != self.rows:
            raise ShapeMismatch("solve: rhs row count differs")
        aug = self.hstack(rhs)
        red, pivots = aug.rref()
        n = self.cols
        if any(p >= n for p in pivots):
            return None
        zero_candidates = [x - x for row in self.data for x in row] or [QQ0]
        zero = zero_candidates[0]
        sol = [[zero] * rhs.cols for _ in range(n)]
        for pr, pc in enumerate(pivots):
            for c in range(rhs.cols):
                sol[pc][c] = red.data[pr][n + c]
        return Mat(n, rhs.cols, sol)

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise NotInvertible("inverse of non-square matrix")
        if self.rows == 0:
            return self
        one = _one_of(self)
        aug = self.hstack(Mat.identity(self.rows, one))
        red, pivots = aug.rref()
        if pivots != list(range(self.rows)):
            raise NotInvertible("singular matrix")
        return red.submatrix(range(self.rows), range(self.rows, 2 * self.rows))

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def det(self):
        """Determinant by fraction-free-ish Gaussian elimination (field entries)."""
        if self.rows != self.cols:
            raise ShapeMismatch("det of non-square matrix")
        if self.rows == 0:
            return QQ1
        one = _one_of(self)
        m = [list(r) for r in self.data]
        det = one
        for pc in range(self.cols):
            pr = next((r for r in range(pc, self.rows) if m[r][pc]), None)
            if pr is None:
                return one - one
            if pr != pc:
                m[pc], m[pr] = m[pr], m[pc]
                det = -det
            det = det * m[pc][pc]
            inv = m[pc][pc]
            for r in range(pc + 1, self.rows):
                if m[r][pc]:
                    f = m[r][pc] / inv
                    m[r] = [a - f * b for a, b in zip(m[r], m[pc])]
        return det

    def trace(self):
        if self.rows != self.cols:
            raise ShapeMismatch("trace of non-square matrix")
        if self.rows == 0:
            return QQ0
        t = self.data[0][0]
        for i in range(1, self.rows):
            t = t + self.data[i][i]
        return t

    def charpoly(self) -> list[Fraction]:
        """Monic characteristic polynomial det(xI - A), coefficients high to low.

        Faddeev-LeVerrier; valid over characteristic-zero fields.
        """
        if self.rows != self.cols:
            raise ShapeMismatch("charpoly of non-square matrix")
        n = self.rows
        coeffs = [QQ1]
        m = Mat.identity(n)
        a = self
        for k in range(1, n + 1):
            am = a * m
            c = -am.trace() / k
            coeffs.append(c)
            m = am + Mat.identity(n).scaled(c)
        return coeffs

    def poly_eval(self, coeffs: Sequence) -> "Mat":
        """Evaluate a polynomial (coefficients high to low) at this matrix."""
        if self.rows != self.cols:
            raise ShapeMismatch("poly_eval of non-square matrix")
        n = self.rows
        out = Mat.zeros(n, n)
        if n == 0:
            return out
        one = _one_of(self)
        out = Mat.identity(n, one).scaled(coeffs[0] * one)
        for c in coeffs[1:]:
            out = out * self + Mat.identity(n, one).scaled(c * one)
        return out

    def power(self, k: int) -> "Mat":
        if self.rows != self.cols:
            raise ShapeMismatch("power of non-square matrix")
        out = Mat.identity(self.rows, _one_of(self)) if self.rows else self
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out


def _dot(r, c):
    acc = None
    for a, b in zip(r, c):
        acc = a * b if acc is None else acc + a * b
    return acc if acc is not None else QQ0


def _one_of(m: Mat):
    """A multiplicative one compatible with the matrix entries."""
    for row in m.data:
        for x in row:
            if x:
                return x / x
    return QQ1


def column_space_contains(basis: Mat, vec: Mat) -> bool:
    """True iff vec (a column) lies in the span of basis's columns."""
    if basis.cols == 0:
        return vec.is_zero()
    return basis.hstack(vec).rank() == basis.rank()
