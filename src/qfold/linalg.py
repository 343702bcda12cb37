"""Exact linear algebra over an arbitrary field.

Matrices are immutable and generic over the entry type: anything with
field arithmetic (+, -, *, /, ==, bool) works, so the same code runs over
`fractions.Fraction`, prime fields (`qfold.numberfield.Fp`) and number
fields (`qfold.numberfield.NumberFieldElement`).  Zero-row and zero-column
matrices are first-class citizens; shape is always carried explicitly.

Storage is dense (`data` is a tuple of row tuples), but the kernels walk
nonzero entries only: a product is formed row by row from the nonzero
`(col, value)` lists of its right factor (Gustavson, ACM TOMS 4, 1978),
and elimination updates a row only at the pivot row's nonzero columns.
Most matrices here are mostly zero, so almost every scalar product a dense
loop would form has a zero factor.  The results are exact and equal to the
dense ones, entry for entry.

Each matrix also carries `zero`, the additive zero of its entry type: the
one it is given, else `x - x` of its first entry, else (no entries)
`Fraction(0)`.  Every matrix and scalar built here takes its zero and one
from the operands, so a result keeps the entry type of its inputs even
when it has no entries or is all zeros.  A matrix with no entries over
another field must therefore be given its zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import NotInvertible, ShapeMismatch

QQ0 = Fraction(0)


class Mat:
    """Immutable matrix with explicit shape."""

    __slots__ = ("rows", "cols", "data", "zero")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence], zero=None):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ShapeMismatch(f"data does not match shape {rows}x{cols}")
        data = tuple(tuple(r) for r in data)
        if zero is None:
            zero = data[0][0] - data[0][0] if rows and cols else QQ0
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "zero", zero)

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
        return Mat(rows, cols, [[zero] * cols for _ in range(rows)], zero)

    @staticmethod
    def identity(n: int, one=Fraction(1)) -> "Mat":
        zero = one - one
        return Mat(n, n, [[one if i == j else zero for j in range(n)] for i in range(n)], zero)

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
        return Mat(self.rows, self.cols, [[f(x) for x in row] for row in self.data], f(self.zero))

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows,
                   [[self.data[r][c] for r in range(self.rows)] for c in range(self.cols)], self.zero)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("add: shapes differ")
        return Mat(self.rows, self.cols,
                   [[(a + b if a else b) if b else a for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)], self.zero)

    def __sub__(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("sub: shapes differ")
        return Mat(self.rows, self.cols,
                   [[(a - b if a else -b) if b else a for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)], self.zero)

    def __neg__(self) -> "Mat":
        return self.map(lambda x: -x)

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ShapeMismatch(f"mul: {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            zero, width = self.zero, other.cols
            right = [[(j, b) for j, b in enumerate(row) if b] for row in other.data]
            out = []
            for row in self.data:
                acc = [None] * width
                for a, nonzero in zip(row, right):
                    if nonzero and a:
                        for j, b in nonzero:
                            s = acc[j]
                            acc[j] = a * b if s is None else s + a * b
                out.append([zero if s is None else s for s in acc])
            return Mat(self.rows, width, out, zero)
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
                   [list(r1) + list(r2) for r1, r2 in zip(self.data, other.data)],
                   self._stack_zero(other))

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack: column counts differ")
        return Mat(self.rows + other.rows, self.cols, list(self.data) + list(other.data),
                   self._stack_zero(other))

    def _stack_zero(self, other: "Mat"):
        """The zero of a stack: an operand with no entries may have been
        built without its zero, so the other operand's is taken then."""
        return self.zero if self.rows and self.cols else other.zero

    @staticmethod
    def block_diag(blocks: Sequence["Mat"]) -> "Mat":
        """The blocks down the diagonal, in the entry type of the first."""
        zero = blocks[0].zero if blocks else QQ0
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
        return Mat(rows, cols, out, zero)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        return Mat(len(row_idx), len(col_idx),
                   [[self.data[r][c] for c in col_idx] for r in row_idx], self.zero)

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
            row = m[pr]
            inv = row[pc]
            # entries left of pc are zero: earlier pivot columns are cleared,
            # and the other columns had no nonzero from row pr down
            pivot = []
            for c in range(pc, self.cols):
                if row[c]:
                    row[c] = x = row[c] / inv
                    pivot.append((c, x))
            for r, target in enumerate(m):
                f = target[pc]
                if r != pr and f:
                    for c, b in pivot:
                        target[c] = target[c] - f * b
            pivots.append(pc)
            pr += 1
            if pr == self.rows:
                break
        return Mat(self.rows, self.cols, m, self.zero), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullity(self) -> int:
        return self.cols - self.rank()

    def nullspace(self) -> "Mat":
        """Basis of the right kernel, returned as columns of a cols x k matrix."""
        zero = self.zero
        one = zero + 1
        red, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = [zero] * self.cols
            v[fc] = one
            for pr, pc in enumerate(pivots):
                v[pc] = -red.data[pr][fc]
            basis.append(v)
        return Mat(self.cols, len(basis),
                   [[basis[k][r] for k in range(len(basis))] for r in range(self.cols)], zero)

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
        sol = [[self.zero] * rhs.cols for _ in range(n)]
        for pr, pc in enumerate(pivots):
            for c in range(rhs.cols):
                sol[pc][c] = red.data[pr][n + c]
        return Mat(n, rhs.cols, sol, self.zero)

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise NotInvertible("inverse of non-square matrix")
        if self.rows == 0:
            return self
        aug = self.hstack(Mat.identity(self.rows, self.zero + 1))
        red, pivots = aug.rref()
        if pivots != list(range(self.rows)):
            raise NotInvertible("singular matrix")
        return red.submatrix(range(self.rows), range(self.rows, 2 * self.rows))

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def det(self):
        """Determinant by Gaussian elimination with division (field entries)."""
        if self.rows != self.cols:
            raise ShapeMismatch("det of non-square matrix")
        m = [list(r) for r in self.data]
        n = self.rows
        det = self.zero + 1
        for pc in range(n):
            pr = next((r for r in range(pc, n) if m[r][pc]), None)
            if pr is None:
                return self.zero
            if pr != pc:
                m[pc], m[pr] = m[pr], m[pc]
                det = -det
            row = m[pc]
            lead = row[pc]
            det = det * lead
            # column pc below the pivot is never read again, so it is left as is
            pivot = [(c, row[c]) for c in range(pc + 1, n) if row[c]]
            for below in m[pc + 1:]:
                if below[pc]:
                    f = below[pc] / lead
                    for c, b in pivot:
                        below[c] = below[c] - f * b
        return det

    def trace(self):
        if self.rows != self.cols:
            raise ShapeMismatch("trace of non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), self.zero)

    def charpoly(self) -> list:
        """Monic characteristic polynomial det(xI - A), coefficients high to low.

        Faddeev-LeVerrier; valid over characteristic-zero fields.
        """
        if self.rows != self.cols:
            raise ShapeMismatch("charpoly of non-square matrix")
        n = self.rows
        one = self.zero + 1
        coeffs = [one]
        m = Mat.identity(n, one)
        for k in range(1, n + 1):
            am = self * m
            c = -am.trace() / k
            coeffs.append(c)
            m = am._plus_scalar(c)
        return coeffs

    def poly_eval(self, coeffs: Sequence) -> "Mat":
        """Evaluate a polynomial (coefficients high to low) at this matrix."""
        if self.rows != self.cols:
            raise ShapeMismatch("poly_eval of non-square matrix")
        one = self.zero + 1
        out = Mat.zeros(self.rows, self.rows, self.zero)
        for c in coeffs:
            out = (out * self)._plus_scalar(c * one)
        return out

    def _plus_scalar(self, c) -> "Mat":
        """self + c * identity, for a square matrix."""
        data = [list(r) for r in self.data]
        for i, row in enumerate(data):
            row[i] = row[i] + c
        return Mat(self.rows, self.cols, data, self.zero)

    def power(self, k: int) -> "Mat":
        if self.rows != self.cols:
            raise ShapeMismatch("power of non-square matrix")
        out = Mat.identity(self.rows, self.zero + 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out


def column_space_contains(basis: Mat, vec: Mat) -> bool:
    """True iff vec (a column) lies in the span of basis's columns."""
    if basis.cols == 0:
        return vec.is_zero()
    return basis.hstack(vec).rank() == basis.rank()
