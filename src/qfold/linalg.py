"""Exact linear algebra over an arbitrary field.

Matrices are immutable and generic over the entry type: anything with
field arithmetic (+, -, *, /, ==, bool) and exact division `//` works, so
the same code runs over Q, prime fields (`qfold.numberfield.Fp`) and
number fields (`qfold.numberfield.NumberFieldElement`), where `//` is `/`.
Zero-row and zero-column matrices are first-class citizens; shape is
always carried explicitly.

Over Q an entry is an `int` when it is integral and a `Fraction` only
where it is not (`qq`; an integral Fraction is accepted too), so products
and sums of integers stay ints.  No kernel applies `/` to two ints.

Storage is dense (`data` is a tuple of row tuples).  A product is formed
row by row from the nonzero `(col, value)` lists of its right factor
(Gustavson, ACM TOMS 4, 1978).  Elimination, behind `rref` (and so
`rank`, `nullspace`, `solve`, `inverse`) and `det`, is one fraction-free
Gauss-Jordan for every field, with Bareiss's exact divisions (Math. Comp.
22, 1968).  Over Q each row is first scaled by the lcm of its
denominators, which leaves the reduced echelon form unchanged, so the
rows are reduced as ints, and every entry is divided once at the end.  A
row is touched only when it has a nonzero in the pivot column.

Each matrix also carries `zero`, the additive zero of its entry type: the
one it is given, else `x - x` of its first entry, else (no entries) the
rational 0.  Every matrix and scalar built here takes its zero and one
from the operands, so a result keeps the entry type of its inputs even
when it has no entries or is all zeros.  A matrix with no entries over
another field must therefore be given its zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import truediv
from typing import Callable, Sequence

from .errors import NotInvertible, ShapeMismatch

_RATIONAL = (int, Fraction)


def qq(x):
    """x (an int, a rational string or a Fraction) as an entry over Q:
    an int when it is integral, else a Fraction."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _quotient(a: int, b: int):
    """a / b over Q for ints a and b != 0: an int when b divides a."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


_new = object.__new__
_set = object.__setattr__


def _mat(rows: int, cols: int, data: tuple, zero) -> "Mat":
    """A matrix from a tuple of row tuples built here: no check, no copy."""
    m = _new(Mat)
    _set(m, "rows", rows)
    _set(m, "cols", cols)
    _set(m, "data", data)
    _set(m, "zero", zero)
    return m


class Mat:
    """Immutable matrix with explicit shape."""

    __slots__ = ("rows", "cols", "data", "zero")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence], zero=None):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ShapeMismatch(f"data does not match shape {rows}x{cols}")
        data = tuple(tuple(r) for r in data)
        if zero is None:
            zero = data[0][0] - data[0][0] if rows and cols else 0
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "data", data)
        _set(self, "zero", zero)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Mat is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rows(data: Sequence[Sequence]) -> "Mat":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return Mat(rows, cols, data)

    @staticmethod
    def zeros(rows: int, cols: int, zero=0) -> "Mat":
        return _mat(rows, cols, ((zero,) * cols,) * rows, zero)

    @staticmethod
    def identity(n: int, one=1) -> "Mat":
        zero = one - one
        return _mat(n, n, tuple(tuple([one if i == j else zero for j in range(n)])
                                for i in range(n)), zero)

    @staticmethod
    def rational(data: Sequence[Sequence]) -> "Mat":
        """A matrix over Q from ints, rational strings and Fractions: each
        entry an int when it is integral, else a Fraction (see `qq`)."""
        return Mat.from_rows([[qq(x) for x in row] for row in data])

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
        return _mat(self.rows, self.cols, tuple(tuple([f(x) for x in row]) for row in self.data),
                    f(self.zero))

    def transpose(self) -> "Mat":
        data = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return _mat(self.cols, self.rows, data, self.zero)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("add: shapes differ")
        return _mat(self.rows, self.cols,
                    tuple(tuple([(a + b if a else b) if b else a for a, b in zip(r1, r2)])
                          for r1, r2 in zip(self.data, other.data)), self.zero)

    def __sub__(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("sub: shapes differ")
        return _mat(self.rows, self.cols,
                    tuple(tuple([(a - b if a else -b) if b else a for a, b in zip(r1, r2)])
                          for r1, r2 in zip(self.data, other.data)), self.zero)

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
                out.append(tuple([zero if s is None else s for s in acc]))
            return _mat(self.rows, width, tuple(out), zero)
        return self.map(lambda x: x * other)

    def __rmul__(self, scalar):
        return self.map(lambda x: scalar * x)

    def scaled(self, s) -> "Mat":
        return self.map(lambda x: x * s)

    # -- block operations ---------------------------------------------
    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack: row counts differ")
        return _mat(self.rows, self.cols + other.cols,
                    tuple(r1 + r2 for r1, r2 in zip(self.data, other.data)),
                    self._stack_zero(other))

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack: column counts differ")
        return _mat(self.rows + other.rows, self.cols, self.data + other.data,
                    self._stack_zero(other))

    def _stack_zero(self, other: "Mat"):
        """The zero of a stack: an operand with no entries may have been
        built without its zero, so the other operand's is taken then."""
        return self.zero if self.rows and self.cols else other.zero

    @staticmethod
    def block_diag(blocks: Sequence["Mat"]) -> "Mat":
        """The blocks down the diagonal, in the entry type of the first."""
        zero = blocks[0].zero if blocks else 0
        cols = sum(b.cols for b in blocks)
        out = []
        c0 = 0
        for b in blocks:
            left, right = (zero,) * c0, (zero,) * (cols - c0 - b.cols)
            out.extend(left + row + right for row in b.data)
            c0 += b.cols
        return _mat(len(out), cols, tuple(out), zero)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        data = self.data
        return _mat(len(row_idx), len(col_idx),
                    tuple(tuple([data[r][c] for c in col_idx]) for r in row_idx), self.zero)

    def columns(self) -> list["Mat"]:
        return [self.submatrix(range(self.rows), [c]) for c in range(self.cols)]

    # -- reductions ---------------------------------------------------
    def _reduce(self) -> tuple[tuple, list[int], object]:
        """(RREF rows, pivot columns, det): det is the determinant when the
        matrix is square and every column has a pivot.

        Clearing column pc with pivot p takes every other row t to
        (p * t - t[pc] * pivot row) // den, den the previous pivot; the
        division is exact, as each entry is a minor.  A row with t[pc] = 0
        is only scaled by p / den, so it is left as it is and brought up to
        date when a pivot column reaches it: row i holds its entries times
        at[i] / den.  At the end every pivot entry is den, the determinant
        of the scaled, row-swapped matrix when it is square of full rank."""
        rational = self.zero.__class__ in _RATIONAL
        m, scale = [], 1
        for row in self.data:
            if not rational or all(x.__class__ is int for x in row):
                m.append(list(row))
                continue
            s = lcm(*[x.denominator for x in row])
            scale *= s
            m.append([x.numerator * (s // x.denominator) for x in row])
        zero, den, div = (0, 1, _quotient) if rational else (self.zero, self.zero + 1, truediv)
        at = [den] * len(m)
        pivots, swaps = [], 0
        for pc in range(self.cols):
            pr = len(pivots)
            r = next((r for r in range(pr, len(m)) if m[r][pc]), None)
            if r is None:
                continue
            if r != pr:
                m[pr], m[r] = m[r], m[pr]
                at[pr], at[r] = at[r], at[pr]
                swaps += 1
            row = m[pr]
            if at[pr] != den:
                row = m[pr] = [x * den // at[pr] for x in row]
            p = row[pc]
            pivot = [(c, row[c]) for c in range(pc + 1, self.cols) if row[c]]
            for i, target in enumerate(m):
                if target[pc] and i != pr:
                    if at[i] != den:
                        target = [x * den // at[i] for x in target]
                    f = target[pc]
                    new = [x * p // den if x else x for x in target] if p != den else target
                    for c, b in pivot:
                        new[c] = (target[c] * p - f * b) // den
                    new[pc] = zero
                    m[i] = new
                    at[i] = p
            at[pr] = den = p
            pivots.append(pc)
        rows = tuple(tuple([div(x, s) for x in row]) if s != 1 else tuple(row)
                     for row, s in zip(m, at))
        return rows, pivots, div(-den if swaps & 1 else den, scale)

    def rref(self) -> tuple["Mat", list[int]]:
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        rows, pivots, _ = self._reduce()
        return _mat(self.rows, self.cols, rows, self.zero), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullity(self) -> int:
        return self.cols - self.rank()

    def nullspace(self) -> "Mat":
        """Basis of the right kernel, returned as columns of a cols x k matrix."""
        zero = self.zero
        one = zero + 1
        red, pivots = self.rref()
        pivot_row = dict(zip(pivots, red.data))
        free = [c for c in range(self.cols) if c not in pivot_row]
        unit = {fc: tuple([one if k == fc else zero for k in free]) for fc in free}
        data = tuple(tuple([-pivot_row[c][fc] for fc in free]) if c in pivot_row else unit[c]
                     for c in range(self.cols))
        return _mat(self.cols, len(free), data, zero)

    def solve(self, rhs: "Mat"):
        """One solution X of self * X = rhs, or None if inconsistent.

        Free variables are set to zero, so the answer is deterministic.
        """
        if rhs.rows != self.rows:
            raise ShapeMismatch("solve: rhs row count differs")
        red, pivots = self.hstack(rhs).rref()
        n = self.cols
        if any(p >= n for p in pivots):
            return None
        pivot_row = dict(zip(pivots, red.data))
        zeros = (self.zero,) * rhs.cols
        data = tuple(pivot_row[c][n:] if c in pivot_row else zeros for c in range(n))
        return _mat(n, rhs.cols, data, self.zero)

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
        """Determinant, from the same elimination as `rref`."""
        if self.rows != self.cols:
            raise ShapeMismatch("det of non-square matrix")
        _, pivots, det = self._reduce()
        return det if len(pivots) == self.rows else self.zero

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
            t = am.trace()
            c = _quotient(-t, k) if t.__class__ is int else -t / k
            coeffs.append(c)
            m = am._plus_scalar(c)
        return coeffs

    def poly_eval(self, coeffs: Sequence) -> "Mat":
        """Evaluate a polynomial (coefficients high to low) at this matrix."""
        if self.rows != self.cols:
            raise ShapeMismatch("poly_eval of non-square matrix")
        one = self.zero + 1
        if one.__class__ in _RATIONAL:
            coeffs = [qq(c) for c in coeffs]
        out = Mat.zeros(self.rows, self.rows, self.zero)
        for c in coeffs:
            out = (out * self)._plus_scalar(c * one)
        return out

    def _plus_scalar(self, c) -> "Mat":
        """self + c * identity, for a square matrix."""
        data = [list(r) for r in self.data]
        for i, row in enumerate(data):
            row[i] = row[i] + c
        return _mat(self.rows, self.cols, tuple(map(tuple, data)), self.zero)

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


def column_space_contains(basis: Mat, vecs: Mat) -> bool:
    """True iff every column of vecs lies in the span of basis's columns."""
    if basis.cols == 0:
        return vecs.is_zero()
    return basis.hstack(vecs).rank() == basis.rank()
