"""Exact linear algebra over an arbitrary field.

Matrices are immutable and generic over the entry type: anything with
field arithmetic (+, -, *, /, ==, bool) and exact division `//` works.
The program runs them over Q and over the prime fields
(`qfold.numberfield.Fp`, where `//` is `/`); an eigenvector over a number
field is carried as a rational matrix of its coordinates.
Zero-row and zero-column matrices are first-class citizens; shape is
always carried explicitly.

A matrix is stored as `num`, a tuple of row tuples, over one denominator
`den`, and stands for num / den.  Over Q, `num` holds ints and `den` is a
positive int with gcd(den, every entry) = 1, so a matrix over Z is
`den == 1` and equal matrices have equal (num, den).  Over any other field
`num` holds the entries themselves and `den` is 1.  The entries are read
through `data` and `m[i, j]`, built when read: over Q an entry is an `int`
when it is integral and a `Fraction` only where it is not (`qq`), and at
`den == 1` `data` is `num` itself.  An integral Fraction given by a caller
is accepted and reads back as an int.  `rational_rows`, behind
`Mat.rational` and the module-file reader, reads ints and ASCII "n" and
"n/d" strings straight into (num, den).

Each kernel is written once over (num, den), on ints over Q, and builds no
Fraction.  The one step that depends on the field is bringing a result to
canonical form (`_canonical`): over Q, one gcd of den with every entry,
skipped when den is 1.  A sum, difference or stack works on the nums over
their common denominator.  There is one product loop, `sum_of_products`:
a signed sum s1 * A1 * B1 + s2 * A2 * B2 + ... is formed row by row from
the nonzero `(col, value)` lists of each right factor (Gustavson, ACM
TOMS 4, 1978), with every term added into one accumulator per row, over
one common denominator, and brought to canonical form once.  A product
`A * B` is its one-term case.  A term with an empty dimension, an
all-zero factor or s = 0 adds nothing and builds no list; when no term
is left, the sum is its zero matrix.  Zero matrices and identities over Q
are shared from caches bounded in size and keyed by shape; over another
field they are built with that field's own zero and one.
Elimination, behind `rref` (and so `nullspace`, `solve`, `inverse`) and
`rank`, is one fraction-free Gauss-Jordan for every field, with Bareiss's
exact divisions (Math. Comp. 22, 1968).  Over Q it runs on num, each row
first divided by its content, which leaves the reduced echelon form
unchanged.  A row is touched only when it has a nonzero in the pivot
column.  `rref` brings every row to the last pivot, which is then the
denominator of the result; `rank` (and so `nullity`, `is_invertible` and
`column_space_contains`) counts the pivots of the same loop.

Each matrix also carries `zero`, the additive zero of its entry type: the
one it is given, else `x - x` of its first entry, else (no entries) the
rational 0.  Every matrix and scalar built here takes its zero and one
from the operands, so a result keeps the entry type of its inputs even
when it has no entries or is all zeros.  A matrix with no entries over
another field must therefore be given its zero.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from typing import Callable, Sequence

from .errors import NotInvertible, ShapeMismatch

_RATIONAL = (int, Fraction)
_INT = frozenset([int])
_ASCII_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def qq(x):
    """x (an int, a rational string or a Fraction) as an entry over Q: an
    int when it is integral, else a Fraction.  An int is returned as it is
    and anything else goes to `Fraction(x)`, so the strings accepted and
    the errors raised are Fraction's own."""
    if x.__class__ is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _quotient(a: int, b: int):
    """a / b over Q for ints a and b != 0: an int when b divides a."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def rational_rows(data: Sequence[Sequence], entry: Callable) -> tuple[tuple, int]:
    """The rows of data, entries over Q, as (num, den) in canonical form
    (see `Mat`), with no Fraction built on the way.  An int and an ASCII
    "n" or "n/d" string (d not 0) are read with `int` and at most one gcd
    (a string of ASCII digits alone is tested for first); any other
    entry goes to entry(x), which returns it as `qq` does (an int or a
    Fraction) or raises, so the entries accepted and the errors raised are
    entry's own, met in row-major order.  The rows may differ in length:
    the caller checks the shape."""
    rows, dens = [], []
    for row in data:
        out = []
        for x in row:
            if x.__class__ is str and x.isdigit() and x.isascii():   # most entries
                x = int(x)
            elif x.__class__ is not int:
                m = _ASCII_RATIONAL.fullmatch(x) if x.__class__ is str else None
                d = int(m[2] or 1) if m else 0
                if d:
                    n = int(m[1])
                    g = gcd(n, d)
                    n, d = n // g, d // g
                else:
                    x = entry(x)
                    n, d = x.numerator, x.denominator
                if d == 1:
                    x = n
                else:
                    x = (n, d)
                    dens.append(d)
            out.append(x)
        rows.append(out)
    if not dens:
        return tuple(map(tuple, rows)), 1
    # num = entries * lcm is in lowest terms (see `Mat.__init__`)
    den = lcm(*dens)
    return tuple(tuple([x[0] * (den // x[1]) if x.__class__ is tuple else x * den
                        for x in row]) for row in rows), den


def _check_shape(rows: int, cols: int, num: tuple) -> None:
    if len(num) != rows or list(map(len, num)).count(cols) != rows:
        raise ShapeMismatch(f"data does not match shape {rows}x{cols}")


def _over_q(rows: int, cols: int, num: tuple, den: int) -> "Mat":
    """The matrix num / den over Q for (num, den) as `rational_rows` gives
    it, already canonical: only the shape is checked."""
    _check_shape(rows, cols, num)
    return _mat(rows, cols, num, den, 0)


def _fill(zero):
    """The zero of num: the int 0 over Q, else the field's own zero."""
    return 0 if zero.__class__ in _RATIONAL else zero


_new = object.__new__


def _mat(rows: int, cols: int, num: tuple, den, zero) -> "Mat":
    """A matrix from a canonical (num, den) built here: no check, no copy."""
    m = _new(Mat)
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_num(m, num)
    _set_den(m, den)
    _set_zero(m, zero)
    return m


def _canonical(rows: int, cols: int, num: tuple, den, zero) -> "Mat":
    """The matrix num / den in canonical form.  Over Q num is brought to
    lowest terms over a positive den by one gcd; over another field den is
    1 unless an elimination left its last pivot there, and then every entry
    is divided by it."""
    if den.__class__ is int:
        if den != 1:   # over Q
            g = gcd(den, *chain.from_iterable(num))
            if den < 0:
                g = -g
            if g != 1:
                num = tuple(tuple([x // g for x in row]) for row in num)
                den //= g
    else:
        one = zero + 1
        if den != one:
            inv = one / den
            num = tuple(tuple([x * inv if x else x for x in row]) for row in num)
        den = 1
    return _mat(rows, cols, num, den, zero)


def _common(a: "Mat", b: "Mat") -> tuple[tuple, tuple, int]:
    """The nums of a and b over their common denominator, and that
    denominator (the lcm of theirs)."""
    da, db = a.den, b.den
    if da == db:
        return a.num, b.num, da
    d = lcm(da, db)
    return _scale(a.num, d // da), _scale(b.num, d // db), d


def _scale(num: tuple, s: int) -> tuple:
    """num times the int s."""
    return num if s == 1 else tuple(tuple([x * s for x in row]) for row in num)


@lru_cache(maxsize=256)
def _rational_zeros(rows: int, cols: int) -> "Mat":
    return _mat(rows, cols, ((0,) * cols,) * rows, 1, 0)


@lru_cache(maxsize=64)
def _rational_identity(n: int) -> "Mat":
    return _mat(n, n, tuple(((0,) * i + (1,) + (0,) * (n - 1 - i)) for i in range(n)), 1, 0)


def _zeros(rows: int, cols: int, zero) -> "Mat":
    """The zero matrix over the field of zero; over Q with the int 0 it is
    shared, and a Fraction or any other zero gets a matrix of its own."""
    if zero.__class__ is int:
        return _rational_zeros(rows, cols)
    return _mat(rows, cols, ((_fill(zero),) * cols,) * rows, 1, zero)


def _nonzeros(num: tuple, s) -> list:
    """Per row of num, the (col, value) list of its nonzero entries, each
    value times s."""
    if s == 1:
        return [[(j, x) for j, x in enumerate(row) if x] for row in num]
    if s == -1:
        return [[(j, -x) for j, x in enumerate(row) if x] for row in num]
    return [[(j, x * s) for j, x in enumerate(row) if x] for row in num]


def sum_of_products(terms: Sequence[tuple]) -> "Mat":
    """s1 * A1 * B1 + s2 * A2 * B2 + ... for the terms (s, A, B), in the
    entry type of the first A; each s is an int, or over Q a Fraction, or
    over another field an element of it.

    The sum is the one product [A1 A2 ...] * [s1 B1; s2 B2; ...], formed
    row by row: the rows of the A's side by side, against the nonzero lists
    of the scaled B's one after another.  Over Q term k lies over
    d_k = den(A) * den(B) * den(s) and the sum over their lcm D, so term k
    scales num(B) by num(s) * (D // d_k)."""
    _, first, last = terms[0]
    rows, width, zero = first.rows, last.cols, first.zero
    rational = zero.__class__ in _RATIONAL
    live, den = [], 1
    for s, a, b in terms:
        if a.cols != b.rows or a.rows != rows or b.cols != width:
            raise ShapeMismatch(f"mul: {a.rows}x{a.cols} by {b.rows}x{b.cols} in a "
                                f"{rows}x{width} sum")
        # an empty dimension leaves a factor with no nonzero entry
        if s and any(map(any, a.num)) and any(map(any, b.num)):
            d = 1
            if rational:
                d = a.den * b.den * s.denominator
                s = s.numerator
                if d != den:
                    den = lcm(den, d)
            live.append((s, d, a.num, b.num))
    if not live:
        return _zeros(rows, width, zero)
    right = []
    for s, d, _, num in live:
        right += _nonzeros(num, s if d == den else s * (den // d))
    left = live[0][2] if len(live) == 1 else \
        map(chain.from_iterable, zip(*[t[2] for t in live]))
    fill = 0 if rational else zero
    out = []
    for row in left:
        acc = [fill] * width
        for a, nonzero in zip(row, right):
            if nonzero and a:
                for j, b in nonzero:
                    acc[j] += a * b
        out.append(tuple(acc))
    if den == 1:
        return _mat(rows, width, tuple(out), 1, zero)
    return _canonical(rows, width, tuple(out), den, zero)


class Mat:
    """Immutable matrix with explicit shape."""

    __slots__ = ("rows", "cols", "num", "den", "zero")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence], zero=None):
        num = tuple(map(tuple, data))
        _check_shape(rows, cols, num)
        if zero is None:   # over Q the int 0, as an integral Fraction reads back as an int
            x = num[0][0] if rows and cols else 0
            zero = 0 if x.__class__ in _RATIONAL else x - x
        den = 1
        if zero.__class__ in _RATIONAL and not _INT.issuperset(map(type, chain.from_iterable(num))):
            dens = [x.denominator for row in num for x in row if x.__class__ is not int]
            # num = entries * lcm is in lowest terms: a prime's highest
            # power in the lcm comes from one entry, whose numerator it
            # does not divide
            den = lcm(*dens)
            num = tuple(tuple([x.numerator * (den // x.denominator) for x in row])
                        for row in num)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_num(self, num)
        _set_den(self, den)
        _set_zero(self, zero)

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
        return _zeros(rows, cols, zero)

    @staticmethod
    def identity(n: int, one=1) -> "Mat":
        if one.__class__ is int and one == 1:
            return _rational_identity(n)
        zero = one - one
        fill, den = _fill(zero), 1
        if one.__class__ is Fraction:
            one, den = one.numerator, one.denominator
        num = tuple(tuple([one if i == j else fill for j in range(n)]) for i in range(n))
        return _canonical(n, n, num, den, zero)

    @staticmethod
    def rational(data: Sequence[Sequence]) -> "Mat":
        """A matrix over Q from ints, rational strings and Fractions, each
        entry read as `qq` reads it (see `rational_rows`)."""
        num, den = rational_rows(data, qq)
        return _over_q(len(num), len(num[0]) if num else 0, num, den)

    # -- entries --------------------------------------------------------
    @property
    def data(self) -> tuple:
        """The entries, a tuple of row tuples, built when read."""
        num, den = self.num, self.den
        if den == 1:
            return num
        return tuple(tuple([_quotient(x, den) for x in row]) for row in num)

    def __getitem__(self, rc):
        r, c = rc
        den = self.den
        return self.num[r][c] if den == 1 else _quotient(self.num[r][c], den)

    # -- basics -------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.num, self.den))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {list(map(list, self.data))})"

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def map(self, f: Callable) -> "Mat":
        return Mat(self.rows, self.cols, [[f(x) for x in row] for row in self.data], f(self.zero))

    def transpose(self) -> "Mat":
        num = tuple(zip(*self.num)) if self.rows else ((),) * self.cols
        return _mat(self.cols, self.rows, num, self.den, self.zero)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("add: shapes differ")
        a, b, den = _common(self, other)
        return _canonical(self.rows, self.cols,
                          tuple(tuple([(x + y if x else y) if y else x for x, y in zip(r1, r2)])
                                for r1, r2 in zip(a, b)), den, self.zero)

    def __sub__(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("sub: shapes differ")
        a, b, den = _common(self, other)
        return _canonical(self.rows, self.cols,
                          tuple(tuple([(x - y if x else -y) if y else x for x, y in zip(r1, r2)])
                                for r1, r2 in zip(a, b)), den, self.zero)

    def __neg__(self) -> "Mat":
        return _mat(self.rows, self.cols, tuple(tuple([-x for x in row]) for row in self.num),
                    self.den, self.zero)

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return self.scaled(other)
        return sum_of_products(((1, self, other),))

    def __rmul__(self, scalar):
        return self.scaled(scalar)

    def scaled(self, s) -> "Mat":
        """self times the scalar s."""
        zero = self.zero
        if zero.__class__ in _RATIONAL and s.__class__ in _RATIONAL:
            return _canonical(self.rows, self.cols, _scale(self.num, s.numerator),
                              self.den * s.denominator, zero)
        return self.map(lambda x: x * s)

    # -- block operations ---------------------------------------------
    # Over Q the nums of the operands are brought to the lcm of their
    # denominators; like the lcm of entry denominators, it leaves them in
    # lowest terms.
    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack: row counts differ")
        a, b, den = _common(self, other)
        return _mat(self.rows, self.cols + other.cols,
                    tuple(r1 + r2 for r1, r2 in zip(a, b)), den, self._stack_zero(other))

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack: column counts differ")
        a, b, den = _common(self, other)
        return _mat(self.rows + other.rows, self.cols, a + b, den, self._stack_zero(other))

    def _stack_zero(self, other: "Mat"):
        """The zero of a stack: an operand with no entries may have been
        built without its zero, so the other operand's is taken then."""
        return self.zero if self.rows and self.cols else other.zero

    @staticmethod
    def block_diag(blocks: Sequence["Mat"]) -> "Mat":
        """The blocks down the diagonal, in the entry type of the first."""
        zero = blocks[0].zero if blocks else 0
        fill = _fill(zero)
        den = lcm(*(b.den for b in blocks))
        cols = sum(b.cols for b in blocks)
        out = []
        c0 = 0
        for b in blocks:
            left, right = (fill,) * c0, (fill,) * (cols - c0 - b.cols)
            out.extend(left + row + right for row in _scale(b.num, den // b.den))
            c0 += b.cols
        return _mat(len(out), cols, tuple(out), den, zero)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        num = self.num
        return _canonical(len(row_idx), len(col_idx),
                          tuple(tuple([num[r][c] for c in col_idx]) for r in row_idx),
                          self.den, self.zero)

    # -- reductions ---------------------------------------------------
    def _reduce(self) -> tuple[list, list, object, list[int]]:
        """The fraction-free Gauss-Jordan of the rows of num:
        (rows, at, den, pivots), den the last pivot.  Row i of the RREF is
        rows[i] divided by at[i].  Over Q each row is first divided by its
        content.

        Clearing column pc with pivot p takes every other row t to
        (p * t - t[pc] * pivot row) // den, den the previous pivot; the
        division is exact, as each entry is a minor.  A row with t[pc] = 0
        is only scaled by p / den, so it is left as it is and brought up to
        date when a pivot column reaches it: row i holds its entries times
        at[i] / den."""
        if self.zero.__class__ in _RATIONAL:
            zero, one = 0, 1
            m = []
            for row in self.num:
                g = gcd(*row)
                m.append([x // g for x in row] if g > 1 else list(row))
        else:
            zero = self.zero
            one = zero + 1
            m = [list(row) for row in self.num]
        n = len(m)
        den, at = one, [one] * n
        pivots = []
        for pc in range(self.cols):
            pr = len(pivots)
            if pr == n:
                break
            for r in range(pr, n):
                if m[r][pc]:
                    break
            else:
                continue
            if r != pr:
                m[pr], m[r] = m[r], m[pr]
                at[pr], at[r] = at[r], at[pr]
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
        return m, at, den, pivots

    def rref(self) -> tuple["Mat", list[int]]:
        """Reduced row echelon form; returns (matrix, pivot column list).
        Every row is brought to the last pivot, the denominator of the
        result."""
        m, at, den, pivots = self._reduce()
        num = tuple(tuple(row) if a == den else tuple([x * den // a for x in row])
                    for row, a in zip(m, at))
        return _canonical(self.rows, self.cols, num, den, self.zero), pivots

    def rank(self) -> int:
        return len(self._reduce()[3])

    def nullity(self) -> int:
        return self.cols - self.rank()

    def nullspace(self) -> "Mat":
        """Basis of the right kernel, returned as columns of a cols x k matrix."""
        red, pivots = self.rref()
        fill = _fill(self.zero)
        unit = fill + red.den   # 1 over red's denominator
        pivot_row = dict(zip(pivots, red.num))
        free = [c for c in range(self.cols) if c not in pivot_row]
        units = {fc: tuple([unit if k == fc else fill for k in free]) for fc in free}
        num = tuple(tuple([-pivot_row[c][fc] for fc in free]) if c in pivot_row else units[c]
                    for c in range(self.cols))
        return _canonical(self.cols, len(free), num, red.den, self.zero)

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
        pivot_row = dict(zip(pivots, red.num))
        zeros = (_fill(self.zero),) * rhs.cols
        num = tuple(pivot_row[c][n:] if c in pivot_row else zeros for c in range(n))
        return _canonical(n, rhs.cols, num, red.den, self.zero)

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise NotInvertible("inverse of non-square matrix")
        n = self.rows
        if n == 0:
            return self
        # [num | den * I] over den stands for [self | I]
        fill = _fill(self.zero)
        unit = fill + self.den
        rows = []
        for i, row in enumerate(self.num):
            right = [fill] * n
            right[i] = unit
            rows.append(row + tuple(right))
        red, pivots = _mat(n, 2 * n, tuple(rows), self.den, self.zero).rref()
        if pivots != list(range(n)):
            raise NotInvertible("singular matrix")
        # the left half is den * I, so the right half is in lowest terms too
        return _mat(n, n, tuple(row[n:] for row in red.num), red.den, self.zero)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def trace(self):
        if self.rows != self.cols:
            raise ShapeMismatch("trace of non-square matrix")
        t = sum((row[i] for i, row in enumerate(self.num)), _fill(self.zero))
        return t if self.den == 1 else _quotient(t, self.den)

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
        den = self.den
        if self.zero.__class__ in _RATIONAL:
            new = lcm(den, c.denominator)
            rows = [list(row) for row in _scale(self.num, new // den)]
            c, den = c.numerator * (new // c.denominator), new
        else:
            rows = [list(row) for row in self.num]
        for i, row in enumerate(rows):
            row[i] = row[i] + c
        return _canonical(self.rows, self.cols, tuple(map(tuple, rows)), den, self.zero)

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


# The slots are set through their descriptors, which bypass `Mat.__setattr__`.
_set_rows, _set_cols, _set_num, _set_den, _set_zero = (Mat.__dict__[n].__set__
                                                       for n in Mat.__slots__)


def column_space_contains(basis: Mat, vecs: Mat) -> bool:
    """True iff every column of vecs lies in the span of basis's columns."""
    if basis.cols == 0:
        return vecs.is_zero()
    return basis.hstack(vecs).rank() == basis.rank()
