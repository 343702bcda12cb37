"""Exact linear algebra over Q and over the prime fields F_p.

Matrices are immutable.  Each one holds one field, named by `p`: 0 for Q,
else the prime p of F_p.  Zero-row and zero-column matrices are
first-class citizens; shape is always carried explicitly.  An eigenvector
over a number field is carried as a rational matrix of its coordinates.

A matrix is stored as `num`, a tuple of row tuples of ints, over one
denominator `den`, and stands for num / den.  Over Q, `den` is a positive
int with gcd(den, every entry) = 1, so a matrix over Z is `den == 1`; over
F_p, `num` holds residues in [0, p) and `den` is 1.  So equal matrices of
one field have equal (num, den), and `__eq__` and `__hash__` compare
(num, den, p).  The entries are read through `data` and `m[i, j]`, built
when read: over Q an entry is an `int` when it is integral and a
`Fraction` only where it is not (`qq`), and at `den == 1` `data` is `num`
itself; over F_p an entry reads as `qfold.numberfield.Fp`, as does
`trace`, and `charpoly` is taken over Q only.  Entries are read in by one
policy, `_rational`'s: ints, Fractions and rational strings, as `Fraction`
reads them save an exponent; a float, a boolean, None, an `Fp` or any
other value is refused with InputError.  Over Q, `rational_rows` reads them
straight into (num, den), behind `Mat(rows, cols, data)`, `Mat.rational`
and the module-file reader, and an integral Fraction reads back as an
int.  `Mat(rows, cols, data, p)` is the one way into F_p: `_residue`
reads an int n as n mod p and any other entry n/d as n * d^-1 mod p
(NotInvertible when p divides d).  A scalar is read by the same policy
(`_rational`, `_residue`), an int as it is.

Each kernel is written once over (num, den), on ints for both fields, and
builds no Fraction and no `Fp` but the scalars it returns.  Two steps
depend on the field.  One is bringing a result to canonical form
(`_canonical`): over Q, one gcd of den with every entry, skipped when den
is 1; over F_p, every entry mod p.  The other is elimination (`_reduce`,
below).  A sum, difference or stack works on the nums over their common
denominator.  There is one product loop, `_product`: rows of ints against
the nonzero `(col, value)` lists of a right factor's rows (Gustavson,
ACM TOMS 4, 1978), one accumulator per row, in canonical form once.
`A * B` feeds it num(A) and num(B)'s lists, and `sum_of_products` the
sum s1 * A1 * B1 + ... as one product [A1 A2 ...] * [s1 B1; s2 B2; ...]
over a common denominator.  A factor equal to the identity of its size
and field is no product: `A * B` is then B, or else A, shared or not, so
no caller leaves an identity out itself.  A term or product with an
empty dimension, an all-zero factor or s = 0 is zero and builds no list.
Zero matrices and identities are shared from caches bounded in size and
keyed by shape and field; operands over two fields are refused.
Elimination, behind `rref` (and so `nullspace`, `solve` and `inverse`
beyond 3 x 3, which solves A X = I) and `rank`, is one fraction-free
Gauss-Jordan for both
fields, with Bareiss's exact divisions (Math. Comp. 22, 1968).  Over Q
each row is first divided by its content, which leaves the reduced
echelon form unchanged.  Over F_p each pivot row is scaled to 1 by the
inverse of its pivot, and each updated entry is reduced mod p, so every
pivot and the denominator stay 1.  A row is touched only when it has a
nonzero in the pivot column.  `rref` brings every row to the last pivot,
which is then the denominator of the result; `rank` (and so `nullity`,
`is_invertible` and `column_space_contains`) counts the pivots of the same
loop.  On [A | I] that loop ends with a multiple of det A as its last
pivot and the same multiple of adj A as its right half, so `inverse` up to
3 x 3 reads adj and det off the cofactors of num instead (`_adjugate`):
over Q, (num / den)^-1 = den * adj(num) / det(num), and over F_p,
adj(num) times the inverse of det(num) mod p.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from typing import Sequence

from .errors import InputError, MalformedEntry, MixedCharacteristics, NotInvertible, ShapeMismatch
from .numberfield import Fp

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


def _rational(x):
    """An entry other than those `rational_rows` reads itself (an int, an
    ASCII "n" or "n/d" string), as an int or a Fraction: a Fraction as it
    is, and a string as `qq` reads it, save one with an exponent
    ("1e999999999" would build a billion-digit integer); a string Fraction
    cannot read raises MalformedEntry with Fraction's message.  Anything
    else is refused: a float (0.1 is not 1/10), a boolean, None, an `Fp`."""
    if x.__class__ is Fraction:
        return x
    if x.__class__ is str and "e" not in x and "E" not in x:
        try:
            return qq(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedEntry(str(exc)) from None
    raise InputError(f"matrix entries must be integers or rational strings, got {x!r}")


def _residue(x, p: int) -> int:
    """x, an entry or a scalar over F_p, as a residue in [0, p): an int n
    is n mod p, and any other x is read as `_rational` reads it, n/d being
    n * d^-1 mod p, and NotInvertible when p divides d."""
    if x.__class__ is int:
        return x % p
    if x.__class__ is not Fraction:
        x = _rational(x)
    n, d = x.numerator, x.denominator
    if not d % p:
        raise NotInvertible(f"the denominator {d} is not invertible mod {p}")
    return n * pow(d, -1, p) % p


def rational_rows(data: Sequence[Sequence]) -> tuple[tuple, int]:
    """The rows of data, entries over Q, as (num, den) in canonical form
    (see `Mat`), with no Fraction built on the way: the one reader of
    entries over Q.  Rows of ints alone are kept as they are.  Else an int
    and an ASCII "n" or "n/d" string (d not 0) are read with `int` and at
    most one gcd (a string of ASCII digits alone is tested for first); any
    other entry goes to `_rational`, so the entries accepted and the errors
    raised are its own, met in row-major order.  The rows may differ in
    length: the caller checks the shape."""
    data = tuple(map(tuple, data))
    if _INT.issuperset(map(type, chain.from_iterable(data))):
        return data, 1
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
                    x = _rational(x)
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
    # num = entries * lcm is in lowest terms: a prime's highest power in
    # the lcm comes from one entry, whose numerator it does not divide
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


_new = object.__new__


def _mat(rows: int, cols: int, num: tuple, den: int, p: int) -> "Mat":
    """A matrix from a canonical (num, den) built here: no check, no copy."""
    m = _new(Mat)
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_num(m, num)
    _set_den(m, den)
    _set_p(m, p)
    return m


def _canonical(rows: int, cols: int, num: tuple, den: int, p: int) -> "Mat":
    """The matrix num / den in canonical form: over F_p (where den is 1)
    every entry mod p, over Q num in lowest terms over a positive den by
    one gcd."""
    if p:
        num = tuple(tuple([x % p for x in row]) for row in num)
    elif den != 1:
        g = gcd(den, *chain.from_iterable(num))
        if den < 0:
            g = -g
        if g != 1:
            num = tuple(tuple([x // g for x in row]) for row in num)
            den //= g
    return _mat(rows, cols, num, den, p)


def _common(a: "Mat", b: "Mat") -> tuple[tuple, tuple, int]:
    """The nums of a and b, which lie over one field, over their common
    denominator, and that denominator (the lcm of theirs)."""
    if a.p != b.p:
        raise MixedCharacteristics("mixed characteristics")
    da, db = a.den, b.den
    if da == db:
        return a.num, b.num, da
    d = lcm(da, db)
    return _scale(a.num, d // da), _scale(b.num, d // db), d


def _scale(num: tuple, s: int) -> tuple:
    """num times the int s."""
    return num if s == 1 else tuple(tuple([x * s for x in row]) for row in num)


@lru_cache(maxsize=256)
def _zeros(rows: int, cols: int, p: int) -> "Mat":
    return _mat(rows, cols, ((0,) * cols,) * rows, 1, p)


@lru_cache(maxsize=64)
def _identity(n: int, p: int) -> "Mat":
    return _mat(n, n, tuple(((0,) * i + (1,) + (0,) * (n - 1 - i)) for i in range(n)), 1, p)


def _nonzeros(num: tuple, s: int) -> list:
    """Per row of num, the (col, value) list of its nonzero entries, each
    value times s."""
    if s == 1:
        return [[(j, x) for j, x in enumerate(row) if x] for row in num]
    if s == -1:
        return [[(j, -x) for j, x in enumerate(row) if x] for row in num]
    return [[(j, x * s) for j, x in enumerate(row) if x] for row in num]


def _adjugate(num: tuple) -> tuple[tuple, int]:
    """(adj, det) of the square num of 1 to 3 rows of ints, by cofactors."""
    if len(num) == 1:
        return ((1,),), num[0][0]
    if len(num) == 2:
        (a, b), (c, d) = num
        return ((d, -b), (-c, a)), a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = num
    x, y, z = e * i - f * h, f * g - d * i, d * h - e * g   # cofactors of row 0
    return ((x, c * h - b * i, b * f - c * e),
            (y, a * i - c * g, c * d - a * f),
            (z, b * g - a * h, a * e - b * d)), a * x + b * y + c * z


def sum_of_products(terms: Sequence[tuple]) -> "Mat":
    """s1 * A1 * B1 + s2 * A2 * B2 + ... for the terms (s, A, B), all over
    one field; each s is a scalar.

    The sum is the one product [A1 A2 ...] * [s1 B1; s2 B2; ...], the rows
    of the A's side by side against the scaled B's.  Term k lies over
    d_k = den(A) * den(B) * den(s) and the sum over their lcm D (1 over
    F_p, where s is an int or its residue), so term k scales num(B) by
    num(s) * (D // d_k)."""
    _, first, last = terms[0]
    rows, width, p = first.rows, last.cols, first.p
    live, den = [], 1
    for s, a, b in terms:
        if a.cols != b.rows or a.rows != rows or b.cols != width:
            raise ShapeMismatch(f"mul: {a.rows}x{a.cols} by {b.rows}x{b.cols} in a "
                                f"{rows}x{width} sum")
        if a.p != p or b.p != p:
            raise MixedCharacteristics("mixed characteristics")
        if s.__class__ is not int:   # an int is reduced with the sum
            s = _residue(s, p) if p else _rational(s)
        # an empty dimension leaves a factor with no nonzero entry
        if s and any(map(any, a.num)) and any(map(any, b.num)):
            d = a.den * b.den * s.denominator
            if d != den:
                den = lcm(den, d)
            live.append((s.numerator, d, a.num, b.num))
    if not live:
        return _zeros(rows, width, p)
    right = []
    for s, d, _, num in live:
        right += _nonzeros(num, s if d == den else s * (den // d))
    left = live[0][2] if len(live) == 1 else \
        map(chain.from_iterable, zip(*[t[2] for t in live]))
    return _product(left, right, den, p, rows, width)


def _product(left, right: list, den: int, p: int, rows: int, width: int) -> "Mat":
    """(left times right) / den, rows x width, in canonical form: left the
    rows of ints of one factor, right the nonzero lists of the other's."""
    out = []
    for row in left:
        acc = [0] * width
        for a, nonzero in zip(row, right):
            if nonzero and a:
                for j, b in nonzero:
                    acc[j] += a * b
        out.append(tuple(acc))
    return _canonical(rows, width, tuple(out), den, p)


class Mat:
    """Immutable matrix with explicit shape over Q (p = 0) or F_p."""

    __slots__ = ("rows", "cols", "num", "den", "p")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence], p: int = 0):
        if p:
            num, den = tuple(tuple([_residue(x, p) for x in row]) for row in data), 1
        else:
            num, den = rational_rows(data)
        _check_shape(rows, cols, num)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_num(self, num)
        _set_den(self, den)
        _set_p(self, p)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Mat is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zeros(rows: int, cols: int, p: int = 0) -> "Mat":
        return _zeros(rows, cols, p)

    @staticmethod
    def identity(n: int, p: int = 0) -> "Mat":
        return _identity(n, p)

    @staticmethod
    def rational(data: Sequence[Sequence]) -> "Mat":
        """A matrix over Q of the shape of data, read by `rational_rows`."""
        num, den = rational_rows(data)
        return _over_q(len(num), len(num[0]) if num else 0, num, den)

    # -- entries --------------------------------------------------------
    @property
    def data(self) -> tuple:
        """The entries, a tuple of row tuples, built when read."""
        num, den, p = self.num, self.den, self.p
        if p:
            return tuple(tuple([Fp(x, p) for x in row]) for row in num)
        if den == 1:
            return num
        return tuple(tuple([_quotient(x, den) for x in row]) for row in num)

    def __getitem__(self, rc):
        r, c = rc
        return self._entry(self.num[r][c])

    def _entry(self, x: int):
        """The entry read from x over den."""
        if self.p:
            return Fp(x, self.p)
        return x if self.den == 1 else _quotient(x, self.den)

    # -- basics -------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.p == other.p
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.num, self.den, self.p))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {list(map(list, self.data))})"

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def transpose(self) -> "Mat":
        num = tuple(zip(*self.num)) if self.rows else ((),) * self.cols
        return _mat(self.cols, self.rows, num, self.den, self.p)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("add: shapes differ")
        a, b, den = _common(self, other)
        return _canonical(self.rows, self.cols,
                          tuple(tuple([(x + y if x else y) if y else x for x, y in zip(r1, r2)])
                                for r1, r2 in zip(a, b)), den, self.p)

    def __sub__(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("sub: shapes differ")
        a, b, den = _common(self, other)
        return _canonical(self.rows, self.cols,
                          tuple(tuple([(x - y if x else -y) if y else x for x, y in zip(r1, r2)])
                                for r1, r2 in zip(a, b)), den, self.p)

    def __neg__(self) -> "Mat":
        num = tuple(tuple([-x for x in row]) for row in self.num)
        if self.p:
            return _canonical(self.rows, self.cols, num, 1, self.p)
        return _mat(self.rows, self.cols, num, self.den, 0)   # still in lowest terms

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return self.scaled(other)
        p, a, b = self.p, self.num, other.num
        if self.cols != other.rows or other.p != p:
            return sum_of_products(((1, self, other),))   # raises the mismatch
        # a factor equal to the identity is no product; the left one first
        if self.den == 1 and self.rows == self.cols and a == _identity(self.rows, p).num:
            return other
        if other.den == 1 and other.rows == other.cols and b == _identity(other.rows, p).num:
            return self
        if not (any(map(any, a)) and any(map(any, b))):   # an empty dimension too
            return _zeros(self.rows, other.cols, p)
        return _product(a, _nonzeros(b, 1), self.den * other.den, p, self.rows, other.cols)

    def __rmul__(self, scalar):
        return self.scaled(scalar)

    def scaled(self, s) -> "Mat":
        """self times the scalar s."""
        p = self.p
        s = _residue(s, p) if p else s if s.__class__ is int else _rational(s)
        return _canonical(self.rows, self.cols, _scale(self.num, s.numerator),
                          self.den * s.denominator, p)

    # -- block operations ---------------------------------------------
    # Over Q the nums of the operands are brought to the lcm of their
    # denominators; like the lcm of entry denominators, it leaves them in
    # lowest terms.
    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack: row counts differ")
        a, b, den = _common(self, other)
        return _mat(self.rows, self.cols + other.cols,
                    tuple(r1 + r2 for r1, r2 in zip(a, b)), den, self.p)

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack: column counts differ")
        a, b, den = _common(self, other)
        return _mat(self.rows + other.rows, self.cols, a + b, den, self.p)

    @staticmethod
    def block_diag(blocks: Sequence["Mat"]) -> "Mat":
        """The blocks down the diagonal, all over one field."""
        p = blocks[0].p if blocks else 0
        if any(b.p != p for b in blocks):
            raise MixedCharacteristics("mixed characteristics")
        den = lcm(*(b.den for b in blocks))
        cols = sum(b.cols for b in blocks)
        out = []
        c0 = 0
        for b in blocks:
            left, right = (0,) * c0, (0,) * (cols - c0 - b.cols)
            out.extend(left + row + right for row in _scale(b.num, den // b.den))
            c0 += b.cols
        return _mat(len(out), cols, tuple(out), den, p)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        num = self.num
        return _canonical(len(row_idx), len(col_idx),
                          tuple(tuple([num[r][c] for c in col_idx]) for r in row_idx),
                          self.den, self.p)

    # -- reductions ---------------------------------------------------
    def _reduce(self) -> tuple[list, list, int, list[int]]:
        """The fraction-free Gauss-Jordan of the rows of num:
        (rows, at, den, pivots), den the last pivot.  Row i of the RREF is
        rows[i] divided by at[i].  Over Q each row is first divided by its
        content.

        Clearing column pc with pivot p takes every other row t to
        (p * t - t[pc] * pivot row) // den, den the previous pivot; the
        division is exact, as each entry is a minor.  A row with t[pc] = 0
        is only scaled by p / den, so it is left as it is and brought up to
        date when a pivot column reaches it: row i holds its entries times
        at[i] / den.  Over F_p the pivot row is first scaled to 1, so p,
        den and every at[i] stay 1, and each updated entry is reduced mod
        the characteristic."""
        q = self.p
        if q:
            m = [list(row) for row in self.num]
        else:
            m = []
            for row in self.num:
                g = gcd(*row)
                m.append([x // g for x in row] if g > 1 else list(row))
        n = len(m)
        den, at = 1, [1] * n
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
            if q and row[pc] != 1:
                inv = pow(row[pc], -1, q)
                row = m[pr] = [x * inv % q for x in row]
            p = row[pc]
            pivot = [(c, row[c]) for c in range(pc + 1, self.cols) if row[c]]
            for i, target in enumerate(m):
                if target[pc] and i != pr:
                    if at[i] != den:
                        target = [x * den // at[i] for x in target]
                    f = target[pc]
                    new = [x * p // den if x else x for x in target] if p != den else target
                    if q:
                        for c, b in pivot:
                            new[c] = (target[c] - f * b) % q
                    else:
                        for c, b in pivot:
                            new[c] = (target[c] * p - f * b) // den
                    new[pc] = 0
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
        return _canonical(self.rows, self.cols, num, den, self.p), pivots

    def rank(self) -> int:
        return len(self._reduce()[3])

    def nullity(self) -> int:
        return self.cols - self.rank()

    def nullspace(self) -> "Mat":
        """Basis of the right kernel, returned as columns of a cols x k matrix."""
        red, pivots = self.rref()
        unit = red.den   # 1 over red's denominator
        pivot_row = dict(zip(pivots, red.num))
        free = [c for c in range(self.cols) if c not in pivot_row]
        units = {fc: tuple([unit if k == fc else 0 for k in free]) for fc in free}
        num = tuple(tuple([-pivot_row[c][fc] for fc in free]) if c in pivot_row else units[c]
                    for c in range(self.cols))
        return _canonical(self.cols, len(free), num, red.den, self.p)

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
        zeros = (0,) * rhs.cols
        num = tuple(pivot_row[c][n:] if c in pivot_row else zeros for c in range(n))
        return _canonical(n, rhs.cols, num, red.den, self.p)

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise NotInvertible("inverse of non-square matrix")
        n = self.rows
        if n == 0:
            return self
        if n <= 3:
            adj, det = _adjugate(self.num)
            p = self.p
            if p:
                det %= p
            if not det:
                raise NotInvertible("singular matrix")
            if p:
                return _canonical(n, n, _scale(adj, pow(det, -1, p)), 1, p)
            # (num / den)^-1 = den * adj(num) / det(num)
            return _canonical(n, n, _scale(adj, self.den), det, 0)
        out = self.solve(_identity(n, self.p))
        if out is None:
            raise NotInvertible("singular matrix")
        return out

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def trace(self):
        if self.rows != self.cols:
            raise ShapeMismatch("trace of non-square matrix")
        return self._entry(sum(row[i] for i, row in enumerate(self.num)))

    def charpoly(self) -> list:
        """Monic characteristic polynomial det(xI - A) over Q, coefficients
        high to low, by Faddeev-LeVerrier; a matrix over F_p is refused."""
        if self.rows != self.cols:
            raise ShapeMismatch("charpoly of non-square matrix")
        if self.p:
            raise InputError(f"charpoly is taken over Q only, not over F_{self.p}")
        n = self.rows
        coeffs = [1]
        m = Mat.identity(n)
        for k in range(1, n + 1):
            am = self * m
            c = qq(Fraction(-am.trace(), k))
            coeffs.append(c)
            m = am._plus_scalar(c)
        return coeffs

    def poly_eval(self, coeffs: Sequence) -> "Mat":
        """Evaluate a polynomial (coefficients high to low, scalars) at
        this matrix."""
        if self.rows != self.cols:
            raise ShapeMismatch("poly_eval of non-square matrix")
        out = Mat.zeros(self.rows, self.rows, self.p)
        for c in coeffs:
            out = (out * self)._plus_scalar(c)
        return out

    def _plus_scalar(self, c) -> "Mat":
        """self + c * identity, for a square matrix and a scalar c."""
        p, den = self.p, self.den
        c = _residue(c, p) if p else c if c.__class__ is int else _rational(c)
        new = lcm(den, c.denominator)
        rows = [list(row) for row in _scale(self.num, new // den)]
        c = c.numerator * (new // c.denominator)
        for i, row in enumerate(rows):
            row[i] += c
        return _canonical(self.rows, self.cols, tuple(map(tuple, rows)), new, p)

    def power(self, k: int) -> "Mat":
        if self.rows != self.cols:
            raise ShapeMismatch("power of non-square matrix")
        out = Mat.identity(self.rows, self.p)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out


# The slots are set through their descriptors, which bypass `Mat.__setattr__`.
_set_rows, _set_cols, _set_num, _set_den, _set_p = (Mat.__dict__[n].__set__
                                                    for n in Mat.__slots__)


def column_space_contains(basis: Mat, vecs: Mat) -> bool:
    """True iff every column of vecs lies in the span of basis's columns."""
    if basis.cols == 0:
        return vecs.is_zero()
    return basis.hstack(vecs).rank() == basis.rank()
