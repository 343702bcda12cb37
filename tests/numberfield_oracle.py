"""Number fields Q[x]/(f), kept as the oracle of the rational computation
that replaced them: `module_lab._eigen_counterexample` names a failing
eigenvector over Q alone, through the Sylvester form g X = X C^T, and
these fields name it by elimination over Q(a) itself.  `Mat` holds Q and
F_p only, so a matrix over Q(a) here is a list of rows, with a product
(`apply`) and a Gauss-Jordan nullspace (`nullspace`) of its own.

Elements are polynomials in the field generator with Fraction
coefficients, reduced modulo an irreducible monic f; inverses come from
the extended Euclidean algorithm in Q[x].  Polynomials are plain
coefficient lists, highest degree first.

The prime fields have their reference arithmetic here too: `Mat` reads an
entry over F_p out as an `Fp`, which has none, and the dense oracles
compute with the `FpElement` of its residue (`element`).
"""

from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from qfold.errors import MixedCharacteristics, NotInvertible
from qfold.linalg import Mat
from qfold.module_lab import EigenInclusionReport
from qfold.numberfield import Fp, factor_rational_poly, poly_divmod, poly_str, poly_trim


class FpElement(Fp):
    """An element of the prime field F_p with arithmetic.  Arithmetic takes
    ints and Fractions as elements of F_p, and an `Fp` of the same F_p by
    its residue; like an `Fp`, it compares equal only to an element of the
    same F_p."""

    __slots__ = ()

    def _coerce(self, other) -> "FpElement":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise MixedCharacteristics("mixed characteristics")
            return FpElement(other.v, self.p)
        if isinstance(other, Fraction):   # n/d, refused when p divides d
            return FpElement(other.numerator, self.p) / FpElement(other.denominator, self.p)
        return FpElement(int(other), self.p)

    def __add__(self, other):
        o = self._coerce(other)
        return FpElement(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FpElement(self.v - o.v, self.p)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return FpElement(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.v * pow(o.v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return FpElement(-self.v, self.p)


def element(x):
    """An entry read off a matrix as the oracles compute with it: an `Fp`
    as the `FpElement` of its residue, an int or a Fraction as it is."""
    return FpElement(x.v, x.p) if type(x) is Fp else x


def residue(x):
    """An entry or a scalar computed in a field, as `Mat(.., p)` takes it
    back: an `Fp` (an `FpElement` too) by its residue."""
    return x.v if isinstance(x, Fp) else x


def columns(m: Mat) -> list[Mat]:
    """The columns of m, each an m.rows x 1 matrix."""
    return [m.submatrix(range(m.rows), [c]) for c in range(m.cols)]


def poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(a, b):
    return [x + y for x, y in zip_longest(a[::-1], b[::-1], fillvalue=Fraction(0))][::-1]


def _poly_sub(a, b):
    return [x - y for x, y in zip_longest(a[::-1], b[::-1], fillvalue=Fraction(0))][::-1]


class NumberField:
    """Q[x]/(f) for monic irreducible f with Fraction coefficients."""

    def __init__(self, modulus: Sequence[Fraction]):
        mod = poly_trim([Fraction(c) for c in modulus])
        if mod[0] != 1:
            mod = [c / mod[0] for c in mod]
        self.modulus = tuple(mod)
        self.degree = len(mod) - 1
        if self.degree < 1:
            raise ValueError("modulus must have positive degree")

    def element(self, coeffs: Sequence[Fraction]) -> "NumberFieldElement":
        return NumberFieldElement(self, coeffs)

    def from_rational(self, q) -> "NumberFieldElement":
        return self.element([Fraction(q)])

    @property
    def zero(self) -> "NumberFieldElement":
        return self.element([Fraction(0)])

    @property
    def one(self) -> "NumberFieldElement":
        return self.element([Fraction(1)])

    @property
    def generator(self) -> "NumberFieldElement":
        """A root of the modulus."""
        return self.element([Fraction(1), Fraction(0)])

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        return f"NumberField(deg {self.degree})"


class NumberFieldElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: Sequence[Fraction]):
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > field.degree:
            _, cs = poly_divmod(cs, list(field.modulus))
        cs = poly_trim(cs)
        self.field = field
        self.coeffs = tuple(cs)

    def _coerce(self, other) -> "NumberFieldElement":
        if isinstance(other, NumberFieldElement):
            if other.field != self.field:
                raise ValueError("mixed number fields")
            return other
        return self.field.from_rational(other)

    def __add__(self, other):
        return NumberFieldElement(self.field, _poly_add(self.coeffs, self._coerce(other).coeffs))

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return NumberFieldElement(self.field, _poly_sub(self.coeffs, self._coerce(other).coeffs))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return NumberFieldElement(self.field, poly_mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElement":
        if not self:
            raise NotInvertible("zero has no inverse")
        # extended Euclid in Q[x]: s*self + t*modulus = gcd = 1
        r0, r1 = list(self.field.modulus), list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while poly_trim(r1) != [Fraction(0)]:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly_trim(_poly_sub(s0, poly_mul(q, s1)))
        lead = r0[0]
        inv = [c / lead for c in s0]
        return NumberFieldElement(self.field, inv)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (NumberFieldElement, int, Fraction)):
            return (self - self._coerce(other)).coeffs == (Fraction(0),)
        return NotImplemented

    def __bool__(self):
        return self.coeffs != (Fraction(0),)

    def __hash__(self):
        # a constant equals, so hashes like, the rational it holds
        if len(self.coeffs) == 1:
            return hash(self.coeffs[0])
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return poly_str(self.coeffs, "a")  # in the generator a


def rows_over(field: NumberField, m: Mat) -> list[list]:
    """The rows of a rational matrix, each entry an element of field."""
    return [[field.from_rational(x) for x in row] for row in m.data]


def shifted(field: NumberField, m: Mat) -> list[list]:
    """The rows of m - a for a square rational m, a the generator of field."""
    rows = rows_over(field, m)
    for i, row in enumerate(rows):
        row[i] = row[i] - field.generator
    return rows


def apply(rows: list[list], u: list) -> list:
    """The matrix with these rows times the vector u, over one field."""
    return [sum((x * y for x, y in zip(row, u)), 0) for row in rows]


def nullspace(field: NumberField, rows: list[list], cols: int) -> list[list]:
    """A basis of the right kernel of a matrix over field with these rows,
    by Gauss-Jordan: per free column c the vector that is 1 at c and 0 at
    the other free columns, as `Mat.nullspace` orders and scales it."""
    m = [list(row) for row in rows]
    pivots = []
    for pc in range(cols):
        pr = len(pivots)
        r = next((r for r in range(pr, len(m)) if m[r][pc]), None)
        if r is None:
            continue
        m[pr], m[r] = m[r], m[pr]
        inv = m[pr][pc].inverse()
        m[pr] = [x * inv for x in m[pr]]
        for i, row in enumerate(m):
            if i != pr and row[pc]:
                f = row[pc]
                m[i] = [x - f * y for x, y in zip(row, m[pr])]
        pivots.append(pc)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        u = [field.zero] * cols
        u[fc] = field.one
        for row, pc in zip(m, pivots):
            u[pc] = -row[fc]
        basis.append(u)
    return basis


def eigen_counterexample(x: str, g_sub: Mat, defect: Mat):
    """The counterexample of `module_lab._eigen_counterexample` found by
    elimination over Q[x]/(f): the first kernel vector u of g_sub - a,
    one irreducible factor f at a time, with defect u != 0, or None."""
    for factor, _mult in factor_rational_poly(g_sub.charpoly()):
        field = NumberField(factor)
        defect_k = rows_over(field, defect)
        for u in nullspace(field, shifted(field, g_sub), g_sub.cols):
            if any(apply(defect_k, u)):
                lam = str(-factor[1]) if len(factor) == 2 else f"root of {poly_str(factor)}"
                return EigenInclusionReport(False, x, lam, tuple(map(repr, u)))
    return None
