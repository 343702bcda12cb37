"""Number fields Q[x]/(f), kept as the oracle of the rational computation
that replaced them: `module_lab._eigen_counterexample` names a failing
eigenvector over Q alone, through the Sylvester form g X = X C^T, and
these fields name it by elimination over Q(a) itself.  They also give the
`Mat` kernels a field other than Q and F_p to run over.

Elements are polynomials in the field generator with Fraction
coefficients, reduced modulo an irreducible monic f; inverses come from
the extended Euclidean algorithm in Q[x].  Polynomials are plain
coefficient lists, highest degree first.
"""

from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from qfold.errors import NotInvertible
from qfold.linalg import Mat
from qfold.module_lab import EigenInclusionReport
from qfold.numberfield import factor_rational_poly, poly_divmod, poly_str, poly_trim


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

    __floordiv__ = __truediv__

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


def eigen_counterexample(x: str, g_sub: Mat, defect: Mat):
    """The counterexample of `module_lab._eigen_counterexample` found by
    elimination over Q[x]/(f): the first kernel vector u of g_sub - a,
    one irreducible factor f at a time, with defect u != 0, or None."""
    for factor, _mult in factor_rational_poly(g_sub.charpoly()):
        field = NumberField(factor)
        shift = g_sub.map(field.from_rational) \
            - Mat.identity(g_sub.rows, field.one).scaled(field.generator)
        defect_k = defect.map(field.from_rational)
        for u in columns(shift.nullspace()):
            if not (defect_k * u).is_zero():
                lam = str(-factor[1]) if len(factor) == 2 else f"root of {poly_str(factor)}"
                return EigenInclusionReport(False, x, lam,
                                            tuple(repr(u[r, 0]) for r in range(u.rows)))
    return None
