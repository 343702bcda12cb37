"""Small exact fields: prime fields and number fields Q[x]/(f).

Number field elements are polynomials in the field generator with Fraction
coefficients, reduced modulo an irreducible monic f.  They name the
eigenvalues and eigenvectors of a rational matrix exactly: work in
Q[x]/(f) for each irreducible factor f of the characteristic polynomial,
one Galois-conjugacy class of eigenvalues at a time.  Deciding a property
on all eigenvectors at once needs only the rational polynomial helpers:
gcd and derivative give the square-free part of the characteristic
polynomial.

Polynomials are plain coefficient lists, highest degree first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Sequence

from .errors import NotInvertible, PropertyViolation


# ---------------------------------------------------------------------------
# prime fields
# ---------------------------------------------------------------------------

class Fp:
    """An element of the prime field F_p.  Arithmetic takes ints as elements
    of F_p, but only an element of the same F_p compares equal."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _coerce(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        return Fp(int(other), self.p)

    def __add__(self, other):
        o = self._coerce(other)
        return Fp(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Fp(self.v - o.v, self.p)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return Fp(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return Fp(self.v * pow(o.v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        return NotImplemented

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v} mod {self.p}"


# ---------------------------------------------------------------------------
# rational polynomial helpers (coefficients high to low)
# ---------------------------------------------------------------------------

def poly_trim(p: Sequence[Fraction]) -> list[Fraction]:
    p = list(p)
    while len(p) > 1 and not p[0]:
        p.pop(0)
    return p


def poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]):
    """Quotient and remainder over Q, as Fractions; int coefficients are
    read as Fractions, so no division below is one int by another."""
    a = poly_trim(map(Fraction, a))
    b = poly_trim(map(Fraction, b))
    if b == [Fraction(0)]:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and poly_trim(r) != [Fraction(0)]:
        shift = len(r) - len(b)
        f = r[0] / b[0]
        if not f and len(r) == len(b):
            break
        q[len(q) - 1 - shift] = f
        for i, y in enumerate(b):
            r[i] -= f * y
        r.pop(0)
        if not r:
            r = [Fraction(0)]
    return poly_trim(q), poly_trim(r)


def poly_derivative(p: Sequence[Fraction]) -> list[Fraction]:
    deg = len(p) - 1
    return [c * (deg - i) for i, c in enumerate(p[:-1])] or [Fraction(0)]


def poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """The monic greatest common divisor over Q, as Fractions, by Euclid;
    a and b not both zero."""
    a, b = poly_trim(map(Fraction, a)), poly_trim(map(Fraction, b))
    while b != [Fraction(0)]:
        a, b = b, poly_divmod(a, b)[1]
    return [c / a[0] for c in a]


def poly_str(p: Sequence[Fraction], var: str = "x") -> str:
    """p as text in the variable var, "0" when it is zero."""
    deg = len(p) - 1
    terms = []
    for i, c in enumerate(p):
        if not c:
            continue
        power = deg - i
        if power == 0:
            terms.append(str(c))
        elif power == 1:
            terms.append(f"{c}*{var}" if c != 1 else var)
        else:
            terms.append(f"{c}*{var}^{power}" if c != 1 else f"{var}^{power}")
    return " + ".join(terms) or "0"


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> tuple[Fraction, ...]:
    """The d-th cyclotomic polynomial, coefficients high to low."""
    num = [Fraction(1)] + [Fraction(0)] * (d - 1) + [Fraction(-1)]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            num, rem = poly_divmod(num, list(cyclotomic_poly(e)))
            if rem != [Fraction(0)]:
                raise PropertyViolation(f"Phi_{e} does not divide x^{d} - 1")
    return tuple(num)


def factor_rational_poly(coeffs: Sequence[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Factor a polynomial over Q into (monic irreducible, multiplicity) pairs."""
    import sympy  # deferred: only this helper needs it

    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** (len(coeffs) - 1 - i)
               for i, c in enumerate(coeffs))
    _, factors = sympy.Poly(expr, x, domain="QQ").factor_list()
    out = []
    for poly, mult in factors:
        cs = [Fraction(int(c.numerator), int(c.denominator)) for c in poly.all_coeffs()]
        lead = cs[0]
        cs = [c / lead for c in cs]
        out.append((cs, int(mult)))
    return out


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------

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


def _poly_add(a, b):
    return [x + y for x, y in zip_longest(a[::-1], b[::-1], fillvalue=Fraction(0))][::-1]


def _poly_sub(a, b):
    return [x - y for x, y in zip_longest(a[::-1], b[::-1], fillvalue=Fraction(0))][::-1]
