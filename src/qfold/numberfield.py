"""Rational polynomials, and the prime fields F_p as matrices read them
out: `Fp`, the helpers for polynomials over Q, and the companion matrix
of a monic one.

`Fp` is how a matrix over F_p reads its entries out: a residue and its p,
which compare and hash, with no arithmetic.  `Mat` itself holds residues
as ints, computes on them, and takes ints and Fractions with p given (see
`qfold.linalg`); the reference arithmetic on elements of F_p is the tests'
oracle (`tests/numberfield_oracle.py`).  `linalg` imports `Fp` from here,
so `companion`, the one matrix built here, imports `linalg` when called.

The eigenvalues of a rational matrix are named one irreducible factor f of
its characteristic polynomial at a time, without leaving Q: a vector over
Q[x]/(f) is a rational matrix whose columns are its coordinates in the
basis 1, a, ..., a^(k-1) of a root a, and multiplication by a is the
companion matrix of f (`companion`).  Deciding a property on all
eigenvectors at once needs only gcd and derivative, which give the
square-free part of the characteristic polynomial.

Polynomials are plain coefficient lists, highest degree first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .linalg import Mat


# ---------------------------------------------------------------------------
# prime fields
# ---------------------------------------------------------------------------

class Fp:
    """An element of the prime field F_p, as a matrix over F_p reads its
    entries out.  It compares equal only to an element of the same F_p,
    and has no arithmetic: `Mat` computes on residues as ints."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

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


def poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]):
    """Quotient and remainder over Q, as Fractions, by the schoolbook loop;
    int coefficients are read as Fractions, so no division below is one
    int by another."""
    r = poly_trim(map(Fraction, a))
    b = poly_trim(map(Fraction, b))
    if b == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    q = []
    while len(r) >= len(b):
        f = r[0] / b[0]
        q.append(f)
        r = [x - f * y for x, y in zip(r[1:], b[1:] + [0] * (len(r) - len(b)))]
    return poly_trim(q or [Fraction(0)]), poly_trim(r or [Fraction(0)])


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
            num = poly_divmod(num, list(cyclotomic_poly(e)))[0]  # Phi_e divides x^d - 1
    return tuple(num)


def companion(poly: Sequence[Fraction]) -> Mat:
    """The companion matrix of a monic polynomial (coefficients high to
    low) of degree k >= 1: ones on the subdiagonal, and minus the
    coefficients in the last column, constant term topmost.  It is the
    matrix of multiplication by a root a in the basis 1, a, ..., a^(k-1)."""
    from .linalg import Mat   # deferred: linalg imports Fp from here

    k = len(poly) - 1
    rows = [[0] * k for _ in range(k)]
    for r in range(1, k):
        rows[r][r - 1] = 1
    for r in range(k):
        rows[r][k - 1] = -poly[k - r]
    return Mat.rational(rows)


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
