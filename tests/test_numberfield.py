from fractions import Fraction

import pytest

from qfold.errors import NotInvertible
from qfold.linalg import Mat
from qfold.numberfield import (
    Fp,
    NumberField,
    cyclotomic_poly,
    factor_rational_poly,
    poly_divmod,
    poly_mul,
)


def test_prime_field_arithmetic():
    a, b = Fp(2, 5), Fp(4, 5)
    assert a + b == Fp(1, 5)
    assert a * b == Fp(3, 5)
    assert a - b == Fp(3, 5)
    assert (a / b).v == (2 * pow(4, -1, 5)) % 5
    assert -a == Fp(3, 5)
    assert bool(Fp(0, 7)) is False
    with pytest.raises(ZeroDivisionError):
        a / Fp(0, 5)


def test_cyclotomic_polynomials():
    x = lambda cs: [Fraction(c) for c in cs]
    assert list(cyclotomic_poly(1)) == x([1, -1])
    assert list(cyclotomic_poly(2)) == x([1, 1])
    assert list(cyclotomic_poly(3)) == x([1, 1, 1])
    assert list(cyclotomic_poly(4)) == x([1, 0, 1])
    assert list(cyclotomic_poly(6)) == x([1, -1, 1])
    # product of Phi_d over divisors of 12 recovers x^12 - 1
    prod = [Fraction(1)]
    for d in (1, 2, 3, 4, 6, 12):
        prod = poly_mul(prod, list(cyclotomic_poly(d)))
    assert prod == x([1] + [0] * 11 + [-1])


def test_poly_divmod():
    # (x^2 - 1) / (x - 1) = x + 1 rem 0
    q, r = poly_divmod([Fraction(1), Fraction(0), Fraction(-1)],
                       [Fraction(1), Fraction(-1)])
    assert q == [Fraction(1), Fraction(1)]
    assert r == [Fraction(0)]


def test_factor_rational_poly():
    # x^3 - 1 = (x - 1)(x^2 + x + 1)
    factors = factor_rational_poly([Fraction(1), Fraction(0), Fraction(0), Fraction(-1)])
    polys = sorted(tuple(f) for f, _ in factors)
    assert polys == [
        (Fraction(1), Fraction(-1)),
        (Fraction(1), Fraction(1), Fraction(1)),
    ]
    # repeated factor
    factors = factor_rational_poly([Fraction(1), Fraction(-2), Fraction(1)])
    assert factors == [([Fraction(1), Fraction(-1)], 2)]


def test_number_field_inverse_and_identities():
    field = NumberField(cyclotomic_poly(5))
    z = field.generator
    assert z * z.inverse() == field.one
    assert z ** 1 if False else True
    # z^5 = 1 in Q(zeta_5)
    acc = field.one
    for _ in range(5):
        acc = acc * z
    assert acc == field.one
    with pytest.raises(NotInvertible):
        field.zero.inverse()


def test_number_field_mixed_scalars():
    field = NumberField(cyclotomic_poly(3))
    z = field.generator
    assert z + 1 == field.element([Fraction(1), Fraction(1)])
    assert 2 * z - z == z
    assert (z / z) == 1
    assert z - z == field.zero


def test_equal_scalars_hash_equal():
    # Python's contract: a == b implies hash(a) == hash(b), so equal
    # entries collapse in sets and dicts
    field = NumberField([1, 0, 1])
    assert field.zero == Fraction(0) and len({field.zero, Fraction(0)}) == 1
    assert len({field.from_rational(Fraction(3, 4)), Fraction(3, 4)}) == 1
    assert field.one == 1 and hash(field.one) == hash(1)
    assert len({field.generator, field.element([1, 0])}) == 1
    # an element of F_p equals only elements of the same F_p
    assert Fp(1, 3) != 1 and Fp(1, 3) != 4 and Fp(1, 3) != Fraction(1)
    assert Fp(1, 3) != Fp(1, 5)
    assert Fp(1, 3) == Fp(4, 3) and hash(Fp(1, 3)) == hash(Fp(4, 3))
    assert len({Fp(1, 3), 1}) == 2
    # arithmetic still takes ints as elements of F_p
    assert Fp(2, 3) + 2 == Fp(1, 3) and 1 - Fp(2, 3) == Fp(2, 3)


def test_prime_field_reads_a_fraction_as_a_quotient():
    # 1/2 is the inverse of 2, that is 3 mod 5, not the integer part 0
    assert Fp(1, 5) * Fraction(1, 2) == Fp(3, 5) == Fraction(1, 2) * Fp(1, 5)
    assert Mat.identity(2, Fp(1, 5)).poly_eval([Fraction(1, 2)]) \
        == Mat.identity(2, Fp(1, 5)).scaled(Fp(3, 5))
    with pytest.raises(ZeroDivisionError):
        Fp(1, 5) * Fraction(1, 5)
