import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qfold.errors import MixedCharacteristics, NotInvertible
from qfold.linalg import Mat
from qfold.numberfield import Fp, companion, cyclotomic_poly, factor_rational_poly, poly_divmod

from numberfield_oracle import FpElement, NumberField, poly_mul


def test_prime_field_arithmetic():
    a, b = FpElement(2, 5), FpElement(4, 5)
    assert a + b == Fp(1, 5)
    assert a * b == Fp(3, 5)
    assert a - b == Fp(3, 5)
    assert (a / b).v == (2 * pow(4, -1, 5)) % 5
    assert -a == Fp(3, 5)
    assert bool(FpElement(0, 7)) is False
    with pytest.raises(ZeroDivisionError):
        a / FpElement(0, 5)
    with pytest.raises(MixedCharacteristics, match="^mixed characteristics$"):
        FpElement(1, 3) + FpElement(1, 5)


def test_fp_is_a_readout_without_arithmetic():
    """`Fp` is how a matrix over F_p reads out: its class defines only
    what a readout needs, and no operator takes it."""
    methods = {name for name, value in vars(Fp).items() if callable(value)}
    assert methods == {"__init__", "__eq__", "__hash__", "__bool__", "__repr__"}
    x = Mat.identity(1, 5)[0, 0]
    assert type(x) is Fp and x == Fp(1, 5)
    binary = (operator.add, operator.sub, operator.mul, operator.truediv, operator.floordiv,
              operator.mod, operator.pow)
    for op in binary:
        for a, b in ((x, x), (x, 1), (1, x), (x, Fraction(1, 2))):
            with pytest.raises(TypeError):
                op(a, b)
    for op in (operator.neg, operator.pos, operator.invert, abs):
        with pytest.raises(TypeError):
            op(x)


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


def test_companion_matrix():
    # ones below the diagonal, minus the coefficients up the last column,
    # constant term topmost; its characteristic polynomial is the input
    f = [Fraction(1), Fraction(-1, 2), Fraction(0), Fraction(3)]
    c = companion(f)
    assert c == Mat.rational([[0, 0, -3], [1, 0, 0], [0, 1, Fraction(1, 2)]])
    assert c.charpoly() == f
    assert companion(cyclotomic_poly(3)) == Mat.rational([[0, -1], [1, -1]])


def test_poly_divmod():
    # (x^2 - 1) / (x - 1) = x + 1 rem 0
    q, r = poly_divmod([Fraction(1), Fraction(0), Fraction(-1)],
                       [Fraction(1), Fraction(-1)])
    assert q == [Fraction(1), Fraction(1)]
    assert r == [Fraction(0)]


COEFFICIENTS = st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(COEFFICIENTS, min_size=1, max_size=7), st.lists(COEFFICIENTS, min_size=1, max_size=5))
@example([0, 0, 1, 2], [0, 2, -1])        # leading zeros on both sides
@example([0], [1, 1])
@example([1, 2], [0, 0])                  # a zero divisor
def test_poly_divmod_divides(a, b):
    """a = q b + r with r zero or of lower degree than b, every coefficient
    a Fraction and both parts without leading zeros; a zero b is a
    ZeroDivisionError."""
    if not any(b):
        with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
            poly_divmod(a, b)
        return
    q, r = poly_divmod(a, b)
    while len(b) > 1 and not b[0]:
        b = b[1:]
    assert all(type(c) is Fraction for c in q + r), (q, r)
    assert (q[0] or len(q) == 1) and (r[0] or len(r) == 1), (q, r)
    assert r == [0] or len(r) < len(b), (r, b)
    product = poly_mul(q, b)
    width = max(len(product), len(a), len(r))
    pad = lambda p: [0] * (width - len(p)) + list(p)
    assert [x + y for x, y in zip(pad(product), pad(r))] == pad(a), (a, b, q, r)


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
    # the oracle's arithmetic takes ints as elements of F_p
    assert FpElement(2, 3) + 2 == Fp(1, 3) and 1 - FpElement(2, 3) == Fp(2, 3)


def test_prime_field_reads_a_fraction_as_a_quotient():
    # 1/2 is the inverse of 2, that is 3 mod 5, not the integer part 0
    assert FpElement(1, 5) * Fraction(1, 2) == Fp(3, 5) == Fraction(1, 2) * FpElement(1, 5)
    assert Mat.identity(2, 5).poly_eval([Fraction(1, 2)]) == Mat.identity(2, 5).scaled(3)
    assert Mat(1, 2, [[Fraction(1, 2), Fraction(-1, 2)]], 5) == Mat(1, 2, [[3, 2]], 5)
    with pytest.raises(ZeroDivisionError):
        FpElement(1, 5) * Fraction(1, 5)
    with pytest.raises(NotInvertible):
        Mat.identity(2, 5).scaled(Fraction(1, 5))
