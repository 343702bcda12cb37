import contextlib
import random
import sys
from fractions import Fraction
from itertools import chain, product
from math import gcd

import pytest

from qfold import linalg
from qfold.errors import (InputError, MixedCharacteristics, NotInvertible, QfoldError,
                          ShapeMismatch)
from qfold.linalg import Mat, column_space_contains, sum_of_products
from qfold.numberfield import Fp

from numberfield_oracle import FpElement, columns, element, residue


def test_rref_and_rank():
    m = Mat.rational([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert m.rank() == 2
    assert m.nullity() == 1
    red, pivots = m.rref()
    assert pivots == [0, 1]


def test_nullspace_is_kernel():
    m = Mat.rational([[1, 2], [2, 4]])
    ns = m.nullspace()
    assert ns.cols == 1
    assert (m * ns).is_zero()


def test_solve_and_inconsistent():
    m = Mat.rational([[1, 1], [0, 1]])
    sol = m.solve(Mat.rational([[3], [1]]))
    assert sol == Mat.rational([[2], [1]])
    bad = Mat.rational([[1, 1], [1, 1]]).solve(Mat.rational([[0], [1]]))
    assert bad is None


def test_inverse_round_trip():
    m = Mat.rational([[2, 1], [1, 1]])
    assert m * m.inverse() == Mat.identity(2)
    with pytest.raises(NotInvertible):
        Mat.rational([[1, 1], [1, 1]]).inverse()


def test_charpoly_and_poly_eval():
    m = Mat.rational([[2, -1], [-2, 2]])
    # det(xI - m) = x^2 - 4x + 2
    assert m.charpoly() == [Fraction(1), Fraction(-4), Fraction(2)]
    assert m.poly_eval(m.charpoly()).is_zero()


def test_charpoly_over_a_prime_field_is_refused_before_any_product(monkeypatch):
    # charpoly is taken over Q only: over F_p, Faddeev-LeVerrier would
    # divide by k = p, which is 0 there, and nothing needs it below p rows
    products = []
    mul = Mat.__mul__
    monkeypatch.setattr(Mat, "__mul__", lambda a, b: products.append(a) or mul(a, b))
    for p in (2, 3, 5):
        for n in range(7):
            for m in (Mat(n, n, [[(i + 2 * j) % p for j in range(n)] for i in range(n)], p),
                      Mat.identity(n, p)):
                with pytest.raises(InputError, match=rf"^charpoly is taken over Q only, "
                                                     rf"not over F_{p}$"):
                    m.charpoly()
    assert products == []


def test_a_fraction_whose_denominator_p_divides_is_refused_over_f_p():
    # 1/5 has no value in F_5: each way a rational scalar or entry enters a
    # matrix over F_5 refuses it by name
    fifth, one = Fraction(1, 5), Mat.identity(1, 5)
    calls = [lambda: Mat(1, 1, [[fifth]], 5), lambda: one.scaled(fifth),
             lambda: sum_of_products([(fifth, one, one)]), lambda: one.poly_eval([1, fifth])]
    for call in calls:
        with pytest.raises(NotInvertible, match="^the denominator 5 is not invertible mod 5$"):
            call()
    # a denominator prime to p is its inverse: 3/10 is 3 * 10^-1 = 3 * 5 = 15 = 1 mod 7
    assert Mat(1, 1, [[Fraction(3, 10)]], 7) == Mat.identity(1, 7)


def test_two_fields_in_one_operation_are_an_input_error():
    # each place that meets two fields raises the one named input error,
    # still a ValueError with its old message
    over_3 = Mat.identity(1, 3)
    calls = [lambda: Mat.identity(1) + over_3,
             lambda: sum_of_products([(1, Mat.identity(1), over_3)]),
             lambda: Mat.block_diag([Mat.identity(1), over_3])]
    for call in calls:
        with pytest.raises(MixedCharacteristics, match="^mixed characteristics$") as caught:
            call()
        assert isinstance(caught.value, InputError) and isinstance(caught.value, ValueError)


def test_det_matches_charpoly_constant():
    m = Mat.rational([[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    cp = m.charpoly()
    assert dense_det(m) == -cp[-1] if m.rows % 2 else cp[-1]


def test_empty_shapes():
    z = Mat.zeros(0, 3)
    assert z.rank() == 0
    assert z.nullspace().cols == 3
    assert Mat.zeros(3, 0).nullspace().cols == 0
    assert Mat.zeros(0, 0).inverse() == Mat.zeros(0, 0)
    assert Mat.zeros(0, 0).charpoly() == [Fraction(1)]


def test_rational_scalar_products_keep_integral_entries_as_ints():
    m = Mat.rational([[2, 4, 3]])
    for got in (m.scaled(Fraction(1, 2)), m * Fraction(1, 2), Fraction(1, 2) * m):
        assert got == Mat.rational([[1, 2, "3/2"]])
        assert [type(x) for x in got.data[0]] == [int, int, Fraction], got
        assert got.p == 0


def test_block_operations():
    a = Mat.rational([[1]])
    b = Mat.rational([[2]])
    bd = Mat.block_diag([a, b])
    assert bd == Mat.rational([[1, 0], [0, 2]])
    assert a.hstack(b) == Mat.rational([[1, 2]])
    assert a.vstack(b) == Mat.rational([[1], [2]])


def test_power():
    m = Mat.rational([[0, -1], [1, -1]])
    assert m.power(3) == Mat.identity(2)
    assert m.power(1) == m
    assert m.power(0) == Mat.identity(2)


def test_column_space_contains():
    basis = Mat.rational([[1, 0], [0, 1], [0, 0]])
    assert column_space_contains(basis, Mat.rational([[1], [2], [0]]))
    assert not column_space_contains(basis, Mat.rational([[0], [0], [1]]))


def test_linear_algebra_over_prime_field():
    m = Mat(2, 2, [[1, 2], [2, 2]], 3)
    assert m.rank() == 2
    assert m.inverse() * m == Mat.identity(2, 3)
    # det(1 2; 2 1) = -3 = 0 in F_3
    singular = Mat(2, 2, [[1, 2], [2, 1]], 3)
    assert singular.rank() == 1
    assert singular.nullspace().cols == 1


from hypothesis import example, given, settings, strategies as st

small_matrix = st.lists(
    st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=3, max_size=3)


@settings(max_examples=60, derandomize=True)
@given(small_matrix)
def test_inverse_and_nullspace_properties(rows):
    m = Mat.rational(rows)
    ns = m.nullspace()
    if ns.cols:
        assert (m * ns).is_zero()
    assert m.rank() + m.nullity() == 3
    if m.is_invertible():
        assert m * m.inverse() == Mat.identity(3)
        assert dense_det(m) != 0
    else:
        assert dense_det(m) == 0


@settings(max_examples=60, derandomize=True)
@given(small_matrix)
def test_rref_is_idempotent(rows):
    m = Mat.rational(rows)
    red, pivots = m.rref()
    again, pivots2 = red.rref()
    assert again == red and pivots == pivots2


# -- fields -----------------------------------------------------------------

def test_empty_product_keeps_prime_field_zeros():
    prod = Mat.zeros(2, 0, 3) * Mat.zeros(0, 2, 3)
    assert prod == Mat.zeros(2, 2, 3)
    assert all(isinstance(x, Fp) for row in prod.data for x in row)


def test_nullspace_of_prime_field_zero_matrix():
    basis = Mat.zeros(2, 2, 3).nullspace()
    assert basis == Mat.identity(2, 3)
    assert all(isinstance(x, Fp) for row in basis.data for x in row)


def test_one_prime_field_matrix_has_one_value():
    """Every way of naming one matrix over F_3 (ints with p given,
    unreduced ints, Fractions, rational strings) gives one value, equal and
    hash-equal, whose reads are Fp; equal ints over Q and F_3, or over F_3
    and F_5, name different matrices; and an F_p zero or identity is never
    the shared one over Q."""
    want = Mat(2, 2, [[1, 0], [2, 1]], 3)
    routes = [Mat(2, 2, [[4, 3], [-1, 7]], 3), Mat(2, 2, [[4, 0], [Fraction(1, 2), 1]], 3),
              Mat(2, 2, [["1", "6/2"], ["1/2", 1]], 3),
              want.inverse().inverse(), Mat.identity(2, 3) * want]
    assert_one_value(want, *routes)
    for m in (want, *routes):
        assert m.p == 3 and all(type(x) is Fp and x.p == 3 for row in m.data for x in row), m
        assert m[1, 0] == Fp(2, 3) and m.trace() == Fp(2, 3)
    assert Mat(1, 1, [[1]], 3)[0, 0] == Fp(1, 3)
    ints = [[1, 0], [2, 1]]
    over_q, over_3, over_5 = Mat.rational(ints), Mat(2, 2, ints, 3), Mat(2, 2, ints, 5)
    assert over_q != over_3 and over_3 != over_5 and over_q != over_5
    assert Mat.zeros(2, 2) != Mat.zeros(2, 2, 3) != Mat.zeros(2, 2, 5)
    for p in (2, 3, 5):
        for rows in range(4):
            for m in (Mat.zeros(rows, 2, p), Mat.identity(rows, p), Mat.zeros(rows, 0, p),
                      Mat.zeros(rows, 0, p) * Mat.zeros(0, 2, p)):
                assert m.p == p and m != Mat.zeros(m.rows, m.cols) \
                    and m != Mat.identity(m.rows), m
    # an `Fp` is no entry, over its own field or another: p names the field
    for p in (0, 3, 5):
        with pytest.raises(InputError, match="^matrix entries must be integers or rational "
                                             "strings, got 1 mod 3$"):
            Mat(1, 1, [[Fp(1, 3)]], p)


ENTRY_MAKERS = {
    "Q": (0, lambda a, b: Fraction(a)),
    "Q ints": (0, lambda a, b: a),
    # ints, halves and integral Fractions side by side
    "Q mixed": (0, lambda a, b: a if b == 0 else Fraction(a, 2) if b == 1 else Fraction(a)),
    "F2": (2, lambda a, b: a),
    "F3": (3, lambda a, b: a),
    "F5": (5, lambda a, b: a),
}
RATIONAL = (int, Fraction)

# The fields and the entries their matrices are built from: ints and
# Fractions over Q, and ints with p given over F_5, F_3 and F_2.
ONES = [(0, 1), (0, Fraction(1)), (5, 1), (3, 1), (2, 1)]
ONE_IDS = ["int", "Fraction", "F5", "F3", "F2"]


def field_mat(rows, cols, entries, p):
    """The matrix of entries computed in the field p."""
    return Mat(rows, cols, [[residue(x) for x in row] for row in entries], p)


@st.composite
def typed_matrices(draw):
    """(p, A, B) over one field: A is n x n and B is n x m, n, m in 0..3."""
    p, make = ENTRY_MAKERS[draw(st.sampled_from(sorted(ENTRY_MAKERS)))]
    entry = st.builds(make, st.integers(-2, 2), st.integers(-1, 1))

    def mat(rows, cols):
        data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
        return Mat(rows, cols, data, p)

    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return p, mat(n, n), mat(n, m)


def field_of(x):
    """The p of the field an entry read from a matrix lies in: 0 for an int
    or a Fraction (never a float), the p of an `Fp`, or None for a value of
    another kind."""
    return x.p if type(x) is Fp else 0 if type(x) in RATIONAL else None


def same_field(x, p) -> bool:
    """x is an entry read from a matrix over the field p."""
    return field_of(x) == p


def canonical(x) -> bool:
    """An entry over Q made from ints: an int when integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def has_charpoly(m: Mat) -> bool:
    """`charpoly` is taken over Q only."""
    return not m.p


def entry_type_results(p, a, b) -> tuple[list, list]:
    """The matrices and scalars of the kernels below on a square a and a b
    with as many rows; a scalar is an int or a Fraction."""
    two = 2 if p else Fraction(2)
    mats = [a, b, a + a, a - a, -a, a.scaled(two), a * b, b.transpose() * b,
            b * b.transpose(), b.transpose(),
            sum_of_products(((1, a, b), (two, a, a * b))),
            sum_of_products(((-1, b, b.transpose()), (3, a, a))),
            a.hstack(b), b.vstack(b), Mat.block_diag([b, a]),
            b.submatrix(range(b.rows), range(b.cols)), a.rref()[0], a.nullspace(),
            b.nullspace(), a.power(0), a.power(3), a.poly_eval([Fraction(1), Fraction(-2)])]
    mats += columns(b)
    solved = a.solve(b)
    if solved is not None:
        mats.append(solved)
    if a.is_invertible():
        mats.append(a.inverse())
    return mats, [a.trace(), *(a.charpoly() if has_charpoly(a) else [])]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(typed_matrices())
def test_operations_keep_the_entry_type(case):
    p, a, b = case
    mats, scalars = entry_type_results(p, a, b)
    for mat in mats:
        assert mat.p == p, mat
        assert all(same_field(x, p) for row in mat.data for x in row), mat
    for scalar in scalars:
        assert same_field(scalar, p), scalar
    if not p:
        # over Q every entry reads back an int when it is integral, however
        # it was reached and whatever it was built from
        assert all(canonical(x) for mat in mats for row in mat.data for x in row), mats
        assert all(canonical(x) for x in scalars), scalars


@pytest.mark.parametrize("p, one", ONES, ids=ONE_IDS)
def test_empty_matrices_keep_their_field(p, one):
    """A matrix with no entries is over the field it is given: one with no
    entries over F_p stays over F_p.  So does a row cleared by a unit
    pivot, built from ints or Fractions."""
    empty = Mat(0, 0, [], p)
    assert same_field(empty.trace(), p) and not empty.trace()
    if p:
        with pytest.raises(InputError, match=f"^charpoly is taken over Q only, not over F_{p}$"):
            empty.charpoly()
    else:
        assert [same_field(c, p) for c in empty.charpoly()] == [True]
    assert empty.inverse() == empty and empty.inverse().p == p
    wide = Mat(0, 3, [], p)
    assert wide.rref() == (wide, []) and wide.rref()[0].p == p
    assert wide.nullspace() == Mat.identity(3, p)
    assert all(same_field(x, p) for r in wide.nullspace().data for x in r)
    tall = Mat(3, 0, [[]] * 3, p)
    assert tall.nullspace().cols == 0 and tall.nullspace().p == p
    assert tall.solve(Mat.zeros(3, 1, p)).p == p
    red, _ = Mat(2, 1, [[one], [one]], p).rref()
    assert red == Mat(2, 1, [[one], [one - one]], p), red
    assert all(same_field(x, p) for r in red.data for x in r), red


def test_stacking_and_sums_need_one_field():
    """An empty matrix over F_3 stacks onto one over F_3; one over Q, which
    the constructor gives a matrix with no entries and no p, is refused, as
    is any sum, product, stack or block diagonal of matrices over two
    fields."""
    row = Mat(1, 3, [[1, 2, 0]], 3)
    for stacked in (Mat(0, 3, [], 3).vstack(row), Mat(1, 0, [[]], 3).hstack(row)):
        assert stacked.p == 3
        basis = stacked.nullspace()
        assert basis.cols == 2
        assert all(isinstance(x, Fp) for r in basis.data for x in r), basis
    other = Mat(1, 3, [[1, 2, 0]], 5)
    for mixed in (lambda: Mat(0, 3, []).vstack(row), lambda: Mat(1, 0, [[]]).hstack(row),
                  lambda: row + Mat.rational([[1, 2, 0]]), lambda: row - other,
                  lambda: row * Mat.identity(3), lambda: row.vstack(other),
                  lambda: sum_of_products(((1, row, Mat.identity(3, 3)), (1, other, Mat.identity(3)))),
                  lambda: Mat.block_diag([row, Mat.identity(1)])):
        with pytest.raises(ValueError):
            mixed()


# -- reading entries --------------------------------------------------------

def oracle_entry(x):
    """The value `Fraction` gives an entry, or None for one every
    constructor refuses: anything but an int, a Fraction or a string
    Fraction reads without an exponent (so a float, a boolean, None and an
    `Fp` too)."""
    if type(x) in RATIONAL:
        return Fraction(x)
    if type(x) is str and "e" not in x and "E" not in x:
        with contextlib.suppress(ValueError, ZeroDivisionError):
            return Fraction(x)
    return None


def oracle_matrix(rows, cols, data, p):
    """The entries of the rows x cols matrix over the field p that data
    names, Fractions over Q and residues over F_p, or None where the
    constructor must refuse it: a refused entry, a wrong shape, or over F_p
    a denominator p divides."""
    values = [[oracle_entry(x) for x in row] for row in data]
    if len(values) != rows or any(len(row) != cols or None in row for row in values):
        return None
    if not p:
        return values
    if any(x.denominator % p == 0 for row in values for x in row):
        return None
    return [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in values]


FUZZ_ENTRIES = st.one_of(
    st.integers(), st.fractions(), st.integers().map(str),
    st.builds("{}/{}".format, st.integers(-20, 20), st.integers(0, 12)),
    st.text(st.sampled_from(list("-+/_.eE 0123456789x\u0663")), max_size=6),
    st.floats(), st.booleans(), st.none(),
    st.builds(Fp, st.integers(-3, 3), st.sampled_from([2, 3, 5])))


@st.composite
def constructor_calls(draw):
    """(p, rows, cols, data, call): a call of `Mat.rational(data)` (p None),
    or of `Mat(rows, cols, data)` or `Mat(rows, cols, data, p)`, on 0-3 rows
    of 0-3 drawn entries, now and then a ragged row or a wrong shape."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    data = [[draw(FUZZ_ENTRIES) for _ in range(cols)] for _ in range(rows)]
    if rows and draw(st.integers(0, 4)) == 0:
        data[draw(st.integers(0, rows - 1))].append(draw(FUZZ_ENTRIES))
    p = draw(st.sampled_from([None, 0, 2, 3, 5, 7]))
    if p is None:
        return 0, len(data), len(data[0]) if data else 0, data, lambda: Mat.rational(data)
    if draw(st.integers(0, 4)) == 0:
        rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return p, rows, cols, data, (lambda: Mat(rows, cols, data, p)) if p else \
        (lambda: Mat(rows, cols, data))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(constructor_calls())
@example((0, 1, 1, [[0.1]], lambda: Mat.rational([[0.1]])))
@example((0, 1, 1, [[0.5]], lambda: Mat(1, 1, [[0.5]])))
def test_constructors_read_entries_as_the_fraction_oracle_does(case):
    """`Mat(rows, cols, data)`, `Mat(rows, cols, data, p)` and
    `Mat.rational(data)` on ints, Fractions, rational, exponent and
    garbage strings, floats, booleans, None and `Fp`s: each call returns
    the matrix the Fraction oracle names, entry for entry, or raises a
    QfoldError where the oracle names none."""
    p, rows, cols, data, call = case
    want = oracle_matrix(rows, cols, data, p)
    if want is None:
        with pytest.raises(QfoldError):
            call()
        return
    m = call()
    assert (m.rows, m.cols, m.p) == (rows, cols, p), (data, m)
    if p:
        assert [[x.v for x in row] for row in m.data] == want, (data, m)
    else:
        assert m.data == tuple(map(tuple, want)), (data, m)
        assert all(canonical(x) for row in m.data for x in row), (data, m)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from([0, 2, 3, 5, 7]), FUZZ_ENTRIES)
@example(0, 0.5)
@example(0, 0.1)
@example(0, "1/2")
@example(0, True)
@example(0, Fp(1, 3))
def test_scalars_are_read_as_the_fraction_oracle_does(p, s):
    """A scalar over Q or F_p, to `scaled`, `*`, a term of
    `sum_of_products` or a coefficient of `poly_eval` (and so
    `_plus_scalar`), drawn as the entries above are: each call gives the
    matrix its Fraction value names, or raises a QfoldError where the
    oracle names none (or, over F_p, p divides its denominator)."""
    m = Mat(2, 2, [[1, 2], [0, -3]], p)
    calls = {"scaled": lambda: m.scaled(s), "m * s": lambda: m * s,
             "sum_of_products": lambda: sum_of_products(((s, m, Mat.identity(2, p)),)),
             "poly_eval [s]": lambda: m.poly_eval([s]),
             "poly_eval [1, s]": lambda: m.poly_eval([1, s])}
    value = oracle_entry(s)
    if value is None or p and value.denominator % p == 0:
        for what, call in calls.items():
            with pytest.raises(QfoldError):
                call()
        return
    scaled = Mat(2, 2, [[value, 2 * value], [0, -3 * value]], p)
    plus = Mat(2, 2, [[1 + value, 2], [0, value - 3]], p)
    want = {"scaled": scaled, "m * s": scaled, "sum_of_products": scaled,
            "poly_eval [s]": Mat(2, 2, [[value, 0], [0, value]], p), "poly_eval [1, s]": plus}
    for what, call in calls.items():
        got = call()
        assert got == want[what] and got.p == p, (what, s, got)
        if not p:
            assert_stored_canonically(got)


# -- dense oracles ----------------------------------------------------------
# `qfold.linalg` walks nonzero entries only.  These are the dense kernels it
# replaced, which form every scalar product and update every entry; the test
# below swaps them into `Mat` and compares every result with the sparse one.

def _dot(r, c):
    acc = None
    for a, b in zip(r, c):
        acc = a * b if acc is None else acc + a * b
    return acc if acc is not None else 0


def dense_mul(self, other):
    if not isinstance(other, Mat):
        return field_mat(self.rows, self.cols,
                         [[x * other for x in row] for row in field_rows(self)], self.p)
    assert self.cols == other.rows
    ot = field_rows(other.transpose())
    return field_mat(self.rows, other.cols, [[_dot(r, c) for c in ot] for r in field_rows(self)],
                     self.p)


def dense_add(self, other):
    return field_mat(self.rows, self.cols,
                     [[a + b for a, b in zip(r1, r2)]
                      for r1, r2 in zip(field_rows(self), field_rows(other))], self.p)


def dense_sub(self, other):
    return field_mat(self.rows, self.cols,
                     [[a - b for a, b in zip(r1, r2)]
                      for r1, r2 in zip(field_rows(self), field_rows(other))], self.p)


def as_field(x):
    """An entry as the dense oracles compute with it: over Q a Fraction,
    since `data` reads an integral entry as an int and int / int is a
    float; over F_p the `FpElement` of the `Fp` it reads as."""
    return Fraction(x) if type(x) is int else element(x)


def unit(p):
    """1 as the dense oracles compute with it over the field p."""
    return FpElement(1, p) if p else Fraction(1)


def field_rows(self):
    return [[as_field(x) for x in r] for r in self.data]


def dense_rref(self):
    m = field_rows(self)
    pivots = []
    pr = 0
    for pc in range(self.cols):
        pivot_row = next((r for r in range(pr, self.rows) if m[r][pc]), None)
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        inv = m[pr][pc]
        m[pr] = [x / inv for x in m[pr]]
        for r in range(self.rows):
            if r != pr and m[r][pc]:
                f = m[r][pc]
                m[r] = [a - f * b for a, b in zip(m[r], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == self.rows:
            break
    return field_mat(self.rows, self.cols, m, self.p), pivots


def dense_rank(self):
    return len(dense_rref(self)[1])


def dense_is_zero(self):
    return all(not x for row in self.data for x in row)


def dense_det(self):
    m = field_rows(self)
    det = unit(self.p)
    for pc in range(self.cols):
        pr = next((r for r in range(pc, self.rows) if m[r][pc]), None)
        if pr is None:
            return det - det
        if pr != pc:
            m[pc], m[pr] = m[pr], m[pc]
            det = -det
        det = det * m[pc][pc]
        inv = m[pc][pc]
        for r in range(pc + 1, self.rows):
            if m[r][pc]:
                f = m[r][pc] / inv
                m[r] = [a - f * b for a, b in zip(m[r], m[pc])]
    return det


def dense_charpoly(self):
    n = self.rows
    coeffs = [Fraction(1)]
    m = Mat.identity(n)
    for k in range(1, n + 1):
        am = self * m
        c = -Fraction(am.trace()) / k
        coeffs.append(c)
        m = am + Mat.identity(n).scaled(c)
    return coeffs


def dense_poly_eval(self, coeffs):
    n, p = self.rows, self.p
    out = Mat.identity(n, p).scaled(coeffs[0])
    for c in coeffs[1:]:
        out = out * self + Mat.identity(n, p).scaled(c)
    return out


def dense_sum_of_products(terms):
    """Each product formed and scaled apart, then added up."""
    total = None
    for s, a, b in terms:
        term = dense_mul(dense_mul(a, b), s)
        total = term if total is None else dense_add(total, term)
    return total


DENSE_KERNELS = {"__mul__": dense_mul, "__add__": dense_add, "__sub__": dense_sub,
                 "rref": dense_rref, "rank": dense_rank, "is_zero": dense_is_zero,
                 "charpoly": dense_charpoly, "poly_eval": dense_poly_eval}


@contextlib.contextmanager
def dense_kernels():
    """Run `Mat` and `linalg.sum_of_products` on the dense kernels inside
    the block."""
    saved = {name: Mat.__dict__[name] for name in DENSE_KERNELS}
    try:
        for name, kernel in DENSE_KERNELS.items():
            setattr(Mat, name, kernel)
        linalg.sum_of_products = dense_sum_of_products
        yield
    finally:
        for name, kernel in saved.items():
            setattr(Mat, name, kernel)
        linalg.sum_of_products = sum_of_products


@st.composite
def sparse_cases(draw):
    """(A, A2, B, S) over one field: A and A2 are n x k, B is k x m and S is
    n x n, with n, k, m in 0..4.  Each matrix is all zero, has one nonzero
    entry, or has each entry nonzero with a drawn density; a square one may
    also be the identity, the shared one or one the constructor builds."""
    p, make = ENTRY_MAKERS[draw(st.sampled_from(sorted(ENTRY_MAKERS)))]
    zero = make(0, 0)
    nonzero = st.builds(make, st.sampled_from([-2, -1, 1, 2]), st.integers(-1, 1))

    def mat(rows, cols):
        cells = rows * cols
        kinds = ["single", 0, 1, 2, 4]   # densities in quarters
        density = draw(st.sampled_from(kinds + ["identity", "built identity"] * (rows == cols)))
        if density == "identity":
            return Mat.identity(rows, p)
        if density == "built identity":
            return Mat(rows, rows, [[make(int(r == c), 0) for c in range(rows)]
                                    for r in range(rows)], p)
        if density == "single":
            hit = {draw(st.integers(0, cells - 1))} if cells else set()
        else:
            hit = {i for i in range(cells) if draw(st.integers(0, 3)) < density}
        data = [[draw(nonzero) if r * cols + c in hit else zero for c in range(cols)]
                for r in range(rows)]
        return Mat(rows, cols, data, p)

    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    return mat(n, k), mat(n, k), mat(k, m), mat(n, n)


def kernel_results(a, a2, b, s) -> dict:
    """Every kernel on one case.  `rank` and `is_zero` have dense oracles
    of their own; `nullity`, `is_invertible` and `column_space_contains`
    go through them.  The scalar -7/11 is a unit over Q, F_2, F_3 and F_5;
    `charpoly` is taken where it is defined."""
    ab = a * b
    out = {"a * b": ab, "a + a2": a + a2, "a - a2": a - a2,
           "a * b - a2 * b - 7/11 s * a * b":
               linalg.sum_of_products(((1, a, b), (-1, a2, b), (Fraction(-7, 11), s, ab))),
           "rref": a.rref(),
           "rank": a.rank(), "nullity": a.nullity(), "a is invertible": a.is_invertible(),
           "s is invertible": s.is_invertible(), "a is zero": a.is_zero(),
           "b is zero": b.is_zero(), "a * b is zero": ab.is_zero(),
           "a2 in span of a": column_space_contains(a, a2),
           "nullspace": a.nullspace(), "solve": s.solve(a),
           "poly_eval": s.poly_eval([Fraction(1), Fraction(-2), 3])}
    if has_charpoly(s):
        out["charpoly"] = s.charpoly()
    try:
        out["inverse"] = s.inverse()
    except NotInvertible:
        out["inverse"] = None
    return out


def assert_same(got, want, what):
    """Equal values of the same field, entry for entry."""
    if isinstance(want, Mat):
        assert got == want and got.p == want.p, what
        got, want = [x for r in got.data for x in r], [x for r in want.data for x in r]
    elif isinstance(want, tuple):   # rref: (matrix, pivots)
        assert got[1] == want[1], what
        return assert_same(got[0], want[0], what)
    elif not isinstance(want, list):
        got, want = [got], [want]
    assert got == want, what
    assert all(field_of(x) == field_of(y) for x, y in zip(got, want)), what


@settings(max_examples=300, derandomize=True, deadline=None)
@given(sparse_cases())
def test_sparse_kernels_match_the_dense_oracle(case):
    sparse = kernel_results(*case)
    with dense_kernels():
        dense = kernel_results(*case)
    assert sparse.keys() == dense.keys()
    for what, want in dense.items():
        if want is None:
            assert sparse[what] is None, what
        else:
            assert_same(sparse[what], want, what)


def assert_stored_canonically(mat: Mat) -> None:
    """mat over Q is num / den with num of ints, den > 0 and gcd(den, num) = 1,
    so den is 1 exactly when every entry is integral, and every entry reads
    back as an int when it is integral."""
    assert type(mat.den) is int and mat.den > 0, mat
    assert all(type(x) is int for row in mat.num for x in row), mat
    assert gcd(mat.den, *chain.from_iterable(mat.num)) == 1, mat
    entries = [Fraction(x) for row in mat.data for x in row]
    assert (mat.den == 1) == all(x.denominator == 1 for x in entries), mat
    assert all(canonical(x) for row in mat.data for x in row), mat


def assert_one_value(*routes: Mat) -> None:
    """Matrices reached by different routes: equal, and equal hashes."""
    for route in routes[1:]:
        assert route == routes[0] and hash(route) == hash(routes[0]), routes


def rebuilt(m: Mat) -> Mat:
    """m rebuilt by the constructor from its entries: over Q each as a
    Fraction, over F_p as the residue of the `Fp` it reads as."""
    return Mat(m.rows, m.cols, [[x.v if m.p else Fraction(x) for x in row] for row in m.data],
               m.p)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(sparse_cases())
def test_results_are_stored_in_lowest_terms(case):
    """Every result of the kernels above, empty shapes included: over Q in
    lowest terms over a positive denominator, over F_p as residues in
    [0, p) over the denominator 1.  So one value reached by the constructor
    from its entries, a product, `inverse`, `rref` or (over Q) `scaled`
    compares and hashes equal."""
    a, _a2, b, s = case
    p = a.p
    mats, _scalars = entry_type_results(p, s, a)
    for value in kernel_results(*case).values():
        value = value[0] if isinstance(value, tuple) else value
        if isinstance(value, Mat):
            mats.append(value)
    for mat in mats:
        if p:
            assert mat.den == 1, mat
            assert all(type(x) is int and 0 <= x < p for row in mat.num for x in row), mat
        else:
            assert_stored_canonically(mat)
    n = s.rows
    red = s.rref()[0]
    assert_one_value(red, rebuilt(red), Mat.identity(n, p) * red, red.rref()[0])
    if not p:
        assert_one_value(red, red.scaled(3).scaled(Fraction(1, 3)))
    if s.is_invertible():
        inv = s.inverse()
        via_rref = s.hstack(Mat.identity(n, p)).rref()[0].submatrix(range(n), range(n, 2 * n))
        assert_one_value(inv, rebuilt(inv), inv * s * inv, via_rref, inv.inverse().inverse())
        if not p:
            assert_one_value(inv, inv.scaled(Fraction(1, 2)).scaled(2))
        assert_one_value(Mat.identity(n, p), red, s * inv, inv * s, rebuilt(s * inv))


def _random_matrix(rng, rows, cols, rank, entry, p):
    """A rows x cols matrix over the field p of entries drawn by entry():
    of rank at most `rank`, as a product of two random factors, or (rank
    None) with a third of its entries nonzero; some rows are left zero."""
    if rank is None:
        data = [[entry() if rng.random() < 0.35 else 0 for _ in range(cols)]
                for _ in range(rows)]
    else:
        left = [[entry() for _ in range(rank)] for _ in range(rows)]
        right = [[entry() for _ in range(cols)] for _ in range(rank)]
        data = [[sum(l * r for l, r in zip(lrow, col)) for col in zip(*right)] if rank
                else [0] * cols for lrow in left]
    for r in rng.sample(range(rows), rng.randint(0, rows // 3)) if rows else []:
        data[r] = [0] * cols
    return Mat(rows, cols, data, p)


def test_integer_elimination_matches_the_fraction_oracle():
    """Fraction-free elimination against the dense Gauss-Jordan with field
    division: rref, pivots, rank, nullspace and inverse, over Q on
    integer and fractional matrices and over F_5, F_2 and F_3 on matrices
    of int entries, up to 7 x 9 of every rank, and sparse ones up to
    12 x 14."""
    import random
    rng = random.Random(12)

    def rational(trial):                # ints, or ints over 1, 2 and 3
        if trial % 2:
            return rng.randint(-2, 2)
        return Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))

    fields = [(0, 800, rational)]
    fields += [(p, 300, lambda trial: rng.randint(-2, 2)) for p in (5, 2, 3)]
    for p, trials, entry in fields:
        for trial in range(trials):
            rows, cols = rng.randint(1, 7), rng.randint(1, 9)
            if trial % 5 == 4:
                rows, cols = rng.randint(4, 12), rng.randint(4, 14)
            if trial % 3 == 0:
                cols = rows
            rank = None if trial % 5 == 4 else rng.randint(0, min(rows, cols))
            m = _random_matrix(rng, rows, cols, rank, lambda: entry(trial), p)
            want_red, want_pivots = dense_rref(m)
            red, pivots = m.rref()
            assert pivots == want_pivots and red == want_red, m
            assert all(same_field(x, p) for r in red.data for x in r), red
            if not p and trial % 2:
                assert all(canonical(x) for r in red.data for x in r), red
            assert m.rank() == len(want_pivots)
            basis = m.nullspace()
            assert (m * basis).is_zero() and basis.cols == cols - len(pivots)
            assert all(same_field(x, p) for r in basis.data for x in r), basis
            if rows == cols:
                assert m.is_invertible() == bool(dense_det(m)), m
                if m.is_invertible():
                    inv = m.inverse()
                    assert m * inv == Mat.identity(rows, p)
                    assert all(same_field(x, p) for r in inv.data for x in r), inv


def elimination_inverse(m: Mat):
    """The inverse of the square m as the elimination gives it: the right
    half of the rref of [m | I], or None when that rref has fewer than n
    pivots in its left half."""
    n = m.rows
    red, pivots = m.hstack(Mat.identity(n, m.p)).rref()
    if sum(c < n for c in pivots) < n:
        return None
    return red.submatrix(range(n), range(n, 2 * n))


def _square_cases():
    """Every square matrix of 1 and 2 rows over F_2, F_3 and F_5, of 3 rows
    over F_2, and of 1 and 2 rows over Q with entries in -1..1; then seeded
    ones of 1 to 4 rows and of every rank, over Q with integral and with
    fractional entries, and over F_3 and F_5."""
    for p, values, top in ((2, range(2), 3), (3, range(3), 2), (5, range(5), 2),
                           (0, range(-1, 2), 2)):
        for n in range(1, top + 1):
            for entries in product(values, repeat=n * n):
                yield Mat(n, n, [entries[r * n:(r + 1) * n] for r in range(n)], p)
    rng = random.Random(35)
    fields = [(0, lambda: rng.randint(-3, 3)),
              (0, lambda: Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))),
              (3, lambda: rng.randrange(3)), (5, lambda: rng.randrange(5))]
    for p, entry in fields:
        for _ in range(300):
            n = rng.randint(1, 4)
            yield _random_matrix(rng, n, n, rng.randint(n - 1, n), entry, p)


def test_tiny_inverses_match_the_elimination():
    """`inverse` up to 3 x 3 reads adj and det off the cofactors: it equals
    the right half of the rref of [m | I], and raises NotInvertible exactly
    when that rref has fewer than n pivots in its left half.  At 4 x 4 it
    hands off to the elimination, with the same results."""
    seen = set()
    for m in _square_cases():
        want = elimination_inverse(m)
        if want is None:
            with pytest.raises(NotInvertible):
                m.inverse()
        else:
            assert m.inverse() == want, m
        seen.add((m.p, m.rows, want is None, m.den != 1))
    for p in (0, 2, 3, 5):
        for n in (1, 2, 3):
            assert {(p, n, False), (p, n, True)} <= {c[:3] for c in seen}, (p, n)
    for n in (1, 2, 3, 4):   # over Q with den != 1, both verdicts past 1 x 1
        assert (0, n, False, True) in seen and (n == 1 or (0, n, True, True) in seen), n


def test_tiny_inverses_run_no_elimination(monkeypatch):
    """No `_reduce` runs inside `inverse` on any input of 1 to 3 rows over
    Q or F_p, singular ones included; one runs on each of 4 rows."""
    cases = list(_square_cases())
    calls = []
    reduce = Mat._reduce
    monkeypatch.setattr(Mat, "_reduce", lambda m: calls.append(m) or reduce(m))
    for m in cases:
        calls.clear()
        with contextlib.suppress(NotInvertible):
            m.inverse()
        assert len(calls) == (m.rows == 4), m


def test_integer_charpoly_feeds_the_polynomial_helpers():
    """The integer coefficients of a characteristic polynomial go through
    gcd, division and the eigenvector span exactly, with no float."""
    from qfold.module_lab import eigenvector_span
    from qfold.numberfield import poly_derivative, poly_divmod, poly_gcd

    g = Mat.rational([[2, 1, 0], [0, 2, 0], [0, 0, 3]])          # diag(J2(2), 3)
    chi = g.charpoly()
    assert chi == [1, -7, 16, -12] and all(type(c) is int for c in chi)
    gcd = poly_gcd(chi, poly_derivative(chi))
    assert gcd == [1, -2] and all(type(c) is Fraction for c in gcd)
    r, rem = poly_divmod(chi, gcd)
    assert r == [1, -5, 6] and rem == [0]
    assert all(type(c) is Fraction for c in r + rem)
    q, rem = poly_divmod(chi, [1, -3])          # both int: still no float
    assert q == [1, -4, 4] and rem == [0]
    assert all(type(c) is Fraction for c in q + rem)
    monic = poly_gcd([2, -6], [1, -3])         # Euclid ends on an int input
    assert monic == [1, -3] and all(type(c) is Fraction for c in monic)
    span = eigenvector_span(g)
    assert span.cols == 2 and (g.poly_eval(r) * span).is_zero()
    assert all(canonical(x) for row in span.data for x in row), span


def test_rational_products_match_the_fraction_oracle():
    """Products over Q, formed as integer products scaled back once per
    entry, against the dense product of Fraction dot products: ints, non-integral and
    integral Fractions side by side, sparse and dense, shapes 0..8, and
    right factors whose columns cancel the left factor to zero.  A quarter
    of the left factors are all ints against right factors of Fractions.
    The values agree, and every integral entry of a product is an int."""
    import random
    rng = random.Random(14)

    def entry(kind):
        n = rng.randint(-9, 9)
        return n if kind == 0 else Fraction(n) if kind == 1 else Fraction(n, rng.randint(1, 12))

    def matrix(rows, cols, density, kinds=(0, 1, 2)):
        data = [[entry(rng.choice(kinds)) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)]
        return Mat(rows, cols, data)

    for trial in range(600):
        n, k, m = (rng.randint(0, 8) for _ in range(3))
        density = rng.choice([0.15, 0.5, 1.0])
        if trial % 4 == 1:            # an all-int left factor skips the row scaling
            a, b = matrix(n, k, density, (0,)), matrix(k, m, density, (1, 2))
        else:
            a, b = matrix(n, k, density), matrix(k, m, density)
        if trial % 4 == 3:            # columns of b in the kernel of a cancel to zero
            kernel = a.nullspace()
            if kernel.cols:
                b = b.hstack(kernel * matrix(kernel.cols, rng.randint(1, 3), 1.0))
        got = a * b
        assert got == dense_mul(a, b), (a, b)
        assert got.p == 0, (a, b)
        assert all(canonical(x) for row in got.data for x in row), (a, b, got)


@pytest.mark.parametrize("p, one", ONES, ids=ONE_IDS)
def test_products_with_an_empty_dimension_match_the_dense_oracle(p, one):
    """0 x k by k x n, m x 0 by 0 x n and m x k by k x 0: the shape, the
    values and the field of the dense product."""

    def full(rows, cols):
        return Mat(rows, cols, [[-one] * cols for _ in range(rows)], p)

    for rows, inner, cols in ((0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 2), (2, 0, 0), (0, 0, 0)):
        a, b = full(rows, inner), full(inner, cols)
        got, want = a * b, dense_mul(a, b)
        assert (got.rows, got.cols) == (rows, cols)
        assert got == want and got.p == p, (rows, inner, cols)
        assert_same(got, want, (rows, inner, cols))


@pytest.mark.parametrize("p, one", ONES, ids=ONE_IDS)
def test_products_with_an_all_zero_factor_match_the_dense_oracle(p, one):
    """An all-zero left or right factor against a full one: the shape, the
    values and the field of the dense product."""
    zero = one - one

    def full(rows, cols, entry):
        return Mat(rows, cols, [[entry] * cols for _ in range(rows)], p)

    for rows, inner, cols in ((1, 1, 1), (2, 3, 2), (3, 2, 4)):
        for a, b in ((full(rows, inner, zero), full(inner, cols, -one)),
                     (full(rows, inner, -one), full(inner, cols, zero))):
            got, want = a * b, dense_mul(a, b)
            assert (got.rows, got.cols) == (rows, cols) and got.is_zero()
            assert got.p == p, (rows, inner, cols)
            assert_same(got, want, (rows, inner, cols))


class CountingInt(int):
    """An int that counts the products it forms."""

    products = 0

    def __mul__(self, other):
        CountingInt.products += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def nonzero_products(a: Mat, b: Mat) -> int:
    """sum over k of nnz(a[:, k]) * nnz(b[k, :])."""
    return sum(sum(1 for row in a.data if row[k]) * sum(1 for x in b.data[k] if x)
               for k in range(a.cols))


def test_products_form_only_the_nonzero_scalar_products():
    """a * b forms a[i][k] * b[k][j] for nonzero pairs only: sum over k of
    nnz(a[:, k]) * nnz(b[k, :]) scalar products, where a dense loop forms
    12 * 14 * 10 = 1,680.  So does a signed sum a * b - c * d, term by term,
    with no product for its signs.  The factors are over F_5, with their
    residues placed as counting ints past the constructor."""
    rng = random.Random(19)

    def sparse(rows, cols, density):
        return linalg._mat(rows, cols, tuple(
            tuple([CountingInt(rng.randint(1, 4)) if rng.random() < density else 0
                   for _ in range(cols)]) for _ in range(rows)), 1, 5)

    for density in (0.1, 0.15, 0.2):
        a, b = sparse(12, 14, density), sparse(14, 10, density)
        want = nonzero_products(a, b)
        CountingInt.products = 0
        got = a * b
        assert 0 < CountingInt.products == want < 1680 // 4, (density, CountingInt.products)
        c, d = sparse(12, 9, density), sparse(9, 10, density)
        want += nonzero_products(c, d)
        CountingInt.products = 0
        fused = sum_of_products(((1, a, b), (-1, c, d)))
        assert CountingInt.products == want, (density, CountingInt.products)
        with dense_kernels():
            assert got == a * b
            assert fused == a * b - c * d


@pytest.mark.parametrize("p, one", ONES, ids=ONE_IDS)
def test_sum_of_products_matches_the_separate_products(p, one):
    """sum_of_products against each product formed apart by the dense
    oracle and combined with + and - (scaled first when s is not 1 or -1):
    one to four terms with their own inner dimensions, shapes 0..4, all-zero
    and sparse factors, over Q a denominator of its own in each term, and
    coefficients 2, -3, 1/2, -5/3 or 3 beside 1 and -1."""
    rng = random.Random(31)
    if type(one) is Fraction:
        coefficients = [1, -1, 2, Fraction(1, 2), Fraction(-5, 3)]
    else:
        coefficients = [1, -1, 2, 3 if p else -3]

    def entry(d):
        n = rng.randint(-4, 4)
        return Fraction(n, d) if type(one) is Fraction else n * one

    def matrix(rows, cols, density, d):
        return Mat(rows, cols, [[entry(d) if rng.random() < density else 0
                                 for _ in range(cols)] for _ in range(rows)], p)

    for trial in range(120):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        terms = []
        for _ in range(rng.randint(1, 4)):
            inner, d = rng.randint(0, 4), rng.choice([1, 2, 3, 5, 7])
            terms.append((rng.choice(coefficients),
                          matrix(rows, inner, rng.choice([0, 0.3, 1]), d),
                          matrix(inner, cols, rng.choice([0, 0.3, 1]), rng.choice([1, d]))))
        want = Mat.zeros(rows, cols, p)
        for s, a, b in terms:
            product = dense_mul(a, b)
            if s == 1:
                want = want + product
            elif s == -1:
                want = want - product
            else:
                want = want + product.scaled(s)
        got = sum_of_products(terms)
        assert_same(got, want, (trial, terms))
        assert got.p == p, (trial, terms)
        if not p:
            assert_stored_canonically(got)
    with pytest.raises(ShapeMismatch):
        sum_of_products(((1, Mat.zeros(2, 3), Mat.zeros(3, 2)), (1, Mat.zeros(2, 2), Mat.zeros(2, 3))))


def test_zero_and_identity_caches_match_the_uncached_construction():
    """Over Q, zeros and identities of shapes 0..8 equal the matrices the
    constructor builds, are shared between calls (a product with an empty
    dimension or an all-zero factor too) and cannot be changed."""
    for rows in range(9):
        for cols in range(9):
            zeros = Mat.zeros(rows, cols)
            assert_one_value(zeros, Mat(rows, cols, [[0] * cols for _ in range(rows)]))
            assert zeros.p == 0 and zeros is Mat.zeros(rows, cols)
            assert Mat.identity(rows) * zeros is zeros
        ident = Mat.identity(rows)
        assert_one_value(ident, Mat(rows, rows, [[int(i == j) for j in range(rows)]
                                                 for i in range(rows)]))
        assert ident.p == 0 and ident is Mat.identity(rows)
    for shared in (Mat.zeros(2, 3), Mat.identity(3)):
        assert type(shared.num) is tuple and all(type(row) is tuple for row in shared.num)
        with pytest.raises(AttributeError):
            shared.num = ((1, 2, 3),) * shared.rows


@pytest.mark.parametrize("p", [5, 2, 3], ids=["F5", "F2", "F3"])
def test_zeros_and_identities_of_other_entry_types_are_their_own(p):
    """An F_p zero or identity is a matrix over F_p, never a shared matrix
    over Q, and so is a product or a signed sum that comes out zero."""
    for m in (Mat.zeros(2, 3, p), Mat.identity(3, p),
              Mat.zeros(2, 2, p) * Mat.identity(2, p),
              Mat(2, 0, [[], []], p) * Mat(0, 3, [], p),
              sum_of_products(((1, Mat.zeros(2, 2, p), Mat.identity(2, p)),))):
        assert m.p == p, m
        assert all(same_field(x, p) for row in m.data for x in row), m
        assert m != Mat.zeros(m.rows, m.cols) and m != Mat.identity(m.rows)
    assert Mat.identity(3, p) == Mat(3, 3, [[int(i == j) for j in range(3)]
                                            for i in range(3)], p)


@pytest.mark.parametrize("p", [0, 5], ids=["Q", "F5"])
def test_a_factor_equal_to_the_identity_is_no_product(p):
    """A product with a factor equal to the identity of its size and field,
    shared or built by the constructor, is the other factor itself; over
    another field or at another size it is refused as any product is."""
    a = Mat(2, 3, [[1, Fraction(1, 2) if not p else 3, 0], [0, -1, 2]], p)

    def built(n, p):
        return Mat(n, n, [[int(i == j) for j in range(n)] for i in range(n)], p)

    for ident in (Mat.identity, built):
        assert ident(2, p) * a is a and a * ident(3, p) is a
    fresh = built(2, p)
    assert Mat.identity(2, p) * fresh is fresh   # the left factor is tested first
    other = 3 if p else 5
    with pytest.raises(ValueError, match="mixed characteristics"):
        Mat.identity(2, other) * a
    with pytest.raises(ValueError, match="mixed characteristics"):
        a * Mat.identity(3, other)
    with pytest.raises(ShapeMismatch):
        Mat.identity(3, p) * a
    with pytest.raises(ShapeMismatch):
        a * Mat.identity(2, p)


def test_verify_all_forms_no_product_with_an_identity_factor(monkeypatch):
    """No product that verify-all forms has a factor equal to an identity:
    `Mat.__mul__` returns the other factor before it reaches the product
    loop `linalg._product`, and no caller passes one to `sum_of_products`
    as a one-term sum.  The loop is wrapped, and each of its calls from
    `__mul__` or from a one-term `sum_of_products` has its factors read off
    the caller's frame."""
    import qfold.properties  # noqa: F401  (loads every module verify-all runs)
    from qfold.cli import main

    identity_factors, calls = [], []
    product = linalg._product

    def recording(*args):
        caller = sys._getframe(1)
        if caller.f_code is Mat.__mul__.__code__:
            factors = caller.f_locals["self"], caller.f_locals["other"]
        elif caller.f_code is sum_of_products.__code__ and len(caller.f_locals["terms"]) == 1:
            factors = caller.f_locals["terms"][0][1:]
        else:
            factors = ()
        calls.append(len(factors))
        identity_factors.extend(m for m in factors if m.rows == m.cols
                                and m == Mat.identity(m.rows, m.p))
        return product(*args)

    monkeypatch.setattr(linalg, "_product", recording)
    assert main(["verify-all", "--seed", "1"]) == 0
    assert calls.count(2) > 1000, len(calls)
    assert not identity_factors, len(identity_factors)


@pytest.mark.parametrize("p, one", ONES[1:], ids=ONE_IDS[1:])
def test_a_product_is_the_one_term_sum(p, one):
    """`A * B` and `sum_of_products(((1, A, B),))` give the same num, den
    and p on the dense-oracle cases above: full factors with an empty
    dimension, all-zero factors, and sparse ones (over Q with a
    denominator of their own); with an identity factor `A * B` is the other factor itself,
    and on a shape or field mismatch both raise one exception with one
    message."""
    rng = random.Random(46)
    zero = one - one

    def full(rows, cols, entry):
        return Mat(rows, cols, [[entry] * cols for _ in range(rows)], p)

    def sparse(rows, cols, d):
        return Mat(rows, cols, [[Fraction(rng.randint(-4, 4), 1 if p else d)
                                 if rng.random() < 0.4 else zero for _ in range(cols)]
                                for _ in range(rows)], p)

    pairs = [(full(n, k, -one), full(k, m, -one))
             for n, k, m in ((0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 2), (2, 0, 0), (0, 0, 0))]
    for n, k, m in ((1, 1, 1), (2, 3, 2), (3, 2, 4)):
        pairs += [(full(n, k, zero), full(k, m, -one)), (full(n, k, -one), full(k, m, zero))]
    for _ in range(60):
        n, k, m = (rng.randint(0, 4) for _ in range(3))
        pairs.append((sparse(n, k, rng.choice([1, 3])), sparse(k, m, rng.choice([1, 2]))))
    for a, b in pairs:
        got, want = a * b, sum_of_products(((1, a, b),))
        assert (got.rows, got.cols, got.num, got.den, got.p) == \
            (want.rows, want.cols, want.num, want.den, want.p), (a, b)
        assert got == dense_mul(a, b), (a, b)
    a = sparse(2, 3, 3)
    for ident in (Mat.identity(2, p), Mat(2, 2, [[1, 0], [0, 1]], p)):
        assert ident * a is a and sum_of_products(((1, ident, a),)) == a
    other = 3 if p == 5 else 5
    for x, y in ((a, Mat.identity(2, p)), (Mat.identity(3, p), a), (a, a),
                 (a, Mat.identity(3, other)), (Mat.identity(2, other), a),
                 (a, Mat.zeros(2, 2, other))):
        with pytest.raises(QfoldError) as product:
            x * y
        with pytest.raises(QfoldError) as one_term_sum:
            sum_of_products(((1, x, y),))
        assert type(product.value) is type(one_term_sum.value), (x, y)
        assert str(product.value) == str(one_term_sum.value), (x, y)
