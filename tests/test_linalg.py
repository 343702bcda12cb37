from fractions import Fraction

import pytest

from qfold.errors import NotInvertible
from qfold.linalg import Mat, column_space_contains
from qfold.numberfield import Fp, NumberField, NumberFieldElement, cyclotomic_poly


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


def test_det_matches_charpoly_constant():
    m = Mat.rational([[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    cp = m.charpoly()
    assert m.det() == -cp[-1] if m.rows % 2 else cp[-1]


def test_empty_shapes():
    z = Mat.zeros(0, 3)
    assert z.rank() == 0
    assert z.nullspace().cols == 3
    assert Mat.zeros(3, 0).nullspace().cols == 0
    assert Mat.zeros(0, 0).inverse() == Mat.zeros(0, 0)
    assert Mat.zeros(0, 0).charpoly() == [Fraction(1)]


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
    one = Fp(1, 3)
    m = Mat.from_rows([[Fp(1, 3), Fp(2, 3)], [Fp(2, 3), Fp(2, 3)]])
    assert m.rank() == 2
    assert m.inverse() * m == Mat.identity(2, one)
    # det(1 2; 2 1) = -3 = 0 in F_3
    singular = Mat.from_rows([[Fp(1, 3), Fp(2, 3)], [Fp(2, 3), Fp(1, 3)]])
    assert singular.rank() == 1
    assert singular.nullspace().cols == 1


def test_linear_algebra_over_number_field():
    field = NumberField(cyclotomic_poly(3))
    z = field.generator
    m = Mat.from_rows([[z, field.one], [field.one, z]])
    # determinant z^2 - 1 is nonzero in Q(zeta_3)
    assert m.rank() == 2
    inv = m.inverse()
    assert m * inv == Mat.identity(2, field.one)


from hypothesis import given, settings, strategies as st

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
        assert m.det() != 0
    else:
        assert m.det() == 0


@settings(max_examples=60, derandomize=True)
@given(small_matrix)
def test_rref_is_idempotent(rows):
    m = Mat.rational(rows)
    red, pivots = m.rref()
    again, pivots2 = red.rref()
    assert again == red and pivots == pivots2


# -- entry types ----------------------------------------------------------

def test_empty_product_keeps_prime_field_zeros():
    prod = Mat.zeros(2, 0, Fp(0, 3)) * Mat.zeros(0, 2, Fp(0, 3))
    assert prod == Mat.zeros(2, 2, Fp(0, 3))
    assert all(isinstance(x, Fp) for row in prod.data for x in row)


def test_nullspace_of_prime_field_zero_matrix():
    basis = Mat.zeros(2, 2, Fp(0, 3)).nullspace()
    assert basis == Mat.identity(2, Fp(1, 3))
    assert all(isinstance(x, Fp) for row in basis.data for x in row)


def test_block_diag_fills_with_number_field_zeros():
    gaussian = NumberField([Fraction(1), Fraction(0), Fraction(1)])   # Q(i)
    i = gaussian.generator
    bd = Mat.block_diag([Mat.from_rows([[i]]), Mat.from_rows([[i, gaussian.one]])])
    assert bd.rows == 2 and bd.cols == 3
    assert all(isinstance(x, NumberFieldElement) for row in bd.data for x in row)


ZETA3 = NumberField(cyclotomic_poly(3))
ENTRY_MAKERS = {
    "Q": lambda a, b: Fraction(a),
    "F5": lambda a, b: Fp(a, 5),
    "Q(zeta3)": lambda a, b: ZETA3.element([Fraction(a), Fraction(b)]),
}


@st.composite
def typed_matrices(draw):
    """(zero, A, B) over one field: A is n x n and B is n x m, n, m in 0..3.
    A matrix with no entries is given its zero; the others infer it."""
    make = ENTRY_MAKERS[draw(st.sampled_from(sorted(ENTRY_MAKERS)))]
    entry = st.builds(make, st.integers(-2, 2), st.integers(-1, 1))

    def mat(rows, cols):
        data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
        return Mat(rows, cols, data, None if rows and cols else make(0, 0))

    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return make(0, 0), mat(n, n), mat(n, m)


def same_field(x, zero) -> bool:
    return type(x) is type(zero) and getattr(x, "p", None) == getattr(zero, "p", None) \
        and getattr(x, "field", None) == getattr(zero, "field", None)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(typed_matrices())
def test_operations_keep_the_entry_type(case):
    zero, a, b = case
    one = zero + 1
    mats = [a, b, a + a, a - a, -a, a.scaled(one + one), a.map(lambda x: x * x),
            a * b, b.transpose() * b, b * b.transpose(), b.transpose(),
            a.hstack(b), b.vstack(b), Mat.block_diag([b, a]),
            b.submatrix(range(b.rows), range(b.cols)), a.rref()[0], a.nullspace(),
            b.nullspace(), a.power(0), a.power(3), a.poly_eval([Fraction(1), Fraction(-2)])]
    mats += b.columns()
    solved = a.solve(b)
    if solved is not None:
        mats.append(solved)
    if a.is_invertible():
        mats.append(a.inverse())
    for mat in mats:
        assert same_field(mat.zero, zero) and not mat.zero, mat
        assert all(same_field(x, zero) for row in mat.data for x in row), mat
    for scalar in [a.det(), a.trace(), *a.charpoly()]:
        assert same_field(scalar, zero), scalar
