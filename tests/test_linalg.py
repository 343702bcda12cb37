import contextlib
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
    "Q ints": lambda a, b: a,
    # ints, halves and integral Fractions side by side
    "Q mixed": lambda a, b: a if b == 0 else Fraction(a, 2) if b == 1 else Fraction(a),
    "F5": lambda a, b: Fp(a, 5),
    "Q(zeta3)": lambda a, b: ZETA3.element([Fraction(a), Fraction(b)]),
}
RATIONAL = (int, Fraction)


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
    """x lies in the field of zero; over Q an entry is an int or a Fraction
    (never a float)."""
    if type(zero) in RATIONAL:
        return type(x) in RATIONAL
    return type(x) is type(zero) and getattr(x, "p", None) == getattr(zero, "p", None) \
        and getattr(x, "field", None) == getattr(zero, "field", None)


def canonical(x) -> bool:
    """An entry over Q made from ints: an int when integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


@settings(max_examples=150, derandomize=True, deadline=None)
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
    scalars = [a.det(), a.trace(), *a.charpoly()]
    for mat in mats:
        assert same_field(mat.zero, zero) and not mat.zero, mat
        assert all(same_field(x, zero) for row in mat.data for x in row), mat
    for scalar in scalars:
        assert same_field(scalar, zero), scalar
    if type(zero) is int and all(type(x) is int for m in (a, b) for r in m.data for x in r):
        # integer inputs: integral results are ints, however they were reached
        assert all(canonical(x) for mat in mats for row in mat.data for x in row), mats
        assert all(canonical(x) for x in scalars), scalars


@pytest.mark.parametrize("zero", [0, Fraction(0), Fp(0, 5), ZETA3.zero],
                         ids=["int", "Fraction", "F5", "Q(zeta3)"])
def test_empty_matrices_keep_their_field(zero):
    """The rational kernels are picked by the entry type, not by a scan of
    the entries: a matrix with no entries over F_5 stays over F_5.  So does
    a row cleared by a unit pivot, which is not divided at the end."""
    one = zero + 1
    empty = Mat(0, 0, [], zero)
    assert same_field(empty.det(), zero) and empty.det() == one
    assert same_field(empty.trace(), zero) and not empty.trace()
    assert [same_field(c, zero) for c in empty.charpoly()] == [True]
    assert empty.inverse() == empty and same_field(empty.inverse().zero, zero)
    wide = Mat(0, 3, [], zero)
    assert wide.rref() == (wide, []) and same_field(wide.rref()[0].zero, zero)
    assert wide.nullspace() == Mat.identity(3, one)
    assert all(same_field(x, zero) for r in wide.nullspace().data for x in r)
    tall = Mat(3, 0, [[]] * 3, zero)
    assert tall.nullspace().cols == 0 and same_field(tall.nullspace().zero, zero)
    assert same_field(tall.solve(Mat.zeros(3, 1, zero)).zero, zero)
    red, _ = Mat(2, 1, [[one], [one]], zero).rref()
    assert red == Mat(2, 1, [[one], [zero]], zero), red
    assert all(same_field(x, zero) for r in red.data for x in r), red


def test_stacking_onto_an_empty_matrix_takes_the_other_zero():
    # the empty left operand is built without its zero, so it is rational
    row = Mat.from_rows([[Fp(1, 3), Fp(2, 3), Fp(0, 3)]])
    for stacked in (Mat(0, 3, []).vstack(row), Mat(1, 0, [[]]).hstack(row)):
        assert same_field(stacked.zero, Fp(0, 3))
        basis = stacked.nullspace()
        assert basis.cols == 2
        assert all(isinstance(x, Fp) for r in basis.data for x in r), basis


# -- dense oracles ----------------------------------------------------------
# `qfold.linalg` walks nonzero entries only.  These are the dense kernels it
# replaced, which form every scalar product and update every entry; the test
# below swaps them into `Mat` and compares every result with the sparse one.

def _dot(r, c, zero):
    acc = None
    for a, b in zip(r, c):
        acc = a * b if acc is None else acc + a * b
    return acc if acc is not None else zero


def dense_mul(self, other):
    if not isinstance(other, Mat):
        return self.map(lambda x: x * other)
    assert self.cols == other.rows
    ot = other.transpose().data
    return Mat(self.rows, other.cols, [[_dot(r, c, self.zero) for c in ot] for r in self.data],
               self.zero)


def dense_add(self, other):
    return Mat(self.rows, self.cols,
               [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)], self.zero)


def dense_sub(self, other):
    return Mat(self.rows, self.cols,
               [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)], self.zero)


def dense_rref(self):
    m = [list(r) for r in self.data]
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
    return Mat(self.rows, self.cols, m, self.zero), pivots


def dense_det(self):
    m = [list(r) for r in self.data]
    det = self.zero + 1
    for pc in range(self.cols):
        pr = next((r for r in range(pc, self.rows) if m[r][pc]), None)
        if pr is None:
            return self.zero
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
    one = self.zero + 1
    coeffs = [one]
    m = Mat.identity(n, one)
    for k in range(1, n + 1):
        am = self * m
        c = -am.trace() / k
        coeffs.append(c)
        m = am + Mat.identity(n, one).scaled(c)
    return coeffs


def dense_poly_eval(self, coeffs):
    n = self.rows
    one = self.zero + 1
    out = Mat.identity(n, one).scaled(coeffs[0] * one)
    for c in coeffs[1:]:
        out = out * self + Mat.identity(n, one).scaled(c * one)
    return out


DENSE_KERNELS = {"__mul__": dense_mul, "__add__": dense_add, "__sub__": dense_sub,
                 "rref": dense_rref, "det": dense_det, "charpoly": dense_charpoly,
                 "poly_eval": dense_poly_eval}


@contextlib.contextmanager
def dense_kernels():
    """Run `Mat` on the dense kernels inside the block."""
    saved = {name: Mat.__dict__[name] for name in DENSE_KERNELS}
    try:
        for name, kernel in DENSE_KERNELS.items():
            setattr(Mat, name, kernel)
        yield
    finally:
        for name, kernel in saved.items():
            setattr(Mat, name, kernel)


@st.composite
def sparse_cases(draw):
    """(A, A2, B, S) over one field: A and A2 are n x k, B is k x m and S is
    n x n, with n, k, m in 0..4.  Each matrix is all zero, has one nonzero
    entry, or has each entry nonzero with a drawn density."""
    make = ENTRY_MAKERS[draw(st.sampled_from(sorted(ENTRY_MAKERS)))]
    zero = make(0, 0)
    nonzero = st.builds(make, st.sampled_from([-2, -1, 1, 2]), st.integers(-1, 1))

    def mat(rows, cols):
        cells = rows * cols
        density = draw(st.sampled_from(["single", 0, 1, 2, 4]))   # in quarters
        if density == "single":
            hit = {draw(st.integers(0, cells - 1))} if cells else set()
        else:
            hit = {i for i in range(cells) if draw(st.integers(0, 3)) < density}
        data = [[draw(nonzero) if r * cols + c in hit else zero for c in range(cols)]
                for r in range(rows)]
        return Mat(rows, cols, data, None if cells else zero)

    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    return mat(n, k), mat(n, k), mat(k, m), mat(n, n)


def kernel_results(a, a2, b, s) -> dict:
    out = {"a * b": a * b, "a + a2": a + a2, "a - a2": a - a2, "rref": a.rref(),
           "nullspace": a.nullspace(), "det": s.det(), "solve": s.solve(a),
           "charpoly": s.charpoly(), "poly_eval": s.poly_eval([Fraction(1), Fraction(-2), 3])}
    try:
        out["inverse"] = s.inverse()
    except NotInvertible:
        out["inverse"] = None
    return out


def assert_same(got, want, what):
    """Equal values of the same field, entry for entry."""
    if isinstance(want, Mat):
        assert got == want and same_field(got.zero, want.zero), what
        got, want = [x for r in got.data for x in r], [x for r in want.data for x in r]
    elif isinstance(want, tuple):   # rref: (matrix, pivots)
        assert got[1] == want[1], what
        return assert_same(got[0], want[0], what)
    elif not isinstance(want, list):
        got, want = [got], [want]
    assert got == want, what
    assert all(same_field(x, y) for x, y in zip(got, want)), what


def as_fractions(m: Mat) -> Mat:
    """m over Q with every entry a Fraction, as the dense oracle wants it
    (its divisions would make floats of ints)."""
    return m.map(Fraction) if type(m.zero) in RATIONAL else m


@settings(max_examples=300, derandomize=True, deadline=None)
@given(sparse_cases())
def test_sparse_kernels_match_the_dense_oracle(case):
    sparse = kernel_results(*case)
    with dense_kernels():
        dense = kernel_results(*map(as_fractions, case))
    assert sparse.keys() == dense.keys()
    for what, want in dense.items():
        if want is None:
            assert sparse[what] is None, what
        else:
            assert_same(sparse[what], want, what)


def _random_matrix(rng, rows, cols, rank, entry, zero):
    """A rows x cols matrix of entries drawn by entry(): of rank at most
    `rank`, as a product of two random factors, or (rank None) with a third
    of its entries nonzero; some rows are left zero."""
    if rank is None:
        data = [[entry() if rng.random() < 0.35 else zero for _ in range(cols)]
                for _ in range(rows)]
    else:
        left = [[entry() for _ in range(rank)] for _ in range(rows)]
        right = [[entry() for _ in range(cols)] for _ in range(rank)]
        data = [[sum((l * r for l, r in zip(lrow, col)), zero) for col in zip(*right)] if rank
                else [zero] * cols for lrow in left]
    for r in rng.sample(range(rows), rng.randint(0, rows // 3)) if rows else []:
        data[r] = [zero] * cols
    return Mat(rows, cols, data, zero)


def test_integer_elimination_matches_the_fraction_oracle():
    """Fraction-free elimination against the dense Gauss-Jordan with field
    division: rref, pivots, rank, nullspace, det and inverse, over Q on
    integer and fractional matrices, over F_5 and over Q(zeta3), up to 7 x 9
    of every rank, and sparse ones up to 12 x 14."""
    import random
    rng = random.Random(12)

    def rational(trial):                # ints, or ints over 1, 2 and 3
        if trial % 2:
            return rng.randint(-2, 2)
        return Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))

    fields = [(0, 800, rational),
              (Fp(0, 5), 300, lambda trial: Fp(rng.randint(-2, 2), 5)),
              (ZETA3.zero, 60, lambda trial: ZETA3.element(
                  [Fraction(rng.randint(-1, 1)), Fraction(rng.randint(-2, 2), rng.choice([1, 2]))]))]
    for zero, trials, entry in fields:
        one = zero + 1
        for trial in range(trials):
            rows, cols = rng.randint(1, 7), rng.randint(1, 9)
            if trial % 5 == 4:
                rows, cols = rng.randint(4, 12), rng.randint(4, 14)
            if trial % 3 == 0:
                cols = rows
            rank = None if trial % 5 == 4 else rng.randint(0, min(rows, cols))
            m = _random_matrix(rng, rows, cols, rank, lambda: entry(trial), zero)
            want_red, want_pivots = dense_rref(as_fractions(m))
            red, pivots = m.rref()
            assert pivots == want_pivots and red == want_red, m
            assert all(same_field(x, zero) for r in red.data for x in r), red
            if type(zero) is int and trial % 2:
                assert all(canonical(x) for r in red.data for x in r), red
            assert m.rank() == len(want_pivots)
            basis = m.nullspace()
            assert (m * basis).is_zero() and basis.cols == cols - len(pivots)
            assert all(same_field(x, zero) for r in basis.data for x in r), basis
            if rows == cols:
                det, want_det = m.det(), dense_det(as_fractions(m))
                assert det == want_det and same_field(det, zero), (m, det, want_det)
                if det:
                    inv = m.inverse()
                    assert m * inv == Mat.identity(rows, one)
                    assert all(same_field(x, zero) for r in inv.data for x in r), inv


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
