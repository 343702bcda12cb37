from fractions import Fraction
from math import lcm

import pytest

from qfold.errors import InputError, NotAdmissible, NotSymmetrizable, SelfLoop, UnsupportedFamily
from qfold.lie_fold import (
    TypeLabel,
    canonical_cartan,
    cartan_from_quiver,
    cartan_matrix,
    classify_cartan,
    fold_cartan,
    folded_generators,
    is_finite_type,
    serre_check,
    symmetrizer,
)
from qfold.linalg import Mat
from qfold.quiver_core import (
    DiagramAutomorphism,
    a_quiver,
    affine_a_quiver,
    affine_d_quiver,
    automorphism,
    d_quiver,
    flip_automorphism,
    fork_swap_automorphism,
    identity_automorphism,
    quiver,
)


def test_cartan_from_quiver_examples():
    assert cartan_from_quiver(a_quiver(2)).entries == ((2, -1), (-1, 2))
    aff1 = cartan_from_quiver(affine_a_quiver(1))
    assert aff1.entries == ((2, -2), (-2, 2))
    d4 = cartan_from_quiver(d_quiver(4))
    fork_row = d4.entries[d4.index("2")]
    assert sorted(fork_row) == [-1, -1, -1, 2]
    with pytest.raises(SelfLoop):
        cartan_from_quiver(quiver(["x"], [("e", "x", "x")]))


def test_classification_table():
    assert str(classify_cartan(cartan_from_quiver(a_quiver(5)))) == "A5"
    assert str(classify_cartan(cartan_matrix([[2, -1], [-2, 2]]))) == "C2"
    assert str(classify_cartan(cartan_matrix([[2, -2], [-1, 2]]))) == "B2"
    assert str(classify_cartan(cartan_from_quiver(affine_a_quiver(1)))) == "affine-A1"
    assert str(classify_cartan(cartan_from_quiver(affine_a_quiver(4)))) == "affine-A4"
    assert str(classify_cartan(cartan_from_quiver(affine_d_quiver(5)))) == "affine-D5"
    for family, rank in [("B", 4), ("C", 3), ("D", 5), ("E", 6), ("E", 7),
                         ("E", 8), ("F", 4), ("G", 2)]:
        assert classify_cartan(canonical_cartan(family, rank)) == TypeLabel(family, rank)
    # three-point path in fork labelling is still the A3 path
    assert str(classify_cartan(cartan_from_quiver(d_quiver(3)))) == "A3"
    # disconnected rank 2 is no single family
    assert classify_cartan(cartan_matrix([[2, 0], [0, 2]])).family == "other"
    # twisted affine patterns are out of scope
    twisted = cartan_matrix([[2, -1, 0], [-2, 2, -2], [0, -1, 2]])
    assert classify_cartan(twisted).family == "other"


def test_finite_type_detection():
    assert is_finite_type(canonical_cartan("E", 8))
    assert not is_finite_type(cartan_from_quiver(affine_a_quiver(3)))


def fraction_det(rows):
    """Gaussian elimination over Fractions, with row exchanges."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for pc in range(len(m)):
        pr = next((r for r in range(pc, len(m)) if m[r][pc]), None)
        if pr is None:
            return Fraction(0)
        if pr != pc:
            m[pc], m[pr] = m[pr], m[pc]
            det = -det
        det *= m[pc][pc]
        for r in range(pc + 1, len(m)):
            f = m[r][pc] / m[pc][pc]
            m[r] = [a - f * b for a, b in zip(m[r], m[pc])]
    return det


def per_minor_finite_type(c):
    """The former test: each leading principal minor of the symmetrized
    matrix by a determinant of its own, all of them positive."""
    try:
        d = symmetrizer(c)
    except NotSymmetrizable:
        return False
    b = [[c[i, j] * d[j] for j in range(c.n)] for i in range(c.n)]
    return all(fraction_det([row[:k] for row in b[:k]]) > 0 for k in range(1, c.n + 1))


def test_finite_type_matches_the_per_minor_oracle():
    # every canonical type up to rank 12, affine A1-A12 and D4-D12, the
    # twisted pattern of the classification table, then random matrices:
    # symmetrizable ones with bonds -lcm(d_i, d_j) t / d_j, and others
    import random

    cartans = []
    for family in "ABCDEFG":
        for n in range(1, 13):
            try:
                cartans.append(canonical_cartan(family, n))
            except UnsupportedFamily:
                pass
    cartans += [cartan_from_quiver(affine_a_quiver(n)) for n in range(1, 13)]
    cartans += [cartan_from_quiver(affine_d_quiver(n)) for n in range(4, 13)]
    cartans.append(cartan_matrix([[2, -1, 0], [-2, 2, -2], [0, -1, 2]]))
    rng = random.Random(9)
    for trial in range(600):
        n = rng.randint(1, 7)
        entries = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        d = [rng.randint(1, 3) for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                t = rng.choice([0, 0, 0, 1, 1, 2])
                if trial % 3:
                    entries[i][j], entries[j][i] = (-t * lcm(d[i], d[j]) // d[j],
                                                    -t * lcm(d[i], d[j]) // d[i])
                else:
                    entries[i][j], entries[j][i] = -t, -rng.randint(1, 3) * (t > 0)
        cartans.append(cartan_matrix(entries))
    verdicts = []
    for c in cartans:
        verdicts.append(is_finite_type(c))
        assert verdicts[-1] == per_minor_finite_type(c), c.entries
    assert 150 <= sum(verdicts) <= len(verdicts) - 150


def test_fold_a3_exact():
    a3 = a_quiver(3)
    fold = fold_cartan(cartan_from_quiver(a3), flip_automorphism(a3, 3))
    assert fold.orbits == (("1", "3"), ("2",))
    assert fold.folded.entries == ((2, -1), (-2, 2))
    assert str(classify_cartan(fold.folded)) == "C2"


def test_fold_family_table():
    for n in range(2, 6):
        aq = a_quiver(2 * n - 1)
        fold = fold_cartan(cartan_from_quiver(aq), flip_automorphism(aq, 2 * n - 1))
        assert classify_cartan(fold.folded) == TypeLabel("C", n)
        dq = d_quiver(n + 1)
        fold2 = fold_cartan(cartan_from_quiver(dq), fork_swap_automorphism(dq, n + 1))
        assert classify_cartan(fold2.folded) == TypeLabel("B", n)


def test_fold_identity_returns_same_matrix():
    c = cartan_from_quiver(a_quiver(4))
    fold = fold_cartan(c, identity_automorphism(a_quiver(4)))
    assert fold.folded.entries == c.entries


def test_fold_triality_is_g2():
    d4 = d_quiver(4)
    rot = automorphism(d4, {"1": "3", "3": "4", "4": "1", "2": "2"})
    fold = fold_cartan(cartan_from_quiver(d4), rot)
    assert classify_cartan(fold.folded) == TypeLabel("G", 2)


def test_fold_rejects_non_admissible():
    a4 = a_quiver(4)
    with pytest.raises(NotAdmissible):
        fold_cartan(cartan_from_quiver(a4), flip_automorphism(a4, 4))


def test_folded_matrices_symmetrizable():
    cases = []
    for n in (3, 5, 7):
        q = a_quiver(n)
        cases.append(fold_cartan(cartan_from_quiver(q), flip_automorphism(q, n)))
    for n in (3, 4, 5):
        q = d_quiver(n)
        cases.append(fold_cartan(cartan_from_quiver(q), fork_swap_automorphism(q, n)))
    for fold in cases:
        d = symmetrizer(fold.folded)
        assert all(x >= 1 for x in d)
        n = fold.folded.n
        for i in range(n):
            for j in range(n):
                assert fold.folded[i, j] * d[j] == fold.folded[j, i] * d[i]


def test_folded_generators_a1_identity():
    e, f, h = folded_generators(1, "A", identity_automorphism(a_quiver(1)))
    assert e[0] == Mat.rational([[0, 1], [0, 0]])
    assert serre_check(cartan_matrix([[2]]), e, f, h).ok


def test_folded_generators_a3_matrices():
    a3 = a_quiver(3)
    flip = flip_automorphism(a3, 3)
    e, f, h = folded_generators(3, "A", flip)
    e1_plus_e3 = Mat.rational([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    e2 = Mat.rational([[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert e[0] == e1_plus_e3
    assert e[1] == e2
    assert h[0] == e[0] * f[0] - f[0] * e[0]


def test_folded_generators_a5_count():
    a5 = a_quiver(5)
    e, f, h = folded_generators(5, "A", flip_automorphism(a5, 5))
    assert len(e) == len(f) == len(h) == 3
    assert e[0].rows == 6


def test_folded_generators_unsupported():
    with pytest.raises(UnsupportedFamily):
        folded_generators(2, "B", DiagramAutomorphism({"1": "1", "2": "2"}, {}))


def test_serre_check_standard_a1():
    e = [Mat.rational([[0, 1], [0, 0]])]
    f = [Mat.rational([[0, 0], [1, 0]])]
    h = [Mat.rational([[1, 0], [0, -1]])]
    assert serre_check(cartan_matrix([[2]]), e, f, h).ok


def test_serre_check_folded_pairs():
    for n in (1, 3, 5, 7):
        q = a_quiver(n)
        a = flip_automorphism(q, n)
        fold = fold_cartan(cartan_from_quiver(q), a)
        gens = folded_generators(n, "A", a)
        assert serre_check(fold.folded, *gens).ok, f"A{n}"
    for n in (3, 4, 5):
        q = d_quiver(n)
        a = fork_swap_automorphism(q, n)
        fold = fold_cartan(cartan_from_quiver(q), a)
        gens = folded_generators(n, "D", a)
        assert serre_check(fold.folded, *gens).ok, f"D{n}"


def test_folded_generators_rank_ten_and_up():
    # labels "10" and "11" sort before "2" as strings; the permutation check
    # compares sets of labels, so every rank is accepted
    for n, a, folded_rank in ((10, identity_automorphism(a_quiver(10)), 10),
                              (11, flip_automorphism(a_quiver(11), 11), 6)):
        fold = fold_cartan(cartan_from_quiver(a_quiver(n)), a)
        gens = folded_generators(n, "A", a)
        assert len(gens[0]) == fold.folded.n == folded_rank
        assert serre_check(fold.folded, *gens).ok, f"A{n}"
    not_onto = DiagramAutomorphism({str(i): "1" for i in range(1, 11)}, {})
    with pytest.raises(InputError):
        folded_generators(10, "A", not_onto)
    with pytest.raises(InputError):
        fold_cartan(cartan_from_quiver(a_quiver(10)), not_onto)


def test_serre_check_transpose_convention_fails():
    a3 = a_quiver(3)
    flip = flip_automorphism(a3, 3)
    fold = fold_cartan(cartan_from_quiver(a3), flip)
    gens = folded_generators(3, "A", flip)
    transposed = cartan_matrix(
        [[fold.folded[j, i] for j in range(2)] for i in range(2)])
    report = serre_check(transposed, *gens)
    assert not report.ok
    assert report.has_kind("serre")
    assert report.violations


def test_classification_stable_under_relabelling():
    import random

    rng = random.Random(77)
    families = [("A", 4), ("B", 4), ("C", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]
    for family, rank in families:
        canon = canonical_cartan(family, rank)
        for _ in range(5):
            perm = list(range(rank))
            rng.shuffle(perm)
            shuffled = cartan_matrix(
                [[canon[perm[i], perm[j]] for j in range(rank)] for i in range(rank)])
            got = classify_cartan(shuffled)
            if (family, rank) in (("B", 2), ("C", 2)):
                assert got.family in ("B", "C") and got.rank == 2
            else:
                assert got == TypeLabel(family, rank), (family, rank, perm)
