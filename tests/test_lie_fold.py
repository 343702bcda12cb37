import pytest

from qfold.errors import InputError, NotAdmissible, SelfLoop, UnsupportedFamily
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
