import random
from math import lcm

import pytest
from cartan_oracle import oracle_classify, per_minor_finite_type
from lie_oracle import oracle_folded_generators, oracle_serre_check

from qfold import lie_fold
from qfold.errors import NotFiniteType, SelfLoop, UnsupportedFamily
from qfold.lie_fold import (
    FoldedAlgebraData,
    TypeLabel,
    canonical_cartan,
    cartan_from_quiver,
    cartan_matrix,
    classify_cartan,
    fold_cartan,
    folded_generators,
    is_finite_type,
    minuscule_generators,
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
    fork_row = d4.entries[d4.labels.index("2")]
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


def block_diagonal(*blocks):
    """The Cartan matrix with the given blocks on its diagonal."""
    n = sum(b.n for b in blocks)
    entries = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i in range(b.n):
            entries[at + i][at:at + b.n] = b.entries[i]
        at += b.n
    return cartan_matrix(entries)


def test_finite_type_matches_the_per_minor_oracle():
    # every canonical type up to rank 12, affine A1-A12 and D4-D12, the
    # twisted pattern of the classification table, block-diagonal sums of
    # finite and affine blocks, then random matrices: symmetrizable ones
    # with bonds -lcm(d_i, d_j) t / d_j, and others
    a2, b2, g2 = canonical_cartan("A", 2), canonical_cartan("B", 2), canonical_cartan("G", 2)
    affine_a1 = cartan_from_quiver(affine_a_quiver(1))
    sums = {block_diagonal(a2, b2): True, block_diagonal(g2, a2, canonical_cartan("F", 4)): True,
            block_diagonal(a2, affine_a1): False, block_diagonal(affine_a1, b2): False,
            block_diagonal(b2, cartan_from_quiver(affine_d_quiver(4))): False}
    for c, finite in sums.items():
        assert is_finite_type(c) == per_minor_finite_type(c) == finite, c.entries
        assert classify_cartan(c) == TypeLabel("other", c.n)

    cartans = list(sums)
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


def test_folded_rows_agree_over_every_orbit_member():
    # fold_cartan reads each folded row off the orbit's first member; every
    # other member gives the same row sums, on the base and the split quiver
    from qfold.corpus import corpus
    from qfold.split_quotient import split_quiver

    for entry in corpus():
        if not entry.admissible:
            continue
        sd = split_quiver(entry.quiver, entry.auto)
        for c, auto in ((cartan_from_quiver(entry.quiver), entry.auto),
                        (cartan_from_quiver(sd.split), sd.induced)):
            fold = fold_cartan(c, auto)
            pos = {label: i for i, label in enumerate(c.labels)}
            for orb_i, row in zip(fold.orbits, fold.folded.entries):
                for member in orb_i:
                    sums = [sum(c[pos[member], pos[k]] for k in orb_j) for orb_j in fold.orbits]
                    assert sums == list(row), (entry.name, orb_i, member)


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


def fold_of(q, a):
    return fold_cartan(cartan_from_quiver(q), a)


def d4_rot3():
    q = d_quiver(4)
    return q, automorphism(q, {"1": "3", "3": "4", "4": "1", "2": "2"})


def test_folded_generators_a1_identity():
    a1 = a_quiver(1)
    e, f, h = folded_generators(fold_of(a1, identity_automorphism(a1)))
    assert e[0] == Mat.rational([[0, 1], [0, 0]])
    assert serre_check(cartan_matrix([[2]]), e, f, h) == ()


def test_folded_generators_a3_matrices():
    a3 = a_quiver(3)
    flip = flip_automorphism(a3, 3)
    e, f, h = folded_generators(fold_of(a3, flip))
    e1_plus_e3 = Mat.rational([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    e2 = Mat.rational([[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert e[0] == e1_plus_e3
    assert e[1] == e2
    assert h[0] == e[0] * f[0] - f[0] * e[0]


def test_folded_generators_a5_count():
    a5 = a_quiver(5)
    e, f, h = folded_generators(fold_of(a5, flip_automorphism(a5, 5)))
    assert len(e) == len(f) == len(h) == 3
    assert e[0].rows == 6


def identity_fold(c):
    return fold_cartan(c, DiagramAutomorphism({v: v for v in c.labels}, {}))


def test_folded_generators_unsupported():
    # the adjoint module of D4 (its centre first) and the 3875-dimensional
    # L(w_1) of E8 are not minuscule; an affine matrix has an infinite orbit
    d4 = d_quiver(4)
    centre_first = quiver(["2", "1", "3", "4"], [(e.id, e.src, e.tgt) for e in d4.edges])
    for c in (cartan_from_quiver(centre_first), canonical_cartan("E", 8)):
        with pytest.raises(UnsupportedFamily, match="not minuscule"):
            folded_generators(identity_fold(c))
    with pytest.raises(NotFiniteType):
        folded_generators(identity_fold(cartan_from_quiver(affine_a_quiver(3))))


def test_serre_check_standard_a1():
    e = [Mat.rational([[0, 1], [0, 0]])]
    f = [Mat.rational([[0, 0], [1, 0]])]
    h = [Mat.rational([[1, 0], [0, -1]])]
    assert serre_check(cartan_matrix([[2]]), e, f, h) == ()


def test_serre_check_folded_pairs():
    for n in (1, 3, 5, 7):
        q = a_quiver(n)
        fold = fold_of(q, flip_automorphism(q, n))
        assert serre_check(fold.folded, *folded_generators(fold)) == (), f"A{n}"
    for n in (3, 4, 5):
        q = d_quiver(n)
        fold = fold_of(q, fork_swap_automorphism(q, n))
        assert serre_check(fold.folded, *folded_generators(fold)) == (), f"D{n}"


def test_folded_generators_rank_ten_and_up():
    # labels "10" and "11" sort before "2" as strings; every rank folds
    for n, a, folded_rank in ((10, identity_automorphism(a_quiver(10)), 10),
                              (11, flip_automorphism(a_quiver(11), 11), 6)):
        fold = fold_of(a_quiver(n), a)
        gens = folded_generators(fold)
        assert len(gens[0]) == fold.folded.n == folded_rank
        assert serre_check(fold.folded, *gens) == (), f"A{n}"


def test_serre_check_transpose_convention_fails():
    a3 = a_quiver(3)
    fold = fold_of(a3, flip_automorphism(a3, 3))
    gens = folded_generators(fold)
    transposed = cartan_matrix(
        [[fold.folded[j, i] for j in range(2)] for i in range(2)])
    assert "serre" in {v.kind for v in serre_check(transposed, *gens)}


def oracle_cases():
    """(label, family, rank, automorphism) for every folding the hand-built
    generators cover, D4-rot3 included."""
    cases = [(f"A{n} flip", "A", n, flip_automorphism(a_quiver(n), n)) for n in range(1, 12, 2)]
    cases += [(f"A{n} identity", "A", n, identity_automorphism(a_quiver(n))) for n in (1, 2, 10)]
    cases += [(f"D{n} swap", "D", n, fork_swap_automorphism(d_quiver(n), n)) for n in range(3, 8)]
    cases.append(("D4 rot3", "D", 4, d4_rot3()[1]))
    return cases


def test_minuscule_generators_match_the_hand_built_oracle():
    """The whole Serre report, the module's size and the rank of the
    minuscule generators equal the hand-built ones on every case, and on
    A3-flip against the transposed convention, which both fail alike."""
    for label, family, n, a in oracle_cases():
        fold = fold_of(a_quiver(n) if family == "A" else d_quiver(n), a)
        got, want = folded_generators(fold), oracle_folded_generators(n, family, a)
        assert [len(g) for g in got] == [len(g) for g in want] == [fold.folded.n] * 3, label
        assert {m.rows for g in got for m in g} == {m.rows for g in want for m in g}, label
        assert serre_check(fold.folded, *got) == () == serre_check(fold.folded, *want), label
    a3 = a_quiver(3)
    flip = flip_automorphism(a3, 3)
    c = fold_of(a3, flip).folded
    transposed = cartan_matrix([[c[j, i] for j in range(c.n)] for i in range(c.n)])
    report = serre_check(transposed, *folded_generators(fold_of(a3, flip)))
    assert report == serre_check(transposed, *oracle_folded_generators(3, "A", flip))
    assert sorted(v.kind for v in report) == ["he", "he", "hf", "hf", "serre", "serre"]


def test_e6_flip_folds_to_f4_on_the_27_dimensional_module():
    # Bourbaki labels: the chain 1-3-4-5-6, with 2 on 4; the flip fixes 2 and 4
    e6 = quiver([str(i) for i in range(1, 7)],
                [("e1", "1", "3"), ("e2", "3", "4"), ("e3", "4", "5"), ("e4", "5", "6"),
                 ("e5", "2", "4")])
    fold = fold_of(e6, automorphism(e6, {"1": "6", "6": "1", "3": "5", "5": "3",
                                         "2": "2", "4": "4"}))
    assert classify_cartan(fold.base) == TypeLabel("E", 6)
    assert classify_cartan(fold.folded) == TypeLabel("F", 4)
    e, f, h = folded_generators(fold)
    assert {m.rows for g in (e, f, h) for m in g} == {27}
    assert serre_check(fold.folded, e, f, h) == ()


def test_c3_at_its_first_fundamental_weight():
    # w_1 of C3 is minuscule though C3 is not simply laced; w_1 of B3 is not
    c3 = canonical_cartan("C", 3)
    e, f = minuscule_generators(c3)
    assert {m.rows for m in e + f} == {6}
    assert serre_check(c3, e, f, [x * y - y * x for x, y in zip(e, f)]) == ()
    with pytest.raises(UnsupportedFamily, match="not minuscule"):
        minuscule_generators(canonical_cartan("B", 3))


def test_generators_that_break_the_folding_fail_serre():
    a3 = a_quiver(3)
    a3_flip = fold_of(a3, flip_automorphism(a3, 3))
    # a wrong orbit: {1, 2} and {3}
    wrong = FoldedAlgebraData(a3_flip.base, (("1", "2"), ("3",)), a3_flip.folded)
    assert serre_check(wrong.folded, *folded_generators(wrong))
    # D4-rot3's orbit sums listed in reversed order against the G2 matrix
    rot3 = fold_of(*d4_rot3())
    e, f, h = folded_generators(rot3)
    assert serre_check(rot3.folded, e, f, h) == ()
    assert serre_check(rot3.folded, e[::-1], f[::-1], h[::-1])
    # E_I and F_I exchanged for one orbit of A3-flip
    e, f, h = folded_generators(a3_flip)
    report = serre_check(a3_flip.folded, [f[0], e[1]], [e[0], f[1]], h)
    assert {v.kind for v in report} == {"he", "hf", "ef"}


def comm_oracle(a: Mat, b: Mat) -> Mat:
    """The commutator the one signed sum of products replaced: two products
    and a difference."""
    return a * b - b * a


def test_serre_check_matches_the_product_commutator_oracle(monkeypatch):
    """serre_check's whole report, with each commutator one signed sum of
    products and with its two products formed apart: folded generators of
    A3, A5 and D4 over Q and F_3, the transposed A3 convention, and the
    generators with one entry of E_i, F_i or H_i raised by one for each i."""
    rng = random.Random(47)
    cases = []
    for name, (q, a) in (("A3", (a_quiver(3), flip_automorphism(a_quiver(3), 3))),
                         ("A5", (a_quiver(5), flip_automorphism(a_quiver(5), 5))),
                         ("D4", (d_quiver(4), fork_swap_automorphism(d_quiver(4), 4)))):
        fold = fold_of(q, a)
        c = fold.folded
        for p in (None, 3):
            gens = folded_generators(fold)
            if p is not None:
                gens = tuple([Mat(g.rows, g.cols, g.data, p) for g in group] for group in gens)
            cases.append((c, gens))
            if name == "A3":
                cases.append((cartan_matrix([[c[j, i] for j in range(c.n)]
                                             for i in range(c.n)]), gens))
            for i in range(c.n):
                bent = [list(group) for group in gens]
                which = rng.randrange(3)
                g = bent[which][i]
                data = [list(row) for row in (g.num if g.p else g.data)]   # residues over F_p
                data[rng.randrange(g.rows)][rng.randrange(g.cols)] += 1
                bent[which][i] = Mat(g.rows, g.cols, data, g.p)
                cases.append((c, bent))
    reports = [serre_check(c, *gens) for c, gens in cases]
    monkeypatch.setattr(lie_fold, "_comm", comm_oracle)
    assert [serre_check(c, *gens) for c, gens in cases] == reports
    assert {bool(r) for r in reports} == {True, False}
    assert {v.kind for r in reports for v in r} == {"hh", "he", "hf", "ef", "serre"}


def test_classification_stable_under_relabelling():
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


def relabelled(c, perm):
    return cartan_matrix([[c[perm[i], perm[j]] for j in range(c.n)] for i in range(c.n)])


def transposed(c):
    return cartan_matrix([[c[j, i] for j in range(c.n)] for i in range(c.n)])


TREE_BONDS = [(-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2), (-1, -4)]


def random_tree(rng, n, simple):
    """A tree on n shuffled indices, each bond (-1, -1) with probability
    `simple` and otherwise drawn from TREE_BONDS."""
    entries = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n):
        j = rng.randrange(k)
        entries[k][j], entries[j][k] = (-1, -1) if rng.random() < simple else rng.choice(TREE_BONDS)
    return entries


def star(arms):
    """The simply laced tree with one fork and arms of the given numbers of
    vertices: T(1, 1, k) is D, T(1, 2, 2..4) is E, T(2, 2, 2), T(1, 3, 3)
    and T(1, 2, 5) are affine E."""
    n = 1 + sum(arms)
    entries = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    at = 1
    for length in arms:
        for k, prev in zip(range(at, at + length), [0] + list(range(at, at + length - 1))):
            entries[k][prev] = entries[prev][k] = -1
        at += length
    return cartan_matrix(entries)


def random_cartans(rng, count):
    """Seeded random matrices of rank at most 9, a quarter of each kind:
    symmetrizable (bonds -lcm(d_i, d_j) t / d_j), unconstrained (most of
    them not symmetrizable), trees with bonds from TREE_BONDS (every third
    with one extra edge), and block sums of two trees, relabelled."""
    cartans = []
    for trial in range(count):
        kind, n = trial % 4, rng.randint(1, 9)
        entries = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        if kind < 2:
            d = [rng.randint(1, 3) for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    t = rng.choice([0, 0, 0, 0, 1, 1, 2])
                    if kind == 0:
                        entries[i][j], entries[j][i] = (-t * lcm(d[i], d[j]) // d[j],
                                                        -t * lcm(d[i], d[j]) // d[i])
                    else:
                        entries[i][j], entries[j][i] = -t, -rng.randint(1, 3) * (t > 0)
        elif kind == 2:
            entries = random_tree(rng, n, 0.7)
            if trial % 3 == 0 and n > 2:
                i, j = rng.sample(range(n), 2)
                if not entries[i][j]:
                    entries[i][j], entries[j][i] = rng.choice(TREE_BONDS)
        else:
            k = rng.randint(1, n - 1) if n > 1 else 1
            first, second = random_tree(rng, k, 0.8), random_tree(rng, n - k, 0.8)
            for i in range(n - k):
                entries[k + i][k:] = second[i]
            for i in range(k):
                entries[i][:k] = first[i]
        perm = list(range(n))
        rng.shuffle(perm)
        cartans.append(relabelled(cartan_matrix(entries), perm))
    return cartans


def test_diagram_reading_matches_the_former_classifier():
    # the label and the finite verdict of the former search-based classifier
    # (tests/cartan_oracle.py) on every finite family up to rank 12 with five
    # relabellings and their transposes, affine A1-A12 and D4-D12, every
    # tree with one fork up to rank 12, every corpus base, split and folded
    # matrix, and 6,000 random matrices
    from qfold.corpus import corpus
    from qfold.split_quotient import split_quiver

    rng = random.Random(28)
    cartans = []
    for family in "ABCDEFG":
        for n in range(1, 13):
            try:
                canon = canonical_cartan(family, n)
            except UnsupportedFamily:
                continue
            for _ in range(5):
                perm = list(range(n))
                rng.shuffle(perm)
                cartans += [relabelled(canon, perm), transposed(relabelled(canon, perm))]
    affine = [cartan_from_quiver(affine_a_quiver(n)) for n in range(1, 13)]
    affine += [cartan_from_quiver(affine_d_quiver(n)) for n in range(4, 13)]
    for c in affine:
        perm = list(range(c.n))
        rng.shuffle(perm)
        cartans += [c, relabelled(c, perm)]
    for p in range(1, 4):
        for q in range(p, 6):
            for r in range(q, 12 - p - q):
                c = star((p, q, r))
                perm = list(range(c.n))
                rng.shuffle(perm)
                cartans += [c, relabelled(c, perm)]
    for entry in corpus():
        base = cartan_from_quiver(entry.quiver)
        cartans.append(base)
        if entry.admissible:
            sd = split_quiver(entry.quiver, entry.auto)
            split = cartan_from_quiver(sd.split)
            cartans += [split, fold_cartan(base, entry.auto).folded,
                        fold_cartan(split, sd.induced).folded]
    cartans += random_cartans(rng, 6000)

    labels = {}
    for c in cartans:
        got, want = classify_cartan(c), oracle_classify(c)
        assert got == want, (c.entries, got, want)
        assert is_finite_type(c) == per_minor_finite_type(c), c.entries
        labels[got.family] = labels.get(got.family, 0) + 1
    assert set(labels) == set("ABCDEFG") | {"affine-A", "affine-D", "other"}, labels
    assert min(labels.values()) >= 10, labels


def test_serre_check_matches_the_every_pair_oracle():
    """[H_i, H_j] decided once per pair gives the report of the every-pair
    loop: on folded generators, and with the H's replaced by planted
    matrices, some commuting and some not, over Q and F_3."""
    rng = random.Random(53)
    cases = []
    for q, a in ((a_quiver(3), flip_automorphism(a_quiver(3), 3)),
                 (a_quiver(5), flip_automorphism(a_quiver(5), 5)),
                 (d_quiver(4), fork_swap_automorphism(d_quiver(4), 4))):
        fold = fold_of(q, a)
        E, F, H = folded_generators(fold)
        cases.append((fold.folded, E, F, H))
        size = H[0].rows
        for p in (0, 3):
            E, F = ([Mat(g.rows, g.cols, g.data, p) for g in group] for group in (E, F))
            diagonal = [Mat(size, size, [[rng.randrange(3) * (r == s) for s in range(size)]
                                         for r in range(size)], p) for _ in H]
            planted = [Mat(size, size, [[rng.randrange(3) for _ in range(size)]
                                        for _ in range(size)], p) for _ in H]
            planted[0] = diagonal[0]   # a diagonal H commutes with the other diagonal ones
            cases.append((fold.folded, E, F, planted))
            cases.append((fold.folded, E, F, [diagonal[0], *planted[1:]]))
            cases.append((fold.folded, E, F, diagonal))
    hh = set()
    for c, E, F, H in cases:
        report = serre_check(c, E, F, H)
        assert report == oracle_serre_check(c, E, F, H)
        hh.add(sum(v.kind == "hh" for v in report))
    assert 0 in hh and len(hh) > 2, hh
