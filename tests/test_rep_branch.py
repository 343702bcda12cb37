import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qfold.errors import (
    DimensionCapExceeded,
    NotDominant,
    NotFiniteType,
    NotInvariantWeight,
)
from qfold.lie_fold import canonical_cartan, cartan_from_quiver, cartan_matrix, fold_cartan
from qfold.quiver_core import a_quiver, affine_a_quiver, flip_automorphism, identity_automorphism
from qfold.rep_branch import (
    branch,
    character_dim,
    dominant_representative,
    dominant_weights_below,
    freudenthal_character,
    highest_weight_from_framing,
    positive_roots,
    reflect_weight,
    restrict_weight,
    weyl_dim,
    weyl_orbit,
)

A1 = cartan_matrix([[2]])
A2 = canonical_cartan("A", 2)
A3 = canonical_cartan("A", 3)
C2 = cartan_matrix([[2, -1], [-2, 2]])


def test_positive_roots_counts():
    assert positive_roots(A1).positive_roots == ((1,),)
    assert set(positive_roots(A2).positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert len(positive_roots(C2).positive_roots) == 4
    assert len(positive_roots(canonical_cartan("G", 2)).positive_roots) == 6
    with pytest.raises(NotFiniteType):
        positive_roots(cartan_from_quiver(affine_a_quiver(2)))


def test_weyl_dim_values():
    assert weyl_dim(A1, (1,)) == 2
    assert weyl_dim(A2, (1, 1)) == 8
    assert weyl_dim(C2, (1, 0)) == 4
    assert weyl_dim(C2, (0, 1)) == 5
    with pytest.raises(NotDominant):
        weyl_dim(A2, (-1, 0))


def test_freudenthal_sl2_string():
    ch = freudenthal_character(A1, (2,))
    assert ch == {(2,): 1, (0,): 1, (-2,): 1}


def test_freudenthal_adjoint_sl3():
    ch = freudenthal_character(A2, (1, 1))
    assert character_dim(ch) == 8
    assert ch[(0, 0)] == 2
    assert ch[(1, 1)] == 1


def test_freudenthal_wedge_square():
    ch = freudenthal_character(A3, (0, 1, 0))
    assert character_dim(ch) == 6
    assert len(ch) == 6
    assert set(ch.values()) == {1}


def test_characters_weyl_symmetric():
    rng = random.Random(11)
    for c in (A2, A3, C2, canonical_cartan("B", 3)):
        lam = tuple(rng.randint(0, 2) for _ in range(c.n))
        ch = freudenthal_character(c, lam)
        for w, mult in ch.items():
            for i in range(c.n):
                assert ch[reflect_weight(c, w, i)] == mult


def test_character_total_matches_weyl_dim():
    rng = random.Random(5)
    for _ in range(12):
        c = rng.choice([A1, A2, A3, C2])
        lam = tuple(rng.randint(0, 3) for _ in range(c.n))
        assert character_dim(freudenthal_character(c, lam)) == weyl_dim(c, lam)


def test_dimension_cap():
    a5 = cartan_from_quiver(a_quiver(5))
    with pytest.raises(DimensionCapExceeded):
        freudenthal_character(a5, (2, 2, 2, 2, 2), dim_cap=1000)


def test_dominant_representative_and_orbit():
    lam = (1, 0, 1)
    orbit = weyl_orbit(A3, lam)
    assert all(dominant_representative(A3, w) == lam for w in orbit)


def test_restrict_weight_examples():
    a3 = a_quiver(3)
    fold = fold_cartan(cartan_from_quiver(a3), flip_automorphism(a3, 3))
    assert restrict_weight((0, 0, 0), fold) == (0, 0)
    assert restrict_weight((1, 0, 0), fold) == (1, 0)
    assert restrict_weight((0, 1, 0), fold) == (0, 1)
    assert restrict_weight((1, 2, 1), fold) == (2, 2)


@settings(max_examples=40, derandomize=True)
@given(st.tuples(*[st.integers(-3, 3)] * 3), st.tuples(*[st.integers(-3, 3)] * 3))
def test_restrict_weight_additive(lam, mu):
    a3 = a_quiver(3)
    fold = fold_cartan(cartan_from_quiver(a3), flip_automorphism(a3, 3))
    total = tuple(x + y for x, y in zip(lam, mu))
    got = tuple(x + y for x, y in zip(restrict_weight(lam, fold),
                                      restrict_weight(mu, fold)))
    assert restrict_weight(total, fold) == got


def test_branch_a3_to_c2():
    a3 = a_quiver(3)
    c = cartan_from_quiver(a3)
    fold = fold_cartan(c, flip_automorphism(a3, 3))
    assert branch(c, (1, 0, 0), fold) == [((1, 0), 1)]
    assert dict(branch(c, (0, 1, 0), fold)) == {(0, 1): 1, (0, 0): 1}
    assert branch(c, (0, 0, 0), fold) == [((0, 0), 1)]


def test_branch_identity_fold():
    c = cartan_from_quiver(a_quiver(3))
    fold = fold_cartan(c, identity_automorphism(a_quiver(3)))
    assert branch(c, (1, 0, 0), fold) == [((1, 0, 0), 1)]


def test_branch_requires_dominant_and_optionally_invariant():
    a3 = a_quiver(3)
    c = cartan_from_quiver(a3)
    fold = fold_cartan(c, flip_automorphism(a3, 3))
    with pytest.raises(NotDominant):
        branch(c, (-1, 0, 0), fold)
    with pytest.raises(NotInvariantWeight):
        branch(c, (1, 0, 0), fold, require_invariant=True)
    assert branch(c, (1, 0, 1), fold, require_invariant=True) is not None


def test_branch_conserves_dimension_a5():
    a5 = a_quiver(5)
    c = cartan_from_quiver(a5)
    fold = fold_cartan(c, flip_automorphism(a5, 5))
    rng = random.Random(23)
    for _ in range(4):
        lam = tuple(rng.randint(0, 1) for _ in range(5))
        lam = (lam[0], lam[1], lam[2], lam[1], lam[0])
        rows = branch(c, lam, fold)
        assert all(mult > 0 for _w, mult in rows)
        assert sum(m * weyl_dim(fold.folded, wt) for wt, m in rows) == weyl_dim(c, lam)


def test_highest_weight_from_framing():
    a3 = a_quiver(3)
    from qfold.split_quotient import split_quiver
    sd = split_quiver(a3, identity_automorphism(a3))
    assert highest_weight_from_framing({}, sd.split) == (0, 0, 0)
    assert highest_weight_from_framing({"2": 1}, sd.split) == (0, 1, 0)
    assert highest_weight_from_framing({"1": 1, "3": 1}, sd.split) == (1, 0, 1)


def test_classic_dimension_values():
    g2 = canonical_cartan("G", 2)
    assert weyl_dim(g2, (1, 0)) == 7
    assert weyl_dim(g2, (0, 1)) == 14
    e6 = canonical_cartan("E", 6)
    assert weyl_dim(e6, (1, 0, 0, 0, 0, 0)) == 27
    assert weyl_dim(e6, (0, 1, 0, 0, 0, 0)) == 78
    f4 = canonical_cartan("F", 4)
    assert weyl_dim(f4, (0, 0, 0, 1)) == 26
    assert weyl_dim(f4, (1, 0, 0, 0)) == 52
    b3 = canonical_cartan("B", 3)
    assert weyl_dim(b3, (0, 0, 1)) == 8
    assert weyl_dim(b3, (1, 0, 0)) == 7


def test_branch_so8_to_so7():
    from qfold.quiver_core import d_quiver, fork_swap_automorphism

    d4 = d_quiver(4)
    c = cartan_from_quiver(d4)
    fold = fold_cartan(c, fork_swap_automorphism(d4, 4))
    # vector 8 -> 7 + 1, spinor 8 -> spinor 8, adjoint 28 -> 21 + 7
    assert branch(c, (1, 0, 0, 0), fold) == [((1, 0, 0), 1), ((0, 0, 0), 1)]
    assert branch(c, (0, 0, 1, 0), fold) == [((0, 0, 1), 1)]
    assert dict(branch(c, (0, 1, 0, 0), fold)) == {(0, 1, 0): 1, (1, 0, 0): 1}
    assert weyl_dim(fold.folded, (0, 1, 0)) == 21


def all_weights_dominant_below(c, lam):
    """The former walk, kept as an oracle: every weight of L(lam) reached by
    simple-root steps, its dominant representative placed below lam with
    inverse-Cartan coordinates; returns {dominant mu: height of lam - mu}."""
    inv = c.as_mat().inverse()
    alpha = [tuple(c[i, k] for k in range(c.n)) for i in range(c.n)]

    def member_level(mu):
        diff = [Fraction(lam[i] - mu[i]) for i in range(c.n)]
        coords = [sum(diff[i] * inv[i, j] for i in range(c.n)) for j in range(c.n)]
        if any(x.denominator != 1 or x < 0 for x in coords):
            return None
        return int(sum(coords))

    out = {lam: 0}
    visited = {lam}
    frontier = [lam]
    while frontier:
        new = []
        for w in frontier:
            for i in range(c.n):
                cand = tuple(w[k] - alpha[i][k] for k in range(c.n))
                if cand in visited:
                    continue
                visited.add(cand)
                dom = dominant_representative(c, cand)
                lvl = member_level(dom)
                if lvl is None:
                    continue
                new.append(cand)
                if dom not in out:
                    out[dom] = lvl
        frontier = new
    return out


ORACLE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3),
                ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G", 2),
                ("F", 4), ("E", 6)]


def test_dominant_weights_below_matches_all_weights_walk():
    # weight entries up to 2 in rank <= 3 and up to 1 above, Weyl dim <= 600
    cases = 0
    for family, rank in ORACLE_TYPES:
        c = canonical_cartan(family, rank)
        alpha = [tuple(c[i, k] for k in range(c.n)) for i in range(c.n)]
        for lam in itertools.product(range(3 if rank <= 3 else 2), repeat=rank):
            if weyl_dim(c, lam) > 600:
                continue
            old = all_weights_dominant_below(c, lam)
            new = dominant_weights_below(c, lam)
            assert set(new) == set(old), (family, rank, lam)
            for mu, depth in new.items():
                assert all(x >= 0 for x in depth)
                assert sum(depth) == old[mu], (family, rank, lam, mu)
                assert tuple(x - y for x, y in zip(lam, mu)) == tuple(
                    sum(depth[i] * alpha[i][k] for i in range(c.n)) for k in range(c.n))
            cases += 1
    assert cases >= 150


def test_freudenthal_a7_dimension():
    a7 = canonical_cartan("A", 7)
    assert character_dim(freudenthal_character(a7, (1, 0, 1, 0, 1, 0, 1))) == 96228
