import itertools
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from qfold.errors import (
    CharacterMismatch,
    NotFiniteType,
    TooLarge,
)
from qfold.lie_fold import (
    canonical_cartan,
    cartan_from_quiver,
    cartan_matrix,
    classify_cartan,
    fold_cartan,
    is_finite_type,
    symmetrizer,
)
from qfold.linalg import Mat
from qfold.quiver_core import a_quiver, affine_a_quiver, flip_automorphism, identity_automorphism
from qfold.rep_branch import (
    branch,
    dominant_representative,
    dominant_weights_below,
    freudenthal_character,
    highest_weight_from_framing,
    root_datum,
    weyl_dim,
    weyl_orbit,
)

A1 = cartan_matrix([[2]])
A2 = canonical_cartan("A", 2)
A3 = canonical_cartan("A", 3)
C2 = cartan_matrix([[2, -1], [-2, 2]])


def is_dominant(lam):
    return min(lam, default=0) >= 0


def restrict_weight(lam, fold):
    """Restriction along the orbit-sum embedding of Cartan elements: the
    folded coordinate at an orbit is the sum of the coordinates over it."""
    assert len(lam) == fold.base.n
    return tuple(sum(lam[fold.base.labels.index(v)] for v in orbit) for orbit in fold.orbits)


def pairs(rows):
    """branch's summands as (weight, multiplicity), without their dimensions."""
    return [(wt, mult) for wt, mult, _dim in rows]


def dominant_character(c, lam):
    """The multiplicities of L(lam) at its dominant weights: the Freudenthal
    recursion alone."""
    from qfold.rep_branch import _freudenthal

    return _freudenthal(c, lam)


def test_positive_roots_counts():
    assert root_datum(A1).roots == ((1,),)
    assert set(root_datum(A2).roots) == {(1, 0), (0, 1), (1, 1)}
    assert len(root_datum(C2).roots) == 4
    assert len(root_datum(canonical_cartan("G", 2)).roots) == 6
    with pytest.raises(NotFiniteType):
        root_datum(cartan_from_quiver(affine_a_quiver(2)))


def test_weyl_dim_values():
    assert weyl_dim(A1, (1,)) == 2
    assert weyl_dim(A2, (1, 1)) == 8
    assert weyl_dim(C2, (1, 0)) == 4
    assert weyl_dim(C2, (0, 1)) == 5


def test_weyl_dim_refuses_an_inexact_quotient(monkeypatch):
    # with Weyl's denominator off by one, (1, 1) on A2 gives 16 / 3: a
    # positive quotient with a remainder, which is refused all the same
    from qfold import rep_branch
    rd = root_datum(A2)
    monkeypatch.setattr(rep_branch, "root_datum",
                        lambda c: rd._replace(rho_product=rd.rho_product + 1))
    with pytest.raises(CharacterMismatch, match="16/3"):
        weyl_dim(A2, (1, 1))


def test_block_diagonal_matrices_are_finite_per_component():
    # A2 + B2 has the roots of both blocks and the product of their
    # dimensions; a block of affine type refuses the whole matrix
    b2 = cartan_matrix([[2, -2], [-1, 2]])
    a2_b2 = cartan_matrix([[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -2], [0, 0, -1, 2]])
    assert len(root_datum(a2_b2).roots) == 3 + 4
    for lam in ((0, 0, 0, 0), (1, 1, 0, 1), (2, 0, 1, 3), (0, 3, 2, 0)):
        assert weyl_dim(a2_b2, lam) == weyl_dim(A2, lam[:2]) * weyl_dim(b2, lam[2:])
    a1_b2_a2 = cartan_matrix([[2, 0, 0, 0, 0], [0, 2, -2, 0, 0], [0, -1, 2, 0, 0],
                              [0, 0, 0, 2, -1], [0, 0, 0, -1, 2]])
    assert weyl_dim(a1_b2_a2, (1, 1, 1, 1, 1)) == 2 * 16 * 8
    a2_affine_a1 = cartan_matrix([[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]])
    affine_a2_a1 = cartan_matrix([[2, -1, -1, 0], [-1, 2, -1, 0], [-1, -1, 2, 0], [0, 0, 0, 2]])
    for c in (a2_affine_a1, affine_a2_a1):
        with pytest.raises(NotFiniteType):
            root_datum(c)
        with pytest.raises(NotFiniteType):
            weyl_dim(c, (0,) * c.n)


def test_freudenthal_sl2_string():
    ch = freudenthal_character(A1, (2,))
    assert ch == {(2,): 1, (0,): 1, (-2,): 1}


def test_freudenthal_adjoint_sl3():
    ch = freudenthal_character(A2, (1, 1))
    assert sum(ch.values()) == 8
    assert ch[(0, 0)] == 2
    assert ch[(1, 1)] == 1


def test_freudenthal_wedge_square():
    ch = freudenthal_character(A3, (0, 1, 0))
    assert sum(ch.values()) == 6
    assert len(ch) == 6
    assert set(ch.values()) == {1}


def test_characters_weyl_symmetric():
    rng = random.Random(11)
    for c in (A2, A3, C2, canonical_cartan("B", 3)):
        lam = tuple(rng.randint(0, 2) for _ in range(c.n))
        ch = freudenthal_character(c, lam)
        for w, mult in ch.items():
            for i in range(c.n):
                assert ch[dense_reflect(c, w, i)] == mult


def test_character_total_matches_weyl_dim():
    rng = random.Random(5)
    for _ in range(12):
        c = rng.choice([A1, A2, A3, C2])
        lam = tuple(rng.randint(0, 3) for _ in range(c.n))
        assert sum(freudenthal_character(c, lam).values()) == weyl_dim(c, lam)


def test_character_spread_budget(monkeypatch):
    # the character is bounded by the points of its Weyl orbits, not by its
    # dimension: A5 at 2 rho, of dimension 14,348,907, has 62,683 weights;
    # past the root-step cap the spread is refused before any orbit is listed
    from qfold import rep_branch

    a5 = cartan_from_quiver(a_quiver(5))
    lam = (2, 2, 2, 2, 2)
    char = freudenthal_character(a5, lam)
    assert sum(char.values()) == 14_348_907 and len(char) == 62_683
    monkeypatch.setattr(rep_branch, "ROOT_STEP_CAP", len(char))
    assert freudenthal_character(a5, lam) == char

    def no_spread(*_args):
        raise AssertionError("spread an orbit past the cap")

    monkeypatch.setattr(rep_branch, "weyl_orbit", no_spread)
    monkeypatch.setattr(rep_branch, "ROOT_STEP_CAP", len(char) - 1)
    with pytest.raises(TooLarge) as raised:
        freudenthal_character(a5, lam)
    assert raised.value.context == {"estimate": len(char), "cap": len(char) - 1}
    # at the calibrated cap: D16 at a fundamental weight has 5 dominant
    # weights, but 3,836,833 weights in all
    monkeypatch.undo()
    monkeypatch.setattr(rep_branch, "weyl_orbit", no_spread)
    d16 = canonical_cartan("D", 16)
    with pytest.raises(TooLarge) as raised:
        freudenthal_character(d16, tuple(int(i == 7) for i in range(16)))
    assert raised.value.context == {"estimate": 3_836_833, "cap": rep_branch.ROOT_STEP_CAP}


def test_dominant_weight_budget(monkeypatch):
    # each weight listed tries every positive root: the listing stops before
    # the first weight past ROOT_STEP_CAP // (number of positive roots)
    from qfold import rep_branch

    b3 = canonical_cartan("B", 3)
    lam = (3, 2, 4)
    full = dominant_weights_below(b3, lam)
    roots = len(root_datum(b3).roots)
    monkeypatch.setattr(rep_branch, "ROOT_STEP_CAP", len(full) * roots)
    assert dominant_weights_below(b3, lam) == full
    monkeypatch.setattr(rep_branch, "ROOT_STEP_CAP", len(full) * roots - 1)
    with pytest.raises(TooLarge) as raised:
        dominant_weights_below(b3, lam)
    assert raised.value.context == {"estimate": len(full), "cap": len(full) - 1}


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
    assert branch(c, (1, 0, 0), fold) == [((1, 0), 1, 4)]
    assert dict(pairs(branch(c, (0, 1, 0), fold))) == {(0, 1): 1, (0, 0): 1}
    assert branch(c, (0, 0, 0), fold) == [((0, 0), 1, 1)]


def test_branch_identity_fold():
    c = cartan_from_quiver(a_quiver(3))
    fold = fold_cartan(c, identity_automorphism(a_quiver(3)))
    assert branch(c, (1, 0, 0), fold) == [((1, 0, 0), 1, 4)]


def test_branch_requires_dominant_and_optionally_invariant():
    a3 = a_quiver(3)
    c = cartan_from_quiver(a3)
    fold = fold_cartan(c, flip_automorphism(a3, 3))
    # the weight need not be constant on the folding orbits
    assert branch(c, (1, 0, 0), fold) == [((1, 0), 1, 4)]
    assert branch(c, (1, 0, 1), fold) is not None


def test_branch_conserves_dimension_a5():
    a5 = a_quiver(5)
    c = cartan_from_quiver(a5)
    fold = fold_cartan(c, flip_automorphism(a5, 5))
    rng = random.Random(23)
    for _ in range(4):
        lam = tuple(rng.randint(0, 1) for _ in range(5))
        lam = (lam[0], lam[1], lam[2], lam[1], lam[0])
        rows = branch(c, lam, fold)
        assert all(mult > 0 for _w, mult, _dim in rows)
        assert sum(m * weyl_dim(fold.folded, wt) for wt, m, _dim in rows) == weyl_dim(c, lam)


def test_rank_zero_character_is_the_trivial_weight():
    # no positive root: the one dominant weight is () itself
    assert freudenthal_character(cartan_matrix([]), ()) == {(): 1}


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
    assert branch(c, (1, 0, 0, 0), fold) == [((1, 0, 0), 1, 7), ((0, 0, 0), 1, 1)]
    assert branch(c, (0, 0, 1, 0), fold) == [((0, 0, 1), 1, 8)]
    assert dict(pairs(branch(c, (0, 1, 0, 0), fold))) == {(0, 1, 0): 1, (1, 0, 0): 1}
    assert weyl_dim(fold.folded, (0, 1, 0)) == 21


def all_weights_dominant_below(c, lam):
    """The former walk, kept as an oracle: every weight of L(lam) reached by
    simple-root steps, its dominant representative placed below lam with
    inverse-Cartan coordinates; returns {dominant mu: height of lam - mu}."""
    inv = Mat.rational(c.entries).inverse()
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
    assert sum(freudenthal_character(a7, (1, 0, 1, 0, 1, 0, 1)).values()) == 96228


def test_dominant_character_is_freudenthal_at_dominant_weights(monkeypatch):
    rng = random.Random(3)
    for c in (A1, A2, A3, C2, canonical_cartan("B", 3), canonical_cartan("G", 2)):
        for _ in range(4):
            lam = tuple(rng.randint(0, 2) for _ in range(c.n))
            full = freudenthal_character(c, lam)
            assert dominant_character(c, lam) == {w: m for w, m in full.items() if is_dominant(w)}
    # the recursion is bounded by its probes mu + k beta, not by the
    # dimension (here 14,348,907), and stops before the first past the cap;
    # it walks one dominant representative per probe
    from qfold import rep_branch

    a5, lam = cartan_from_quiver(a_quiver(5)), (2, 2, 2, 2, 2)
    walks = 0
    walk = rep_branch._dominant

    def counted(rows, mu):
        nonlocal walks
        walks += 1
        return walk(rows, mu)

    monkeypatch.setattr(rep_branch, "_dominant", counted)
    dominant = rep_branch._freudenthal(a5, lam)
    probes = walks
    monkeypatch.setattr(rep_branch, "ROOT_STEP_CAP", probes)
    assert dominant_character(a5, lam) == dominant
    monkeypatch.setattr(rep_branch, "ROOT_STEP_CAP", probes - 1)
    walks = 0
    with pytest.raises(TooLarge) as raised:
        rep_branch._freudenthal(a5, lam)
    assert raised.value.context == {"estimate": probes, "cap": probes - 1}
    assert walks == probes - 1


def per_root_freudenthal(c, lam):
    """The former recursion, kept as an oracle: at each dominant mu, one
    root string per positive root, with no grouping."""
    from qfold.rep_branch import _dominant

    rd = root_datum(c)
    d = symmetrizer(c)
    dominants = dominant_weights_below(c, lam)
    mults = {}
    for mu, depth in sorted(dominants.items(), key=lambda kv: (sum(kv[1]), kv[0])):
        if mu == lam:
            mults[mu] = 1
            continue
        acc = 0
        for beta_fund, beta_paired, beta_norm in zip(rd.fund, rd.paired, rd.norm):
            ip = sum(map(mul, mu, beta_paired))
            nu = mu
            while True:
                nu = tuple(x + y for x, y in zip(nu, beta_fund))
                m = mults.get(_dominant(rd.rows, nu))
                if m is None:
                    break
                ip += beta_norm
                acc += m * ip
        denom = sum(depth[j] * d[j] * (lam[j] + mu[j] + 2) for j in range(c.n))
        assert denom > 0 and (2 * acc) % denom == 0
        mults[mu] = (2 * acc) // denom
    return mults


GROUPING_TYPES = ([("A", n) for n in range(1, 8)] + [("B", n) for n in range(2, 6)]
                  + [("C", n) for n in range(2, 6)] + [("D", n) for n in range(4, 7)]
                  + [("E", 6), ("F", 4), ("G", 2)])


def sparse_weights(c, count, seed):
    """count seeded weights with entries 0-3, most of them 0, where the
    stabilizers and so the root classes are large."""
    rng = random.Random(seed)
    return [tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(c.n)) for _ in range(count)]


def test_grouped_freudenthal_matches_the_per_root_sum():
    for family, rank in GROUPING_TYPES:
        c = canonical_cartan(family, rank)
        weights = sparse_weights(c, 6, f"grouping:{family}{rank}")
        for lam in weights + [(0,) * rank, (1,) * rank]:
            if len(dominant_weights_below(c, lam)) > 300:
                continue  # the per-root oracle's time grows with the weights
            assert dominant_character(c, lam) == per_root_freudenthal(c, lam), (family, rank, lam)


def reflection_orbit(rd, zeros, i):
    """The indices reached from root i by the s_j, j in zeros, that keep a
    root positive, each read off the roots themselves."""
    index = {beta: k for k, beta in enumerate(rd.roots)}
    seen, stack = {i}, [i]
    while stack:
        k = stack.pop()
        beta, f = rd.roots[k], rd.fund[k]
        for j in zeros:
            img = index.get(beta[:j] + (beta[j] - f[j],) + beta[j + 1:])
            if img is not None and img not in seen:
                seen.add(img)
                stack.append(img)
    return seen


def test_root_classes_are_the_stabilizer_orbits():
    from qfold.rep_branch import _root_classes

    for family, rank in GROUPING_TYPES:
        c = canonical_cartan(family, rank)
        rd = root_datum(c)
        # the reflection table against the roots themselves: s_j alpha_j is
        # the one negative image
        for j in range(rank):
            simple = tuple(int(k == j) for k in range(rank))
            for i, (beta, f) in enumerate(zip(rd.roots, rd.fund)):
                img = beta[:j] + (beta[j] - f[j],) + beta[j + 1:]
                want = rd.roots.index(img) if min(img) >= 0 else -1
                assert rd.reflect[j][i] == want and (want < 0) == (beta == simple)
        assert _root_classes(c, ()) == tuple((i,) for i in range(len(rd.roots)))
        patterns = {tuple(j for j, x in enumerate(lam) if not x)
                    for lam in sparse_weights(c, 8, f"classes:{family}{rank}")}
        for zeros in patterns | {tuple(range(rank))}:
            classes = _root_classes(c, zeros)
            assert sorted(i for cls in classes for i in cls) == list(range(len(rd.roots)))
            assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes)
            for cls in classes:
                assert list(cls) == sorted(cls)
                assert reflection_orbit(rd, zeros, cls[0]) == set(cls), (family, rank, zeros)
                # the string walked: the highest root, no s_j of the class raises it
                assert all(rd.fund[cls[-1]][j] >= 0 for j in zeros)
                for i in cls:
                    for j in zeros:
                        assert rd.reflect[j][i] < 0 or rd.reflect[j][i] in cls


def test_string_sum_is_constant_on_each_root_class():
    from qfold.rep_branch import _root_classes

    for c, lam in ((canonical_cartan("A", 5), (2, 0, 0, 0, 2)),
                   (canonical_cartan("B", 4), (0, 0, 0, 3)),
                   (canonical_cartan("D", 5), (1, 0, 0, 2, 0)),
                   (canonical_cartan("F", 4), (0, 0, 1, 1)),
                   (canonical_cartan("E", 6), (1, 0, 0, 0, 0, 1))):
        rd = root_datum(c)
        mults = dominant_character(c, lam)
        grouped = 0
        for mu in mults:
            zeros = tuple(j for j, x in enumerate(mu) if not x)
            for cls in _root_classes(c, zeros):
                sums = set()
                for i in cls:
                    total, k = 0, 1
                    while True:
                        nu = tuple(x + k * y for x, y in zip(mu, rd.fund[i]))
                        m = mults.get(dominant_representative(c, nu))
                        if m is None:
                            break
                        total += m * sum(map(mul, nu, rd.paired[i]))
                        k += 1
                    sums.add(total)
                assert len(sums) == 1, (c.labels, lam, mu, cls)
                grouped += len(cls) - 1
        assert grouped > 0


def corpus_split_and_folded():
    """Every corpus entry's split Cartan matrix and the folded matrix of its
    induced automorphism, each once, finite type or not."""
    from qfold.corpus import corpus
    from qfold.split_quotient import split_quiver

    found = []
    for entry in corpus():
        if not entry.admissible:
            continue
        sd = split_quiver(entry.quiver, entry.auto)
        split_c = cartan_from_quiver(sd.split)
        for c in (split_c, fold_cartan(split_c, sd.induced).folded):
            if c not in found:
                found.append(c)
    return found


def test_per_matrix_caches_match_their_uncached_functions():
    # each cached helper against the function it wraps, on every corpus
    # split and folded matrix; each result is immutable, so no caller can
    # change what the next one reads
    from qfold import rep_branch
    from qfold.corpus import corpus
    from qfold.split_quotient import split_quiver

    matrices = corpus_split_and_folded()
    assert any(not is_finite_type(c) for c in matrices)
    for c in matrices:
        label = classify_cartan(c)
        with pytest.raises(AttributeError):
            label.family = "other"
        if not is_finite_type(c):
            continue
        for pattern in itertools.product((False, True), repeat=c.n):
            size = rep_branch._orbit_size(c, pattern)
            assert isinstance(size, int) and size == rep_branch._orbit_size.__wrapped__(c, pattern)
            zeros = tuple(j for j, moved in enumerate(pattern) if not moved)
            classes = rep_branch._root_classes(c, zeros)
            assert classes == rep_branch._root_classes.__wrapped__(c, zeros)
            assert isinstance(classes, tuple) and all(isinstance(cls, tuple) for cls in classes)
    cases = 0
    for entry in corpus():
        if not entry.admissible:
            continue
        sd = split_quiver(entry.quiver, entry.auto)
        c = cartan_from_quiver(sd.split)
        if not is_finite_type(c):
            continue
        for orbit in rep_branch._orbit_indices(fold_cartan(c, sd.induced)):
            alphas = tuple(c.entries[j] for j in orbit)
            for k in range(5):
                points = rep_branch._fiber_points(alphas, k)
                assert points == rep_branch._fiber_points.__wrapped__(alphas, k)
                assert isinstance(points, tuple) and all(isinstance(p, tuple) for p in points)
                cases += 1
    assert cases >= 100


def full_stripping_branch(c, lam, fold):
    """The former branching, kept as an oracle: the whole restricted
    character, heights of the folded fundamental weights from the inverse
    folded Cartan matrix, and every summand's full character stripped."""
    fc = fold.folded
    restricted = {}
    for w, m in freudenthal_character(c, lam).items():
        rw = restrict_weight(w, fold)
        restricted[rw] = restricted.get(rw, 0) + m
    inv = Mat.rational(fc.entries).inverse()
    fund_height = [sum(inv[i, j] for j in range(fc.n)) for i in range(fc.n)]

    def height(w):
        return sum(x * h for x, h in zip(w, fund_height))

    out = []
    for top in sorted(restricted, key=lambda w: (height(w), w), reverse=True):
        if top not in restricted:
            continue
        assert is_dominant(top), top
        mult = restricted[top]
        out.append((top, mult))
        for w, m in freudenthal_character(fc, top).items():
            rem = restricted.get(w, 0) - mult * m
            assert rem >= 0, (top, w)
            if rem == 0:
                restricted.pop(w, None)
            else:
                restricted[w] = rem
    return out


def weyl_denominator_branch(c, lam, fold):
    """Second oracle, without stripping: n_nu = sum over w in W' of
    eps(w) M(nu + rho' - w rho'), with M the restricted multiplicity read
    at the folded-dominant representative.  The orbit of the regular
    weight rho' lists W', and its breadth-first depth is the length."""
    fc = fold.folded
    restricted = {}
    for w, m in freudenthal_character(c, lam).items():
        rw = restrict_weight(w, fold)
        restricted[rw] = restricted.get(rw, 0) + m
    dominant = {w: m for w, m in restricted.items() if is_dominant(w)}
    for w, m in restricted.items():  # restriction is W'-invariant
        assert dominant[dominant_representative(fc, w)] == m

    rho = (1,) * fc.n
    signed = {rho: 1}
    layer = [rho]
    while layer:
        nxt = []
        for x in layer:
            for i in range(fc.n):
                y = dense_reflect(fc, x, i)
                if y not in signed:
                    signed[y] = -signed[x]
                    nxt.append(y)
        layer = nxt

    def mult(mu):
        return dominant.get(dominant_representative(fc, mu), 0)

    out = {}
    for nu in dominant_weights_below(fc, restrict_weight(lam, fold)):
        n = sum(sign * mult(tuple(a + 1 - b for a, b in zip(nu, w_rho)))
                for w_rho, sign in signed.items())
        assert n >= 0, nu
        if n:
            out[nu] = n
    return out, len(signed)


def small_weyl_folds():
    """Folds with |W'| <= 48: C2, C3, B3, G2 from the base diagrams, and
    the split-quiver folds of branch (A3 -> B2, D4 -> B3, A5 -> C3)."""
    from qfold.corpus import corpus_entry
    from qfold.split_quotient import split_quiver

    folds = []
    for name in ("A3-flip", "A5-flip", "D4-swap", "D4-rot3"):
        entry = corpus_entry(name)
        c = cartan_from_quiver(entry.quiver)
        folds.append((c, fold_cartan(c, entry.auto)))
        sd = split_quiver(entry.quiver, entry.auto)
        split_c = cartan_from_quiver(sd.split)
        folds.append((split_c, fold_cartan(split_c, sd.induced)))
    return folds


def small_weights(c, cap):
    top = 3 if c.n <= 3 else 2
    return [lam for lam in itertools.product(range(top), repeat=c.n) if weyl_dim(c, lam) <= cap]


def test_branch_matches_weyl_denominator():
    cases = 0
    types = set()
    for c, fold in small_weyl_folds():
        for lam in small_weights(c, 400):
            by_denominator, order = weyl_denominator_branch(c, lam, fold)
            assert order <= 48
            assert dict(pairs(branch(c, lam, fold))) == by_denominator, (c.labels, lam)
            types.add(str(classify_cartan(fold.folded)))
            cases += 1
    assert types >= {"C2", "C3", "B3", "G2"}
    assert cases >= 100


def test_branch_matches_full_stripping_on_corpus():
    # every admissible corpus entry's split fold, split highest weights with
    # entries in {0, 1} summing to at most 2, and the pinned D4-rot3 framing;
    # the affine entries have no finite characters and are refused
    from qfold.corpus import corpus
    from qfold.split_quotient import split_quiver

    finite = []
    for entry in corpus():
        if not entry.admissible:
            continue
        sd = split_quiver(entry.quiver, entry.auto)
        c = cartan_from_quiver(sd.split)
        fold = fold_cartan(c, sd.induced)
        if not is_finite_type(c):
            with pytest.raises(NotFiniteType):
                branch(c, (0,) * c.n, fold)
            continue
        finite.append(entry.name)
        weights = [lam for lam in itertools.product((0, 1), repeat=c.n) if sum(lam) <= 2]
        if entry.name == "D4-rot3":
            weights.append((0, 2, 0, 2))  # the framing of the pinned CLI case
        for lam in weights:
            rows = branch(c, lam, fold)
            assert pairs(rows) == full_stripping_branch(c, lam, fold), (entry.name, lam)
            assert all(dim == weyl_dim(fold.folded, wt) for wt, _mult, dim in rows), \
                (entry.name, lam)
    assert set(finite) == {"A3-id", "A3-flip", "A5-flip", "A7-flip", "A9-flip", "D3-swap",
                           "D4-swap", "D5-swap", "D6-swap", "D4-rot3"}


def test_branch_checks_cap_before_any_walk(monkeypatch):
    # a framing whose folded dominant weights outrun the root-step budget is
    # refused while they are listed, before the top recursion or any fiber
    from qfold import rep_branch
    from qfold.corpus import corpus_entry
    from qfold.split_quotient import split_quiver

    entry = corpus_entry("D4-swap")
    sd = split_quiver(entry.quiver, entry.auto)
    c = cartan_from_quiver(sd.split)
    fold = fold_cartan(c, sd.induced)

    def no_walk(*_args):
        raise AssertionError("walked past the folded dominant weights")

    monkeypatch.setattr(rep_branch, "_freudenthal", no_walk)
    monkeypatch.setattr(rep_branch, "_fiber_points", no_walk)
    monkeypatch.setattr(rep_branch, "ROOT_STEP_CAP", 9_000)  # C3 has 9 positive roots
    with pytest.raises(TooLarge) as raised:
        branch(c, (1000,) * c.n, fold)
    assert raised.value.context == {"estimate": 1001, "cap": 1000}


def test_branch_checks_fiber_budget_before_any_fiber(monkeypatch):
    # a framing whose fibers hold over FIBER_SUM_CAP weights is refused
    # before the top character or a fiber is listed
    from qfold import rep_branch
    from qfold.corpus import corpus_entry
    from qfold.split_quotient import split_quiver

    entry = corpus_entry("D4-rot3")
    sd = split_quiver(entry.quiver, entry.auto)
    c = cartan_from_quiver(sd.split)
    fold = fold_cartan(c, sd.induced)

    def no_enumeration(*_args):
        raise AssertionError("listed weights beyond the fiber budget")

    monkeypatch.setattr(rep_branch, "_freudenthal", no_enumeration)
    monkeypatch.setattr(rep_branch, "_fiber_points", no_enumeration)
    with pytest.raises(TooLarge) as raised:
        branch(c, (0, 30, 0, 30), fold)
    assert raised.value.context["cap"] == rep_branch.FIBER_SUM_CAP
    assert raised.value.context["estimate"] == 1_615_441


@pytest.mark.parametrize("family, rank, order", [
    ("B", 2, 8), ("B", 3, 48), ("C", 3, 48), ("B", 4, 384), ("C", 4, 384), ("B", 5, 3840),
    ("G", 2, 12)])
def test_unpruned_walk_reaches_each_weyl_group_element_once(monkeypatch, family, rank, order):
    # with a top and depths beyond any walk nothing is pruned: the points
    # rho' - w rho' met are the orbit of rho', each once, and a character
    # that is 1 everywhere sums the signs to 0, half of the elements with each
    from qfold import rep_branch

    class Everywhere(dict):
        def get(self, key, default=None):
            return 1

    fc = canonical_cartan(family, rank)
    rho, zero = (1,) * rank, (0,) * rank
    seen = []

    def recorded(rows, mu):
        seen.append(tuple(r - x for r, x in zip(rho, mu)))
        return mu

    monkeypatch.setattr(rep_branch, "_dominant", recorded)
    mults = rep_branch._alternation(fc, (10 ** 6,) * rank, Everywhere({zero: 1}),
                                    {zero: (10 ** 6,) * rank})
    assert mults == {zero: 0}
    assert len(seen) == len(set(seen)) == order
    assert set(seen) == dense_orbit(fc, rho)


def test_branch_makes_one_freudenthal_recursion(monkeypatch):
    from qfold import rep_branch
    from qfold.corpus import corpus_entry
    from qfold.split_quotient import split_quiver

    original = rep_branch._freudenthal
    calls = []

    def counted(*args):
        calls.append(args[:2])
        return original(*args)

    monkeypatch.setattr(rep_branch, "_freudenthal", counted)
    for name, lam in (("D4-rot3", (0, 2, 0, 2)), ("A5-flip", (1, 1, 1, 1)),
                      ("D5-swap", (1, 0, 1, 0, 1, 0, 1))):
        entry = corpus_entry(name)
        sd = split_quiver(entry.quiver, entry.auto)
        c = cartan_from_quiver(sd.split)
        calls.clear()
        rows = branch(c, lam, fold_cartan(c, sd.induced))
        assert len(rows) > 1 and calls == [(c, lam)], name


def test_branch_refuses_a_walk_past_its_cap(monkeypatch):
    from qfold import rep_branch
    from qfold.corpus import corpus_entry
    from qfold.split_quotient import split_quiver

    entry = corpus_entry("D4-rot3")
    sd = split_quiver(entry.quiver, entry.auto)
    c = cartan_from_quiver(sd.split)
    monkeypatch.setattr(rep_branch, "WALK_CAP", 20)
    with pytest.raises(TooLarge) as raised:
        branch(c, (0, 2, 0, 2), fold_cartan(c, sd.induced))
    assert raised.value.context == {"estimate": 21, "cap": 20}


# ---------------------------------------------------------------------------
# the dense kernels the root datum replaced, kept as oracles
# ---------------------------------------------------------------------------

def dense_reflect(c, lam, i):
    """s_i over every coordinate, reading the Cartan matrix entry by entry."""
    return tuple(lam[k] - lam[i] * c[i, k] for k in range(c.n))


def dense_orbit(c, lam):
    """Breadth-first closure of lam under every simple reflection."""
    seen = {lam}
    frontier = [lam]
    while frontier:
        new = []
        for w in frontier:
            for i in range(c.n):
                img = dense_reflect(c, w, i)
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return seen


def dense_dominant(c, lam):
    cur = lam
    while not is_dominant(cur):
        cur = dense_reflect(c, cur, next(i for i in range(c.n) if cur[i] < 0))
    return cur


def fraction_weyl_dim(c, lam):
    """Weyl's formula as a product of Fractions (lam + rho, beta) / (rho, beta)."""
    d = symmetrizer(c)
    num = Fraction(1)
    for beta in root_datum(c).roots:
        num *= Fraction(sum(beta[j] * (lam[j] + 1) * d[j] for j in range(c.n)),
                        sum(beta[j] * d[j] for j in range(c.n)))
    assert num.denominator == 1 and num > 0
    return int(num)


def spread_oracle(c, lam, fold, depths):
    """The former spread: the full character of L(lam), each dominant
    multiplicity over a dense orbit, restricted point by point with
    restrict_weight and kept at the keys of depths; with its total."""
    char = {}
    for mu, m in dominant_character(c, lam).items():
        for w in dense_orbit(c, mu):
            char[w] = m
    restricted = {}
    for w, m in char.items():
        rw = restrict_weight(w, fold)
        if rw in depths:
            restricted[rw] = restricted.get(rw, 0) + m
    return restricted, sum(char.values())


def orbit_spread(c, lam, orbits, depths):
    """The former spread, kept as an oracle for the fiber sum: each dominant
    weight's Weyl orbit walked, every point restricted as it is listed, and
    the sum of m * |W mu| over the dominant weights."""
    from qfold.rep_branch import _freudenthal, _restrict

    base = 1 + max(max(nu, default=0) for nu in depths)
    coeff = [0] * c.n
    for j, orbit in enumerate(orbits):
        for k in orbit:
            coeff[k] = base ** j
    by_key = {sum(x * base ** j for j, x in enumerate(nu)): nu for nu in depths}
    restricted = {}
    spread = 0
    for mu, m in _freudenthal(c, lam).items():
        orbit = weyl_orbit(c, mu)
        spread += m * len(orbit)
        for w in orbit:
            nu = by_key.get(sum(map(mul, w, coeff)))
            if nu is not None and _restrict(w, orbits) == nu:
                restricted[nu] = restricted.get(nu, 0) + m
    return restricted, spread


def corpus_finite_cartans():
    """Every finite-type split and folded Cartan matrix of the admissible
    corpus entries (base folds and split folds), then canonical E6 and F4."""
    from qfold.corpus import corpus
    from qfold.split_quotient import split_quiver

    found = []
    for entry in corpus():
        if not entry.admissible:
            continue
        sd = split_quiver(entry.quiver, entry.auto)
        split_c = cartan_from_quiver(sd.split)
        base_c = cartan_from_quiver(entry.quiver)
        for c in (split_c, fold_cartan(split_c, sd.induced).folded,
                  fold_cartan(base_c, entry.auto).folded):
            if is_finite_type(c) and c not in found:
                found.append(c)
    return found + [canonical_cartan("E", 6), canonical_cartan("F", 4)]


def oracle_weights(c):
    """Entries in {0, 1} summing to at most 2, and rho up to rank 4."""
    weights = [lam for lam in itertools.product((0, 1), repeat=c.n) if sum(lam) <= 2]
    if c.n <= 4:
        weights.append((1,) * c.n)
    return weights


def reflection_closure_roots(c):
    """The former positive roots: the simple roots closed under every
    simple reflection that keeps a root positive, sorted by height."""
    def reflect_root(beta, i):
        out = list(beta)
        out[i] -= sum(beta[k] * c[k, i] for k in range(c.n))
        return tuple(out)

    simple = [tuple(1 if k == i else 0 for k in range(c.n)) for i in range(c.n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(c.n):
                img = reflect_root(beta, i)
                if all(x >= 0 for x in img) and any(img) and img not in roots:
                    roots.add(img)
                    new.append(img)
        frontier = new
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


def test_root_datum_roots_match_the_reflection_closure():
    # A1-A11, B2-B9, C2-C9, D3-D9, E6-E8, F4, G2, then every finite corpus
    # base, split and folded matrix that differs from these
    from qfold.corpus import corpus

    ranks = {"A": range(1, 12), "B": range(2, 10), "C": range(2, 10), "D": range(3, 10),
             "E": range(6, 9), "F": (4,), "G": (2,)}
    cartans = [canonical_cartan(family, n) for family, rs in ranks.items() for n in rs]
    bases = [cartan_from_quiver(entry.quiver) for entry in corpus()]
    for c in corpus_finite_cartans() + bases:
        if is_finite_type(c) and c not in cartans:
            cartans.append(c)
    assert len(cartans) >= 57
    for c in cartans:
        assert root_datum(c).roots == reflection_closure_roots(c), c.entries


def test_root_datum_kernels_match_dense_oracles():
    cartans = corpus_finite_cartans()
    kinds = {str(classify_cartan(c)) for c in cartans}
    assert kinds >= {"A3", "A5", "A7", "A9", "B3", "C2", "C3", "C4", "C5", "G2", "E6", "F4"}
    for c in cartans:
        for lam in oracle_weights(c):
            assert weyl_dim(c, lam) == fraction_weyl_dim(c, lam), (c.labels, lam)
            orbit = weyl_orbit(c, lam)
            assert orbit == dense_orbit(c, lam), (c.labels, lam)
            # a non-dominant start lists the same orbit
            lower = dense_reflect(c, lam, c.n - 1)
            assert weyl_orbit(c, lower) == orbit, (c.labels, lam)
            for w in sorted(orbit)[:40]:
                assert dominant_representative(c, w) == dense_dominant(c, w) == lam


def test_fused_spread_matches_full_character_restriction():
    # every finite corpus split fold, weights of Weyl dimension at most 3000
    from qfold import rep_branch
    from qfold.corpus import corpus
    from qfold.split_quotient import split_quiver

    cases = 0
    for entry in corpus():
        if not entry.admissible:
            continue
        sd = split_quiver(entry.quiver, entry.auto)
        c = cartan_from_quiver(sd.split)
        fold = fold_cartan(c, sd.induced)
        if not is_finite_type(c):
            continue
        orbits = rep_branch._orbit_indices(fold)
        for lam in oracle_weights(c):
            if weyl_dim(c, lam) > 3000:
                continue
            depths = dominant_weights_below(fold.folded, restrict_weight(lam, fold))
            got = rep_branch._restricted_spread(c, lam, fold.folded, orbits, depths)
            assert got == orbit_spread(c, lam, orbits, depths), (entry.name, lam)
            assert got == spread_oracle(c, lam, fold, depths), (entry.name, lam)
            assert got[1] == weyl_dim(c, lam)
            cases += 1
    assert cases >= 100


def test_folded_orbit_size_matches_the_orbit_walk():
    # every folded-dominant weight of Weyl dimension at most 3000 of each
    # finite corpus fold, then F4
    from qfold import rep_branch
    from qfold.corpus import corpus
    from qfold.split_quotient import split_quiver

    folded = []
    for entry in corpus():
        if not entry.admissible:
            continue
        sd = split_quiver(entry.quiver, entry.auto)
        split_c = cartan_from_quiver(sd.split)
        base_c = cartan_from_quiver(entry.quiver)
        for c in (fold_cartan(split_c, sd.induced).folded,
                  fold_cartan(base_c, entry.auto).folded):
            if is_finite_type(c) and c not in folded:
                folded.append(c)
    kinds = {str(classify_cartan(c)) for c in folded}
    assert kinds >= {"C2", "C3", "C4", "C5", "B2", "B3", "B4", "B5", "G2"}
    cases = 0
    for c in folded + [canonical_cartan("F", 4)]:
        for nu in weights_up_to(c, 3000):
            moved = tuple(x != 0 for x in nu)
            assert rep_branch._orbit_size(c, moved) == len(weyl_orbit(c, nu)), (c.labels, nu)
            cases += 1
    assert cases >= 1200


def weights_up_to(c, cap):
    """The dominant weights of Weyl dimension at most cap: the dimension
    grows in every coordinate, so each coordinate is raised until it passes."""
    out = []

    def extend(prefix):
        if len(prefix) == c.n:
            out.append(prefix)
            return
        top = 0
        while weyl_dim(c, prefix + (top,) + (0,) * (c.n - len(prefix) - 1)) <= cap:
            extend(prefix + (top,))
            top += 1

    extend(())
    return out
