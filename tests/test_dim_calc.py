import random

from qfold.corpus import corpus_entry
from qfold.dim_calc import dim_quiver_variety, fixed_components, is_empty
from qfold.lie_fold import cartan_from_quiver, cartan_matrix
from qfold.quiver_core import a_quiver, affine_a_quiver, d_quiver, fork_swap_automorphism
from qfold.rep_branch import freudenthal_character, weyl_dim
from qfold.split_quotient import fiber_count, split_quiver

A1 = cartan_matrix([[2]])


def test_cotangent_grassmannian_oracle():
    # T*Gr(k, m) has dimension 2k(m-k)
    for m in range(6):
        for k in range(m + 1):
            assert dim_quiver_variety({"1": k}, {"1": m}, A1) == 2 * k * (m - k)
    assert dim_quiver_variety({"1": 0}, {"1": 3}, A1) == 0


def test_dim_permutation_equivariance():
    rng = random.Random(1)
    a3 = cartan_from_quiver(a_quiver(3))
    relabeled = cartan_matrix(
        [[a3[(i + 1) % 3, (j + 1) % 3] for j in range(3)] for i in range(3)],
        labels=["b", "c", "a"])
    for _ in range(10):
        v = {str(i): rng.randint(0, 3) for i in range(1, 4)}
        w = {str(i): rng.randint(0, 3) for i in range(1, 4)}
        mapped = {"2": "b", "3": "c", "1": "a"}
        v2 = {mapped[k]: val for k, val in v.items()}
        w2 = {mapped[k]: val for k, val in w.items()}
        assert dim_quiver_variety(v, w, a3) == dim_quiver_variety(v2, w2, relabeled)


def test_fixed_components_zero_vector():
    d4 = d_quiver(4)
    sd = split_quiver(d4, fork_swap_automorphism(d4, 4))
    records = fixed_components({x: 0 for x in d4.vertices}, sd,
                               {x: 0 for x in sd.split.vertices})
    assert len(records) == 1
    assert records[0].dim == 0 and not records[0].empty


def test_fixed_components_d4_swap():
    d4 = d_quiver(4)
    sd = split_quiver(d4, fork_swap_automorphism(d4, 4))
    v = {"1": 1, "2": 1, "3": 1, "4": 1}
    w_split = {"1@1/2": 1, "1@2/2": 0, "2@1/2": 1, "2@2/2": 0, "3@1/1": 1}
    records = fixed_components(v, sd, w_split)
    assert len(records) == 4 == fiber_count(v, sd)
    dims = sorted(r.dim for r in records)
    assert dims == [0, 0, 0, 4]
    # multiset of records is invariant under the induced relabelling
    relabel = sd.induced.vertex_perm
    keys = sorted(tuple(sorted({relabel[k]: val for k, val in r.v_split.items()}.items()))
                  for r in records)
    orig = sorted(tuple(sorted(r.v_split.items())) for r in records)
    assert keys == orig


def test_is_empty_matches_the_character_oracle():
    """M(v, w) is empty exactly when w - Cv is no weight of L(w): the walk
    agrees with the multiplicities of `freudenthal_character` on seeded
    (v, w) of A2-A4, D4 and D5, v <= 3 and w <= 2, where the sign of the
    dimension formula is wrong on some."""
    rng = random.Random(27)
    cartans = [cartan_from_quiver(a_quiver(n)) for n in (2, 3, 4)]
    cartans += [cartan_from_quiver(d_quiver(n)) for n in (4, 5)]
    characters = {}
    verdicts, formula_wrong = set(), 0
    for _ in range(600):
        c = rng.choice(cartans)
        while True:
            w = tuple(rng.randint(0, 2) for _ in range(c.n))
            if weyl_dim(c, w) <= 5000:
                break
        v = tuple(rng.randint(0, 3) for _ in range(c.n))
        if (c, w) not in characters:
            characters[c, w] = freudenthal_character(c, w)
        mu = tuple(w[i] - sum(v[j] * c[j, i] for j in range(c.n)) for i in range(c.n))
        empty = characters[c, w].get(mu, 0) == 0
        vd, wd = dict(zip(c.labels, v)), dict(zip(c.labels, w))
        assert is_empty(vd, wd, c) is empty, (c.labels, v, w)
        verdicts.add(empty)
        formula_wrong += (dim_quiver_variety(vd, wd, c) < 0) is not empty
    assert verdicts == {True, False} and formula_wrong > 0


def test_is_empty_on_affine_a3():
    """At w = Lambda_0, v = k delta is nonempty (Frenkel and Kac, Invent.
    Math. 62, 1980) and v = 2 alpha_0 empty.  At w = 0 only v = 0 is
    nonempty: with no framing, stability leaves no nonzero V."""
    c = cartan_from_quiver(affine_a_quiver(3))
    top = {"0": 1}
    for k in range(5):
        assert not is_empty({x: k for x in c.labels}, top, c), k
    assert is_empty({"0": 2}, top, c)
    assert not is_empty({}, {}, c)
    assert is_empty({x: 1 for x in c.labels}, {}, c)


def test_fixed_components_on_an_affine_split_quiver():
    """affineA3-flip splits to affine D4, whose delta' = (1, 1, 2, 1, 1)
    lies over v = (2, 2, 2, 2).  With no framing every row is empty, the
    delta' row too, though its formula reads 0; framed at 0@1/2, the
    delta' row is nonempty, as Lambda_0 - delta is a weight of the basic
    representation."""
    entry = corpus_entry("affineA3-flip")
    sd = split_quiver(entry.quiver, entry.auto)
    delta = dict(zip(sd.split.vertices, (1, 1, 2, 1, 1)))
    v = {x: 2 for x in entry.quiver.vertices}
    unframed = fixed_components(v, sd, {})
    assert delta in [r.v_split for r in unframed]
    assert all(r.empty for r in unframed)
    assert [r.dim for r in unframed if r.v_split == delta] == [0]
    framed = fixed_components(v, sd, {"0@1/2": 1})
    assert [r.empty for r in framed if r.v_split == delta] == [False]
