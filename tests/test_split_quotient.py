import itertools
import math
import random

import iso_oracle
import pytest
from iso_oracle import graph_isomorphisms

from qfold.corpus import corpus, corpus_entry
from qfold.errors import (
    IsoNotFound,
    NotAdmissible,
    NotDiagonalizableOverCyclotomicEigenvalues,
    SigmaConstraintViolated,
    TooLarge,
)
from qfold.lie_fold import cartan_from_quiver, classify_cartan
from qfold.linalg import Mat
from qfold.quiver_core import (
    a_quiver,
    affine_a_quiver,
    automorphism,
    check_automorphism,
    d_quiver,
    flip_automorphism,
    fork_swap_automorphism,
    identity_automorphism,
    is_admissible,
    quiver,
)
from qfold.serialize import matmap_to_obj, sigma_from_dict
from qfold.split_quotient import (
    SigmaData,
    _check_natural_map,
    _composition_count,
    _compositions,
    fiber_count,
    fibers_of_p,
    project_dim,
    quotient_quiver,
    split_framing,
    split_involution_check,
    split_quiver,
)


def test_quotient_identity_is_same_quiver():
    d4 = d_quiver(4)
    quo = quotient_quiver(d4, identity_automorphism(d4))
    assert next(graph_isomorphisms(quo, d4), None) is not None


def test_quotient_a3_flip_is_a2():
    a3 = a_quiver(3)
    quo = quotient_quiver(a3, flip_automorphism(a3, 3))
    assert len(quo.vertices) == 2 and len(quo.edges) == 1


def test_quotient_d4_swap_is_a3_path():
    d4 = d_quiver(4)
    quo = quotient_quiver(d4, fork_swap_automorphism(d4, 4))
    assert next(graph_isomorphisms(quo, a_quiver(3)), None) is not None


def test_quotient_requires_admissible():
    a4 = a_quiver(4)
    with pytest.raises(NotAdmissible):
        quotient_quiver(a4, flip_automorphism(a4, 4))


def test_split_d_family_gives_odd_paths():
    for n in range(2, 6):
        d = d_quiver(n + 1)
        sd = split_quiver(d, fork_swap_automorphism(d, n + 1))
        label = classify_cartan(cartan_from_quiver(sd.split))
        assert str(label) == f"A{2 * n - 1}"


def test_split_identity_is_identity():
    a5 = a_quiver(5)
    sd = split_quiver(a5, identity_automorphism(a5))
    assert sd.split == a5
    assert sd.induced.vertex_perm == {v: v for v in a5.vertices}
    assert project_dim({"2": 3}, sd)["2"] == 3


def test_split_a_flip_gives_d_with_fork_swap():
    a5 = a_quiver(5)
    sd = split_quiver(a5, flip_automorphism(a5, 5))
    assert str(classify_cartan(cartan_from_quiver(sd.split))) == "D4"
    check_automorphism(sd.split, sd.induced)
    assert is_admissible(sd.split, sd.induced)
    moved = [v for v in sd.split.vertices if sd.induced.vertex_perm[v] != v]
    # exactly the two phases of the middle orbit are exchanged
    assert len(moved) == 2
    assert {sd.vertex_table[v].orbit for v in moved} == {("3",)}


def test_split_vertex_count_formula_and_induced_validity():
    for entry in corpus():
        if not entry.admissible:
            continue
        sd = split_quiver(entry.quiver, entry.auto)
        od = sd.orbits
        expect = sum(od.e_vertex[o[0]] for o in od.vertex_orbits)
        assert len(sd.split.vertices) == expect
        check_automorphism(sd.split, sd.induced)
        assert is_admissible(sd.split, sd.induced)
        # the orbit order n annihilates the induced permutation
        cur = {v: v for v in sd.split.vertices}
        for _ in range(sd.orbits.n):
            cur = {v: sd.induced.vertex_perm[cur[v]] for v in cur}
        assert cur == {v: v for v in sd.split.vertices}


def test_split_involution_on_corpus():
    for entry in corpus():
        if not entry.admissible:
            with pytest.raises(NotAdmissible):
                split_quiver(entry.quiver, entry.auto)
            continue
        witness = split_involution_check(entry.quiver, entry.auto)
        assert sorted(witness.vertex_map.values()) == sorted(entry.quiver.vertices), entry.name
        assert iso_oracle.split_involution(entry.quiver, entry.auto) is not None, entry.name


def test_split_involution_fails_for_free_action():
    # rotation by two steps on the four-cycle acts freely; the split
    # quiver forgets the action and splitting twice cannot recover it
    aff3 = affine_a_quiver(3)
    rot2 = automorphism(aff3, {"0": "2", "2": "0", "1": "3", "3": "1"})
    assert is_admissible(aff3, rot2)
    sd = split_quiver(aff3, rot2)
    assert len(sd.split.vertices) == 2  # double edge
    with pytest.raises(IsoNotFound):
        split_involution_check(aff3, rot2)
    assert iso_oracle.split_involution(aff3, rot2) is None


def symmetric_star(rng):
    """A star whose legs come in 1-4 groups of equal legs, each group
    rotated cyclically; leg lengths 1-3, random edge directions and a
    shuffled vertex order."""
    vertices, edges, vperm = ["c"], [], {"c": "c"}
    for g in range(rng.randint(1, 4)):
        legs, length = rng.randint(1, 4), rng.randint(1, 3)
        for leg in range(legs):
            prev = "c"
            for depth in range(length):
                v = f"g{g}l{leg}d{depth}"
                vertices.append(v)
                vperm[v] = f"g{g}l{(leg + 1) % legs}d{depth}"
                edges.append((f"e{v}", prev, v) if rng.random() < 0.5 else (f"e{v}", v, prev))
                prev = v
    rng.shuffle(vertices)
    q = quiver(vertices, edges)
    return q, automorphism(q, vperm)


def cyclic_copies(rng):
    """2-3 copies of A_n, n = 1..5, permuted cyclically: a free action."""
    n, copies = rng.randint(1, 5), rng.randint(2, 3)
    vertices = [f"{c}.{k}" for c in range(copies) for k in range(1, n + 1)]
    edges = [(f"e{c}.{k}", f"{c}.{k}", f"{c}.{k + 1}") for c in range(copies) for k in range(1, n)]
    q = quiver(vertices, edges)
    return q, automorphism(q, {f"{c}.{k}": f"{(c + 1) % copies}.{k}"
                               for c in range(copies) for k in range(1, n + 1)})


def relabelled_entry(rng, q, a):
    """The pair with shuffled vertex and edge names and orders, and random
    edge directions."""
    name = {v: f"v{i}" for i, v in enumerate(rng.sample(q.vertices, len(q.vertices)))}
    ename = {e.id: f"f{i}" for i, e in enumerate(rng.sample(q.edges, len(q.edges)))}
    edges = [(ename[e.id], name[e.src], name[e.tgt]) if rng.random() < 0.5
             else (ename[e.id], name[e.tgt], name[e.src]) for e in q.edges]
    rng.shuffle(edges)
    vertices = list(name.values())
    rng.shuffle(vertices)
    q2 = quiver(vertices, edges)
    return q2, automorphism(q2, {name[v]: name[w] for v, w in a.vertex_perm.items()},
                            {ename[e]: ename[f] for e, f in a.edge_perm.items()})


def test_split_involution_matches_the_search_on_seeded_quivers(monkeypatch):
    """The natural map answers as the former search does wherever the
    search answers: on 400 symmetric stars, 10 free actions and 5
    relabellings of each admissible corpus entry.  Each search is held to
    10^5 assignments, so that the test stays short."""
    monkeypatch.setattr(iso_oracle, "INDEX_SEARCH_CAP", 10 ** 5)
    rng = random.Random(30)
    cases = [symmetric_star(rng) for _ in range(400)] + [cyclic_copies(rng) for _ in range(10)]
    cases += [relabelled_entry(rng, e.quiver, e.auto) for e in corpus() if e.admissible
              for _ in range(5)]
    verdicts = {True: 0, False: 0, "refused": 0}
    for q, a in cases:
        assert is_admissible(q, a)
        try:
            want = iso_oracle.split_involution(q, a) is not None
        except TooLarge:
            split_involution_check(q, a)
            verdicts["refused"] += 1
            continue
        try:
            split_involution_check(q, a)
            got = True
        except IsoNotFound:
            got = False
        assert got == want, (q, a)
        verdicts[want] += 1
    assert verdicts[True] > 300 and verdicts[False] == 10 and verdicts["refused"] > 0, verdicts


def star_k1_10(swaps: bool):
    q = quiver(["c"] + [f"l{i}" for i in range(10)], [(f"e{i}", "c", f"l{i}") for i in range(10)])
    vperm = {"c": "c", **{f"l{i}": f"l{i ^ 1 if swaps else i}" for i in range(10)}}
    return q, automorphism(q, vperm)


@pytest.mark.parametrize("swaps", [True, False], ids=["five-leaf-swaps", "identity"])
def test_split_involution_answers_where_the_search_is_refused(swaps):
    """K_{1,10}: the search could reach all 10! leaf bijections, beyond
    its cap, and is refused; the natural map answers."""
    q, a = star_k1_10(swaps)
    with pytest.raises(TooLarge) as info:
        iso_oracle.split_involution(q, a)
    assert info.value.context["estimate"] == math.factorial(10) > iso_oracle.INDEX_SEARCH_CAP
    witness = split_involution_check(q, a)
    assert sorted(witness.vertex_map.values()) == sorted(q.vertices)


def natural_map_parts(name):
    entry = corpus_entry(name)
    q, a = entry.quiver, entry.auto
    sd = split_quiver(q, a)
    sd2 = split_quiver(sd.split, sd.induced)
    vertex_map = dict(split_involution_check(q, a).vertex_map)
    _check_natural_map(sd2, q, a, vertex_map)
    return q, a, sd2, vertex_map


def test_a_swap_within_an_orbit_fails_the_automorphism_check():
    # two leaves of the rotated D4 trade images: every edge still lands
    # on an edge, but the map no longer carries the rotation to a
    q, a, sd2, vertex_map = natural_map_parts("D4-rot3")
    x1, x2 = next(slots for slots in sd2.orbit_slots if len(slots) == 3)[:2]
    vertex_map[x1], vertex_map[x2] = vertex_map[x2], vertex_map[x1]
    with pytest.raises(IsoNotFound, match="twice-induced automorphism") as info:
        _check_natural_map(sd2, q, a, vertex_map)
    assert x1 in str(info.value) or x2 in str(info.value)


def test_a_deleted_edge_fails_the_edge_check():
    q, a, sd2, vertex_map = natural_map_parts("D5-swap")
    gone = sd2.split.edges[0]
    split = quiver(sd2.split.vertices, sd2.split.edges[1:])
    u, v = sorted((vertex_map[gone.src], vertex_map[gone.tgt]))
    with pytest.raises(IsoNotFound,
                       match=f"0 edges of s\\(s\\(Q\\)\\) go onto {u}--{v}, which Q joins by 1"):
        _check_natural_map(sd2._replace(split=split), q, a, vertex_map)


def test_shifted_phases_fail_the_edge_check():
    # the slots of the orbit {1, 5} of A5-flip go one phase on: still a
    # bijection that carries the flip to a, but 1 and 5 trade neighbours
    q, a, sd2, vertex_map = natural_map_parts("A5-flip")
    slots = next(s for s in sd2.orbit_slots if {vertex_map[x] for x in s} == {"1", "5"})
    images = [vertex_map[x] for x in slots]
    vertex_map.update(zip(slots, images[1:] + images[:1]))
    with pytest.raises(IsoNotFound, match="1 edges of s\\(s\\(Q\\)\\) go onto (1--2|2--5), "
                                          "which Q joins by 0"):
        _check_natural_map(sd2, q, a, vertex_map)


def cycle_of_orbits():
    """A fixed vertex c joined to the 3-orbits {x_k} and {y_k}, the edges
    x_k -- y_(k+1), and the rotation: the orbits form a cycle."""
    vertices = ["c"] + [f"{s}{k}" for s in "xy" for k in range(3)]
    edges = [(f"c{s}{k}", "c", f"{s}{k}") for s in "xy" for k in range(3)]
    edges += [(f"xy{k}", f"x{k}", f"y{(k + 1) % 3}") for k in range(3)]
    q = quiver(vertices, edges)
    return q, automorphism(q, {"c": "c", **{f"{s}{k}": f"{s}{(k + 1) % 3}"
                                           for s in "xy" for k in range(3)}})


def test_split_twice_returns_the_cycle_of_orbits():
    # the natural map from the bases c, x0 and y1, which an edge of Q joins,
    # is an isomorphism s(s(Q)) -> Q that carries the twice-induced rotation to a
    q, a = cycle_of_orbits()
    sd = split_quiver(q, a)
    sd2 = split_quiver(sd.split, sd.induced)
    vertex_map = {}
    for slots, v in zip(sd2.orbit_slots, ("c", "x0", "y1"), strict=True):
        for x in slots:
            vertex_map[x] = v
            v = a.vertex_perm[v]
    _check_natural_map(sd2, q, a, vertex_map)


@pytest.mark.xfail(strict=True, raises=IsoNotFound, reason="ROADMAP item 12")
def test_split_involution_check_answers_on_the_cycle_of_orbits():
    # the walk from c takes x0 and y0 as bases, and its map sends an edge
    # of s(s(Q)) onto x0 -- y0, which Q lacks: a false "no"
    q, a = cycle_of_orbits()
    witness = split_involution_check(q, a)
    assert sorted(witness.vertex_map.values()) == sorted(q.vertices)


def test_composition_count_matches_the_listing():
    # parts = 0 included, where comb(total + parts - 1, parts - 1) would raise
    for total in range(9):
        for parts in range(6):
            assert _composition_count(total, parts) == len(_compositions(total, parts))


def test_graph_isomorphic_basics():
    a3 = a_quiver(3)
    relabeled = quotient_quiver(a3, identity_automorphism(a3))
    assert next(graph_isomorphisms(a3, relabeled), None) is not None
    assert next(graph_isomorphisms(a3, d_quiver(4)), None) is None
    d4 = d_quiver(4)
    relabel = quiver(["a", "b", "c", "d"],
                     [("x", "a", "b"), ("y", "b", "c"), ("z", "b", "d")])
    iso = next(graph_isomorphisms(d4, relabel), None)
    assert iso is not None and iso["2"] == "b"


def test_project_dim_examples():
    d4 = d_quiver(4)
    sd = split_quiver(d4, fork_swap_automorphism(d4, 4))
    zero = {v: 0 for v in sd.split.vertices}
    assert project_dim(zero, sd) == {v: 0 for v in d4.vertices}
    ones = {v: 1 for v in sd.split.vertices}
    assert project_dim(ones, sd) == {"1": 2, "2": 2, "3": 1, "4": 1}
    fork_only = {"3@1/1": 3}
    assert project_dim(fork_only, sd) == {"1": 0, "2": 0, "3": 3, "4": 3}


def test_fibers_d4_and_roundtrip():
    d4 = d_quiver(4)
    sd = split_quiver(d4, fork_swap_automorphism(d4, 4))
    v = {"1": 1, "2": 1, "3": 1, "4": 1}
    fib = fibers_of_p(v, sd)
    assert len(fib) == 4 == fiber_count(v, sd)
    for f in fib:
        assert project_dim(f, sd) == v
    zero = {x: 0 for x in d4.vertices}
    assert fibers_of_p(zero, sd) == [{v: 0 for v in sd.split.vertices}]
    # a vertex v leaves out counts as 0
    for v in ({}, {"1": 2, "2": 2}, {"3": 1, "4": 1}):
        assert fiber_count(v, sd) == len(fibers_of_p(v, sd))


def test_fibers_a3_flip_slices():
    a3 = a_quiver(3)
    sd = split_quiver(a3, flip_automorphism(a3, 3))
    fib = fibers_of_p({"1": 1, "2": 2, "3": 1}, sd)
    pairs = [(f["2@1/2"], f["2@2/2"]) for f in fib]
    assert sorted(pairs) == [(0, 2), (1, 1), (2, 0)]
    assert all(f["1@1/1"] == 1 for f in fib)


def test_fibers_at_the_cap(monkeypatch):
    # a fiber of exactly FIBER_CAP vectors is listed, one past it refused
    from qfold import split_quotient
    d4 = d_quiver(4)
    sd = split_quiver(d4, fork_swap_automorphism(d4, 4))
    v = {"1": 2, "2": 2, "3": 2, "4": 2}
    count = fiber_count(v, sd)
    monkeypatch.setattr(split_quotient, "FIBER_CAP", count)
    assert len(fibers_of_p(v, sd)) == count
    monkeypatch.setattr(split_quotient, "FIBER_CAP", count - 1)
    with pytest.raises(TooLarge):
        fibers_of_p(v, sd)


def test_fibers_match_brute_enumeration():
    setups = [
        (d_quiver(4), fork_swap_automorphism(d_quiver(4), 4)),
        (a_quiver(3), flip_automorphism(a_quiver(3), 3)),
    ]
    for q, a in setups:
        sd = split_quiver(q, a)
        od = sd.orbits
        for combo in itertools.product(range(3), repeat=len(od.vertex_orbits)):
            v = {}
            for orbit, val in zip(od.vertex_orbits, combo):
                for x in orbit:
                    v[x] = val
            top = max(combo, default=0)
            brute = []
            names = list(sd.split.vertices)
            for values in itertools.product(range(top + 1), repeat=len(names)):
                cand = dict(zip(names, values))
                if project_dim(cand, sd) == v:
                    brute.append(cand)
            fast = fibers_of_p(v, sd)
            assert len(fast) == len(brute) == fiber_count(v, sd)
            assert sorted(map(sorted, (f.items() for f in fast))) == \
                sorted(map(sorted, (b.items() for b in brute)))


def test_split_framing_identity_and_signs():
    d4 = d_quiver(4)
    sd = split_quiver(d4, fork_swap_automorphism(d4, 4))
    ident = {v: Mat.identity(3) for v in d4.vertices}
    out = split_framing(SigmaData(d4, sd.auto, ident), sd)
    assert out["1@1/2"] == 3 and out["1@2/2"] == 0
    assert out["3@1/1"] == 3

    signs = dict(ident)
    signs["1"] = Mat.rational([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    out2 = split_framing(SigmaData(d4, sd.auto, signs), sd)
    assert out2["1@1/2"] == 1 and out2["1@2/2"] == 2
    assert sum(out2[s] for s in ("1@1/2", "1@2/2")) == 3

    half = {v: Mat.identity(2) for v in d4.vertices}
    half["2"] = Mat.rational([[1, 0], [0, -1]])
    out3 = split_framing(SigmaData(d4, sd.auto, half), sd)
    assert (out3["2@1/2"], out3["2@2/2"]) == (1, 1)


def test_split_framing_swapped_orbit_single_piece():
    d4 = d_quiver(4)
    sd = split_quiver(d4, fork_swap_automorphism(d4, 4))
    maps = {v: Mat.identity(2) for v in d4.vertices}
    maps["3"] = Mat.rational([[0, 1], [1, 0]])
    maps["4"] = Mat.rational([[0, 1], [1, 0]])
    out = split_framing(SigmaData(d4, sd.auto, maps), sd)
    assert out["3@1/1"] == 2


def test_split_framing_order_three_rotation():
    d4 = d_quiver(4)
    rot = automorphism(d4, {"1": "3", "3": "4", "4": "1", "2": "2"})
    sd = split_quiver(d4, rot)
    maps = {v: Mat.identity(2) for v in d4.vertices}
    maps["2"] = Mat.rational([[0, -1], [1, -1]])  # order 3
    out = split_framing(SigmaData(d4, rot, maps), sd)
    assert (out["2@1/3"], out["2@2/3"], out["2@3/3"]) == (0, 1, 1)


def test_split_framing_constraint_violation():
    a3 = a_quiver(3)
    sd = split_quiver(a3, flip_automorphism(a3, 3))
    maps = {v: Mat.identity(1) for v in a3.vertices}
    maps["2"] = Mat.rational([[2]])  # (2)^2 != 1
    with pytest.raises(SigmaConstraintViolated):
        split_framing(sigma_from_dict(a3, sd.auto, matmap_to_obj(maps)), sd)


def test_split_framing_slots_fill_the_framing():
    # on random twists of every admissible corpus entry, the eigenvalue
    # slots of each orbit add up to the framing dimension w
    from qfold.generators import random_sigma

    rng = random.Random(48)
    for entry in corpus():
        if not entry.admissible:
            continue
        sd = split_quiver(entry.quiver, entry.auto)
        for _ in range(3):
            w = {}
            for orbit in sd.orbits.vertex_orbits:
                w.update(dict.fromkeys(orbit, rng.randint(0, 3)))
            out = split_framing(random_sigma(rng, entry.quiver, entry.auto, w), sd)
            for orbit, slots in zip(sd.orbits.vertex_orbits, sd.orbit_slots):
                assert sum(out[s] for s in slots) == w[orbit[0]], (entry.name, orbit)


def walked_composite(maps, a, lift):
    """sigma_{a^(d-1)(lift)} ... sigma_{lift}, walked around the orbit."""
    comp = maps[lift]
    vertex = a.vertex_perm[lift]
    while vertex != lift:
        comp = maps[vertex] * comp
        vertex = a.vertex_perm[vertex]
    return comp


def test_split_framing_lift_independence():
    # the eigenvalue dimensions agree at every lift of a swapped orbit, and
    # SigmaData.composite is the walked one at every lift
    d4 = d_quiver(4)
    sd = split_quiver(d4, fork_swap_automorphism(d4, 4))
    from qfold.split_quotient import root_of_unity_eigendims
    maps = {v: Mat.identity(2) for v in d4.vertices}
    maps["3"] = Mat.rational([[1, 1], [0, -1]])
    maps["4"] = maps["3"].inverse()
    sigma = SigmaData(d4, sd.auto, maps)
    od = sd.orbits
    a = sd.auto
    for orbit in od.vertex_orbits:
        e = od.e_vertex[orbit[0]]
        for lift in orbit:
            assert sigma.composite(lift) == walked_composite(sigma.maps, a, lift)
        dims = [root_of_unity_eigendims(walked_composite(sigma.maps, a, lift), e)
                for lift in orbit]
        assert all(d == dims[0] for d in dims)


def test_root_of_unity_eigendims_examples():
    from qfold.split_quotient import root_of_unity_eigendims

    assert root_of_unity_eigendims(Mat.identity(3), 2) == [3, 0]
    assert root_of_unity_eigendims(Mat.rational([[1, 0, 0], [0, -1, 0], [0, 0, -1]]), 2) == [1, 2]
    rot = Mat.rational([[0, -1], [1, -1]])
    assert root_of_unity_eigendims(rot, 3) == [0, 1, 1]
    for mat, e in [(Mat.identity(4), 2), (rot, 3)]:
        assert sum(root_of_unity_eigendims(mat, e)) == mat.rows
    # no finite order: the eigenvalue 2 is no root of unity
    assert root_of_unity_eigendims(Mat.rational([[2]]), 2) == [0, 0]
    # over F_3 the cyclotomic values are taken in the matrix's own field
    assert root_of_unity_eigendims(Mat.identity(2, 3), 1) == [2]
    assert root_of_unity_eigendims(Mat.identity(2, 3).scaled(2), 1) == [0]
    assert root_of_unity_eigendims(Mat.identity(2, 3).scaled(2), 2) == [0, 2]
    # over F_3, Phi_3(1) = 3 = 0: a kernel of dimension 1 is not split by phi(3) = 2
    with pytest.raises(NotDiagonalizableOverCyclotomicEigenvalues,
                       match=r"kernel of Phi_3 has dimension 1, not a multiple of phi\(3\)=2"):
        root_of_unity_eigendims(Mat.identity(1, 3), 3)


def test_affine_split_classifications():
    from qfold.corpus import corpus_entry

    cases = {
        "affineA3-flip": "affine-D4",
        "affineD4-doubleswap": "affine-A3",
        "affineD4-swap": "affine-D6",
        "D4-rot3": "D4",
    }
    for name, want in cases.items():
        entry = corpus_entry(name)
        sd = split_quiver(entry.quiver, entry.auto)
        got = classify_cartan(cartan_from_quiver(sd.split))
        assert str(got) == want, name


def test_split_keeps_parallel_edges():
    aff1 = affine_a_quiver(1)
    sd = split_quiver(aff1, identity_automorphism(aff1))
    assert sd.split == aff1
    assert str(classify_cartan(cartan_from_quiver(sd.split))) == "affine-A1"


def _theta_moves_i(monkeypatch, m, sigma):
    """theta sends I_x to I_x sigma_x^-1 at a(x), inverting sigma_x once at
    each vertex whose I is nonzero and nowhere else; returns that count."""
    from qfold.module_lab import apply_theta

    q, perm = m.quiver, sigma.auto.vertex_perm
    want = {perm[x]: m.I[x] * sigma.maps[x].inverse() for x in q.vertices}
    inverted = []
    inverse = Mat.inverse

    def counted(self):
        inverted.append(id(self))
        return inverse(self)

    with monkeypatch.context() as patch:
        patch.setattr(Mat, "inverse", counted)
        got = apply_theta(m, sigma)
    assert got.I == want
    moved = [id(sigma.maps[x]) for x in q.vertices if not m.I[x].is_zero()]
    assert sorted(inverted) == sorted(moved)
    return len(moved)


def _module_with_i(q, v, w, I, p=0):
    """The module with framing maps I and zero B and J."""
    from qfold.module_lab import FramedModule

    B = {info.key: Mat.zeros(v[info.tgt], v[info.src], p) for info in q.doubled}
    J = {x: Mat.zeros(w[x], v[x], p) for x in q.vertices}
    return FramedModule(q, v, w, B, I, J, signed=False)


def test_theta_inverts_sigma_only_where_i_is_nonzero(monkeypatch):
    # random twists on every corpus entry, D4-rot3's rotation included, move
    # a random I, zero at about a third of the vertices; SigmaData keeps no
    # inverse, so theta inverts what it moves and nothing else
    from qfold.generators import rand_mat, random_sigma
    from qfold.quiver_core import orbit_data

    rng = random.Random(17)
    names, moved, kept = set(), 0, 0
    for entry in corpus():
        q = entry.quiver
        od = orbit_data(q, entry.auto)
        for _ in range(3):
            v, w = {}, {}
            for orbit in od.vertex_orbits:  # per orbit, v in 1..2 and a framing in 0..3
                v.update(dict.fromkeys(orbit, rng.randint(1, 2)))
                w.update(dict.fromkeys(orbit, rng.randint(0, 3)))
            sigma = random_sigma(rng, q, entry.auto, w)
            I = {x: rand_mat(rng, v[x], w[x]) if rng.randrange(3) else Mat.zeros(v[x], w[x])
                 for x in q.vertices}
            n = _theta_moves_i(monkeypatch, _module_with_i(q, v, w, I), sigma)
            moved, kept = moved + n, kept + len(q.vertices) - n
        names.add(entry.name)
    assert "D4-rot3" in names
    assert moved and kept
    # over F_3: the flip of A3 with the order-2 swap at its centre
    a3 = a_quiver(3)
    g = Mat(2, 2, [[1, 1], [0, 1]], 3)
    sigma = SigmaData(a3, flip_automorphism(a3, 3),
                      {"1": g, "2": Mat(2, 2, [[0, 1], [1, 0]], 3), "3": g.inverse()})
    dims = dict.fromkeys(a3.vertices, 2)
    I = {"1": Mat(2, 2, [[1, 2], [0, 1]], 3), "2": Mat(2, 2, [[2, 0], [1, 1]], 3),
         "3": Mat.zeros(2, 2, 3)}
    assert _theta_moves_i(monkeypatch, _module_with_i(a3, dims, dims, I, 3), sigma) == 2


def test_sigma_errors_name_the_singular_map_first():
    a3 = a_quiver(3)
    flip = flip_automorphism(a3, 3)
    maps = {v: Mat.identity(1) for v in a3.vertices}
    # the order-2 composite at 2 fails, the singular sigma at 3 is named
    with pytest.raises(SigmaConstraintViolated, match="sigma at 3 is singular"):
        SigmaData(a3, flip, {**maps, "2": Mat.rational([[3]]),
                             "3": Mat.rational([[0]])}).validate()
    with pytest.raises(SigmaConstraintViolated, match=r"composite at 2\)\^2 is not the identity"):
        SigmaData(a3, flip, {**maps, "2": Mat.rational([[3]])}).validate()
    with pytest.raises(SigmaConstraintViolated, match=r"composite at 1\)\^1 is not the identity"):
        SigmaData(a3, flip, {**maps, "1": Mat.rational([[2]])}).validate()
