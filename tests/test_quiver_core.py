import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from qfold.errors import (
    AmbiguousEdgeMap,
    IncompatibleWithIncidence,
    NotAPermutation,
)
from qfold.corpus import corpus
from qfold.quiver_core import (
    DiagramAutomorphism,
    a_quiver,
    affine_a_quiver,
    affine_d_quiver,
    arrow_transport,
    automorphism,
    check_automorphism,
    d_quiver,
    derive_edge_perm,
    flip_automorphism,
    fork_swap_automorphism,
    identity_automorphism,
    is_admissible,
    orbit_data,
    quiver,
    quiver_from_dict,
    quiver_to_dict,
    reverse_key,
)
from qfold.split_quotient import split_quiver


def test_doubling_counts():
    assert len(a_quiver(2).doubled) == 2
    edgeless = quiver(["a", "b", "c"], [])
    assert edgeless.doubled == ()
    d4 = d_quiver(4).doubled
    assert len(d4) == 6
    by_key = {info.key: info for info in d4}
    for info in d4:
        rev = by_key[reverse_key(info.key)]
        assert reverse_key(rev.key) == info.key
        assert rev.eps == -info.eps and rev.edge == info.edge
        assert (rev.src, rev.tgt) == (info.tgt, info.src)


def test_quiver_indices_follow_the_doubled_arrows():
    for q in (a_quiver(1), d_quiver(4), affine_a_quiver(1), quiver(["x"], [("e", "x", "x")])):
        assert list(q.arrows.values()) == list(q.doubled)
        assert list(q.leaving) == list(q.vertices)
        assert [h for x in q.vertices for h in q.leaving[x]] == sorted(
            q.doubled, key=lambda h: q.vertices.index(h.src))
        assert all(h.src == x for x, hs in q.leaving.items() for h in hs)
        assert q.vertex_set == set(q.vertices)


def test_check_automorphism_flip_and_failures():
    a3 = a_quiver(3)
    flip = flip_automorphism(a3, 3)
    check_automorphism(a3, flip)  # no raise

    with pytest.raises(IncompatibleWithIncidence):
        check_automorphism(a3, DiagramAutomorphism(
            {"1": "3", "2": "2", "3": "1"}, {"e1": "e1", "e2": "e2"}))

    with pytest.raises(NotAPermutation):
        check_automorphism(a3, DiagramAutomorphism(
            {"1": "1", "2": "1", "3": "3"}, {"e1": "e1", "e2": "e2"}))

    check_automorphism(a3, identity_automorphism(a3))


def test_automorphism_refuses_a_map_that_does_not_permute():
    # 3 -> 1 -> 1 never returns to 3; the map is refused, not walked, with
    # the edge map given or left to be derived
    with pytest.raises(NotAPermutation):
        automorphism(a_quiver(3), {"1": "1", "2": "1", "3": "3"}, {"e1": "e1", "e2": "e2"})
    with pytest.raises(NotAPermutation):
        automorphism(a_quiver(3), {"1": "1", "2": "1", "3": "3"})


def test_admissibility_examples():
    for n in (2, 3, 4, 5):
        odd = a_quiver(2 * n - 1)
        assert is_admissible(odd, flip_automorphism(odd, 2 * n - 1))
        even = a_quiver(2 * n)
        assert not is_admissible(even, flip_automorphism(even, 2 * n))
        dn = d_quiver(n)
        assert is_admissible(dn, fork_swap_automorphism(dn, n))


def test_admissible_identity_iff_no_self_loop():
    a3 = a_quiver(3)
    assert is_admissible(a3, identity_automorphism(a3))
    loop = quiver(["x"], [("e", "x", "x")])
    assert not is_admissible(loop, identity_automorphism(loop))


def test_orbit_data_identity():
    d4 = d_quiver(4)
    od = orbit_data(d4, identity_automorphism(d4))
    assert od.n == 1
    assert all(len(orbit) == 1 for orbit in od.vertex_orbits)
    assert all(v == 1 for v in od.e_vertex.values())


def test_orbit_data_a3_flip():
    a3 = a_quiver(3)
    od = orbit_data(a3, flip_automorphism(a3, 3))
    assert od.vertex_orbits == (("1", "3"), ("2",))
    assert {v: len(o) for o in od.vertex_orbits for v in o} == {"1": 2, "3": 2, "2": 1}
    assert od.n == 2
    assert od.e_vertex == {"1": 1, "3": 1, "2": 2}


def test_orbit_data_d4_swap():
    d4 = d_quiver(4)
    od = orbit_data(d4, fork_swap_automorphism(d4, 4))
    assert {v: len(o) for o in od.vertex_orbits for v in o} == {"1": 1, "2": 1, "3": 2, "4": 2}
    assert od.n == 2
    assert od.e_vertex == {"1": 2, "2": 2, "3": 1, "4": 1}


def test_orbit_sums_partition():
    for q, a in [
        (a_quiver(5), flip_automorphism(a_quiver(5), 5)),
        (d_quiver(4), fork_swap_automorphism(d_quiver(4), 4)),
        (affine_a_quiver(3), identity_automorphism(affine_a_quiver(3))),
    ]:
        od = orbit_data(q, a)
        assert sum(len(o) for o in od.vertex_orbits) == len(q.vertices)
        assert sum(len(o) for o in od.edge_orbits) == len(q.edges)


def compose(q, a, b):
    """The automorphism applying b first, then a, checked."""
    return automorphism(q, {v: a.vertex_perm[b.vertex_perm[v]] for v in q.vertices},
                        {e.id: a.edge_perm[b.edge_perm[e.id]] for e in q.edges})


def test_composition_closure():
    a3 = a_quiver(3)
    flip = flip_automorphism(a3, 3)
    squared = compose(a3, flip, flip)
    check_automorphism(a3, squared)
    assert squared.vertex_perm == identity_automorphism(a3).vertex_perm
    d4 = d_quiver(4)
    rot = automorphism(d4, {"1": "3", "3": "4", "4": "1", "2": "2"})
    check_automorphism(d4, compose(d4, rot, rot))


def test_derive_edge_perm_ambiguity():
    aff1 = affine_a_quiver(1)
    with pytest.raises(AmbiguousEdgeMap):
        derive_edge_perm(aff1, {"0": "1", "1": "0"})
    # explicit map works
    a = automorphism(aff1, {"0": "1", "1": "0"}, {"e0": "e1", "e1": "e0"})
    check_automorphism(aff1, a)


def test_affine_families_shape():
    assert len(affine_a_quiver(3).edges) == 4
    assert len(affine_d_quiver(4).edges) == 4
    star = affine_d_quiver(4)
    degree = {v: 0 for v in star.vertices}
    for e in star.edges:
        degree[e.src] += 1
        degree[e.tgt] += 1
    assert sorted(degree.values()) == [1, 1, 1, 1, 4]


def test_json_round_trip():
    d4 = d_quiver(4)
    swap = fork_swap_automorphism(d4, 4)
    text = json.dumps(quiver_to_dict(d4, swap), sort_keys=True)
    q2, a2 = quiver_from_dict(json.loads(text))
    assert q2 == d4
    assert a2.vertex_perm == swap.vertex_perm
    assert a2.edge_perm == swap.edge_perm
    assert json.dumps(quiver_to_dict(q2, a2), sort_keys=True) == text


@settings(max_examples=30, derandomize=True)
@given(st.integers(min_value=1, max_value=8))
def test_flip_is_involution(n):
    q = a_quiver(n)
    flip = flip_automorphism(q, n)
    twice = compose(q, flip, flip)
    assert twice.vertex_perm == {v: v for v in q.vertices}


# ---------------------------------------------------------------------------
# index_isomorphisms against the two searches it replaced
# ---------------------------------------------------------------------------

def oracle_adjacency(q):
    adj = {v: {} for v in q.vertices}
    for e in q.edges:
        adj[e.src][e.tgt] = adj[e.src].get(e.tgt, 0) + 1
        if e.src != e.tgt:
            adj[e.tgt][e.src] = adj[e.tgt].get(e.src, 0) + 1
    return adj


def oracle_graph_isomorphisms(q1, q2):
    """The former diagram search: degree-ordered backtracking over
    dict-of-dict adjacency counts."""
    if len(q1.vertices) != len(q2.vertices) or len(q1.edges) != len(q2.edges):
        return
    adj1, adj2 = oracle_adjacency(q1), oracle_adjacency(q2)
    deg1 = {v: sum(adj1[v].values()) for v in q1.vertices}
    deg2 = {v: sum(adj2[v].values()) for v in q2.vertices}
    if sorted(deg1.values()) != sorted(deg2.values()):
        return
    order = sorted(q1.vertices, key=lambda v: -deg1[v])
    mapping, used = {}, set()

    def extend(k):
        if k == len(order):
            yield dict(mapping)
            return
        v = order[k]
        for w in q2.vertices:
            if w in used or deg1[v] != deg2[w]:
                continue
            ok = adj1[v].get(v, 0) == adj2[w].get(w, 0)
            if ok:
                for u, mult in adj1[v].items():
                    if u in mapping and adj2[w].get(mapping[u], 0) != mult:
                        ok = False
                        break
            if ok:
                mapping[v] = w
                used.add(w)
                yield from extend(k + 1)
                del mapping[v]
                used.discard(w)

    yield from extend(0)


def oracle_permutation_match(c, target):
    """The former Cartan search: is there an index bijection carrying c
    onto target exactly?"""
    n = c.n
    if target.n != n:
        return False

    def row_profile(m, i):
        return sorted((m[i, j], m[j, i]) for j in range(m.n) if j != i and m[i, j] != 0)

    prof_c = [row_profile(c, i) for i in range(n)]
    prof_t = [row_profile(target, i) for i in range(n)]
    if sorted(map(tuple, prof_c)) != sorted(map(tuple, prof_t)):
        return False
    assign, used = {}, set()

    def extend(i):
        if i == n:
            return True
        for t in range(n):
            if t in used or prof_c[i] != prof_t[t]:
                continue
            if all(c[i, k] == target[t, tk] and c[k, i] == target[tk, t]
                   for k, tk in assign.items()):
                assign[i] = t
                used.add(t)
                if extend(i + 1):
                    return True
                del assign[i]
                used.discard(t)
        return False

    return extend(0)


def random_multigraph(rng, n):
    edges = [(f"e{k}", str(rng.randrange(n)), str(rng.randrange(n)))
             for k in range(rng.randint(0, n + 3))]
    return quiver([str(i) for i in range(n)], edges)


def relabelled(rng, q):
    """The same diagram with shuffled vertex names, edge ids, edge order and
    edge directions."""
    names = list(q.vertices)
    rng.shuffle(names)
    rename = dict(zip(q.vertices, (f"v{x}" for x in names)))
    edges = [(f"f{e.id}", rename[e.src], rename[e.tgt]) if rng.random() < 0.5
             else (f"f{e.id}", rename[e.tgt], rename[e.src]) for e in q.edges]
    rng.shuffle(edges)
    vertices = list(rename.values())
    rng.shuffle(vertices)
    return quiver(vertices, edges)


def test_graph_isomorphisms_match_the_former_search():
    from iso_oracle import graph_isomorphisms

    rng = random.Random(10)
    found = 0
    for trial in range(2000):
        n = rng.randint(1, 6)
        q1 = random_multigraph(rng, n)
        q2 = relabelled(rng, q1) if trial % 2 else random_multigraph(rng, n)
        got = [tuple(sorted(iso.items())) for iso in graph_isomorphisms(q1, q2)]
        want = {tuple(sorted(iso.items())) for iso in oracle_graph_isomorphisms(q1, q2)}
        assert len(got) == len(set(got)) and set(got) == want, (q1, q2)
        assert bool(want) or trial % 2 == 0
        found += bool(want)
    assert found > 1000


def shuffled(rng, entries):
    n = len(entries)
    s = list(range(n))
    rng.shuffle(s)
    return tuple(tuple(entries[s[i]][s[j]] for j in range(n)) for i in range(n))


def test_index_isomorphisms_match_the_former_cartan_search():
    from cartan_oracle import affine_targets, finite_targets
    from iso_oracle import index_isomorphisms

    from qfold.lie_fold import cartan_matrix

    targets = {n: [c for _family, c in finite_targets(n) + affine_targets(n)]
               for n in range(1, 9)}
    rng = random.Random(4)
    compared = agreed = 0
    for n, cs in targets.items():
        for c in cs:
            for _ in range(4):
                mixed = cartan_matrix(shuffled(rng, c.entries))
                for target in targets[n]:
                    isos = list(index_isomorphisms(mixed.entries, target.entries))
                    assert bool(isos) == oracle_permutation_match(mixed, target)
                    for p in isos:
                        assert all(mixed[i, j] == target[p[i], p[j]]
                                   for i in range(n) for j in range(n))
                    if n <= 5:
                        brute = {p for p in itertools.permutations(range(n))
                                 if all(mixed[i, j] == target[p[i], p[j]]
                                        for i in range(n) for j in range(n))}
                        assert set(isos) == brute and len(isos) == len(brute)
                    compared += 1
                    agreed += bool(isos)
    assert compared > 1000 and agreed > 100


def test_index_isomorphisms_on_asymmetric_matrices():
    # every bijection, each exactly once, where a[i][j] != a[j][i]: b is a
    # shuffled copy of a, with two entry pairs transposed in every other trial
    from iso_oracle import index_isomorphisms

    rng = random.Random(12)
    hits = 0
    for trial in range(600):
        n = rng.randint(1, 6)
        values = rng.choice([(0, 0, -1, -2), (0, 1), (0, 1, 2), (1, 2)])
        a = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
        b = [row[:] for row in a]
        for _ in range(2 * (trial % 2) if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            b[i][j], b[j][i] = b[j][i], b[i][j]
        b = shuffled(rng, b)
        got = list(index_isomorphisms(a, b))
        brute = {p for p in itertools.permutations(range(n))
                 if all(a[i][j] == b[p[i]][p[j]] for i in range(n) for j in range(n))}
        assert len(got) == len(set(got)) and set(got) == brute, (a, b)
        hits += bool(brute)
    assert hits >= 300


def test_index_search_budget(monkeypatch):
    """Every corpus diagram and Cartan matrix, and E6, E7, E8 and F4, stay
    under the index search's cap with room to spare; a cap one below a
    search's estimate refuses it before it starts, stating both."""
    import iso_oracle
    from iso_oracle import INDEX_SEARCH_CAP, index_isomorphisms

    from qfold.corpus import corpus
    from qfold.errors import TooLarge
    from qfold.lie_fold import canonical_cartan, cartan_from_quiver, fold_cartan
    from qfold.split_quotient import quotient_quiver, split_quiver

    def adjacency(q):
        return [[oracle_adjacency(q)[v].get(w, 0) for w in q.vertices] for v in q.vertices]

    def refusal(m, cap):
        monkeypatch.setattr(iso_oracle, "INDEX_SEARCH_CAP", cap)
        with pytest.raises(TooLarge) as info:
            next(index_isomorphisms(m, m))
        monkeypatch.setattr(iso_oracle, "INDEX_SEARCH_CAP", INDEX_SEARCH_CAP)
        return info.value

    def estimate(m):
        error = refusal(m, 0)
        assert error.context["cap"] == 0
        return error.context["estimate"]

    matrices = {}
    for entry in corpus():
        q, a = entry.quiver, entry.auto
        matrices[entry.name] = adjacency(q)
        matrices[entry.name + " Cartan"] = cartan_from_quiver(q).entries
        if is_admissible(q, a):
            matrices[entry.name + " split"] = adjacency(split_quiver(q, a).split)
            matrices[entry.name + " quotient"] = adjacency(quotient_quiver(q, a))
            matrices[entry.name + " folded"] = fold_cartan(cartan_from_quiver(q), a).folded.entries
    for family, n in [("E", 6), ("E", 7), ("E", 8), ("F", 4)]:
        matrices[f"{family}{n}"] = canonical_cartan(family, n).entries
    estimates = {name: estimate(m) for name, m in matrices.items()}
    assert all(1 <= e <= INDEX_SEARCH_CAP // 1000 for e in estimates.values()), estimates
    for name, m in matrices.items():  # the estimate bounds the bijections found
        assert 1 <= len(list(index_isomorphisms(m, m))) <= estimates[name], name

    # the affine A3 cycle of the corpus: its estimate is the cap it needs
    cycle = matrices["affineA3-rot"]
    need = estimates["affineA3-rot"]
    monkeypatch.setattr(iso_oracle, "INDEX_SEARCH_CAP", need)
    assert len(list(index_isomorphisms(cycle, cycle))) == 8
    error = refusal(cycle, need - 1)
    assert error.context == {"estimate": need, "cap": need - 1}
    assert f"{need} assignments" in str(error) and f"cap of {need - 1}" in str(error)

    # with no links the estimate is the number of bijections
    for n in range(6):
        assert estimate([[0] * n for _ in range(n)]) == math.factorial(n)


@pytest.mark.parametrize("label", ["A30", "D30", "affine-A30"])
def test_long_chains_and_cycles_stay_under_the_index_budget(label):
    """A path, a forked path and a cycle of rank about 30 stay under the
    index search's budget, since an index linked to a placed one has at
    most the links left free; and each is classified by its diagram."""
    from iso_oracle import index_isomorphisms

    from qfold.lie_fold import canonical_cartan, cartan_from_quiver, classify_cartan

    if label.startswith("affine"):
        c = cartan_from_quiver(affine_a_quiver(30))
    else:
        c = canonical_cartan(label[0], 30)
    assert next(index_isomorphisms(c.entries, c.entries), None) is not None
    assert str(classify_cartan(c)) == label


# ---------------------------------------------------------------------------
# the per-pair caches of orbit_data and arrow_transport
# ---------------------------------------------------------------------------

def test_pair_caches_match_the_uncached_computation():
    """The uncached functions stay as the oracle: on every corpus entry, and
    on its split quiver with the induced automorphism where it has one, the
    cached orbit data and arrow transport equal a fresh computation."""
    split = 0
    for entry in corpus():
        pairs = [(entry.quiver, entry.auto)]
        if is_admissible(entry.quiver, entry.auto):
            sd = split_quiver(entry.quiver, entry.auto)
            pairs.append((sd.split, sd.induced))
            split += 1
        for q, a in pairs:
            assert orbit_data(q, a) == orbit_data.__wrapped__(q, a), entry.name
            assert arrow_transport(q, a) == arrow_transport.__wrapped__(q, a), entry.name
    assert split >= 10


def test_value_equal_pairs_share_one_cached_entry():
    q1, q2 = d_quiver(4), d_quiver(4)
    a1, a2 = fork_swap_automorphism(q1, 4), fork_swap_automorphism(q2, 4)
    assert q1 is not q2 and a1 is not a2
    assert orbit_data(q1, a1) is orbit_data(q2, a2)
    assert arrow_transport(q1, a1) is arrow_transport(q2, a2)
    # equal by value whatever the order the maps were written in
    a3 = a_quiver(3)
    forward = DiagramAutomorphism({"1": "3", "2": "2", "3": "1"}, {"e1": "e2", "e2": "e1"})
    backward = DiagramAutomorphism({"3": "1", "2": "2", "1": "3"}, {"e2": "e1", "e1": "e2"})
    assert forward == backward and hash(forward) == hash(backward)
    assert forward == flip_automorphism(a3, 3) and hash(forward) == hash(flip_automorphism(a3, 3))
    assert forward != identity_automorphism(a3)


def test_shared_values_are_read_only():
    a3 = a_quiver(3)
    vperm = {"1": "3", "2": "2", "3": "1"}
    flip = automorphism(a3, vperm)
    vperm["2"] = "3"  # the automorphism keeps its own copy
    assert flip.vertex_perm["2"] == "2"
    with pytest.raises(TypeError):
        flip.vertex_perm["2"] = "3"
    with pytest.raises(TypeError):
        flip.edge_perm["e1"] = "e1"
    od = orbit_data(a3, flip)
    for mapping in (od.e_vertex, od.e_edge, od.orbit_of_vertex):
        with pytest.raises(TypeError):
            mapping["2"] = 0
    transport = arrow_transport(a3, flip)
    for mapping in (transport.image, transport.sign):
        with pytest.raises(TypeError):
            mapping["e1"] = "e1"
    for mapping in (a3.arrows, a3.leaving):
        with pytest.raises(TypeError):
            mapping["1"] = ()
