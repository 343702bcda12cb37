import pytest
from hypothesis import given, settings, strategies as st

from qfold.errors import (
    AmbiguousEdgeMap,
    IncompatibleWithIncidence,
    NotAPermutation,
)
from qfold.module_lab import doubled_arrows, reverse_key
from qfold.quiver_core import (
    a_quiver,
    affine_a_quiver,
    affine_d_quiver,
    automorphism,
    check_automorphism,
    compose,
    d_quiver,
    derive_edge_perm,
    flip_automorphism,
    fork_swap_automorphism,
    identity_automorphism,
    is_admissible,
    orbit_data,
    quiver,
    quiver_from_json,
    quiver_to_json,
)


def test_doubling_counts():
    assert len(doubled_arrows(a_quiver(2))) == 2
    edgeless = quiver(["a", "b", "c"], [])
    assert doubled_arrows(edgeless) == []
    d4 = doubled_arrows(d_quiver(4))
    assert len(d4) == 6
    by_key = {info.key: info for info in d4}
    for info in d4:
        rev = by_key[reverse_key(info.key)]
        assert reverse_key(rev.key) == info.key
        assert rev.eps == -info.eps and rev.edge == info.edge
        assert (rev.src, rev.tgt) == (info.tgt, info.src)


def test_check_automorphism_flip_and_failures():
    a3 = a_quiver(3)
    flip = flip_automorphism(a3, 3)
    check_automorphism(a3, flip)  # no raise

    from qfold.quiver_core import DiagramAutomorphism

    with pytest.raises(IncompatibleWithIncidence):
        check_automorphism(a3, DiagramAutomorphism(
            {"1": "3", "2": "2", "3": "1"}, {"e1": "e1", "e2": "e2"}, 2))

    with pytest.raises(NotAPermutation):
        check_automorphism(a3, DiagramAutomorphism(
            {"1": "1", "2": "1", "3": "3"}, {"e1": "e1", "e2": "e2"}, 1))

    check_automorphism(a3, identity_automorphism(a3))


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
    assert all(v == 1 for v in od.d_vertex.values())
    assert all(v == 1 for v in od.e_vertex.values())


def test_orbit_data_a3_flip():
    a3 = a_quiver(3)
    od = orbit_data(a3, flip_automorphism(a3, 3))
    assert od.vertex_orbits == (("1", "3"), ("2",))
    assert od.d_vertex == {"1": 2, "3": 2, "2": 1}
    assert od.n == 2
    assert od.e_vertex == {"1": 1, "3": 1, "2": 2}


def test_orbit_data_d4_swap():
    d4 = d_quiver(4)
    od = orbit_data(d4, fork_swap_automorphism(d4, 4))
    assert od.d_vertex == {"1": 1, "2": 1, "3": 2, "4": 2}
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
    text = quiver_to_json(d4, swap)
    q2, a2 = quiver_from_json(text)
    assert q2 == d4
    assert a2.vertex_perm == swap.vertex_perm
    assert a2.edge_perm == swap.edge_perm
    assert quiver_to_json(q2, a2) == text


@settings(max_examples=30, derandomize=True)
@given(st.integers(min_value=1, max_value=8))
def test_flip_is_involution(n):
    q = a_quiver(n)
    flip = flip_automorphism(q, n)
    twice = compose(q, flip, flip)
    assert twice.vertex_perm == {v: v for v in q.vertices}
