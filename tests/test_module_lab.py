import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

import qfold
from qfold import module_lab, split_quotient
from qfold.cli import main
from qfold.corpus import corpus
from qfold.errors import (
    MixedCharacteristics,
    NotInvertible,
    NotStable,
    PreconditionViolation,
    SigmaConstraintViolated,
    TooLarge,
    WitnessVerificationFailed,
)
from qfold.generators import (
    rand_invertible,
    rand_mat,
    random_graded_pair,
    random_one_way_module,
    random_orbit_constant_dims,
    random_sigma,
    random_theta_module,
)
from qfold.linalg import Mat, column_space_contains
from qfold.numberfield import companion, factor_rational_poly, poly_str
from qfold.module_lab import (
    EigenInclusionReport,
    _eigen_counterexample,
    FramedModule,
    RelationReport,
    SigmaData,
    TransitionWitness,
    _all_subspace_bases,
    act,
    apply_theta,
    brute_stability,
    build_theta_witness,
    check_framed_embedding,
    check_relations,
    direct_sum,
    eigen_profile,
    eigenvector_span,
    find_transition,
    framed_module,
    is_stable,
    star,
    theorem5_verify,
    verify_transition,
    witness_matrix,
)
from qfold.serialize import (
    matmap_to_obj,
    module_to_dict,
    sigma_from_dict,
    sigma_to_dict,
    witness_to_dict,
)
from qfold.quiver_core import (
    a_quiver,
    arrow_transport,
    automorphism,
    d_quiver,
    flip_automorphism,
    fork_swap_automorphism,
    identity_automorphism,
    invariant_orientation,
    orbit_data,
    quiver,
    quiver_to_dict,
    reverse_key,
)
from qfold.split_quotient import identity_sigma

from numberfield_oracle import (
    NumberField,
    apply,
    columns,
    eigen_counterexample,
    element,
    nullspace,
    residue,
    rows_over,
    shifted,
)


def orbit_constant_dims(rng, od, lo, hi):
    """One dimension in lo..hi per vertex orbit of od."""
    out = {}
    for orbit in od.vertex_orbits:
        out.update(dict.fromkeys(orbit, rng.randint(lo, hi)))
    return out


def theta_module(rng, q, a, max_dim=2, p=None):
    """A random relation-exact module with orbit-constant dimensions in
    0..max_dim and a valid twist: over F_p with the identity twist, over Q
    with a random one as `random_theta_module` draws it."""
    od = orbit_data(q, a)
    v = orbit_constant_dims(rng, od, 0, max_dim)
    w = orbit_constant_dims(rng, od, 0, max_dim)
    signed = arrow_transport(q, a).sign is not None
    m = random_one_way_module(rng, q, v, w, p=p, signed=signed)
    if p is None:
        return m, random_sigma(rng, q, a, w)
    return m, SigmaData(q, a, {x: Mat.identity(w[x], p) for x in q.vertices})


A1 = a_quiver(1)
A3 = a_quiver(3)
FLIP = flip_automorphism(A3, 3)


def one_dim(vals):
    return {k: Mat.rational([[v]]) for k, v in vals.items()}


def test_relations_trivial_cases():
    zero = framed_module(A3, {v: 1 for v in A3.vertices}, {v: 1 for v in A3.vertices})
    assert check_relations(zero).ok

    ok = framed_module(A1, {"1": 1}, {"1": 1},
                       I=one_dim({"1": 1}), J=one_dim({"1": 0}))
    assert check_relations(ok).ok

    bad = framed_module(A1, {"1": 1}, {"1": 1},
                        I=one_dim({"1": 1}), J=one_dim({"1": 1}))
    report = check_relations(bad)
    assert not report.ok and report.vertex == "1"


def test_matrices_over_two_fields_are_refused_where_they_enter():
    # B over F_3 and J over Q: framed_module names both before it fills any
    # zeros, so no relation check ever meets the two fields
    with pytest.raises(MixedCharacteristics, match=r"^J\[1\] lies over Q, but B\[e1\] over F_3$"):
        framed_module(a_quiver(2), {"1": 1, "2": 1}, {"1": 1, "2": 1},
                      B={"e1": Mat(1, 1, [[1]], 3)},
                      J={"1": Mat.identity(1), "2": Mat.identity(1)})


def test_relation_signs_cancel_commutator():
    # B along e1 and back with I J = 0 must cancel in signed mode:
    # +B_rev B_fwd at the source, -B_fwd B_rev at the target
    a2 = a_quiver(2)
    m = framed_module(
        a2, {"1": 1, "2": 1}, {"1": 0, "2": 0},
        B={"e1": Mat.rational([[2]]), "e1*": Mat.rational([[3]])})
    rep = check_relations(m)
    assert not rep.ok  # 2*3 does not vanish at either vertex
    m2 = framed_module(
        a2, {"1": 1, "2": 1}, {"1": 1, "2": 1},
        B={"e1": Mat.rational([[2]]), "e1*": Mat.rational([[3]])},
        I=one_dim({"1": -6, "2": 1}), J=one_dim({"1": 1, "2": 6}))
    assert check_relations(m2).ok


def test_stability_j_injective_and_zero():
    m = framed_module(A3, {v: 1 for v in A3.vertices}, {v: 1 for v in A3.vertices},
                      J=one_dim({"1": 1, "2": 1, "3": 1}))
    assert is_stable(m)
    zero_j = framed_module(A3, {v: 1 for v in A3.vertices}, {v: 1 for v in A3.vertices})
    assert not is_stable(zero_j)


def test_stability_needs_escape_route():
    # ker J is the third vertex; the only escape is the arrow into vertex 2
    m = framed_module(
        A3, {v: 1 for v in A3.vertices}, {v: 1 for v in A3.vertices},
        B={"e2*": Mat.rational([[1]])},
        J=one_dim({"1": 1, "2": 1, "3": 0}))
    assert is_stable(m)
    trapped = framed_module(
        A3, {v: 1 for v in A3.vertices}, {v: 1 for v in A3.vertices},
        J=one_dim({"1": 1, "2": 1, "3": 0}))
    assert not is_stable(trapped)


def test_brute_stability_matches_exact():
    rng = random.Random(42)
    quivers = [a_quiver(2), A3, d_quiver(4)]
    for trial in range(60):
        q = quivers[trial % 3]
        p = (2, 3)[trial % 2]
        v = {x: rng.randint(0, 2) for x in q.vertices}
        w = {x: rng.randint(0, 2) for x in q.vertices}
        m = random_one_way_module(rng, q, v, w, p=p)
        assert is_stable(m) == brute_stability(m)


def brute_stability_oracle(m):
    """`brute_stability` as it was before its ker J filter: every
    combination of graded subspaces, with J_x S_x decided inside the loop."""
    p = m.J[m.quiver.vertices[0]].p
    per_vertex = [_all_subspace_bases(m.v.get(x, 0), p) for x in m.quiver.vertices]
    for combo in itertools.product(*per_vertex):
        spaces = dict(zip(m.quiver.vertices, combo))
        if all(b.cols == 0 for b in spaces.values()):
            continue
        if any((m.J[x] * spaces[x]).rank() for x in m.quiver.vertices):
            continue
        if all(column_space_contains(spaces[info.tgt], m.B[info.key] * spaces[info.src])
               for info in m.quiver.doubled):
            return False
    return True


def test_brute_stability_matches_the_unfiltered_oracle():
    """Seeded draws over F_2 and F_3 with B random on every doubled arrow
    (no relation needed) and J of every rank, small J too, so that both
    verdicts come out and the filter drops subspaces."""
    rng = random.Random(61)
    quivers = [a_quiver(2), A3, d_quiver(4)]
    verdicts = set()
    for trial in range(90):
        q = quivers[trial % 3]
        p = (2, 3)[trial % 2]
        v = {x: rng.randint(0, 2) for x in q.vertices}
        w = {x: rng.randint(0, 2) for x in q.vertices}
        m = framed_module(q, v, w,
                          B={info.key: rand_mat(rng, v[info.tgt], v[info.src], p)
                             for info in q.doubled if rng.random() < 0.5},
                          J={x: rand_mat(rng, w[x], v[x], p) for x in q.vertices})
        verdict = brute_stability(m)
        assert verdict == brute_stability_oracle(m), trial
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_brute_stability_on_a_quiver_with_no_vertices():
    empty = framed_module(quiver([], []), {}, {})
    assert brute_stability(empty) is True
    assert is_stable(empty)


def test_brute_stability_guards():
    m = framed_module(A1, {"1": 1}, {"1": 1}, J=one_dim({"1": 1}))
    with pytest.raises(TooLarge):
        brute_stability(m)  # rational field refused
    rng = random.Random(0)
    big = random_one_way_module(rng, A1, {"1": 5}, {"1": 5}, p=2)
    with pytest.raises(TooLarge):
        brute_stability(big)


def test_apply_theta_identity_and_order():
    sig = identity_sigma(A3, identity_automorphism(A3), {v: 1 for v in A3.vertices})
    m = framed_module(A3, {v: 1 for v in A3.vertices}, {v: 1 for v in A3.vertices},
                      J=one_dim({"1": 1, "2": 2, "3": 3}))
    assert apply_theta(m, sig) == m


def test_apply_theta_hand_transport():
    # two-arrow module on the path; the flip carries e1-forward to
    # e2-backward with no sign, and e1-backward to e2-forward with a sign
    v = {x: 1 for x in A3.vertices}
    w = {x: 1 for x in A3.vertices}
    sig = identity_sigma(A3, FLIP, w)
    m = framed_module(A3, v, w, B={"e1": Mat.rational([[5]]),
                                   "e2": Mat.rational([[7]])},
                      J=one_dim({"1": 0, "2": 0, "3": 0}),
                      I=one_dim({"1": 0, "2": 0, "3": 0}))
    out = apply_theta(m, sig)
    assert out.B["e2*"] == Mat.rational([[5]])
    assert out.B["e1*"] == Mat.rational([[-7]])
    # the signs sit on the arrows against the invariant orientation, and
    # cancel pairwise so the signed relation is preserved
    m2 = framed_module(A3, v, w, B={"e1*": Mat.rational([[5]])})
    out2 = apply_theta(m2, sig)
    assert out2.B["e2"] == Mat.rational([[-5]])
    assert apply_theta(out2, sig) == m2


def test_theta_order_on_sample():
    rng = random.Random(3)
    for q, a in [(A3, FLIP),
                 (d_quiver(4), fork_swap_automorphism(d_quiver(4), 4)),
                 (d_quiver(4), automorphism(d_quiver(4), {"1": "3", "3": "4", "4": "1", "2": "2"}))]:
        od = orbit_data(q, a)
        for p in [None] * 10 + [2, 3]:  # F_p modules come with an F_p identity twist
            m, sig = theta_module(rng, q, a, p=p)
            cur = m
            for _ in range(od.n):
                cur = apply_theta(cur, sig)
            assert cur == m


def test_theta_preserves_relations_and_stability():
    rng = random.Random(9)
    for _ in range(20):
        m, sig = random_theta_module(rng, A3, FLIP)
        out = apply_theta(m, sig)
        assert check_relations(out).ok
        assert is_stable(out) == is_stable(m)


def test_sigma_constraint_checked():
    # a bad sigma is refused by the entry check, run directly or by the JSON reader
    ok = {v: Mat.identity(1) for v in A3.vertices}
    bad_cases = [
        {**ok, "2": Mat.rational([[3]])},                 # 3^2 != 1 at the fixed vertex
        {**ok, "2": Mat.rational([[0]])},                 # singular
        {"1": ok["1"], "2": ok["2"]},                     # missing vertex 3
        {**ok, "1": Mat.identity(2)},                     # 2x2 into a 1-dim W_3
        {**ok, "1": Mat.rational([[2]]), "3": Mat.rational([[1]])},  # composite 2 != 1
        # 2x1 and 1x2 maps with w = (1, 1, 2): shapes chain, but not square
        {"1": Mat.rational([[1], [0]]), "2": ok["2"], "3": Mat.rational([[1, 0]])},
    ]
    for maps in bad_cases:
        with pytest.raises(SigmaConstraintViolated):
            SigmaData(A3, FLIP, maps).validate()
        with pytest.raises(SigmaConstraintViolated):
            sigma_from_dict(A3, FLIP, matmap_to_obj(maps))


def test_no_invariant_orientation_for_reversed_edge():
    a4 = a_quiver(4)
    flip4 = flip_automorphism(a4, 4)
    assert invariant_orientation(a4, flip4) is None
    v = {x: 1 for x in a4.vertices}
    w = dict(v)
    m = framed_module(a4, v, w)
    with pytest.raises(PreconditionViolation):
        apply_theta(m, identity_sigma(a4, flip4, w))
    unsigned = framed_module(a4, v, w, signed=False)
    sig = identity_sigma(a4, flip4, w)
    assert apply_theta(apply_theta(unsigned, sig), sig) == unsigned


class Arrow(NamedTuple):
    """Oracle model of a doubled-quiver arrow: an edge taken forwards or
    backwards."""

    edge: str
    eps: int  # +1 along the edge's direction, -1 reversed


def orientation_sign(q, a, edge_id):
    """+1 if a maps the edge preserving its direction, -1 if it reverses it."""
    e = q.edge(edge_id)
    return 1 if q.edge(a.edge_perm[edge_id]).src == a.vertex_perm[e.src] else -1


def arrow_image(q, a, arrow):
    return Arrow(a.edge_perm[arrow.edge], arrow.eps * orientation_sign(q, a, arrow.edge))


def arrow_key(arrow):
    return arrow.edge if arrow.eps == 1 else arrow.edge + "*"


def oracle_orientation(q, a):
    """The invariant orientation, walked one edge orbit at a time."""
    orient = {}
    for orbit in orbit_data(q, a).edge_orbits:
        rep = orbit[0]
        orient[rep] = 1
        e, sign = rep, 1
        for _ in range(len(orbit)):
            nxt = a.edge_perm[e]
            sign *= orientation_sign(q, a, e)
            if nxt == rep:
                if sign != 1:
                    return None
                break
            orient[nxt] = sign
            e = nxt
    return orient


def oracle_transport(q, a, orient):
    """Arrow images and transport signs, arrow by arrow: the sign of h is
    c1(h) c1(a(h)), with c1 = -1 exactly on the forward arrows of edges
    against the invariant orientation."""
    def c1(key):
        return 1 if key.endswith("*") else orient[key]

    images, signs = {}, {}
    for info in q.doubled:
        arrow = Arrow(info.edge, info.eps)
        image = arrow_key(arrow_image(q, a, arrow))
        images[info.key] = image
        if orient is not None:
            signs[info.key] = c1(info.key) * c1(image)
    return images, signs if orient is not None else None


def oracle_theta(m, a, sigma):
    """The transport of m along a, with the images and signs of the oracle;
    None when m is signed and no invariant orientation exists."""
    q = m.quiver
    orient = oracle_orientation(q, a) if m.signed else {e.id: 1 for e in q.edges}
    if orient is None:
        return None
    images, signs = oracle_transport(q, a, orient)
    B = {images[k]: m.B[k] if signs[k] == 1 else -m.B[k] for k in images}
    I = {a.vertex_perm[x]: m.I[x] * sigma.maps[x].inverse() for x in q.vertices}
    J = {a.vertex_perm[x]: sigma.maps[x] * m.J[x] for x in q.vertices}
    return FramedModule(q, dict(m.v), dict(m.w), B, I, J, m.signed)


def test_arrow_transport_matches_the_arrow_oracle():
    """Over every corpus entry, the images and signs of arrow_transport and
    the modules apply_theta builds from them agree with the per-arrow
    oracle, for signed and unsigned modules over Q and F_3, with every
    arrow carrying a matrix.  Entries without an invariant orientation
    (the even path flips) have no signs and refuse a signed module."""
    rng = random.Random(17)
    without_orientation = []
    for entry in corpus():
        q, a = entry.quiver, entry.auto
        orient = oracle_orientation(q, a)
        images, signs = oracle_transport(q, a, orient)
        od = orbit_data(q, a)
        transport = arrow_transport(q, a)
        assert transport.image == images and transport.sign == signs, entry.name
        if orient is None:
            without_orientation.append(entry.name)
        for p in (None, 3):
            v = orbit_constant_dims(rng, od, 1, 2)
            w = random_orbit_constant_dims(rng, od)
            if p is None:
                sigma = random_sigma(rng, q, a, w)
            else:
                sigma = SigmaData(q, a, {x: Mat.identity(w[x], p) for x in q.vertices})
            B = {info.key: rand_mat(rng, v[info.tgt], v[info.src], p=p)
                 for info in q.doubled}
            I = {x: rand_mat(rng, v[x], w[x], p=p) for x in q.vertices}
            J = {x: rand_mat(rng, w[x], v[x], p=p) for x in q.vertices}
            for signed in (True, False):
                m = framed_module(q, v, w, B=B, I=I, J=J, signed=signed)
                want = oracle_theta(m, a, sigma)
                if want is None:
                    with pytest.raises(PreconditionViolation):
                        apply_theta(m, sigma)
                else:
                    assert apply_theta(m, sigma) == want, (entry.name, p, signed)
    assert {"A4-flip", "A6-flip", "A8-flip"} <= set(without_orientation)


def test_apply_theta_reads_the_automorphism_off_sigma():
    # sigma_1 = 2, sigma_2 = 1, sigma_3 = 1/2 is a twist for the flip only:
    # transported along the flip, two steps return the module
    maps = {"1": Mat.rational([[2]]), "2": Mat.rational([[1]]),
            "3": Mat.rational([[Fraction(1, 2)]])}
    sigma = SigmaData(A3, FLIP, maps)
    ones = {x: 1 for x in A3.vertices}
    m = framed_module(A3, ones, ones, B={"e1": Mat.rational([[5]]), "e2": Mat.rational([[7]])},
                      J=one_dim({"1": 1, "2": 3, "3": 0}))
    once = apply_theta(m, sigma)
    assert once != m
    assert once.J["3"] == Mat.rational([[2]]) and once.B["e2*"] == Mat.rational([[5]])
    assert apply_theta(once, sigma) == m


def stable_asymmetric_module():
    return framed_module(
        A3, {v: 1 for v in A3.vertices}, {v: 1 for v in A3.vertices},
        B={"e2*": Mat.rational([[1]])},
        J=one_dim({"1": 1, "2": 1, "3": 0}))


def test_find_transition_identity_and_absent():
    w = {v: 1 for v in A3.vertices}
    ident = identity_automorphism(A3)
    m = framed_module(A3, {v: 1 for v in A3.vertices}, w, J=one_dim({"1": 1, "2": 1, "3": 1}))
    witness = find_transition(m, identity_sigma(A3, ident, w))
    assert witness is not None
    assert all(witness.g[x] == Mat.identity(1) for x in A3.vertices)

    m1 = stable_asymmetric_module()
    assert find_transition(m1, identity_sigma(A3, FLIP, w)) is None


def test_find_transition_refuses_unstable():
    w = {v: 1 for v in A3.vertices}
    unstable = framed_module(A3, {v: 1 for v in A3.vertices}, w)
    with pytest.raises(NotStable):
        find_transition(unstable, identity_sigma(A3, FLIP, w))


def test_find_transition_matches_generated_witness():
    rng = random.Random(31)
    for _ in range(5):
        _xi, _msub, m, sig, _wsub, wit = random_graded_pair(rng, A3, FLIP)
        found = find_transition(m, sig)
        assert found is not None
        assert all(found.g[x] == wit.g[x] for x in A3.vertices)


def test_find_transition_i_equation_decided_by_verification():
    # J alone fixes g_2 = 1; only g I = theta(I) tells the two twists apart
    v = {"1": 0, "2": 1, "3": 0}
    w = {"1": 0, "2": 2, "3": 0}
    m = framed_module(A3, v, w, I={"2": Mat.rational([[0, 1]])},
                      J={"2": Mat.rational([[1], [0]])})
    assert is_stable(m)
    empty = Mat.zeros(0, 0)
    sign = SigmaData(A3, FLIP, {"1": empty, "2": Mat.rational([[1, 0], [0, -1]]), "3": empty})
    assert find_transition(m, sign) is None
    found = find_transition(m, identity_sigma(A3, FLIP, w))
    assert found is not None and found.g["2"] == Mat.identity(1)


def test_find_transition_reduces_once(monkeypatch):
    # one reduction of the path rows decides stability, B, J and
    # invertibility: no stability pass before it, no module-map check after
    import qfold.module_lab as lab

    calls = {}

    def count(name):
        original = getattr(lab, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(lab, name, counted)

    _xi, _msub, m, sigma, _wsub, _wit = random_graded_pair(random.Random(7), A3, FLIP)
    for name in ("_path_rows", "is_stable", "check_framed_embedding"):
        count(name)
    assert find_transition(m, sigma) is not None
    assert calls == {"_path_rows": 1}


def global_intertwiner(m, sigma):
    """Oracle for find_transition: the theta(B) g = g B, g I = theta(I) and
    theta(J) g = J equations as one dense system in the sum of v_x^2
    entries of g, solved at once; its solution must be unique."""
    q = m.quiver
    theta_m = apply_theta(m, sigma)
    p = m.J[q.vertices[0]].p
    offsets = {}
    total = 0
    for x in q.vertices:
        offsets[x] = total
        total += m.v.get(x, 0) ** 2

    def g_entry(vertex, r, c):
        return offsets[vertex] + r * m.v.get(vertex, 0) + c

    rows, rhs = [], []
    for info in q.doubled:
        tb, b = theta_m.B[info.key], m.B[info.key]
        nt, ns = m.v.get(info.tgt, 0), m.v.get(info.src, 0)
        for r in range(nt):
            for c in range(ns):
                row = [0] * total
                for k in range(ns):
                    row[g_entry(info.src, k, c)] += element(tb[r, k])
                for k in range(nt):
                    row[g_entry(info.tgt, r, k)] -= element(b[k, c])
                rows.append(row)
                rhs.append(0)
    for x in q.vertices:
        nv, nw = m.v.get(x, 0), m.w.get(x, 0)
        for r in range(nv):
            for c in range(nw):
                row = [0] * total
                for k in range(nv):
                    row[g_entry(x, r, k)] += element(m.I[x][k, c])
                rows.append(row)
                rhs.append(theta_m.I[x][r, c])
        for r in range(nw):
            for c in range(nv):
                row = [0] * total
                for k in range(nv):
                    row[g_entry(x, k, c)] += element(theta_m.J[x][r, k])
                rows.append(row)
                rhs.append(m.J[x][r, c])

    rows = [[residue(x) for x in row] for row in rows]
    rhs = [residue(x) for x in rhs]
    system = Mat(len(rows), total, rows, p)
    sol = system.solve(Mat(len(rhs), 1, [[x] for x in rhs], p))
    if sol is None:
        return None
    assert system.nullity() == 0
    g = {}
    for x in q.vertices:
        n = m.v.get(x, 0)
        g[x] = Mat(n, n, [[residue(sol[offsets[x] + r * n + c, 0]) for c in range(n)]
                          for r in range(n)], p)
        assert n == 0 or g[x].is_invertible()
    witness = TransitionWitness(g)
    assert verify_transition(m, sigma, witness)
    return witness


def invariant_kernel_subspace(m):
    """The largest B-invariant graded subspace inside ker J, as per-vertex
    column bases: the kernels of the path rows, which are kept in reduced
    echelon form with their pivot columns."""
    from qfold.module_lab import _path_rows

    out = {}
    for x, (rows, pivots) in _path_rows(m).items():
        assert rows.rref() == (rows, pivots)
        out[x] = rows.nullspace()
    return out


def shrinking_invariant_kernel(m):
    """Oracle for invariant_kernel_subspace: start from ker J and keep the
    part of each space whose B-images stay inside the spaces, until no
    space shrinks."""
    spaces = {x: m.J[x].nullspace() for x in m.quiver.vertices}
    while True:
        new = {}
        for x in m.quiver.vertices:
            basis = spaces[x]
            constraints = Mat.zeros(0, basis.cols, basis.p)
            for info in m.quiver.doubled:
                if info.src == x:
                    left = spaces[info.tgt].transpose().nullspace().transpose()
                    constraints = constraints.vstack(left * m.B[info.key] * basis)
            new[x] = basis * constraints.nullspace() if basis.cols else basis
        if all(new[x].cols == spaces[x].cols for x in spaces):
            return new
        spaces = new


def test_path_rows_match_global_oracles():
    d4 = d_quiver(4)
    a5 = a_quiver(5)
    rng = random.Random(2024)
    cases = []
    for q, a in [(A3, FLIP), (d4, fork_swap_automorphism(d4, 4)),
                 (d4, automorphism(d4, {"1": "3", "3": "4", "4": "1", "2": "2"})),
                 (a5, flip_automorphism(a5, 5))]:
        for p in [None] * 40 + [3] * 40:
            m, sigma = theta_module(rng, q, a, max_dim=3, p=p)
            cases.append((m, a, sigma))
    # the dense oracle takes up to 1 s on a D4 pair, so the pairs are few
    for q, a, count in [(A3, FLIP, 6), (a5, flip_automorphism(a5, 5), 3),
                        (d4, fork_swap_automorphism(d4, 4), 1)]:
        for _ in range(count):
            _xi, m_sub, m, sigma, _wsub, _wit = random_graded_pair(rng, q, a)
            cases += [(m, a, sigma), (m_sub, a, sigma)]
    outcomes = {"stable": 0, "none": 0}
    for m, a, sigma in cases:
        new, old = invariant_kernel_subspace(m), shrinking_invariant_kernel(m)
        assert all(new[x].cols == old[x].cols for x in m.quiver.vertices)
        if not is_stable(m):
            with pytest.raises(NotStable):
                find_transition(m, sigma)
            continue
        outcomes["stable"] += 1
        found, oracle = find_transition(m, sigma), global_intertwiner(m, sigma)
        assert (found is None) == (oracle is None)
        if found is None:
            outcomes["none"] += 1
        else:
            # the full module-map check, which the reduction makes needless
            assert check_framed_embedding(found.g, m, apply_theta(m, sigma))
            assert all(found.g[x] == oracle.g[x] for x in m.quiver.vertices)
    # both outcomes are exercised, over Q and over F_3
    assert outcomes["stable"] >= 100 and 40 <= outcomes["none"] <= outcomes["stable"] - 40


def test_star_relabeling_and_involution():
    g = {"1": Mat.rational([[2]]), "2": Mat.rational([[3]]), "3": Mat.rational([[5]])}
    assert star(g, identity_automorphism(A3)) == g
    flipped = star(g, FLIP)
    assert flipped["1"] == g["3"] and flipped["3"] == g["1"] and flipped["2"] == g["2"]
    assert star(star(g, FLIP), FLIP) == g


def test_build_theta_witness_identity_gauge():
    m1 = stable_asymmetric_module()
    sig = identity_sigma(A3, FLIP, m1.w)
    gid = {x: Mat.identity(1) for x in A3.vertices}
    big, witness = build_theta_witness(m1, gid, sig)
    assert witness.summand_swap
    assert all(witness.g[x] == Mat.identity(2) for x in A3.vertices)
    assert verify_transition(big, sig, witness)


def test_build_theta_witness_certificate():
    m1 = stable_asymmetric_module()
    sig = identity_sigma(A3, FLIP, m1.w)
    g = {"1": Mat.rational([[1]]), "2": Mat.rational([[2]]), "3": Mat.rational([[1]])}
    big, witness = build_theta_witness(m1, g, sig)
    # blocks at the fixed vertex are (g*, g^{-1}) = (2, 1/2)
    assert witness.g["2"] == Mat.rational([[2, 0], [0, Fraction(1, 2)]])
    # the honest transition matrix composes the summand swap: its row blocks exchange
    assert witness_matrix(witness, "2") == Mat.rational([[0, Fraction(1, 2)], [2, 0]])
    prof = eigen_profile(witness.g["2"], 2)
    assert prof["other"] == 2
    assert all(d == 0 for d in prof["roots"].values())


def test_build_theta_witness_pm_one_gauge():
    m1 = stable_asymmetric_module()
    sig = identity_sigma(A3, FLIP, m1.w)
    g = {"1": Mat.rational([[1]]), "2": Mat.rational([[-1]]), "3": Mat.rational([[1]])}
    _big, witness = build_theta_witness(m1, g, sig)
    prof = eigen_profile(witness.g["2"], 2)
    assert prof["other"] == 0
    assert prof["roots"][Fraction(1, 2)] == 2


def test_build_theta_witness_needs_involution():
    # the two-summand matching swaps once, so an order-3 action cannot
    # satisfy the verified equation unless the module is twist-symmetric
    d4 = d_quiver(4)
    rot = automorphism(d4, {"1": "3", "3": "4", "4": "1", "2": "2"})
    v = {x: 1 for x in d4.vertices}
    w = dict(v)
    sig = identity_sigma(d4, rot, w)
    m = framed_module(d4, v, w, J=one_dim({"1": 1, "2": 1, "3": 2, "4": 3}))
    g = {x: Mat.identity(1) for x in d4.vertices}
    with pytest.raises(WitnessVerificationFailed):
        build_theta_witness(m, g, sig)


def test_build_theta_witness_inverts_each_gauge_block_once(monkeypatch):
    m1 = framed_module(A3, {x: 1 for x in A3.vertices}, {x: 1 for x in A3.vertices},
                       B={"e2*": Mat.rational([[1]])},
                       J={"1": Mat.rational([[1]]), "2": Mat.rational([[1]]),
                          "3": Mat.rational([[0]])})
    sig = identity_sigma(A3, FLIP, m1.w)
    g = {"1": Mat.rational([[1]]), "2": Mat.rational([[2]]), "3": Mat.rational([[1]])}
    inverted = []
    inverse = Mat.inverse

    def counted(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(Mat, "inverse", counted)
    big, witness = build_theta_witness(m1, g, sig)
    assert sorted(x for x in A3.vertices for m in inverted if m is g[x]) == ["1", "2", "3"]
    assert witness_matrix(witness, "2") == Mat.rational([[0, Fraction(1, 2)], [2, 0]])
    g["2"] = Mat.rational([[0]])
    with pytest.raises(NotInvertible, match="^gauge block at 2 is singular$"):
        build_theta_witness(m1, g, sig)


def test_eigen_grade_examples():
    # the grading of a finite-order matrix by the e-th roots of unity
    assert eigen_profile(Mat.identity(3), 2) == \
        {"roots": {Fraction(0): 3, Fraction(1, 2): 0}, "other": 0}
    assert eigen_profile(Mat.rational([[1, 0, 0], [0, -1, 0], [0, 0, -1]]), 2) == \
        {"roots": {Fraction(0): 1, Fraction(1, 2): 2}, "other": 0}
    rot = Mat.rational([[0, -1], [1, -1]])
    assert eigen_profile(rot, 3) == \
        {"roots": {Fraction(0): 0, Fraction(1, 3): 1, Fraction(2, 3): 1}, "other": 0}
    for mat, e in [(Mat.identity(4), 2), (rot, 3)]:
        assert sum(eigen_profile(mat, e)["roots"].values()) == mat.rows
    # no finite order: the eigenvalue 2 is no root of unity
    assert eigen_profile(Mat.rational([[2]]), 2) == \
        {"roots": {Fraction(0): 0, Fraction(1, 2): 0}, "other": 1}


def test_eigen_grade_over_prime_field():
    # the cyclotomic values are taken with the identity of the matrix's own field
    assert eigen_profile(Mat.identity(2, 3), 1) == {"roots": {Fraction(0): 2}, "other": 0}
    assert eigen_profile(Mat.identity(2, 3).scaled(2), 1) == {"roots": {Fraction(0): 0}, "other": 2}
    assert eigen_profile(Mat.identity(2, 3).scaled(2), 2) == \
        {"roots": {Fraction(0): 0, Fraction(1, 2): 2}, "other": 0}


def test_eigen_profile_counts_cyclotomic_kernels():
    # the mass at a primitive d-th root is nullity(Phi_d(g)) / phi(d), here
    # from sympy, on rational matrices that mostly have no finite order: a
    # signed permutation block beside a random block, conjugated
    import math

    import sympy

    x = sympy.Symbol("x")
    rng = random.Random(15)
    infinite_order = 0
    for trial in range(84):
        n = trial % 7
        k = rng.randint(0, n)
        perm = rng.sample(range(k), k)
        core = [[Fraction(0)] * n for _ in range(n)]
        for i in range(k):
            core[perm[i]][i] = Fraction(rng.choice([1, -1]))
        for i in range(k, n):
            for j in range(k, n):
                core[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        lower = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(n)]
                 for i in range(n)]
        upper = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(n)]
                 for i in range(n)]
        p = Mat.rational(lower) * Mat.rational(upper)
        g = p * Mat.rational(core) * p.inverse()
        e = rng.randint(1, 6)
        infinite_order += g.power(e) != Mat.identity(n)
        prof = eigen_profile(g, e)
        big = sympy.Matrix(n, n, [sympy.Rational(str(v)) for row in g.data for v in row])
        for t in range(e):
            d = e // math.gcd(t, e)
            value = sympy.zeros(n, n)
            for coeff in sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs():
                value = value * big + coeff * sympy.eye(n)
            nullity = n - value.rank()
            assert nullity % sympy.totient(d) == 0
            assert prof["roots"][Fraction(t, e)] == nullity // sympy.totient(d), (trial, t, e)
        assert prof["other"] == n - sum(prof["roots"].values())
    assert infinite_order >= 50


# -- the product-then-compare checks that each relation's one signed sum
# of products replaced, kept as oracles ----------------------------------

def relations_oracle(m: FramedModule) -> RelationReport:
    """`check_relations` with I J and each B_rev B formed apart, then added
    or subtracted."""
    for vertex, leaving in m.quiver.leaving.items():
        acc = m.I[vertex] * m.J[vertex]
        for info in leaving:
            term = m.B[reverse_key(info.key)] * m.B[info.key]
            if m.signed and info.eps == -1:
                acc = acc - term
            else:
                acc = acc + term
        if not acc.is_zero():
            return RelationReport(False, vertex)
    return RelationReport(True)


def embedding_oracle(xi, m_sub: FramedModule, m: FramedModule) -> bool:
    """The verdict of `check_framed_embedding` on valid shapes, with B xi
    and xi B_sub formed apart and compared."""
    q = m.quiver
    if any(xi[x].rank() != m_sub.v.get(x, 0) for x in q.vertices):
        return False
    if any(m.B[info.key] * xi[info.src] != xi[info.tgt] * m_sub.B[info.key]
           for info in q.doubled):
        return False
    return all(xi[x] * m_sub.I[x] == m.I[x] and m.J[x] * xi[x] == m_sub.J[x]
               for x in q.vertices)


def corrupted(rng, m: FramedModule, x: str):
    """m with one entry of I[x], J[x] or a B leaving x raised by one, or
    None when all of them are empty."""
    blocks = [("I", x), ("J", x)] + [("B", info.key) for info in m.quiver.leaving[x]]
    blocks = [(name, key) for name, key in blocks
              if getattr(m, name)[key].rows and getattr(m, name)[key].cols]
    if not blocks:
        return None
    name, key = rng.choice(blocks)
    mat = getattr(m, name)[key]
    data = [[residue(x) for x in row] for row in mat.data]
    r, c = rng.randrange(mat.rows), rng.randrange(mat.cols)
    data[r][c] = data[r][c] + 1
    maps = {"B": m.B, "I": m.I, "J": m.J}
    maps[name] = {**maps[name], key: Mat(mat.rows, mat.cols, data, mat.p)}
    return FramedModule(m.quiver, m.v, m.w, signed=m.signed, **maps)


def balanced_module(rng, q, v, p=None) -> FramedModule:
    """A signed module with B in both directions along every edge, w = v and
    an invertible J, and I = -(sum of eps B_rev B) J^-1 at each vertex, so
    that every relation holds by its signs."""
    B = {info.key: rand_mat(rng, v[info.tgt], v[info.src], p) for info in q.doubled}
    I, J = {}, {}
    for x in q.vertices:
        J[x] = rand_mat(rng, v[x], v[x], p)
        while not J[x].is_invertible():
            J[x] = rand_mat(rng, v[x], v[x], p)
        total = Mat.zeros(v[x], v[x], J[x].p)
        for info in q.leaving[x]:
            term = B[reverse_key(info.key)] * B[info.key]
            total = total - term if info.eps == -1 else total + term
        I[x] = -(total * J[x].inverse())
    return framed_module(q, v, v, B=B, I=I, J=J)


def oracle_modules(rng):
    """Seeded modules over Q and F_3, each signed and unsigned: relation-exact
    one-way modules, and balanced modules whose relations hold by the signs
    of their terms."""
    for trial in range(16):
        q = [A3, d_quiver(4)][trial % 2]
        v = {x: rng.randint(0, 3) for x in q.vertices}
        w = {x: rng.randint(0, 2) for x in q.vertices}
        p = 3 if trial % 4 < 2 else None
        for m in (random_one_way_module(rng, q, v, w, p=p), balanced_module(rng, q, v, p)):
            yield m
            yield FramedModule(m.quiver, m.v, m.w, m.B, m.I, m.J, signed=False)


def test_check_relations_matches_the_product_oracle():
    """The verdict and the first failing vertex, on each module and on it
    with one B, I or J entry corrupted at each vertex in turn."""
    rng = random.Random(41)
    verdicts = set()
    for m in oracle_modules(rng):
        cases = [m] + [corrupted(rng, m, x) for x in m.quiver.vertices]
        for case in filter(None, cases):
            want = relations_oracle(case)
            assert check_relations(case) == want, case
            verdicts.add((want.ok, case.J[case.quiver.vertices[0]].p, case.signed))
    assert len(verdicts) == 8, verdicts   # both verdicts over Q and F_3, signed and unsigned


def test_every_built_module_passes_the_entry_check(monkeypatch):
    """theta, the gauge action and the direct sum build their records with
    no check; `framed_module`, which checks a module where it enters,
    accepts each one they return and gives it back equal.  The modules come
    from `oracle_modules`, from `random_theta_module` on every corpus entry
    and from `random_graded_pair` on the involutions with an invariant
    orientation."""
    from qfold import generators, module_lab

    built = {"apply_theta": [], "_conjugate": [], "direct_sum": []}
    for name, out in built.items():
        def recorded(*args, _build=getattr(module_lab, name), _out=out):
            _out.append(_build(*args))
            return _out[-1]
        monkeypatch.setattr(module_lab, name, recorded)
        if hasattr(generators, name):
            monkeypatch.setattr(generators, name, recorded)

    def gauge(rng, m):
        g = {}
        for x in m.quiver.vertices:
            n, p = m.v[x], m.J[x].p or None
            g[x] = rand_mat(rng, n, n, p)
            while not g[x].is_invertible():
                g[x] = rand_mat(rng, n, n, p)
        return g

    rng = random.Random(43)
    for m in oracle_modules(rng):
        q, p = m.quiver, m.J[m.quiver.vertices[0]].p
        ident = SigmaData(q, identity_automorphism(q), {x: Mat.identity(m.w[x], p)
                                                        for x in q.vertices})
        module_lab.apply_theta(m, ident)
        module_lab.act(gauge(rng, m), m)
        module_lab.direct_sum(m, m)
    for entry in corpus():
        m, sigma = random_theta_module(rng, entry.quiver, entry.auto)
        module_lab.apply_theta(m, sigma)
        if is_stable(m):
            module_lab.find_transition(m, sigma)
        od = orbit_data(entry.quiver, entry.auto)
        if entry.admissible and max(map(len, od.vertex_orbits)) == 2 \
                and arrow_transport(entry.quiver, entry.auto).sign is not None:
            _xi, m_sub, m, sigma, _ws, _w = random_graded_pair(rng, entry.quiver, entry.auto)
            module_lab.build_theta_witness(m_sub, gauge(rng, m_sub), sigma)
    assert min(map(len, built.values())) >= 50, {name: len(out) for name, out in built.items()}
    for out in built.values():
        for m in out:
            assert framed_module(*m) == m


def test_check_framed_embedding_matches_the_product_oracle():
    """Generated stable pairs over Q, and identity maps of a module over F_3
    into itself, each with one entry of the submodule or of xi corrupted at
    each vertex in turn."""
    rng = random.Random(43)
    d4 = d_quiver(4)
    cases = []
    for trial in range(8):
        q, a = [(A3, FLIP), (d4, fork_swap_automorphism(d4, 4))][trial % 2]
        xi, m_sub, m, _sig, _wsub, _wit = random_graded_pair(rng, q, a)
        cases.append((xi, m_sub, m))
        v = {x: rng.randint(0, 3) for x in q.vertices}
        w = {x: rng.randint(0, 2) for x in q.vertices}
        m3 = random_one_way_module(rng, q, v, w, p=3, signed=trial % 4 < 2)
        cases.append(({x: Mat.identity(v[x], 3) for x in q.vertices}, m3, m3))
    verdicts = set()
    for xi, m_sub, m in cases:
        variants = [(xi, m_sub)]
        for x in m.quiver.vertices:
            sub = corrupted(rng, m_sub, x)
            if sub is not None:
                variants.append((xi, sub))
            if xi[x].rows and xi[x].cols:
                data = [[residue(e) for e in row] for row in xi[x].data]
                data[rng.randrange(xi[x].rows)][rng.randrange(xi[x].cols)] += 1
                variants.append(({**xi, x: Mat(xi[x].rows, xi[x].cols, data, xi[x].p)}, m_sub))
        for xi_case, sub_case in variants:
            want = embedding_oracle(xi_case, sub_case, m)
            assert check_framed_embedding(xi_case, sub_case, m) == want
            verdicts.add((want, m.J[m.quiver.vertices[0]].p))
    assert len(verdicts) == 4, verdicts


def test_check_framed_embedding_examples():
    v = {x: 1 for x in A3.vertices}
    w = {x: 1 for x in A3.vertices}
    m = framed_module(A3, v, w, B={"e1": Mat.rational([[1]])}, J=one_dim({"1": 1, "2": 1, "3": 1}))
    ident = {x: Mat.identity(1) for x in A3.vertices}
    assert check_framed_embedding(ident, m, m)
    zero_map = {x: Mat.zeros(1, 1) for x in A3.vertices}
    assert not check_framed_embedding(zero_map, m, m)

    # proper submodule: drop the third vertex
    vsub = {"1": 1, "2": 1, "3": 0}
    msub = framed_module(A3, vsub, w, B={"e1": Mat.rational([[1]])},
                         J={"1": Mat.rational([[1]]), "2": Mat.rational([[1]]),
                            "3": Mat.zeros(1, 0)})
    xi = {"1": Mat.identity(1), "2": Mat.identity(1), "3": Mat.zeros(1, 0)}
    assert check_framed_embedding(xi, msub, m)
    # drop both ends of the {1,3} orbit
    v13 = {"1": 0, "2": 1, "3": 0}
    m13 = framed_module(A3, v13, w,
                        J={"1": Mat.zeros(1, 0), "2": Mat.rational([[1]]),
                           "3": Mat.zeros(1, 0)})
    xi13 = {"1": Mat.zeros(1, 0), "2": Mat.identity(1), "3": Mat.zeros(1, 0)}
    assert check_framed_embedding(xi13, m13, m)


def test_theorem5_trivial_cases():
    rng = random.Random(8)
    _xi, _msub, m, sig, _wsub, wit = random_graded_pair(rng, A3, FLIP)
    ident = {x: Mat.identity(m.v.get(x, 0)) for x in A3.vertices}
    rep = theorem5_verify(ident, m, m, sig, wit, wit)
    assert rep.ok

    # empty submodule is vacuous
    vzero = {x: 0 for x in A3.vertices}
    empty = framed_module(A3, vzero, dict(m.w),
                          J={x: Mat.zeros(m.w.get(x, 0), 0) for x in A3.vertices})
    xi0 = {x: Mat.zeros(m.v.get(x, 0), 0) for x in A3.vertices}
    w0 = TransitionWitness({x: Mat.zeros(0, 0) for x in A3.vertices})
    rep0 = theorem5_verify(xi0, empty, m, sig, w0, wit)
    assert rep0.ok


def test_theorem5_generated_pairs():
    rng = random.Random(17)
    d4 = d_quiver(4)
    swap = fork_swap_automorphism(d4, 4)
    for trial in range(20):
        q, a = [(A3, FLIP), (d4, swap)][trial % 2]
        xi, msub, m, sig, wsub, wit = random_graded_pair(rng, q, a)
        rep = theorem5_verify(xi, msub, m, sig, wsub, wit)
        assert rep.ok, (trial, rep)


def test_the_laboratory_takes_its_inputs_as_checked(monkeypatch):
    """Orbit constancy is checked where a module file is read: on generated
    inputs, transitions, theorem 5 and transport loops never ask for it."""
    rng = random.Random(71)
    d4 = d_quiver(4)
    setups = [(A3, FLIP), (d4, fork_swap_automorphism(d4, 4))]
    pairs = [random_graded_pair(rng, *setups[trial % 2]) for trial in range(6)]
    modules = [random_theta_module(rng, entry.quiver, entry.auto) for entry in corpus()]

    def refused(*_args):
        raise AssertionError("orbit constancy was checked again")

    monkeypatch.setattr(split_quotient, "is_orbit_constant", refused)
    monkeypatch.setattr(module_lab, "is_orbit_constant", refused, raising=False)
    for xi, msub, m, sig, wsub, wit in pairs:
        assert find_transition(m, sig) is not None
        assert theorem5_verify(xi, msub, m, sig, wsub, wit).ok
    for m, sig in modules:
        cur = m
        for _ in range(sig.orbits.n):
            cur = apply_theta(cur, sig)
        assert cur == m


def test_graded_pairs_are_stable():
    # the generator relies on J being injective; the full check confirms it
    rng = random.Random(29)
    a5, d4, d5 = a_quiver(5), d_quiver(4), d_quiver(5)
    setups = [(A3, FLIP), (a5, flip_automorphism(a5, 5)),
              (d4, fork_swap_automorphism(d4, 4)), (d5, fork_swap_automorphism(d5, 5))]
    for trial in range(12):
        q, a = setups[trial % 4]
        _xi, msub, m, _sig, _wsub, _wit = random_graded_pair(rng, q, a)
        assert is_stable(m) and is_stable(msub), trial


def rot3_module():
    """A stable module on D4 under the order-3 rotation whose transition
    matrices have the irreducible quadratic factor x^2 + x + 1."""
    d4 = d_quiver(4)
    rot = automorphism(d4, {"1": "3", "3": "4", "4": "1", "2": "2"})
    v = {x: 2 for x in d4.vertices}
    w = dict(v)
    sig = identity_sigma(d4, rot, w)
    seed = framed_module(d4, v, w, B={"e1": Mat.rational([[1, 2], [0, 1]])},
                         J={x: Mat.identity(2) for x in d4.vertices})
    # fill the whole arrow orbit by transporting the seed twice
    t1 = apply_theta(seed, sig)
    t2 = apply_theta(t1, sig)
    merged = {}
    for key in seed.B:
        for cand in (seed, t1, t2):
            if not cand.B[key].is_zero():
                merged[key] = cand.B[key]
    base = framed_module(d4, v, w, B=merged, J={x: Mat.identity(2) for x in d4.vertices})
    assert check_relations(base).ok
    assert apply_theta(base, sig) == base
    assert is_stable(base)

    r = Mat.rational([[0, -1], [1, -1]])
    h = {"2": Mat.identity(2), "1": Mat.identity(2), "3": r, "4": r * r}
    m = act(h, base)
    back = {image: x for x, image in rot.vertex_perm.items()}
    g = {x: h[back[x]] * h[x].inverse() for x in d4.vertices}
    return m, rot, sig, TransitionWitness(g)


def test_theorem5_exercises_cyclotomic_eigenvalues():
    # order-3 rotation: transitions with irreducible quadratic factors
    m, rot, sig, wit = rot3_module()
    assert verify_transition(m, sig, wit)
    assert any(len(f) > 2 for f, _ in factor_rational_poly(wit.g["1"].charpoly()))
    ident = {x: Mat.identity(2) for x in m.quiver.vertices}
    rep = theorem5_verify(ident, m, m, sig, wit, wit)
    assert rep.ok


def regauged(xi, m, a, witness, h):
    """The ambient module acted on by the gauge h, with its embedding and
    transition: theta(h.m) = g'.(h.m) for g'_x = h_{a^-1(x)} g_x h_x^-1, so a
    gauge that is not constant on orbits breaks eigenspace inclusion."""
    back = {image: x for x, image in a.vertex_perm.items()}
    g = {x: h[back[x]] * witness_matrix(witness, x) * h[x].inverse()
         for x in m.quiver.vertices}
    return {x: h[x] * xi[x] for x in xi}, act(h, m), TransitionWitness(g)


def failing_a3_pair():
    xi, msub, m, sig, wsub, wit = random_graded_pair(random.Random(0), A3, FLIP)
    h = {x: Mat.identity(m.v[x]) for x in A3.vertices}
    h["1"] = h["1"].scaled(Fraction(2))
    xi, m, wit = regauged(xi, m, FLIP, wit, h)
    return xi, msub, m, FLIP, sig, wsub, wit


def failing_rot3_pair():
    msub, rot, sig, wsub = rot3_module()
    ident = {x: Mat.identity(2) for x in msub.quiver.vertices}
    h = {**ident, "1": Mat.rational([[1, 1], [0, 1]])}
    xi, m, wit = regauged(ident, msub, rot, wsub, h)
    return xi, msub, m, rot, sig, wsub, wit


def per_factor_report(xi, m_sub, m, witness_sub, witness):
    """Eigenspace inclusion decided one irreducible factor of the
    characteristic polynomial at a time, rational factors over Q and the
    others in Q[x]/(factor): the oracle for theorem5_verify."""
    for x in m.quiver.vertices:
        g_sub = witness_matrix(witness_sub, x)
        g_big = witness_matrix(witness, x)
        if g_sub.rows == 0:
            continue
        for factor, _mult in factor_rational_poly(g_sub.charpoly()):
            if len(factor) == 2:
                lam = -factor[1]
                eig_sub = (g_sub - Mat.identity(g_sub.rows).scaled(lam)).nullspace()
                big_shift = g_big - Mat.identity(g_big.rows).scaled(lam)
                for u in columns(eig_sub):
                    if not (big_shift * (xi[x] * u)).is_zero():
                        return EigenInclusionReport(
                            False, x, str(lam), tuple(str(u[r, 0]) for r in range(u.rows)))
            else:
                field = NumberField(factor)
                shift_big, xi_k = shifted(field, g_big), rows_over(field, xi[x])
                for u in nullspace(field, shifted(field, g_sub), g_sub.cols):
                    if any(apply(shift_big, apply(xi_k, u))):
                        return EigenInclusionReport(
                            False, x, f"root of {poly_str(factor)}", tuple(map(repr, u)))
    return EigenInclusionReport(True)


def theorem5_file(tmp_path, xi, msub, m, a, sig, wsub, wit):
    path = tmp_path / "theorem5.json"
    path.write_text(json.dumps({
        "quiver": quiver_to_dict(m.quiver, a), "module": module_to_dict(m),
        "sub": module_to_dict(msub), "xi": matmap_to_obj(xi),
        "sigma": sigma_to_dict(sig), "witness": witness_to_dict(wit),
        "witness_sub": witness_to_dict(wsub)}))
    return path


def test_theorem5_failure_reports_pinned(tmp_path):
    rational = NumberField([Fraction(1), Fraction(-1)])      # eigenvalue 1
    cyclotomic = NumberField([Fraction(1), Fraction(1), Fraction(1)])
    a = cyclotomic.generator
    cases = [
        (failing_a3_pair(), EigenInclusionReport(False, "1", "1", ("1",)),
         rational, [rational.one]),
        (failing_rot3_pair(), EigenInclusionReport(False, "1", "root of x^2 + x + 1",
                                                   ("-1*a", "1")),
         cyclotomic, [-a, cyclotomic.one]),
    ]
    for (xi, msub, m, auto, sig, wsub, wit), want, field, entries in cases:
        assert verify_transition(m, sig, wit)
        assert theorem5_verify(xi, msub, m, sig, wsub, wit) == want

        # the reported vector u is an eigenvector of g_sub that the defect
        # D = g_big xi - xi g_sub does not kill
        assert tuple(repr(c) for c in entries) == want.vector
        g_sub = rows_over(field, witness_matrix(wsub, "1"))
        assert apply(g_sub, entries) == [field.generator * c for c in entries]
        defect = witness_matrix(wit, "1") * xi["1"] - xi["1"] * witness_matrix(wsub, "1")
        assert any(apply(rows_over(field, defect), entries))

        path = theorem5_file(tmp_path, xi, msub, m, auto, sig, wsub, wit)
        assert main(["module", "theorem5", str(path)]) == 2


def random_gauge(rng, dims):
    """Independent random invertible integer matrices per vertex: upper
    triangular with a nonzero diagonal."""
    out = {}
    for x, n in dims.items():
        rows = [[(rng.choice([1, 2, -1, 3]) if r == c else rng.randint(-2, 2) if c > r else 0)
                 for c in range(n)] for r in range(n)]
        out[x] = Mat.rational(rows) if n else Mat.identity(0)
    return out


def test_theorem5_agrees_with_per_factor_oracle():
    rng = random.Random(23)
    d4 = d_quiver(4)
    swap = fork_swap_automorphism(d4, 4)
    cases = []
    for trial in range(12):
        q, a = [(A3, FLIP), (d4, swap)][trial % 2]
        xi, msub, m, sig, wsub, wit = random_graded_pair(rng, q, a)
        cases.append((xi, msub, m, a, sig, wsub, wit))
        xi2, m2, wit2 = regauged(xi, m, a, wit, random_gauge(rng, m.v))
        cases.append((xi2, msub, m2, a, sig, wsub, wit2))
    m3, rot, sig3, wit3 = rot3_module()
    ident = {x: Mat.identity(2) for x in m3.quiver.vertices}
    cases.append((ident, m3, m3, rot, sig3, wit3, wit3))
    for _ in range(3):
        xi, m, wit = regauged(ident, m3, rot, wit3, random_gauge(rng, m3.v))
        cases.append((xi, m3, m, rot, sig3, wit3, wit))
    cases += [failing_a3_pair(), failing_rot3_pair()]

    verdicts = []
    for xi, msub, m, a, sig, wsub, wit in cases:
        rep = theorem5_verify(xi, msub, m, sig, wsub, wit)
        assert rep == per_factor_report(xi, msub, m, wsub, wit)
        verdicts.append(rep.ok)
    assert verdicts.count(True) >= 13 and verdicts.count(False) >= 10


def jordan_conjugate(rng, n):
    """A random n x n integer matrix, or P J P^-1 for J a block diagonal of
    Jordan blocks at small integers and companion blocks of irreducible
    quadratics, and P a random unimodular integer matrix."""
    if rng.random() < 0.3:
        return Mat.rational([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    blocks, size = [], 0
    while size < n:
        if n - size >= 2 and rng.random() < 0.3:
            b1, b0 = rng.choice([(1, 1), (0, 1), (0, -2), (-1, 3)])   # x^2 + b1 x + b0
            block = Mat.rational([[0, -b0], [1, -b1]])
        else:
            k = rng.randint(1, n - size)
            lam = rng.randint(-2, 2)
            block = Mat.rational([[lam if r == c else 1 if c == r + 1 else 0
                                   for c in range(k)] for r in range(k)])
        blocks.append(block)
        size += block.rows
    lower = Mat.rational([[rng.randint(-2, 2) if r > c else int(r == c) for c in range(n)]
                          for r in range(n)])
    p = lower * lower.transpose()
    return p * Mat.block_diag(blocks) * p.inverse()


def test_eigenvector_span_is_the_sum_of_factor_kernels():
    rng = random.Random(11)
    for _ in range(40):
        g = jordan_conjugate(rng, rng.randint(1, 6))
        span = eigenvector_span(g)
        kernels = [g.poly_eval(f).nullspace() for f, _ in factor_rational_poly(g.charpoly())]
        assert span.cols == span.rank() == sum(k.cols for k in kernels)
        assert all(column_space_contains(span, col) for k in kernels for col in columns(k))


# irreducible cubics x^3 - 2, x^3 - x - 1 and x^3 + x^2 - 1
CUBICS = ([1, 0, 0, -2], [1, 0, -1, -1], [1, 1, 0, -1])


def sylvester_kernel(g, c):
    """K = kron(g, I_k) - kron(I_n, c): its kernel is the row-major vec(X)
    of the solutions of g X = X c^T."""
    n, k = g.rows, c.rows
    return Mat.rational([[g[r, s] * (i == j) - (r == s) * c[i, j]
                          for s in range(n) for j in range(k)]
                         for r in range(n) for i in range(k)])


def reported_coordinates(report, k):
    """The rational n x k matrix X of a reported vector u: row r holds the
    coefficients of u_r in 1, a, ..., a^(k-1)."""
    import sympy

    a = sympy.Symbol("a")
    rows = []
    for text in report.vector:
        coeffs = sympy.Poly(sympy.sympify(text.replace("^", "**")), a).all_coeffs()[::-1]
        rows.append([Fraction(int(c.p), int(c.q)) for c in coeffs] + [0] * (k - len(coeffs)))
    return Mat.rational(rows)


def test_eigen_counterexample_solves_the_sylvester_form():
    """Over Q, through the kernel of the Sylvester form, the counterexample
    is the one elimination over Q(a) names, report for report, on matrices
    with irreducible factors of degree 1 to 3 and defects that kill the
    eigenvectors of no factor, of some or of all."""
    rng = random.Random(41)
    degrees = []
    for trial in range(70):
        g = jordan_conjugate(rng, rng.randint(1, 4))
        if trial % 2:
            cubic = companion([Fraction(c) for c in rng.choice(CUBICS)])
            p, p_inv = rand_invertible(rng, g.rows + 3)
            g = p * Mat.block_diag([g, cubic]) * p_inv
        n = g.rows
        factors = factor_rational_poly(g.charpoly())
        defect = rand_mat(rng, rng.randint(1, 3), n)
        killed = rng.sample(factors, rng.randint(0, len(factors)))
        for f, _mult in killed:
            defect = defect * g.poly_eval(f)
        want = eigen_counterexample("x", g, defect)
        if want is None:
            assert (defect * eigenvector_span(g)).is_zero()
            continue
        got = _eigen_counterexample("x", g, defect)
        assert got == want

        for f, _mult in factors:
            c = companion(f)
            field = NumberField(f)
            nullity = len(nullspace(field, shifted(field, g), n))
            assert sylvester_kernel(g, c).nullity() == c.rows * nullity
        c = next(companion(f) for f, _mult in factors
                 if got.eigenvalue == (str(-f[1]) if len(f) == 2 else f"root of {poly_str(f)}"))
        coords = reported_coordinates(got, c.rows)
        assert g * coords == coords * c.transpose() and not (defect * coords).is_zero()
        degrees.append(c.rows)
    assert {1, 2, 3} <= set(degrees) and len(degrees) >= 40, degrees


def test_passing_theorem5_imports_no_sympy(tmp_path):
    xi, msub, m, sig, wsub, wit = random_graded_pair(random.Random(5), A3, FLIP)
    path = theorem5_file(tmp_path, xi, msub, m, FLIP, sig, wsub, wit)
    # factoring is unreachable: using it raises TypeError
    code = ("import sys, qfold.module_lab as ml; from qfold.cli import main; "
            "ml.factor_rational_poly = None; "
            f"rc = main(['module', 'theorem5', {str(path)!r}]); "
            "print(rc, 'sympy' in sys.modules)")
    src = Path(qfold.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(src))).stdout
    assert out.split()[-2:] == ["0", "False"]


def test_theorem5_precondition_checks():
    rng = random.Random(2)
    xi, msub, m, sig, wsub, wit = random_graded_pair(rng, A3, FLIP)
    bad_wit = TransitionWitness({x: Mat.identity(m.v.get(x, 0)).scaled(Fraction(2))
                                 for x in A3.vertices})
    with pytest.raises(PreconditionViolation):
        theorem5_verify(xi, msub, m, sig, wsub, bad_wit)


def test_direct_sum_shapes():
    v = {x: 1 for x in A3.vertices}
    w = {x: 1 for x in A3.vertices}
    m = framed_module(A3, v, w, J=one_dim({"1": 1, "2": 1, "3": 1}))
    s = direct_sum(m, m)
    assert s.v == {x: 2 for x in A3.vertices}
    assert s.w == w
    assert check_relations(s).ok
    # cross terms I_a J_b between summands can break the relation
    m_i = framed_module(A3, v, w, I=one_dim({"1": 1, "2": 0, "3": 0}))
    m_j = framed_module(A3, v, w, J=one_dim({"1": 1, "2": 0, "3": 0}))
    assert check_relations(m_i).ok and check_relations(m_j).ok
    assert not check_relations(direct_sum(m_i, m_j)).ok


def test_stable_twisted_double_honest_transition():
    # when the twisted double is stable, the unique honest transition is
    # the summand swap composed with the recorded blocks
    from qfold.module_lab import witness_matrix

    m1 = framed_module(
        A3, {x: 1 for x in A3.vertices}, {x: 1 for x in A3.vertices},
        B={"e2*": Mat.rational([[1]]), "e1*": Mat.rational([[1]])},
        J=one_dim({"1": 1, "2": 1, "3": 0}))
    assert is_stable(m1)
    sig = identity_sigma(A3, FLIP, m1.w)
    g = {"1": Mat.rational([[1]]), "2": Mat.rational([[2]]), "3": Mat.rational([[1]])}
    big, witness = build_theta_witness(m1, g, sig)
    assert is_stable(big)
    found = find_transition(big, sig)
    assert found is not None and not found.summand_swap
    for x in A3.vertices:
        assert found.g[x] == witness_matrix(witness, x)


def test_find_transition_is_deterministic():
    rng = random.Random(19)
    _xi, _msub, m, sig, _wsub, _wit = random_graded_pair(rng, A3, FLIP)
    first = find_transition(m, sig)
    second = find_transition(m, sig)
    assert first is not None
    assert all(first.g[x] == second.g[x] for x in A3.vertices)


# ---------------------------------------------------------------------------
# transitions are module maps: the former act-based check as the oracle
# ---------------------------------------------------------------------------

def act_oracle(m, sigma, witness):
    """The former verify_transition: rebuild g.m, inverting every g_x, and
    compare it with theta(m); None where some g_x is singular."""
    full = {x: witness_matrix(witness, x) for x in m.quiver.vertices}
    try:
        return act(full, m) == apply_theta(m, sigma)
    except NotInvertible:
        return None


def agreed_verdict(m, sigma, witness):
    """verify_transition's verdict, checked against the oracle's; a gauge
    the oracle cannot invert must be refused."""
    want = act_oracle(m, sigma, witness)
    assert verify_transition(m, sigma, witness) is (want is True), want
    return want


def with_zero_row(rng, g):
    if g.rows == 0:
        return g
    k = rng.randrange(g.rows)
    return Mat.rational([[c * 0 for c in row] if r == k else row
                         for r, row in enumerate(g.data)])


def test_verify_transition_matches_the_act_oracle():
    rng = random.Random(37)
    d4 = d_quiver(4)
    swap = fork_swap_automorphism(d4, 4)
    rot = automorphism(d4, {"1": "3", "3": "4", "4": "1", "2": "2"})
    verdicts = []
    # generated pairs, their witnesses scaled and made singular
    for trial in range(10):
        q, a = [(A3, FLIP), (d4, swap)][trial % 2]
        _xi, msub, m, sig, wsub, wit = random_graded_pair(rng, q, a)
        for mod, w in ((m, wit), (msub, wsub)):
            for g in (w.g, {x: h.scaled(Fraction(2)) for x, h in w.g.items()},
                      {x: with_zero_row(rng, h) for x, h in w.g.items()}):
                verdicts.append(agreed_verdict(mod, sig, TransitionWitness(g)))
    # random theta-modules with random invertible and singular gauges
    setups = [(A3, FLIP), (A3, identity_automorphism(A3)), (d4, swap), (d4, rot)]
    for trial in range(40):
        q, a = setups[trial % 4]
        m, sig = random_theta_module(rng, q, a)
        ident = {x: Mat.identity(m.v[x]) for x in q.vertices}
        gauge = random_gauge(rng, m.v)
        for g in (ident, gauge, {x: with_zero_row(rng, h) for x, h in gauge.items()}):
            verdicts.append(agreed_verdict(m, sig, TransitionWitness(g)))
    # summand-swapped witnesses of twisted doubles, kept, unswapped and scaled
    for trial in range(10):
        q, a = [(A3, FLIP), (d4, swap)][trial % 2]
        m1, sig = random_theta_module(rng, q, a)
        big, wit = build_theta_witness(m1, random_gauge(rng, m1.v), sig)
        for w in (wit, TransitionWitness(wit.g),
                  TransitionWitness({x: h.scaled(Fraction(3)) for x, h in wit.g.items()},
                                    True)):
            verdicts.append(agreed_verdict(big, sig, w))
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30
    assert verdicts.count(None) >= 20


def test_theorem5_zeroed_witness_is_a_precondition_violation(tmp_path, capsys):
    # a singular witness is no module isomorphism, so it fails verification
    rng = random.Random(2)
    xi, msub, m, sig, wsub, wit = random_graded_pair(rng, A3, FLIP)
    zeroed = TransitionWitness({x: Mat.zeros(h.rows, h.cols) for x, h in wit.g.items()})
    path = theorem5_file(tmp_path, xi, msub, m, FLIP, sig, wsub, zeroed)
    assert main(["module", "theorem5", str(path), "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": {
        "type": "PreconditionViolation", "message": "ambient witness fails verification"}}


def invariant_closure(m, seeds):
    """Column bases of the smallest B-invariant graded subspace containing
    the seed columns."""
    def basis(cols):
        red, pivots = cols.transpose().rref()
        return red.submatrix(range(len(pivots)), range(cols.rows)).transpose()

    spaces = {x: basis(seeds[x]) for x in m.quiver.vertices}
    grown = True
    while grown:
        grown = False
        for info in m.quiver.doubled:
            new = basis(spaces[info.tgt].hstack(m.B[info.key] * spaces[info.src]))
            if new.cols > spaces[info.tgt].cols:
                spaces[info.tgt] = new
                grown = True
    return spaces


def framed_submodule(m, xi):
    """The framed submodule on B-invariant subspaces xi that contain im I."""
    q = m.quiver
    return framed_module(
        q, {x: xi[x].cols for x in q.vertices}, dict(m.w),
        B={info.key: xi[info.tgt].solve(m.B[info.key] * xi[info.src])
           for info in q.doubled},
        I={x: xi[x].solve(m.I[x]) for x in q.vertices},
        J={x: m.J[x] * xi[x] for x in q.vertices}, signed=m.signed)


def test_embedding_into_a_stable_module_makes_the_submodule_stable():
    # theorem5_verify checks is_stable(m) alone: a B-invariant subspace inside
    # ker J_sub goes injectively, by xi, to one inside ker J
    rng = random.Random(41)
    d4 = d_quiver(4)
    swap = fork_swap_automorphism(d4, 4)
    for trial in range(8):
        q, a = [(A3, FLIP), (d4, swap)][trial % 2]
        xi, msub, m, _sig, _wsub, _wit = random_graded_pair(rng, q, a)
        assert check_framed_embedding(xi, msub, m) and is_stable(m)
        assert is_stable(msub)
    proper = 0
    quivers = [A3, d4, a_quiver(4)]
    for trial in range(150):
        q = quivers[trial % 3]
        v = {x: rng.randint(0, 3) for x in q.vertices}
        w = {x: rng.randint(0, 3) for x in q.vertices}
        m = random_one_way_module(rng, q, v, w)
        if not is_stable(m):
            continue
        seed = rng.choice(q.vertices)
        xi = invariant_closure(m, {x: rand_mat(rng, v[x], int(x == seed))
                                   for x in q.vertices})
        msub = framed_submodule(m, xi)
        assert check_framed_embedding(xi, msub, m)
        assert is_stable(msub), trial
        proper += 0 < sum(msub.v.values()) < sum(v.values())
    assert proper >= 20


def test_theorem5_skips_the_eigenvector_span_where_the_defect_is_zero(monkeypatch):
    # on a generated pair D = g xi - xi g_sub is zero at every vertex, so the
    # inclusion holds there without the span; a failing pair still reads it
    from qfold import module_lab

    original = module_lab.eigenvector_span
    calls = []

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(module_lab, "eigenvector_span", counted)
    rng = random.Random(31)
    d4 = d_quiver(4)
    for trial in range(10):
        q, a = [(A3, FLIP), (d4, fork_swap_automorphism(d4, 4))][trial % 2]
        xi, msub, m, sig, wsub, wit = random_graded_pair(rng, q, a)
        assert theorem5_verify(xi, msub, m, sig, wsub, wit).ok
    assert calls == []
    xi, msub, m, _a, sig, wsub, wit = failing_a3_pair()
    assert not theorem5_verify(xi, msub, m, sig, wsub, wit).ok
    assert calls
