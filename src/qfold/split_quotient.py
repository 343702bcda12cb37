"""Quotient and split-quotient quivers, and the dimension-vector projection.

The split quiver has one vertex per (vertex orbit, phase j/e_i) pair with
1 <= j <= e_i.  The phase slot j carries the eigenvalue exp(2*pi*i*(j-1)/e_i)
of the framing composite, so slot j = 1 is always the eigenvalue-1 piece.
An edge joins (i1, j1/e1) and (i2, j2/e2) once per quotient edge orbit h
and per solution of the congruence j1 = j2 (mod e_h); this is the matching
of phases that makes an arrow component survive on the fixed locus, and it
reproduces the classical D/A correspondence.

Splitting twice returns (Q, a): `split_involution_check` reads the
natural map s(s(Q)) -> Q off the phase slots and checks it, with no
search for an isomorphism.

The framing is graded by `root_of_unity_eigendims`, the one count of
eigenspace dimensions at roots of unity: nullity(Phi_d(m)) / phi(d) at a
primitive d-th root, read by `split_framing` here, at the orbit
composites of `SigmaData.composite`, and by `module_lab.eigen_profile`.
A `SigmaData` is built unchecked; its `validate` is the entry check of a
twist read from outside, and `identity_sigma` builds the identity twists.
Weak compositions are listed once, by `_compositions`, and counted once,
by `_composition_count`, for the fibers of p here and for the fibers of
restriction in `rep_branch`.  A dimension vector here is taken as checked:
keyed by vertices, no entry negative, as `cli` reads it or the program builds it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb, gcd
from typing import Mapping, NamedTuple

from .errors import (
    IsoNotFound,
    NotDiagonalizableOverCyclotomicEigenvalues,
    SigmaConstraintViolated,
    TooLarge,
)
from .linalg import Mat
from .numberfield import cyclotomic_poly
from .quiver_core import (
    DiagramAutomorphism,
    OrbitData,
    Quiver,
    Record,
    _setattr,
    arrow_transport,
    identity_automorphism,
    orbit_data,
    quiver,
    require_admissible,
)

DimVec = Mapping[str, int]

# the most split dimension vectors fibers_of_p lists
FIBER_CAP = 100_000


class SplitVertex(NamedTuple):
    """A split-quiver vertex: a vertex orbit together with a phase j/e,
    1 <= j <= e; only `split_quiver` builds one, so the range is not
    checked."""

    orbit: tuple[str, ...]
    j: int
    e: int

    @property
    def id(self) -> str:
        return f"{self.orbit[0]}@{self.j}/{self.e}"


class SplitData(NamedTuple):
    source: Quiver
    auto: DiagramAutomorphism
    orbits: OrbitData
    split: Quiver
    induced: DiagramAutomorphism
    vertex_table: Mapping[str, SplitVertex]
    orbit_slots: tuple[tuple[str, ...], ...]  # split vertex ids per orbit, j ascending


def quotient_quiver(q: Quiver, a: DiagramAutomorphism) -> Quiver:
    """Quiver on vertex orbits and edge orbits, labelled by minimal members."""
    od = require_admissible(q, a)
    vlabel = {i: orb[0] for i, orb in enumerate(od.vertex_orbits)}
    vertices = [vlabel[i] for i in range(len(od.vertex_orbits))]
    edges = []
    for orb in od.edge_orbits:
        rep = q.edge(orb[0])
        edges.append((orb[0],
                      vlabel[od.orbit_of_vertex[rep.src]],
                      vlabel[od.orbit_of_vertex[rep.tgt]]))
    return quiver(vertices, edges)


def split_quiver(q: Quiver, a: DiagramAutomorphism) -> SplitData:
    od = require_admissible(q, a)

    if od.n == 1:
        # all orbits are singletons, so the automorphism is the identity
        # and the split quiver is the input itself, labels included
        table = {v: SplitVertex((v,), 1, 1) for v in q.vertices}
        slots = tuple((v,) for v in q.vertices)
        return SplitData(q, a, od, q, identity_automorphism(q), table, slots)

    table: dict[str, SplitVertex] = {}
    vertices: list[str] = []
    slots: list[tuple[str, ...]] = []
    for orbit in od.vertex_orbits:
        e = od.e_vertex[orbit[0]]
        ids = []
        for j in range(1, e + 1):
            sv = SplitVertex(orbit, j, e)
            table[sv.id] = sv
            vertices.append(sv.id)
            ids.append(sv.id)
        slots.append(tuple(ids))

    edges: list[tuple[str, str, str]] = []
    eperm: dict[str, str] = {}
    for eorb in od.edge_orbits:
        rep = q.edge(eorb[0])
        e_h = od.e_edge[eorb[0]]
        o1 = od.vertex_orbits[od.orbit_of_vertex[rep.src]]
        o2 = od.vertex_orbits[od.orbit_of_vertex[rep.tgt]]
        e1, e2 = od.e_vertex[o1[0]], od.e_vertex[o2[0]]
        for j1 in range(1, e1 + 1):
            for j2 in range(1, e2 + 1):
                if (j1 - j2) % e_h != 0:
                    continue
                eid = _split_edge_id(eorb[0], j1, e1, j2, e2)
                edges.append((eid, SplitVertex(o1, j1, e1).id, SplitVertex(o2, j2, e2).id))
                eperm[eid] = _split_edge_id(eorb[0], j1 % e1 + 1, e1, j2 % e2 + 1, e2)

    split = quiver(vertices, edges)
    vperm = {sv.id: SplitVertex(sv.orbit, sv.j % sv.e + 1, sv.e).id for sv in table.values()}
    induced = DiagramAutomorphism(vperm, eperm)
    return SplitData(q, a, od, split, induced, table, tuple(slots))


def _split_edge_id(edge_orbit: str, j1: int, e1: int, j2: int, e2: int) -> str:
    return f"{edge_orbit}@{j1}/{e1}|{j2}/{e2}"


# ---------------------------------------------------------------------------
# splitting twice
# ---------------------------------------------------------------------------

class InvolutionWitness(NamedTuple):
    vertex_map: Mapping[str, str]  # vertices of s(s(Q)) -> vertices of Q


def split_involution_check(q: Quiver, a: DiagramAutomorphism) -> InvolutionWitness:
    """Witness that splitting twice returns (Q, a): the natural map, checked.

    The induced automorphism of s(Q) has one vertex orbit per a-orbit O,
    the phases (O, j/e_O), in the order of the a-orbits.  The natural map
    sends the slot j' of O's orbit in s(s(Q)) to a^(j'-1)(b_O) for a base
    b_O in O.  An edge of s(s(Q)) joins the slots j' = 1 of any two orbits
    that an edge joins, so the bases are taken joined likewise: a walk
    over the edges of Q, from the first member of each orbit it has not
    reached, takes the first vertex it meets in each new orbit as its base.
    On a tree of orbits any such choice serves; around a cycle of orbits
    another choice may succeed where the walk's fails.
    `_check_natural_map` raises IsoNotFound where the map is no
    isomorphism.
    """
    sd = split_quiver(q, a)
    sd2 = split_quiver(sd.split, sd.induced)
    orbit_of = sd.orbits.orbit_of_vertex
    base: dict[int, str] = {}
    for k, orbit in enumerate(sd.orbits.vertex_orbits):
        if k in base:
            continue
        base[k] = orbit[0]
        todo = [orbit[0]]
        while todo:
            for h in q.leaving[todo.pop()]:
                if orbit_of[h.tgt] not in base:
                    base[orbit_of[h.tgt]] = h.tgt
                    todo.append(h.tgt)
    vertex_map = {}
    for k, slots in enumerate(sd2.orbit_slots):
        v = base[k]
        for x in slots:
            vertex_map[x] = v
            v = a.vertex_perm[v]
    _check_natural_map(sd2, q, a, vertex_map)
    return InvolutionWitness(vertex_map)


def _check_natural_map(sd2: SplitData, q: Quiver, a: DiagramAutomorphism,
                       vertex_map: Mapping[str, str]) -> None:
    """Raise IsoNotFound, naming the vertex or the edges where it fails,
    unless vertex_map is a bijection from the vertices of s(s(Q)) onto Q's
    that carries the multiset of undirected edges of s(s(Q)), loops
    counted, onto Q's and the twice-induced automorphism onto a."""
    hits = Counter(vertex_map.values())
    for v in q.vertices:
        if hits[v] != 1:
            raise IsoNotFound(f"{hits[v]} vertices of s(s(Q)) go to {v}")
    got = Counter(tuple(sorted((vertex_map[e.src], vertex_map[e.tgt]))) for e in sd2.split.edges)
    want = Counter(tuple(sorted((e.src, e.tgt))) for e in q.edges)
    for u, v in got | want:
        if got[u, v] != want[u, v]:
            raise IsoNotFound(f"{got[u, v]} edges of s(s(Q)) go onto {u}--{v}, "
                              f"which Q joins by {want[u, v]}")
    for x, v in vertex_map.items():
        image = vertex_map[sd2.induced.vertex_perm[x]]
        if image != a.vertex_perm[v]:
            raise IsoNotFound(f"{x} goes to {v}, and its image under the twice-induced "
                              f"automorphism to {image}, not to a({v}) = {a.vertex_perm[v]}")


# ---------------------------------------------------------------------------
# dimension vectors
# ---------------------------------------------------------------------------

def project_dim(vprime: DimVec, sd: SplitData) -> dict[str, int]:
    """Push a checked split-quiver dimension vector down to the source quiver.

    The value at a source vertex is the sum over the phases of its orbit,
    so the result is constant along each orbit by construction.
    """
    out: dict[str, int] = {}
    for orbit, slots in zip(sd.orbits.vertex_orbits, sd.orbit_slots):
        total = sum(vprime.get(svid, 0) for svid in slots)
        for v in orbit:
            out[v] = total
    return out


def is_orbit_constant(v: DimVec, od: OrbitData) -> bool:
    return all(len({v.get(x, 0) for x in orbit}) == 1 for orbit in od.vertex_orbits)


def fiber_count(v: DimVec, sd: SplitData) -> int:
    """Closed form for the number of split vectors projecting to v."""
    count = 1
    for orbit in sd.orbits.vertex_orbits:
        e = sd.orbits.e_vertex[orbit[0]]
        count *= _composition_count(v.get(orbit[0], 0), e)
    return count


def fibers_of_p(v: DimVec, sd: SplitData) -> list[dict[str, int]]:
    """All split dimension vectors projecting to a checked v, constant on
    vertex orbits (`cli` checks `--v`), in lexicographic order over the
    canonical split-vertex order."""
    count = fiber_count(v, sd)
    if count > FIBER_CAP:
        raise TooLarge(f"the fiber has {count} split dimension vectors, beyond the cap of {FIBER_CAP}",
                       estimate=count, cap=FIBER_CAP)

    per_orbit = [_compositions(v.get(orbit[0], 0), sd.orbits.e_vertex[orbit[0]])
                 for orbit in sd.orbits.vertex_orbits]
    out = []
    for combo in itertools.product(*per_orbit):
        vec: dict[str, int] = {}
        for slot_ids, parts in zip(sd.orbit_slots, combo):
            for svid, val in zip(slot_ids, parts):
                vec[svid] = val
        out.append(vec)
    return out


def _composition_count(total: int, parts: int) -> int:
    """len(_compositions(total, parts)), without listing them."""
    if parts == 0:
        return int(total == 0)
    return comb(total + parts - 1, parts - 1)


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Weak compositions of total into parts slots, lexicographically."""
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in _compositions(total - first, parts - 1)]


# ---------------------------------------------------------------------------
# framing eigenspace split
# ---------------------------------------------------------------------------

def root_of_unity_eigendims(m: Mat, e: int) -> list[int]:
    """Exact eigenspace dimensions of a square matrix m at the eigenvalues
    exp(2*pi*i*t), t = 0/e, 1/e, ..., (e-1)/e; m need not have finite order.

    Over Q, ker Phi_d(m) is the direct sum of the eigenspaces of the phi(d)
    primitive d-th roots of unity, and these Galois conjugates have equal
    eigenspace dimensions, so the dimension at each is
    nullity(Phi_d(m)) / phi(d); no cyclotomic arithmetic is needed.  Over
    another field the quotient need not be whole, and that is refused.
    """
    dims = []
    by_order: dict[int, int] = {}
    for t in range(e):
        d = e // gcd(t, e)
        if d not in by_order:
            nd = m.poly_eval(list(cyclotomic_poly(d))).nullity()
            phi = sum(gcd(k, d) == 1 for k in range(1, d + 1))
            if nd % phi != 0:
                raise NotDiagonalizableOverCyclotomicEigenvalues(
                    f"kernel of Phi_{d} has dimension {nd}, not a multiple of phi({d})={phi}")
            by_order[d] = nd // phi
        dims.append(by_order[d])
    return dims


class SigmaData(Record):
    """Framing twists sigma_i : W_i -> W_{a(i)} with the around-the-orbit
    composite of exact finite order e_i.

    Construction checks nothing.  It keeps the maps with the orbit data and
    arrow transport of the automorphism, so the module transport theta
    needs nothing else.  `validate` is the entry check, which
    `serialize.sigma_from_dict` runs on every twist read from outside; the
    program's own twists (`identity_sigma`, the generators' draws) are
    valid by construction.  It keeps no inverse: c^e = 1 proves every
    sigma_i invertible, and theta inverts sigma_i only where it moves a
    nonzero I_i.
    """

    __slots__ = ("quiver", "auto", "maps", "orbits", "transport")
    _fields = ("quiver", "auto", "maps")

    def __init__(self, quiver: Quiver, auto: DiagramAutomorphism, maps: Mapping[str, Mat]):
        _setattr(self, "quiver", quiver)
        _setattr(self, "auto", auto)
        _setattr(self, "maps", maps)
        _setattr(self, "orbits", orbit_data(quiver, auto))
        _setattr(self, "transport", arrow_transport(quiver, auto))

    def composite(self, lift: str) -> Mat:
        """c = sigma_{a^(d-1)(lift)} ... sigma_{a(lift)} sigma_lift, the
        plain product around the orbit of lift."""
        perm = self.auto.vertex_perm
        comp, vertex = self.maps[lift], perm[lift]
        while vertex != lift:
            comp = self.maps[vertex] * comp
            vertex = perm[vertex]
        return comp

    def validate(self) -> None:
        """Raise SigmaConstraintViolated unless sigma names each vertex and
        nothing else, every sigma_i is square and lands in a space of its
        own dimension, so w_i, read off as the size of sigma_i, is constant
        on orbits, and c^e is the identity for the composite c at each
        orbit's minimal lift."""
        a, q = self.auto, self.quiver
        stray = next((key for key in self.maps if key not in q.vertex_set), None)
        if stray is not None:
            raise SigmaConstraintViolated(f"sigma names {stray!r}, which is no vertex of the quiver")
        missing = [vertex for vertex in q.vertices if vertex not in self.maps]
        if missing:
            raise SigmaConstraintViolated(f"sigma is missing at {', '.join(missing)}")
        for vertex in q.vertices:
            mat = self.maps[vertex]
            if mat.rows != mat.cols:
                raise SigmaConstraintViolated(
                    f"sigma at {vertex} must be square, not {mat.rows}x{mat.cols}")
            image = a.vertex_perm[vertex]
            if mat.rows != self.maps[image].cols:
                raise SigmaConstraintViolated(
                    f"sigma at {vertex} is {mat.rows}x{mat.cols} but sigma at {image} "
                    f"has {self.maps[image].cols} columns")
        od = self.orbits
        for orbit in od.vertex_orbits:
            lift, e = orbit[0], od.e_vertex[orbit[0]]
            comp = self.composite(lift)
            if comp.power(e) != Mat.identity(comp.rows, comp.p):
                singular = next((v for v in q.vertices if not self.maps[v].is_invertible()), None)
                if singular is not None:
                    raise SigmaConstraintViolated(f"sigma at {singular} is singular")
                raise SigmaConstraintViolated(
                    f"(sigma composite at {lift})^{e} is not the identity")


def identity_sigma(q: Quiver, a: DiagramAutomorphism, wdims: DimVec) -> SigmaData:
    """The identity twists on checked framing dimensions constant on orbits."""
    return SigmaData(q, a, {x: Mat.identity(wdims.get(x, 0)) for x in q.vertices})


def split_framing(sigma: SigmaData, sd: SplitData) -> dict[str, int]:
    """Grade the framing by eigenvalues of the around-the-orbit composite.

    The slot (orbit, j/e) receives the dimension of the eigenvalue
    exp(2*pi*i*(j-1)/e) eigenspace of the composite at the orbit's minimal
    lift (`SigmaData.composite`, the product `SigmaData.validate` checks),
    so identity twists put everything in the j = 1 slot.  The slots of an
    orbit add up to w: c^e = 1, and over Q the polynomial x^e - 1 is
    square-free, so the eigenspaces fill the framing.  sigma twists the
    quiver and automorphism that sd splits, as `cli` builds both from one
    input.
    """
    od = sd.orbits
    out: dict[str, int] = {}
    for orbit, slots in zip(od.vertex_orbits, sd.orbit_slots):
        lift = orbit[0]
        comp = sigma.composite(lift)
        dims = root_of_unity_eigendims(comp, od.e_vertex[lift])
        out.update(zip(slots, dims))
    return out

