"""Quiver data model, diagram automorphisms and the doubled quiver.

Vertices and edge ids are opaque strings.  The order of the ``vertices``
tuple is the canonical order used everywhere downstream (orbit labels,
Cartan matrix indexing, JSON output).  Edge direction is arbitrary: the
underlying diagram is what matters, and automorphisms are allowed to
reverse edges.

A diagram automorphism is its vertex and edge permutations and nothing
more, frozen when it is built and hashable by value: `check_automorphism`
refuses a vertex or edge map that is not a permutation, and every derived
value (orbits, whose lengths are the sizes d, the cofactors e and the
order n, the lcm of the orbit sizes) comes from `orbit_data`.
`require_admissible` hands back the orbit data it checked.

The doubled quiver has two arrows per edge e, keyed "e" along it (eps =
+1) and "e*" against it (eps = -1); a `Quiver` lists them once, in
`doubled`, when it is built, with the same arrows by key and by source
vertex.  An automorphism a sends the arrow (e, eps) to (a(e), -eps) if it
reverses e, else to (a(e), eps).  The signed transport multiplies each
arrow h by c(h) c(a(h)), with c = -1 exactly on forward arrows against an
a-invariant orientation (the one agreeing with each edge orbit's first
edge); the signs telescope around every orbit.  Without an invariant
orientation only unsigned modules transport.  No edge id may end in "*".

`orbit_data` and `arrow_transport` depend on the (quiver, automorphism)
pair alone, so each is computed once per pair value, in a bounded cache,
and callers share what it returns: read-only mappings.  Both take the
automorphism as checked: `automorphism()` checks every one read from a
file or built for the corpus, and `identity_automorphism` and
`split_quiver`'s induced map are automorphisms as they are built.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import (
    AmbiguousEdgeMap,
    IncompatibleWithIncidence,
    InputError,
    NotAPermutation,
    NotAdmissible,
)


class Edge(NamedTuple):
    id: str
    src: str
    tgt: str


_setattr = object.__setattr__


class Record:
    """The dunders shared by the slotted records: equality and hash by the
    constructor's fields, `_fields` (two or more), against the same type
    only; a repr of those fields; and no assignment or deletion once built.
    A subclass writes its own `__init__`, which sets each slot through
    `object.__setattr__`, and may add derived slots outside `_fields`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Quiver(Record):
    # derived once from the edges: the doubled quiver's arrows, in order, by
    # key and by source vertex (every vertex, in order), and the vertex set
    __slots__ = ("vertices", "edges", "doubled", "arrows", "leaving", "vertex_set")
    _fields = ("vertices", "edges")

    def __init__(self, vertices: tuple[str, ...], edges: tuple[Edge, ...]):
        _setattr(self, "vertices", vertices)
        _setattr(self, "edges", edges)
        vs = frozenset(vertices)
        if len(vs) != len(vertices):
            raise InputError("duplicate vertex ids")
        ids = [e.id for e in edges]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate edge ids")
        for e in edges:
            if e.src not in vs or e.tgt not in vs:
                raise InputError(f"edge {e.id} uses unknown vertex")
            if e.id.endswith("*"):
                raise InputError(f"edge id {e.id} ends in '*', which keys a reverse arrow")
        doubled = []
        for e in edges:
            doubled.append(ArrowInfo(_doubled_key(e.id, 1), e.id, e.src, e.tgt, 1))
            doubled.append(ArrowInfo(_doubled_key(e.id, -1), e.id, e.tgt, e.src, -1))
        leaving: dict[str, list[ArrowInfo]] = {v: [] for v in vertices}
        for h in doubled:
            leaving[h.src].append(h)
        _setattr(self, "doubled", tuple(doubled))
        _setattr(self, "arrows", MappingProxyType({h.key: h for h in doubled}))
        _setattr(self, "leaving", MappingProxyType({v: tuple(hs) for v, hs in leaving.items()}))
        _setattr(self, "vertex_set", vs)

    def edge(self, edge_id: str) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise InputError(f"unknown edge {edge_id}")

    def edges_between(self, u: str, v: str) -> list[Edge]:
        pair = {u, v}
        return [e for e in self.edges if {e.src, e.tgt} == pair]

    def has_self_loop(self) -> bool:
        return any(e.src == e.tgt for e in self.edges)


def quiver(vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]) -> Quiver:
    return Quiver(tuple(vertices), tuple(Edge(*e) for e in edges))


class DiagramAutomorphism(Record):
    """A vertex map and an edge map, kept as read-only views of private
    copies, so that the value is fixed and can key the pair caches."""

    __slots__ = ("vertex_perm", "edge_perm", "_hash")
    _fields = ("vertex_perm", "edge_perm")

    def __init__(self, vertex_perm: Mapping[str, str], edge_perm: Mapping[str, str]):
        vperm, eperm = dict(vertex_perm), dict(edge_perm)
        _setattr(self, "vertex_perm", MappingProxyType(vperm))
        _setattr(self, "edge_perm", MappingProxyType(eperm))
        _setattr(self, "_hash", hash((frozenset(vperm.items()), frozenset(eperm.items()))))

    def __hash__(self) -> int:
        return self._hash


def check_automorphism(q: Quiver, a: DiagramAutomorphism) -> None:
    """Validate that a is a diagram automorphism of q; raises otherwise.

    Incidence compatibility is taken up to edge reversal, since edge
    directions in the input are arbitrary.
    """
    if sorted(a.vertex_perm) != sorted(q.vertices) or sorted(a.vertex_perm.values()) != sorted(q.vertices):
        raise NotAPermutation("vertex map is not a permutation of the vertex set")
    edge_ids = sorted(e.id for e in q.edges)
    if sorted(a.edge_perm) != edge_ids or sorted(a.edge_perm.values()) != edge_ids:
        raise NotAPermutation("edge map is not a permutation of the edge set")
    for e in q.edges:
        image = q.edge(a.edge_perm[e.id])
        want = {a.vertex_perm[e.src], a.vertex_perm[e.tgt]}
        if {image.src, image.tgt} != want:
            raise IncompatibleWithIncidence(
                f"edge {e.id}: image {image.id} joins {{{image.src},{image.tgt}}}, expected {sorted(want)}"
            )


def derive_edge_perm(q: Quiver, vperm: Mapping[str, str]) -> dict[str, str]:
    """Edge permutation induced by a vertex permutation; fails when parallel
    edges make the image ambiguous."""
    eperm: dict[str, str] = {}
    for e in q.edges:
        candidates = q.edges_between(vperm[e.src], vperm[e.tgt])
        if len(candidates) != 1:
            raise AmbiguousEdgeMap(
                f"edge {e.id}: {len(candidates)} candidate images; supply the edge map explicitly"
            )
        eperm[e.id] = candidates[0].id
    return eperm


def automorphism(q: Quiver, vperm: Mapping[str, str],
                 eperm: Optional[Mapping[str, str]] = None) -> DiagramAutomorphism:
    """Build and validate a diagram automorphism; derives the edge map if omitted."""
    if eperm is None:
        eperm = derive_edge_perm(q, vperm)
    a = DiagramAutomorphism(vperm, eperm)
    check_automorphism(q, a)
    return a


def identity_automorphism(q: Quiver) -> DiagramAutomorphism:
    return DiagramAutomorphism({v: v for v in q.vertices}, {e.id: e.id for e in q.edges})


def is_admissible(q: Quiver, a: DiagramAutomorphism) -> bool:
    """True iff no edge joins two vertices of the same vertex orbit."""
    try:
        require_admissible(q, a)
    except NotAdmissible:
        return False
    return True


def require_admissible(q: Quiver, a: DiagramAutomorphism) -> OrbitData:
    """The orbit data of a, which must be admissible; raises NotAdmissible
    when an edge joins two vertices of one orbit."""
    od = orbit_data(q, a)
    if any(od.orbit_of_vertex[e.src] == od.orbit_of_vertex[e.tgt] for e in q.edges):
        raise NotAdmissible("automorphism joins vertices within an orbit")
    return od


class OrbitData(NamedTuple):
    """The orbits of a on vertices and on edges, n (the lcm of the orbit
    sizes), the cofactor e = n / (orbit size) of each vertex and edge, and
    the index of each vertex's orbit.  An orbit's size is the length of its
    tuple."""

    vertex_orbits: tuple[tuple[str, ...], ...]
    edge_orbits: tuple[tuple[str, ...], ...]
    n: int
    e_vertex: Mapping[str, int]
    e_edge: Mapping[str, int]
    orbit_of_vertex: Mapping[str, int]


def _orbits(items: tuple[str, ...], perm: Mapping[str, str]) -> list[tuple[str, ...]]:
    """Orbits as tuples; members and orbits ordered by canonical position."""
    pos = {x: i for i, x in enumerate(items)}
    seen: set[str] = set()
    orbits = []
    for x in items:
        if x in seen:
            continue
        orbit = []
        y = x
        while y not in orbit:
            orbit.append(y)
            seen.add(y)
            y = perm[y]
        orbits.append(tuple(sorted(orbit, key=pos.__getitem__)))
    return orbits


@lru_cache(maxsize=256)
def orbit_data(q: Quiver, a: DiagramAutomorphism) -> OrbitData:
    """Orbit partition, orbit sizes d, their lcm n, and the cofactors e = n/d
    of a checked automorphism, built once per pair value."""
    vorbs = _orbits(q.vertices, a.vertex_perm)
    eorbs = _orbits(tuple(e.id for e in q.edges), a.edge_perm)
    frozen = MappingProxyType
    n = lcm(*map(len, vorbs), *map(len, eorbs))
    return OrbitData(tuple(vorbs), tuple(eorbs), n,
                     frozen({v: n // len(o) for o in vorbs for v in o}),
                     frozen({e: n // len(o) for o in eorbs for e in o}),
                     frozen({v: i for i, o in enumerate(vorbs) for v in o}))


# ---------------------------------------------------------------------------
# the doubled quiver and its transport
# ---------------------------------------------------------------------------

class ArrowInfo(NamedTuple):
    key: str
    edge: str
    src: str
    tgt: str
    eps: int  # +1 along the edge's direction, -1 against it


def _doubled_key(edge_id: str, eps: int) -> str:
    return edge_id if eps == 1 else edge_id + "*"


def reverse_key(key: str) -> str:
    return key[:-1] if key.endswith("*") else _doubled_key(key, -1)


def _direction_sign(q: Quiver, a: DiagramAutomorphism, e: Edge) -> int:
    """+1 if a maps the edge preserving its direction, -1 if it reverses it."""
    return 1 if q.edge(a.edge_perm[e.id]).src == a.vertex_perm[e.src] else -1


def invariant_orientation(q: Quiver, a: DiagramAutomorphism) -> Optional[dict[str, int]]:
    """Per-edge sign comparing the input orientation with an automorphism
    invariant one (+1 agree, -1 differ), or None when no invariant
    orientation exists (an edge orbit with odd reversal holonomy)."""
    orient: dict[str, int] = {}
    for orbit in orbit_data(q, a).edge_orbits:
        rep = edge = orbit[0]
        orient[rep] = sign = 1
        while True:
            sign *= _direction_sign(q, a, q.edge(edge))
            edge = a.edge_perm[edge]
            if edge == rep:
                break
            orient[edge] = sign
        if sign != 1:
            return None
    return orient


class ArrowTransport(NamedTuple):
    """Where a sends each doubled arrow, by key, and the sign of the signed
    transport on it; `sign` is None when no invariant orientation exists."""

    image: Mapping[str, str]
    sign: Optional[Mapping[str, int]]


@lru_cache(maxsize=256)
def arrow_transport(q: Quiver, a: DiagramAutomorphism) -> ArrowTransport:
    """The transport of the doubled arrows under a, built once per pair value."""
    orient = invariant_orientation(q, a)
    image = {}
    for e in q.edges:
        turn = _direction_sign(q, a, e)
        for eps in (1, -1):
            image[_doubled_key(e.id, eps)] = _doubled_key(a.edge_perm[e.id], eps * turn)
    if orient is None:
        return ArrowTransport(MappingProxyType(image), None)

    def c(key: str) -> int:
        return 1 if key.endswith("*") else orient[key]
    return ArrowTransport(MappingProxyType(image),
                          MappingProxyType({key: c(key) * c(im) for key, im in image.items()}))


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

def a_quiver(n: int) -> Quiver:
    """Type A_n path: vertices 1..n, edges e{i}: i -> i+1."""
    if n < 1:
        raise InputError("A_n needs n >= 1")
    vs = [str(i) for i in range(1, n + 1)]
    es = [(f"e{i}", str(i), str(i + 1)) for i in range(1, n)]
    return quiver(vs, es)


def d_quiver(n: int) -> Quiver:
    """Type D_n: path 1..n-1 plus edge from n-2 to n (fork at n-2).

    n = 2 gives the degenerate two-point diagram, n = 3 the A_3 path in
    fork labelling.
    """
    if n < 2:
        raise InputError("D_n needs n >= 2")
    vs = [str(i) for i in range(1, n + 1)]
    es = [(f"e{i}", str(i), str(i + 1)) for i in range(1, n - 1)]
    if n >= 3:
        es.append((f"e{n - 1}", str(n - 2), str(n)))
    return quiver(vs, es)


def affine_a_quiver(n: int) -> Quiver:
    """Untwisted affine A_n cycle on vertices 0..n; n = 1 is the double edge."""
    if n < 1:
        raise InputError("affine A_n needs n >= 1")
    vs = [str(i) for i in range(n + 1)]
    if n == 1:
        return quiver(vs, [("e0", "0", "1"), ("e1", "0", "1")])
    es = [(f"e{i}", str(i), str((i + 1) % (n + 1))) for i in range(n + 1)]
    return quiver(vs, es)


def affine_d_quiver(n: int) -> Quiver:
    """Untwisted affine D_n on vertices 0..n: forks 0,1 at vertex 2 and
    n-1,n at vertex n-2."""
    if n < 4:
        raise InputError("affine D_n needs n >= 4")
    vs = [str(i) for i in range(n + 1)]
    es = [("e0", "0", "2"), ("e1", "1", "2")]
    es += [(f"e{i}", str(i), str(i + 1)) for i in range(2, n - 2)]
    es += [(f"e{n - 2}", str(n - 2), str(n - 1)), (f"e{n - 1}", str(n - 2), str(n))]
    return quiver(vs, es)


def flip_automorphism(q: Quiver, n: int) -> DiagramAutomorphism:
    """The order-2 flip i -> n+1-i of the A_n path."""
    vperm = {str(i): str(n + 1 - i) for i in range(1, n + 1)}
    return automorphism(q, vperm)


def fork_swap_automorphism(q: Quiver, n: int) -> DiagramAutomorphism:
    """The D_n fork swap exchanging vertices n-1 and n."""
    vperm = {str(i): str(i) for i in range(1, n - 1)}
    vperm[str(n - 1)] = str(n)
    vperm[str(n)] = str(n - 1)
    return automorphism(q, vperm)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

def quiver_to_dict(q: Quiver, a: Optional[DiagramAutomorphism] = None) -> dict:
    out: dict = {
        "vertices": list(q.vertices),
        "edges": [{"id": e.id, "src": e.src, "tgt": e.tgt} for e in q.edges],
    }
    if a is not None:
        out["automorphism"] = {
            "vertices": dict(a.vertex_perm),
            "edges": dict(a.edge_perm),
        }
    return out


def _is_id_map(obj) -> bool:
    return isinstance(obj, dict) and all(isinstance(x, str) for x in obj.values())


def quiver_from_dict(d: Mapping) -> tuple[Quiver, Optional[DiagramAutomorphism]]:
    try:
        vertices = d["vertices"]
        edges = [(e["id"], e["src"], e["tgt"]) for e in d["edges"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed quiver JSON: {exc}") from exc
    ids = [x for edge in edges for x in edge]
    if not isinstance(vertices, list) or not all(isinstance(x, str) for x in vertices + ids):
        raise InputError('malformed quiver JSON: "vertices" must be a list and every id a string')
    q = quiver(vertices, edges)
    a = None
    block = d.get("automorphism")
    if block is not None:
        if not isinstance(block, dict) or not _is_id_map(block.get("vertices")) \
                or not (block.get("edges") is None or _is_id_map(block["edges"])):
            raise InputError('malformed automorphism JSON: "vertices" and "edges" must '
                             'map ids to ids')
        try:
            a = automorphism(q, block["vertices"], block.get("edges"))
        except KeyError as exc:
            raise NotAPermutation(f"the automorphism does not permute the ids (at {exc})") from None
    return q, a
