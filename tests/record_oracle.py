"""The frozen dataclasses that qfold's records used to be, kept as the
oracle of the NamedTuples and slotted classes that replaced them: each
class here has the name, the fields, the defaults and the constructor
checks of its successor, as the dataclass machinery built them.  The
checks of `FramedModule` are those of `module_lab.framed_module`, the one
place that checks a module, and those of `SigmaData` are those of
`split_quotient.SigmaData.validate`, the entry check of a twist; neither
new record checks anything when it is built.  Both oracles keep their
checks in their constructors, as the dataclasses did.

A field typed by a qfold record holds the new record; only the outermost
type is old.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

from qfold import lie_fold, quiver_core, split_quotient
from qfold.errors import InputError, ShapeMismatch, SigmaConstraintViolated
from qfold.linalg import Mat
from qfold.quiver_core import ArrowInfo, ArrowTransport, Edge, _doubled_key


# -- quiver_core -----------------------------------------------------------

@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    doubled: tuple[ArrowInfo, ...] = field(init=False, repr=False, compare=False)
    arrows: Mapping[str, ArrowInfo] = field(init=False, repr=False, compare=False)
    leaving: Mapping[str, tuple[ArrowInfo, ...]] = field(init=False, repr=False, compare=False)
    vertex_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vs = frozenset(self.vertices)
        if len(vs) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate edge ids")
        for e in self.edges:
            if e.src not in vs or e.tgt not in vs:
                raise InputError(f"edge {e.id} uses unknown vertex")
        doubled = []
        for e in self.edges:
            doubled.append(ArrowInfo(_doubled_key(e.id, 1), e.id, e.src, e.tgt, 1))
            doubled.append(ArrowInfo(_doubled_key(e.id, -1), e.id, e.tgt, e.src, -1))
        leaving: dict[str, list[ArrowInfo]] = {v: [] for v in self.vertices}
        for h in doubled:
            leaving[h.src].append(h)
        object.__setattr__(self, "doubled", tuple(doubled))
        object.__setattr__(self, "arrows", MappingProxyType({h.key: h for h in doubled}))
        object.__setattr__(self, "leaving", MappingProxyType(
            {v: tuple(hs) for v, hs in leaving.items()}))
        object.__setattr__(self, "vertex_set", vs)


@dataclass(frozen=True)
class DiagramAutomorphism:
    vertex_perm: Mapping[str, str]
    edge_perm: Mapping[str, str]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vperm, eperm = dict(self.vertex_perm), dict(self.edge_perm)
        object.__setattr__(self, "vertex_perm", MappingProxyType(vperm))
        object.__setattr__(self, "edge_perm", MappingProxyType(eperm))
        object.__setattr__(self, "_hash", hash((frozenset(vperm.items()), frozenset(eperm.items()))))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class OrbitData:
    vertex_orbits: tuple[tuple[str, ...], ...]
    edge_orbits: tuple[tuple[str, ...], ...]
    n: int
    e_vertex: Mapping[str, int]
    e_edge: Mapping[str, int]
    orbit_of_vertex: Mapping[str, int]


# -- lie_fold --------------------------------------------------------------

@dataclass(frozen=True)
class CartanMatrix:
    labels: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise InputError("Cartan matrix must be square over its labels")
        for i in range(n):
            if self.entries[i][i] != 2:
                raise InputError(f"diagonal entry at {self.labels[i]} must be 2")
            for j in range(n):
                if i != j:
                    if self.entries[i][j] > 0:
                        raise InputError("off-diagonal Cartan entries must be <= 0")
                    if (self.entries[i][j] == 0) != (self.entries[j][i] == 0):
                        raise InputError("zero pattern must be symmetric")


@dataclass(frozen=True)
class TypeLabel:
    family: str
    rank: int


@dataclass(frozen=True)
class FoldedAlgebraData:
    base: lie_fold.CartanMatrix
    orbits: tuple[tuple[str, ...], ...]
    folded: lie_fold.CartanMatrix


@dataclass(frozen=True)
class SerreViolation:
    kind: str
    i: int
    j: int


# -- rep_branch, corpus, dim_calc ------------------------------------------

@dataclass(frozen=True)
class RootDatum:
    rows: tuple[tuple[tuple[int, int], ...], ...]
    d: tuple[int, ...]
    roots: tuple[tuple[int, ...], ...]
    fund: tuple[tuple[int, ...], ...]
    paired: tuple[tuple[int, ...], ...]
    norm: tuple[int, ...]
    rho_product: int
    reflect: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    quiver: quiver_core.Quiver
    auto: quiver_core.DiagramAutomorphism
    admissible: bool


@dataclass(frozen=True)
class ComponentRecord:
    v_split: Mapping[str, int]
    w_split: Mapping[str, int]
    dim: int
    empty: bool


# -- split_quotient --------------------------------------------------------

@dataclass(frozen=True)
class SplitVertex:
    orbit: tuple[str, ...]
    j: int
    e: int


@dataclass(frozen=True)
class SplitData:
    orbits: quiver_core.OrbitData
    split: quiver_core.Quiver
    induced: quiver_core.DiagramAutomorphism
    vertex_table: Mapping[str, split_quotient.SplitVertex]
    orbit_slots: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class SigmaData:
    quiver: quiver_core.Quiver
    auto: quiver_core.DiagramAutomorphism
    maps: Mapping[str, Mat]
    orbits: quiver_core.OrbitData = field(init=False, repr=False, compare=False)
    transport: ArrowTransport = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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
        od = quiver_core.orbit_data(q, a)
        for orbit in od.vertex_orbits:
            lift, e = orbit[0], od.e_vertex[orbit[0]]
            comp, vertex = self.maps[lift], a.vertex_perm[lift]
            while vertex != lift:
                comp = self.maps[vertex] * comp
                vertex = a.vertex_perm[vertex]
            if comp.power(e) != Mat.identity(comp.rows, comp.p):
                singular = next((v for v in q.vertices if not self.maps[v].is_invertible()), None)
                if singular is not None:
                    raise SigmaConstraintViolated(f"sigma at {singular} is singular")
                raise SigmaConstraintViolated(
                    f"(sigma composite at {lift})^{e} is not the identity")
        object.__setattr__(self, "orbits", od)
        object.__setattr__(self, "transport", quiver_core.arrow_transport(q, a))


# -- module_lab ------------------------------------------------------------

@dataclass(frozen=True, eq=True)
class FramedModule:
    quiver: quiver_core.Quiver
    v: Mapping[str, int]
    w: Mapping[str, int]
    B: Mapping[str, Mat]
    I: Mapping[str, Mat]
    J: Mapping[str, Mat]
    signed: bool = True

    def __post_init__(self):
        q = self.quiver
        for name, block in (("v", self.v), ("w", self.w), ("B", self.B),
                            ("I", self.I), ("J", self.J)):
            for key in block:
                if key not in (q.arrows if name == "B" else q.vertex_set):
                    kind = "doubled arrow" if name == "B" else "vertex"
                    raise ShapeMismatch(f"{name} names {key!r}, which is no {kind} of the quiver")
        for vertex in q.vertices:
            if self.v.get(vertex, 0) < 0 or self.w.get(vertex, 0) < 0:
                raise ShapeMismatch(f"negative dimension at {vertex}")
        for info in q.doubled:
            m = self.B.get(info.key)
            if m is None:
                raise ShapeMismatch(f"missing arrow matrix {info.key}")
            if m.rows != self.v.get(info.tgt, 0) or m.cols != self.v.get(info.src, 0):
                raise ShapeMismatch(
                    f"B[{info.key}] is {m.rows}x{m.cols}, expected "
                    f"{self.v.get(info.tgt, 0)}x{self.v.get(info.src, 0)}"
                )
        for vertex in q.vertices:
            iv, wv = self.v.get(vertex, 0), self.w.get(vertex, 0)
            im, jm = self.I.get(vertex), self.J.get(vertex)
            if im is None or jm is None:
                raise ShapeMismatch(f"missing framing matrix at {vertex}")
            if im.rows != iv or im.cols != wv:
                raise ShapeMismatch(f"I[{vertex}] must be {iv}x{wv}")
            if jm.rows != wv or jm.cols != iv:
                raise ShapeMismatch(f"J[{vertex}] must be {wv}x{iv}")


@dataclass(frozen=True)
class TransitionWitness:
    g: Mapping[str, Mat]
    summand_swap: bool = False


@dataclass(frozen=True)
class EigenInclusionReport:
    ok: bool
    vertex: Optional[str] = None
    eigenvalue: Optional[str] = None
    vector: Optional[tuple[str, ...]] = None
