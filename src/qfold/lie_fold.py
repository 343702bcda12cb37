"""Cartan matrices, finite/affine type recognition, and diagram folding.

Convention: the stored Cartan matrix c has c[i][j] = alpha_i(h_j), so the
bracket [H_i, E_j] scales E_j by c[j][i] and the Serre relation for the
pair (i, j) reads ad(E_i)^(1 - c[j][i])(E_j) = 0.  Folding sums each row
over the column orbit at a fixed row representative; with this convention
the flip of A_3 yields [[2,-1],[-2,2]], which is the Bourbaki C_2 matrix.

A type is read off the diagram in one pass, component by component, with
no search and no elimination: a finite or affine Dynkin diagram is fixed by
its bonds, vertex degrees and arrow directions (Kac, Infinite-dimensional
Lie algebras, 4.8).  `classify_cartan` names a connected diagram, and a
matrix is of finite type when every component is.

Chevalley generators are built from the Cartan matrix alone, on the
minuscule module of its first index (R. M. Green, Combinatorics of
Minuscule Representations, Cambridge Tracts 199, 2013); `serre_check`
returns the relations they break.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from .errors import (
    NotFiniteType,
    NotSymmetrizable,
    SelfLoop,
    UnsupportedFamily,
)
from .linalg import Mat, sum_of_products
from .quiver_core import (DiagramAutomorphism, Quiver, Record, _orbits, _setattr, a_quiver,
                          d_quiver)


class CartanMatrix(Record):
    """A generalized Cartan matrix over its labels, taken as built: square,
    2 on the diagonal, the other entries <= 0 with a symmetric zero
    pattern.  Only the program builds one (`cartan_from_quiver`,
    `fold_cartan`, `canonical_cartan`, and the folded-generators property's
    transpose), so the constructor checks nothing."""

    __slots__ = _fields = ("labels", "entries")

    def __init__(self, labels: tuple[str, ...], entries: tuple[tuple[int, ...], ...]):
        _setattr(self, "labels", labels)
        _setattr(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.labels)

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i][j]


def cartan_matrix(entries: Sequence[Sequence[int]],
                  labels: Optional[Sequence[str]] = None) -> CartanMatrix:
    if labels is None:
        labels = [str(i + 1) for i in range(len(entries))]
    return CartanMatrix(tuple(labels), tuple(tuple(int(x) for x in r) for r in entries))


def cartan_from_quiver(q: Quiver) -> CartanMatrix:
    """2*Id minus the adjacency matrix of the underlying diagram."""
    if q.has_self_loop():
        raise SelfLoop("Cartan matrix undefined for quivers with self-loops")
    n = len(q.vertices)
    idx = {v: i for i, v in enumerate(q.vertices)}
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for e in q.edges:
        i, j = idx[e.src], idx[e.tgt]
        m[i][j] -= 1
        m[j][i] -= 1
    return cartan_matrix(m, q.vertices)


# ---------------------------------------------------------------------------
# the diagram: components, symmetrizer and type labels
# ---------------------------------------------------------------------------

def _reach(links: list[list[int]], start: int) -> dict[int, int]:
    """The indices linked to start, in the order reached, with their distances."""
    order, depth = [start], {start: 0}
    for i in order:
        for j in links[i]:
            if j not in depth:
                depth[j] = depth[i] + 1
                order.append(j)
    return depth


def _components(c: CartanMatrix) -> tuple[list[list[int]], list[list[int]]]:
    """Each index's neighbours in the diagram, and the connected components,
    each reached from its least index."""
    links = [[j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(c.entries)]
    comps: list[list[int]] = []
    for start in range(c.n):
        if all(start not in comp for comp in comps):
            comps.append(list(_reach(links, start)))
    return links, comps


def symmetrizer(c: CartanMatrix) -> tuple[int, ...]:
    """Positive integers d with c[i][j]*d[j] == c[j][i]*d[i], minimal per
    connected component."""
    links, comps = _components(c)
    d: list[Optional[Fraction]] = [None] * c.n
    for comp in comps:
        d[comp[0]] = Fraction(1)
        for i in comp:  # each index is reached from one already set
            for j in links[i]:
                # want d[i]*c[j][i] == d[j]*c[i][j]
                val = d[i] * Fraction(c[j, i], c[i, j])
                if d[j] is None:
                    d[j] = val
                elif d[j] != val:
                    raise NotSymmetrizable("inconsistent symmetrizer along a cycle")
        scale = lcm(*(d[k].denominator for k in comp))
        scaled = [int(d[k] * scale) for k in comp]
        g = gcd(*scaled)
        for k, x in zip(comp, scaled):
            d[k] = Fraction(x // g)
    return tuple(int(x) for x in d)


# the finite families, and the ranks `canonical_cartan` builds each at
_RANK_OK = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


class TypeLabel(NamedTuple):
    family: str  # a finite family, "affine-A", "affine-D" or "other"
    rank: int

    def __str__(self):
        return f"{self.family}{self.rank}"


def canonical_cartan(family: str, rank: int) -> CartanMatrix:
    """Bourbaki-numbered Cartan matrix of a finite family, in the row
    convention of this module (c[i][j] = alpha_i(h_j))."""
    if not _RANK_OK.get(family, lambda n: False)(rank):
        raise UnsupportedFamily(f"{family}{rank}")
    n = rank
    if family == "A":
        return cartan_from_quiver(a_quiver(n))
    if family == "D":
        return cartan_from_quiver(d_quiver(n))
    if family in ("B", "C"):
        m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n - 1):
            m[i][i + 1] = m[i + 1][i] = -1
        if family == "B":
            m[n - 2][n - 1] = -2  # last simple root short
        else:
            m[n - 1][n - 2] = -2  # last simple root long
        return cartan_matrix(m)
    if family == "E":
        # Bourbaki: chain 1-3-4-5-6(-7-8), vertex 2 hangs off 4
        pairs = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        pairs += [(6, 7)] if n >= 7 else []
        pairs += [(7, 8)] if n >= 8 else []
        m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in pairs:
            m[i - 1][j - 1] = m[j - 1][i - 1] = -1
        return cartan_matrix(m)
    if family == "F":
        m = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
        return cartan_matrix(m)
    return cartan_matrix([[2, -1], [-3, 2]])  # G2, the family left


def _component_type(c: CartanMatrix, links: list[list[int]], comp: list[int]) -> TypeLabel:
    """The type of the connected diagram on the indices comp (least first),
    read off its bonds c[i][j]*c[j][i], degrees and arms (Kac, Tables Fin
    and Aff 1).  Affine A is the simply laced cycle, or the bond (-2, -2).
    A finite diagram is a tree.  A simply laced tree is A (a path), D or E
    (one fork, arms of (1, 1, k) or (1, 2, 2..4) vertices) or affine D
    (four leaves, each on a fork).  One double bond on a path is F4 in the
    middle of four vertices, and B or C at an end: B when the end's
    neighbour has the -2 in its row.  At rank 2 the later index is the
    end, so [[2,-1],[-2,2]] is C2 and [[2,-2],[-1,2]] is B2."""
    n, e = len(comp), c.entries
    bonds = {(i, j): e[i][j] * e[j][i] for i in comp for j in links[i] if i < j}
    products = sorted(bonds.values())
    degree = {i: len(links[i]) for i in comp}
    leaves = [i for i in comp if degree[i] == 1]
    if products == [1] * n and not leaves:
        return TypeLabel("affine-A", n - 1)
    if len(bonds) != n - 1:  # not a tree
        return TypeLabel("other", n)
    forks = [i for i in comp if degree[i] > 2]
    if products == [1] * (n - 1):
        if not forks:
            return TypeLabel("A", n)
        if len(leaves) == 4 and all(degree[links[i][0]] > 2 for i in leaves):
            return TypeLabel("affine-D", n - 1)
        depth = _reach(links, forks[0])
        arms = sorted(depth[i] for i in leaves)
        if len(arms) == 3 and (arms[:2] == [1, 1] or (arms[:2] == [1, 2] and arms[2] <= 4)):
            return TypeLabel("D" if arms[1] == 1 else "E", n)
    elif products == [3] and n == 2:
        return TypeLabel("G", 2)
    elif products == [4] and n == 2 and e[comp[0]][comp[1]] == -2:
        return TypeLabel("affine-A", 1)
    elif products[-2:] in ([2], [1, 2]) and not forks:
        i, j = next(ij for ij, p in bonds.items() if p == 2)
        end, inner = (j, i) if degree[j] == 1 else (i, j)
        if degree[end] == 1:
            return TypeLabel("B" if e[inner][end] == -2 else "C", n)
        if n == 4:
            return TypeLabel("F", 4)
    return TypeLabel("other", n)


def _diagram_types(c: CartanMatrix) -> list[TypeLabel]:
    """The type of each connected component of c's diagram."""
    links, comps = _components(c)
    return [_component_type(c, links, comp) for comp in comps]


def is_finite_type(c: CartanMatrix) -> bool:
    """Every component of the diagram is of finite type."""
    return all(t.family in _RANK_OK for t in _diagram_types(c))


def classify_cartan(c: CartanMatrix) -> TypeLabel:
    """The finite, affine-A or affine-D type of a connected diagram;
    "other" for any other diagram, a disconnected one included."""
    types = _diagram_types(c)
    return types[0] if len(types) == 1 else TypeLabel("other", c.n)


# ---------------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------------

class FoldedAlgebraData(NamedTuple):
    base: CartanMatrix
    orbits: tuple[tuple[str, ...], ...]
    folded: CartanMatrix


def fold_cartan(c: CartanMatrix, a: DiagramAutomorphism) -> FoldedAlgebraData:
    """Cartan matrix of the automorphism-fixed subalgebra.

    c is the Cartan matrix of a quiver and a a checked, admissible
    automorphism of it, so no orbit holds a bond and
    c[i][j] = c[a(i)][a(j)].  `fold` and `branch` run `split_quiver`, and
    with it `require_admissible`, first (the induced map of an admissible
    pair is admissible on the split quiver, since each split edge joins two
    orbits of the base), and the properties fold admissible flips and swaps.
    Folded entry at (orbit I, orbit J) is sum over k in J of c[i0][k] for
    the orbit's first member i0; by that invariance every member of I gives
    the same row.
    """
    pos = {v: i for i, v in enumerate(c.labels)}
    orbits = _orbits(c.labels, a.vertex_perm)
    folded_entries = []
    for orb_i in orbits:
        rep = orb_i[0]
        folded_entries.append([sum(c[pos[rep], pos[k]] for k in orb_j) for orb_j in orbits])
    folded = cartan_matrix(folded_entries, [orb[0] for orb in orbits])
    return FoldedAlgebraData(c, tuple(orbits), folded)


# ---------------------------------------------------------------------------
# Chevalley generators on a minuscule module
# ---------------------------------------------------------------------------

def minuscule_generators(c: CartanMatrix) -> tuple[list[Mat], list[Mat]]:
    """E_i and F_i on L(w), w the fundamental weight of c's first index,
    which must be minuscule.

    The weights are one Weyl orbit, each once, listed breadth first from w
    by the steps mu -> mu - alpha_i where mu_i = 1 (alpha_i is row i of c).
    F_i sends v_mu along each such step and E_i sends it back; every other
    entry is 0.  On the labels of `a_quiver` and `d_quiver`, L(w_1) is the
    defining representation.
    """
    if not is_finite_type(c):
        raise NotFiniteType("operation requires a finite-type Cartan matrix")
    weights = [tuple(int(k == 0) for k in range(c.n))]
    index = {weights[0]: 0}
    steps: list[list[tuple[int, int]]] = [[] for _ in range(c.n)]  # F_i's (source, target)
    for col, mu in enumerate(weights):
        for i, x in enumerate(mu):
            if x not in (-1, 0, 1):
                raise UnsupportedFamily(f"the fundamental weight at {c.labels[0]} is not minuscule")
            if x == 1:
                nu = tuple(m - a for m, a in zip(mu, c.entries[i]))
                if nu not in index:
                    index[nu] = len(weights)
                    weights.append(nu)
                steps[i].append((col, index[nu]))
    size = len(weights)
    F = []
    for pairs in steps:
        f = [[0] * size for _ in range(size)]
        for col, row in pairs:
            f[row][col] = 1
        F.append(Mat(size, size, f))
    return [f.transpose() for f in F], F


def folded_generators(fold: FoldedAlgebraData) -> tuple[list[Mat], list[Mat], list[Mat]]:
    """Orbit sums E_I, F_I and H_I = [E_I, F_I] of the Chevalley generators of
    fold.base on its minuscule module, in the index order of fold.folded."""
    E, F = minuscule_generators(fold.base)
    pos = {v: i for i, v in enumerate(fold.base.labels)}
    Ef, Ff, Hf = [], [], []
    for orb in fold.orbits:
        first, *rest = [pos[v] for v in orb]
        Ef.append(sum((E[k] for k in rest), E[first]))
        Ff.append(sum((F[k] for k in rest), F[first]))
        Hf.append(_comm(Ef[-1], Ff[-1]))
    return Ef, Ff, Hf


# ---------------------------------------------------------------------------
# Serre-type relation checking
# ---------------------------------------------------------------------------

class SerreViolation(NamedTuple):
    kind: str  # "hh" | "he" | "hf" | "ef" | "serre"
    i: int
    j: int


def _comm(a: Mat, b: Mat) -> Mat:
    return sum_of_products(((1, a, b), (-1, b, a)))


def serre_check(c: CartanMatrix, E: Sequence[Mat], F: Sequence[Mat], H: Sequence[Mat]
                ) -> tuple[SerreViolation, ...]:
    """Check that (E, F, H) present the algebra with Cartan matrix c.

    Relations, in the convention of this module:
      [H_i, H_j] = 0
      [H_i, E_j] =  c[j][i] E_j     [H_i, F_j] = -c[j][i] F_j
      [E_i, F_j] = delta_ij H_i
      ad(E_i)^(1 - c[j][i]) E_j = 0 and the same for F (i != j).
    E, F and H each hold c.n square matrices of one size, as
    `folded_generators` builds them.  All relations are evaluated; every
    violation is returned, none on a pass.  [H_i, H_j] is formed for i < j
    only, as [H_i, H_i] = 0 and [H_j, H_i] = -[H_i, H_j].
    """
    n = c.n
    apart = {(i, j) for i in range(n) for j in range(i + 1, n)
             if not _comm(H[i], H[j]).is_zero()}
    bad = [SerreViolation("hh", i, j) for i in range(n) for j in range(n)
           if (min(i, j), max(i, j)) in apart]
    for i in range(n):
        for j in range(n):
            if not (_comm(H[i], E[j]) - E[j].scaled(c[j, i])).is_zero():
                bad.append(SerreViolation("he", i, j))
            if not (_comm(H[i], F[j]) + F[j].scaled(c[j, i])).is_zero():
                bad.append(SerreViolation("hf", i, j))
    for i in range(n):
        for j in range(n):
            ef = _comm(E[i], F[j])
            if not (ef - H[i] if i == j else ef).is_zero():
                bad.append(SerreViolation("ef", i, j))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for gens in (E, F):
                x = gens[j]
                for _ in range(1 - c[j, i]):
                    x = _comm(gens[i], x)
                if not x.is_zero():
                    bad.append(SerreViolation("serre", i, j))
    return tuple(bad)
