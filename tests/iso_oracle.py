"""The former index-bijection search, kept as the oracle of the checks
that replaced it: `qfold.lie_fold` reads each Cartan type off its diagram
(`cartan_oracle`), and `split_quotient.split_involution_check` checks the
natural map from s(s(Q)) to Q instead of searching for an isomorphism.

A search that could reach more than INDEX_SEARCH_CAP assignments is
refused with TooLarge before it starts.
"""

from typing import Iterator, Optional, Sequence

from qfold.errors import TooLarge
from qfold.quiver_core import DiagramAutomorphism, Quiver
from qfold.split_quotient import split_quiver

# a full search reaches about 170,000 assignments a second (all 3,628,800
# of ten unlinked indices in 21 s on one core of a 2-CPU Xeon), so the
# cap bounds a search to about 6 s
INDEX_SEARCH_CAP = 10 ** 6


def index_isomorphisms(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
                       ) -> Iterator[tuple[int, ...]]:
    """Every index bijection p, as a tuple, with a[i][j] == b[p[i]][p[j]]
    for two square integer matrices; the search behind `graph_isomorphisms`
    (on adjacency matrices) and the former Cartan classifier.

    Index i goes only to an index t of b with the same diagonal entry and
    the same multiset of off-diagonal pairs (a[i][j], a[j][i]).  The most
    constrained index is placed next: the most nonzero links to indices
    already placed, then the fewest candidates.

    TooLarge is raised before the search when its estimate, the number of
    full assignments it can reach, exceeds INDEX_SEARCH_CAP.  An index has
    at most as many images as it has candidates not taken by the placed
    indices, and, if it is linked to a placed index j, at most as many as
    p[j] has links not yet taken: as many as j has, less those to placed
    indices.
    """
    n = len(a)
    if len(b) != n:
        return

    def profiles(m):
        return [(m[i][i], sorted((m[i][j], m[j][i]) for j in range(n) if j != i))
                for i in range(n)]

    pa, pb = profiles(a), profiles(b)
    if sorted(pa) != sorted(pb):
        return
    candidates = [[t for t in range(n) if pb[t] == pa[i]] for i in range(n)]
    linked = [[j for j in range(n) if j != i and (a[i][j] or a[j][i])] for i in range(n)]
    order: list[int] = []
    links = [0] * n
    estimate = 1
    for _ in range(n):
        i = min(set(range(n)) - set(order), key=lambda i: (-links[i], len(candidates[i]), i))
        taken = sum(pa[j] == pa[i] for j in order)
        estimate *= min([len(candidates[i]) - taken]
                        + [len(linked[j]) - links[j] for j in linked[i] if j in order])
        order.append(i)
        for j in linked[i]:
            links[j] += 1
    if estimate > INDEX_SEARCH_CAP:
        raise TooLarge(f"the index search may reach {estimate} assignments, beyond the cap "
                       f"of {INDEX_SEARCH_CAP}", estimate=estimate, cap=INDEX_SEARCH_CAP)

    image, used = [0] * n, [False] * n

    def extend(k: int) -> Iterator[tuple[int, ...]]:
        if k == n:
            yield tuple(image)
            return
        i = order[k]
        for t in candidates[i]:
            if not used[t] and all(a[i][j] == b[t][image[j]] and a[j][i] == b[image[j]][t]
                                   for j in order[:k]):
                image[i] = t
                used[t] = True
                yield from extend(k + 1)
                used[t] = False

    yield from extend(0)


def graph_isomorphisms(q1: Quiver, q2: Quiver) -> Iterator[dict[str, str]]:
    """All undirected diagram isomorphisms q1 -> q2 (multiplicity preserving):
    the index bijections between their adjacency matrices, which count
    the edges joining two vertices, with loops on the diagonal."""
    def adjacency(q: Quiver) -> list[list[int]]:
        pos = {v: i for i, v in enumerate(q.vertices)}
        adj = [[0] * len(pos) for _ in pos]
        for e in q.edges:
            adj[pos[e.src]][pos[e.tgt]] += 1
            adj[pos[e.tgt]][pos[e.src]] += e.src != e.tgt
        return adj

    for p in index_isomorphisms(adjacency(q1), adjacency(q2)):
        yield {v: q2.vertices[p[i]] for i, v in enumerate(q1.vertices)}


def split_involution(q: Quiver, a: DiagramAutomorphism) -> Optional[dict[str, str]]:
    """The former `split_involution_check`'s verdict: the first isomorphism
    s(s(Q)) -> Q the search finds that carries the twice-induced
    automorphism onto a, or None when there is none."""
    sd = split_quiver(q, a)
    sd2 = split_quiver(sd.split, sd.induced)
    for iso in graph_isomorphisms(sd2.split, q):
        if all(iso[sd2.induced.vertex_perm[x]] == a.vertex_perm[iso[x]] for x in iso):
            return iso
    return None
