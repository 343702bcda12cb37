"""Dimension bookkeeping for quiver varieties and their fixed components.

The dimension says nothing about emptiness on its own; `is_empty` decides
it by a walk of simple reflections that reads only the rows of C, so it
answers on any diagram, affine included.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .lie_fold import CartanMatrix, cartan_from_quiver
from .split_quotient import SplitData, fibers_of_p

DimVec = Mapping[str, int]


def dim_quiver_variety(v: DimVec, w: DimVec, c: CartanMatrix) -> int:
    """2 v.w - v.C.v: the complex dimension of the smooth quiver variety
    attached to (v, w), keyed by the labels of c, for the diagram of c."""
    vv = [v.get(x, 0) for x in c.labels]
    ww = [w.get(x, 0) for x in c.labels]
    dot = 2 * sum(a * b for a, b in zip(vv, ww))
    quad = sum(vv[i] * c[i, j] * vv[j] for i in range(c.n) for j in range(c.n))
    return dot - quad


def is_empty(v: DimVec, w: DimVec, c: CartanMatrix) -> bool:
    """M(v, w) on the diagram of c is nonempty exactly when mu = w - sum_j
    v_j alpha_j, alpha_j row j of c, is a weight of L(w) (Nakajima, Duke
    Math. J. 91, 1998).  s_i sends mu to mu - mu_i alpha_i, and v_i to
    v_i + mu_i, and keeps a weight a weight.  So while some mu_i < 0, the
    walk adds it to v_i: a v_i < 0 is no weight.  A dominant mu with v >= 0
    is one when each linked part of supp v meets supp w; on the rest every
    f_i kills the top vector (Kac, Infinite-dimensional Lie algebras,
    Prop. 11.2).  Each step lowers sum(v), so the walk ends."""
    vv, ww = ([d.get(x, 0) for x in c.labels] for d in (v, w))
    mu = [ww[i] - sum(vv[j] * c[j, i] for j in range(c.n)) for i in range(c.n)]
    while any(a < 0 for a in mu):
        i = next(i for i, a in enumerate(mu) if a < 0)
        vv[i] += mu[i]
        if vv[i] < 0:
            return True
        mu = [b - mu[i] * c[i, k] for k, b in enumerate(mu)]
    reached = [i for i in range(c.n) if vv[i] and ww[i]]
    for i in reached:  # grows while it is read
        reached += [k for k in range(c.n) if vv[k] and c[i, k] and k not in reached]
    return len(reached) < sum(map(bool, vv))


class ComponentRecord(NamedTuple):
    v_split: Mapping[str, int]
    w_split: Mapping[str, int]
    dim: int
    empty: bool

    def to_dict(self) -> dict:
        return {
            "v": dict(sorted(self.v_split.items())),
            "w": dict(sorted(self.w_split.items())),
            "dim": self.dim,
            "empty": self.empty,
        }


def fixed_components(v: DimVec, sd: SplitData, w_split: DimVec) -> list[ComponentRecord]:
    """One record per split dimension vector projecting to v, a checked
    dimension vector constant on orbits, with the dimension and emptiness
    of its variety on the split quiver."""
    c_split = cartan_from_quiver(sd.split)
    return [ComponentRecord(v_split, dict(w_split), dim_quiver_variety(v_split, w_split, c_split),
                            is_empty(v_split, w_split, c_split))
            for v_split in fibers_of_p(v, sd)]
