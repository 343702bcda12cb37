"""Dimension bookkeeping for quiver varieties and their fixed components."""

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


class ComponentRecord(NamedTuple):
    v_split: Mapping[str, int]
    w_split: Mapping[str, int]
    dim: int
    empty_by_formula: bool

    def to_dict(self) -> dict:
        return {
            "v": dict(sorted(self.v_split.items())),
            "w": dict(sorted(self.w_split.items())),
            "dim": self.dim,
            "empty_by_formula": self.empty_by_formula,
        }


def fixed_components(v: DimVec, sd: SplitData, w_split: DimVec) -> list[ComponentRecord]:
    """One record per split dimension vector projecting to v, a checked
    dimension vector constant on orbits, with the dimension computed on
    the split quiver.

    Negative formula values are flagged rather than clamped; the formula
    says nothing about emptiness on its own."""
    c_split = cartan_from_quiver(sd.split)
    out = []
    for v_split in fibers_of_p(v, sd):
        dim = dim_quiver_variety(v_split, w_split, c_split)
        out.append(ComponentRecord(v_split, dict(w_split), dim, dim < 0))
    return out
