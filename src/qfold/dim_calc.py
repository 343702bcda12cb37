"""Dimension bookkeeping for quiver varieties and their fixed components."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .errors import UnknownVertex
from .lie_fold import CartanMatrix, cartan_from_quiver
from .split_quotient import SplitData, fibers_of_p

DimVec = Mapping[str, int]


def dim_quiver_variety(v: DimVec, w: DimVec, c: CartanMatrix) -> int:
    """2 v.w - v.C.v: the complex dimension of the smooth quiver variety
    attached to (v, w) for the diagram of c."""
    for key in list(v) + list(w):
        if key not in c.labels:
            raise UnknownVertex(f"dimension vector mentions unknown vertex {key}")
    vv = [v.get(x, 0) for x in c.labels]
    ww = [w.get(x, 0) for x in c.labels]
    dot = 2 * sum(a * b for a, b in zip(vv, ww))
    quad = sum(vv[i] * c[i, j] * vv[j] for i in range(c.n) for j in range(c.n))
    return dot - quad


def dim_steinberg(v1: DimVec, v2: DimVec, w: DimVec, c: CartanMatrix) -> Fraction:
    """Half the sum of the two quiver-variety dimensions, kept exact."""
    return Fraction(dim_quiver_variety(v1, w, c) + dim_quiver_variety(v2, w, c), 2)


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
    """One record per split dimension vector projecting to v, with the
    dimension computed on the split quiver.

    Negative formula values are flagged rather than clamped; the formula
    says nothing about emptiness on its own."""
    c_split = cartan_from_quiver(sd.split)
    out = []
    for v_split in fibers_of_p(v, sd):
        dim = dim_quiver_variety(v_split, w_split, c_split)
        out.append(ComponentRecord(v_split, dict(w_split), dim, dim < 0))
    return out
