"""Finite-type characters and branching to a folded subalgebra.

Weights are integer tuples in the fundamental-weight basis of a fixed
CartanMatrix (same index order as its labels).  Roots are integer tuples
in the simple-root basis.  With the module's Cartan convention the
fundamental coordinates of the simple root alpha_j are row j of the
matrix, and the simple reflection acts by
s_i(lambda)_k = lambda_k - lambda_i * c[i][k].

The dominant weights below a highest weight are reached from it by
positive-root steps that stay dominant (Stembridge, "The partial order of
dominant weights", 1998), carrying lam - mu along as integer simple-root
coordinates, so neither the Freudenthal recursion nor branching needs an
inverse Cartan matrix.

Branching restricts the full character of L(lam) along orbit sums of
Cartan elements and keeps it at the folded-dominant weights only: both the
restriction and every folded character are invariant under the folded Weyl
group, so stripping highest weights in one pass in integer depth order
needs the folded characters at their dominant weights alone, never spread
over orbits.  This is slower than crystal combinatorics but independently
checkable against the Weyl dimension formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import (
    CharacterMismatch,
    DimensionCapExceeded,
    IndexMismatch,
    NotDominant,
    NotFiniteType,
    NotInvariantWeight,
    StrippingFailure,
    UnknownVertex,
)
from .lie_fold import CartanMatrix, FoldedAlgebraData, is_finite_type, symmetrizer
from .quiver_core import Quiver

Weight = tuple[int, ...]
Root = tuple[int, ...]
Character = dict[Weight, int]

DEFAULT_DIM_CAP = 100_000


@dataclass(frozen=True)
class RootSystem:
    cartan: CartanMatrix
    positive_roots: tuple[Root, ...]


def _require_finite(c: CartanMatrix) -> None:
    if not is_finite_type(c):
        raise NotFiniteType("operation requires a finite-type Cartan matrix")


def _reflect_root(c: CartanMatrix, beta: Root, i: int) -> Root:
    pairing = sum(beta[k] * c[k, i] for k in range(c.n))
    out = list(beta)
    out[i] -= pairing
    return tuple(out)


@lru_cache(maxsize=256)
def positive_roots(c: CartanMatrix) -> RootSystem:
    """All positive roots by closure of the simple roots under reflections."""
    _require_finite(c)
    n = c.n
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(n):
                img = _reflect_root(c, beta, i)
                if all(x >= 0 for x in img) and any(img) and img not in roots:
                    roots.add(img)
                    new.append(img)
        frontier = new
    ordered = sorted(roots, key=lambda r: (sum(r), r))
    return RootSystem(c, tuple(ordered))


def reflect_weight(c: CartanMatrix, lam: Weight, i: int) -> Weight:
    return tuple(lam[k] - lam[i] * c[i, k] for k in range(c.n))


def dominant_representative(c: CartanMatrix, lam: Weight) -> Weight:
    """The dominant weight in the Weyl orbit of lam."""
    cur = lam
    while True:
        for i in range(c.n):
            if cur[i] < 0:
                cur = reflect_weight(c, cur, i)
                break
        else:
            return cur


def weyl_orbit(c: CartanMatrix, lam: Weight) -> set[Weight]:
    seen = {lam}
    frontier = [lam]
    while frontier:
        new = []
        for w in frontier:
            for i in range(c.n):
                img = reflect_weight(c, w, i)
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return seen


def is_dominant(lam: Weight) -> bool:
    return all(x >= 0 for x in lam)


def _root_fund_coords(c: CartanMatrix, beta: Root) -> Weight:
    """Fundamental coordinates of a root (alpha_i is row i of the matrix)."""
    return tuple(sum(beta[i] * c[i, k] for i in range(c.n)) for k in range(c.n))


def _weight_root_ip(d: Sequence[int], lam: Weight, beta: Root) -> int:
    """(lambda, beta) for a weight in fundamental and a root in simple coords."""
    return sum(beta[j] * lam[j] * d[j] for j in range(len(d)))


def _root_root_ip(c: CartanMatrix, d: Sequence[int], beta: Root, gamma: Root) -> int:
    return sum(gamma[j] * d[j] * sum(beta[k] * c[k, j] for k in range(c.n))
               for j in range(c.n))


def weyl_dim(c: CartanMatrix, lam: Weight) -> int:
    """Weyl dimension formula for the irreducible of highest weight lam."""
    _check_weight(c, lam)
    if not is_dominant(lam):
        raise NotDominant(f"{lam} is not dominant")
    rs = positive_roots(c)
    d = symmetrizer(c)
    rho = tuple([1] * c.n)
    lam_rho = tuple(x + 1 for x in lam)
    num = Fraction(1)
    for beta in rs.positive_roots:
        num *= Fraction(_weight_root_ip(d, lam_rho, beta), _weight_root_ip(d, rho, beta))
    if num.denominator != 1 or num <= 0:
        raise CharacterMismatch(f"Weyl's formula gives {num} at {lam}")
    return int(num)


def _check_weight(c: CartanMatrix, lam: Weight) -> None:
    if len(lam) != c.n:
        raise IndexMismatch(f"weight has {len(lam)} coordinates, Cartan matrix has rank {c.n}")


def dominant_weights_below(c: CartanMatrix, lam: Weight) -> dict[Weight, Root]:
    """Dominant weights mu <= lam in the root-lattice order, each with
    lam - mu in simple-root coordinates as the value.

    Every dominant mu <= lam is reached from lam by subtracting positive
    roots through dominant weights only (Stembridge 1998), so no other
    weight of the module is visited.
    """
    steps = [(beta, _root_fund_coords(c, beta)) for beta in positive_roots(c).positive_roots]
    out: dict[Weight, Root] = {lam: (0,) * c.n}
    frontier: list[Weight] = [lam]
    while frontier:
        new: list[Weight] = []
        for mu in frontier:
            depth = out[mu]
            for beta, beta_fund in steps:
                nu = tuple(x - y for x, y in zip(mu, beta_fund))
                if nu not in out and is_dominant(nu):
                    out[nu] = tuple(x + y for x, y in zip(depth, beta))
                    new.append(nu)
        frontier = new
    return out


def _capped_dim(c: CartanMatrix, lam: Weight, dim_cap: int) -> int:
    """Weyl dimension of L(lam), checked against the cap before any walk."""
    total = weyl_dim(c, lam)
    if total > dim_cap:
        raise DimensionCapExceeded(f"dim {total} exceeds cap {dim_cap}")
    return total


def dominant_character(c: CartanMatrix, lam: Weight,
                       dim_cap: int = DEFAULT_DIM_CAP) -> Character:
    """Multiplicities of the irreducible L(lam) at its dominant weights.

    The Freudenthal recursion runs over the dominant weights below lam in
    depth order, reading each multiplicity at a dominant representative.
    Guarded by a dimension cap to keep runs desk-scale.
    """
    _capped_dim(c, lam, dim_cap)
    return _freudenthal(c, lam)


def _freudenthal(c: CartanMatrix, lam: Weight) -> Character:
    rs = positive_roots(c)
    d = symmetrizer(c)
    beta_fund = [_root_fund_coords(c, beta) for beta in rs.positive_roots]
    beta_norm = [_root_root_ip(c, d, beta, beta) for beta in rs.positive_roots]

    dominants = dominant_weights_below(c, lam)
    by_level = sorted(dominants.items(), key=lambda kv: (sum(kv[1]), kv[0]))
    lam_rho = tuple(x + 1 for x in lam)

    mults: Character = {}
    dom_cache: dict[Weight, Weight] = {}

    def dom_of(w: Weight) -> Weight:
        if w not in dom_cache:
            dom_cache[w] = dominant_representative(c, w)
        return dom_cache[w]

    for mu, depth in by_level:
        if mu == lam:
            mults[mu] = 1
            continue
        acc = 0
        for bi, beta in enumerate(rs.positive_roots):
            ip_mu_beta = _weight_root_ip(d, mu, beta)
            k = 1
            while True:
                nu = tuple(mu[t] + k * beta_fund[bi][t] for t in range(c.n))
                m = mults.get(dom_of(nu))
                if m is None:
                    break
                acc += m * (ip_mu_beta + k * beta_norm[bi])
                k += 1
        # |lam+rho|^2 - |mu+rho|^2 with beta = lam - mu
        denom = 2 * _weight_root_ip(d, lam_rho, depth) - _root_root_ip(c, d, depth, depth)
        if denom <= 0 or (2 * acc) % denom != 0:
            raise CharacterMismatch(f"Freudenthal's recursion is not integral at {mu}")
        mults[mu] = (2 * acc) // denom
    return mults


def freudenthal_character(c: CartanMatrix, lam: Weight,
                          dim_cap: int = DEFAULT_DIM_CAP) -> Character:
    """Full weight multiplicity function of the irreducible L(lam): the
    dominant multiplicities spread over Weyl orbits, with the total checked
    against the Weyl dimension formula."""
    total = _capped_dim(c, lam, dim_cap)
    char: Character = {}
    for mu, m in _freudenthal(c, lam).items():
        for w in weyl_orbit(c, mu):
            char[w] = m
    if sum(char.values()) != total:
        raise CharacterMismatch(f"character of {lam} has total {sum(char.values())}, not {total}")
    return char


def character_dim(char: Character) -> int:
    return sum(char.values())


# ---------------------------------------------------------------------------
# restriction and branching
# ---------------------------------------------------------------------------

def restrict_weight(lam: Weight, fold: FoldedAlgebraData) -> Weight:
    """Restriction along the orbit-sum embedding of Cartan elements: the
    folded coordinate at an orbit is the sum of the coordinates over it."""
    c = fold.base
    _check_weight(c, lam)
    idx = {v: i for i, v in enumerate(c.labels)}
    return tuple(sum(lam[idx[v]] for v in orbit) for orbit in fold.orbits)


def is_invariant_weight(lam: Weight, fold: FoldedAlgebraData) -> bool:
    idx = {v: i for i, v in enumerate(fold.base.labels)}
    return all(len({lam[idx[v]] for v in orbit}) == 1 for orbit in fold.orbits)


def branch(c: CartanMatrix, lam: Weight, fold: FoldedAlgebraData,
           dim_cap: int = DEFAULT_DIM_CAP, require_invariant: bool = False) -> list[tuple[Weight, int]]:
    """Decompose L(lam) restricted to the folded subalgebra.

    Returns (folded dominant weight, multiplicity) pairs obtained by
    stripping the restricted character from the top, on folded-dominant
    weights only; conservation of total dimension is checked.  Restriction
    is defined for every dominant weight; pass require_invariant=True to
    insist that lam is constant on the folding orbits.
    """
    if fold.base.entries != c.entries or fold.base.labels != c.labels:
        raise IndexMismatch("folding data does not belong to this Cartan matrix")
    _check_weight(c, lam)
    if not is_dominant(lam):
        raise NotDominant(f"{lam} is not dominant")
    if require_invariant and not is_invariant_weight(lam, fold):
        raise NotInvariantWeight(f"{lam} is not constant on the folding orbits")
    fc = fold.folded
    _require_finite(fc)

    # the character comes first: its dimension cap also bounds the walk.
    # Restriction sends alpha_i to the folded simple root of i's orbit, so
    # every folded-dominant restricted weight is a key of depths
    char = freudenthal_character(c, lam, dim_cap)
    depths = dominant_weights_below(fc, restrict_weight(lam, fold))
    restricted: Character = {}
    for w, m in char.items():
        rw = restrict_weight(w, fold)
        if rw in depths:
            restricted[rw] = restricted.get(rw, 0) + m

    # weights only ever leave `restricted`, so the highest remaining one is
    # the next of this order (deepest last) that has not been stripped yet
    out: list[tuple[Weight, int]] = []
    for top in sorted(restricted, key=lambda w: (-sum(depths[w]), w), reverse=True):
        if top not in restricted:
            continue
        mult = restricted[top]
        if mult <= 0:
            raise StrippingFailure(f"negative multiplicity {mult} at {top}")
        out.append((top, mult))
        for w, m in dominant_character(fc, top, dim_cap).items():
            rem = restricted.get(w, 0) - mult * m
            if rem < 0:
                raise StrippingFailure(f"stripping drove weight {w} to multiplicity {rem}")
            if rem == 0:
                restricted.pop(w, None)
            else:
                restricted[w] = rem

    if sum(m * weyl_dim(fc, w) for w, m in out) != weyl_dim(c, lam):
        raise StrippingFailure(f"the branching of {lam} does not conserve dimension")
    return out


def highest_weight_from_framing(wprime: Mapping[str, int], split: Quiver) -> Weight:
    """Read a framing dimension vector on the split quiver as a dominant
    weight in fundamental coordinates (split-vertex canonical order)."""
    for key, val in wprime.items():
        if key not in split.vertices:
            raise UnknownVertex(f"unknown split vertex {key}")
        if val < 0:
            raise UnknownVertex(f"negative framing dimension at {key}")
    return tuple(wprime.get(v, 0) for v in split.vertices)
