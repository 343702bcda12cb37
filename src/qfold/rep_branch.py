"""Finite-type characters and branching to a folded subalgebra.

Weights are integer tuples in the fundamental-weight basis of a fixed
CartanMatrix (same index order as its labels).  Roots are integer tuples
in the simple-root basis.  With the module's Cartan convention the
fundamental coordinates of the simple root alpha_j are row j of the
matrix, and the simple reflection acts by
s_i(lambda)_k = lambda_k - lambda_i * c[i][k].

Each Cartan matrix has one cached `RootDatum`: every row as its nonzero
entries, the symmetrizer, and each positive root in simple and
fundamental coordinates with its norm, the Weyl denominator, and each
simple reflection as a table of root indices.  The positive roots are
closed up from the simple roots by height-raising simple reflections, read
off the fundamental coordinates, and a matrix of infinite type is refused
there (`NotFiniteType`), before any walk.  A reflection s_i touches only
the coordinates where row i is nonzero, and is not applied where
lambda_i = 0, since it fixes lambda.  The Weyl dimension is one integer
product divided exactly by the product at rho.

The dominant weights below a highest weight are reached from it by
positive-root steps that stay dominant (Stembridge, "The partial order of
dominant weights", 1998), carrying lam - mu along as integer simple-root
coordinates, so neither the Freudenthal recursion nor branching needs an
inverse Cartan matrix.

Freudenthal's formula at a dominant mu sums the root strings
sum_k (mu + k beta, beta) m(mu + k beta) over the positive roots, and the
string is the same on a whole class of roots (Moody and Patera, "Fast
recursion formula for weight multiplicities", Bull. AMS 7, 1982): an s_j
with mu_j = 0 fixes mu and preserves the form and the multiplicities, so
beta and s_j beta, when both are positive, have the same string.  The
recursion walks one string per class and counts it as often as the class
has roots; every probe still counts against ROOT_STEP_CAP.  What depends
on the matrix alone is derived once per matrix, in bounded caches keyed
by the hashable CartanMatrix (never by a RootDatum, whose hash walks
every root): the root datum, the classes of each zero pattern, the orbit
size |W nu| of each support pattern, and the offsets of each fiber of
restriction.

Branching restricts the character of L(lam) along orbit sums of Cartan
elements and keeps it at the folded-dominant weights only, without ever
building the full character.  Restriction sends alpha_j to the folded
simple root of j's orbit I, so a weight mu = lam - sum_j k_j alpha_j
restricts to the folded-dominant nu exactly when sum_{j in I} k_j = K_I
for every orbit, K the folded depth of nu; and mu is a weight exactly when
its dominant representative is one.  The restricted multiplicity at nu is
therefore a sum over the fibers of restriction, the compositions of each
K_I into |I| parts, of the dominant multiplicities, each point's dominant
representative walked afresh.  The sum is checked against the Weyl
dimension through the folded orbit sizes |W'nu|, read off the positive
roots (Kostant/Macdonald), and the number of fiber points is known, and
capped, before any is listed.  The multiplicity of L'(nu) is
then read off Weyl's character formula as the alternation
sum_{w in W'} eps(w) r(nu + rho' - w rho') of the restricted character r
(Racah-Speiser/Klimyk), with W' listed lazily and pruned where the
weight leaves nu's depth or outgrows the top, so one Freudenthal
recursion serves the whole call.  Each weight's Weyl dimension is computed once per call, and
each summand comes back with the one that fed the conservation check.
This is slower than crystal combinatorics but independently checkable
against the Weyl dimension formula.  No walk is bounded by the dimension:
each counts what it lists against ROOT_STEP_CAP, FIBER_SUM_CAP or WALK_CAP.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import add, mul, sub
from typing import Mapping, NamedTuple

from .errors import CharacterMismatch, NotFiniteType, TooLarge
from .lie_fold import CartanMatrix, FoldedAlgebraData, is_finite_type, symmetrizer
from .quiver_core import Quiver
from .split_quotient import _composition_count, _compositions

Weight = tuple[int, ...]
Root = tuple[int, ...]
Character = dict[Weight, int]

# a root step moves a weight by one root: the dominant-weight listing tries
# every positive root at each weight, a Freudenthal probe mu + k beta adds
# one, and an orbit point is found by a simple reflection of a point found
# before it.  One core of a 2-CPU Xeon lists about 1,100,000 a second at
# rank 5, probes about 550,000-630,000 at rank 5 and 105,000-150,000 at
# rank 16, and spreads about 250,000 orbit points at rank 5 (A5 and D5,
# each point reflected at every nonzero coordinate): the cap bounds the
# listing and the probes to 2-4 s at rank 5 and the spread to about 9 s, and
# lets D4-swap at 6 rho (1,653,024 probes) answer
ROOT_STEP_CAP = 2_200_000

# the fiber sum reaches about 100,000 points a second (the 34,252 of D6-swap
# at (1,1,0,0,0,0,1,1,1) in 0.35 s, the 43,030 of D5-swap at (2,2,1,1,1,1,1)
# in 0.26 s, on one core of a 2-CPU Xeon), so the cap bounds the sum to
# about 10 s
FIBER_SUM_CAP = 10 ** 6

# the Weyl alternation of `branch` reaches about 45,000 elements of the folded
# Weyl group a second at rank 15 (A29-flip, folded B15) and 150,000-270,000 at
# ranks 3-6, on one core of a 2-CPU Xeon: the cap bounds it to about 10 s
WALK_CAP = 400_000


class RootDatum(NamedTuple):
    """What the Weyl-group and character kernels read of a Cartan matrix.
    (lam, beta) = sum_j lam_j * beta_j * d_j for a weight in fundamental and
    a root in simple coordinates."""
    rows: tuple[tuple[tuple[int, int], ...], ...]  # row i as its nonzero (k, c[i][k])
    d: tuple[int, ...]                     # the symmetrizer: c[i][j] * d_j = c[j][i] * d_i
    roots: tuple[Root, ...]                # the positive roots by height, then lexicographically
    fund: tuple[Weight, ...]               # each root in fundamental coordinates
    paired: tuple[tuple[int, ...], ...]    # each root as (beta_j * d_j)_j
    norm: tuple[int, ...]                  # (beta, beta) of each root
    rho_product: int                       # the product of (rho, beta): Weyl's denominator
    reflect: tuple[tuple[int, ...], ...]   # reflect[j][i]: the index of s_j beta_i, or -1


@lru_cache(maxsize=256)
def root_datum(c: CartanMatrix) -> RootDatum:
    """The root datum of a finite-type Cartan matrix, built once per matrix.

    Every positive root is reached from a simple root by simple reflections
    that raise its height (Humphreys, Lie Algebras, 10.2), and s_i raises
    beta exactly where its fundamental coordinate at i is negative, adding
    minus that coordinate to beta_i.  The closure keeps each root's
    fundamental coordinates with it: alpha_i has row i, and s_i subtracts
    beta's coordinate at i times row i.  s_j beta = beta - f_j alpha_j for
    f beta's fundamental coordinates, and is negative only at beta = alpha_j."""
    if not is_finite_type(c):
        raise NotFiniteType("operation requires a finite-type Cartan matrix")
    n = c.n
    found: dict[Root, Weight] = {}
    for i in range(n):
        found[tuple(1 if k == i else 0 for k in range(n))] = tuple(c.entries[i])
    stack = list(found)
    while stack:
        beta = stack.pop()
        f = found[beta]
        for i, a in enumerate(f):
            if a < 0:
                img = beta[:i] + (beta[i] - a,) + beta[i + 1:]
                if img not in found:
                    found[img] = tuple(x - a * y for x, y in zip(f, c.entries[i]))
                    stack.append(img)
    roots = tuple(sorted(found, key=lambda r: (sum(r), r)))
    fund = tuple(found[beta] for beta in roots)
    d = symmetrizer(c)
    rows = tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in c.entries)
    paired = tuple(tuple(map(mul, beta, d)) for beta in roots)
    norm = tuple(sum(map(mul, p, f)) for p, f in zip(paired, fund))
    index = {beta: i for i, beta in enumerate(roots)}
    reflect = tuple(tuple(index.get(beta[:j] + (beta[j] - f[j],) + beta[j + 1:], -1)
                          for beta, f in zip(roots, fund)) for j in range(n))
    return RootDatum(rows, d, roots, fund, paired, norm, prod(map(sum, paired)),
                     reflect)


def _dominant(rows: tuple[tuple[tuple[int, int], ...], ...], lam: Weight) -> Weight:
    """The dominant weight in the Weyl orbit of lam: reflect at the first
    negative coordinate, from the first index s_i changed, until none is."""
    cur, i = list(lam), 0
    while i < len(cur):
        a = cur[i]
        if a < 0:
            for k, cik in rows[i]:
                cur[k] -= a * cik
            i = rows[i][0][0]
        else:
            i += 1
    return tuple(cur)


def dominant_representative(c: CartanMatrix, lam: Weight) -> Weight:
    """The dominant weight in the Weyl orbit of lam."""
    return _dominant(root_datum(c).rows, lam)


def weyl_orbit(c: CartanMatrix, lam: Weight) -> set[Weight]:
    """The Weyl orbit of lam: the closure of its dominant weight under the
    simple reflections, each applied where it moves the weight (x_i != 0)."""
    rows = root_datum(c).rows
    top = dominant_representative(c, lam)
    orbit = {top}
    stack = [top]
    while stack:
        w = stack.pop()
        for i, a in enumerate(w):
            if a:
                img = list(w)
                for k, cik in rows[i]:
                    img[k] -= a * cik
                img = tuple(img)
                if img not in orbit:
                    orbit.add(img)
                    stack.append(img)
    return orbit


def weyl_dim(c: CartanMatrix, lam: Weight) -> int:
    """Weyl dimension formula for the irreducible of highest weight lam, as
    one integer product divided exactly by the product at rho.  lam is
    dominant, with one coordinate per label of c: `cli` reads it off a
    checked framing, nonnegative on every split vertex, and the program
    passes the dominant weights it lists or draws."""
    rd = root_datum(c)
    lam_rho = tuple(x + 1 for x in lam)
    num = prod(sum(map(mul, lam_rho, p)) for p in rd.paired)
    dim, rest = divmod(num, rd.rho_product)
    if rest or dim <= 0:
        raise CharacterMismatch(f"Weyl's formula gives {num}/{rd.rho_product} at {lam}")
    return dim


def dominant_weights_below(c: CartanMatrix, lam: Weight) -> dict[Weight, Root]:
    """Dominant weights mu <= lam in the root-lattice order, each with
    lam - mu in simple-root coordinates as the value.

    Every dominant mu <= lam is reached from lam by subtracting positive
    roots through dominant weights only (Stembridge 1998), so no other
    weight of the module is visited.  Each weight listed tries every
    positive root: past ROOT_STEP_CAP root steps, TooLarge."""
    rd = root_datum(c)
    steps = tuple(zip(rd.roots, rd.fund))
    cap = ROOT_STEP_CAP // max(len(steps), 1)   # rank 0 has no root
    out: dict[Weight, Root] = {lam: (0,) * c.n}
    frontier: list[Weight] = [lam]
    while frontier:
        new: list[Weight] = []
        for mu in frontier:
            depth = out[mu]
            for beta, beta_fund in steps:
                nu = tuple(map(sub, mu, beta_fund))
                if nu not in out and min(nu) >= 0:
                    if len(out) >= cap:
                        raise TooLarge(f"more than {cap} dominant weights lie below {lam}",
                                       estimate=len(out) + 1, cap=cap)
                    out[nu] = tuple(map(add, depth, beta))
                    new.append(nu)
        frontier = new
    return out


@lru_cache(maxsize=1024)
def _root_classes(c: CartanMatrix, zeros: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The positive roots of c, as indices into root_datum(c).roots, in the
    classes of beta ~ s_j beta for the j in zeros where s_j beta is
    positive: the components of the reflection table's graph on those j,
    each grown from its first index.  At a dominant mu with mu_j = 0
    exactly for j in zeros, these s_j fix mu, so every root of a class has
    the same Freudenthal string sum.  Each class is in increasing index
    order, and the classes by their first index."""
    rd = root_datum(c)
    reflect = rd.reflect
    seen = [False] * len(rd.roots)
    classes = []
    for i, done in enumerate(seen):
        if not done:
            seen[i] = True
            cls = [i]
            for k in cls:
                for j in zeros:
                    r = reflect[j][k]
                    if r >= 0 and not seen[r]:
                        seen[r] = True
                        cls.append(r)
            classes.append(tuple(sorted(cls)))
    return tuple(classes)


def _freudenthal(c: CartanMatrix, lam: Weight) -> Character:
    """The Freudenthal recursion at the dominant weights below lam.  At each
    mu one root string is walked per class of `_root_classes` at mu's zeros
    and counted as often as the class has roots.  It is the string of the
    class's highest root beta: no s_j with mu_j = 0 raises it, so its
    fundamental coordinates there are not negative, mu + k beta lies nearer
    the dominant chamber than along the class's other roots, and `_dominant`
    has less to walk.  Past ROOT_STEP_CAP probes mu + k beta, TooLarge."""
    rd = root_datum(c)
    rows, d = rd.rows, rd.d
    steps = tuple(zip(rd.fund, rd.paired, rd.norm))
    cap, probes = ROOT_STEP_CAP, 0

    dominants = dominant_weights_below(c, lam)
    by_level = sorted(dominants.items(), key=lambda kv: (sum(kv[1]), kv[0]))

    mults: Character = {}
    for mu, depth in by_level:
        if mu == lam:
            mults[mu] = 1
            continue
        acc = 0
        for cls in _root_classes(c, tuple(j for j, x in enumerate(mu) if not x)):
            beta_fund, beta_paired, beta_norm = steps[cls[-1]]
            # (mu + k beta, beta) for k = 1, 2, ... while mu + k beta is a
            # weight; (mu, beta) is read only once mu + beta is one
            ip = None
            string = 0
            nu = mu
            while True:
                probes += 1
                if probes > cap:
                    raise TooLarge(f"more than {cap} probes below {lam}",
                                   estimate=probes, cap=cap)
                nu = tuple(map(add, nu, beta_fund))
                m = mults.get(_dominant(rows, nu))
                if m is None:
                    break
                if ip is None:
                    ip = sum(map(mul, mu, beta_paired))
                ip += beta_norm
                string += m * ip
            acc += len(cls) * string
        # |lam+rho|^2 - |mu+rho|^2 = (lam - mu, lam + mu + 2 rho), lam - mu = depth
        denom = sum(depth[j] * d[j] * (lam[j] + mu[j] + 2) for j in range(c.n))
        if denom <= 0 or (2 * acc) % denom != 0:
            raise CharacterMismatch(f"Freudenthal's recursion is not integral at {mu}")
        mults[mu] = (2 * acc) // denom
    return mults


def freudenthal_character(c: CartanMatrix, lam: Weight) -> Character:
    """Full weight multiplicity function of the irreducible L(lam): the
    dominant multiplicities spread over Weyl orbits, with the total checked
    against the Weyl dimension formula.  Past ROOT_STEP_CAP points
    sum |W mu|, TooLarge before any orbit is spread."""
    total = weyl_dim(c, lam)
    mults = _freudenthal(c, lam)
    points = sum(_orbit_size(c, tuple(map(bool, mu))) for mu in mults)
    if points > ROOT_STEP_CAP:
        raise TooLarge(f"the weights of {lam} number {points}, beyond the cap of "
                       f"{ROOT_STEP_CAP}", estimate=points, cap=ROOT_STEP_CAP)
    char: Character = {}
    for mu, m in mults.items():
        for w in weyl_orbit(c, mu):
            char[w] = m
    if sum(char.values()) != total:
        raise CharacterMismatch(f"character of {lam} has total {sum(char.values())}, not {total}")
    return char


# ---------------------------------------------------------------------------
# restriction and branching
# ---------------------------------------------------------------------------

def _orbit_indices(fold: FoldedAlgebraData) -> list[list[int]]:
    idx = {v: i for i, v in enumerate(fold.base.labels)}
    return [[idx[v] for v in orbit] for orbit in fold.orbits]


def _restrict(lam: Weight, orbits: list[list[int]]) -> Weight:
    return tuple([sum([lam[i] for i in orbit]) for orbit in orbits])


@lru_cache(maxsize=1024)
def _fiber_points(alphas: tuple[Weight, ...], k: int) -> tuple[Weight, ...]:
    """sum_j k_j * alphas[j] over every weak composition (k_j) of k into
    len(alphas) parts: the points of one orbit's fiber, as offsets."""
    cols = list(zip(*alphas))
    return tuple([tuple([sum(map(mul, ks, col)) for col in cols])
                  for ks in _compositions(k, len(alphas))])


def _fiber_count(orbits: list[list[int]], depths: Mapping[Weight, Root]) -> int:
    """How many weights the fiber sum visits: for each key nu of depths, the
    compositions of every K_I = depths[nu][I] into |I| parts."""
    return sum(prod(_composition_count(k, len(orbit)) for k, orbit in zip(depth, orbits))
               for depth in depths.values())


@lru_cache(maxsize=1024)
def _orbit_size(c: CartanMatrix, moved: tuple[bool, ...]) -> int:
    """|W nu| for a dominant nu with moved = (nu_i != 0)_i: |W| / |W_J|
    with W_J generated by the s_i that fix nu, each the product of
    (ht beta + 1) / ht beta over its positive roots (Kostant/Macdonald),
    so over the roots whose support meets a moved index."""
    num = den = 1
    for beta in root_datum(c).roots:
        if any(b and m for b, m in zip(beta, moved)):
            height = sum(beta)
            num *= height + 1
            den *= height
    size, rest = divmod(num, den)
    if rest:
        raise CharacterMismatch(f"an orbit of size {num}/{den} at {moved}")
    return size


def _restricted_spread(c: CartanMatrix, lam: Weight, fc: CartanMatrix, orbits: list[list[int]],
                       depths: Mapping[Weight, Root]) -> tuple[Character, int]:
    """The character of L(lam) restricted along the orbit index lists, at
    the folded-dominant weights nu that are keys of depths where it is not
    zero, and the sum of its values times |W'nu|, W' the Weyl group of the
    folded matrix fc.

    The value at nu is the fiber sum: mult(dom mu) over
    mu = lam - sum_j k_j alpha_j for every composition of each
    K_I = depths[nu][I] into |I| parts, zero where dom mu is not a dominant
    weight of L(lam).  TooLarge is raised before the top character or any
    fiber is listed when the fibers hold more than FIBER_SUM_CAP points.
    """
    count = _fiber_count(orbits, depths)
    if count > FIBER_SUM_CAP:
        raise TooLarge(f"the fibers of restriction hold {count} weights, beyond the cap "
                       f"of {FIBER_SUM_CAP}", estimate=count, cap=FIBER_SUM_CAP)
    mults = _freudenthal(c, lam)
    rows = root_datum(c).rows
    alphas = [tuple(c.entries[j] for j in orbit) for orbit in orbits]
    restricted: Character = {}
    spread = 0
    for nu, depth in depths.items():
        points = [lam]
        for i, k in enumerate(depth):
            if k:
                step = _fiber_points(alphas[i], k)
                points = [tuple(map(sub, mu, off)) for mu in points for off in step]
        total = sum(mults.get(_dominant(rows, mu), 0) for mu in points)
        if total:
            restricted[nu] = total
            spread += total * _orbit_size(fc, tuple(map(bool, nu)))
    return restricted, spread


def _alternation(fc: CartanMatrix, high: Weight, restricted: Character,
                 depths: Mapping[Weight, Root]) -> dict[Weight, int]:
    """n_nu = sum over w in W' of eps(w) r(nu + rho' - w rho') at each key nu
    of restricted, r read at folded-dominant representatives.  W' is the orbit
    of rho', listed down from rho' without a repeat.  Each other point y = w rho'
    has one parent s_i y, with i the first index where y_i < 0: that parent is
    higher, and (s_i y)_i > 0.  So the walk applies s_i to y only where
    y_i > 0, and keeps s_i y only when no coordinate before i is negative.
    s_i changes only i and its neighbours, so s_i y is built only when y has
    no negative coordinate or its first one is at a neighbour of i.  Each step
    adds y_i to x_i, x = rho' - w rho' in simple roots, and 2 y_i (nu + rho', alpha_i)
    to |nu + x|^2 - |nu|^2.  Both grow down the walk, and a term is zero once x
    leaves depths[nu] or nu + x is longer than high, so such a child is dropped
    with its subtree.  Past WALK_CAP elements in all, TooLarge."""
    rd = root_datum(fc)
    rows, d = rd.rows, rd.d
    mults, visits = {}, 0
    for nu in restricted:
        depth, top, n = depths[nu], tuple(x + 1 for x in nu), 0  # top = nu + rho'
        room = sum(map(mul, depth, map(mul, d, map(add, high, nu))))  # |high|^2 - |nu|^2
        cost = [2 * dj * t for dj, t in zip(d, top)]
        stack = [((1,) * fc.n, (0,) * fc.n, 0, 1)]
        while stack:
            y, x, used, sign = stack.pop()
            visits += 1
            if visits > WALK_CAP:
                raise TooLarge(f"the Weyl alternation reaches more than {WALK_CAP} elements",
                               estimate=visits, cap=WALK_CAP)
            n += sign * restricted.get(_dominant(rows, tuple(map(sub, top, y))), 0)
            neg = -1  # the first index where y is negative
            for i, a in enumerate(y):
                if a < 0 and neg < 0:
                    neg = i
                elif a > 0:
                    if x[i] + a > depth[i] or used + a * cost[i] > room \
                            or neg >= 0 and not fc.entries[i][neg]:
                        continue
                    img = list(y)
                    for k, cik in rows[i]:
                        img[k] -= a * cik
                    if neg < 0 or min(img[:i]) >= 0:
                        stack.append((tuple(img), x[:i] + (x[i] + a,) + x[i + 1:],
                                      used + a * cost[i], -sign))
        mults[nu] = n
    return mults


def branch(c: CartanMatrix, lam: Weight, fold: FoldedAlgebraData) -> list[tuple[Weight, int, int]]:
    """Decompose L(lam) restricted to the folded subalgebra.

    Returns (folded dominant weight, multiplicity, Weyl dimension) triples,
    shallowest below the restricted top first, then by descending weight,
    read off the Weyl alternation of the restricted character and checked
    to conserve dimension.  Restriction is defined for every dominant
    weight, constant on the folding orbits or not.  fold is `fold_cartan`'s
    folding of c itself, as every caller builds it.
    """
    total = weyl_dim(c, lam)
    fc = fold.folded

    # the root-step, fiber and walk budgets bound every walk; every
    # folded-dominant restricted weight, a summand's too, is in depths
    orbits = _orbit_indices(fold)
    high = _restrict(lam, orbits)
    depths = dominant_weights_below(fc, high)
    restricted, spread = _restricted_spread(c, lam, fc, orbits, depths)
    if spread != total:
        raise CharacterMismatch(f"character of {lam} has total {spread}, not {total}")

    mults = _alternation(fc, high, restricted, depths)
    out = []
    for nu in sorted(restricted, key=lambda w: (-sum(depths[w]), w), reverse=True):
        if mults[nu] < 0:
            raise CharacterMismatch(f"negative multiplicity {mults[nu]} at {nu}")
        if mults[nu]:
            out.append((nu, mults[nu], weyl_dim(fc, nu)))
    if sum(mult * dim for _nu, mult, dim in out) != total:
        raise CharacterMismatch(f"the branching of {lam} does not conserve dimension")
    return out


def highest_weight_from_framing(wprime: Mapping[str, int], split: Quiver) -> Weight:
    """Read a framing on the split quiver, keyed by its vertices, as a
    dominant weight in fundamental coordinates (split-vertex canonical order)."""
    return tuple(wprime.get(v, 0) for v in split.vertices)
