"""The release properties, each defined once.

Every property restates one claim of the paper as an exact check
`check(seed, size) -> list[str]` that returns the problems it found; an
empty list is a pass.  `qfold verify-all` runs them all at the sizes in
PROPERTIES, and tests/test_acceptance.py runs them at its own, larger
seeds and sizes.

`size` is a trial count, except for fiber-enumeration, where it bounds
the per-orbit values.  Trial t of property `name` draws from its own
generator, seeded with seed ^ crc32(f"{name}:{t}"), so a failing trial
can be replayed alone.
"""

from __future__ import annotations

import itertools
import random
import zlib
from collections import Counter
from fractions import Fraction
from typing import Callable

from .corpus import corpus, corpus_entry
from .dim_calc import dim_quiver_variety
from .errors import IsoNotFound, NotAdmissible
from .generators import random_graded_pair, random_one_way_module, random_theta_module
from .lie_fold import (
    canonical_cartan,
    cartan_from_quiver,
    cartan_matrix,
    classify_cartan,
    fold_cartan,
    folded_generators,
    serre_check,
)
from .linalg import Mat
from .module_lab import (
    apply_theta,
    brute_stability,
    build_theta_witness,
    eigen_profile,
    framed_module,
    is_stable,
    theorem5_verify,
)
from .quiver_core import (
    a_quiver,
    d_quiver,
    flip_automorphism,
    fork_swap_automorphism,
    is_admissible,
)
from .rep_branch import branch, freudenthal_character, weyl_dim
from .split_quotient import (
    fiber_count,
    fibers_of_p,
    identity_sigma,
    project_dim,
    split_involution_check,
    split_quiver,
)

Check = Callable[[int, int], list[str]]


def trial_rng(seed: int, name: str, trial: int) -> random.Random:
    return random.Random(seed ^ zlib.crc32(f"{name}:{trial}".encode()))


def _a_flip(n: int):
    q = a_quiver(n)
    return q, flip_automorphism(q, n)


def _d_swap(n: int):
    q = d_quiver(n)
    return q, fork_swap_automorphism(q, n)


def admissibility(seed: int, size: int) -> list[str]:
    """Odd path flips and fork swaps are admissible, even path flips are not."""
    bad = []
    for n in range(2, 6):
        for label, (q, a), want in ((f"A{2 * n - 1} flip", _a_flip(2 * n - 1), True),
                                    (f"A{2 * n} flip", _a_flip(2 * n), False),
                                    (f"D{n} swap", _d_swap(n), True)):
            if is_admissible(q, a) is not want:
                bad.append(f"{label} admissibility wrong")
    return bad


def split_correspondence(seed: int, size: int) -> list[str]:
    """split(D_{n+1}, swap) = A_{2n-1} and split(A_{2n-1}, flip) = D_{n+1}
    (the rank-3 fork diagram is the A3 path)."""
    bad = []
    for n in range(2, 6):
        got = str(classify_cartan(cartan_from_quiver(split_quiver(*_d_swap(n + 1)).split)))
        if got != f"A{2 * n - 1}":
            bad.append(f"split(D{n + 1}) = {got}")
        got = str(classify_cartan(cartan_from_quiver(split_quiver(*_a_flip(2 * n - 1)).split)))
        if got != ("A3" if n == 2 else f"D{n + 1}"):
            bad.append(f"split(A{2 * n - 1}) = {got}")
    return bad


def split_involution(seed: int, size: int) -> list[str]:
    """Splitting twice returns every admissible corpus entry with its
    automorphism; the non-admissible entries raise NotAdmissible."""
    bad = []
    for entry in corpus():
        if entry.admissible:
            try:
                split_involution_check(entry.quiver, entry.auto)
            except IsoNotFound as exc:
                bad.append(f"{entry.name}: {exc}")
            continue
        try:
            split_involution_check(entry.quiver, entry.auto)
        except NotAdmissible:
            continue
        bad.append(f"{entry.name}: not admissible, yet split without NotAdmissible")
    return bad


def folding_table(seed: int, size: int) -> list[str]:
    """Folding A_{2n-1} by the flip gives C_n, folding D_{n+1} by the swap B_n."""
    bad = []
    for n in range(2, 6):
        q, a = _a_flip(2 * n - 1)
        got = str(classify_cartan(fold_cartan(cartan_from_quiver(q), a).folded))
        if got != f"C{n}":
            bad.append(f"fold(A{2 * n - 1}) = {got}")
        q, a = _d_swap(n + 1)
        got = str(classify_cartan(fold_cartan(cartan_from_quiver(q), a).folded))
        if got != f"B{n}":
            bad.append(f"fold(D{n + 1}) = {got}")
    return bad


def folded_generators_relations(seed: int, size: int) -> list[str]:
    """The orbit-summed Chevalley generators satisfy the folded relations,
    and the transposed Cartan convention breaks a Serre relation on A3."""
    bad = []
    cases = [(f"A{n} flip", _a_flip(n)) for n in (1, 3, 5, 7)]  # admissible below rank 8
    cases += [(f"D{n} swap", _d_swap(n)) for n in (3, 4, 5)]
    rot3 = corpus_entry("D4-rot3")
    cases.append(("D4 rot3", (rot3.quiver, rot3.auto)))
    for label, (q, a) in cases:
        fold = fold_cartan(cartan_from_quiver(q), a)
        if not serre_check(fold.folded, *folded_generators(fold)).ok:
            bad.append(f"{label} generators fail")
    q, a = _a_flip(3)
    fold = fold_cartan(cartan_from_quiver(q), a)
    transposed = cartan_matrix([[fold.folded[j, i] for j in range(2)] for i in range(2)])
    rep = serre_check(transposed, *folded_generators(fold))
    if rep.ok or not rep.has_kind("serre"):
        bad.append("the transposed convention does not break a Serre relation on A3")
    return bad


def branching(seed: int, size: int) -> list[str]:
    """Spot decompositions for A3 -> C2, then the C3 decompositions of `size`
    random flip-invariant A5 weights.  `branch` raises CharacterMismatch on
    a negative multiplicity or a decomposition that does not conserve
    dimension before it returns, and a raise is a failure here."""
    bad = []
    q, a = _a_flip(3)
    c3 = cartan_from_quiver(q)
    fold = fold_cartan(c3, a)
    if branch(c3, (1, 0, 0), fold) != [((1, 0), 1, 4)]:
        bad.append("A3 omega1 branch wrong")
    if branch(c3, (0, 1, 0), fold) != [((0, 1), 1, 5), ((0, 0), 1, 1)]:
        bad.append("A3 omega2 branch wrong")
    spots = [(fold.folded, (1, 0), 4), (c3, (1, 0, 0), 4), (fold.folded, (0, 1), 5),
             (fold.folded, (0, 0), 1), (c3, (0, 1, 0), 6)]
    for c, lam, want in spots:
        if weyl_dim(c, lam) != want:
            bad.append(f"Weyl dimension of {lam} is {weyl_dim(c, lam)}, expected {want}")

    q, a = _a_flip(5)
    c5 = cartan_from_quiver(q)
    fold5 = fold_cartan(c5, a)
    for trial in range(size):
        rng = trial_rng(seed, "branching", trial)
        while True:
            x, y, z = (rng.randint(0, 2) for _ in range(3))
            lam = (x, y, z, y, x)
            if weyl_dim(c5, lam) <= 5000:
                break
        branch(c5, lam, fold5)
    return bad


def character_dimensions(seed: int, size: int) -> list[str]:
    """Freudenthal characters of `size` random dominant weights of A1-A5,
    C2, C3 and B3 have total multiplicity equal to the Weyl dimension:
    `freudenthal_character` raises CharacterMismatch before it returns
    when they do not, and a raise is a failure here.

    A weight whose Weyl dimension exceeds 2000 * size is drawn again, so a
    run of 10 stays below dimension 20000 and one of 50 reaches every
    weight the per-rank bounds allow (the largest is 59049)."""
    bad = []
    cartans = [canonical_cartan("A", n) for n in range(1, 6)]
    cartans += [canonical_cartan("C", 2), canonical_cartan("C", 3), canonical_cartan("B", 3)]
    bounds = {1: 4, 2: 3, 3: 2, 4: 2, 5: 1}
    for trial in range(size):
        rng = trial_rng(seed, "character-dimensions", trial)
        while True:
            c = rng.choice(cartans)
            lam = tuple(rng.randint(0, bounds[c.n]) for _ in range(c.n))
            if weyl_dim(c, lam) <= 2000 * size:
                break
        freudenthal_character(c, lam)
    return bad


def stability_oracle(seed: int, size: int) -> list[str]:
    """The fixpoint stability test agrees with brute-force enumeration of
    graded subspaces over F_2 and F_3."""
    bad = []
    quivers = [a_quiver(2), a_quiver(3), d_quiver(4)]
    for trial in range(size):
        rng = trial_rng(seed, "stability-oracle", trial)
        q = quivers[trial % 3]
        v = {x: rng.randint(0, 2) for x in q.vertices}
        w = {x: rng.randint(0, 2) for x in q.vertices}
        m = random_one_way_module(rng, q, v, w, p=(2, 3)[trial % 2])
        if is_stable(m) != brute_stability(m):
            bad.append(f"stability disagreement on trial {trial}")
    return bad


def twisted_double_witness(seed: int, size: int) -> list[str]:
    """The twisted double of an A3 module has a verified summand-matched
    witness with eigenvalue mass outside +-1 at the fixed vertex."""
    bad = []
    a3, flip = _a_flip(3)
    ones = {x: 1 for x in a3.vertices}
    m1 = framed_module(
        a3, ones, ones, B={"e2*": Mat.rational([[1]])},
        J={"1": Mat.rational([[1]]), "2": Mat.rational([[1]]), "3": Mat.rational([[0]])})
    sigma = identity_sigma(a3, flip, m1.w)
    g = {"1": Mat.rational([[1]]), "2": Mat.rational([[2]]), "3": Mat.rational([[1]])}
    _big, witness = build_theta_witness(m1, g, sigma)
    prof = eigen_profile(witness.g["2"], 2)
    outside = prof["other"] + sum(d for t, d in prof["roots"].items()
                                  if t not in (Fraction(0), Fraction(1, 2)))
    if outside == 0:
        bad.append("expected eigenvalue mass outside +-1 at the fixed vertex")
    return bad


def eigenspace_inclusion(seed: int, size: int) -> list[str]:
    """Random stable graded pairs on A3, A5, D4 and D5: every eigenspace of
    the submodule's transition matrix lies in the ambient one."""
    bad = []
    setups = [_a_flip(3), _a_flip(5), _d_swap(4), _d_swap(5)]
    for trial in range(size):
        q, a = setups[trial % 4]
        rng = trial_rng(seed, "eigenspace-inclusion", trial)
        xi, msub, m, sigma, wsub, wit = random_graded_pair(rng, q, a)
        rep = theorem5_verify(xi, msub, m, sigma, wsub, wit)
        if not rep.ok:
            bad.append(f"eigenspace inclusion failed on trial {trial} at {rep.vertex}")
    return bad


def transport_order(seed: int, size: int) -> list[str]:
    """On every corpus entry, `size` random twisted modules return to
    themselves after n transports, n the automorphism's order."""
    bad = []
    for index, entry in enumerate(corpus()):
        for trial in range(index * size, (index + 1) * size):
            rng = trial_rng(seed, "transport-order", trial)
            m, sigma = random_theta_module(rng, entry.quiver, entry.auto)
            n = sigma.orbits.n
            cur = m
            for _ in range(n):
                cur = apply_theta(cur, sigma)
            if cur != m:
                bad.append(f"{entry.name}: transport order exceeds {n} (trial {trial})")
                break
    return bad


def variety_dimensions(seed: int, size: int) -> list[str]:
    """A1 quiver varieties are cotangent bundles of Grassmannians: the
    dimension of M(k, m) is 2k(m - k).  It draws nothing."""
    bad = []
    a1 = cartan_matrix([[2]])
    for m in range(6):
        for k in range(m + 1):
            if dim_quiver_variety({"1": k}, {"1": m}, a1) != 2 * k * (m - k):
                bad.append(f"Grassmannian dimension wrong at ({k},{m})")
    return bad


def fiber_enumeration(seed: int, size: int) -> list[str]:
    """For every orbit-constant v with values below `size` on D4 swap and
    A3 flip, the fibers of the projection match the binomial formula and a
    brute-force count, and each projects back to v.  The brute force
    projects every split vector with entries below `size` once and counts
    the projections: no entry of a fiber's vector exceeds its orbit's
    value, so every fiber is counted whole."""
    bad = []
    for q, a in (_d_swap(4), _a_flip(3)):
        sd = split_quiver(q, a)
        names = list(sd.split.vertices)
        orbits = sd.orbits.vertex_orbits
        brute = Counter(tuple(sorted(project_dim(dict(zip(names, values)), sd).items()))
                        for values in itertools.product(range(size), repeat=len(names)))
        for combo in itertools.product(range(size), repeat=len(orbits)):
            v = {x: val for orbit, val in zip(orbits, combo) for x in orbit}
            fib = fibers_of_p(v, sd)
            if not len(fib) == fiber_count(v, sd) == brute[tuple(sorted(v.items()))]:
                bad.append(f"fiber count mismatch at {v}")
            if any(project_dim(f, sd) != v for f in fib):
                bad.append(f"fiber projection mismatch at {v}")
    return bad


# name -> (check, the size verify-all runs it at), in verify-all's order
PROPERTIES: dict[str, tuple[Check, int]] = {
    "admissibility": (admissibility, 0),
    "split-correspondence": (split_correspondence, 0),
    "split-involution": (split_involution, 0),
    "folding-table": (folding_table, 0),
    "folded-generators": (folded_generators_relations, 0),
    "branching": (branching, 5),
    "character-dimensions": (character_dimensions, 10),
    "stability-oracle": (stability_oracle, 50),
    "twisted-double-witness": (twisted_double_witness, 0),
    "eigenspace-inclusion": (eigenspace_inclusion, 50),
    "transport-order": (transport_order, 10),
    "variety-dimensions": (variety_dimensions, 0),
    "fiber-enumeration": (fiber_enumeration, 3),
}
