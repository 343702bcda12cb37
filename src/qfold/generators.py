"""Seeded random generators for module-laboratory property tests.

Everything here is deterministic given a random.Random instance.  The
central recipe builds stable twist-fixed module pairs: data fixed by the
transport up to an explicit grading gauge g0 (signs at automorphism-fixed
vertices), then conjugated by a random orbit-constant change of basis.
That keeps the transition matrices computable in closed form while
producing generic-looking instances.  The generator does not check the
witnesses it builds: their consumers do (`theorem5_verify` checks both
witnesses of a graded pair, and `module transition` checks a stored one).
Nor does it check its modules against the relation or its twists with
`SigmaData.validate`: both are valid by construction (see below, and
`random_sigma`), and `tests/test_generators.py` checks every kind.
Every inverse a generator needs is computed once, by `Mat.inverse` on the
matrix it draws (by cofactors up to 3 x 3), or is known in closed form (a
sign diagonal is its own inverse).  Products are written plainly,
identity factors included, since `Mat` forms no product with one; only a
product that an identity cancels, such as h * g0 * h^-1 where g0 is the
identity, is left unformed.

Every entry and every dimension is drawn by `_choices`, a whole matrix
(or a run of dimensions) at a time.  It replays `random.Random._randbelow`,
the one call behind `rng.choice`, `randint(a, b)` and `randrange(p)`, so
an entry in -2..2, one of F_p, a dimension in 0..k and a block order are
the draws those calls make, and each drawer leaves `rng` where they leave
it.  The drawn rows are ints already in canonical form and go into a
`Mat` without being read again.  The drawn modules are built unchecked,
as `FramedModule` records with I = 0 and a zero block wherever B names no
arrow (`_module`), since their shapes and field are right by
construction; `tests/test_generators.py` checks each kind against
`framed_module`.

Modules produced here always satisfy the preprojective relation exactly:
B is supported on one direction of each edge, and I = 0, so every term of
the relation has a zero factor.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Mapping, Optional

from .errors import InputError, NotInvertible
from .linalg import Mat, _mat
from .numberfield import companion, cyclotomic_poly
from .module_lab import FramedModule, SigmaData, TransitionWitness, _conjugate
from .quiver_core import (
    DiagramAutomorphism,
    OrbitData,
    Quiver,
    arrow_transport,
    orbit_data,
    reverse_key,
)


_SMALL = (-2, -1, 0, 1, 2)


def _choices(rng: random.Random, seq, count: int) -> list:
    """count draws from the sequence seq, as `count` calls of
    `rng.choice(seq)` make them, leaving rng where they leave it.  Each
    such call is one `rng._randbelow(n)`, n = len(seq): `getrandbits(k)`,
    k = n.bit_length(), drawn again while it is n or more.  `randint(a, b)`
    makes the same call as `choice(range(a, b + 1))`, and `randrange(p)`
    as `choice(range(p))`."""
    n = len(seq)
    if not n:   # getrandbits(0) is 0, which would be drawn again forever
        raise InputError("nothing to draw from")
    k, bits = n.bit_length(), rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= n:
            r = bits(k)
        out.append(seq[r])
    return out


def _rows(values: list, rows: int, cols: int) -> tuple:
    """values, rows * cols of them, as row tuples in row-major order."""
    return tuple(zip(*[iter(values)] * cols)) if cols else ((),) * rows


def rand_mat(rng: random.Random, rows: int, cols: int, p: Optional[int] = None) -> Mat:
    """Entries drawn from -2..2, or uniformly from F_p."""
    values = _choices(rng, _SMALL if p is None else range(p), rows * cols)
    return _mat(rows, cols, _rows(values, rows, cols), 1, p or 0)


def rand_invertible(rng: random.Random, n: int) -> tuple[Mat, Mat]:
    """(m, m^-1) for a random invertible rational n x n matrix m with
    entries in -2..2; `Mat.inverse` (by cofactors up to 3 x 3, else by
    elimination) also refuses singular draws, which are drawn again.  At
    n = 0 both are the empty matrix, drawn and inverted without work."""
    if n == 0:
        empty = Mat.zeros(0, 0)
        return empty, empty
    for _ in range(200):
        m = rand_mat(rng, n, n)
        try:
            return m, m.inverse()
        except NotInvertible:
            pass
    raise InputError("could not sample an invertible matrix")


def random_finite_order_matrix(rng: random.Random, n: int, e: int) -> Mat:
    """A rational n x n matrix with matrix^e = identity, built from
    companion blocks of cyclotomic polynomials and a random conjugation.
    When every block is Phi_1's, the core is the identity and so is the
    result: the conjugation is drawn but not formed."""
    divisors = [d for d in range(1, e + 1) if e % d == 0]
    orders: list[int] = []
    remaining = n
    while remaining > 0:
        options = [d for d in divisors if _cyclotomic_block(d).rows <= remaining]
        orders += _choices(rng, options, 1)
        remaining -= _cyclotomic_block(orders[-1]).rows
    t, t_inv = rand_invertible(rng, n)
    if set(orders) <= {1}:
        return Mat.identity(n)
    return t * Mat.block_diag([_cyclotomic_block(d) for d in orders]) * t_inv


@lru_cache(maxsize=64)
def _cyclotomic_block(d: int) -> Mat:
    """The companion matrix of the d-th cyclotomic polynomial, built once
    per d and shared by every draw (a Mat is immutable)."""
    return companion(cyclotomic_poly(d))


def random_orbit_constant_dims(rng: random.Random, od: OrbitData) -> dict[str, int]:
    """One dimension in 0..2 per vertex orbit of od."""
    out: dict[str, int] = {}
    for orbit, d in zip(od.vertex_orbits, _choices(rng, range(3), len(od.vertex_orbits))):
        out.update(dict.fromkeys(orbit, d))
    return out


def _module(q: Quiver, v: Mapping[str, int], w: Mapping[str, int], B: dict, J: dict,
            p: int = 0, signed: bool = True) -> FramedModule:
    """The module with arrows B, a zero block filled in wherever B names no
    arrow, framing J (one map per vertex) and I = 0, built unchecked: each
    drawer gives B and J their shapes over the field p itself."""
    for info in q.doubled:
        if info.key not in B:
            B[info.key] = Mat.zeros(v.get(info.tgt, 0), v.get(info.src, 0), p)
    I = {x: Mat.zeros(v.get(x, 0), w.get(x, 0), p) for x in q.vertices}
    return FramedModule(q, dict(v), dict(w), B, I, J, signed)


def random_one_way_module(rng: random.Random, q: Quiver, v: Mapping[str, int],
                          w: Mapping[str, int], p: Optional[int] = None,
                          signed: bool = True) -> FramedModule:
    """Relation-exact random module: one random direction per edge carries
    a random matrix, J is arbitrary, I = 0."""
    B: dict[str, Mat] = {}
    for e in q.edges:
        h = q.arrows[e.id if rng.random() < 0.5 else reverse_key(e.id)]
        B[h.key] = rand_mat(rng, v.get(h.tgt, 0), v.get(h.src, 0), p=p)
    J = {x: rand_mat(rng, w.get(x, 0), v.get(x, 0), p=p) for x in q.vertices}
    return _module(q, v, w, B, J, p or 0, signed)


def random_sigma(rng: random.Random, q: Quiver, a: DiagramAutomorphism,
                 wdims: Mapping[str, int]) -> SigmaData:
    """A valid framing twist: free along each orbit, with the last map
    chosen so the composite is a random matrix of exact order dividing e,
    built unchecked."""
    od = orbit_data(q, a)
    maps: dict[str, Mat] = {}
    for orbit in od.vertex_orbits:
        n = wdims.get(orbit[0], 0)
        e = od.e_vertex[orbit[0]]
        vertex = orbit[0]
        # the inverse of the chain g_k ... g_1 walked so far, g_1^-1 ... g_k^-1
        chain_inv = Mat.identity(n)
        for _ in range(len(orbit) - 1):
            g, g_inv = rand_invertible(rng, n)
            maps[vertex] = g
            chain_inv = chain_inv * g_inv
            vertex = a.vertex_perm[vertex]
        maps[vertex] = random_finite_order_matrix(rng, n, e) * chain_inv
    return SigmaData(q, a, maps)


def random_theta_module(rng: random.Random, q: Quiver, a: DiagramAutomorphism
                        ) -> tuple[FramedModule, SigmaData]:
    """A random relation-exact rational module with orbit-constant
    dimensions in 0..2 and a valid twist, suitable for transport-order
    tests.  Falls back to an unsigned module when no invariant orientation
    exists."""
    od = orbit_data(q, a)
    v = random_orbit_constant_dims(rng, od)
    w = random_orbit_constant_dims(rng, od)
    signed = arrow_transport(q, a).sign is not None
    m = random_one_way_module(rng, q, v, w, signed=signed)
    return m, random_sigma(rng, q, a, w)


# ---------------------------------------------------------------------------
# graded stable pairs with computable transitions
# ---------------------------------------------------------------------------

def _signs(plus: int, minus: int) -> tuple[int, ...]:
    return (1,) * plus + (-1,) * minus


@lru_cache(maxsize=256)
def _sign_diag(signs: tuple[int, ...]) -> Mat:
    """The diagonal matrix of the signs, built once per sign tuple: its own
    inverse, and the shared identity when no sign is -1."""
    n = len(signs)
    if -1 not in signs:
        return Mat.identity(n)
    return Mat(n, n, [[signs[r] if r == c else 0 for c in range(n)] for r in range(n)])


def random_graded_pair(rng: random.Random, q: Quiver, a: DiagramAutomorphism,
                       max_sub: int = 2, max_extra: int = 1):
    """A stable pair (submodule inside ambient module) fixed by the twisted
    transport up to sign gradings at automorphism-fixed vertices, then
    conjugated by random orbit-constant gauges.

    Returns (xi, m_sub, m, sigma, witness_sub, witness), drawn up to 60
    times.  Requires an involutive automorphism.  The two witnesses are
    built in closed form, as the gauges conjugating the sign gradings, and
    are not verified here: their consumer verifies them (`theorem5_verify`,
    `module transition`).
    """
    if any(len(o) > 2 for o in orbit_data(q, a).vertex_orbits):
        raise InputError("graded pair generation handles involutions only")
    if arrow_transport(q, a).sign is None:
        raise InputError("graded pair generation needs an invariant orientation")

    for _ in range(60):
        result = _try_graded_pair(rng, q, a, max_sub, max_extra)
        if result is not None:
            return result
    raise InputError("failed to generate a stable graded pair")


def _try_graded_pair(rng, q, a, max_sub, max_extra):
    od, transport = orbit_data(q, a), arrow_transport(q, a)
    fixed = {x for x in q.vertices if a.vertex_perm[x] == x}
    subs, extras, bit = range(max_sub + 1), range(max_extra + 1), range(2)

    # per-vertex layout: coordinates [sub+, sub-, ext+, ext-] at fixed
    # vertices, [sub, ext] elsewhere (orbit-constant sizes)
    sub_dim: dict[str, int] = {}
    ext_dim: dict[str, int] = {}
    v_signs: dict[str, tuple[int, ...]] = {}
    sub_signs: dict[str, tuple[int, ...]] = {}
    w_signs: dict[str, tuple[int, ...]] = {}
    for orbit in od.vertex_orbits:
        rep = orbit[0]
        if rep in fixed:
            sp, sm = _choices(rng, subs, 2)
            ep, em = _choices(rng, extras, 2)
            wp, wm = _choices(rng, bit, 2)
            sub_dim[rep] = sp + sm
            ext_dim[rep] = ep + em
            sub_signs[rep] = _signs(sp, sm)
            v_signs[rep] = _signs(sp, sm) + _signs(ep, em)
            w_signs[rep] = _signs(sp + ep + wp, sm + em + wm)
        else:
            s, ex, extra = (_choices(rng, r, 1)[0] for r in (subs, extras, bit))
            for x in orbit:
                sub_dim[x] = s
                ext_dim[x] = ex
                sub_signs[x] = (1,) * s
                v_signs[x] = (1,) * (s + ex)
                w_signs[x] = (1,) * (s + ex + extra)

    v = {x: sub_dim[x] + ext_dim[x] for x in q.vertices}
    vsub = {x: sub_dim[x] for x in q.vertices}
    w = {x: len(w_signs[x]) for x in q.vertices}
    if sum(v.values()) == 0:
        return None

    g0 = {x: _sign_diag(v_signs[x]) for x in q.vertices}
    g0_sub = {x: _sign_diag(sub_signs[x]) for x in q.vertices}

    # arrow matrices: triangular w.r.t. the sub coordinates; grading
    # equivariant on automorphism-fixed arrows; transported otherwise, once
    # the try is accepted
    B: dict[str, Mat] = {}
    transported = []
    for eorb in od.edge_orbits:
        h = q.arrows[eorb[0] if rng.random() < 0.5 else reverse_key(eorb[0])]
        x = _random_triangular(rng, v[h.tgt], v[h.src], sub_dim[h.tgt], sub_dim[h.src])
        img = q.arrows[transport.image[h.key]]
        if img == h:
            x = _mask_equivariant(x, v_signs[h.tgt], v_signs[h.src])
        elif len(eorb) == 2:
            transported.append((img, x, transport.sign[h.key]))
        else:
            # an edge orbit longer than the vertex involution's
            return None
        B[h.key] = x

    # framing: J block-diagonal in the sign grading at fixed vertices,
    # transported along swapped orbits; injective on both sub and total
    J: dict[str, Mat] = {}
    sigma_maps: dict[str, Mat] = {}
    swapped = []
    for orbit in od.vertex_orbits:
        rep = orbit[0]
        if rep in fixed:
            J[rep] = _random_sign_compatible(rng, w_signs[rep], v_signs[rep])
            sigma_maps[rep] = _sign_diag(w_signs[rep])
        else:
            j = J[rep] = rand_mat(rng, w[rep], v[rep])
            other = a.vertex_perm[rep]
            y, y_inv = rand_invertible(rng, w[rep])
            sigma_maps[rep] = y
            sigma_maps[other] = y_inv
            swapped.append((other, y, j))
    # the swapped orbit's other J is y * j, whose ranks (and those of its
    # first columns) are j's, y being invertible: so J is tested at the
    # orbits' first vertices alone
    for x, j in J.items():
        if j.rank() != v[x]:
            return None
        if vsub[x] and j.submatrix(range(w[x]), range(vsub[x])).rank() != vsub[x]:
            return None
    for other, y, j in swapped:
        J[other] = y * j
    for img, x, sign in transported:
        mapped = g0[img.tgt] * x * g0[img.src]
        B[img.key] = mapped if sign == 1 else -mapped

    m = _module(q, v, w, B, J)
    sigma = SigmaData(q, a, sigma_maps)
    # J is injective at every vertex, for the pair and for its submodule, so
    # ker J = 0 and both are stable, since the relation holds (I = 0, and B
    # lies on one direction of each edge)
    m_sub = _module(
        q, vsub, w,
        {info.key: m.B[info.key].submatrix(range(vsub[info.tgt]), range(vsub[info.src]))
         for info in q.doubled},
        {x: J[x].submatrix(range(w[x]), range(vsub[x])) for x in q.vertices})

    # conjugate both sides by orbit-constant gauges, which commute with theta
    h, h_inv = _orbit_constant_gauge(rng, od, v)
    hsub, hsub_inv = _orbit_constant_gauge(rng, od, vsub)
    m_final = _conjugate(h, h_inv, m)
    sub_final = _conjugate(hsub, hsub_inv, m_sub)
    # xi is h * xi0 * hsub^-1, xi0 the inclusion of the sub coordinates:
    # h * xi0 is the first vsub columns of h, and all of h where the
    # submodule fills the vertex
    xi = {x: (h[x] if vsub[x] == v[x] else h[x].submatrix(range(v[x]), range(vsub[x])))
          * hsub_inv[x] for x in q.vertices}
    # h * g0 * h^-1 is the identity wherever g0 is
    witness = TransitionWitness({x: h[x] * g0[x] * h_inv[x] if -1 in v_signs[x] else g0[x]
                                 for x in q.vertices})
    witness_sub = TransitionWitness({x: hsub[x] * g0_sub[x] * hsub_inv[x]
                                     if -1 in sub_signs[x] else g0_sub[x]
                                     for x in q.vertices})
    return xi, sub_final, m_final, sigma, witness_sub, witness


def _random_triangular(rng, rows, cols, sub_rows, sub_cols) -> Mat:
    """Entries in -2..2, all drawn, with the block below the sub rows and
    left of the sub columns set to 0."""
    zeros = (0,) * sub_cols
    num = _rows(_choices(rng, _SMALL, rows * cols), rows, cols)
    if sub_rows < rows and sub_cols:
        num = num[:sub_rows] + tuple(zeros + row[sub_cols:] for row in num[sub_rows:])
    return _mat(rows, cols, num, 1, 0)


def _mask_equivariant(m: Mat, row_signs: tuple[int, ...], col_signs: tuple[int, ...]) -> Mat:
    """The integral m with the entries between opposite signs set to 0."""
    num = tuple(tuple([x if rs == cs else 0 for x, cs in zip(row, col_signs)])
                for row, rs in zip(m.num, row_signs))
    return _mat(m.rows, m.cols, num, 1, 0)


def _random_sign_compatible(rng, row_signs: tuple[int, ...], col_signs: tuple[int, ...]) -> Mat:
    """Entries in -2..2 between equal signs, drawn in row-major order, and
    0 between opposite ones."""
    drawn = iter(_choices(rng, _SMALL, sum(map(col_signs.count, row_signs))))
    num = tuple(tuple([next(drawn) if rs == cs else 0 for cs in col_signs])
                for rs in row_signs)
    return _mat(len(row_signs), len(col_signs), num, 1, 0)


def _orbit_constant_gauge(rng, od, dims: Mapping[str, int]
                          ) -> tuple[dict[str, Mat], dict[str, Mat]]:
    """A random invertible gauge, one matrix per vertex orbit, with its
    inverse, drawn once per orbit."""
    out: dict[str, Mat] = {}
    inv: dict[str, Mat] = {}
    for orbit in od.vertex_orbits:
        g, g_inv = rand_invertible(rng, dims.get(orbit[0], 0))
        for x in orbit:
            out[x] = g
            inv[x] = g_inv
    return out, inv
