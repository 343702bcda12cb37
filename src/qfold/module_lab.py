"""Exact laboratory for framed preprojective modules.

A framed module is graded data (V, W) with arrow maps B (one per doubled
arrow), framing maps I: W_i -> V_i and J: V_i -> W_i, satisfying at every
vertex the relation

    sum over arrows h with source i of  eps(h) * B[rev h] * B[h]  + I_i J_i = 0

with eps(h) = +1 on forward arrows and -1 on reversed ones (signed mode;
unsigned mode drops eps).  The arrow keys, the image of each arrow under
the diagram automorphism and the signs of the transport are defined in
`quiver_core`; the transport theta reads them there and the framing
twists from its `SigmaData`.  A module is checked where it enters, by
`framed_module`, and a twist's composites by `SigmaData.validate`; the
rest of a module file (v and w constant on orbits, a sub signed and framed
as its module, the shapes of a twist, a gauge, an embedding and a witness,
and the even dimensions at which a summand swap halves a witness) where
`cli` and `serialize` read it.
The functions here take it all as checked, or as built valid.
`check_relations`, the one relation check, raises RelationViolation at the
first vertex where the relation fails.

A transition g is a module isomorphism m -> theta(m); `find_transition`
reads it off one reduction, which decides all but g I = theta(I).
`check_framed_embedding` checks a given map through the inverse-free
equations theta(B) g = g B, g I = theta(I) and theta(J) g = J; `act` only
builds modules.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple, Optional

from .errors import (
    MixedCharacteristics,
    NotInvertible,
    NotStable,
    PreconditionViolation,
    PropertyViolation,
    RelationViolation,
    ShapeMismatch,
    TooLarge,
    WitnessVerificationFailed,
)
from .linalg import Mat, column_space_contains, sum_of_products
from .numberfield import (
    companion,
    factor_rational_poly,
    poly_derivative,
    poly_divmod,
    poly_gcd,
    poly_str,
)
from .quiver_core import DiagramAutomorphism, Quiver, arrow_transport, reverse_key
from .split_quotient import SigmaData, root_of_unity_eigendims


class FramedModule(NamedTuple):
    """A framed module, as `framed_module` checks it.  The record itself
    checks nothing: the transport, the gauge action and the direct sum
    build it from modules already checked."""

    quiver: Quiver
    v: Mapping[str, int]
    w: Mapping[str, int]
    B: Mapping[str, Mat]
    I: Mapping[str, Mat]
    J: Mapping[str, Mat]
    signed: bool = True


def framed_module(q: Quiver, v: Mapping[str, int], w: Mapping[str, int],
                  B: Optional[Mapping[str, Mat]] = None,
                  I: Optional[Mapping[str, Mat]] = None,
                  J: Optional[Mapping[str, Mat]] = None,
                  signed: bool = True) -> FramedModule:
    """Build a module, filling unspecified matrices with zeros over the
    field of the supplied matrices (Q without one), and check it: matrices
    over two fields raise MixedCharacteristics; a key that names no vertex
    or doubled arrow, a negative dimension or a matrix of the wrong shape
    raises ShapeMismatch.  Every module from outside the program enters
    here."""
    B = dict(B or {})
    I = dict(I or {})
    J = dict(J or {})
    supplied = [(m.p, name, key) for name, block in (("B", B), ("I", I), ("J", J))
                for key, m in block.items()]
    p = supplied[0][0] if supplied else 0
    other = next((s for s in supplied if s[0] != p), None)
    if other is not None:
        raise MixedCharacteristics(
            f"{other[1]}[{other[2]}] lies over {_field_name(other[0])}, "
            f"but {supplied[0][1]}[{supplied[0][2]}] over {_field_name(p)}")
    B.update({info.key: Mat.zeros(v.get(info.tgt, 0), v.get(info.src, 0), p)
              for info in q.doubled if info.key not in B})
    I.update({x: Mat.zeros(v.get(x, 0), w.get(x, 0), p) for x in q.vertices if x not in I})
    J.update({x: Mat.zeros(w.get(x, 0), v.get(x, 0), p) for x in q.vertices if x not in J})
    for name, block in (("v", v), ("w", w), ("B", B), ("I", I), ("J", J)):
        for key in block:
            if key not in (q.arrows if name == "B" else q.vertex_set):
                kind = "doubled arrow" if name == "B" else "vertex"
                raise ShapeMismatch(f"{name} names {key!r}, which is no {kind} of the quiver")
    for vertex in q.vertices:
        if v.get(vertex, 0) < 0 or w.get(vertex, 0) < 0:
            raise ShapeMismatch(f"negative dimension at {vertex}")
    for info in q.doubled:
        m = B[info.key]
        if m.rows != v.get(info.tgt, 0) or m.cols != v.get(info.src, 0):
            raise ShapeMismatch(
                f"B[{info.key}] is {m.rows}x{m.cols}, expected "
                f"{v.get(info.tgt, 0)}x{v.get(info.src, 0)}"
            )
    for vertex in q.vertices:
        iv, wv = v.get(vertex, 0), w.get(vertex, 0)
        if I[vertex].rows != iv or I[vertex].cols != wv:
            raise ShapeMismatch(f"I[{vertex}] must be {iv}x{wv}")
        if J[vertex].rows != wv or J[vertex].cols != iv:
            raise ShapeMismatch(f"J[{vertex}] must be {wv}x{iv}")
    return FramedModule(q, dict(v), dict(w), B, I, J, signed)


def _field_name(p: int) -> str:
    return f"F_{p}" if p else "Q"


# ---------------------------------------------------------------------------
# relations and stability
# ---------------------------------------------------------------------------

def check_relations(m: FramedModule) -> None:
    """Evaluate the preprojective relation at every vertex; raise
    RelationViolation, naming the vertex, at the first where it fails."""
    for vertex, leaving in m.quiver.leaving.items():
        terms = [(1, m.I[vertex], m.J[vertex])]
        terms += [(-1 if m.signed and info.eps == -1 else 1, m.B[reverse_key(info.key)],
                   m.B[info.key]) for info in leaving]
        if not sum_of_products(terms).is_zero():
            raise RelationViolation(f"preprojective relation fails at vertex {vertex}",
                                    vertex=vertex)


def _path_rows(m: FramedModule) -> dict[str, tuple[Mat, list[int]]]:
    """Per vertex x, a row basis of span{J_t B_p : p a path from x} in
    reduced echelon form, with its pivot columns.

    The rows grow one arrow at a time, rows_x += rows_tgt * B_h for every
    arrow h leaving x, until no rank grows; a vertex at full column rank
    is done.  Their kernels form the largest B-invariant graded subspace
    inside ker J (King, Q. J. Math. 45, 1994)."""
    def reduced(mat: Mat) -> tuple[Mat, list[int]]:
        red, pivots = mat.rref()
        return red.submatrix(range(len(pivots)), range(mat.cols)), pivots

    rows = {x: reduced(m.J[x]) for x in m.quiver.vertices}
    grown = True
    while grown:
        grown = False
        for x in m.quiver.vertices:
            if len(rows[x][1]) == m.v.get(x, 0):
                continue
            stacked = rows[x][0]
            for info in m.quiver.leaving[x]:
                stacked = stacked.vstack(rows[info.tgt][0] * m.B[info.key])
            new = reduced(stacked)
            if len(new[1]) > len(rows[x][1]):
                rows[x] = new
                grown = True
    return rows


def is_stable(m: FramedModule) -> bool:
    """No nonzero B-invariant graded subspace inside ker J."""
    check_relations(m)
    rows = _path_rows(m)
    return all(len(rows[x][1]) == m.v.get(x, 0) for x in m.quiver.vertices)


@lru_cache(maxsize=32)
def _all_subspace_bases(n: int, p: int) -> tuple[Mat, ...]:
    """Column bases of all subspaces of F_p^n, from reduced echelon forms;
    built once per (n, p) and shared, as a Mat is immutable."""
    import itertools
    out = [Mat.zeros(n, 0, p)]
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            free_positions = [
                (r, c) for r in range(k) for c in range(n)
                if c > pivots[r] and c not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free_positions)):
                rows = [[0] * n for _ in range(k)]
                for r, c in zip(range(k), pivots):
                    rows[r][c] = 1
                for (r, c), val in zip(free_positions, values):
                    rows[r][c] = val
                out.append(Mat(k, n, rows, p).transpose())
    return tuple(out)


def brute_stability(m: FramedModule) -> bool:
    """Independent stability oracle over a prime field: filter each
    vertex's subspaces (at most 4 dimensions) to those in ker J_x once, then
    test every graded combination for B-invariance.  No vertex: stable."""
    if not m.quiver.vertices:
        return True
    p = m.J[m.quiver.vertices[0]].p
    if not p:
        raise TooLarge("brute-force stability is restricted to prime fields")
    dims = [m.v.get(x, 0) for x in m.quiver.vertices]
    if any(d > 4 for d in dims):
        raise TooLarge("per-vertex dimension exceeds 4", estimate=max(dims), cap=4)
    per_vertex = [_all_subspace_bases(d, p) for d in dims]
    total = 1
    for ps in per_vertex:
        total *= len(ps)
    if total > 500_000:
        raise TooLarge(f"{total} graded subspaces is beyond the brute-force budget",
                       estimate=total, cap=500_000)

    import itertools
    arrows = m.quiver.doubled
    in_ker_j = [[s for s in spaces if (m.J[x] * s).is_zero()]
                for x, spaces in zip(m.quiver.vertices, per_vertex)]
    for combo in itertools.product(*in_ker_j):
        if all(b.cols == 0 for b in combo):
            continue
        spaces = dict(zip(m.quiver.vertices, combo))
        if all(column_space_contains(spaces[info.tgt], m.B[info.key] * spaces[info.src])
               for info in arrows):
            return False
    return True


# ---------------------------------------------------------------------------
# the automorphism action
# ---------------------------------------------------------------------------

def apply_theta(m: FramedModule, sigma: SigmaData) -> FramedModule:
    """Transport module data along the diagram automorphism sigma.auto.

    B'[image of h] = sign(h) * B[h], J'_{a(i)} = sigma_i J_i and
    I'_{a(i)} = I_i sigma_i^{-1}, with the images and signs of
    `quiver_core.arrow_transport`; the signs telescope to +1 over a full
    period, so iterating n times returns the module exactly.  sigma_i is
    inverted only where I_i is nonzero: a zero I_i is its own image.
    sigma fits m, whose v and w are orbit-constant, as read (`serialize`).
    """
    q = m.quiver
    image, signs = arrow_transport(q, sigma.auto)
    if not m.signed:
        newB = {image[key]: m.B[key] for key in image}
    elif signs is None:
        raise PreconditionViolation(
            "automorphism reverses an edge orbit with odd holonomy; "
            "no invariant orientation exists, use an unsigned module")
    else:
        newB = {image[key]: m.B[key] if signs[key] == 1 else -m.B[key] for key in image}

    perm = sigma.auto.vertex_perm
    newI = {perm[x]: m.I[x] if m.I[x].is_zero() else m.I[x] * sigma.maps[x].inverse()
            for x in q.vertices}
    newJ = {perm[x]: sigma.maps[x] * m.J[x] for x in q.vertices}
    return FramedModule(q, dict(m.v), dict(m.w), newB, newI, newJ, m.signed)


def act(g: Mapping[str, Mat], m: FramedModule) -> FramedModule:
    """The change-of-basis action: B goes to g B g^{-1} along arrows,
    I to g I, J to J g^{-1}."""
    return _conjugate(g, {x: g[x].inverse() for x in m.quiver.vertices}, m)


def _conjugate(g: Mapping[str, Mat], inv: Mapping[str, Mat], m: FramedModule) -> FramedModule:
    """`act` with the inverses g^{-1} given, for a caller that holds them."""
    q = m.quiver
    newB = {}
    for info in q.doubled:
        newB[info.key] = g[info.tgt] * m.B[info.key] * inv[info.src]
    newI = {x: g[x] * m.I[x] for x in q.vertices}
    newJ = {x: m.J[x] * inv[x] for x in q.vertices}
    return FramedModule(q, dict(m.v), dict(m.w), newB, newI, newJ, m.signed)


def direct_sum(m1: FramedModule, m2: FramedModule) -> FramedModule:
    """Blockwise direct sum of a module and its transport over their framing W."""
    q = m1.quiver
    v = {x: m1.v.get(x, 0) + m2.v.get(x, 0) for x in q.vertices}
    B = {}
    for info in q.doubled:
        B[info.key] = Mat.block_diag([m1.B[info.key], m2.B[info.key]])
    I = {x: m1.I[x].vstack(m2.I[x]) for x in q.vertices}
    J = {x: m1.J[x].hstack(m2.J[x]) for x in q.vertices}
    return FramedModule(q, v, dict(m1.w), B, I, J, m1.signed)


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------

class TransitionWitness(NamedTuple):
    """Per-vertex matrices g of a module isomorphism M -> theta(M).

    When summand_swap is set the witness is recorded relative to the
    matching that exchanges the two direct summands of M (the convention
    for two-summand witnesses built from a module and its twisted copy);
    the isomorphism is then swap . g, where swap exchanges the summand
    blocks, each of half the rows of g.
    """

    g: Mapping[str, Mat]
    summand_swap: bool = False


def witness_matrix(witness: TransitionWitness, vertex: str) -> Mat:
    """The honest per-vertex transition matrix, with the summand swap
    composed in when the witness is recorded summand-matched, from a g of
    even size, checked by `serialize.witness_from_dict` or built here."""
    g = witness.g[vertex]
    if not witness.summand_swap:
        return g
    n = g.rows // 2
    # the swap exchanges the two row blocks of g
    return g.submatrix([*range(n, g.rows), *range(n)], range(g.cols))


def verify_transition(m: FramedModule, sigma: SigmaData, witness: TransitionWitness) -> bool:
    """Is the witness, keyed by vertices of m's quiver, a module
    isomorphism m -> theta(m)?"""
    g = {x: witness_matrix(witness, x) for x in m.quiver.vertices}
    return check_framed_embedding(g, m, apply_theta(m, sigma))


def find_transition(m: FramedModule, sigma: SigmaData) -> Optional[TransitionWitness]:
    """The unique isomorphism g: m -> theta(m) for a stable module, or None
    when m and theta(m) are not isomorphic.

    The path rows of theta(m) + m at x span [J'_t B'_p | J_t B_p], p a
    path from x.  Their left half spans those of theta(m), of full column
    rank v_x at every x exactly when m is stable (sigma is invertible and
    the signs move no invariant subspace); else NotStable.  A further row
    means no g_x exists.  Else the rows are the graph {[u | u g_x]}: the
    empty path gives theta(J) g = J; an arrow h: x -> t maps the rows at t
    into those at x, so g_t B_h = theta(B)_h g_x; and the right half spans
    the full-rank path rows of m, so g_x is invertible.  The rows do not
    see I, and g I = theta(I) is checked alone.
    """
    check_relations(m)
    theta_m = apply_theta(m, sigma)
    rows = _path_rows(direct_sum(theta_m, m))
    vertices = m.quiver.vertices
    if any(rows[x][1][:m.v.get(x, 0)] != list(range(m.v.get(x, 0))) for x in vertices):
        raise NotStable("transition matrices are only unique for stable modules")
    if any(len(rows[x][1]) > m.v.get(x, 0) for x in vertices):
        return None
    g: dict[str, Mat] = {}
    for x in vertices:
        n = m.v.get(x, 0)
        g[x] = rows[x][0].submatrix(range(n), range(n, 2 * n))
        if g[x] * m.I[x] != theta_m.I[x]:
            return None
    return TransitionWitness(g)


def star(g: Mapping[str, Mat], a: DiagramAutomorphism) -> dict[str, Mat]:
    """The conjugated gauge element: (g*)_i = g_{a(i)}, g keyed by each vertex."""
    return {vertex: g[image] for vertex, image in a.vertex_perm.items()}


def build_theta_witness(m1: FramedModule, g: Mapping[str, Mat], sigma: SigmaData
                        ) -> tuple[FramedModule, TransitionWitness]:
    """The twisted-double construction: M = m1 + g.theta(m1) with the
    summand-matched transition blocks (g*_i, g_i^{-1}).

    Requires an involutive automorphism (the matching exchanges the two
    summands once); the witness is re-verified exactly against the
    composed swap before returning.  g is v_x x v_x at each vertex x, as
    read; a singular block is refused here, where it is inverted.
    """
    q = m1.quiver
    inv = {}  # g^{-1}, one elimination per block
    for x in q.vertices:
        try:
            inv[x] = g[x].inverse()
        except NotInvertible:
            raise NotInvertible(f"gauge block at {x} is singular") from None

    twisted = _conjugate(g, inv, apply_theta(m1, sigma))
    big = direct_sum(m1, twisted)
    check_relations(big)

    gstar = star(g, sigma.auto)
    blocks = {x: Mat.block_diag([gstar[x], inv[x]]) for x in q.vertices}
    witness = TransitionWitness(blocks, summand_swap=True)
    if not verify_transition(big, sigma, witness):
        raise WitnessVerificationFailed(
            "summand-matched witness failed exact verification; "
            "the construction needs an involutive automorphism")
    return big, witness


# ---------------------------------------------------------------------------
# eigenvalue profiles
# ---------------------------------------------------------------------------

def eigen_profile(g_mat: Mat, e: int) -> dict:
    """Eigenspace masses at the e-th roots of unity plus the residual mass
    of eigenvalues that are not e-th roots of unity.

    g_mat is square, as the gauge blocks of `build_theta_witness` are; the
    per-root dimensions are honest eigenspace dimensions (kernels of the
    cyclotomic values), and whatever is not accounted for lands in "other"."""
    dims = {Fraction(t, e): dim for t, dim in enumerate(root_of_unity_eigendims(g_mat, e))}
    return {"roots": dims, "other": g_mat.rows - sum(dims.values())}


def rational_eigenvalues(g_mat: Mat) -> list[tuple[Fraction, int]]:
    """Rational eigenvalues with algebraic multiplicities, from the
    characteristic polynomial."""
    if g_mat.rows == 0:
        return []
    out = []
    for factor, mult in factor_rational_poly(g_mat.charpoly()):
        if len(factor) == 2:
            out.append((-factor[1], mult))
    return sorted(out)


# ---------------------------------------------------------------------------
# embeddings and eigenspace inclusion
# ---------------------------------------------------------------------------

def check_framed_embedding(xi: Mapping[str, Mat], m_sub: FramedModule,
                           m: FramedModule) -> bool:
    """xi, v_x x v_sub,x at each vertex x as read, is an injective map of
    framed modules over their shared framing."""
    q = m.quiver
    for x in q.vertices:
        if xi[x].rank() != m_sub.v.get(x, 0):
            return False
    for info in q.doubled:
        if not sum_of_products(((1, m.B[info.key], xi[info.src]),
                                (-1, xi[info.tgt], m_sub.B[info.key]))).is_zero():
            return False
    for x in q.vertices:
        if xi[x] * m_sub.I[x] != m.I[x]:
            return False
        if m.J[x] * xi[x] != m_sub.J[x]:
            return False
    return True


class EigenInclusionReport(NamedTuple):
    ok: bool
    vertex: Optional[str] = None
    eigenvalue: Optional[str] = None
    vector: Optional[tuple[str, ...]] = None


def eigenvector_span(g_mat: Mat) -> Mat:
    """Columns spanning the sum of all eigenspaces of a square rational
    matrix over the algebraic closure.

    By the primary decomposition this is ker r(g), where r = chi / gcd(chi,
    chi') is the square-free part of the characteristic polynomial; it is
    computed over Q alone."""
    chi = g_mat.charpoly()
    r, _ = poly_divmod(chi, poly_gcd(chi, poly_derivative(chi)))
    return g_mat.poly_eval(r).nullspace()


def theorem5_verify(xi: Mapping[str, Mat], m_sub: FramedModule, m: FramedModule,
                    sigma: SigmaData, witness_sub: TransitionWitness,
                    witness: TransitionWitness) -> EigenInclusionReport:
    """Check that every eigenspace of the submodule's transition matrix
    lands inside the matching eigenspace of the ambient transition matrix.

    Both modules must be stable with exactly verified witnesses and xi a
    valid embedding.  For an eigenvector u of g_sub with eigenvalue lam,
    (g_big - lam) xi u is D u with D = g_big xi - xi g_sub, so the property
    holds at a vertex exactly when D vanishes on `eigenvector_span(g_sub)`;
    this is decided over Q, and needs no span where D is zero.  Only a
    failing vertex factors the characteristic polynomial, to name an
    eigenvalue and a counterexample vector exactly (`_eigen_counterexample`),
    still over Q.
    """
    if not check_framed_embedding(xi, m_sub, m):
        raise PreconditionViolation("xi is not a framed embedding")
    # xi maps a B-invariant subspace of ker J_sub injectively into ker J: m_sub is stable too
    if not is_stable(m):
        raise PreconditionViolation("both modules must be stable")
    if not verify_transition(m_sub, sigma, witness_sub):
        raise PreconditionViolation("submodule witness fails verification")
    if not verify_transition(m, sigma, witness):
        raise PreconditionViolation("ambient witness fails verification")

    for x in m.quiver.vertices:
        g_sub = witness_matrix(witness_sub, x)
        if g_sub.rows == 0:
            continue
        defect = sum_of_products(((1, witness_matrix(witness, x), xi[x]), (-1, xi[x], g_sub)))
        if not defect.is_zero() and not (defect * eigenvector_span(g_sub)).is_zero():
            return _eigen_counterexample(x, g_sub, defect)
    return EigenInclusionReport(True)


def _eigen_counterexample(x: str, g_sub: Mat, defect: Mat) -> EigenInclusionReport:
    """The first eigenvector u of g_sub with defect u != 0, one irreducible
    factor f of the characteristic polynomial at a time, over Q alone.

    For a root a of f of degree k, write u = X (1, a, ..., a^(k-1))^T with
    X rational n x k.  Then g u = a u is the Sylvester equation
    g X = X C^T, C the companion matrix of f, whose row-major vec(X) is
    the kernel of K = kron(g, I_k) - kron(I_n, C) (Horn and Johnson,
    Topics in Matrix Analysis, ch. 4), and defect u = 0 is defect X = 0.  The k columns of K at a column c of g - a span the
    Q(a)-line through it, so they are free together or not at all, and the
    kernel vector at the first of a free block is the kernel vector of
    g - a over Q(a) that is 1 at c and 0 at the other free columns.  An
    entry of u prints as its polynomial in a; at k = 1 as its rational.
    """
    n, g = g_sub.rows, g_sub.data
    for factor, _mult in factor_rational_poly(g_sub.charpoly()):
        c = companion(factor).data
        k = len(c)
        kernel = Mat.rational([[g[r][s] * (i == j) - (r == s) * c[i][j]
                                for s in range(n) for j in range(k)]
                               for r in range(n) for i in range(k)]).nullspace()
        for col in range(0, kernel.cols, k):
            coords = Mat.rational([[kernel[r * k + j, col] for j in range(k)]
                                   for r in range(n)])
            if not (defect * coords).is_zero():
                lam = str(-factor[1]) if k == 1 else f"root of {poly_str(factor)}"
                return EigenInclusionReport(False, x, lam, tuple(
                    poly_str(row[::-1], "a") for row in coords.data))
    raise PropertyViolation(f"the defect at {x} vanishes on every eigenvector but not "
                            f"on their span")
