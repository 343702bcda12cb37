"""The former hand-built Chevalley generators, kept as the oracle of
`qfold.lie_fold`, which now builds them from the Cartan matrix on a
minuscule module; and the former `serre_check`, which formed [H_i, H_j]
for every ordered pair.

sl_{n+1} and so_{2n} act on their defining representations, wired by hand
for the labels "1".."rank" of `a_quiver` and `d_quiver`; the orbit sums are
taken over the orbits of the vertex map.  The D bases differ from the
minuscule module's, so compare Serre reports, sizes and ranks, not
matrices.
"""

from qfold.lie_fold import SerreViolation, _comm
from qfold.linalg import Mat
from qfold.quiver_core import DiagramAutomorphism, _orbits


def _unit(size: int, r: int, c: int) -> Mat:
    m = [[0] * size for _ in range(size)]
    m[r][c] = 1
    return Mat.rational(m)


def _sl_generators(n: int) -> tuple[list[Mat], list[Mat], list[Mat]]:
    """Chevalley triple of sl_{n+1} in the defining (n+1)-dim representation."""
    E = [_unit(n + 1, i, i + 1) for i in range(n)]
    F = [_unit(n + 1, i + 1, i) for i in range(n)]
    return E, F, [_comm(e, f) for e, f in zip(E, F)]


def _so_even_generators(n: int) -> tuple[list[Mat], list[Mat], list[Mat]]:
    """Chevalley triple of so_{2n} (type D_n) in the defining 2n-dim
    representation preserving the anti-diagonal symmetric form."""
    size = 2 * n
    E, F = [], []
    for i in range(1, n):  # alpha_i = eps_i - eps_{i+1}
        E.append(_unit(size, i - 1, i) - _unit(size, size - 1 - i, size - i))
        F.append(_unit(size, i, i - 1) - _unit(size, size - i, size - 1 - i))
    # alpha_n = eps_{n-1} + eps_n
    E.append(_unit(size, n - 2, n) - _unit(size, n - 1, n + 1))
    F.append(_unit(size, n, n - 2) - _unit(size, n + 1, n - 1))
    return E, F, [_comm(e, f) for e, f in zip(E, F)]


def oracle_folded_generators(rank: int, family: str, a: DiagramAutomorphism
                             ) -> tuple[list[Mat], list[Mat], list[Mat]]:
    """Orbit-summed Chevalley generators in the defining representation of
    A_rank or D_rank, in orbit order (orbits sorted by minimal member)."""
    E, F, _H = {"A": _sl_generators, "D": _so_even_generators}[family](rank)
    labels = tuple(str(i + 1) for i in range(rank))
    Ef, Ff, Hf = [], [], []
    for orb in _orbits(labels, a.vertex_perm):
        first, *rest = [int(s) - 1 for s in orb]
        Ef.append(sum((E[k] for k in rest), E[first]))
        Ff.append(sum((F[k] for k in rest), F[first]))
        Hf.append(_comm(Ef[-1], Ff[-1]))
    return Ef, Ff, Hf


def oracle_serre_check(c, E, F, H) -> tuple[SerreViolation, ...]:
    """`serre_check` as it was, every relation for every ordered pair."""
    n = c.n
    size = E[0].rows if n else 0
    bad = []
    for i in range(n):
        for j in range(n):
            if not _comm(H[i], H[j]).is_zero():
                bad.append(SerreViolation("hh", i, j))
    for i in range(n):
        for j in range(n):
            if not (_comm(H[i], E[j]) - E[j].scaled(c[j, i])).is_zero():
                bad.append(SerreViolation("he", i, j))
            if not (_comm(H[i], F[j]) + F[j].scaled(c[j, i])).is_zero():
                bad.append(SerreViolation("hf", i, j))
    for i in range(n):
        for j in range(n):
            expect = H[i] if i == j else Mat.zeros(size, size, H[i].p)
            if not (_comm(E[i], F[j]) - expect).is_zero():
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
