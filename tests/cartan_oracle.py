"""The former Cartan type classifier, kept as the oracle of `qfold.lie_fold`,
which now reads each type off the diagram.

Finiteness is Sylvester's test: each leading principal minor of the
symmetrized matrix, by a determinant of its own, is positive.  A finite
matrix is then matched against the canonical matrix of each finite family
by an index search, and a matrix of corank 1 against the untwisted affine
A and D diagrams.  The rank-2 double bonds are read literally.
"""

from fractions import Fraction
from functools import lru_cache

from iso_oracle import index_isomorphisms

from qfold.errors import NotSymmetrizable, UnsupportedFamily
from qfold.lie_fold import TypeLabel, canonical_cartan, cartan_from_quiver, symmetrizer
from qfold.linalg import Mat
from qfold.quiver_core import affine_a_quiver, affine_d_quiver

FINITE_FAMILIES = "ABCDEFG"


def fraction_det(rows):
    """Gaussian elimination over Fractions, with row exchanges."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for pc in range(len(m)):
        pr = next((r for r in range(pc, len(m)) if m[r][pc]), None)
        if pr is None:
            return Fraction(0)
        if pr != pc:
            m[pc], m[pr] = m[pr], m[pc]
            det = -det
        det *= m[pc][pc]
        for r in range(pc + 1, len(m)):
            if m[r][pc]:
                f = m[r][pc] / m[pc][pc]
                m[r] = [a - f * b for a, b in zip(m[r], m[pc])]
    return det


@lru_cache(maxsize=None)
def per_minor_finite_type(c):
    """Each leading principal minor of the symmetrized matrix by a
    determinant of its own, all of them positive (once per matrix)."""
    try:
        d = symmetrizer(c)
    except NotSymmetrizable:
        return False
    b = [[c[i, j] * d[j] for j in range(c.n)] for i in range(c.n)]
    return all(fraction_det([row[:k] for row in b[:k]]) > 0 for k in range(1, c.n + 1))


def finite_targets(n):
    """(family, canonical matrix) of every finite family at rank n, in the
    order the classifier tries them."""
    targets = []
    for family in FINITE_FAMILIES:
        try:
            targets.append((family, canonical_cartan(family, n)))
        except UnsupportedFamily:
            pass
    return targets


def affine_targets(n):
    """(family, matrix) of the untwisted affine A and D diagrams on n
    vertices."""
    targets = [("affine-A", cartan_from_quiver(affine_a_quiver(n - 1)))] if n >= 2 else []
    return targets + ([("affine-D", cartan_from_quiver(affine_d_quiver(n - 1)))] if n >= 5 else [])


def oracle_classify(c):
    """The label the former `classify_cartan` gave c."""
    n = c.n
    if n == 2 and c.entries == ((2, -1), (-2, 2)):
        return TypeLabel("C", 2)
    if n == 2 and c.entries == ((2, -2), (-1, 2)):
        return TypeLabel("B", 2)

    def matches(target):
        return next(index_isomorphisms(c.entries, target.entries), None) is not None

    if per_minor_finite_type(c):
        for family, target in finite_targets(n):
            if matches(target):
                return TypeLabel(family, n)
        return TypeLabel("other", n)
    if Mat.rational(c.entries).rank() == n - 1:
        for family, target in affine_targets(n):
            if matches(target):
                return TypeLabel(family, n - 1)
    return TypeLabel("other", n)
