import random
from fractions import Fraction

import pytest

from qfold.dim_calc import dim_quiver_variety, dim_steinberg, fixed_components
from qfold.errors import NotOrbitConstant
from qfold.lie_fold import cartan_from_quiver, cartan_matrix
from qfold.quiver_core import a_quiver, d_quiver, fork_swap_automorphism
from qfold.split_quotient import fiber_count, split_quiver

A1 = cartan_matrix([[2]])


def test_cotangent_grassmannian_oracle():
    # T*Gr(k, m) has dimension 2k(m-k)
    for m in range(6):
        for k in range(m + 1):
            assert dim_quiver_variety({"1": k}, {"1": m}, A1) == 2 * k * (m - k)
    assert dim_quiver_variety({"1": 0}, {"1": 3}, A1) == 0


def test_dim_permutation_equivariance():
    rng = random.Random(1)
    a3 = cartan_from_quiver(a_quiver(3))
    relabeled = cartan_matrix(
        [[a3[(i + 1) % 3, (j + 1) % 3] for j in range(3)] for i in range(3)],
        labels=["b", "c", "a"])
    for _ in range(10):
        v = {str(i): rng.randint(0, 3) for i in range(1, 4)}
        w = {str(i): rng.randint(0, 3) for i in range(1, 4)}
        mapped = {"2": "b", "3": "c", "1": "a"}
        v2 = {mapped[k]: val for k, val in v.items()}
        w2 = {mapped[k]: val for k, val in w.items()}
        assert dim_quiver_variety(v, w, a3) == dim_quiver_variety(v2, w2, relabeled)


def test_steinberg_half_sum():
    assert dim_steinberg({"1": 1}, {"1": 2}, {"1": 2}, A1) == Fraction(1)
    assert dim_steinberg({"1": 1}, {"1": 1}, {"1": 2}, A1) == \
        dim_quiver_variety({"1": 1}, {"1": 2}, A1)
    assert dim_steinberg({"1": 1}, {"1": 2}, {"1": 2}, A1) == \
        dim_steinberg({"1": 2}, {"1": 1}, {"1": 2}, A1)
    # the value is an exact rational (symmetric Cartan data makes every
    # variety dimension even, so these half-sums happen to be integers)
    val = dim_steinberg({"1": 0}, {"1": 1}, {"1": 1}, A1)
    assert isinstance(val, Fraction) and val == 0


def test_fixed_components_zero_vector():
    d4 = d_quiver(4)
    sd = split_quiver(d4, fork_swap_automorphism(d4, 4))
    records = fixed_components({x: 0 for x in d4.vertices}, sd,
                               {x: 0 for x in sd.split.vertices})
    assert len(records) == 1
    assert records[0].dim == 0 and not records[0].empty_by_formula


def test_fixed_components_d4_swap():
    d4 = d_quiver(4)
    sd = split_quiver(d4, fork_swap_automorphism(d4, 4))
    v = {"1": 1, "2": 1, "3": 1, "4": 1}
    w_split = {"1@1/2": 1, "1@2/2": 0, "2@1/2": 1, "2@2/2": 0, "3@1/1": 1}
    records = fixed_components(v, sd, w_split)
    assert len(records) == 4 == fiber_count(v, sd)
    dims = sorted(r.dim for r in records)
    assert dims == [0, 0, 0, 4]
    # multiset of records is invariant under the induced relabelling
    relabel = sd.induced.vertex_perm
    keys = sorted(tuple(sorted({relabel[k]: val for k, val in r.v_split.items()}.items()))
                  for r in records)
    orig = sorted(tuple(sorted(r.v_split.items())) for r in records)
    assert keys == orig


def test_fixed_components_flags_negative_formula():
    d4 = d_quiver(4)
    sd = split_quiver(d4, fork_swap_automorphism(d4, 4))
    v = {x: 3 for x in d4.vertices}
    records = fixed_components(v, sd, {x: 0 for x in sd.split.vertices})
    assert any(r.empty_by_formula for r in records)
    assert all((r.dim < 0) == r.empty_by_formula for r in records)


def test_fixed_components_requires_orbit_constant():
    d4 = d_quiver(4)
    sd = split_quiver(d4, fork_swap_automorphism(d4, 4))
    with pytest.raises(NotOrbitConstant):
        fixed_components({"1": 1, "2": 1, "3": 1, "4": 2}, sd, {})
