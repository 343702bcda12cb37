import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qfold.errors import InputError
from qfold.generators import random_graded_pair, random_theta_module
from qfold.linalg import Mat, qq
from qfold.quiver_core import a_quiver, flip_automorphism
from qfold.serialize import (
    mat_from_obj,
    mat_to_obj,
    module_from_dict,
    module_to_dict,
    sigma_from_dict,
    sigma_to_dict,
    witness_from_dict,
    witness_to_dict,
)


def test_matrix_round_trip_with_fractions():
    m = Mat.rational([["1/2", "-3"], ["0", "7/5"]])
    obj = mat_to_obj(m)
    assert obj["data"][0][0] == "1/2"
    assert mat_from_obj(obj) == m


def test_matrix_round_trip_zero_shapes():
    for rows, cols in [(0, 3), (3, 0), (0, 0)]:
        m = Mat.zeros(rows, cols)
        back = mat_from_obj(mat_to_obj(m))
        assert back.rows == rows and back.cols == cols


def test_bare_list_matrix_accepted():
    m = mat_from_obj([["1", "2"], ["3", "4"]])
    assert m == Mat.rational([[1, 2], [3, 4]])


def test_strings_and_objects_are_not_read_as_matrices():
    # a string or an object is iterable, but it is no array of rows
    for obj in ["12", [["1", "2"], "34"], {"rows": 1, "cols": 2, "data": {"12": 0}},
                {"rows": 1, "cols": 2, "data": "12"}, {"rows": 1, "cols": 2, "data": [{"1": 0}]},
                "", {"rows": 0, "cols": 0, "data": {}}]:
        with pytest.raises(InputError):
            mat_from_obj(obj)


def test_entries_other_than_ints_and_plain_rational_strings_are_refused():
    assert mat_from_obj([[3, "-3/4"]]) == Mat.rational([[3, Fraction(-3, 4)]])
    for entry in [True, False, 1.0, None, [1], "1e3", "1E3", "-2E999999999"]:
        with pytest.raises(InputError):
            mat_from_obj([[entry]])


def test_module_round_trip():
    rng = random.Random(6)
    a3 = a_quiver(3)
    flip = flip_automorphism(a3, 3)
    m, sigma = random_theta_module(rng, a3, flip)
    back = module_from_dict(a3, module_to_dict(m))
    assert back == m
    sig_back = sigma_from_dict(a3, flip, sigma_to_dict(sigma))
    assert sig_back.maps == dict(sigma.maps)


def test_witness_round_trip():
    rng = random.Random(6)
    a3 = a_quiver(3)
    flip = flip_automorphism(a3, 3)
    _xi, _sub, _m, _sigma, _wsub, wit = random_graded_pair(rng, a3, flip)
    back = witness_from_dict(witness_to_dict(wit))
    assert back.g == dict(wit.g)
    assert back.summand_swap == wit.summand_swap


def _read(reader, s):
    """("ok", type, value) of reader(s), or ("error", exception type, message)."""
    try:
        x = reader(s)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return "error", type(exc), str(exc)
    return "ok", type(x), x


def _fraction_entry(s):
    """The entry Fraction(s) reads: an int when it is integral."""
    x = Fraction(s)
    return x.numerator if x.denominator == 1 else x


def _check_entry_string(s):
    want = _read(_fraction_entry, s)
    assert _read(qq, s) == want, s
    got = _read(lambda t: mat_from_obj([[t]]), s)
    if want[0] == "error" or "e" in s.lower():     # an exponent is refused too
        assert got[:2] == ("error", InputError), (s, got)
    else:
        m = got[2]
        assert (m.rows, m.cols, type(m[0, 0]), m[0, 0]) == (1, 1, want[1], want[2]), s


@pytest.mark.parametrize("s", ["3", "-0", "007", "+3", " 3", "1_000", "\u0663", "\u00b2", "3/1",
                               "-4/6", "1/0", "-3/-4", "1e3", "10/4", "-0/7", "0/0", "1/",
                               "/2", "", "-", "3\n"])
def test_entries_are_read_as_fraction_reads_them(s):
    _check_entry_string(s)


@settings(max_examples=300, derandomize=True)
@given(st.text(st.sampled_from(list("-+/0123456789") + [" ", "_", "\u0663"]), max_size=8))
def test_drawn_entry_strings_are_read_as_fraction_reads_them(s):
    _check_entry_string(s)
