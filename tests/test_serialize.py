import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qfold.errors import InputError, MalformedEntry
from qfold.generators import random_graded_pair, random_theta_module
from qfold.linalg import Mat, qq
from qfold.module_lab import build_theta_witness, verify_transition, witness_matrix
from qfold.quiver_core import a_quiver, flip_automorphism
from qfold.serialize import (
    dim_entry,
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


def test_a_prime_field_matrix_is_written_as_fp_prints_and_not_read_back():
    # module files are over Q: the residues of an F_p matrix are not
    # written as bare ints, which would read back over Q
    obj = mat_to_obj(Mat(1, 2, [[2, 0]], 3))
    assert obj["data"] == [["2 mod 3", "0 mod 3"]]
    with pytest.raises(InputError):
        mat_from_obj(obj)


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
    sig_back = sigma_from_dict(a3, flip, sigma_to_dict(sigma), m.w)
    assert sig_back.maps == dict(sigma.maps)


def test_witness_round_trip():
    rng = random.Random(6)
    a3 = a_quiver(3)
    flip = flip_automorphism(a3, 3)
    _xi, _sub, m, _sigma, _wsub, wit = random_graded_pair(rng, a3, flip)
    back = witness_from_dict(a3, witness_to_dict(wit), m.v, "witness")
    assert back.g == dict(wit.g)
    assert back.summand_swap == wit.summand_swap
    # a twisted double's summand-swapped witness: its block sizes come from
    # the module, so it reads back to the same transition
    m1, sigma = random_theta_module(rng, a3, flip)
    gauge = {x: Mat.identity(m1.v[x]).scaled(Fraction(x)) for x in a3.vertices}
    big, wit = build_theta_witness(m1, gauge, sigma)
    obj = witness_to_dict(wit)
    assert set(obj) == {"g", "summand_swap"} and obj["summand_swap"] is True
    back = witness_from_dict(a3, obj, big.v, "witness")
    assert back.summand_swap
    assert all(witness_matrix(back, x) == witness_matrix(wit, x) for x in a3.vertices)
    assert verify_transition(big, sigma, back)


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


def _fraction_entry_json(value):
    """The matrix entry reader before matrices were read into (num, den):
    every entry, after the JSON checks, read as `qq` reads it, here by
    `Fraction` itself (see `test_entries_are_read_as_fraction_reads_them`),
    so that the oracle shares no code with the reader."""
    cls = value.__class__
    if cls is int or (cls is str and "e" not in value and "E" not in value):
        return _fraction_entry(value)
    raise InputError(f"matrix entries must be integers or rational strings, got {value!r}")


def fraction_reader(obj) -> Mat:
    """The oracle for `mat_from_obj`: the reader before matrices were read
    into (num, den), one entry at a time (a Fraction for each "n/d"),
    then `Mat(rows, cols, data)`, which takes each Fraction apart again."""
    try:
        data = obj["data"] if isinstance(obj, dict) else obj
        if data.__class__ is not list or any(row.__class__ is not list for row in data):
            raise InputError("malformed matrix JSON: the data must be an array of arrays")
        data = [[_fraction_entry_json(x) for x in row] for row in data]
        if isinstance(obj, dict):
            return Mat(dim_entry(obj["rows"], '"rows"'), dim_entry(obj["cols"], '"cols"'), data)
        return Mat(len(data), len(data[0]) if data else 0, data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed matrix JSON: {exc}") from exc


def _outcome(reader, obj):
    """(rows, cols, num, den, p) of the matrix reader(obj) reads, or the
    type and message of what it raises."""
    try:
        m = reader(obj)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)
    return m.rows, m.cols, m.num, m.den, m.p


# strings over the characters of rationals, signs, exponents, separators,
# whitespace and non-ASCII digits, strings near the ASCII "n" and "n/d"
# forms, and those forms themselves, which the reader reads itself
ENTRY_STRINGS = st.one_of(
    st.text(st.sampled_from(list("-+/_.eE 0123456789\u0663\u00b2\t\n\u00a0")), max_size=8),
    st.text(st.sampled_from(list("-+/_0123")), max_size=5),
    st.integers().map(str),
    st.builds("{}/{}".format, st.integers(), st.integers(0, 10 ** 20)))
ENTRIES = st.one_of(st.integers(), st.booleans(), st.floats(), st.none(), ENTRY_STRINGS)


@st.composite
def matrix_documents(draw):
    """A matrix as JSON gives it: 0-3 rows of 0-3 entries, now and then a
    ragged row, bare or in an object whose "rows" and "cols" are right,
    wrong, negative or strings."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    data = [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    if rows and draw(st.booleans()):
        data[draw(st.integers(0, rows - 1))].extend(draw(st.lists(ENTRIES, max_size=2)))
    if draw(st.booleans()):
        return data

    def dim(right):
        return draw(st.one_of(st.just(right), st.integers(-2, 4), st.just(str(right)),
                              st.integers(-2, 4).map(str)))

    return {"rows": dim(rows), "cols": dim(cols), "data": data}


@settings(max_examples=1000, derandomize=True)
@given(matrix_documents())
def test_reader_matches_the_fraction_reader(obj):
    want = _outcome(fraction_reader, obj)
    assert _outcome(mat_from_obj, obj) == want
    if isinstance(obj, list):
        # Mat.rational reads what the file reader reads, and reports what
        # Fraction cannot read as a MalformedEntry with Fraction's message
        got = _outcome(Mat.rational, obj)
        if got[0] is MalformedEntry:
            got = InputError, f"malformed matrix JSON: {got[1]}"
        assert got == want


@settings(max_examples=300, derandomize=True)
@given(st.integers(0, 3).flatmap(lambda cols: st.lists(
    st.lists(st.one_of(st.integers(), st.fractions()), min_size=cols, max_size=cols),
    max_size=3)))
def test_writer_prints_entries_as_str_does(rows):
    m = Mat.rational(rows)
    assert mat_to_obj(m)["data"] == [[str(x) for x in row] for row in m.data]
    assert mat_from_obj(mat_to_obj(m)) == m
