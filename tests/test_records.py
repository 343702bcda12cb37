"""qfold's records against the frozen dataclasses they replaced.

Each record is a `typing.NamedTuple` or a slotted `quiver_core.Record`
now; `record_oracle` keeps the dataclass each one used to be.  Built from
the same field values, old and new must show the same repr, compare and
hash alike within their own type, refuse assignment, and refuse the same
bad input with the same error; a module's input is refused by
`framed_module`, and a twist's composite by `SigmaData.validate`, which
`sigma_from_dict` runs: each is checked where it enters.
"""

import dataclasses
import inspect
from itertools import count, product

import pytest

import record_oracle as old
from qfold import corpus, dim_calc, lie_fold, module_lab, quiver_core, rep_branch, split_quotient
from qfold.corpus import corpus_entry
from qfold.lie_fold import cartan_from_quiver, fold_cartan
from qfold.linalg import Mat
from qfold.module_lab import framed_module
from qfold.quiver_core import (Edge, a_quiver, d_quiver, flip_automorphism,
                               fork_swap_automorphism, orbit_data)
from qfold.rep_branch import root_datum
from qfold.serialize import matmap_to_obj, sigma_from_dict
from qfold.split_quotient import split_quiver

HOMES = {
    quiver_core: ("Quiver", "DiagramAutomorphism", "OrbitData"),
    lie_fold: ("CartanMatrix", "TypeLabel", "FoldedAlgebraData", "SerreViolation"),
    rep_branch: ("RootDatum",),
    corpus: ("CorpusEntry",),
    dim_calc: ("ComponentRecord",),
    split_quotient: ("SplitVertex", "SplitData", "SigmaData"),
    module_lab: ("FramedModule", "TransitionWitness", "EigenInclusionReport"),
}
NEW = {name: getattr(module, name) for module, names in HOMES.items() for name in names}

A3, D4 = a_quiver(3), d_quiver(4)
FLIP, SWAP = flip_automorphism(A3, 3), fork_swap_automorphism(D4, 4)
C_A3, C_D4 = cartan_from_quiver(A3), cartan_from_quiver(D4)
ONE = Mat.identity(1)
# sigma on the flip of A3: the orbit {1, 3} has e = 1, the orbit {2} has e = 2
SIGMA = {"1": ONE, "2": ONE, "3": ONE}
TWIST = {"1": Mat.rational([[2]]), "2": Mat.rational([[-1]]), "3": Mat.rational([["1/2"]])}
MODULE = framed_module(A3, {"1": 1, "2": 1, "3": 0}, {"1": 1, "2": 0, "3": 0})


def fields_of(name):
    """The constructor's field names, as the old dataclass declared them."""
    return [f.name for f in dataclasses.fields(getattr(old, name)) if f.init]


def values(record):
    name = type(record).__name__
    return tuple(getattr(record, field) for field in fields_of(name))


def module_values(**changes):
    return tuple(changes.get(field, getattr(MODULE, field)) for field in fields_of("FramedModule"))


# per type, field values to build from: two or more that differ, and one
# that leaves a default out where the type has defaults
SAMPLES = {
    "Quiver": [(A3.vertices, A3.edges), (D4.vertices, D4.edges)],
    "DiagramAutomorphism": [(dict(FLIP.vertex_perm), dict(FLIP.edge_perm)),
                            (SWAP.vertex_perm, SWAP.edge_perm)],
    "OrbitData": [values(orbit_data(A3, FLIP)), values(orbit_data(D4, SWAP))],
    "CartanMatrix": [values(C_A3), values(C_D4)],
    "TypeLabel": [("A", 3), ("B", 3), ("A", 4)],
    "FoldedAlgebraData": [values(fold_cartan(C_A3, FLIP)), values(fold_cartan(C_D4, SWAP))],
    "SerreViolation": [("serre", 0, 1), ("hh", 0, 1), ("serre", 1, 0)],
    "RootDatum": [values(root_datum(C_A3)), values(root_datum(C_D4))],
    "CorpusEntry": [values(corpus_entry("A3-flip")), values(corpus_entry("A4-flip"))],
    "ComponentRecord": [({"1": 1}, {"1": 0}, 2, False), ({"1": 1}, {"1": 0}, -2, True)],
    "SplitVertex": [(("1", "3"), 1, 1), (("2",), 2, 2), (("2",), 1, 2)],
    "SplitData": [values(split_quiver(A3, FLIP)), values(split_quiver(D4, SWAP))],
    "SigmaData": [(A3, FLIP, SIGMA), (A3, FLIP, TWIST)],
    "FramedModule": [values(MODULE), module_values(signed=False), values(MODULE)[:-1],
                     module_values(w={"1": 1})],
    "TransitionWitness": [({"1": ONE},), ({"1": ONE}, True), ({"1": -ONE}, False)],
    "EigenInclusionReport": [(True,), (False, "1", "2", ("1", "0")), (False, "1", "-1", None)],
}

# per validating type, constructor arguments that each check refuses
REFUSED = {
    "Quiver": [(("1", "1"), ()), (("1", "2"), (Edge("e", "1", "2"), Edge("e", "2", "1"))),
               (("1",), (Edge("e", "1", "9"),))],
    "DiagramAutomorphism": [(None, {}), ({"1": ["2"]}, {})],
    "SigmaData": [(A3, FLIP, {**SIGMA, "2": Mat.zeros(1, 1)}),
                  (A3, FLIP, {**SIGMA, "2": Mat.rational([[2]])})],
    "FramedModule": [
        module_values(v={**MODULE.v, "9": 0}),
        module_values(B={**MODULE.B, "zz": ONE}),
        module_values(v={**MODULE.v, "3": -1}),
        module_values(B={**MODULE.B, "e1": Mat.zeros(2, 2)}),
        module_values(I={**MODULE.I, "1": Mat.zeros(2, 1)}),
        module_values(J={**MODULE.J, "1": Mat.zeros(2, 2)}),
    ],
}


def entered_sigma(q, a, maps):
    """Twists as they enter from outside: as JSON, through `sigma_from_dict`,
    for the framing their sizes give."""
    return sigma_from_dict(q, a, matmap_to_obj(maps), {x: m.cols for x, m in maps.items()})


# where a type's input is checked, when not in its constructor
CHECKED_BY = {"FramedModule": framed_module, "SigmaData": entered_sigma}
# the places in REFUSED's order of the cases whose check is gone: a CartanMatrix
# that is not square, has a diagonal entry other than 2, a positive entry or
# an unsymmetric zero pattern, which only the program builds, and builds valid;
# SplitVertex phases outside 1..e, which only split_quiver builds and always in
# range; a twist with a stray key, a missing vertex, a matrix that is not
# square or one that misses the framing of its image, which the map reader
# refuses now, pinned by the sigma rows of test_cli's MODULE_FILE_FACTS and by
# test_module_lab's test_sigma_constraint_checked; and a module's missing B
# or I, which framed_module fills with zeros; each other case keeps the
# number that names its test
RETIRED = {0, 1, 2, 3, 4, 5, 11, 12, 13, 14, 20, 22}


def test_every_record_has_its_oracle():
    assert len(NEW) == 16 and set(NEW) == set(SAMPLES)
    for name, cls in NEW.items():
        assert dataclasses.is_dataclass(getattr(old, name))
        assert not dataclasses.is_dataclass(cls)
        assert issubclass(cls, (tuple, quiver_core.Record)), name


@pytest.mark.parametrize("name", NEW)
def test_same_constructor(name):
    def params(cls):
        return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]
    assert params(NEW[name]) == params(getattr(old, name))
    assert list(NEW[name]._fields) == fields_of(name)


@pytest.mark.parametrize("name", NEW)
def test_same_repr_equality_and_hash(name):
    new_cls, old_cls = NEW[name], getattr(old, name)
    samples = SAMPLES[name]
    for args in samples:
        new, was = new_cls(*args), old_cls(*args)
        assert repr(new) == repr(was)
        try:
            want = hash(was)
        except TypeError:
            with pytest.raises(TypeError):
                hash(new)
        else:
            assert hash(new) == want
    verdicts = set()
    for a, b in product(samples, repeat=2):
        verdict = old_cls(*a) == old_cls(*b)
        verdicts.add(verdict)
        assert (new_cls(*a) == new_cls(*b)) is verdict, (a, b)
        assert (new_cls(*a) != new_cls(*b)) is (not verdict), (a, b)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", NEW)
def test_assignment_is_refused(name):
    record = NEW[name](*SAMPLES[name][0])
    for field in fields_of(name) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)


def outcome(cls, args):
    try:
        cls(*args)
    except Exception as exc:  # noqa: BLE001  (the oracle fixes which)
        return type(exc), str(exc)
    return None


def refusal_cases():
    numbers = (n for n in count() if n not in RETIRED)
    return [pytest.param(name, args, id=f"{name}-args{next(numbers)}")
            for name, cases in REFUSED.items() for args in cases]


@pytest.mark.parametrize("name, args", refusal_cases())
def test_same_refusal(name, args):
    want = outcome(getattr(old, name), args)
    assert want is not None
    assert outcome(CHECKED_BY.get(name, NEW[name]), args) == want
