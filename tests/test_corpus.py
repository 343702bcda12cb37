import json
import sys

import pytest

from qfold.corpus import CORPUS_ENV, corpus, corpus_entry
from qfold.errors import InputError
from qfold.quiver_core import check_automorphism, is_admissible, quiver_from_dict, quiver_to_dict


def entry_to_dict(entry):
    """A corpus entry as the quiver JSON document a corpus directory holds,
    with its name and admissibility beside the quiver."""
    out = quiver_to_dict(entry.quiver, entry.auto)
    out["name"] = entry.name
    out["admissible"] = entry.admissible
    return out


def test_every_entry_is_valid():
    for entry in corpus():
        check_automorphism(entry.quiver, entry.auto)
        assert entry.admissible == is_admissible(entry.quiver, entry.auto)


def test_expected_names_present():
    names = {e.name for e in corpus()}
    for want in ("A3-flip", "A5-flip", "A9-flip", "A4-flip", "D4-swap", "D6-swap",
                 "D4-rot3", "affineA3-rot", "affineA3-flip", "affineD4-doubleswap"):
        assert want in names


def test_admissibility_flags():
    flags = {e.name: e.admissible for e in corpus()}
    assert flags["A5-flip"] and flags["D4-swap"] and flags["affineA3-flip"]
    assert not flags["A4-flip"]
    assert not flags["affineA1-swap"]
    assert not flags["affineA3-rot"]


def test_unknown_entry_error_lists_names():
    with pytest.raises(InputError) as err:
        corpus_entry("nope")
    assert "A3-flip" in str(err.value)


def test_entry_round_trips_through_json():
    for entry in corpus():
        payload = json.loads(json.dumps(entry_to_dict(entry)))
        q, a = quiver_from_dict(payload)
        assert q == entry.quiver
        assert a.vertex_perm == entry.auto.vertex_perm
        assert a.edge_perm == entry.auto.edge_perm


def test_corpus_dir_override(tmp_path, monkeypatch):
    entry = corpus_entry("A3-flip")
    doc = entry_to_dict(entry)
    doc["description"] = "odd path with the end-to-end flip"   # a key not read
    (tmp_path / "custom.json").write_text(json.dumps(doc))
    monkeypatch.setenv(CORPUS_ENV, str(tmp_path))
    entries = corpus()
    assert [e.name for e in entries] == ["custom"]
    assert entries[0].quiver == entry.quiver
    assert entries[0].admissible
    got = corpus_entry("custom")
    assert got.auto.vertex_perm == entry.auto.vertex_perm


def test_each_entry_built_alone_equals_the_corpus_entry():
    entries = corpus()
    assert len(entries) == 18
    for entry in entries:
        assert corpus_entry(entry.name) == entry, entry.name


def test_a_named_builtin_entry_is_built_alone(monkeypatch):
    # the package re-exports the function `corpus` under the module's name
    corpus_module = sys.modules["qfold.corpus"]

    def every_entry():
        raise AssertionError("built every entry for one name")

    monkeypatch.setattr(corpus_module, "corpus", every_entry)
    assert corpus_entry("D5-swap").name == "D5-swap"


def test_the_builtin_corpus_is_built_once_per_process(tmp_path, monkeypatch):
    """Each call returns a fresh list of the same entries, built once; the
    corpus directory is still read on every call, cache or not."""
    monkeypatch.delenv(CORPUS_ENV, raising=False)
    first = corpus()
    first.pop()
    second = corpus()
    assert len(second) == 18 and second is not corpus()
    assert all(a is b for a, b in zip(first, second))
    (tmp_path / "custom.json").write_text(json.dumps(entry_to_dict(second[1])))
    monkeypatch.setenv(CORPUS_ENV, str(tmp_path))
    assert [e.name for e in corpus()] == ["custom"]
    monkeypatch.delenv(CORPUS_ENV)
    assert corpus() == second
