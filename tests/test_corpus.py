import json
import sys

import pytest

from qfold.cli import main
from qfold.corpus import corpus, corpus_entry
from qfold.errors import InputError
from qfold.quiver_core import check_automorphism, is_admissible, quiver_from_dict, quiver_to_dict


def entry_to_dict(entry):
    """A corpus entry as a quiver JSON document, with its name and
    admissibility beside the quiver."""
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


def test_the_environment_does_not_change_the_corpus(tmp_path, monkeypatch, capsys):
    """The corpus is the built-in table whatever the environment holds:
    QFOLD_CORPUS_DIR naming a directory of malformed JSON changes no byte
    of the output."""
    def outputs():
        return [(main(argv), capsys.readouterr().out)
                for argv in (["verify-all", "--seed", "1", "--json"],
                             ["split", "--corpus", "A3-flip", "--json"])]

    plain = outputs()
    assert [code for code, _ in plain] == [0, 0]
    (tmp_path / "bad.json").write_text("{not json")
    monkeypatch.setenv("QFOLD_CORPUS_DIR", str(tmp_path))
    assert outputs() == plain


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


def test_the_builtin_corpus_is_built_once_per_process():
    """Each call returns a fresh list of the same entries, built once."""
    first = corpus()
    first.pop()
    second = corpus()
    assert len(second) == 18 and second is not corpus()
    assert all(a is b for a, b in zip(first, second))
