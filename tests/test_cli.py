import copy
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qfold
from qfold import cli, linalg, module_lab
from qfold.cli import main
from qfold.corpus import corpus_entry
from qfold.errors import CharacterMismatch, PropertyViolation
from qfold.generators import random_graded_pair
from qfold.linalg import Mat
from qfold.module_lab import framed_module
from qfold.properties import PROPERTIES
from qfold.quiver_core import a_quiver, automorphism, d_quiver, flip_automorphism, quiver_to_dict
from qfold.serialize import matmap_to_obj, module_to_dict, sigma_to_dict, witness_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_split_corpus_human_and_json(capsys):
    code, out = run(capsys, "split", "--corpus", "D4-swap")
    assert code == 0
    assert "type A5" in out
    code, out = run(capsys, "split", "--corpus", "D4-swap", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 5
    assert payload["labels"]["3@1/1"]["orbit"] == ["3", "4"]
    assert "automorphism" in payload


def test_split_rejects_non_admissible(capsys):
    code, _out = run(capsys, "split", "--corpus", "A4-flip")
    assert code == 1


def test_quotient_output(capsys):
    code, out = run(capsys, "quotient", "--corpus", "A3-flip", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == ["1", "2"]
    assert len(payload["edges"]) == 1


def test_fold_examples(capsys):
    code, out = run(capsys, "fold", "--corpus", "A3-flip", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["folded_type"] == "C2"
    assert payload["folded_cartan"] == [[2, -1], [-2, 2]]

    code, out = run(capsys, "fold", "--corpus", "D4-swap", "--json")
    payload = json.loads(out)
    assert payload["base_type"] == "D4"
    assert payload["split_type"] == "A5"
    assert payload["folded_type"] == "B3"


def entry_doc(name):
    """The quiver JSON document of a corpus entry."""
    entry = corpus_entry(name)
    return quiver_to_dict(entry.quiver, entry.auto)


def test_fold_reads_file_and_stdin(tmp_path, capsys, monkeypatch):
    doc = entry_doc("A5-flip")
    path = tmp_path / "a5.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "fold", "--file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["folded_type"] == "C3"


def test_branch_table_and_conservation(capsys):
    code, out = run(capsys, "branch", "--corpus", "D3-swap", "--framing", "0,1,0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 4
    assert payload["dimension_conserved"] is True
    assert payload["summands"] == [{"weight": [1, 0], "multiplicity": 1, "dim": 4}]
    code, out = run(capsys, "branch", "--corpus", "D3-swap", "--framing",
                    json.dumps({"1@2/2": 1}))
    assert code == 0
    assert "conserved: True" in out


def test_branch_d4_rot3_summands_pinned(capsys):
    # D4 -> G2, summands in branch order (shallowest depth below the top
    # first, then descending weight); a change to that order or to the
    # characters moves this list
    code, out = run(capsys, "branch", "--corpus", "D4-rot3", "--framing", "0,2,0,2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 840 and payload["folded_type"] == "G2"
    assert [(p["weight"], p["multiplicity"], p["dim"]) for p in payload["summands"]] == [
        ([0, 4], 1, 182), ([1, 2], 1, 189), ([2, 0], 1, 77), ([0, 3], 2, 77), ([1, 1], 2, 64),
        ([0, 2], 3, 27), ([1, 0], 1, 14), ([0, 1], 2, 7), ([0, 0], 1, 1)]


def test_branch_computes_each_weyl_dimension_once(capsys, monkeypatch):
    # branch computes the dimension of L(lam) and of each of its k summands
    # once, and the command prints what branch returns: 1 + k calls, counted
    # under every name a qfold module binds weyl_dim to
    from qfold import rep_branch

    original = rep_branch.weyl_dim
    calls = []

    def counted(c, lam):
        calls.append(lam)
        return original(c, lam)

    for name, module in list(sys.modules.items()):
        if name.startswith("qfold") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    code, out = run(capsys, "branch", "--corpus", "D4-rot3", "--framing", "0,2,0,2", "--json")
    assert code == 0
    summands = json.loads(out)["summands"]
    assert len(summands) == 9
    assert len(calls) == 1 + len(summands)


def test_input_that_is_not_utf8_is_one_error(capsys, monkeypatch, tmp_path):
    # JSON is read as UTF-8 whatever the locale; other bytes, from a file or
    # from standard input, end in exit 1 and one line, or one error object
    # under --json
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")

    def outcome(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    for argv in (["split", "--file", str(bad)], ["module", "check", str(bad)]):
        assert outcome(*argv) == (1, "", f"error: {bad} is not UTF-8: invalid start byte at byte 0\n")
        code, out, err = outcome(*argv, "--json")
        assert code == 1 and err == "" and out.count("\n") == 1
        assert json.loads(out)["error"]["type"] == "InputError"

    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe")))
    assert outcome("module", "check", "-") == (
        1, "", "error: standard input is not UTF-8: invalid start byte at byte 0\n")


def test_input_that_is_not_json_names_its_source(capsys, monkeypatch, tmp_path):
    # a syntax error is one InputError that names the file or standard
    # input, then gives the decoder's message
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": []\n"edges": []}')
    message = "is not valid JSON: Expecting ',' delimiter: line 2 column 1 (char 16)"

    def outcome(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    for argv in (["fold", "--file", str(bad)], ["module", "check", str(bad)]):
        assert outcome(*argv) == (1, "", f"error: {bad} {message}\n")
        code, out, err = outcome(*argv, "--json")
        assert code == 1 and err == "" and out.count("\n") == 1
        assert json.loads(out)["error"] == {"type": "InputError",
                                            "message": f"{bad} {message}"}

    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bad.read_bytes())))
    assert outcome("module", "check", "-") == (1, "", f"error: standard input {message}\n")


def test_branch_large_framings_pinned(capsys):
    # one SHA-256 over the --json output of four framings of modules of
    # dimension 10^7 to 10^9: D5-swap rho, A9-flip rho, A7-flip (2,1,1,1,2)
    # and D4-rot3 (3,3,3,3); the hash was taken before the fiber-sum branching
    digest = hashlib.sha256()
    for name, framing in (("D5-swap", "1,1,1,1,1,1,1"), ("A9-flip", "1,1,1,1,1,1"),
                          ("A7-flip", "2,1,1,1,2"), ("D4-rot3", "3,3,3,3")):
        code, out = run(capsys, "branch", "--corpus", name, "--framing", framing, "--json")
        assert code == 0, name
        digest.update(out.encode())
    assert digest.hexdigest() == (
        "4a5feaafe02aa40899d3ab8a098b75c7141082605729a6af1a945310611e66ff")


def test_dims_identity_twist(capsys):
    code, out = run(capsys, "dims", "--corpus", "D4-swap",
                    "--v", "1,1,1,1", "--w", "1,1,1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 4
    assert sorted(c["dim"] for c in payload) == [0, 0, 0, 4]


def test_usage_errors_exit_one(capsys, tmp_path):
    assert main(["split"]) == 1          # no source
    assert main(["nonsense"]) == 1       # unknown subcommand
    assert main(["split", "--corpus", "missing-entry"]) == 1
    capsys.readouterr()
    # a malformed dimension vector is one error line naming its flag
    probes = [
        ("--framing", ["branch", "--corpus", "A3-flip", "--framing", "0,x,0"]),
        ("--framing", ["branch", "--corpus", "A3-flip", "--framing", '{"1@1/2": "x"}']),
        ("--framing", ["branch", "--corpus", "A3-flip", "--framing", '{"1@1/2": 1.5}']),
        ("--framing", ["branch", "--corpus", "A3-flip", "--framing", '{"1@1/2": 1']),
        # an empty field is refused, not dropped
        ("--framing", ["branch", "--corpus", "A3-flip", "--framing", "1,,1,1"]),
        ("--framing", ["branch", "--corpus", "A3-flip", "--framing", "1,1,1,"]),
        ("--framing", ["branch", "--corpus", "A3-flip", "--framing", ",1,1,1"]),
        ("--v", ["dims", "--corpus", "D4-swap", "--v", "1,1, ,1,1", "--w", "1,1,1,1"]),
        ("--v", ["dims", "--corpus", "D4-swap", "--v", "1,x,1,1", "--w", "1,1,1,1"]),
        ("--w", ["dims", "--corpus", "D4-swap", "--v", "1,1,1,1", "--w", "1,1,x,1"]),
        ("--w-split", ["dims", "--corpus", "D4-swap", "--v", "1,1,1,1",
                       "--w-split", "1,1,x,1,1"]),
    ]
    for flag, argv in probes:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and flag in err, err
    # a negative or unknown framing is an input error, not a property violation
    framing_probes = [
        (["dims", "--corpus", "A3-flip", "--v", "1,1,1", "--w=-1,0,-1"], "negative"),
        (["dims", "--corpus", "A3-flip", "--v", "1,1,1", "--w=0,-2,0"], "negative"),
        (["dims", "--corpus", "D4-swap", "--v", "1,1,1,1", "--w-split", "0,0,0,-5,0"], "negative"),
        (["dims", "--corpus", "A3-flip", "--v", "1,1,1", "--w", '{"9": 4}'], "unknown vertex 9"),
        (["dims", "--corpus", "D4-swap", "--v", "1,1,1,1", "--w-split", '{"zz": 1}'],
         "unknown vertex zz"),
    ]
    for argv, words in framing_probes:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and words in err, err
        assert main([*argv, "--json"]) == 1, argv
        error = json.loads(capsys.readouterr().out)["error"]
        if "unknown vertex" in words:   # one class, on the base and the split quiver
            assert error["type"] == "UnknownVertex", error
    # a fiber of 501,501 split dimension vectors is refused before it is listed
    assert main(["dims", "--corpus", "D4-rot3", "--v", "1000,1000,1000,1000",
                 "--w", "1,1,1,1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "501501" in err, err
    # a negative entry is refused where its flag is read, naming the flag and the vertex
    negative_probes = [
        (["branch", "--corpus", "A3-flip", "--framing", "0,-1,0"], "--framing", "2@1/2"),
        (["dims", "--corpus", "A3-flip", "--v", "1,1,1", "--w-split", "0,-1,0"], "--w-split",
         "2@1/2"),
        (["dims", "--corpus", "A3-flip", "--v=1,-1,1", "--w", "1,1,1"], "--v", "vertex 2"),
    ]
    for argv, flag, vertex in negative_probes:
        assert main([*argv, "--json"]) == 1, argv
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "InputError", error
        assert flag in error["message"] and vertex in error["message"], error
    # a framing whose folded dominant weights outrun the root-step budget is
    # refused while they are listed
    assert main(["branch", "--corpus", "D4-swap", "--framing", "1000,1000,1000,1000,1000"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "dominant weights" in err, err
    # a malformed module file is one error line too
    module_probes = [
        ("check", (), []),
        ("check", ("module",), []),
        ("check", ("module", "v"), [1, 1, 1]),
        ("check", ("module", "v", "1"), "x"),
        ("check", ("module", "B"), []),
        ("transition", ("quiver", "automorphism", "vertices"), ["3", "2", "1"]),
        ("transition", ("sigma",), []),
        # JSON floats and booleans are not exact entries, even when they hold the value
        ("check", ("module", "J", "2", "data"), [[-0.5, -0.5], ["1/4", "1/4"], ["-1", "1"]]),
        ("check", ("module", "J", "2", "rows"), 3.0),
        ("check", ("module", "J", "1", "data"), [[True, "1/2"], ["-1", "3/2"]]),
        # an exponent costs time and memory in its value, not in its length
        ("check", ("module", "J", "1", "data"), [["-1e999999", "1/2"], ["-1", "3/2"]]),
        # a string or an object is not read as a matrix's rows
        ("check", ("module", "J", "1", "data"), {"12": 0}),
        ("check", ("module", "J", "1", "data"), [["1", "2"], "34"]),
    ]
    path = tmp_path / "bad.json"
    for action, field, value in module_probes:
        path.write_text(json.dumps(replaced(pair_doc(), field, value)))
        assert main(["module", action, str(path)]) == 1, (action, field)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), err
    # a key that names no vertex (no doubled arrow for B) is refused where
    # it is read, not ignored
    one = {"rows": 1, "cols": 1, "data": [["1"]]}
    stray_probes = [
        ("check", ("module", "v", "x"), 7, "'x'"),
        ("check", ("module", "w", "typo"), 3, "'typo'"),
        ("check", ("module", "B", "e9"), one, "'e9'"),
        ("check", ("module", "I", "zz"), one, "'zz'"),
        ("theta", ("sigma", "4"), one, "'4'"),
        ("theorem5", ("xi", "zz"), one, "xi names 'zz', which is no vertex"),
        ("theorem5", ("witness", "g", "zz"), one, "witness.g names 'zz', which is no vertex"),
        ("theorem5", ("witness_sub", "g", "zz"), one,
         "witness_sub.g names 'zz', which is no vertex"),
        ("witness", ("g", "zz"), one, "g names 'zz', which is no vertex"),
    ]
    for action, field, value, words in stray_probes:
        path.write_text(json.dumps(replaced(pair_doc(), field, value)))
        assert main(["module", action, str(path)]) == 1, (action, field)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and words in err, err


@pytest.mark.parametrize("fault", ["unknown", "negative"])
@pytest.mark.parametrize("flag, vertex, argv", [
    ("--v", "2", ["dims", "--corpus", "A3-flip", "--w", "1,1,1"]),
    ("--w", "2", ["dims", "--corpus", "A3-flip", "--v", "1,1,1"]),
    ("--w-split", "2@1/2", ["dims", "--corpus", "A3-flip", "--v", "1,1,1"]),
    ("--framing", "2@1/2", ["branch", "--corpus", "A3-flip"]),
], ids=["v", "w", "w-split", "framing"])
def test_dimension_flag_refuses_unknown_key_or_negative_entry(capsys, fault, flag, vertex, argv):
    """A dimension flag is checked where it is read: a key that names no
    vertex of the flag's quiver, or a negative entry, is one exit-1 line
    that names the flag and the key."""
    if fault == "unknown":
        value, words, kind = 1, f"{flag} names unknown vertex zz", "UnknownVertex"
        vertex = "zz"
    else:
        value, words, kind = -1, f"{flag} is negative at vertex {vertex}: -1", "InputError"
    argv = [*argv, flag, json.dumps({vertex: value})]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {words}\n")
    assert main([*argv, "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": {"type": kind, "message": words}}


def test_json_errors_are_one_object(capsys, monkeypatch, tmp_path):
    def outcome(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def error_object(out):
        assert out.count("\n") == 1, out
        return json.loads(out)

    from qfold import rep_branch

    monkeypatch.setattr(rep_branch, "ROOT_STEP_CAP", 20)  # A3 has 6 positive roots
    capped = ["branch", "--corpus", "A3-flip", "--framing", "1,1,1"]
    message = "more than 3 dominant weights lie below (1, 1, 1)"
    code, out, err = outcome(*capped, "--json")
    assert code == 1 and err == ""
    assert error_object(out) == {"error": {"type": "TooLarge", "message": message,
                                           "estimate": 4, "cap": 3}}
    # without --json the error stays one line on stderr
    assert outcome(*capped) == (1, "", f"error: {message}\n")
    # a file that cannot be read is an input error too
    code, out, err = outcome("module", "check", str(tmp_path / "missing.json"), "--json")
    assert code == 1 and err == ""
    assert error_object(out)["error"]["type"] == "FileNotFoundError"

    # a violated property keeps exit 2
    def violated(args):
        raise PropertyViolation("broken")
    monkeypatch.setitem(cli.COMMANDS, "split", violated)
    code, out, err = outcome("split", "--corpus", "A3-flip", "--json")
    assert code == 2 and err == ""
    assert error_object(out) == {"error": {"type": "PropertyViolation", "message": "broken"}}
    assert outcome("split", "--corpus", "A3-flip") == (2, "", "property violated: broken\n")

    # a usage error is reported by argparse before --json is known
    code, out, err = outcome("branch", "--corpus", "A3-flip", "--json")
    assert code == 1 and out == "" and err.startswith("usage: ")


def test_usage_error_names_what_is_wrong(capsys):
    # argparse's message is the last line on stderr, after the usage lines
    for argv, message in (
            (["branch", "--corpus", "A5-flip", "--framing", "1,0,0,0", "--seed", "x"],
             "argument --seed: invalid int value: 'x'"),
            # the dimension is not bounded: each enumeration counts its own work
            (["branch", "--corpus", "A5-flip", "--framing", "1,0,0,0", "--dim-cap", "5"],
             "unrecognized arguments: --dim-cap 5"),
            (["branch", "--corpus", "A5-flip"],
             "the following arguments are required: --framing")):
        for flags in ((), ("--json",)):
            assert main([*argv, *flags]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("usage: ")
            assert captured.err.splitlines()[-1] == f"error: {message}", captured.err


def test_two_flags_for_one_question_are_one_usage_error(capsys, tmp_path):
    # --corpus or --file names the input, --w or --w-split the framing:
    # both, or neither, is a usage error that names the pair, under --json too
    absent = str(tmp_path / "absent.json")
    for base, pair in ((["fold"], ["--corpus", "A3-flip", "--file", absent]),
                       (["dims", "--corpus", "A3-flip", "--v", "1,1,1"],
                        ["--w", "5,5,5", "--w-split", "0,0,0"])):
        names = pair[0::2]
        for argv in ([*base, *pair], base):
            for flags in ((), ("--json",)):
                assert main([*argv, *flags]) == 1, argv
                captured = capsys.readouterr()
                assert captured.out == "" and captured.err.startswith("usage: ")
                last = captured.err.splitlines()[-1]
                assert last.startswith("error: ") and all(n in last for n in names), captured.err


def test_orbit_constancy_is_refused_where_it_is_used(capsys, tmp_path):
    # dims: the fiber of p refuses v, in its own words
    assert main(["dims", "--corpus", "A3-flip", "--v", "1,2,3", "--w", "1,1,1"]) == 1
    assert capsys.readouterr() == ("", "error: dimension vector is not constant on vertex "
                                       "orbits\n")
    # dims: --w is refused where it is read, before the twists are built
    assert main(["dims", "--corpus", "A3-flip", "--v", "1,1,1", "--w", "1,2,3"]) == 1
    assert capsys.readouterr() == ("", "error: framing dimensions must be constant on orbits\n")
    # transition: theta refuses an unstable module whose v is not orbit-constant
    # before any stability is decided
    a3 = a_quiver(3)
    doc = {"quiver": quiver_to_dict(a3, flip_automorphism(a3, 3)),
           "module": module_to_dict(framed_module(a3, {"1": 1}, {}))}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["module", "check", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["stable"] is False
    assert main(["module", "transition", str(path), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "NotOrbitConstant"


def test_walk_cap_is_one_error(capsys, monkeypatch):
    from qfold import rep_branch

    monkeypatch.setattr(rep_branch, "WALK_CAP", 20)
    argv = ["branch", "--corpus", "D4-rot3", "--framing", "0,2,0,2"]
    message = "the Weyl alternation reaches more than 20 elements"
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main([*argv, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.count("\n") == 1
    assert json.loads(captured.out) == {"error": {"type": "TooLarge", "message": message,
                                                  "estimate": 21, "cap": 20}}


def test_determinism_byte_identical(capsys):
    runs = []
    for _ in range(2):
        main(["verify-all", "--seed", "3", "--json"])
        runs.append(capsys.readouterr())
    first, second = runs
    assert first.out == second.out
    # the verdicts of seed 3, byte for byte; timings never reach stdout
    assert hashlib.sha256(first.out.encode()).hexdigest() == \
        "455e4906b88cdd2a5ba569248590992951c2f480ab5d9e70c79fd7018517bc04"
    for err in (first.err, second.err):
        lines = [line.split() for line in err.splitlines()]
        assert len(lines) == 13
        assert [(line[0], line[2], line[-2:]) for line in lines] == \
            [(name, "s", ["size", str(size)]) for name, (_check, size) in PROPERTIES.items()]


def module_doc():
    a3 = a_quiver(3)
    flip = flip_automorphism(a3, 3)
    m1 = framed_module(
        a3, {"1": 1, "2": 1, "3": 1}, {"1": 1, "2": 1, "3": 1},
        B={"e2*": Mat.rational([[1]])},
        J={"1": Mat.rational([[1]]), "2": Mat.rational([[1]]), "3": Mat.rational([[0]])})
    return {
        "quiver": quiver_to_dict(a3, flip),
        "module": module_to_dict(m1),
        "g": matmap_to_obj({"1": Mat.rational([[1]]), "2": Mat.rational([[2]]),
                            "3": Mat.rational([[1]])}),
    }


def test_module_check_and_transition(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(module_doc()))
    code, out = run(capsys, "module", "check", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["relations_ok"] and payload["stable"]

    code, out = run(capsys, "module", "transition", str(path), "--json")
    assert code == 0
    assert json.loads(out)["witness"] is None


def test_module_witness_reports_eigenvalues(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(module_doc()))
    code, out = run(capsys, "module", "witness", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    report = payload["fixed_vertex_eigenvalues"]["2"]
    assert report["other"] == 2
    assert sorted(report["rational_eigenvalues"]) == [["1/2", 1], ["2", 1]]


def test_module_theta_round_trip(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(module_doc()))
    code, out = run(capsys, "module", "theta", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["module"]["J"]["3"]["data"] == [["1"]]


def pair_doc():
    """A module file with every block a module action reads: a stable graded
    pair on A3-flip with its twist, embedding, witnesses and a gauge."""
    a3 = a_quiver(3)
    flip = flip_automorphism(a3, 3)
    xi, sub, m, sigma, wsub, wit = random_graded_pair(random.Random(5), a3, flip)
    return {
        "quiver": quiver_to_dict(a3, flip),
        "module": module_to_dict(m),
        "sub": module_to_dict(sub),
        "xi": matmap_to_obj(xi),
        "sigma": sigma_to_dict(sigma),
        "witness": witness_to_dict(wit),
        "witness_sub": witness_to_dict(wsub),
        "g": matmap_to_obj({x: Mat.identity(m.v[x]) for x in a3.vertices}),
    }


def replaced(doc, field, value):
    """doc with the entry at the path field (object keys and list indices)
    set to value, or the whole document for the empty path; a path through
    a missing key or index, or through a scalar, is left alone."""
    if not field:
        return value
    try:
        node = doc
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass
    return doc


def test_module_theorem5(tmp_path, capsys):
    doc = pair_doc()
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "module", "theorem5", str(path), "--json")
    assert code == 0
    assert json.loads(out)["ok"] is True

    doc["sigma"]["1"] = {"rows": 1, "cols": 1, "data": [["0"]]}
    path.write_text(json.dumps(doc))
    assert main(["module", "theorem5", str(path)]) == 1


def test_verify_all_passes(capsys):
    code, out = run(capsys, "verify-all", "--seed", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 13
    assert all(entry["status"] == "pass" for entry in payload.values())


def test_verify_all_reports_a_planted_failure(capsys, monkeypatch):
    # a brute-force oracle that always disagrees fails stability-oracle alone
    from qfold import properties

    real = properties.brute_stability
    monkeypatch.setattr(properties, "brute_stability", lambda m: not real(m))
    want = {name: "FAIL" if name == "stability-oracle" else "pass" for name in PROPERTIES}
    code, out = run(capsys, "verify-all", "--seed", "1")
    assert code == 2
    assert {line.split()[0]: line.split()[1] for line in out.splitlines()} == want
    code, out = run(capsys, "verify-all", "--seed", "1", "--json")
    assert code == 2
    assert {name: entry["status"] for name, entry in json.loads(out).items()} == want


def verify_all_problems(capsys, seed="7"):
    """The problems of each failing property in verify-all's --json
    report, after checking that the plain report fails the same ones."""
    code, out = run(capsys, "verify-all", "--seed", seed, "--json")
    assert code == 2
    failed = {name: entry["problems"] for name, entry in json.loads(out).items()
              if entry["status"] == "FAIL"}
    code, out = run(capsys, "verify-all", "--seed", seed)
    assert code == 2
    assert [line.split()[0] for line in out.splitlines() if " FAIL " in line] == list(failed)
    return failed


def test_verify_all_fails_on_a_character_fault_inside_the_library(capsys, monkeypatch):
    # character-dimensions compares nothing itself: a Weyl orbit short by
    # one point fails it through freudenthal_character's own total check
    from qfold import rep_branch

    real = rep_branch.weyl_orbit
    monkeypatch.setattr(rep_branch, "weyl_orbit", lambda c, mu: set(sorted(real(c, mu))[1:]))
    failed = verify_all_problems(capsys)
    assert list(failed) == ["character-dimensions"]
    [problem] = failed["character-dimensions"]
    assert re.fullmatch(r"error: character of \(.*\) has total \d+, not \d+", problem), problem


def test_verify_all_fails_on_a_branching_fault_inside_the_library(capsys, monkeypatch):
    # branching compares nothing itself on what branch returns: one
    # multiplicity raised by 1 fails it through branch's conservation check
    from qfold import rep_branch

    real = rep_branch._alternation

    def planted(*args):
        mults = real(*args)
        nu = next(iter(mults))
        mults[nu] += 1
        return mults
    monkeypatch.setattr(rep_branch, "_alternation", planted)
    failed = verify_all_problems(capsys)
    assert list(failed) == ["branching"]
    [problem] = failed["branching"]
    assert re.fullmatch(r"error: the branching of \(.*\) does not conserve dimension",
                        problem), problem


def test_verify_all_reports_an_error_and_goes_on(capsys, monkeypatch):
    # a property that raises is one "error: ..." problem; the later ones still run
    from qfold import properties

    def planted(*args):
        raise CharacterMismatch("planted mismatch")
    monkeypatch.setattr(properties, "branch", planted)
    code, out = run(capsys, "verify-all", "--seed", "1", "--json")
    assert code == 2
    payload = json.loads(out)
    assert sorted(payload) == sorted(PROPERTIES)
    assert payload.pop("branching") == {"status": "FAIL", "problems": ["error: planted mismatch"]}
    assert all(entry["status"] == "pass" for entry in payload.values())
    code, out = run(capsys, "verify-all", "--seed", "1")
    assert code == 2 and len(out.splitlines()) == len(PROPERTIES)
    assert "branching                FAIL  (error: planted mismatch)" in out.splitlines()


def test_branch_affine_fold_is_input_error(capsys):
    # the folded Cartan matrix of the affine split is not finite type
    code, _ = run(capsys, "branch", "--corpus", "affineA3-flip", "--framing",
                  "0,0,0,0,1")
    assert code == 1


def test_quotient_non_admissible_exit_code(capsys):
    assert main(["quotient", "--corpus", "A4-flip"]) == 1


def test_dims_requires_orbit_constant(capsys):
    code, _ = run(capsys, "dims", "--corpus", "D4-swap",
                  "--v", "1,1,1,2", "--w", "1,1,1,1")
    assert code == 1


# (--v, the framing flag and its value, the error cli reports first); on
# D4-swap the orbits are {1}, {2} and {3, 4}, and the framing is read first
DIMS_ORBIT_CASES = {
    "v-with-w": ("1,1,2,1", "--w", "1,1,1,1",
                 "NotOrbitConstant", "dimension vector is not constant on vertex orbits"),
    "v-with-w-split": ("1,1,2,1", "--w-split", "0,0,0,0,1",
                       "NotOrbitConstant", "dimension vector is not constant on vertex orbits"),
    "w-before-v": ("1,1,2,1", "--w", "1,1,1,2",
                   "NotOrbitConstant", "framing dimensions must be constant on orbits"),
    "w-split-before-v": ("1,1,2,1", "--w-split", '{"9": 1}',
                         "UnknownVertex", "--w-split names unknown vertex 9"),
}


@pytest.mark.parametrize("case", DIMS_ORBIT_CASES)
def test_dims_checks_v_where_it_is_read(capsys, case):
    """`dims` refuses a --v that is not constant on orbits once the
    framing is read, so a framing error is still reported first."""
    v, flag, framing, kind, message = DIMS_ORBIT_CASES[case]
    argv = ["dims", "--corpus", "D4-swap", "--v", v, flag, framing]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main(argv + ["--json"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out) == {"error": {"type": kind, "message": message}}


@pytest.mark.parametrize("name", ["A4-flip", "A6-flip", "A8-flip", "affineA1-swap",
                                  "affineA3-rot"])
def test_branch_refuses_a_non_admissible_entry(capsys, name):
    # splitting runs require_admissible before the framing is read
    message = "automorphism joins vertices within an orbit"
    argv = ["branch", "--corpus", name, "--framing", "1"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main(argv + ["--json"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.count("\n") == 1
    assert json.loads(out) == {"error": {"type": "NotAdmissible", "message": message}}


def test_module_check_evaluates_the_relation_once(tmp_path, capsys, monkeypatch):
    real = module_lab.check_relations
    calls = []
    monkeypatch.setattr(module_lab, "check_relations", lambda m: calls.append(m) or real(m))
    doc = module_doc()
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "module", "check", str(path)) == (0, "relations: ok; stable: True\n")
    doc["module"]["I"]["1"] = {"rows": 1, "cols": 1, "data": [["1"]]}   # I J != 0 at vertex 1
    path.write_text(json.dumps(doc))
    assert run(capsys, "module", "check", str(path)) == (2, "relations: violated at 1\n")
    code, out = run(capsys, "module", "check", str(path), "--json")
    assert code == 2
    assert json.loads(out) == {"relations_ok": False, "violating_vertex": "1", "stable": None}
    assert len(calls) == 3


def walk_matrices(node):
    """Every matrix object ({"rows", "cols", "data"}) in a JSON document."""
    if isinstance(node, dict):
        if "data" in node:
            yield node
        else:
            for value in node.values():
                yield from walk_matrices(value)


def test_plain_module_file_is_read_without_qq(tmp_path, capsys, monkeypatch):
    # ints and ASCII "n" and "n/d" strings are read into (num, den) directly
    doc = pair_doc()
    entries = [x for m in walk_matrices(doc) for row in m["data"] for x in row]
    assert any("/" in x for x in entries)
    assert all(re.fullmatch(r"-?[0-9]+(/[0-9]+)?", x) for x in entries)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))

    def refuse(x):
        raise AssertionError(f"_rational read {x!r}")

    monkeypatch.setattr(linalg, "_rational", refuse)
    code, out = run(capsys, "module", "check", str(path), "--json")
    assert code == 0 and json.loads(out)["stable"] is True
    code, out = run(capsys, "module", "theorem5", str(path), "--json")
    assert code == 0 and json.loads(out)["ok"] is True


def _mutate(doc, rng: random.Random) -> str:
    """Change doc in place in one of four ways; returns what was done."""
    mats = list(walk_matrices(doc))
    kind = rng.choice(["entry", "rows", "drop", "ragged"])
    if kind == "entry":
        m = rng.choice([m for m in mats if m["rows"] and m["cols"]])
        row = rng.choice(m["data"])
        row[rng.randrange(len(row))] = "".join(
            rng.choice("-+/_.eE 0123456789\u0663\u00b2x\n") for _ in range(rng.randrange(6)))
    elif kind == "rows":
        m = rng.choice(mats)
        m[rng.choice(["rows", "cols"])] += rng.choice([-1, 1])
    elif kind == "drop":
        # a block, or one key of a block: a matrix of a map, a field, a map
        parent = doc if rng.random() < 0.5 else rng.choice(list(doc.values()))
        del parent[rng.choice(sorted(parent))]
    else:
        m = rng.choice([m for m in mats if m["rows"]])
        row = rng.choice(m["data"])
        if row and rng.random() < 0.5:
            row.pop()
        else:
            row.append("1")
    return kind


def test_mutated_module_files_exit_cleanly(tmp_path, capsys):
    # each run exits 0, 1 or 2; an exit 1 is one error line, or one JSON
    # error object under --json, and never a traceback
    path = tmp_path / "module.json"
    kinds = set()
    for seed in range(300):
        rng = random.Random(seed)
        doc = copy.deepcopy(PAIR_DOC)
        kinds.add(_mutate(doc, rng))
        path.write_text(json.dumps(doc))
        for action in ("check", "transition", "theorem5"):
            for flags in ([], ["--json"]):
                code = main(["module", action, str(path), *flags])
                out, err = capsys.readouterr()
                what = (seed, action, flags, code, out, err)
                assert code in (0, 1, 2), what
                if code == 1 and flags:
                    assert err == "" and out.count("\n") == 1, what
                    assert list(json.loads(out)) == ["error"], what
                elif code == 1:
                    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, what
    assert kinds == {"entry", "rows", "drop", "ragged"}


MODULE_FIELDS = [
    (), ("quiver",), ("module",), ("sigma",), ("sub",), ("xi",), ("witness",),
    ("witness_sub",), ("g",), ("quiver", "vertices"), ("quiver", "edges"),
    ("quiver", "automorphism"), ("quiver", "automorphism", "vertices"),
    ("quiver", "automorphism", "edges"), ("module", "v"), ("module", "w"), ("module", "B"),
    ("module", "I"), ("module", "J"), ("module", "signed"), ("module", "v", "1"),
    ("module", "B", "e1"), ("sigma", "2"), ("witness", "g"), ("witness", "g", "1"),
    ("witness", "summand_swap"), ("witness", "block_dims"),
]
# small integers only: a large dimension is valid input that merely takes long
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "x", "0", "1", "2", "1/2", "e1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["1", "2", "3", "e1", "rows", "cols", "data"]), inner,
                      max_size=3),
    max_leaves=8)
PAIR_DOC = pair_doc()


def not_a_boolean(doc, block, key) -> bool:
    """doc[block][key] is there and is not a JSON true or false."""
    node = doc.get(block) if isinstance(doc, dict) else None
    return isinstance(node, dict) and key in node and not isinstance(node[key], bool)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(MODULE_FIELDS), JSON_VALUES), min_size=1, max_size=2),
       st.sampled_from(["check", "theta", "transition", "witness", "theorem5"]))
# a string is not a boolean, whatever it says ("no" and "" would read as a
# swap and as none)
@example(changes=[(("module", "signed"), "false")], action="check")
@example(changes=[(("witness", "summand_swap"), "no")], action="theorem5")
@example(changes=[(("witness", "summand_swap"), "")], action="theorem5")
def test_module_fuzz_exits_cleanly(tmp_path_factory, changes, action):
    doc = copy.deepcopy(PAIR_DOC)
    for field, value in changes:
        doc = replaced(doc, field, copy.deepcopy(value))
    path = tmp_path_factory.mktemp("fuzz") / "module.json"
    path.write_text(json.dumps(doc))
    code = main(["module", action, str(path)])
    assert code in (0, 1, 2)
    if not_a_boolean(doc, "module", "signed") \
            or action == "theorem5" and not_a_boolean(doc, "witness", "summand_swap"):
        assert code == 1


QUIVER_DOC = entry_doc("D4-swap")
QUIVER_FIELDS = [
    (), ("vertices",), ("edges",), ("automorphism",), ("automorphism", "vertices"),
    ("automorphism", "edges"), ("vertices", 0), ("vertices", 3), ("edges", 0), ("edges", 0, "id"),
    ("edges", 1, "src"), ("edges", 2, "tgt"), ("automorphism", "vertices", "1"),
    ("automorphism", "vertices", "3"), ("automorphism", "edges", "e1"),
    ("automorphism", "edges", "e2"),
]
# mostly well-formed pieces (ids, id lists, edges, id maps), so that the
# documents get past the JSON checks and into the quiver algorithms
QUIVER_IDS = st.sampled_from(["1", "2", "3", "4", "5", "e1", "e2", "e3", "e4", ""])
QUIVER_VALUES = st.one_of(
    QUIVER_IDS, st.lists(QUIVER_IDS, max_size=5),
    st.lists(st.fixed_dictionaries({"id": QUIVER_IDS, "src": QUIVER_IDS, "tgt": QUIVER_IDS}),
             max_size=4),
    st.dictionaries(QUIVER_IDS, QUIVER_IDS, max_size=5), JSON_VALUES)
QUIVER_COMMANDS = [
    ["split"], ["quotient"], ["fold"], ["branch", "--framing", "0,1,0,0,0"],
    ["dims", "--v", "1,1,1,1", "--w", "1,1,1,1"],
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(QUIVER_FIELDS), QUIVER_VALUES), min_size=1, max_size=2),
       st.sampled_from(QUIVER_COMMANDS))
# a vertex map that is not a permutation (3 -> 1 -> 1) must end the order walk
@example(changes=[(("automorphism", "vertices", "3"), "1")], command=["split"])
def test_quiver_file_fuzz_exits_cleanly(tmp_path_factory, changes, command):
    doc = copy.deepcopy(QUIVER_DOC)
    for field, value in changes:
        doc = replaced(doc, field, copy.deepcopy(value))
    path = tmp_path_factory.mktemp("fuzz") / "quiver.json"
    path.write_text(json.dumps(doc))
    assert main(command + ["--file", str(path)]) in (0, 1, 2)


SUBCOMMAND_ARGVS = [
    ["split", "--corpus", "A3-flip"],
    ["quotient", "--corpus", "A3-flip"],
    ["fold", "--corpus", "D4-swap"],
    ["branch", "--corpus", "D3-swap", "--framing", "0,1,0"],
    ["dims", "--corpus", "D4-swap", "--v", "1,1,1,1", "--w", "1,1,1,1"],
    ["module", "check", "MODULE"],
    ["verify-all"],
]


def test_global_flags_before_or_after_the_subcommand(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(module_doc()))
    assert {argv[0] for argv in SUBCOMMAND_ARGVS} == set(cli.COMMANDS)
    for argv in SUBCOMMAND_ARGVS:
        argv = [str(path) if x == "MODULE" else x for x in argv]
        before = cli.build_parser().parse_args(["--json", "--seed", "5", *argv])
        after = cli.build_parser().parse_args([*argv, "--json", "--seed", "5"])
        assert before == after, argv
        assert before.json is True and before.seed == 5, argv
        plain = cli.build_parser().parse_args(argv)
        assert plain.json is False and plain.seed == 0, argv
        if argv[0] == "verify-all":
            continue  # its run is pinned by test_determinism_byte_identical
        outputs = [run(capsys, *flags) for flags in (["--json", *argv], [*argv, "--json"])]
        assert outputs[0] == outputs[1], argv
        assert outputs[0][0] == 0 and json.loads(outputs[0][1]), argv


def test_closed_stdout_exits_one_without_traceback():
    # a reader that is gone before the output is written, as `qfold ... | head`
    # may leave it; the closed read end makes every write fail with EPIPE
    env = dict(os.environ, PYTHONPATH=str(Path(qfold.__file__).resolve().parents[1]))
    for argv in (["split", "--corpus", "A3-flip", "--json"],
                 ["split", "--corpus", "missing-entry", "--json"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "qfold.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1, argv
        assert proc.stderr == b"", proc.stderr.decode()


# a fresh interpreter runs one subcommand and lists the modules it loaded
LOADED = """
import contextlib, io, json, sys
import qfold.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = qfold.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(sys.modules)]))
"""
LABORATORY = {"module_lab", "generators", "properties", "dim_calc"}
# the standard modules whose import alone would cost a one-shot call
# several milliseconds: what `dataclasses` pulls in
NEVER = {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv, absent, present", [
    ([], LABORATORY, {"cli"}),
    (["split", "--corpus", "A5-flip"], LABORATORY, {"split_quotient"}),
    (["quotient", "--corpus", "A5-flip"], LABORATORY, {"split_quotient"}),
    (["fold", "--corpus", "A5-flip"], LABORATORY, {"lie_fold"}),
    (["branch", "--corpus", "A5-flip", "--framing", "1,0,0,1"], LABORATORY, {"rep_branch"}),
    (["module", "check", "FILE"], {"properties", "generators", "dim_calc"}, {"module_lab"}),
    (["dims", "--corpus", "D4-swap", "--v", "1,1,1,1", "--w", "1,1,1,1"],
     {"properties", "generators", "module_lab"}, {"dim_calc"}),
    (["verify-all", "--seed", "1"], set(), LABORATORY),
], ids=["import", "split", "quotient", "fold", "branch", "module-check", "dims", "verify-all"])
def test_a_subcommand_imports_only_what_it_runs(tmp_path, argv, absent, present):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(module_doc()))
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(qfold.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", LOADED, *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0, argv
    ours = {name[6:] for name in loaded if name.startswith("qfold.")}
    assert not absent & ours, (argv, ours)
    assert present <= ours, (argv, ours)
    assert not NEVER & set(loaded), (argv, NEVER & set(loaded))


@pytest.mark.parametrize("action, field", [
    ("theorem5", ("xi", "zz")),
    ("theorem5", ("witness", "g", "zz")),
    ("witness", ("g", "zz")),
])
def test_matrix_map_key_naming_no_vertex_is_refused(tmp_path, capsys, action, field):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(replaced(pair_doc(), field, {"rows": 1, "cols": 1,
                                                             "data": [["1"]]})))
    assert main(["module", action, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "'zz'" in err, err


def test_witness_block_dims_key_naming_no_vertex_is_refused(tmp_path, capsys):
    """The block sizes of a witness are those of its g, so a key of g
    naming no vertex is refused, with or without a summand swap, and before
    the swap's check of even dimensions."""
    path = tmp_path / "pair.json"
    for swap in (False, True):
        doc = pair_doc()
        doc["witness"]["summand_swap"] = swap
        doc["witness"]["g"]["nowhere"] = IDENTITY[1]
        path.write_text(json.dumps(doc))
        assert main(["module", "theorem5", str(path)]) == 1, swap
        assert capsys.readouterr() == (
            "", "error: witness.g names 'nowhere', which is no vertex of the quiver\n"), swap


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize("swap", [False, True], ids=["no swap", "swap"])
def test_witness_block_dims_that_is_not_an_object_is_refused(tmp_path, capsys, swap, flags):
    """The block sizes of a witness are those of its g, so a g that is not
    a JSON object is refused, the falsy ones too ([], 0, false and ""),
    with or without a summand swap, not read as an empty map."""
    path = tmp_path / "pair.json"
    for value, kind in (([], "list"), (0, "int"), (False, "bool"), ("", "str")):
        doc = pair_doc()
        doc["witness"].update(g=value, summand_swap=swap)
        path.write_text(json.dumps(doc))
        message = f"witness.g must be a JSON object, not {kind}"
        assert main(["module", "theorem5", str(path), *flags]) == 1, value
        out, err = capsys.readouterr()
        if flags:
            assert err == "" and out.count("\n") == 1, value
            assert json.loads(out) == {"error": {"type": "InputError", "message": message}}
        else:
            assert (out, err) == ("", f"error: {message}\n"), value


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize("swap", [False, True], ids=["no swap", "swap"])
def test_a_witness_block_dims_key_is_ignored(tmp_path, capsys, swap, flags):
    """The summand swap takes its block sizes from the module, so a
    "block_dims" key is ignored, like any other key the reader does not
    read, whatever it holds and with or without a summand swap."""
    path = tmp_path / "pair.json"

    def theorem5(**witness):
        doc = pair_doc()
        doc["witness"].update(summand_swap=swap, **witness)
        path.write_text(json.dumps(doc))
        code = main(["module", "theorem5", str(path), *flags])
        return (code, *capsys.readouterr())

    absent = theorem5()
    assert absent[0] == (1 if swap else 0), absent
    for value in ([], 0, False, "", None, {}, {"nowhere": [1, 1]}, {"1": [2, 0], "2": "x"}):
        assert theorem5(block_dims=value) == absent, value


def test_module_witness_without_an_involution_is_an_input_error(tmp_path, capsys):
    # the two-summand matching swaps once: an order-3 automorphism is an
    # input the construction does not take, not a violated property
    d4 = d_quiver(4)
    rot = automorphism(d4, {"1": "3", "3": "4", "4": "1", "2": "2"})
    ones = {x: 1 for x in d4.vertices}
    m = framed_module(d4, ones, ones, J={x: Mat.rational([[k]]) for x, k in
                                         {"1": 1, "2": 1, "3": 2, "4": 3}.items()})
    path = tmp_path / "rot3.json"
    path.write_text(json.dumps({"quiver": quiver_to_dict(d4, rot), "module": module_to_dict(m),
                                "g": matmap_to_obj({x: Mat.identity(1) for x in d4.vertices})}))
    message = ("summand-matched witness failed exact verification; "
               "the construction needs an involutive automorphism")
    assert main(["module", "witness", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main(["module", "witness", str(path), "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": {"type": "WitnessVerificationFailed", "message": message}}


def test_an_edge_id_ending_in_a_star_is_refused(tmp_path, capsys):
    # the reverse arrow of edge e is keyed e*, which an edge e* would share
    q = {"vertices": ["1", "2", "3"],
         "edges": [{"id": "e", "src": "1", "tgt": "2"}, {"id": "e*", "src": "2", "tgt": "3"}],
         "automorphism": {"vertices": {"1": "1", "2": "2", "3": "3"}}}
    one = {"rows": 1, "cols": 1, "data": [["1"]]}
    quiver_path, module_path = tmp_path / "q.json", tmp_path / "m.json"
    quiver_path.write_text(json.dumps(q))
    module_path.write_text(json.dumps({"quiver": q, "module": {
        "v": {"1": 1, "2": 1, "3": 1}, "w": {}, "B": {"e": one, "e*": one}}}))
    for argv in (["split", "--file", str(quiver_path)], ["module", "check", str(module_path)]):
        assert main(argv) == 1, argv
        assert capsys.readouterr() == ("", "error: edge id e* ends in '*', which keys a "
                                           "reverse arrow\n")


def test_branch_on_a_rank_zero_split_quiver(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": [], "edges": [], "automorphism": {"vertices": {}}}))
    code, out = run(capsys, "branch", "--file", str(path), "--framing", "", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 1
    assert payload["summands"] == [{"weight": [], "multiplicity": 1, "dim": 1}]


@pytest.mark.parametrize("vertices, perm", [
    ([], {}), (["1"], {"1": "1"}), (["1", "2"], {"1": "2", "2": "1"}),
], ids=["empty", "one vertex", "two swapped vertices"])
def test_smallest_quivers_pass_every_subcommand_cleanly(tmp_path, capsys, vertices, perm):
    quiver = {"vertices": vertices, "edges": [], "automorphism": {"vertices": perm}}
    ident = {x: {"rows": 1, "cols": 1, "data": [["1"]]} for x in vertices}
    module = {"v": {x: 1 for x in vertices}, "w": {x: 1 for x in vertices}, "J": ident}
    quiver_path, module_path = tmp_path / "q.json", tmp_path / "m.json"
    quiver_path.write_text(json.dumps(quiver))
    module_path.write_text(json.dumps({
        "quiver": quiver, "module": module, "sub": module, "xi": ident, "g": ident,
        "witness": {"g": ident}, "witness_sub": {"g": ident}}))
    source = ["--file", str(quiver_path)]
    argvs = [["split", *source], ["quotient", *source], ["fold", *source],
             ["branch", *source, "--framing", "{}"], ["dims", *source, "--v", "{}", "--w", "{}"]]
    argvs += [["module", action, str(module_path)]
              for action in ("check", "theta", "transition", "witness", "theorem5")]
    for argv in argvs:
        for flags in ([], ["--json"]):
            code = main([*argv, *flags])
            err = capsys.readouterr().err
            assert code in (0, 1) and err.count("\n") <= 1 and "Traceback" not in err, argv


def test_string_matrix_in_module_file_is_refused(tmp_path, capsys):
    # "12" would read as the 2x1 matrix [[1], [2]], which fits B at e1
    doc = {"quiver": quiver_to_dict(a_quiver(3)),
           "module": {"v": {"1": 1, "2": 2, "3": 0}, "w": {"1": 0, "2": 0, "3": 0},
                      "B": {"e1": "12"}}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["module", "check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "array of arrays" in err, err


def test_main_builds_the_parser_once_and_calls_share_nothing(capsys, monkeypatch):
    argv = ["split", "--corpus", "A3-flip"]
    run(capsys, *argv)
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("the parser was built again"))
    code, as_json = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(as_json)
    code, plain = run(capsys, *argv)
    assert code == 0 and plain != as_json and not plain.startswith("{")
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "split", lambda args: seen.append((args.seed, args.json)))
    for flags in (["--seed", "5", "--json", *argv], argv, [*argv, "--seed", "5"], argv,
                  [*argv, "--json"], ["--seed", "7", *argv], argv):
        main(flags)
    assert seen == [(5, True), (0, False), (5, False), (0, False), (0, True), (7, False),
                    (0, False)]


def test_too_large_json_error_states_estimate_and_cap(capsys):
    code = main(["dims", "--corpus", "D4-rot3", "--v", "1000,1000,1000,1000", "--w", "0,0,0,0",
                 "--json"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out) == {"error": {
        "type": "TooLarge", "estimate": 501501, "cap": 100000,
        "message": "the fiber has 501501 split dimension vectors, beyond the cap of 100000"}}


def test_dimension_vectors_beyond_the_matrix_budget_are_refused(tmp_path, capsys):
    # a dimension of 10^9 would ask for 10^18 entries: refused before any is
    # built, and so is one that is negative
    doc = module_doc()
    path, negative = tmp_path / "m.json", tmp_path / "negative.json"
    doc["module"] = {"v": {"1": 10 ** 9}, "w": {}}
    path.write_text(json.dumps(doc))
    doc["module"] = {"v": {"1": -10 ** 9}, "w": {"1": 10 ** 9}}
    negative.write_text(json.dumps(doc))
    probes = [(["module", "check", str(path)], 10 ** 18),
              (["module", "check", str(negative)], 4 * 10 ** 18),
              (["dims", "--corpus", "A3-flip", "--v", "0,0,0", "--w", f"{10 ** 9},0,{10 ** 9}"],
               2 * 10 ** 18)]
    for argv, estimate in probes:
        code = main([*argv, "--json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == "", argv
        error = json.loads(captured.out)["error"]
        assert error["type"] == "TooLarge", error
        assert (error["estimate"], error["cap"]) == (estimate, 10 ** 6), error


def test_relation_violation_json_error_names_the_vertex(tmp_path, capsys):
    doc = module_doc()
    doc["module"]["I"]["1"] = {"rows": 1, "cols": 1, "data": [["1"]]}   # I J != 0 at vertex 1
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code = main(["module", "transition", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out) == {"error": {
        "type": "RelationViolation", "vertex": "1",
        "message": "preprojective relation fails at vertex 1"}}
    # without --json the error is the same one line as before
    assert main(["module", "transition", str(path)]) == 1
    assert capsys.readouterr().err == "error: preprojective relation fails at vertex 1\n"


def diagonal(rows: int, cols: int) -> Mat:
    """The rows x cols matrix with ones on its diagonal."""
    return Mat(rows, cols, [[int(r == c) for c in range(cols)] for r in range(rows)])


def lab_doc(v, w, sub_v, sub_w=None, sigma=None):
    """A module file on A3-flip for every module action, with dimensions
    given in vertex order.  B = 0, I = 0 and J is the diagonal, so a module
    with v <= w is stable and, under identity twists, its own transport.
    The submodule sits inside along the diagonal xi; the witnesses and the
    gauge are identities.  sigma, when given, is the identity of that size."""
    a3 = a_quiver(3)
    v, w, sub_v = (dict(zip(a3.vertices, dims)) for dims in (v, w, sub_v))
    sub_w = w if sub_w is None else dict(zip(a3.vertices, sub_w))

    def module(dims, framing):
        return module_to_dict(framed_module(a3, dims, framing, J={
            x: diagonal(framing[x], dims[x]) for x in a3.vertices}))

    def identities(dims):
        return matmap_to_obj({x: Mat.identity(dims[x]) for x in a3.vertices})

    doc = {"quiver": quiver_to_dict(a3, flip_automorphism(a3, 3)),
           "module": module(v, w), "sub": module(sub_v, sub_w),
           "xi": matmap_to_obj({x: diagonal(v[x], sub_v[x]) for x in a3.vertices}),
           "witness": {"g": identities(v)}, "witness_sub": {"g": identities(sub_v)},
           "g": identities(v)}
    if sigma is not None:
        doc["sigma"] = matmap_to_obj({x: Mat.identity(sigma) for x in a3.vertices})
    return doc


TWOS, ONES = (2, 2, 2), (1, 1, 1)
TRANSPORTING = ("theta", "transition", "witness", "theorem5")
ORBITS = "module dimensions must be constant on orbits"
IDENTITY = {n: matmap_to_obj({"x": Mat.identity(n)})["x"] for n in (1, 2)}


def probe_doc(*changes, drop=()):
    """lab_doc(TWOS, TWOS, ONES) with each (field, value) of changes set and
    the entry at the path drop removed."""
    doc = lab_doc(TWOS, TWOS, ONES)
    for field, value in changes:
        doc = replaced(doc, field, value)
    if drop:
        node = doc
        for key in drop[:-1]:
            node = node[key]
        del node[drop[-1]]
    return doc


# (fact, actions, file, --json type, message); each file has that one fault
MODULE_FILE_FACTS = [
    ("v orbit-constant", TRANSPORTING, lambda: lab_doc((2, 2, 1), TWOS, ONES),
     "NotOrbitConstant", ORBITS),
    ("w orbit-constant", TRANSPORTING, lambda: lab_doc(TWOS, (2, 2, 3), ONES, sigma=2),
     "NotOrbitConstant", ORBITS),
    ("w orbit-constant without a twist", TRANSPORTING, lambda: lab_doc(TWOS, (2, 2, 3), ONES),
     "NotOrbitConstant", ORBITS),
    ("sigma fits w", TRANSPORTING, lambda: lab_doc(TWOS, TWOS, ONES, sigma=1),
     "SigmaConstraintViolated", "sigma does not match the framing dimensions of the module"),
    ("sigma keyed by the quiver", TRANSPORTING,
     lambda: replaced(lab_doc(TWOS, TWOS, ONES, sigma=2), ("sigma", "zz"), IDENTITY[2]),
     "SigmaConstraintViolated", "sigma names 'zz', which is no vertex of the quiver"),
    ("sub shares the framing", ("theorem5",), lambda: lab_doc(TWOS, TWOS, ONES, sub_w=ONES),
     "ShapeMismatch", "embeddings require a shared framing"),
    ("sub v orbit-constant", ("theorem5",), lambda: lab_doc(TWOS, TWOS, (1, 1, 0)),
     "NotOrbitConstant", ORBITS),
    ("xi keyed by the quiver", ("theorem5",), lambda: probe_doc((("xi", "zz"), IDENTITY[1])),
     "ShapeMismatch", "xi names 'zz', which is no vertex of the quiver"),
    ("xi an object", ("theorem5",), lambda: probe_doc((("xi",), [])),
     "InputError", "xi must be a JSON object, not list"),
    ("xi shape", ("theorem5",), lambda: probe_doc((("xi", "2"), IDENTITY[1])),
     "ShapeMismatch", "xi at 2 must be 2x1"),
    ("xi at every vertex", ("theorem5",), lambda: probe_doc(drop=("xi", "3")),
     "ShapeMismatch", "xi has no matrix at 3"),
    ("witness an object", ("theorem5",), lambda: probe_doc((("witness",), [])),
     "InputError", "witness must be a JSON object, not list"),
    ("witness has g", ("theorem5",), lambda: probe_doc(drop=("witness", "g")),
     "InputError", "witness is missing the 'g' block"),
    ("witness g an object", ("theorem5",), lambda: probe_doc((("witness", "g"), [])),
     "InputError", "witness.g must be a JSON object, not list"),
    ("witness keyed by the quiver", ("theorem5",),
     lambda: probe_doc((("witness", "g", "zz"), IDENTITY[2])),
     "ShapeMismatch", "witness.g names 'zz', which is no vertex of the quiver"),
    ("witness at every vertex", ("theorem5",), lambda: probe_doc(drop=("witness", "g", "1")),
     "ShapeMismatch", "witness.g has no matrix at 1"),
    ("witness shape", ("theorem5",), lambda: probe_doc((("witness", "g", "2"), IDENTITY[1])),
     "ShapeMismatch", "witness.g at 2 must be 2x2"),
    ("submodule witness an object", ("theorem5",), lambda: probe_doc((("witness_sub",), 0)),
     "InputError", "witness_sub must be a JSON object, not int"),
    ("submodule witness has g", ("theorem5",), lambda: probe_doc(drop=("witness_sub", "g")),
     "InputError", "witness_sub is missing the 'g' block"),
    ("submodule witness g an object", ("theorem5",),
     lambda: probe_doc((("witness_sub", "g"), "1")),
     "InputError", "witness_sub.g must be a JSON object, not str"),
    ("submodule witness keyed by the quiver", ("theorem5",),
     lambda: probe_doc((("witness_sub", "g", "zz"), IDENTITY[1])),
     "ShapeMismatch", "witness_sub.g names 'zz', which is no vertex of the quiver"),
    ("submodule witness at every vertex", ("theorem5",),
     lambda: probe_doc(drop=("witness_sub", "g", "2")),
     "ShapeMismatch", "witness_sub.g has no matrix at 2"),
    ("submodule witness shape", ("theorem5",),
     lambda: probe_doc((("witness_sub", "g", "1"), IDENTITY[2])),
     "ShapeMismatch", "witness_sub.g at 1 must be 1x1"),
    ("swap blocks equal", ("theorem5",),
     lambda: probe_doc((("witness_sub", "summand_swap"), True)),
     "ShapeMismatch", "the summand swap of witness_sub at 1 needs an even dimension, not 1"),
    ("swap block sizes at every vertex", ("theorem5",),
     lambda: replaced(lab_doc((2, 1, 2), TWOS, ONES), ("witness", "summand_swap"), True),
     "ShapeMismatch", "the summand swap of witness at 2 needs an even dimension, not 1"),
    ("gauge an object", ("witness",), lambda: probe_doc((("g",), [])),
     "InputError", "g must be a JSON object, not list"),
    ("gauge keyed by the quiver", ("witness",), lambda: probe_doc((("g", "zz"), IDENTITY[2])),
     "ShapeMismatch", "g names 'zz', which is no vertex of the quiver"),
    ("gauge shape", ("witness",), lambda: probe_doc((("g", "2"), IDENTITY[1])),
     "ShapeMismatch", "g at 2 must be 2x2"),
    ("gauge at every vertex", ("witness",), lambda: probe_doc(drop=("g", "3")),
     "ShapeMismatch", "g has no matrix at 3"),
]


def test_the_probe_file_passes_every_module_action(tmp_path, capsys):
    path = tmp_path / "lab.json"
    path.write_text(json.dumps(lab_doc(TWOS, TWOS, ONES)))
    for action in ("check", *TRANSPORTING):
        code, out = run(capsys, "module", action, str(path), "--json")
        assert code == 0, (action, out)
    assert json.loads(run(capsys, "module", "theorem5", str(path), "--json")[1])["ok"] is True


@pytest.mark.parametrize("fact, actions, build, kind, message", MODULE_FILE_FACTS,
                         ids=[fact.replace(" ", "-") for fact, *_ in MODULE_FILE_FACTS])
def test_module_file_fact_is_checked_where_it_is_read(tmp_path, capsys, fact, actions, build,
                                                       kind, message):
    """Each structural fact about a module file is refused with exit 1 and
    one line, by every action that reads it."""
    path = tmp_path / "lab.json"
    path.write_text(json.dumps(build()))
    for action in actions:
        assert main(["module", action, str(path)]) == 1, action
        assert capsys.readouterr() == ("", f"error: {message}\n"), action
        assert main(["module", action, str(path), "--json"]) == 1, action
        out, err = capsys.readouterr()
        assert err == "" and out.count("\n") == 1, action
        assert json.loads(out) == {"error": {"type": kind, "message": message}}, action


def test_a_module_file_without_a_twist_checks_each_dimension_vector_once(
        tmp_path, capsys, monkeypatch):
    """v and w are each checked for orbit constancy once, by
    `check_transport`: the identity twists take w as checked."""
    from qfold import serialize, split_quotient

    real = split_quotient.is_orbit_constant
    checked = []
    for module in (serialize, split_quotient):
        monkeypatch.setattr(module, "is_orbit_constant",
                            lambda dims, od: checked.append(dims) or real(dims, od))
    path = tmp_path / "lab.json"
    path.write_text(json.dumps(lab_doc(TWOS, (3, 3, 3), ONES)))
    assert run(capsys, "module", "theta", str(path), "--json")[0] == 0
    assert checked == [dict(zip("123", TWOS)), dict(zip("123", (3, 3, 3)))]
