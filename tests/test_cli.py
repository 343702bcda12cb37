import copy
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qfold
from qfold import cli
from qfold.cli import main
from qfold.corpus import corpus_entry, entry_to_dict
from qfold.errors import PropertyViolation
from qfold.generators import random_graded_pair
from qfold.linalg import Mat
from qfold.module_lab import framed_module
from qfold.properties import PROPERTIES
from qfold.quiver_core import a_quiver, flip_automorphism, quiver_to_dict
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


def test_fold_reads_file_and_stdin(tmp_path, capsys, monkeypatch):
    doc = entry_to_dict(corpus_entry("A5-flip"))
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
    # D4 -> G2, summands in stripping order (descending height, then weight);
    # a change to the stripping order or to the characters moves this list
    code, out = run(capsys, "branch", "--corpus", "D4-rot3", "--framing", "0,2,0,2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 840 and payload["folded_type"] == "G2"
    assert [(p["weight"], p["multiplicity"], p["dim"]) for p in payload["summands"]] == [
        ([0, 4], 1, 182), ([1, 2], 1, 189), ([2, 0], 1, 77), ([0, 3], 2, 77), ([1, 1], 2, 64),
        ([0, 2], 3, 27), ([1, 0], 1, 14), ([0, 1], 2, 7), ([0, 0], 1, 1)]


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
        ("--v", ["dims", "--corpus", "D4-swap", "--v", "1,x,1,1", "--w", "1,1,1,1"]),
        ("--w", ["dims", "--corpus", "D4-swap", "--v", "1,1,1,1", "--w", "1,1,x,1"]),
        ("--w-split", ["dims", "--corpus", "D4-swap", "--v", "1,1,1,1",
                       "--w-split", "1,1,x,1,1"]),
    ]
    for flag, argv in probes:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and flag in err, err
    # a fiber of 501,501 split dimension vectors is refused before it is listed
    assert main(["dims", "--corpus", "D4-rot3", "--v", "1000,1000,1000,1000",
                 "--w", "1,1,1,1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "501501" in err, err
    # a framing far over the dimension cap is refused before any weight is listed
    assert main(["branch", "--corpus", "D4-swap", "--framing", "1000,1000,1000,1000,1000"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "exceeds cap" in err, err
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
    ]
    path = tmp_path / "bad.json"
    for action, field, value in module_probes:
        path.write_text(json.dumps(replaced(pair_doc(), field, value)))
        assert main(["module", action, str(path)]) == 1, (action, field)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), err
    # a key that names no vertex (no doubled arrow for B) is refused, not ignored
    one = {"rows": 1, "cols": 1, "data": [["1"]]}
    stray_probes = [
        ("check", ("module", "v", "x"), 7),
        ("check", ("module", "w", "typo"), 3),
        ("check", ("module", "B", "e9"), one),
        ("check", ("module", "I", "zz"), one),
        ("theta", ("sigma", "4"), one),
    ]
    for action, field, value in stray_probes:
        path.write_text(json.dumps(replaced(pair_doc(), field, value)))
        assert main(["module", action, str(path)]) == 1, (action, field)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and repr(field[-1]) in err, err


def test_json_errors_are_one_object(capsys, monkeypatch, tmp_path):
    def outcome(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def error_object(out):
        assert out.count("\n") == 1, out
        return json.loads(out)

    capped = ["branch", "--corpus", "A3-flip", "--framing", "1,1,1", "--dim-cap", "2"]
    code, out, err = outcome(*capped, "--json")
    assert code == 1 and err == ""
    assert error_object(out) == {"error": {"type": "DimensionCapExceeded",
                                           "message": "dim 64 exceeds cap 2"}}
    # without --json the error stays one line on stderr
    assert outcome(*capped) == (1, "", "error: dim 64 exceeds cap 2\n")
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


QUIVER_DOC = entry_to_dict(corpus_entry("D4-swap"))
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
