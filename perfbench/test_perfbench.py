"""Fast tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the root of a qfold checkout.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from speed import SpeedSampler
from tracer import PER_LAYER, Tracer

CLI = run.import_program()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_ops(tmp: Path) -> list[workloads.Op]:
    doc = workloads.graded_pair_document(workloads.WARMUP_MODULE_ENTRY,
                                         workloads.WARMUP_MODULE_SEED)
    return [workloads.branch_op("A5-flip", (1, 0, 0, 1), 56),
            workloads.branch_op("D4-rot3", (1, 0, 0, 0), 28),
            workloads.module_op("tiny module", doc, tmp / "tiny.json")]


def test_tiny_op_list_untraced_and_traced(tmp_path):
    ops = tiny_ops(tmp_path)
    spans, outputs, problems = run.run_ops(CLI, ops, {})
    assert problems == []
    assert len(spans) == len(outputs) == len(ops)

    tracer = Tracer()
    original_main = CLI.main
    tracer.install()
    try:
        assert CLI.main is not original_main
        _lat, traced_outputs, problems = run.run_ops(CLI, ops, {}, tracer)
    finally:
        tracer.uninstall()
    assert CLI.main is original_main
    assert problems == []
    assert traced_outputs == outputs           # tracing changes no output
    values = tracer.metrics(overhead=1.5)
    assert set(values) == {name for name, _ in PER_LAYER}
    assert values["cli.main.self_s"] > 0
    assert values["rep_branch.branch.calls"] == 2
    assert values["module_lab.find_transition.calls"] == 1
    assert values["module_lab.find_transition.system_elims_per_call"] == 2
    assert values["linalg.mul.calls"] > 0 and 0 < values["linalg.mul.nonzero_frac"] <= 1
    assert values["linalg.mat_new.calls"] > 0
    spans = tracer.spans
    assert {s["name"] for s in spans} >= {"cli.main", "rep_branch.branch",
                                          "module_lab.find_transition"}
    assert all(s["self"] <= s["dur"] + 1e-9 for s in spans)
    tracer.write_spans(tmp_path / "spans.jsonl")
    assert (tmp_path / "spans.jsonl").read_text().count("\n") >= len(spans)


def test_digest_check_rejects_an_altered_output(tmp_path):
    ops = tiny_ops(tmp_path)
    _lat, outputs, problems = run.run_ops(CLI, ops, {})
    assert problems == []
    stored = {step.key: workloads.digest(out)
              for op, outs in zip(ops, outputs) for step, out in zip(op.steps, outs)}
    _lat, _out, problems = run.run_ops(CLI, ops, stored)
    assert problems == []

    op = ops[0]
    good = outputs[0][0]
    altered = good.rstrip("\n") + " \n"
    assert altered != good
    assert json.loads(altered) == json.loads(good)   # same meaning, other bytes
    assert run.check_op(op, [(0, good)], stored) is None
    assert "digest" in run.check_op(op, [(0, altered)], stored)


def test_output_checks_reject_wrong_answers():
    check = workloads.make_check_branch(35)
    ok = {"dim": 35, "dimension_conserved": True,
          "summands": [{"weight": [1, 0, 1], "multiplicity": 1, "dim": 35}]}
    assert check(0, json.dumps(ok)) is None
    assert check(2, json.dumps(ok)) is not None
    wrong = dict(ok, summands=[{"weight": [1, 0, 1], "multiplicity": 1, "dim": 34}])
    assert check(0, json.dumps(wrong)) is not None
    assert workloads.check_verify_all(0, json.dumps({"a": {"status": "FAIL"}})) is not None
    assert workloads.check_theorem5(0, json.dumps({"ok": False})) is not None


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first, _ = workloads.ops_for_run("module-lab", 3, 4, tmp_path / "a")
    second, _ = workloads.ops_for_run("module-lab", 3, 4, tmp_path / "b")
    assert [op.label for op in first.ops] == [op.label for op in second.ops]
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    other, _ = workloads.ops_for_run("module-lab", 4, 4, tmp_path / "c")
    assert [op.label for op in other.ops] != [op.label for op in first.ops]


def test_times_are_scaled_by_the_speed_sampled_while_they_ran():
    sampler = SpeedSampler()
    sampler.times = [0.0, 1.0, 2.0, 3.0, 10.0]
    sampler.speeds = [1.0, 0.5, 0.5, 0.5, 2.0]
    assert sampler.normalise(1.0, 3.0) == pytest.approx(1.0)     # 2 s at half speed
    assert sampler.normalise(9.9, 10.1) == pytest.approx(0.4)    # window widened to 0.5 s
    assert sampler.normalise(5.0, 5.2) == pytest.approx(0.25)    # no sample: the nearest two


def test_sampler_samples_while_running():
    import time
    with SpeedSampler() as sampler:
        time.sleep(0.35)
    count = len(sampler.speeds)
    assert count >= 2 and all(v > 0 for v in sampler.speeds)
    time.sleep(0.15)
    assert len(sampler.speeds) == count          # stopped on leaving the block


def test_sample_takes_one_op_per_cost_group():
    import random
    items = [{"cost_s": float(c), "k": c} for c in range(12)]
    picked = workloads.sample_items(items, 4, random.Random(1))
    assert sorted(it["k"] // 3 for it in picked) == [0, 1, 2, 3]
    assert len({it["k"] for it in picked}) == 4


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "branch-large", "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/ it must fail."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (tmp_path / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
    for path in run.HERE.iterdir():
        if path.is_file():
            (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "branch-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
