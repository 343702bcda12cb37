"""The qfold benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload verify-all|branch-large|module-lab \
        --seed N --seconds S --trace 0|1

Run it from the root of a qfold checkout; it imports the program from
`src/`.  One process, one client thread, a closed loop: each op is sent
when the previous one has returned, through the public entry point
`qfold.cli.main(argv)`.  The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics (see BENCHMARK.json).  Their
times are given at a reference host speed: a background thread samples the
host's speed all through the run (speed.py), and each raw time is scaled by
the mean speed sampled while it ran.  The process pins itself (and its
children) to one CPU, so that the sampler and the program share it.  The
raw times are printed and kept in the result file too.
--trace 1 first runs the same op list untraced in a child process, then
traced in this one, and reports the per-layer metrics plus the tracing
overhead (traced wall_s over untraced wall_s).

Results, load properties and trace spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from speed import SpeedSampler, pin_to_one_cpu
from tracer import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("peak_rss_mb", "MB")]


def import_program():
    """Import qfold from this checkout's src/, or exit with an error."""
    if not (SRC / "qfold" / "cli.py").is_file():
        sys.exit(f"error: no qfold sources at {SRC}; run from the root of a qfold checkout")
    sys.path.insert(0, str(SRC))
    import qfold.cli
    if Path(qfold.cli.__file__).resolve().parent != (SRC / "qfold").resolve():
        sys.exit(f"error: imported qfold from {qfold.cli.__file__}, not from {SRC}")
    return qfold.cli


def call(cli, argv: list[str]) -> tuple[int, str]:
    """One `qfold` invocation through the public entry point."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def run_ops(cli, ops, digests: dict[str, str], tracer=None):
    """Run the ops one after another; time each, then check its outputs.

    Returns (spans, outputs, problems): each op's (start, end) on the
    perf_counter clock, its outputs, and one problem string per failed op.
    """
    spans, outputs, problems = [], [], []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        t0 = perf_counter()
        results = [call(cli, step.argv) for step in op.steps]
        spans.append((t0, perf_counter()))
        outputs.append([out for _rc, out in results])
        problem = check_op(op, results, digests)
        if problem:
            problems.append(f"{op.label}: {problem}")
    return spans, outputs, problems


def check_op(op, results, digests: dict[str, str]):
    """The first problem with an op's outputs, or None."""
    for step, (rc, out) in zip(op.steps, results):
        problem = step.check(rc, out)
        if problem:
            return f"{' '.join(step.argv[:2])}: {problem}"
        got, want = workloads.digest(out), digests.get(step.key)
        if want is not None and got != want:
            return f"{' '.join(step.argv[:2])}: output digest {got} != stored {want}"
    return None


def tail(latencies: list[float]) -> tuple[float, str]:
    """Latency at the highest percentile with at least ten ops beyond it.

    With ten ops or fewer no such percentile exists and the maximum is given.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n} ops (fewer than 11 ops)"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.0f} of {n} ops (10 ops beyond it)"


def measure_setup(workload, sampler) -> tuple[list[float], list[float]]:
    """Fresh interpreter to ready: import qfold.cli plus the warm-up op.

    Returns the raw times of the probes and the times at the reference speed.
    """
    argv_file = OUT / f"warmup-{workload.name}.json"
    argv_file.write_text(json.dumps(workload.warmup))
    raw, normalised = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(argv_file)],
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        t1 = perf_counter()
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
        raw.append(t1 - t0)
        normalised.append(sampler.normalise(t0, t1))
    return raw, normalised


def untraced_run(args) -> dict:
    """The result of the same op list, untraced, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.exit(f"error: untraced run failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    cpu = pin_to_one_cpu()
    cli = import_program()
    untraced = untraced_run(args) if args.trace else None

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"{args.workload}-seed{args.seed}"
    workload, digests = workloads.ops_for_run(args.workload, args.seed, args.seconds,
                                              run_dir / "inputs")

    with SpeedSampler() as sampler:
        setup_raw, setup = measure_setup(workload, sampler) if not args.trace else (None, None)

        for argv_ in workload.warmup:          # untimed: lazy imports and caches
            rc, _ = call(cli, argv_)
            if rc != 0:
                sys.exit(f"error: warm-up op {argv_} exited {rc}")

        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        t0 = perf_counter()
        try:
            spans, outputs, problems = run_ops(cli, workload.ops, digests, tracer)
        finally:
            t1 = perf_counter()
            if tracer:
                tracer.uninstall()
    wall_raw, wall = t1 - t0, sampler.normalise(t0, t1)
    latencies_raw = [b - a for a, b in spans]
    latencies = [sampler.normalise(a, b) for a, b in spans]
    speeds = sorted(sampler.speeds)

    attempted, failed = len(workload.ops), len(problems)
    load = workload.load_properties(outputs)
    op_tail, tail_level = tail(latencies)
    # an input the pool does not know (the generator changed) has no digest
    undigested = sum(step.key not in digests for op in workload.ops for step in op.steps)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": [op.label for op in workload.ops],
        "latencies_s": latencies, "latencies_raw_s": latencies_raw, "wall_raw_s": wall_raw,
        "speed_samples": len(speeds), "speed_min_median_max":
            [speeds[0], statistics.median(speeds), speeds[-1]],
        "problems": problems, "load": load,
        "fail_frac": failed / attempted, "op_tail_level": tail_level,
        "outputs_without_digest": undigested,
    }
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed "
          f"(fail_frac {failed / attempted:.4f}), wall {wall:.3f} s at the reference speed, "
          f"{wall_raw:.3f} s raw, "
          f"{undigested} outputs without a stored digest")
    print(f"op_tail_s is the {tail_level}")
    print(f"pinned to CPU {cpu}; host speed: median {statistics.median(speeds):.3f} of the "
          f"reference over {len(speeds)} samples, from {speeds[0]:.3f} to {speeds[-1]:.3f}")
    print("load: " + json.dumps({k: v for k, v in load.items() if not isinstance(v, list)
                                 or len(v) <= 3}, sort_keys=True))

    if args.trace:
        untraced_wall = untraced["metrics"]["wall_s"]["value"]
        overhead = wall / untraced_wall
        values = tracer.metrics(overhead)
        tracer.write_spans(run_dir / "spans.jsonl")
        report.update(untraced_wall_s=untraced_wall, traced_wall_s=wall, per_layer=values)
        print(f"tracing overhead {overhead:.3f} (traced wall {wall:.3f} s over untraced "
              f"{untraced_wall:.3f} s); spans in {run_dir / 'spans.jsonl'}")
        correct = failed == 0 and untraced["correct"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": op_tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report.update(setup_probes_s=setup, setup_probes_raw_s=setup_raw, end_to_end=values)
        correct = failed == 0
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    (run_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
