"""Build the op pool of one workload: run every candidate op once, check its
outputs, and store its cost and the digest of each output.

    python3 perfbench/build_pool.py --workload branch-large

Writes perfbench/pool-<workload>.json.  Run from the root of a qfold
checkout.  Costs are given at the reference host speed (speed.py), as the
benchmark's timings are.  They are only used to cut the pool into groups of
similar cost; the digests are compared by every benchmark run.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import workloads
from run import OUT, call, import_program
from speed import SpeedSampler, pin_to_one_cpu


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    args = parser.parse_args()
    pin_to_one_cpu()
    cli = import_program()

    workdir = OUT / f"pool-{args.workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    for argv in workloads.warmup_argvs(args.workload, workdir):
        call(cli, argv)
    items, digests = [], {}
    with SpeedSampler() as sampler:
        for item in workloads.CANDIDATES[args.workload]():
            op = workloads.op_from_item(args.workload, item, workdir)
            t0 = perf_counter()
            results = [call(cli, step.argv) for step in op.steps]
            t1 = perf_counter()
            item["cost_s"] = round(sampler.normalise(t0, t1), 4)
            for step, (rc, out) in zip(op.steps, results):
                problem = step.check(rc, out)
                if problem:
                    sys.exit(f"error: {op.label}: {problem}")
                digests[step.key] = workloads.digest(out)
            items.append(item)
            print(f"{item['cost_s']:8.3f} s  {op.label}", flush=True)
    with open(workloads.pool_path(args.workload), "w") as fh:
        json.dump({"items": items, "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(items)} ops, total {sum(it['cost_s'] for it in items):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
