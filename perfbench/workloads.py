"""Workloads of the qfold benchmark: op pools, seeded op lists and output checks.

Every workload draws its ops from a fixed pool stored in
`pool-<workload>.json`.  The pool lists each candidate op with its cost
measured when the pool was built (by build_pool.py) and the digest of each
`--json` output it produces.  A run takes `n` ops, where `n` is the run's
`--seconds` divided by the pool's mean cost, by systematic sampling: the
pool is sorted by cost, cut into `n` groups of nearly equal size, and the
workload seed picks one op from each group.  The seed draws `BALANCE_TRIES`
such picks and keeps the one whose pool cost is nearest the mean pick's, so
that which dear op a seed happens to draw moves a run's total little.  So
every run sees the same mix of cheap and dear ops, no op repeats within a
run, and the op list depends only on the seed and `--seconds`, never on how
fast the program under test is.

One op is one answer a user waits for:
  verify-all    `verify-all --seed s --json`, default flags (thread pool on)
  branch-large  `branch --corpus X --framing lam --json`
  module-lab    one module file through `module check`, `module transition`
                and `module theorem5`
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("verify-all", "branch-large", "module-lab")

HERE = Path(__file__).resolve().parent

# branch-large: corpus entries (split type -> folded type) and Weyl-dimension
# bands with how many pool ops each band gets per entry
BRANCH_ENTRIES = ("A5-flip", "A7-flip", "A9-flip", "D4-swap", "D5-swap", "D4-rot3")
BRANCH_BANDS = ((300, 1000, 8), (1000, 3000, 6), (3000, 8000, 4), (8000, 15000, 2))
BRANCH_MAX_ENTRY = 3

# module-lab: corpus entries and bands of intertwiner unknowns (sum of v^2)
MODULE_ENTRIES = ("A7-flip", "A9-flip", "D4-swap", "D5-swap", "affineD4-swap")
MODULE_BANDS = ((30, 40, 20), (40, 55, 8), (55, 75, 3), (75, 100, 1))
MODULE_GEN = {"max_sub": 3, "max_extra": 2}

# seeded samples drawn per run; the one nearest the mean total cost is run
BALANCE_TRIES = 16

# verify-all: the verify-all seeds in the pool
VERIFY_SEEDS = tuple(range(1, 21))

# warm-up ops: fixed, cheap, untimed; they pull in the deferred sympy import
# and fill the lru_caches of the root systems
WARMUP_BRANCH = ["branch", "--corpus", "A5-flip", "--framing", "1,0,0,1", "--json"]
WARMUP_MODULE_ENTRY = "A3-flip"
WARMUP_MODULE_SEED = 5


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


@dataclass
class Step:
    """One `qfold` invocation inside an op, with its output check."""

    argv: list[str]
    key: str
    check: Callable[[int, str], Optional[str]]


@dataclass
class Op:
    label: str
    steps: list[Step]
    props: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: list[list[str]]

    def load_properties(self, outputs: list[list[str]]) -> dict:
        return LOAD_PROPERTIES[self.name](self.ops, outputs)


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a problem
# ---------------------------------------------------------------------------

def _parse(rc: int, out: str) -> tuple[Optional[dict], Optional[str]]:
    if rc != 0:
        return None, f"exit code {rc}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def check_verify_all(rc: int, out: str) -> Optional[str]:
    payload, problem = _parse(rc, out)
    if problem:
        return problem
    bad = sorted(name for name, rep in payload.items() if rep.get("status") != "pass")
    if not payload or bad:
        return f"checks not passing: {bad or 'none reported'}"
    return None


def make_check_branch(dim: int) -> Callable[[int, str], Optional[str]]:
    def check(rc: int, out: str) -> Optional[str]:
        payload, problem = _parse(rc, out)
        if problem:
            return problem
        total = sum(p["multiplicity"] * p["dim"] for p in payload["summands"])
        if payload["dim"] != dim or total != dim or payload["dimension_conserved"] is not True:
            return (f"dimension not conserved: expected {dim}, reported {payload['dim']}, "
                    f"summands add to {total}")
        return None
    return check


def check_module_stable(rc: int, out: str) -> Optional[str]:
    payload, problem = _parse(rc, out)
    if problem:
        return problem
    if payload["relations_ok"] is not True or payload["stable"] is not True:
        return f"module reported as not stable: {payload}"
    return None


def make_check_transition(expected_g: dict) -> Callable[[int, str], Optional[str]]:
    def check(rc: int, out: str) -> Optional[str]:
        payload, problem = _parse(rc, out)
        if problem:
            return problem
        if payload["witness"] is None:
            return "no transition witness returned"
        if payload["witness"]["g"] != expected_g:
            return "transition witness differs from the generated one"
        return None
    return check


def check_theorem5(rc: int, out: str) -> Optional[str]:
    payload, problem = _parse(rc, out)
    if problem:
        return problem
    if payload["ok"] is not True:
        return f"eigenspace inclusion reported as failing: {payload}"
    return None


# ---------------------------------------------------------------------------
# module files
# ---------------------------------------------------------------------------

def graded_pair_document(entry_name: str, gen_seed: int) -> dict:
    """The module file of one generated stable graded pair."""
    from qfold.corpus import corpus_entry
    from qfold.generators import random_graded_pair
    from qfold.quiver_core import quiver_to_dict
    from qfold.serialize import matmap_to_obj, module_to_dict, sigma_to_dict, witness_to_dict

    entry = corpus_entry(entry_name)
    rng = random.Random(gen_seed)
    xi, m_sub, m, sigma, w_sub, wit = random_graded_pair(rng, entry.quiver, entry.auto,
                                                         **MODULE_GEN)
    return {
        "quiver": quiver_to_dict(entry.quiver, entry.auto),
        "module": module_to_dict(m),
        "sigma": sigma_to_dict(sigma),
        "sub": module_to_dict(m_sub),
        "xi": matmap_to_obj(xi),
        "witness": witness_to_dict(wit),
        "witness_sub": witness_to_dict(w_sub),
    }


def unknowns(doc: dict) -> int:
    """Columns of the global intertwiner system: the sum of v_i^2."""
    return sum(int(x) ** 2 for x in doc["module"]["v"].values())


def module_op(label: str, doc: dict, path: Path) -> Op:
    text = json.dumps(doc, sort_keys=True)
    path.write_text(text)
    file_key = digest(text)
    steps = [
        Step(["module", "check", str(path), "--json"], f"check:{file_key}", check_module_stable),
        Step(["module", "transition", str(path), "--json"], f"transition:{file_key}",
             make_check_transition(doc["witness"]["g"])),
        Step(["module", "theorem5", str(path), "--json"], f"theorem5:{file_key}",
             check_theorem5),
    ]
    return Op(label, steps, {"unknowns": unknowns(doc)})


def branch_op(entry_name: str, lam: tuple[int, ...], dim: int) -> Op:
    argv = ["branch", "--corpus", entry_name, "--framing", ",".join(map(str, lam)), "--json"]
    return Op(f"branch {entry_name} {lam}", [Step(argv, " ".join(argv), make_check_branch(dim))],
              {"entry": entry_name, "weight": list(lam), "dim": dim})


def verify_op(vseed: int) -> Op:
    argv = ["verify-all", "--seed", str(vseed), "--json"]
    return Op(f"verify-all seed {vseed}", [Step(argv, " ".join(argv), check_verify_all)],
              {"seed": vseed})


# ---------------------------------------------------------------------------
# pool items and seeded op lists
# ---------------------------------------------------------------------------

def pool_path(workload: str) -> Path:
    return HERE / f"pool-{workload}.json"


def load_pool(workload: str) -> dict:
    with open(pool_path(workload)) as fh:
        return json.load(fh)


def op_from_item(workload: str, item: dict, workdir: Path) -> Op:
    if workload == "verify-all":
        return verify_op(item["vseed"])
    if workload == "branch-large":
        return branch_op(item["entry"], tuple(item["weight"]), item["dim"])
    doc = graded_pair_document(item["entry"], item["gen_seed"])
    name = f"{item['entry']}-{item['gen_seed']}.json"
    op = module_op(f"module {item['entry']} gen_seed {item['gen_seed']}", doc, workdir / name)
    op.props["entry"] = item["entry"]
    return op


def sample_items(items: list[dict], n: int, rng: random.Random) -> list[dict]:
    """One item from each of n cost-ordered groups, with a near-mean total cost.

    Of BALANCE_TRIES such samples, the one whose total cost is nearest the
    expected total (the sum of the groups' mean costs) is kept.
    """
    ordered = sorted(items, key=lambda it: (it["cost_s"], json.dumps(it, sort_keys=True)))
    n = max(1, min(n, len(ordered)))
    groups = [ordered[g * len(ordered) // n:(g + 1) * len(ordered) // n] for g in range(n)]
    expected = sum(sum(it["cost_s"] for it in group) / len(group) for group in groups)
    samples = [[rng.choice(group) for group in groups] for _ in range(BALANCE_TRIES)]
    picked = min(samples, key=lambda sample: abs(sum(it["cost_s"] for it in sample) - expected))
    rng.shuffle(picked)
    return picked


def ops_for_run(workload: str, seed: int, seconds: float,
                workdir: Path) -> tuple[Workload, dict[str, str]]:
    """The seeded op list of one run and the stored output digests."""
    pool = load_pool(workload)
    items = pool["items"]
    mean_cost = sum(it["cost_s"] for it in items) / len(items)
    rng = random.Random(seed * 7919 + WORKLOADS.index(workload))
    chosen = sample_items(items, round(seconds / mean_cost), rng)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = [op_from_item(workload, it, workdir) for it in chosen]
    return Workload(workload, ops, warmup_argvs(workload, workdir)), pool["digests"]


def warmup_argvs(workload: str, workdir: Path) -> list[list[str]]:
    branch = [WARMUP_BRANCH]
    doc = graded_pair_document(WARMUP_MODULE_ENTRY, WARMUP_MODULE_SEED)
    module = [s.argv for s in module_op("warm-up", doc, workdir / "warmup.json").steps]
    return {"verify-all": branch + module, "branch-large": branch,
            "module-lab": module}[workload]


# ---------------------------------------------------------------------------
# load properties written next to the results
# ---------------------------------------------------------------------------

def _props_verify(ops: list[Op], outputs: list[list[str]]) -> dict:
    return {"verify_seeds": [op.props["seed"] for op in ops]}


def _props_branch(ops: list[Op], outputs: list[list[str]]) -> dict:
    summands = []
    for op, outs in zip(ops, outputs):
        try:
            summands += [(op.props["entry"], tuple(p["weight"]))
                         for p in json.loads(outs[0])["summands"]]
        except (json.JSONDecodeError, IndexError, KeyError, TypeError):
            continue          # a failed op; its failure is reported elsewhere
    dims = [op.props["dim"] for op in ops]
    return {
        "weyl_dims": dims,
        "weyl_dim_min_median_max": [min(dims), sorted(dims)[len(dims) // 2], max(dims)],
        "entries": sorted({op.props["entry"] for op in ops}),
        "folded_summands": len(summands),
        "distinct_folded_summands": len(set(summands)),
        "shared_folded_summands": len(summands) - len(set(summands)),
    }


def _props_module(ops: list[Op], outputs: list[list[str]]) -> dict:
    per_file = [op.props["unknowns"] for op in ops]
    return {
        "unknowns_per_file": per_file,
        "unknowns_min_median_max": [min(per_file), sorted(per_file)[len(per_file) // 2],
                                    max(per_file)],
        "entries": sorted({op.props["entry"] for op in ops if "entry" in op.props}),
    }


LOAD_PROPERTIES = {"verify-all": _props_verify, "branch-large": _props_branch,
                   "module-lab": _props_module}


# ---------------------------------------------------------------------------
# pool candidates (used by build_pool.py)
# ---------------------------------------------------------------------------

def branch_candidates() -> list[dict]:
    """Per entry and Weyl-dimension band, a seeded choice of dominant weights."""
    import itertools

    from qfold.corpus import corpus_entry
    from qfold.lie_fold import cartan_from_quiver
    from qfold.rep_branch import weyl_dim
    from qfold.split_quotient import split_quiver

    out = []
    for name in BRANCH_ENTRIES:
        entry = corpus_entry(name)
        split = split_quiver(entry.quiver, entry.auto).split
        c = cartan_from_quiver(split)
        weights = list(itertools.product(range(BRANCH_MAX_ENTRY + 1), repeat=c.n))
        random.Random(f"branch-pool:{name}").shuffle(weights)
        dims = [(lam, weyl_dim(c, lam)) for lam in weights]
        for lo, hi, quota in BRANCH_BANDS:
            band = [(lam, d) for lam, d in dims if lo <= d < hi][:quota]
            out += [{"entry": name, "weight": list(lam), "dim": d} for lam, d in band]
    return out


def module_candidates(max_tries: int = 400) -> list[dict]:
    """Per entry and unknowns band, generator seeds whose pair lands in it."""
    from qfold.corpus import corpus_entry
    from qfold.generators import random_graded_pair

    out = []
    for name in MODULE_ENTRIES:
        entry = corpus_entry(name)
        need = {band: band[2] for band in MODULE_BANDS}
        for k in range(max_tries):
            if not any(need.values()):
                break
            gen_seed = int.from_bytes(hashlib.sha256(f"{name}:{k}".encode()).digest()[:4], "big")
            _xi, _sub, m, _s, _ws, _w = random_graded_pair(random.Random(gen_seed), entry.quiver,
                                                           entry.auto, **MODULE_GEN)
            s2 = sum(x * x for x in m.v.values())
            for band in MODULE_BANDS:
                if band[0] <= s2 < band[1] and need[band]:
                    need[band] -= 1
                    out.append({"entry": name, "gen_seed": gen_seed, "unknowns": s2})
    return out


def verify_candidates() -> list[dict]:
    return [{"vseed": s} for s in VERIFY_SEEDS]


CANDIDATES = {"verify-all": verify_candidates, "branch-large": branch_candidates,
              "module-lab": module_candidates}
