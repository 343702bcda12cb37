"""The at-scale gates: large runs whose output is pinned by sha256.

Each gate is its steps, in order, and the digest of the bytes they write.  A
`Cli` step runs `python -m qfold.cli` from this checkout's `src` in a fresh
directory, under this interpreter's `-O` and `-W` flags; its stdout goes to
the digest, or with `pipe` to the next call's stdin.  A `Py` step runs in
this process: it writes an input file there or feeds the digest.  Run one
gate with `pytest tests/test_at_scale.py -k NAME`; compute a new gate's
digest on the commit before the change it guards.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from test_generators import _feed_map, _feed_module, _feed_pair

from qfold.corpus import corpus, corpus_entry
from qfold.generators import (rand_invertible, rand_mat, random_graded_pair,
                              random_one_way_module, random_theta_module)
from qfold.linalg import Mat
from qfold.module_lab import TransitionWitness, act, apply_theta, framed_module, is_stable
from qfold.quiver_core import (a_quiver, d_quiver, flip_automorphism, fork_swap_automorphism,
                               quiver_to_dict)
from qfold.serialize import matmap_to_obj, module_to_dict, sigma_to_dict, witness_to_dict
from qfold.split_quotient import identity_sigma

CORPUS = corpus()


class Cli(NamedTuple):
    argv: tuple
    limit: float | None = None  # seconds
    code: int = 0               # the exit code it must give
    pipe: bool = False


class Py(NamedTuple):
    fn: Callable  # fn(out, tmp, *args): out is the digest, tmp the directory
    args: tuple = ()
    limit: float = math.inf


# the interpreter flags of this run, so that the `python -O` and `-W error`
# passes run the CLI under them too
FLAGS = ["-O"] * sys.flags.optimize + [f"-W{option}" for option in sys.warnoptions]


LARGE = {"a121-flip": (a_quiver, flip_automorphism, 121),
         "d62-swap": (d_quiver, fork_swap_automorphism, 62)}


def write_large(out, tmp, name):
    make, auto, n = LARGE[name]
    q = make(n)
    (tmp / f"{name}.json").write_text(json.dumps(quiver_to_dict(q, auto(q, n))) + "\n")


def _write_pair(path, e, sigma, m, sub, xi, w, w_sub):
    path.write_text(json.dumps({
        "quiver": quiver_to_dict(e.quiver, e.auto), "sigma": sigma_to_dict(sigma),
        "module": module_to_dict(m), "sub": module_to_dict(sub), "xi": matmap_to_obj(xi),
        "witness": witness_to_dict(w), "witness_sub": witness_to_dict(w_sub)},
        sort_keys=True) + "\n")


def write_graded_pair(out, tmp, name, seed):
    e = corpus_entry(name)
    xi, sub, m, sigma, w_sub, w = random_graded_pair(random.Random(seed), e.quiver, e.auto,
                                                     max_sub=6, max_extra=4)
    _write_pair(tmp / f"{name}-{seed}.json", e, sigma, m, sub, xi, w, w_sub)


def write_theorem5_failure(out, tmp, name, seed):
    e = corpus_entry(name)
    q, a, rng = e.quiver, e.auto, random.Random(seed)
    if name == "D4-rot3":
        # stable as J = 1; B on one arrow, transported round its orbit
        v = dict.fromkeys(q.vertices, 3)
        one = {x: Mat.identity(3) for x in q.vertices}
        sigma = identity_sigma(q, a, v)
        m = framed_module(q, v, v, B={"e1": rand_mat(rng, 3, 3)}, J=one)
        B = dict(m.B)
        for _ in range(2):
            m = apply_theta(m, sigma)
            B.update((k, b) for k, b in m.B.items() if not b.is_zero())
        sub = m = framed_module(q, v, v, B=B, J=one)
        xi = w_sub = w = one
    else:
        xi, sub, m, sigma, w_sub, w = random_graded_pair(rng, q, a, max_sub=6, max_extra=4)
        w_sub, w = w_sub.g, w.g
    # the transition of h.m is h_{a^-1(x)} g_x h_x^-1
    back = {image: x for x, image in a.vertex_perm.items()}
    h, hs = ({x: rand_invertible(rng, n[x]) for x in q.vertices} for n in (m.v, sub.v))
    w, w_sub = (TransitionWitness({x: gauge[back[x]][0] * g[x] * gauge[x][1] for x in q.vertices})
                for gauge, g in ((h, w), (hs, w_sub)))
    _write_pair(tmp / f"theorem5-{name}.json", e, sigma, act({x: h[x][0] for x in h}, m),
                act({x: hs[x][0] for x in hs}, sub),
                {x: h[x][0] * xi[x] * hs[x][1] for x in q.vertices}, w, w_sub)


def fp_stability(out, tmp):
    quivers = [("A5", a_quiver(5)), ("D5", d_quiver(5)), ("D6", d_quiver(6))]
    verdicts = set()
    for trial in range(2000):
        name, q = quivers[trial % 3]
        p = (2, 3, 5, 7)[trial // 3 % 4]
        rng = random.Random(trial)
        v = {x: rng.randint(0, 6) for x in q.vertices}
        w = {x: max(0, v[x] - rng.randint(0, 1)) for x in q.vertices}
        stable = is_stable(random_one_way_module(rng, q, v, w, p=p))
        verdicts.add(stable)
        out.update(f"{trial} {name} {p} {v} {w} {stable}\n".encode())
    assert verdicts == {True, False}, verdicts


def generator_draws(out, tmp):
    for seed in range(1, 41):
        for name in ("A7-flip", "D5-swap", "affineD4-swap"):
            e = corpus_entry(name)
            _feed_pair(out, random_graded_pair(random.Random(seed), e.quiver, e.auto,
                                               max_sub=6, max_extra=4))
        for e in CORPUS:
            m, sigma = random_theta_module(random.Random(seed), e.quiver, e.auto)
            _feed_module(out, m)
            _feed_map(out, sigma.maps)


GATES = {
    # Modules of dimension 10^8 to 10^12.  Unpruned, A9-flip's Weyl
    # alternation passes its cap; D4-swap at 6 rho makes 1,653,024 of
    # ROOT_STEP_CAP's 2.2*10^6 probes, so a third more is refused.
    "branching": ("303d235afefdc3be1cb50d92faa45fa9f3b0bba511cd3c8ed32d7ffef2437bf6", [
        Cli(("branch", "--corpus", name, "--framing", framing, "--json"), 60)
        for name, framing in (("D4-swap", "4,4,4,4,4"), ("A7-flip", "2,2,2,2,2"),
                              ("D5-swap", "1,1,1,1,1,1,1"), ("A9-flip", "1,1,1,1,1,1"),
                              ("D5-swap", "2,2,1,1,1,1,1"), ("D6-swap", "1,1,0,0,0,0,1,1,1"),
                              ("D4-swap", "6,6,6,6,6"))]),
    # Fold and split of every corpus entry, an inadmissible one's error
    # object included, then fold at rank 121 and 62: every type label.
    "type_recognition": ("8dd61e59ebc06d9e0ede86a1ef7d5fcff9ff16f81731366942934a52f97c1d01", [
        *(Cli((cmd, "--corpus", e.name, "--json"), code=int(not e.admissible))
          for e in CORPUS for cmd in ("fold", "split")),
        *(Py(write_large, (name,)) for name in LARGE),
        *(Cli(("fold", "--file", f"{name}.json", "--json"), 20) for name in LARGE)]),
    # Each split read back from stdin and split again: the vertex and phase
    # labels of s(s(Q)), which split_involution_check's natural map reads.
    "split_twice": ("6e88e138d538472e6b2e3c41ddb36c2fcc28e442f861659546c98cc71a98f081", [
        *(Py(write_large, (name,)) for name in LARGE),
        *(step for source in [*(("--corpus", e.name) for e in CORPUS if e.admissible),
                              *(("--file", f"{name}.json") for name in LARGE)]
          for step in (Cli(("split", *source, "--json"), 20, pipe=True),
                       Cli(("split", "--file", "-", "--json"), 20)))]),
    # Stable graded pairs with sum v^2 of 404 to 532, past the benchmark's 100;
    # rational gauges give each term of a relation its own denominator.
    "module_laboratory": ("f71cb9451b094559a59d580d718870bfa6d5625c9ff41f7360e36cf3f2dd755d", [
        step for name, seed in (("D5-swap", 1), ("D5-swap", 2), ("A7-flip", 3))
        for step in (Py(write_graded_pair, (name, seed)),
                     *(Cli(("module", action, f"{name}-{seed}.json", "--json"), 60)
                       for action in ("check", "transition", "theorem5")))]),
    # Gauges not constant on the moved orbits give irrational eigenvalues:
    # D5-swap's counterexample lies over a root of a quintic, D4-rot3's a cubic.
    "theorem5_failures": ("479e15fc9137c5ea18f3cfef0fb638aa2f1e467623ba3d2f85a7a394b2347564", [
        step for name, seed in (("D5-swap", 1), ("A7-flip", 3), ("D4-rot3", 1))
        for step in (Py(write_theorem5_failure, (name, seed)),
                     Cli(("module", "theorem5", f"theorem5-{name}.json", "--json"), 60, code=2))]),
    # is_stable on 2,000 one-way modules over F_2..F_7 on A5, D5 and D6, with
    # w = v or v - 1; 258 are stable, and both verdicts must occur.
    "fp_stability": ("947ed0ba90c4060faeebbce79243fc5bcb3907b7e10d00509ebf92bec9516dd9",
                     [Py(fp_stability, limit=60)]),
    # The pairs' gauges reach 11 x 11, so this pins inverses from the
    # elimination as well as those read off cofactors up to 3 x 3.
    "generator_draws": ("bcf160edcce4f847a8ee07a263911eb553fcf13c6fcf9e15c95a445ee2abf956",
                        [Py(generator_draws, limit=60)]),
}


@pytest.mark.parametrize("name", GATES)
def test_gate(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    digest, steps = GATES[name]
    out, stdin = hashlib.sha256(), b""
    for step in steps:
        if isinstance(step, Py):
            start = time.monotonic()
            step.fn(out, tmp_path, *step.args)
            took = time.monotonic() - start
            assert took <= step.limit, f"{name}: {step.fn.__name__} took {took:.1f} s"
            continue
        proc = subprocess.run([sys.executable, *FLAGS, "-m", "qfold.cli", *step.argv],
                              input=stdin, capture_output=True, cwd=tmp_path, env=env,
                              timeout=step.limit)
        assert proc.returncode == step.code, (name, step.argv, proc.stderr.decode())
        stdin = proc.stdout if step.pipe else b""
        if not step.pipe:
            out.update(proc.stdout)
    assert out.hexdigest() == digest, f"gate {name} got digest {out.hexdigest()}"
