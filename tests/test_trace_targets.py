"""The benchmark tracer must still fit qfold.

`perfbench/tracer.py` names its targets as (module, attribute) pairs and
looks them up when `--trace 1` starts, and it counts `Mat` constructions
by wrapping `Mat.__init__`; a rename, a deletion or a changed constructor
in `src/` would otherwise surface only as a failed traced benchmark run.
`Tracer.install` reads each target's module from `sys.modules`, so every
such module must be loaded by then: by `import qfold.cli` or by what the
benchmark runs before it installs the tracer.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfold.generators  # noqa: F401  (the benchmark's workloads load it before install)
from qfold.linalg import Mat

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

# what perfbench/run.py does before Tracer.install, in a fresh interpreter
BEFORE_INSTALL = """
import contextlib, io, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import qfold.cli
import workloads
from tracer import Tracer
for argv in workloads.warmup_argvs(sys.argv[3], Path(sys.argv[4])):
    with contextlib.redirect_stdout(io.StringIO()):
        code = qfold.cli.main(argv)
    if code != 0:
        sys.exit(f"warm-up op {argv} exited {code}")
tracer = Tracer()
tracer.install()
tracer.uninstall()
print("installed")
"""


def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def tracer_targets():
    return tracer_module().TARGETS


def test_every_trace_target_resolves():
    targets = tracer_targets()
    assert targets
    missing = []
    for module, attr, _metric, _kind in targets:
        owner = importlib.import_module(f"qfold.{module}")
        if "." in attr:
            # "Class.method" is patched on the class, so it must be defined there
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and callable(vars(cls).get(meth))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"qfold.{module}.{attr}")
    assert not missing, missing


@pytest.mark.parametrize("workload", ["verify-all", "branch-large", "module-lab"])
def test_tracer_installs_after_the_warm_up(tmp_path, workload):
    # a module that only a subcommand imports is missing from sys.modules
    # at install time unless the warm-up ops have loaded it
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", BEFORE_INSTALL, str(ROOT / "src"), str(ROOT / "perfbench"),
         workload, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["installed"]


def test_tracer_counts_a_prime_field_product():
    original_init = Mat.__dict__["__init__"]
    tracer = tracer_module().Tracer()
    tracer.install()
    try:
        a = Mat(2, 2, [[1, 2], [0, 1]], 3)
        product = a * a
    finally:
        tracer.uninstall()
    assert product == Mat(2, 2, [[1, 1], [0, 1]], 3)
    assert Mat.__dict__["__init__"] is original_init
    assert tracer.mat_new_calls > 0
    assert tracer.stats["linalg.mul"]["calls"] == 1
    assert "fp_self_s" in tracer.stats["linalg.mul"]


def test_no_program_path_builds_an_fp(monkeypatch, tmp_path, capsys):
    """`Fp` is only how a matrix over F_p reads out: verify-all seeds 1-3
    and the benchmark's warm-up ops (the A5-flip branch, and the A3-flip
    seed-5 module file through check, transition and theorem5) construct
    none."""
    from qfold.cli import main
    from qfold.numberfield import Fp

    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # dataclasses look it up
    spec.loader.exec_module(workloads)
    argvs = [["verify-all", "--seed", str(seed), "--json"] for seed in (1, 2, 3)]
    argvs += workloads.warmup_argvs("verify-all", tmp_path)
    assert [argv[:2] for argv in argvs[3:]] == [["branch", "--corpus"], ["module", "check"],
                                                ["module", "transition"], ["module", "theorem5"]]
    built = []
    init = Fp.__init__
    monkeypatch.setattr(Fp, "__init__", lambda self, v, p: built.append(p) or init(self, v, p))
    for argv in argvs:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert built == []
    assert Mat.identity(1, 3)[0, 0] == Fp(1, 3) and built == [3, 3]   # the count is live


def test_tracer_counts_one_transition_solve():
    # the tracer reads the dimension vector of find_transition's first
    # argument for its unknowns count, and counts the transports beneath it
    from qfold import module_lab
    from qfold.quiver_core import a_quiver, flip_automorphism
    from qfold.split_quotient import identity_sigma

    a3 = a_quiver(3)
    v = {"1": 2, "2": 1, "3": 2}
    m = module_lab.framed_module(a3, v, v, J={x: Mat.identity(v[x]) for x in a3.vertices})
    sigma = identity_sigma(a3, flip_automorphism(a3, 3), v)
    original = module_lab.find_transition
    tracer = tracer_module().Tracer()
    tracer.install()
    try:
        witness = module_lab.find_transition(m, sigma)
    finally:
        tracer.uninstall()
    assert module_lab.find_transition is original
    assert witness is not None and all(witness.g[x] == Mat.identity(v[x]) for x in v)
    stats = tracer.stats
    assert stats["module_lab.find_transition"]["calls"] == 1
    assert stats["module_lab.find_transition"]["unknowns"] == 9  # sum of v_x^2
    assert stats["module_lab.apply_theta"]["calls"] == 1


def test_transition_checks_invert_nothing():
    # a transition is decided as a module map, by inverse-free equations
    import random

    from qfold import module_lab
    from qfold.generators import random_graded_pair
    from qfold.quiver_core import a_quiver, flip_automorphism

    a3 = a_quiver(3)
    _xi, _msub, m, sigma, _wsub, witness = random_graded_pair(
        random.Random(3), a3, flip_automorphism(a3, 3))
    tracer = tracer_module().Tracer()
    tracer.install()
    try:
        verified = module_lab.verify_transition(m, sigma, witness)
        found = module_lab.find_transition(m, sigma)
    finally:
        tracer.uninstall()
    assert verified and found is not None
    assert all(found.g[x] == witness.g[x] for x in a3.vertices)
    children: dict = {}
    for span in tracer.spans:
        children.setdefault(span["parent"], []).append(span)

    def inverses_under(span):
        return span["kernels"].get("linalg.inverse", [0])[0] \
            + sum(inverses_under(child) for child in children.get(span["id"], []))

    for name in ("module_lab.verify_transition", "module_lab.find_transition"):
        spans = [span for span in tracer.spans if span["name"] == name]
        assert len(spans) == 1, name
        assert inverses_under(spans[0]) == 0, name
