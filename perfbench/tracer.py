"""Per-layer tracing of qfold from outside the program.

`Tracer.install()` wraps the public functions of each `qfold` module in
every `qfold.*` namespace that holds a reference to them (the CLI and the
module laboratory use `from ... import`), and patches the `Mat` methods on
the class.  `uninstall()` puts the originals back.

Two kinds of wrapped call:
  span    recorded one by one (name, thread, op, parent, start, end, self
          time) and written out when the run ends;
  kernel  the hot `linalg` methods and `dominant_representative`: only a
          count and a time per parent span, so memory stays bounded.

Self time is a call's duration minus the time of the wrapped calls it made
on the same thread; every thread keeps its own call stack, because
`verify-all` runs its checks in a thread pool.  The tracer's own
bookkeeping is charged to neither the call nor its parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

# (module, attribute, metric name, kind); "Class.method" patches the class
TARGETS = [
    ("linalg", "Mat.__mul__", "linalg.mul", "kernel"),
    ("linalg", "Mat.__add__", "linalg.add_sub", "kernel"),
    ("linalg", "Mat.__sub__", "linalg.add_sub", "kernel"),
    ("linalg", "Mat.rref", "linalg.rref", "kernel"),
    ("linalg", "Mat.solve", "linalg.solve", "kernel"),
    ("linalg", "Mat.nullspace", "linalg.nullspace", "kernel"),
    ("linalg", "Mat.rank", "linalg.rank", "kernel"),
    ("linalg", "Mat.inverse", "linalg.inverse", "kernel"),
    ("linalg", "Mat.charpoly", "linalg.charpoly", "kernel"),
    ("linalg", "Mat.power", "linalg.power", "kernel"),
    ("linalg", "Mat.poly_eval", "linalg.poly_eval", "kernel"),
    ("numberfield", "factor_rational_poly", "numberfield.factor", "span"),
    ("rep_branch", "branch", "rep_branch.branch", "span"),
    ("rep_branch", "freudenthal_character", "rep_branch.freudenthal_character", "span"),
    ("rep_branch", "dominant_weights_below", "rep_branch.dominant_weights_below", "span"),
    ("rep_branch", "weyl_orbit", "rep_branch.weyl_orbit", "span"),
    ("rep_branch", "weyl_dim", "rep_branch.weyl_dim", "span"),
    ("rep_branch", "dominant_representative", "rep_branch.dominant_representative", "kernel"),
    ("lie_fold", "serre_check", "lie_fold.serre_check", "span"),
    ("lie_fold", "folded_generators", "lie_fold.folded_generators", "span"),
    ("lie_fold", "fold_cartan", "lie_fold.fold_cartan", "span"),
    ("lie_fold", "classify_cartan", "lie_fold.classify_cartan", "span"),
    ("module_lab", "find_transition", "module_lab.find_transition", "span"),
    ("module_lab", "is_stable", "module_lab.is_stable", "span"),
    ("module_lab", "check_relations", "module_lab.check_relations", "span"),
    ("module_lab", "apply_theta", "module_lab.apply_theta", "span"),
    ("module_lab", "SigmaData.validate", "module_lab.sigma_validate", "span"),
    ("module_lab", "verify_transition", "module_lab.verify_transition", "span"),
    ("module_lab", "act", "module_lab.act", "span"),
    ("module_lab", "theorem5_verify", "module_lab.theorem5_verify", "span"),
    ("module_lab", "brute_stability", "module_lab.brute_stability", "span"),
    ("module_lab", "eigen_profile", "module_lab.eigen_profile", "span"),
    ("split_quotient", "split_quiver", "split_quotient.split_quiver", "span"),
    ("split_quotient", "split_involution_check", "split_quotient.split_involution_check", "span"),
    ("split_quotient", "fibers_of_p", "split_quotient.fibers_of_p", "span"),
    ("split_quotient", "root_of_unity_eigendims", "split_quotient.root_of_unity_eigendims", "span"),
    ("generators", "random_graded_pair", "generators.random_graded_pair", "span"),
    ("generators", "random_theta_module", "generators.random_theta_module", "span"),
    ("serialize", "module_from_dict", "serialize.module_from_dict", "span"),
    ("serialize", "witness_to_dict", "serialize.witness_to_dict", "span"),
    ("cli", "main", "cli.main", "span"),
]

# per-layer metrics: (name, unit); every name is emitted on every workload
PER_LAYER = [
    ("linalg.mul.calls", "count"), ("linalg.mul.self_s", "s"),
    ("linalg.mul.products", "count"), ("linalg.mul.nonzero_frac", "ratio"),
    ("linalg.mul.fraction.self_s", "s"), ("linalg.mul.fp.self_s", "s"),
    ("linalg.mul.numberfield.self_s", "s"),
    ("linalg.add_sub.calls", "count"), ("linalg.add_sub.self_s", "s"),
    ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"), ("linalg.rref.cells", "count"),
] + [(f"linalg.{k}.{f}", u) for k in ("solve", "nullspace", "rank", "inverse", "charpoly",
                                       "power", "poly_eval")
     for f, u in (("calls", "count"), ("self_s", "s"))] + [
    ("linalg.mat_new.calls", "count"),
    ("numberfield.factor.calls", "count"), ("numberfield.factor.self_s", "s"),
    ("rep_branch.branch.calls", "count"), ("rep_branch.branch.self_s", "s"),
    ("rep_branch.branch.summands", "count"),
    ("rep_branch.freudenthal_character.calls", "count"),
    ("rep_branch.freudenthal_character.self_s", "s"),
    ("rep_branch.freudenthal_character.repeat_frac", "ratio"),
    ("rep_branch.dominant_weights_below.calls", "count"),
    ("rep_branch.dominant_weights_below.self_s", "s"),
    ("rep_branch.dominant_weights_below.weights", "count"),
    ("rep_branch.weyl_orbit.self_s", "s"), ("rep_branch.weyl_dim.self_s", "s"),
    ("rep_branch.dominant_representative.calls", "count"),
    ("lie_fold.serre_check.calls", "count"), ("lie_fold.serre_check.self_s", "s"),
    ("lie_fold.folded_generators.self_s", "s"), ("lie_fold.fold_cartan.self_s", "s"),
    ("lie_fold.classify_cartan.calls", "count"), ("lie_fold.classify_cartan.self_s", "s"),
    ("module_lab.find_transition.calls", "count"), ("module_lab.find_transition.self_s", "s"),
    ("module_lab.find_transition.unknowns", "count"),
    ("module_lab.find_transition.system_elims_per_call", "ratio"),
    ("module_lab.is_stable.calls", "count"), ("module_lab.is_stable.self_s", "s"),
    ("module_lab.check_relations.self_s", "s"),
    ("module_lab.apply_theta.calls", "count"), ("module_lab.apply_theta.self_s", "s"),
    ("module_lab.sigma_validate.calls", "count"), ("module_lab.sigma_validate.self_s", "s"),
    ("module_lab.validate_per_theta", "ratio"),
    ("module_lab.verify_transition.calls", "count"),
    ("module_lab.verify_transition.self_s", "s"),
    ("module_lab.act.self_s", "s"),
    ("module_lab.theorem5_verify.calls", "count"), ("module_lab.theorem5_verify.self_s", "s"),
    ("module_lab.brute_stability.self_s", "s"), ("module_lab.eigen_profile.self_s", "s"),
    ("split_quotient.split_quiver.calls", "count"), ("split_quotient.split_quiver.self_s", "s"),
    ("split_quotient.split_involution_check.self_s", "s"),
    ("split_quotient.fibers_of_p.self_s", "s"),
    ("split_quotient.root_of_unity_eigendims.self_s", "s"),
    ("generators.random_graded_pair.calls", "count"),
    ("generators.random_graded_pair.self_s", "s"),
    ("generators.random_graded_pair.stability_tests_per_pair", "ratio"),
    ("generators.random_theta_module.self_s", "s"),
    ("serialize.module_from_dict.self_s", "s"), ("serialize.witness_to_dict.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead", "ratio"),
]


class _Frame:
    __slots__ = ("name", "child", "span", "unknowns", "kernels")

    def __init__(self, name: str, span: Optional[dict]):
        self.name = name
        self.child = 0.0          # time of wrapped calls made from this frame
        self.span = span          # the span record, or None for a kernel
        self.unknowns = 0         # find_transition: columns of its system
        self.kernels: dict[str, list] = {}


def _entry_kind(m) -> str:
    """Entry type of a matrix: fraction, fp or numberfield."""
    for row in m.data:
        for x in row:
            name = type(x).__name__
            return "fp" if name == "Fp" else "numberfield" if name == "NumberFieldElement" \
                else "fraction"
    return "fraction"


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.op: Optional[int] = None         # id of the op in flight
        self.spans: list[dict] = []
        self.stats: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.roots: dict[int, dict] = {}      # per-thread kernel totals outside any span
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._mat_new = itertools.count()
        self.mat_new_calls = 0
        self._seen_characters: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------
    def install(self) -> None:
        import qfold.linalg  # noqa: F401  (loads every module the targets name)
        import qfold.cli  # noqa: F401
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if mod is not None and (name == "qfold" or name.startswith("qfold."))]
        for module, attr, metric, kind in TARGETS:
            owner = sys.modules[f"qfold.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(metric, kind, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(metric, kind, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapper)
        mat = sys.modules["qfold.linalg"].Mat
        self._patch(mat, "__init__", self._count_new(mat.__dict__["__init__"]))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        # itertools.count advances atomically across threads; reading it
        # advances it once more, so it is read once, here
        self.mat_new_calls = next(self._mat_new)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _count_new(self, init: Callable) -> Callable:
        counter = self._mat_new

        def __init__(mat, *args, **kwargs):
            next(counter)
            init(mat, *args, **kwargs)
        return __init__

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- the wrapper --------------------------------------------------
    def _wrap(self, metric: str, kind: str, fn: Callable) -> Callable:
        tracer = self
        is_kernel = kind == "kernel"

        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = None
            if not is_kernel:
                span = {"id": next(tracer._ids), "name": metric, "op": tracer.op,
                        "thread": threading.get_ident(),
                        "parent": _parent_span_id(stack)}
            frame = _Frame(metric, span)
            if metric == "module_lab.find_transition":
                frame.unknowns = sum(x * x for x in args[0].v.values())
            stack.append(frame)
            t_start = perf_counter()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t_end = perf_counter()
                stack.pop()
                # a call that raised is timed but adds no counters
                tracer._record(metric, frame, stack, t_start, t_end, args,
                               None if raised else result, not raised)
                if parent is not None:
                    parent.child += perf_counter() - t_enter

        return functools.wraps(fn)(wrapper)

    def _record(self, metric, frame, stack, t_start, t_end, args, result, ok) -> None:
        dur = t_end - t_start
        self_s = dur - frame.child
        extra = self._counters(metric, frame, stack, args, result, self_s) if ok else {}
        with self._lock:
            st = self.stats[metric]
            st["calls"] += 1
            st["self_s"] += self_s
            for key, val in extra.items():
                st[key] += val
            if frame.span is None:
                owner = _nearest_span(stack)
                bucket = owner.kernels if owner is not None else \
                    self.roots.setdefault(threading.get_ident(), {})
                agg = bucket.setdefault(metric, [0, 0.0])
                agg[0] += 1
                agg[1] += dur
            else:
                span = frame.span
                span.update(start=t_start - self.t0, dur=dur, self=self_s,
                            kernels=frame.kernels)
                self.spans.append(span)

    def _counters(self, metric, frame, stack, args, result, self_s) -> dict:
        if metric == "linalg.mul":
            a, b = args
            if not hasattr(b, "data"):
                return {}
            col_nnz = [sum(1 for x in col if x) for col in zip(*a.data)] or [0] * a.cols
            row_nnz = [sum(1 for x in row if x) for row in b.data]
            return {"products": a.rows * a.cols * b.cols,
                    "nonzero_products": sum(p * q for p, q in zip(col_nnz, row_nnz)),
                    f"{_entry_kind(a)}_self_s": self_s}
        if metric == "linalg.rref":
            m = args[0]
            ft = _nearest(stack, "module_lab.find_transition")
            if ft is not None and m.cols >= ft.unknowns > 0:
                with self._lock:
                    self.stats["module_lab.find_transition"]["system_elims"] += 1
            return {"cells": m.rows * m.cols}
        if metric == "module_lab.find_transition":
            return {"unknowns": frame.unknowns}
        if metric == "module_lab.is_stable":
            if _nearest(stack, "generators.random_graded_pair") is not None:
                with self._lock:
                    self.stats["generators.random_graded_pair"]["stability_tests"] += 1
            return {}
        if metric == "rep_branch.branch":
            return {"summands": len(result)}
        if metric == "rep_branch.dominant_weights_below":
            return {"weights": len(result)}
        if metric == "rep_branch.freudenthal_character":
            key = (args[0], tuple(args[1]))
            with self._lock:
                repeat = key in self._seen_characters
                self._seen_characters.add(key)
            return {"repeats": int(repeat)}
        return {}

    # -- results ------------------------------------------------------
    def metrics(self, overhead: float) -> dict[str, float]:
        """Every per-layer metric, by name."""
        st = self.stats

        def get(metric: str, key: str) -> float:
            return st[metric][key] if metric in st else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for name, _unit in PER_LAYER:
            layer_fn, _, field = name.rpartition(".")
            if name == "trace.overhead":
                out[name] = overhead
            elif name == "linalg.mat_new.calls":
                out[name] = float(self.mat_new_calls)
            elif name.startswith("linalg.mul.") and name.count(".") == 3:
                kind = name.split(".")[2]
                out[name] = get("linalg.mul", f"{kind}_self_s")
            elif name == "linalg.mul.nonzero_frac":
                out[name] = ratio(get("linalg.mul", "nonzero_products"),
                                  get("linalg.mul", "products"))
            elif name == "rep_branch.freudenthal_character.repeat_frac":
                out[name] = ratio(get(layer_fn, "repeats"), get(layer_fn, "calls"))
            elif name == "module_lab.find_transition.system_elims_per_call":
                out[name] = ratio(get(layer_fn, "system_elims"), get(layer_fn, "calls"))
            elif name == "module_lab.validate_per_theta":
                out[name] = ratio(get("module_lab.sigma_validate", "calls"),
                                  get("module_lab.apply_theta", "calls"))
            elif name == "generators.random_graded_pair.stability_tests_per_pair":
                out[name] = ratio(get(layer_fn, "stability_tests"), get(layer_fn, "calls"))
            else:
                out[name] = get(layer_fn, field)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
            for thread, kernels in sorted(self.roots.items()):
                fh.write(json.dumps({"name": "(outside any span)", "thread": thread,
                                     "kernels": kernels}, sort_keys=True) + "\n")


def _parent_span_id(stack: list) -> Optional[int]:
    owner = _nearest_span(stack)
    return owner.span["id"] if owner is not None else None


def _nearest_span(stack: list) -> Optional[_Frame]:
    for frame in reversed(stack):
        if frame.span is not None:
            return frame
    return None


def _nearest(stack: list, name: str) -> Optional[_Frame]:
    for frame in reversed(stack):
        if frame.name == name:
            return frame
    return None
