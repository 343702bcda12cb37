"""Every function the benchmark tracer wraps must still exist in qfold.

`perfbench/tracer.py` names its targets as (module, attribute) pairs and
looks them up when `--trace 1` starts; a rename or deletion in `src/`
would otherwise surface only as a failed traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


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
