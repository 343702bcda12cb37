"""Set-up probe: a fresh interpreter imports qfold.cli and runs the warm-up ops.

    python3 perfbench/probe.py WARMUP_ARGVS.json

run.py times this process from start to exit; that is one `setup_s` sample.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qfold.cli  # noqa: E402


def main() -> int:
    with open(sys.argv[1]) as fh:
        argvs = json.load(fh)
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = qfold.cli.main(argv)
        if rc != 0:
            print(f"warm-up op {argv} exited {rc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
