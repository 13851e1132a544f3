"""Write perfbench/golden.json: the digests every benchmark pass is checked against.

    python3 perfbench/make_golden.py

The checked-in file was made at the commit that added the benchmark
(e72c20b), before any performance work.  It pins the program's output
bytes: the ``verify --report`` JSON (whole and per report), every
``ZSeries.dump()`` a seed can pick and every closed-form value a seed can
sample.  Regenerate it only for a change that is meant to alter outputs,
and say so; a performance change must pass against the file as it is.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    golden = {}
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as workdir:
        for scale in ("tiny", "full"):
            golden[scale] = {name: w.record(scale, workdir)
                             for name, w in workloads.WORKLOADS.items()}
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
