"""Tests of what importing the package leaves behind."""

import os
import subprocess
import sys
from pathlib import Path

import svtab

SRC = Path(svtab.__file__).resolve().parents[1]


def test_import_leaves_the_solve_M_cache_cold():
    # perfbench reads solve_M.cache_info() to check that a timed pass
    # starts from cold caches; without cache_info that check is skipped
    # with a note, and an entry built at import would fail every pass.
    code = "import svtab; print(svtab.series.solve_M.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
