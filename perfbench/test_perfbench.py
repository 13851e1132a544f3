"""Smoke tests and negative controls for the benchmark itself.

    python3 -m unittest discover -s perfbench -t perfbench

Every run here uses the tiny scale, so the whole file takes seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("verify_grid", "series_symbolic", "totals_specialised")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(workload: str, trace: int = 0) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tampered_child(workload: str, patch: str) -> dict:
    """Run one tiny pass in a child patched first (svtab or golden file)."""
    code = (f"import sys; sys.path[:0] = [{HERE!r}, {os.path.join(ROOT, 'src')!r}]\n"
            "import child\n"
            f"{patch}\n"
            f"sys.exit(child.main(sys.argv[1:]))\n")
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as workdir:
        proc = subprocess.run(
            [sys.executable, "-c", code, "--workload", workload, "--seed",
             "7", "--scale", "tiny", "--workdir", workdir, "--spawned-at",
             repr(time.clock_gettime(time.CLOCK_MONOTONIC))],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def test_every_end_to_end_metric_is_emitted(self):
        names = {m["name"] for m in load_spec()["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload)
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), names)
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_every_per_layer_metric_is_emitted(self):
        spec = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, trace=1)
                self.assertTrue(result["correct"])
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                self.assertEqual(got, spec)
                enumeration = ("shapes.tableaux", "paths.paths",
                               "bijection.calls")
                for name in enumeration:
                    used = result["metrics"][name]["value"] > 0
                    self.assertEqual(used, workload == "verify_grid", name)


class NegativeControl(unittest.TestCase):
    def test_tampered_digest_is_caught(self):
        with open(os.path.join(HERE, "golden.json")) as fh:
            golden = json.load(fh)
        tiny = golden["tiny"]
        tiny["verify_grid"]["report_digests"][5] = "0" * 16
        key = sorted(k for k in tiny["series_symbolic"]
                     if k.startswith("straight"))[0]
        tiny["series_symbolic"][key] = "0" * 64
        cor4 = tiny["totals_specialised"]["cor4:t=0"]
        cor4[:] = ["0" * 16] * len(cor4)
        with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
            path = os.path.join(tmp, "golden.json")
            with open(path, "w") as fh:
                json.dump(golden, fh)
            for workload in WORKLOADS:
                with self.subTest(workload=workload):
                    result = tampered_child(workload,
                                            f"child.GOLDEN = {path!r}")
                    self.assertGreater(result["failed"] / result["ops"], 0)

    def test_wrong_series_at_a_documented_edge_is_caught(self):
        # thm7 at 0 < t < f is a documented edge for every n, so only the
        # series digest can catch a wrong (2, 1) series.
        result = tampered_child("totals_specialised", (
            "from svtab import genfun\n"
            "real = genfun.gf_skew\n"
            "genfun.gf_skew = lambda f, t, *a: "
            "real(f, 0 if (f, t) == (2, 1) else t, *a)"))
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any("f=2 t=1" in note for note in result["notes"]))

    def test_wrong_closed_form_is_caught(self):
        result = tampered_child("totals_specialised", (
            "from svtab import formulas\n"
            "real = formulas.count_cor4\n"
            "formulas.count_cor4 = lambda n, t: real(n, t) + 1"))
        self.assertGreater(result["failed"], 0)

    def test_wrong_series_dump_is_caught(self):
        result = tampered_child("series_symbolic", (
            "from svtab import series\n"
            "series.ZSeries.dump = lambda self: 'tampered'"))
        self.assertEqual(result["failed"], 10)

    def test_failed_check_report_is_caught(self):
        result = tampered_child("verify_grid", (
            "from svtab import formulas\n"
            "formulas.remark_1_10 = lambda n, t: -1"))
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["failed"], result["ops"])


if __name__ == "__main__":
    unittest.main()
