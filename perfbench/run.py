"""Cold-process benchmark of svtab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): verify_grid, series_symbolic,
totals_specialised.  Every pass runs in a fresh interpreter, one child at
a time, and starts with cold caches, as a CLI invocation does.  Children
are started until the next one would end after ``--seconds``; at least
one pass always runs.  Each pass also reports its set-up time, and
``setup_s`` is the median of these.

With ``--trace 0`` the result holds the end-to-end metrics: ``wall_s`` is
the mean time of a pass and ``ops_per_s`` the operations of all passes
over their summed time, while ``setup_s`` and ``peak_rss_mb`` are medians
over the passes.  A run holds only three to ten passes, so the mean lets
every pass count; on a shared 2-core host the median over passes was no
steadier from run to run.

With ``--trace 1`` untraced and traced passes alternate and the result
holds the per-layer metrics of the traced passes (medians) plus the
tracing overhead (difference of the mean pass times).  Human-readable
lines, prefixed with ``#``, come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
A pass that cannot run at all (svtab missing, a crashed child) ends the
run with exit code 1 and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 170
END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
              "peak_rss_mb": "MB"}


_seen_notes: set[str] = set()


class ChildFailed(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["verify_grid", "series_symbolic",
                            "totals_specialised"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "tiny"], default="full",
                   help="tiny is for the smoke tests only")
    return p.parse_args(argv)


def machine_notes() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = [round(x, 2) for x in os.getloadavg()]
    except OSError:
        load = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "loadavg_at_start": load}


def run_child(args, workdir: str, deadline: float, trace: bool) -> dict:
    """Run one child to completion and return its result.

    The child's ``#`` lines are passed on, each distinct one once.
    """
    cmd = [sys.executable, CHILD, "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir,
           "--scale", args.scale]
    if trace:
        cmd.append("--trace")
    timeout = max(1.0, deadline - time.perf_counter())
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)],
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with code {proc.returncode}")
    for line in lines[:-1]:
        if line.startswith("#") and line not in _seen_notes:
            _seen_notes.add(line)
            print(line)
    return json.loads(lines[-1])


def run_passes(args, workdir: str) -> tuple[list, list]:
    """Return (untraced passes, traced passes)."""
    started = time.perf_counter()
    hard_deadline = started + CHILD_TIMEOUT_S
    budget_end = started + args.seconds
    plain, traced = [], []
    longest = 0.0
    while True:
        pass_start = time.perf_counter()
        trace = bool(args.trace) and len(traced) < len(plain)
        result = run_child(args, workdir, hard_deadline, trace)
        longest = max(longest, time.perf_counter() - pass_start)
        (traced if trace else plain).append(result)
        need_more = args.trace and not traced
        if not need_more and time.perf_counter() + longest > budget_end:
            break
    return plain, traced


def summarize(values: list[float]) -> str:
    return (f"median {statistics.median(values):.6g} "
            f"min {min(values):.6g} max {max(values):.6g} (n={len(values)})")


def main(argv=None) -> int:
    args = parse_args(argv)
    print(f"# machine: {json.dumps(machine_notes())}")
    if args.workload == "verify_grid":
        print("# verify_grid runs the harness's fixed grid; the seed is "
              "unused")
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        plain, traced = run_passes(args, workdir)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for note in p["notes"]:
            print(f"# FAILED: {note}")
    walls = [p["wall_s"] for p in plain]
    samples = {
        "setup_s": [p["setup_s"] for p in passes],
        "wall_s": walls,
        "ops_per_s": [p["ops"] / p["wall_s"] for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    for name, values in samples.items():
        print(f"# per pass {name} [{END_TO_END[name]}]: {summarize(values)}")
    end_to_end = {
        "setup_s": statistics.median(samples["setup_s"]),
        "wall_s": statistics.fmean(walls),
        "ops_per_s": sum(p["ops"] for p in plain) / sum(walls),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    print(f"# cpu_s [s]: {summarize([p['cpu_s'] for p in plain])}")
    print(f"# ops per pass: {plain[0]['ops']}; failed_ratio: "
          f"{failed / attempted:.6g} ({failed} of {attempted} operations)")

    if args.trace:
        metrics = {name: {"value": statistics.median(
                              p["layers"][name][0] for p in traced),
                          "unit": unit}
                   for name, (_, unit) in traced[0]["layers"].items()}
        traced_wall = statistics.fmean(p["wall_s"] for p in traced)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_wall - end_to_end["wall_s"], "unit": "s"}
        for name, m in metrics.items():
            print(f"# {name} [{m['unit']}]: {m['value']:.6g}")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
