"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --spawned-at T
        --workdir DIR [--scale full|tiny] [--trace]

``--spawned-at`` is the CLOCK_MONOTONIC reading taken by the parent just
before it started this process, so ``setup_s`` covers interpreter start,
importing svtab and generating the inputs.  The pass then runs once with
cold caches, the outputs are checked against the golden digests, and one
JSON object is printed as the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--scale", choices=["full", "tiny"], default="full")
    p.add_argument("--trace", action="store_true")
    return p.parse_args(argv)


def check_cold_caches(series) -> None:
    """A CLI user pays cold caches on every invocation; so must a pass.

    Call it before the tracer wraps ``solve_M``.  Without ``cache_info``
    there is nothing to check, and a ``#`` line says so.
    """
    info = getattr(series.solve_M, "cache_info", None)
    if info is None:
        print("# series.solve_M has no cache_info; cold caches not checked")
    elif info().currsize != 0:
        raise RuntimeError("series.solve_M cache is warm before the timed "
                           "region; a pass must start cold")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "svtab")):
        print(f"error: no svtab package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads
    from svtab import series
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.scale)
    setup_s = monotonic() - args.spawned_at
    result = {"setup_s": setup_s}

    check_cold_caches(series)
    tracer = None
    if args.trace:
        from tracing import METRICS, Tracer
        tracer = Tracer()
        tracer.install()
    error = None
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        if tracer is None:
            outputs = workload.run(inputs, args.workdir)
            wall = time.perf_counter() - start
        else:
            outputs, wall = tracer.root(workload.run, inputs, args.workdir)
    except Exception as exc:  # the whole pass failed; report it as data
        outputs, wall = None, time.perf_counter() - start
        error = f"{type(exc).__name__}: {exc}"
    cpu_s = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    with open(GOLDEN) as fh:
        golden = json.load(fh)[args.scale][args.workload]
    if error is None:
        ops, failed, notes = workload.check(inputs, outputs, golden)
    else:
        ops = workload.expected_ops(inputs, golden)
        failed, notes = ops, [error]
    result.update(wall_s=wall, cpu_s=cpu_s, ops=ops, failed=failed,
                  peak_rss_mb=peak_rss_mb, notes=notes[:20])
    if tracer is not None:
        report = outputs.get("report", b"") if isinstance(outputs, dict) \
            else b""
        values = tracer.metrics(len(report))
        result["layers"] = {name: [values[name], unit]
                            for name, unit in METRICS.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
