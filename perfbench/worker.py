"""Run one workload in a fresh process and print its measurements as JSON.

run.py starts this with ``src`` on PYTHONPATH and BLAS pinned to one
thread:

    python3 perfbench/worker.py --workload fringe --seed 1 --seconds 25 \
        --trace 0 --tmp DIR

One untimed warm-up run of the first seed comes first, so that the
walk-coefficient cache and scipy's lazy imports sit outside the timed runs;
the first timed run repeats that seed and must give the same report bytes.
With ``--trace 1`` half the time goes to untraced runs and the same seeds
are then run again traced; the traced reports must hash the same.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import layers
import workloads


def timed_runs(runner, seeds, budget: float, min_runs: int):
    """Run consecutive seeds until ``budget`` seconds and ``min_runs`` pass."""
    outcomes = []
    start = time.perf_counter()
    for seed in seeds:
        if len(outcomes) >= min_runs and time.perf_counter() - start >= budget:
            break
        outcomes.append(runner.run(seed))
    return outcomes


def environment() -> dict:
    import numpy
    import scipy
    import qgalton.kernels

    return {
        "backend": qgalton.kernels.BACKEND,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        .get("name"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def summarize(outcome) -> dict:
    return {"seed": outcome.seed, "seconds": outcome.seconds,
            "ref_seconds": outcome.ref_seconds,
            "sha256": outcome.sha256, "counts": outcome.counts(),
            "failures": outcome.failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args(argv)

    import qgalton.cli  # noqa: F401  (the import every CLI call pays)

    # traced runs and the untraced runs they are compared with are plain
    # wall time; the sampler would add its own time to the layer spans
    runner = workloads.Runner(args.workload, args.tmp, sample=not args.trace)
    seeds = range(args.seed, args.seed + 10_000)
    warmup = runner.run(args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    runs = timed_runs(runner, seeds, budget, min_runs=2 if args.trace else 3)
    if runs[0].sha256 != warmup.sha256:
        runs[0].failures.append("report bytes differ from the warm-up run "
                                "of the same seed")

    result = {
        "env": environment(),
        "warmup": summarize(warmup),
        "runs": [summarize(o) for o in runs],
    }
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
        traced, snapshots = [], []
        try:
            for o in runs:
                tracer.reset()
                t = runner.run(o.seed)
                snapshots.append(tracer.snapshot())
                if t.sha256 != o.sha256:
                    t.failures.append("traced report bytes differ from the "
                                      "untraced run of the same seed")
                traced.append(t)
        finally:
            tracer.uninstall()
        result["traced"] = [summarize(o) for o in traced]
        result["snapshots"] = snapshots
        result["first_report"] = runs[0].report
        result["absent"] = tracer.absent
        result["broken"] = sorted(tracer.broken)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
