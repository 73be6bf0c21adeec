"""Benchmark of the qgalton chain: source, mesh, detector, readout, fits.

Run from anywhere inside a source checkout; the package is imported from
its ``src`` directory, never from an installed copy:

    python3 perfbench/run.py --workload fringe --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): ``fringe`` (interference at defaults),
``saturation`` (counting at 30 photons per window) and ``export`` (the
``run intervals`` CLI writing CSV tables).

With ``--trace 0`` it prints the end-to-end metrics.  Their times are host
time in reference seconds (speed.py): wall time corrected for how fast the
core ran while it was measured, so that runs taken minutes apart on a
shared host compare.  The plain wall times are in the details line.

- ``setup_s``: a fresh process imports ``qgalton.cli`` and builds the
  workload's config; median of 5 processes.
- ``run_s``: median time of one run, over the runs that fit in
  ``--seconds`` (at least 3) after one untimed warm-up run.
- ``photons_per_s``: emitted photons summed over those runs / their summed
  time.
- ``peak_rss_mb``: peak resident memory of the process that ran them.

The summary also prints ``failed_ratio``, failed runs / runs attempted.

With ``--trace 1`` it prints the per-layer metrics of layers.py instead,
in plain wall time: half the time runs untraced, then the same seeds run
again with every layer wrapped; the difference of the two median run
times is the tracing overhead, ``trace.overhead_s``.

Every run's outputs are checked (workloads.py), the warm-up seed is run
twice and must give the same report bytes, and traced runs must give the
same bytes as untraced ones.  Runs that fail any of these count in
``failed`` of the last output line, a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the details: environment stamp, the report sha256 and deterministic
counts of every seed, and the samples behind each metric.

Load comes from one process with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 20.0
SETUP_CODE = """\
import sys, time, speed
sampler = speed.Sampler()
sampler.start()
start = time.perf_counter()
import qgalton.cli, workloads
workloads.build_config(sys.argv[1], int(sys.argv[2]))
wall = time.perf_counter() - start
sampler.stop()
print(wall, sampler.reference_s(wall), qgalton.kernels.BACKEND)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_probe(env: dict, workload: str, seed: int) -> tuple[float, float, str]:
    """Set-up time of a fresh process, from its first import of qgalton to
    a built config: wall seconds, reference seconds, and its backend."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, workload, str(seed)],
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    wall, ref, backend = proc.stdout.split()
    return float(wall), float(ref), backend


def import_times(env: dict) -> dict[str, float]:
    """Cumulative import time of qgalton.{stats,experiments,cli}, seconds."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import qgalton.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed:\n{proc.stderr}")
    wanted = {f"qgalton.{layer}": layer for layer in layers.IMPORTS}
    out = {}
    for line in proc.stderr.splitlines():
        # "import time: self [us] | cumulative | imported package"
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[2].strip() in wanted:
            out[wanted[parts[2].strip()]] = int(parts[1]) / 1e6
    return out


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def timed(runs: list[dict]) -> list[dict]:
    return [r for r in runs if math.isfinite(r["seconds"]) and r["sha256"]]


def end_to_end(worker: dict, setups: list[float]) -> dict:
    """The end-to-end metrics; times in reference seconds (speed.py)."""
    ok = timed(worker["runs"])
    seconds = sum(r["ref_seconds"] for r in ok)
    photons = sum(r["counts"]["photons"] for r in ok)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(r["ref_seconds"] for r in ok), "s"),
        "photons_per_s": (photons / seconds, "photons/s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MiB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qgalton" / "__init__.py").is_file():
        print(f"error: no qgalton sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    env = child_env()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--tmp", tmp],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"error: worker exited {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        worker = json.loads(proc.stdout.splitlines()[-1])
        if args.trace:
            import_s = import_times(env)
            probes = []
        else:
            probes = [setup_probe(env, args.workload, args.seed)
                      for _ in range(SETUP_SAMPLES)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    env_stamp = {**worker["env"], "git": git_sha()}
    backends = {b for _, _, b in probes} - {env_stamp["backend"]}
    if backends:
        env_stamp["backend_mismatch"] = sorted(backends)
    runs = worker["runs"] + worker.get("traced", [])
    failed = sum(1 for r in runs if r["failures"])
    if not timed(worker["runs"]):
        print("error: no run completed", file=sys.stderr)
        return 1

    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env_stamp,
        "runs": worker["runs"],
        "failures": [f"seed {r['seed']}: {msg}"
                     for r in runs for msg in r["failures"]],
    }
    lines = [f"perfbench {args.workload} seed={args.seed} "
             f"trace={args.trace} "
             + " ".join(f"{k}={v}" for k, v in env_stamp.items())]
    if backends:
        lines.append(f"WARNING: setup probes ran backend {sorted(backends)}, "
                     f"the worker {env_stamp['backend']}")
    n_runs = len(timed(worker["runs"]))
    if args.trace:
        traced = timed(worker["traced"])
        untraced_s = statistics.median(
            r["seconds"] for r in timed(worker["runs"]))
        traced_s = statistics.median(r["seconds"] for r in traced)
        metrics = layers.layer_metrics(
            worker["snapshots"], worker["first_report"], import_s,
            traced_s - untraced_s)
        details.update(traced=worker["traced"], absent=worker["absent"],
                       broken=worker["broken"],
                       unseen=sorted(
                           t.span for t in layers.TARGETS
                           if t.span not in worker["absent"]
                           and not worker["snapshots"][0]["calls"].get(t.span)))
        lines.append(f"  tracing overhead {traced_s - untraced_s:+.4f} s per "
                     f"run: traced {traced_s:.4f} s vs untraced "
                     f"{untraced_s:.4f} s (medians of {len(traced)} and "
                     f"{n_runs} runs)")
        lines.append("  share of a traced run:")
        for group, share in sorted(layers.shares(metrics, traced_s).items(),
                                   key=lambda kv: -kv[1]):
            lines.append(f"    {share:7.1%}  {group}")
        for name, (value, unit) in metrics.items():
            shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6g}"
            lines.append(f"  {name:40s} {shown} {unit}")
        for key in ("absent", "broken", "unseen"):
            if details[key]:
                lines.append(f"  {key} layers: {', '.join(details[key])}")
    else:
        details["setup_wall_s"] = [wall for wall, _, _ in probes]
        details["setup_ref_s"] = [ref for _, ref, _ in probes]
        metrics = end_to_end(worker, details["setup_ref_s"])
        walls = {
            "setup_s": statistics.median(details["setup_wall_s"]),
            "run_s": statistics.median(r["seconds"] for r in
                                       timed(worker["runs"])),
        }
        samples = {"setup_s": f"median of {len(probes)} fresh processes",
                   "run_s": f"median of {n_runs} runs",
                   "photons_per_s": f"over {n_runs} runs",
                   "peak_rss_mb": "1 process"}
        for name, (value, unit) in metrics.items():
            wall = (f", wall {walls[name]:.4g} s" if name in walls else "")
            lines.append(f"  {name:14s} {value:14.6g} {unit:10s} "
                         f"({samples[name]}{wall})")
        lines.append(f"  {'failed_ratio':14s} {failed / len(runs):14.6g} "
                     f"{'ratio':10s} ({failed} of {len(runs)} runs)")

    print("\n".join(lines))
    print(json.dumps({"perfbench": details}))
    print(json.dumps({
        "correct": failed == 0 and not worker["warmup"]["failures"],
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
