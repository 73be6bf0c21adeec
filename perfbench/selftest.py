"""Self-test of the benchmark harness on tiny runs (50 windows each).

    python3 perfbench/selftest.py

For every workload it runs one seed untraced and twice traced, then checks
that the wrappers see their targets (known call counts at 50 windows), that
tracing leaves the report bytes unchanged, that the counts repeat exactly,
that the wrappers are removed afterwards, and that the metric names match
BENCHMARK.json.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WINDOWS = 50
# slots one decode scans: 16 pixels plus 2 padding slots at each end
MAX_PAIR_PASSES = 20
# spans each workload must reach, at this size and on this code
EXPECTED = {
    "fringe": {"stats.fit_t2", "experiments.render_report"},
    "saturation": {"stats.fit_poisson", "experiments.render_report"},
    "export": {"stats.fit_poisson", "stats.fit_exponential",
               "experiments.write_outputs", "experiments.render_report",
               "cli.main"},
}
COMMON = {"source.window_rng", "source.sample_arrivals", "source.assign_bins",
          "detector.detect", "kernels.dead_time_filter", "kernels.pair_pulses",
          "readout.encode", "readout.decode", "walk.bin_probabilities",
          "stats.chi_square_gof", "experiments.simulate_stream",
          "experiments.run"}


def check_workload(name: str, tmp: str) -> list[str]:
    overrides = {**workloads.WORKLOADS[name].overrides, "windows": WINDOWS}
    runner = workloads.Runner(name, tmp, overrides)
    plain = runner.run(1)
    if plain.sha256 is None:
        return [f"untraced run failed: {plain.failures}"]

    tracer = layers.Tracer()
    tracer.install()
    snapshots, hashes = [], []
    try:
        for _ in range(2):
            tracer.reset()
            hashes.append(runner.run(1).sha256)
            snapshots.append(tracer.snapshot())
    finally:
        tracer.uninstall()

    bad = []
    if hashes != [plain.sha256] * 2:
        bad.append("traced report bytes differ from the untraced run")
    first, second = snapshots
    if (first["calls"], first["counts"]) != (second["calls"], second["counts"]):
        bad.append("calls or counts differ between two runs of one seed")
    if tracer.broken:
        bad.append(f"counters broken: {sorted(tracer.broken)}")
    calls = first["calls"]
    for span in sorted((COMMON | EXPECTED[name]) - set(tracer.absent)):
        if not calls.get(span):
            bad.append(f"wrapper saw no call of {span}")
    if ("source.window_rng" not in tracer.absent
            and calls.get("source.window_rng") != WINDOWS):
        bad.append(f"source.window_rng.calls is "
                   f"{calls.get('source.window_rng')}, expected {WINDOWS}")
    passes, decodes = (calls.get("kernels.pair_pulses", 0),
                       calls.get("readout.decode", 0))
    if passes > MAX_PAIR_PASSES * decodes:
        bad.append(f"{passes} pair_pulses passes for {decodes} decodes")
    if name == "fringe" and calls.get("stats.fit_t2") != 1:
        bad.append(f"stats.fit_t2.calls is {calls.get('stats.fit_t2')}, "
                   "expected 1")
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("qgalton"):
            for attr, value in vars(module).items():
                if hasattr(value, "traced_span"):
                    bad.append(f"{module_name}.{attr} is still wrapped")
    return bad


def check_spec() -> list[str]:
    """The names and units of the metrics match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = []
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        bad.append("workloads differ from BENCHMARK.json")
    snapshot = {"calls": {}, "busy": {}, "self": {}, "counts": {}}
    report = {"n_emitted": 1, "decode_flags": dict.fromkeys(
        ("ok", "orphan_negative", "orphan_positive", "pixel_out_of_range"), 0)}
    produced = layers.layer_metrics([snapshot], report, {}, 0.0)
    if ({k: u for k, (_, u) in produced.items()}
            != {m["name"]: m["unit"] for m in spec["per_layer"]}):
        bad.append("per-layer metrics differ from BENCHMARK.json")
    worker = {"runs": [{"seconds": 1.0, "ref_seconds": 1.0, "sha256": "x",
                        "counts": {"photons": 1}}], "peak_rss_mb": 1.0}
    produced = run.end_to_end(worker, [1.0])
    if ({k: u for k, (_, u) in produced.items()}
            != {m["name"]: m["unit"] for m in spec["end_to_end"]}):
        bad.append("end-to-end metrics differ from BENCHMARK.json")
    return bad


def main() -> int:
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    failed = False
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        checks = [(name, lambda name=name: check_workload(name, tmp))
                  for name in workloads.WORKLOADS]
        for name, check in checks + [("BENCHMARK.json", check_spec)]:
            bad = check()
            failed |= bool(bad)
            print(f"{name}: {'ok' if not bad else 'FAILED'}")
            for line in bad:
                print(f"  {line}")
    try:
        scratch.rmdir()
    except OSError:
        pass  # a benchmark run still uses it
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
