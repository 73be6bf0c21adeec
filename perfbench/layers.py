"""Per-layer tracing from outside the package.

Each traced function is wrapped where its callers look it up: the package
modules use ``from .x import y``, so every ``qgalton.*`` module attribute
that is the original function object is replaced by the wrapper, and put
back afterwards.  A wrapper records, per span name, the number of calls,
the busy (inclusive) time and the self time (busy minus the time of traced
calls made inside it), plus a few counts read from arguments and results.

A target whose function no longer exists is reported as absent, and a
counter whose argument or result changed shape is reported as broken; both
read 0 instead of failing, so the benchmark survives refactors of the
package unchanged.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


def _count_detect(counts, args, result):
    counts["detector.clicks"] += len(result)
    counts["detector.dark_clicks"] += int(result.is_dark.sum())


def _count_dead_time(counts, args, result):
    counts["kernels.dead_time_filter.events_in"] += len(args[0])


def _count_pairs(counts, args, result):
    counts["kernels.pair_pulses.triggers_in"] += len(args[0])
    counts["kernels.pair_pulses.matched"] += int((result >= 0).sum())


def _count_encode(counts, args, result):
    counts["readout.encode.clicks_in"] += len(args[0])
    counts["readout.pulses"] += len(result)


def _count_decode(counts, args, result):
    counts["readout.decode.ok_rows"] += int(result.ok.sum())


def _count_fit(counts, args, result):
    counts["stats.bootstrap_resamples"] += int(result.n_bootstrap)


def _count_written(counts, args, result):
    counts["experiments.write_outputs.bytes"] += sum(
        os.path.getsize(path) for path in result)


@dataclass(frozen=True)
class Target:
    """One traced function: span name, defining module and attribute."""

    span: str
    module: str
    attr: str
    count: Optional[Callable] = None


TARGETS = (
    Target("source.window_rng", "qgalton.source", "window_rng"),
    Target("source.sample_arrivals", "qgalton.source", "sample_arrivals"),
    Target("source.assign_bins", "qgalton.source", "assign_bins"),
    Target("detector.detect", "qgalton.detector", "detect", _count_detect),
    Target("kernels.dead_time_filter", "qgalton.kernels", "dead_time_filter",
           _count_dead_time),
    Target("kernels.pair_pulses", "qgalton.kernels", "pair_pulses",
           _count_pairs),
    Target("readout.encode", "qgalton.readout", "encode", _count_encode),
    Target("readout.decode", "qgalton.readout", "decode", _count_decode),
    Target("walk.bin_probabilities", "qgalton.walk", "bin_probabilities"),
    Target("stats.fit_t2", "qgalton.stats", "fit_t2", _count_fit),
    Target("stats.fit_poisson", "qgalton.stats", "fit_poisson", _count_fit),
    Target("stats.fit_exponential", "qgalton.stats", "fit_exponential",
           _count_fit),
    Target("stats.chi_square_gof", "qgalton.stats", "chi_square_gof"),
    Target("experiments.simulate_stream", "qgalton.experiments",
           "simulate_stream"),
    Target("experiments.run", "qgalton.experiments", "run_experiment"),
    Target("experiments.render_report", "qgalton.experiments", "render_report"),
    Target("experiments.write_outputs", "qgalton.experiments", "write_outputs",
           _count_written),
    Target("cli.main", "qgalton.cli", "main"),
)


class Tracer:
    """Aggregated spans and counts of the traced calls since the last reset."""

    def __init__(self):
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "busy": dict(self.busy),
                "self": dict(self.self_time), "counts": dict(self.counts)}

    def _wrap(self, target: Target, fn):
        span = target.span
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[span] += 1
                self.busy[span] += elapsed
                self.self_time[span] += elapsed - children[0]
            if target.count is not None and span not in self.broken:
                try:
                    target.count(self.counts, args, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    self.broken.add(span)
            return result

        wrapper.traced_span = span
        return wrapper

    def install(self) -> None:
        """Replace every package-level reference to each target."""
        originals = {}
        for target in TARGETS:
            try:
                originals[target] = getattr(
                    importlib.import_module(target.module), target.attr)
            except (ImportError, AttributeError):
                self.absent.append(target.span)
        # listed after the imports above, so that no module imported later
        # can copy a wrapper that uninstall would not see
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qgalton"
                                         or name.startswith("qgalton."))]
        for target, original in originals.items():
            wrapper = self._wrap(target, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, span, field) of the timed layer metrics
_TIMES = (
    ("source.window_rng.busy_s", "source.window_rng", "busy"),
    ("source.sample_arrivals.busy_s", "source.sample_arrivals", "busy"),
    ("source.assign_bins.busy_s", "source.assign_bins", "busy"),
    ("detector.detect.self_s", "detector.detect", "self"),
    ("kernels.dead_time_filter.busy_s", "kernels.dead_time_filter", "busy"),
    ("kernels.pair_pulses.busy_s", "kernels.pair_pulses", "busy"),
    ("readout.encode.busy_s", "readout.encode", "busy"),
    ("readout.decode.self_s", "readout.decode", "self"),
    ("walk.bin_probabilities.busy_s", "walk.bin_probabilities", "busy"),
    ("stats.fit_t2.self_s", "stats.fit_t2", "self"),
    ("stats.fit_poisson.self_s", "stats.fit_poisson", "self"),
    ("stats.fit_exponential.self_s", "stats.fit_exponential", "self"),
    ("stats.chi_square_gof.busy_s", "stats.chi_square_gof", "busy"),
    ("experiments.simulate_stream.self_s", "experiments.simulate_stream",
     "self"),
    ("experiments.run.self_s", "experiments.run", "self"),
    ("experiments.render_report.busy_s", "experiments.render_report", "busy"),
    ("experiments.write_outputs.busy_s", "experiments.write_outputs", "busy"),
    ("cli.main.self_s", "cli.main", "self"),
)
_CALLS = (
    "source.window_rng", "source.sample_arrivals", "source.assign_bins",
    "detector.detect", "kernels.pair_pulses", "walk.bin_probabilities",
)
_COUNTS = (
    "detector.clicks", "detector.dark_clicks",
    "kernels.dead_time_filter.events_in", "kernels.pair_pulses.triggers_in",
    "readout.pulses", "stats.bootstrap_resamples",
)
IMPORTS = ("stats", "experiments", "cli")


def layer_metrics(snapshots: list[dict], report: dict,
                  import_s: dict[str, float], overhead_s: float) -> dict:
    """Per-layer metrics of one workload as {name: (value, unit)}.

    Times are medians over the traced runs; counts and ratios come from
    the first traced run (the first seed), so they repeat exactly for the
    same seed.  ``report`` is that run's report, for the decode flags.
    """
    metrics: dict[str, tuple[float, str]] = {}
    for name, span, field in _TIMES:
        metrics[name] = (statistics.median(
            s[field].get(span, 0.0) for s in snapshots), "s")
    first = snapshots[0]
    for span in _CALLS:
        metrics[f"{span}.calls"] = (first["calls"].get(span, 0), "count")
    counts = first["counts"]
    for name in _COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["source.photons"] = (report["n_emitted"], "count")
    flags = report["decode_flags"]
    metrics["readout.decoded_ok"] = (flags["ok"], "count")
    metrics["readout.decoded_orphan"] = (
        flags["orphan_negative"] + flags["orphan_positive"], "count")
    metrics["readout.decoded_out_of_range"] = (
        flags["pixel_out_of_range"], "count")
    metrics["kernels.pair_pulses.hit_ratio"] = (_ratio(
        counts.get("kernels.pair_pulses.matched", 0),
        counts.get("kernels.pair_pulses.triggers_in", 0)), "ratio")
    metrics["readout.decode.ok_ratio"] = (_ratio(
        counts.get("readout.decode.ok_rows", 0),
        counts.get("readout.encode.clicks_in", 0)), "ratio")
    metrics["experiments.write_outputs.bytes"] = (
        counts.get("experiments.write_outputs.bytes", 0), "bytes")
    for layer in IMPORTS:
        metrics[f"{layer}.import_s"] = (import_s.get(layer, 0.0), "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


# groups of per-layer times whose shares of a traced run the summary prints
SHARES = {
    "window loop (source + detect self + simulate_stream self)": (
        "source.window_rng.busy_s", "source.sample_arrivals.busy_s",
        "source.assign_bins.busy_s", "detector.detect.self_s",
        "experiments.simulate_stream.self_s"),
    "decode (pair_pulses + decode self)": (
        "kernels.pair_pulses.busy_s", "readout.decode.self_s"),
    "dead-time filter": ("kernels.dead_time_filter.busy_s",),
    "encode": ("readout.encode.busy_s",),
    "fits (fit self + chi-square + walk)": (
        "stats.fit_t2.self_s", "stats.fit_poisson.self_s",
        "stats.fit_exponential.self_s", "stats.chi_square_gof.busy_s",
        "walk.bin_probabilities.busy_s"),
    "run self (tables, report dict)": ("experiments.run.self_s",),
    "render + write": ("experiments.render_report.busy_s",
                       "experiments.write_outputs.busy_s"),
    "cli main self": ("cli.main.self_s",),
}


def shares(metrics: dict, run_s: float) -> dict[str, float]:
    return {group: _ratio(sum(metrics[n][0] for n in names), run_s)
            for group, names in SHARES.items()}
