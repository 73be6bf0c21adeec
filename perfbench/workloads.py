"""The three benchmark workloads, how one run of each is timed, and checks.

Every workload is a closed loop in one process: one run at a time, seeds
consecutive from the workload seed.  A run of ``fringe`` or ``saturation``
is ``run_experiment`` + ``render_report``; a run of ``export`` is one
in-process ``cli.main`` call that writes the report and the CSV tables.

The output checks hold for a correct simulator on any seed, with margins of
five or more standard errors at these sizes.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Optional

import speed


@dataclass(frozen=True)
class Workload:
    experiment: str
    overrides: dict
    via_cli: bool = False


WORKLOADS = {
    # the per-window Python loop (source draws, detect, stream glue) is most
    # of a run; fit_t2 is next and decode is small
    "fringe": Workload("interference", {}),
    # pure-Python pulse pairing is half a run, the eager events table next;
    # largest memory footprint
    "saturation": Workload("counting", {"mean_photon_number": 30.0}),
    # tables are built and written as CSV; detect takes its efficiency and
    # dark-count branches in every window; poisson + exponential fits
    "export": Workload("intervals",
                       {"efficiency": 0.8, "dark_count_rate_hz": 2e4},
                       via_cli=True),
}

EXPORT_FILES = ("report.json", "events.csv", "gap_histogram.csv")


def build_config(name: str, seed: int, overrides: Optional[dict] = None):
    from qgalton.experiments import config_from_dict

    wl = WORKLOADS[name]
    return config_from_dict(wl.experiment, overrides or wl.overrides,
                            seed=seed)


@dataclass
class Outcome:
    """One run: wall time, report, its canonical bytes, and check failures."""

    seed: int
    seconds: float = math.nan
    ref_seconds: float = math.nan
    report: Optional[dict] = None
    sha256: Optional[str] = None
    csv_bytes: int = 0
    failures: list = field(default_factory=list)

    def counts(self) -> dict:
        """Deterministic counts read from the report and written files."""
        if self.report is None:
            return {}
        out = {"photons": self.report["n_emitted"],
               **{f"decoded_{k}": v
                  for k, v in self.report["decode_flags"].items()}}
        if "n_clicks" in self.report:
            out["clicks"] = self.report["n_clicks"]
        if self.csv_bytes:
            out["csv_bytes"] = self.csv_bytes
        return out


def _check(name: str, report: dict) -> list[str]:
    bad = []
    if name == "fringe":
        # the t2 standard error at ~10^4 photons is ~1e-3
        err = abs(report["fit"]["estimate"] - report["reference_t_squared"])
        if not err < 0.01:
            bad.append(f"t2 fit {report['fit']['estimate']!r} is {err:.4f} "
                       "from the reference")
    elif name == "saturation":
        mean = report["sample_mean"]
        if not mean < report["config"]["mean_photon_number"]:
            bad.append(f"registered mean {mean!r} is not below the emitted mean")
        # dead time makes registered counts sub-Poisson: variance/mean is
        # ~0.91 +- 0.02 here, so a ratio of 1 or more means no dead time
        if not report["sample_variance"] < mean:
            bad.append("registered counts are not sub-Poisson: variance "
                       f"{report['sample_variance']!r} >= mean {mean!r}")
    elif name == "export":
        for key, value in (("interval fit", report["interval_fit_ns"]["estimate"]),
                           ("count fit", report["count_fit"]["estimate"])):
            if not (math.isfinite(value) and value > 0.0):
                bad.append(f"{key} estimate {value!r} is not finite and positive")
    return bad


class Runner:
    """Runs one workload seed by seed; files go under ``tmp``.

    ``overrides`` replaces the workload's config overrides (the self-test
    shrinks the runs with it).  With ``sample`` each run's wall time is also
    stated in reference seconds (speed.py).
    """

    def __init__(self, name: str, tmp: str, overrides: Optional[dict] = None,
                 sample: bool = True):
        self.name = name
        self.tmp = tmp
        self.sampler = speed.Sampler() if sample else None
        self.overrides = overrides or WORKLOADS[name].overrides
        self.config_path = os.path.join(tmp, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.overrides, fh)

    def run(self, seed: int) -> Outcome:
        import qgalton.experiments

        out = Outcome(seed)
        try:
            if WORKLOADS[self.name].via_cli:
                text = self._run_cli(seed, out)
            else:
                config = build_config(self.name, seed, self.overrides)
                with self._clock(out):
                    result = qgalton.experiments.run_experiment(config)
                    text = qgalton.experiments.render_report(result.report)
            if text is None:
                return out
            out.report = json.loads(text)
            out.sha256 = hashlib.sha256(text.encode()).hexdigest()
            out.failures += _check(self.name, out.report)
        except Exception as exc:  # a crashing run is a failed run, not a crash
            out.failures.append(f"{type(exc).__name__}: {exc}")
        return out

    @contextlib.contextmanager
    def _clock(self, out: Outcome):
        gc.collect()
        if self.sampler:
            self.sampler.start()
        start = time.perf_counter()
        try:
            yield
        finally:
            out.seconds = time.perf_counter() - start
            if self.sampler:
                self.sampler.stop()
                out.ref_seconds = self.sampler.reference_s(out.seconds)

    def _run_cli(self, seed: int, out: Outcome) -> Optional[str]:
        import qgalton.cli

        out_dir = os.path.join(self.tmp, f"out-{seed}")
        argv = ["run", WORKLOADS[self.name].experiment,
                "--config", self.config_path, "--seed", str(seed),
                "--out", out_dir, "--format", "csv"]
        stdout = io.StringIO()
        with self._clock(out), contextlib.redirect_stdout(stdout):
            code = qgalton.cli.main(argv)
        try:
            if code != 0:
                out.failures.append(f"cli exit code {code}")
                return None
            missing = [f for f in EXPORT_FILES
                       if not os.path.isfile(os.path.join(out_dir, f))]
            if missing:
                out.failures.append(f"missing outputs: {', '.join(missing)}")
                return None
            with open(os.path.join(out_dir, "report.json")) as fh:
                text = fh.read()
            if stdout.getvalue() != text:
                out.failures.append("stdout differs from report.json")
            out.csv_bytes = sum(
                os.path.getsize(os.path.join(out_dir, f))
                for f in os.listdir(out_dir) if f.endswith(".csv"))
            return text
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
