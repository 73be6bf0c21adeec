"""End-to-end experiment runs: source through mesh, detector, readout, fits.

Each run is specified by a JSON-friendly config (times in nanoseconds,
rates in Hz), simulated window by window on independent random streams,
then decoded from the shared readout line back into events.  All reported
statistics come from the decoded events; the emitted photons ride along as
a truth channel for validation.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import asdict, dataclass
from typing import Optional, get_args, get_type_hints

import numpy as np

from .detector import DetectionRecords, DetectorConfig, detect
from .errors import ConfigError
from .readout import (
    FLAG_NAMES,
    LineConfig,
    decode,
    encode,
    persistence_trace,
)
from .source import (
    SourceConfig,
    assign_bins,
    sample_arrivals,
    t2_of_wavelength,
    window_rng,
)
from .stats import (
    chi_square_gof,
    fit_exponential,
    fit_poisson,
    fit_t2,
    mean_consistency,
)
from .walk import bin_probabilities

EXPERIMENTS = ("interference", "counting", "intervals", "persistence")

# per-experiment defaults layered under the user's config
_BASE_DEFAULTS = {
    "stages": 8,
    "windows": 10_000,
    "mean_photon_number": 1.0,
    "window_ns": 2000.0,
    "input_port": "left",
    "seed": 0,
    "pixel_count": 16,
    "efficiency": 1.0,
    "dead_time_ns": 20.0,
    "jitter_sigma_ns": 0.05,
    "dark_count_rate_hz": 0.0,
    "segment_delay_ns": 0.9,
    "attenuation_per_segment": 0.97,
    "base_amplitude": 1.0,
    "trigger_polarity": "negative",
    "n_bootstrap": 500,
    "bin_width_ns": 0.1,
    "min_cluster": None,
}
_EXPERIMENT_DEFAULTS = {
    "interference": {"wavelength_nm": 1550.0},
    "counting": {"mean_photon_number": 4.0, "wavelength_nm": 1550.0},
    "intervals": {"mean_photon_number": 4.0, "wavelength_nm": 1550.0},
    # the persistence demo runs a balanced coupler so every output bin
    # carries enough probability to light up its peak
    "persistence": {"t_squared": 0.5},
}
_KNOWN_KEYS = set(_BASE_DEFAULTS) | {"wavelength_nm", "t_squared"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one run.  Times here are still in the JSON
    units (nanoseconds); the accessor methods convert to seconds."""

    experiment: str
    stages: int
    windows: int
    mean_photon_number: float
    window_ns: float
    input_port: str
    seed: int
    pixel_count: int
    efficiency: float
    dead_time_ns: float
    jitter_sigma_ns: float
    dark_count_rate_hz: float
    segment_delay_ns: float
    attenuation_per_segment: float
    base_amplitude: float
    trigger_polarity: str
    n_bootstrap: int
    bin_width_ns: float
    min_cluster: Optional[int]
    wavelength_nm: Optional[float]
    t_squared: Optional[float]

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; expected one of "
                f"{', '.join(EXPERIMENTS)}"
            )
        if self.stages < 1:
            raise ConfigError(f"stages must be >= 1, got {self.stages}")
        if self.windows < 1:
            raise ConfigError(f"windows must be >= 1, got {self.windows}")
        if self.pixel_count != 2 * self.stages:
            raise ConfigError(
                f"pixel_count ({self.pixel_count}) must equal twice the "
                f"stage count ({2 * self.stages}): one pixel per output bin"
            )
        if (self.wavelength_nm is None) == (self.t_squared is None):
            raise ConfigError(
                "exactly one of wavelength_nm and t_squared must be set"
            )
        if self.window_ns <= 0.0:
            raise ConfigError(f"window_ns must be positive, got {self.window_ns}")
        if self.n_bootstrap < 10:
            raise ConfigError(
                f"n_bootstrap must be at least 10, got {self.n_bootstrap}"
            )

    @property
    def window(self) -> float:
        return self.window_ns * 1e-9

    def resolved_t2(self) -> float:
        if self.t_squared is not None:
            return float(self.t_squared)
        return t2_of_wavelength(self.wavelength_nm)

    def source_config(self) -> SourceConfig:
        return SourceConfig(
            mean_photon_number=self.mean_photon_number,
            window=self.window,
            wavelength=self.wavelength_nm if self.wavelength_nm else 1550.0,
            seed=self.seed,
        )

    def detector_config(self) -> DetectorConfig:
        return DetectorConfig(
            pixel_count=self.pixel_count,
            efficiency=self.efficiency,
            dead_time=self.dead_time_ns * 1e-9,
            jitter_sigma=self.jitter_sigma_ns * 1e-9,
            dark_count_rate=self.dark_count_rate_hz,
        )

    def line_config(self) -> LineConfig:
        return LineConfig(
            segment_delay=self.segment_delay_ns * 1e-9,
            pixel_count=self.pixel_count,
            attenuation_per_segment=self.attenuation_per_segment,
            base_amplitude=self.base_amplitude,
            trigger_polarity=self.trigger_polarity,
        )

    def to_report_dict(self) -> dict:
        return asdict(self)


_FIELD_TYPES = get_type_hints(ExperimentConfig)
# bool is an int subclass, so it is refused explicitly below
_ACCEPTED = {int: (numbers.Integral, "an integer"),
             float: (numbers.Real, "a number"),
             str: (str, "a string")}


def _check_type(key: str, value) -> None:
    """Raise ConfigError unless ``value`` fits the declared field type."""
    hint = _FIELD_TYPES[key]
    args = get_args(hint)  # Optional[X] -> (X, NoneType)
    if value is None and type(None) in args:
        return
    kinds, name = _ACCEPTED[args[0] if args else hint]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"config field {key} must be {name}, got {value!r}")


def config_from_dict(experiment: str, data: Optional[dict] = None,
                     seed: Optional[int] = None) -> ExperimentConfig:
    """Merge a user config over the experiment's defaults and validate."""
    data = dict(data or {})
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in data.items():
        _check_type(key, value)
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of "
            f"{', '.join(EXPERIMENTS)}"
        )

    user_wl = data.pop("wavelength_nm", None)
    user_t2 = data.pop("t_squared", None)
    if user_wl is not None and user_t2 is not None:
        raise ConfigError("set wavelength_nm or t_squared, not both")

    merged = {**_BASE_DEFAULTS, **_EXPERIMENT_DEFAULTS[experiment], **data}
    if user_wl is not None:
        merged["wavelength_nm"], merged["t_squared"] = float(user_wl), None
    elif user_t2 is not None:
        merged["wavelength_nm"], merged["t_squared"] = None, float(user_t2)
    else:
        merged.setdefault("wavelength_nm", None)
        merged.setdefault("t_squared", None)
    if seed is not None:
        merged["seed"] = int(seed)
    return ExperimentConfig(experiment=experiment, **merged)


def load_config(path: str, experiment: str,
                seed: Optional[int] = None) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return config_from_dict(experiment, data, seed=seed)


@dataclass
class SimulatedStream:
    """Everything one run produces, truth and instrument side by side."""

    truth_pixels: np.ndarray      # emitted photon bins
    truth_times: np.ndarray       # emitted photon times, absolute seconds
    truth_windows: np.ndarray     # emitted photon window indices
    records: DetectionRecords     # detector clicks, absolute times
    trace: "np.ndarray | object"  # encoded pulse train (TraceEvents)
    decoded: "np.ndarray | object"  # decoder output (DecodedEvents)


def simulate_stream(config: ExperimentConfig) -> SimulatedStream:
    """Run every window through source, mesh, detector, and readout."""
    probs = bin_probabilities(config.stages, config.resolved_t2(),
                              config.input_port)
    src = config.source_config()
    det = config.detector_config()
    line = config.line_config()
    window = config.window

    t_pix, t_time, t_win = [], [], []
    r_pix, r_time, r_dark = [], [], []
    for w in range(config.windows):
        rng = window_rng(config.seed, w)
        events = sample_arrivals(src, rng, window_index=w)
        assign_bins(events, probs, rng)
        offset = w * window
        if len(events):
            t_pix.append(events.bins.copy())
            t_time.append(events.times + offset)
            t_win.append(np.full(len(events), w, dtype=np.int64))
        if len(events) == 0 and det.dark_count_rate == 0.0:
            # nothing to detect and no dark draw pending: skipping leaves
            # this window's random stream exactly where detect would
            continue
        rec = detect(events, det, rng, duration=window)
        if len(rec):
            r_pix.append(rec.pixels)
            r_time.append(rec.times + offset)
            r_dark.append(rec.is_dark)

    def cat(parts, dtype):
        return (np.concatenate(parts) if parts
                else np.empty(0, dtype=dtype))

    records = DetectionRecords(
        pixels=cat(r_pix, np.int64),
        times=cat(r_time, float),
        is_dark=cat(r_dark, bool),
    )
    trace = encode(records, line)
    decoded = decode(trace, line)
    return SimulatedStream(
        truth_pixels=cat(t_pix, np.int64),
        truth_times=cat(t_time, float),
        truth_windows=cat(t_win, np.int64),
        records=records,
        trace=trace,
        decoded=decoded,
    )


@dataclass
class ExperimentOutput:
    """A JSON-ready report plus named tables for CSV output."""

    report: dict
    tables: dict


def _flag_summary(decoded) -> dict:
    names = list(FLAG_NAMES)
    counts = np.bincount(decoded.flags, minlength=len(names))
    return {name: int(c) for name, c in zip(names, counts)}


def _decoded_ok(stream: SimulatedStream):
    dec = stream.decoded
    ok = dec.ok
    return dec.pixels[ok], dec.origin_times[ok]


def _events_table(stream: SimulatedStream, window: float, n_windows: int):
    dec = stream.decoded
    rows = []
    for px, t, fl in zip(dec.pixels, dec.origin_times, dec.flags):
        if np.isnan(t):
            win = -1
            t_ns = float("nan")
        else:
            win = int(min(max(t // window, 0), n_windows - 1))
            t_ns = t * 1e9
        rows.append((win, int(px), repr(float(t_ns)), FLAG_NAMES[fl]))
    return ["window_index", "pixel", "origin_time_ns", "flag"], rows


def _truth_table(stream: SimulatedStream):
    rows = [
        (int(w), int(b), repr(float(t * 1e9)))
        for w, b, t in zip(stream.truth_windows, stream.truth_pixels,
                           stream.truth_times)
    ]
    return ["window_index", "bin", "time_ns"], rows


def run_interference(config: ExperimentConfig) -> ExperimentOutput:
    """Accumulate the output fringe and fit the coupler transmission."""
    stream = simulate_stream(config)
    pixels, _ = _decoded_ok(stream)
    n_bins = config.pixel_count
    decoded_hist = np.bincount(pixels, minlength=n_bins)
    truth_hist = np.bincount(stream.truth_pixels, minlength=n_bins)

    fit = fit_t2(decoded_hist, n_bootstrap=config.n_bootstrap,
                 seed=config.seed, input_port=config.input_port)
    model_at_fit = bin_probabilities(config.stages, fit.estimate,
                                     config.input_port)
    gof = chi_square_gof(decoded_hist, model_at_fit, n_fitted=1)
    reference = config.resolved_t2()
    model_ref = bin_probabilities(config.stages, reference, config.input_port)

    report = {
        "experiment": "interference",
        "config": config.to_report_dict(),
        "n_emitted": int(stream.truth_pixels.size),
        "n_clicks": len(stream.records),
        "n_decoded_ok": int(decoded_hist.sum()),
        "decode_flags": _flag_summary(stream.decoded),
        "decoded_histogram": decoded_hist.tolist(),
        "truth_histogram": truth_hist.tolist(),
        "reference_t_squared": reference,
        "model_at_reference": model_ref.tolist(),
        "fit": fit.to_dict(),
        "gof_at_fit": gof.to_dict(),
    }
    tables = {
        "histogram": (
            ["bin", "decoded_count", "truth_count", "model_probability"],
            [(b, int(decoded_hist[b]), int(truth_hist[b]),
              repr(float(model_ref[b]))) for b in range(n_bins)],
        ),
        "events": _events_table(stream, config.window, config.windows),
        "truth_events": _truth_table(stream),
    }
    return ExperimentOutput(report=report, tables=tables)


def _window_counts(stream: SimulatedStream, config: ExperimentConfig):
    _, times = _decoded_ok(stream)
    wins = np.clip((times // config.window).astype(np.int64),
                   0, config.windows - 1)
    return np.bincount(wins, minlength=config.windows)


def run_counting(config: ExperimentConfig) -> ExperimentOutput:
    """Per-window count statistics against the Poisson model."""
    from scipy import stats as sps

    stream = simulate_stream(config)
    counts = _window_counts(stream, config)
    truth_counts = np.bincount(stream.truth_windows, minlength=config.windows)

    fit = fit_poisson(counts, n_bootstrap=config.n_bootstrap, seed=config.seed)
    kmax = int(counts.max())
    hist = np.bincount(counts, minlength=kmax + 1)
    pmf = sps.poisson.pmf(np.arange(kmax + 1), fit.estimate)
    gof = chi_square_gof(hist, pmf, n_fitted=1)

    report = {
        "experiment": "counting",
        "config": config.to_report_dict(),
        "n_emitted": int(stream.truth_pixels.size),
        "n_decoded_ok": int(counts.sum()),
        "decode_flags": _flag_summary(stream.decoded),
        "count_histogram": hist.tolist(),
        "sample_mean": float(counts.mean()),
        "sample_variance": float(counts.var(ddof=1)),
        "truth_mean": float(truth_counts.mean()),
        "fit": fit.to_dict(),
        "gof": gof.to_dict(),
    }
    tables = {
        "window_counts": (
            ["window_index", "decoded_count", "truth_count"],
            [(w, int(counts[w]), int(truth_counts[w]))
             for w in range(config.windows)],
        ),
        "count_histogram": (
            ["count", "windows", "model_probability"],
            [(k, int(hist[k]), repr(float(pmf[k]))) for k in range(kmax + 1)],
        ),
        "events": _events_table(stream, config.window, config.windows),
    }
    return ExperimentOutput(report=report, tables=tables)


def run_intervals(config: ExperimentConfig) -> ExperimentOutput:
    """Inter-arrival statistics and the count-rate consistency check."""
    stream = simulate_stream(config)
    _, times = _decoded_ok(stream)
    times = np.sort(times)
    gaps = np.diff(times)

    interval_fit = fit_exponential(gaps, n_bootstrap=config.n_bootstrap,
                                   seed=config.seed)
    counts = _window_counts(stream, config)
    count_fit = fit_poisson(counts, n_bootstrap=config.n_bootstrap,
                            seed=config.seed)
    consistency = mean_consistency(count_fit, interval_fit, config.window)

    # goodness of fit on the same binning the fit used
    mean_gap = float(gaps.mean())
    edges = np.linspace(0.0, 5.0 * mean_gap, 51)
    hist, _ = np.histogram(gaps, bins=edges)
    tail = gaps.size - hist.sum()
    z = np.exp(-edges / interval_fit.estimate)
    masses = np.concatenate([z[:-1] - z[1:], [z[-1]]])
    gof = chi_square_gof(np.concatenate([hist, [tail]]), masses, n_fitted=1)

    report = {
        "experiment": "intervals",
        "config": config.to_report_dict(),
        "n_emitted": int(stream.truth_pixels.size),
        "n_decoded_ok": int(times.size),
        "n_gaps": int(gaps.size),
        "decode_flags": _flag_summary(stream.decoded),
        "mean_gap_ns": mean_gap * 1e9,
        "interval_fit_ns": {
            **interval_fit.to_dict(),
            "estimate": interval_fit.estimate * 1e9,
            "ci_low": interval_fit.ci_low * 1e9,
            "ci_high": interval_fit.ci_high * 1e9,
            "mle": interval_fit.mle * 1e9,
        },
        "count_fit": count_fit.to_dict(),
        "consistency": consistency.to_dict(),
        "gof": gof.to_dict(),
    }
    centers = 0.5 * (edges[:-1] + edges[1:])
    tables = {
        "gap_histogram": (
            ["gap_ns", "count", "model_mass"],
            [(repr(float(c * 1e9)), int(h), repr(float(m)))
             for c, h, m in zip(centers, hist, masses[:-1])],
        ),
        "events": _events_table(stream, config.window, config.windows),
    }
    return ExperimentOutput(report=report, tables=tables)


def run_persistence(config: ExperimentConfig) -> ExperimentOutput:
    """Overlay the readout line on itself and report the peak comb."""
    stream = simulate_stream(config)
    line = config.line_config()
    res = persistence_trace(stream.trace, line,
                            bin_width=config.bin_width_ns * 1e-9,
                            min_cluster=config.min_cluster)
    delays = np.array([p.delay for p in res.peaks])
    amps = np.array([p.amplitude for p in res.peaks])
    weights = np.array([p.weight for p in res.peaks])
    spacing = np.diff(delays) if delays.size > 1 else np.empty(0)
    model = bin_probabilities(config.stages, config.resolved_t2(),
                              config.input_port)
    # peaks are ordered by delay; pixel index runs opposite to delay
    peak_pixels = (np.round(
        ((config.pixel_count - 1) * config.segment_delay_ns * 1e-9 - delays)
        / (2.0 * config.segment_delay_ns * 1e-9)
    ).astype(int) if delays.size else np.empty(0, dtype=int))

    report = {
        "experiment": "persistence",
        "config": config.to_report_dict(),
        "n_emitted": int(stream.truth_pixels.size),
        "n_triggers": res.n_triggers,
        "n_overlaid": res.n_overlaid,
        "n_peaks": len(res.peaks),
        "peak_delays_ns": (delays * 1e9).tolist(),
        "peak_spacings_ns": (spacing * 1e9).tolist(),
        "peak_amplitudes": amps.tolist(),
        "peak_weights": weights.tolist(),
        "peak_pixels": peak_pixels.tolist(),
        "amplitudes_strictly_decreasing": bool(
            np.all(np.diff(amps) < 0)) if amps.size > 1 else True,
        "model_probabilities": model.tolist(),
        "decode_flags": _flag_summary(stream.decoded),
    }
    tables = {
        "peaks": (
            ["delay_ns", "pixel", "amplitude", "count", "weight"],
            [(repr(float(p.delay * 1e9)), int(px), repr(float(p.amplitude)),
              p.count, repr(float(p.weight)))
             for p, px in zip(res.peaks, peak_pixels)],
        ),
        "persistence": (
            ["delay_ns", "count", "mean_amplitude"],
            [(repr(float(0.5 * (res.bin_edges[i] + res.bin_edges[i + 1]) * 1e9)),
              int(res.bin_counts[i]),
              repr(float(res.mean_amplitudes[i]))
              if res.bin_counts[i] else "")
             for i in range(res.bin_counts.size)],
        ),
        "trace": (
            ["time_ns", "amplitude"],
            [(repr(float(t * 1e9)), repr(float(a)))
             for t, a in zip(stream.trace.times, stream.trace.amplitudes)],
        ),
    }
    return ExperimentOutput(report=report, tables=tables)


_RUNNERS = {
    "interference": run_interference,
    "counting": run_counting,
    "intervals": run_intervals,
    "persistence": run_persistence,
}


def run_experiment(config: ExperimentConfig) -> ExperimentOutput:
    return _RUNNERS[config.experiment](config)


def render_report(report: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, one newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_outputs(output: ExperimentOutput, out_dir: Optional[str],
                  fmt: str = "json") -> list[str]:
    """Write report.json (always) and the tables (csv format only).

    Returns the list of paths written.  A None out_dir writes nothing,
    which is how library callers skip disk output.
    """
    if out_dir is None:
        return []
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format must be json or csv, got {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w") as fh:
        fh.write(render_report(output.report))
    written.append(report_path)
    if fmt == "csv":
        for name, (header, rows) in output.tables.items():
            path = os.path.join(out_dir, f"{name}.csv")
            with open(path, "w") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(str(x) for x in row) + "\n")
            written.append(path)
    return written
