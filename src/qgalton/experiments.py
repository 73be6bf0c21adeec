"""End-to-end experiment runs: source through mesh, detector, readout, fits.

Each run is specified by a JSON-friendly config (times in nanoseconds,
rates in Hz), simulated in one pass and decoded from the shared readout
line back into events.  Each acquisition window draws its random numbers
from its own stream (`source.window_rng`); everything else, from bin
assignment through the detector to the readout, runs once over the whole
run.  All reported statistics come from the decoded events; the emitted
photons ride along as a truth channel for validation.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass
from typing import Optional, get_args, get_type_hints

import numpy as np

from .detector import (
    DetectionRecords,
    DetectorConfig,
    DetectorDraws,
    detect,
)
from .errors import (
    ConfigError,
    DegenerateFitError,
    InvalidArgumentError,
    ResourceLimitError,
)
from .readout import (
    DEFAULT_TOLERANCE,
    FLAG_TEXT,
    MAX_TRACE_TIME,
    DecodedEvents,
    LineConfig,
    TraceEvents,
    decode,
    encode,
    flag_summary,
    persistence_trace,
)
from .source import (
    SEED_MAX,
    assign_bins,
    sample_arrivals,
    t2_of_wavelength,
    window_rng,
)
from .stats import (
    MAX_BOOTSTRAP_CELLS,
    MIN_BOOTSTRAP,
    T2_GRID_POINTS,
    check_bootstrap_size,
    chi_square_gof,
    fit_exponential,
    fit_poisson,
    fit_t2,
    gap_histogram,
    mean_consistency,
    poisson_pmf,
)
from .walk import (
    MAX_STAGES,
    bin_probabilities,
    check_input_port,
    check_stages,
    check_t_squared,
)

EXPERIMENTS = ("interference", "counting", "intervals", "persistence")

# per-experiment defaults layered over the field defaults
_EXPERIMENT_DEFAULTS = {
    "interference": {"wavelength_nm": 1550.0},
    "counting": {"mean_photon_number": 4.0, "wavelength_nm": 1550.0},
    "intervals": {"mean_photon_number": 4.0, "wavelength_nm": 1550.0},
    # the persistence demo runs a balanced coupler so every output bin
    # carries enough probability to light up its peak
    "persistence": {"t_squared": 0.5},
}
# hard bounds on the size of a run, checked before anything is simulated:
# the draw loop is one Python step per window, and every expected photon or
# dark count (or persistence histogram bin) is a row of the run's arrays
MAX_WINDOWS = 1_000_000
MAX_EXPECTED_COUNTS = 8_000_000
# decode pairs pulses within DEFAULT_TOLERANCE (seconds), which must stay
# under half a segment delay to tell neighbouring pixels apart
_MIN_SEGMENT_DELAY_NS = 2.0 * DEFAULT_TOLERANCE * 1e9
# the largest segment delay (ns) and amplitude: decode-trace's slot times
# and a run's sums of amplitudes stay finite; the smallest window is still
# above 0 in seconds.  A run's timeline bounds its window and jitter
_LARGEST = 1e300
# rows of a CSV table formatted and written at a time
_CSV_BLOCK_ROWS = 2**14
# The bound of every run-config key, written once, and checked where input
# enters, by `check_value`: for each key of a run config and each CLI option
# that sets one, so the components take what they are given.  An entry is
# (test, what it allows), or a walk or source check that their API callers
# reach directly, whose message names the key.  Numbers must be finite.
_BOUNDS = {
    "stages": check_stages,
    "windows": (lambda v: v >= 1, ">= 1"),
    "mean_photon_number": (lambda v: v >= 0.0, ">= 0"),
    "window_ns": (lambda v: v >= 1e-300, ">= 1e-300"),
    "input_port": check_input_port,
    "seed": (lambda v: 0 <= v <= SEED_MAX, "an unsigned 64-bit integer"),
    "pixel_count": (lambda v: v >= 1, ">= 1"),
    "efficiency": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "dead_time_ns": (lambda v: v >= 0.0, ">= 0"),
    "jitter_sigma_ns": (lambda v: v >= 0.0, ">= 0"),
    "dark_count_rate_hz": (lambda v: v >= 0.0, ">= 0"),
    "segment_delay_ns": (lambda v: _MIN_SEGMENT_DELAY_NS < v <= _LARGEST,
                         f"in ({_MIN_SEGMENT_DELAY_NS:g}, 1e300], over twice "
                         "the decode tolerance"),
    "attenuation_per_segment": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "base_amplitude": (lambda v: 0.0 < v <= _LARGEST, "in (0, 1e300]"),
    "trigger_polarity": (lambda v: v in ("negative", "positive"),
                         "negative or positive"),
    "n_bootstrap": (lambda v: v >= MIN_BOOTSTRAP, f">= {MIN_BOOTSTRAP}"),
    "bin_width_ns": (lambda v: v > 0.0, "positive"),
    "min_cluster": (lambda v: v >= 1, ">= 1 or null"),
    "wavelength_nm": t2_of_wavelength,
    "t_squared": check_t_squared,
}
# past these a request is too large to serve (stages has its own): no fit's
# bootstrap table has under one column, and a run's has fit_t2's 513
_LIMITS = {"windows": MAX_WINDOWS, "pixel_count": 2 * MAX_STAGES,
           "n_bootstrap": MAX_BOOTSTRAP_CELLS}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one run.  Times here are still in the JSON
    units (nanoseconds); the accessor methods convert to seconds.  Every
    field but the experiment is a config key, with its default here."""

    experiment: str
    stages: int = 8
    windows: int = 10_000
    mean_photon_number: float = 1.0
    window_ns: float = 2000.0
    input_port: str = "left"
    seed: int = 0
    pixel_count: int = 16
    efficiency: float = 1.0
    dead_time_ns: float = 20.0
    jitter_sigma_ns: float = 0.05
    dark_count_rate_hz: float = 0.0
    segment_delay_ns: float = 0.9
    attenuation_per_segment: float = 0.97
    base_amplitude: float = 1.0
    trigger_polarity: str = "negative"
    n_bootstrap: int = 500
    bin_width_ns: float = 0.1
    min_cluster: Optional[int] = None
    wavelength_nm: Optional[float] = None
    t_squared: Optional[float] = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; expected one of "
                f"{', '.join(EXPERIMENTS)}"
            )
        if self.pixel_count != 2 * self.stages:
            raise ConfigError(
                f"pixel_count ({self.pixel_count}) must equal twice the "
                f"stage count ({2 * self.stages}): one pixel per output bin"
            )
        if (self.wavelength_nm is None) == (self.t_squared is None):
            raise ConfigError(
                "exactly one of wavelength_nm and t_squared must be set"
            )
        for key in _KNOWN_KEYS:
            check_value(key, getattr(self, key), None)
        # the far-end pulse is the weakest; decode refuses a zero amplitude
        if self.base_amplitude * self.attenuation_per_segment ** (
                self.pixel_count - 1) == 0.0:
            raise ConfigError(
                "base_amplitude * attenuation_per_segment ** (pixel_count - 1)"
                f" underflows to 0.0 at {self.base_amplitude} and "
                f"{self.attenuation_per_segment}")
        # decode refuses trace times past MAX_TRACE_TIME.  A run's clicks lie
        # in its windows, moved by jitter, and its pulses up to a line span
        # later; numpy's normals stay under 14 sigma (the ziggurat tail is
        # r - log1p(-u) / r, r = 3.65, u a 53-bit double), so 64 sigma holds
        # the jitter, and 2**-40 of the reach the roundings to seconds
        reach = (self.windows * self.window_ns + 64.0 * self.jitter_sigma_ns
                 + (self.pixel_count - 1) * self.segment_delay_ns)
        if reach * (1.0 + 2.0**-40) > MAX_TRACE_TIME * 1e9:
            raise ConfigError(
                f"windows * window_ns + 64 * jitter_sigma_ns + (pixel_count - "
                f"1) * segment_delay_ns = {reach:g} ns passes the trace time "
                f"bound, {MAX_TRACE_TIME * 1e9:g} ns")
        self._check_size()

    def _check_size(self) -> None:
        """Refuse, with ResourceLimitError, runs too large to serve."""
        photons = self.windows * self.mean_photon_number
        if photons > MAX_EXPECTED_COUNTS:
            raise ResourceLimitError(
                f"windows * mean_photon_number = {photons:g} expected "
                f"photons: limit is {MAX_EXPECTED_COUNTS}")
        darks = (self.dark_count_rate_hz * self.window_ns * 1e-9
                 * self.pixel_count * self.windows)
        if darks > MAX_EXPECTED_COUNTS:
            raise ResourceLimitError(
                f"dark_count_rate_hz={self.dark_count_rate_hz:g} gives "
                f"{darks:g} expected dark counts: limit is "
                f"{MAX_EXPECTED_COUNTS}")
        # the persistence histogram spans the line's reach either side
        bins = 2 * (self.pixel_count + 1) * (self.segment_delay_ns
                                             / self.bin_width_ns)
        if self.experiment == "persistence" and bins > MAX_EXPECTED_COUNTS:
            raise ResourceLimitError(
                f"segment_delay_ns and bin_width_ns give {bins:g} persistence"
                f" bins: limit is {MAX_EXPECTED_COUNTS}")
        # each fit checks its own table again; fit_t2's grid scan is the
        # widest any run builds short of hundreds of counts per window
        check_bootstrap_size(self.n_bootstrap, T2_GRID_POINTS)

    @property
    def window(self) -> float:
        return self.window_ns * 1e-9

    def resolved_t2(self) -> float:
        if self.t_squared is not None:
            return float(self.t_squared)
        return t2_of_wavelength(self.wavelength_nm)

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


_FIELD_TYPES = get_type_hints(ExperimentConfig)
_KNOWN_KEYS = [key for key in _FIELD_TYPES if key != "experiment"]
# bool is an int subclass, so it is refused explicitly below
_ACCEPTED = {int: (numbers.Integral, "an integer"),
             float: (numbers.Real, "a number"),
             str: (str, "a string")}


def key_type(key: str) -> type:
    """The type of config key ``key``'s values: int, float or str."""
    hint = _FIELD_TYPES[key]
    return (get_args(hint) or (hint,))[0]  # Optional[X] -> X


def check_value(key: str, value, option: Optional[str]) -> None:
    """Refuse, with ConfigError or past a size limit ResourceLimitError, a
    ``value`` not of ``key``'s type or out of its bound, naming it and
    ``option`` if given.  None passes where the key is optional."""
    if value is None and type(None) in get_args(_FIELD_TYPES[key]):
        return
    kinds, what = _ACCEPTED[key_type(key)]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"config field {key} must be {what}, got {value!r}")
    name = key if option is None else f"{option} ({key})"
    if kinds is numbers.Real:
        # an integer is stored as given, but a float field must hold it
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise ConfigError(f"config field {key} must fit in a float, got "
                              f"a {len(str(abs(value)))}-digit integer") from None
        if not finite:
            raise ConfigError(f"{name} must be finite, got {value}")
    bound = _BOUNDS[key]
    if callable(bound):
        try:
            bound(value)
        except InvalidArgumentError as exc:
            raise ConfigError(str(exc)) from None
        return
    test, allowed = bound
    if not test(value):
        raise ConfigError(f"{name} must be {allowed}, got {value!r}")
    limit = _LIMITS.get(key)
    if limit is not None and value > limit:
        raise ResourceLimitError(f"{name} is {value}: the limit is {limit}")


def config_from_dict(experiment: str, data: Optional[dict] = None,
                     seed: Optional[int] = None) -> ExperimentConfig:
    """Merge a user config over the experiment's defaults and validate."""
    data = dict(data or {})
    unknown = set(data).difference(_KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in data.items():
        check_value(key, value, None)

    user_wl = data.pop("wavelength_nm", None)
    user_t2 = data.pop("t_squared", None)
    if user_wl is not None and user_t2 is not None:
        raise ConfigError("set wavelength_nm or t_squared, not both")

    merged = {**_EXPERIMENT_DEFAULTS.get(experiment, {}), **data}
    if user_wl is not None:
        merged["wavelength_nm"], merged["t_squared"] = float(user_wl), None
    elif user_t2 is not None:
        merged["wavelength_nm"], merged["t_squared"] = None, float(user_t2)
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
    trace: TraceEvents            # encoded pulse train
    decoded: DecodedEvents        # decoder output


def _draw_windows(config: ExperimentConfig, det: DetectorConfig):
    """Every random draw of a run, window by window.

    Each window has its own stream and draws from it, in this order: its
    photon count n; n arrival times, n bin uniforms and, below unit
    efficiency, n efficiency uniforms, as one draw of consecutive doubles;
    at a dark rate above 0, its dark count d, then d dark times and d dark
    pixels; last, with jitter on, one standard normal per photon and per
    dark count.  A draw of size 0 takes nothing from the stream, so it is
    not made.  One generator serves the whole run, re-keyed to each
    window's stream in turn.

    Each draw is written in place, through ``out=``, at the end of one
    buffer per kind: photon uniforms, dark times and jitter normals.  A
    buffer starts with room for its expected count and a margin
    (`_capacity`) and grows only past it.  The dark times and normals are
    then in window order as they stand; the photon uniforms are split
    into their parts by one gather each.  The parts are scaled once over
    the run: ``uniform(0, window)`` is ``0 + window * u`` and
    ``normal(0, sigma)`` is ``0 + sigma * z`` on the same doubles.
    Returns the photons' in-window arrival times, the photon count of each
    window, the bin uniforms and the detector draws.
    """
    mean, window, seed = config.mean_photon_number, config.window, config.seed
    n_windows = config.windows
    thin = det.efficiency < 1.0
    parts = 3 if thin else 2
    darks = det.dark_count_rate > 0.0
    mean_darks = det.dark_count_rate * window * det.pixel_count
    jitter = det.jitter_sigma > 0.0
    uniforms = np.empty(parts * _capacity(n_windows * mean))
    dark_times = np.empty(_capacity(n_windows * mean_darks) if darks else 0)
    normals = np.empty(_capacity(n_windows * (mean + mean_darks))
                       if jitter else 0)
    photons, dark_counts, dark_pixels = [], [], []
    at = dark_at = normal_at = 0  # the used length of each buffer
    rng = None
    for w in range(n_windows):
        rng = window_rng(seed, w, rng)
        n = int(rng.poisson(mean))
        if n:
            end = at + parts * n
            if end > uniforms.size:
                uniforms = _grown(uniforms, at, end)
            rng.random(out=uniforms[at:end])
            at = end
        d = 0
        if darks:
            d = int(rng.poisson(mean_darks))
            if d:
                end = dark_at + d
                if end > dark_times.size:
                    dark_times = _grown(dark_times, dark_at, end)
                rng.random(out=dark_times[dark_at:end])
                dark_at = end
                # d scalar draws give the values of one size-d draw, and
                # for one or two skip its size handling, which costs more
                dark_pixels.extend(
                    [int(rng.integers(0, det.pixel_count)) for _ in range(d)]
                    if d < 3 else
                    rng.integers(0, det.pixel_count, size=d).tolist())
        if jitter and n + d:
            end = normal_at + n + d
            if end > normals.size:
                normals = _grown(normals, normal_at, end)
            rng.standard_normal(out=normals[normal_at:end])
            normal_at = end
        photons.append(n)
        dark_counts.append(d)

    photons = np.array(photons, dtype=np.int64)
    dark_counts = np.array(dark_counts, dtype=np.int64)
    # photon i of window w, after before[w] photons of earlier windows,
    # has its arrival time at i + (parts - 1) * before[w] and each further
    # part the window's n doubles on.  The steps are made again for each
    # part rather than kept, which holds a saturated run's peak lower
    before = np.cumsum(photons) - photons
    index = np.repeat((parts - 1) * before, photons)
    del before
    index += np.arange(index.size)
    arrivals = uniforms[index]
    index += np.repeat(photons, photons)
    bin_uniforms = uniforms[index]
    # a fresh empty array: a view would keep the uniforms alive
    keep = np.empty(0)
    if thin:
        index += np.repeat(photons, photons)
        keep = uniforms[index]
    del uniforms, index
    arrivals *= window
    dark_times = dark_times[:dark_at]
    dark_times *= window
    normals = normals[:normal_at]
    normals *= det.jitter_sigma
    draws = DetectorDraws(
        keep=keep, dark_counts=dark_counts, dark_times=dark_times,
        dark_pixels=np.array(dark_pixels, dtype=np.int64),
        jitter_counts=(photons + dark_counts) * jitter, jitter=normals)
    return arrivals, photons, bin_uniforms, draws


def _capacity(expected: float) -> int:
    """A buffer length for a Poisson count of mean ``expected``: five
    standard deviations over the mean, which a run's count passes about
    once in three million runs."""
    return int(expected + 5.0 * math.sqrt(expected)) + 1


def _grown(values: np.ndarray, used: int, needed: int) -> np.ndarray:
    """A new buffer of max(needed, 2 * values.size) doubles whose first
    ``used`` are those of ``values``."""
    grown = np.empty(max(needed, 2 * values.size))
    grown[:used] = values[:used]
    return grown


def simulate_stream(config: ExperimentConfig) -> SimulatedStream:
    """Run every window through source, mesh, detector, and readout.

    The random draws are made window by window; all other work runs once
    over the whole run.
    """
    probs = bin_probabilities(config.stages, config.resolved_t2(),
                              config.input_port)
    det = config.detector_config()
    line = config.line_config()

    arrivals, counts, bin_uniforms, draws = _draw_windows(config, det)
    times, windows = sample_arrivals(arrivals, counts, config.window)
    bins = assign_bins(probs, bin_uniforms)
    records = detect(times, bins, windows, det, draws, config.window)
    del arrivals, bin_uniforms, draws
    trace = encode(records, line)
    decoded = decode(trace, line)
    return SimulatedStream(
        truth_pixels=bins,
        truth_times=times,
        truth_windows=windows,
        records=records,
        trace=trace,
        decoded=decoded,
    )


@dataclass
class ExperimentOutput:
    """A JSON-ready report plus named tables for CSV output.

    Each table is ``(header, columns)``: a list of column names and as many
    equal-length 1-D arrays.  Cells become text only in ``write_outputs``.
    """

    report: dict
    tables: dict


def _decoded_ok(stream: SimulatedStream):
    dec = stream.decoded
    ok = np.flatnonzero(dec.ok)
    return dec.pixels[ok], dec.origin_times[ok]


def _window_index(times, window: float, n_windows: int) -> np.ndarray:
    """Window of each time, clipped into the run; -1 where the time is NaN."""
    win = np.clip(times // window, 0, n_windows - 1)
    return np.where(np.isnan(win), -1, win).astype(np.int64)


def _events_table(stream: SimulatedStream, window: float, n_windows: int):
    dec = stream.decoded
    return (["window_index", "pixel", "origin_time_ns", "flag"],
            [_window_index(dec.origin_times, window, n_windows),
             dec.pixels, dec.origin_times * 1e9, FLAG_TEXT[dec.flags]])


def _truth_table(stream: SimulatedStream):
    return (["window_index", "bin", "time_ns"],
            [stream.truth_windows, stream.truth_pixels,
             stream.truth_times * 1e9])


def run_interference(config: ExperimentConfig,
                     stream: SimulatedStream) -> ExperimentOutput:
    """Accumulate the output fringe and fit the coupler transmission."""
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
        "n_clicks": len(stream.records),
        "n_decoded_ok": int(decoded_hist.sum()),
        "decoded_histogram": decoded_hist.tolist(),
        "truth_histogram": truth_hist.tolist(),
        "reference_t_squared": reference,
        "model_at_reference": model_ref.tolist(),
        "fit": asdict(fit),
        "gof_at_fit": asdict(gof),
    }
    tables = {
        "histogram": (
            ["bin", "decoded_count", "truth_count", "model_probability"],
            [np.arange(n_bins), decoded_hist, truth_hist, model_ref]),
        "events": _events_table(stream, config.window, config.windows),
        "truth_events": _truth_table(stream),
    }
    return ExperimentOutput(report=report, tables=tables)


def _window_counts(events, stream: SimulatedStream, n_windows: int):
    """Decoded ok events per window, off the events table's window column."""
    return np.bincount(events[1][0][stream.decoded.ok], minlength=n_windows)


def run_counting(config: ExperimentConfig,
                 stream: SimulatedStream) -> ExperimentOutput:
    """Per-window count statistics against the Poisson model."""
    events = _events_table(stream, config.window, config.windows)
    counts = _window_counts(events, stream, config.windows)
    truth_counts = np.bincount(stream.truth_windows, minlength=config.windows)

    fit = fit_poisson(counts, n_bootstrap=config.n_bootstrap, seed=config.seed)
    kmax = int(counts.max())
    hist = np.bincount(counts, minlength=kmax + 1)
    pmf = poisson_pmf(np.arange(kmax + 1), fit.estimate)
    gof = chi_square_gof(hist, pmf, n_fitted=1)

    report = {
        "n_decoded_ok": int(counts.sum()),
        "count_histogram": hist.tolist(),
        "sample_mean": float(counts.mean()),
        "sample_variance": float(counts.var(ddof=1)),
        "truth_mean": float(truth_counts.mean()),
        "fit": asdict(fit),
        "gof": asdict(gof),
    }
    tables = {
        "window_counts": (
            ["window_index", "decoded_count", "truth_count"],
            [np.arange(config.windows), counts, truth_counts]),
        "count_histogram": (
            ["count", "windows", "model_probability"],
            [np.arange(kmax + 1), hist, pmf]),
        "events": events,
    }
    return ExperimentOutput(report=report, tables=tables)


def run_intervals(config: ExperimentConfig,
                  stream: SimulatedStream) -> ExperimentOutput:
    """Inter-arrival statistics and the count-rate consistency check."""
    # decode returns its rows in origin order, so the times are sorted
    _, times = _decoded_ok(stream)
    gaps = np.diff(times)

    interval_fit = fit_exponential(gaps, n_bootstrap=config.n_bootstrap,
                                   seed=config.seed)
    events = _events_table(stream, config.window, config.windows)
    counts = _window_counts(events, stream, config.windows)
    count_fit = fit_poisson(counts, n_bootstrap=config.n_bootstrap,
                            seed=config.seed)
    consistency = mean_consistency(count_fit, interval_fit, config.window)

    # goodness of fit on the same binning the fit used
    edges, binned, masses = gap_histogram(gaps, interval_fit.estimate)
    gof = chi_square_gof(binned, masses, n_fitted=1)

    report = {
        "n_decoded_ok": int(times.size),
        "n_gaps": int(gaps.size),
        "mean_gap_ns": float(gaps.mean()) * 1e9,
        "interval_fit_ns": {
            **asdict(interval_fit),
            "estimate": interval_fit.estimate * 1e9,
            "ci_low": interval_fit.ci_low * 1e9,
            "ci_high": interval_fit.ci_high * 1e9,
            "mle": interval_fit.mle * 1e9,
        },
        "count_fit": asdict(count_fit),
        "consistency": asdict(consistency),
        "gof": asdict(gof),
    }
    centers = 0.5 * (edges[:-1] + edges[1:])
    tables = {
        "gap_histogram": (["gap_ns", "count", "model_mass"],
                          [centers * 1e9, binned[:-1], masses[:-1]]),
        "events": events,
    }
    return ExperimentOutput(report=report, tables=tables)


def run_persistence(config: ExperimentConfig,
                    stream: SimulatedStream) -> ExperimentOutput:
    """Overlay the readout line on itself and report the peak comb."""
    line = config.line_config()
    res = persistence_trace(stream.trace, line,
                            bin_width=config.bin_width_ns * 1e-9,
                            min_cluster=config.min_cluster)
    delays, amps = res.peak_delays, res.peak_amplitudes
    spacing = np.diff(delays)
    model = bin_probabilities(config.stages, config.resolved_t2(),
                              config.input_port)
    # peaks are ordered by delay; pixel index runs opposite to delay
    peak_pixels = line.pixel_of(delays).astype(int)

    report = {
        "n_triggers": res.n_triggers,
        "n_overlaid": res.n_overlaid,
        "n_peaks": delays.size,
        "peak_delays_ns": (delays * 1e9).tolist(),
        "peak_spacings_ns": (spacing * 1e9).tolist(),
        "peak_amplitudes": amps.tolist(),
        "peak_weights": res.peak_weights.tolist(),
        "peak_pixels": peak_pixels.tolist(),
        "amplitudes_strictly_decreasing": bool(np.all(np.diff(amps) < 0)),
        "model_probabilities": model.tolist(),
    }
    # an empty cell where a delay bin holds no pulses
    mean_amplitude = res.mean_amplitudes.astype(object)
    mean_amplitude[res.bin_counts == 0] = ""
    tables = {
        "peaks": (
            ["delay_ns", "pixel", "amplitude", "count", "weight"],
            [delays * 1e9, peak_pixels, amps, res.peak_counts,
             res.peak_weights],
        ),
        "persistence": (
            ["delay_ns", "count", "mean_amplitude"],
            [0.5 * (res.bin_edges[:-1] + res.bin_edges[1:]) * 1e9,
             res.bin_counts, mean_amplitude],
        ),
        "trace": (["time_ns", "amplitude"],
                  [stream.trace.times * 1e9, stream.trace.amplitudes]),
    }
    return ExperimentOutput(report=report, tables=tables)


_RUNNERS = {
    "interference": run_interference,
    "counting": run_counting,
    "intervals": run_intervals,
    "persistence": run_persistence,
}


def run_experiment(config: ExperimentConfig) -> ExperimentOutput:
    """Simulate the run, then analyse it as its experiment does.

    A valid config can still leave too few decoded events for the fits and
    the chi-square test; that is reported as a ConfigError naming the
    fields that set the sample size.
    """
    stream = simulate_stream(config)
    try:
        output = _RUNNERS[config.experiment](config, stream)
    except (InvalidArgumentError, DegenerateFitError) as exc:
        raise ConfigError(
            f"{config.experiment} statistics failed on {config.windows} "
            f"windows ({exc}): raise windows, or the detected rate "
            f"mean_photon_number * efficiency (now "
            f"{config.mean_photon_number:g} * {config.efficiency:g})"
        ) from exc
    # the header every report shares; each runner adds its own fields
    output.report.update(experiment=config.experiment, config=asdict(config),
                         n_emitted=int(stream.truth_pixels.size),
                         decode_flags=flag_summary(stream.decoded.flags))
    return output


def render_report(report: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, one newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _csv_blocks(header: list, columns: list):
    """CSV text of one table: the header line, then blocks of up to
    _CSV_BLOCK_ROWS lines, so memory stays bounded by one block.  Each cell
    is ``str`` of the column item as a Python scalar, so a float prints as
    its repr and text as itself.  A block is one ``%`` format of its cells
    laid out row by row, which formats them without a Python call per row.
    """
    yield ",".join(header) + "\n"
    width = len(columns)
    row = ",".join(["%s"] * width) + "\n"
    for start in range(0, columns[0].size, _CSV_BLOCK_ROWS):
        block = [col[start:start + _CSV_BLOCK_ROWS].tolist() for col in columns]
        rows = len(block[0])
        cells = [None] * (width * rows)
        for j, values in enumerate(block):
            cells[j::width] = values
        yield row * rows % tuple(cells)


def write_outputs(output: ExperimentOutput, out_dir: Optional[str],
                  fmt: str = "json") -> list[str]:
    """Write report.json (always) and the tables (csv format only).

    Each ``(header, columns)`` table becomes ``<name>.csv``; its cells are
    turned into text here and nowhere else.  Returns the list of paths
    written, report.json first.  A None out_dir writes nothing, which is
    how library callers skip disk output.
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
        for name, (header, columns) in output.tables.items():
            path = os.path.join(out_dir, f"{name}.csv")
            with open(path, "w") as fh:
                fh.writelines(_csv_blocks(header, columns))
            written.append(path)
    return written
