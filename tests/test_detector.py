"""Tests for the detector array model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_impl
from qgalton.detector import (
    DetectionRecords,
    DetectorConfig,
    DetectorDraws,
    detect,
)
from qgalton.errors import ConfigError, InvalidArgumentError
from qgalton.experiments import _draw_windows, config_from_dict
from qgalton.source import window_rng


def make_events(times, bins, windows=None):
    """Photon absolute times, bins and window indices (default all 0), as
    arrays."""
    times = np.asarray(times, float)
    windows = np.zeros(times.size) if windows is None else windows
    return times, np.asarray(bins, np.int64), np.asarray(windows, np.int64)


def reference_draws(config, rngs, counts, duration):
    """Each window's draws by reference_impl.detector_draws, window w
    drawing for ``counts[w]`` photons from ``rngs[w]``, and the
    DetectorDraws that hold them: a surviving photon's efficiency value is
    0, a lost one's 1."""
    per_window = [reference_impl.detector_draws(int(n), config, rng, duration)
                  for n, rng in zip(counts, rngs)]
    survive, darks, jitter = zip(*per_window)
    dark = [d for window in darks for d in window]
    draws = DetectorDraws(
        keep=np.where(np.concatenate(survive), 0.0, 1.0),
        dark_counts=np.array([len(d) for d in darks]),
        dark_times=np.array([t for t, _ in dark], dtype=float),
        dark_pixels=np.array([p for _, p in dark], dtype=np.int64),
        jitter_counts=np.array([len(j) for j in jitter]),
        jitter=np.array([x for j in jitter for x in j], dtype=float))
    return draws, per_window


def detect_window(events, config, rng, duration=1.0):
    """One window through the detector: its draws, then the whole-run code."""
    draws, _ = reference_draws(config, [rng], [events[0].size], duration)
    return detect(*events, config, draws, window=duration)


def detect_run(events, config, seed, window):
    """A run's photons through the detector, each window drawing from its
    own stream; returns the records and the per-window draws."""
    counts = np.bincount(events[2], minlength=1)
    draws, per_window = reference_draws(
        config, [window_rng(seed, w) for w in range(counts.size)], counts,
        window)
    return detect(*events, config, draws, window), per_window


def assert_reference(records, events, draws, config, window):
    """The records equal the plain loop of reference_impl over the same
    photons and per-window draws, bit for bit."""
    times, bins, windows = events
    record = []
    for w, (survive, darks, _) in enumerate(draws):
        at = np.flatnonzero(windows == w)
        record += [(times[j], False, w, i, bins[j])
                    for i, j in enumerate(at.tolist()) if survive[i]]
        record += [(t + w * window, True, w, i, p)
                    for i, (t, p) in enumerate(darks)]
    pixels, clicks, is_dark = reference_impl.detect(
        record, [jitter for _, _, jitter in draws], config)
    np.testing.assert_array_equal(records.pixels, pixels)
    np.testing.assert_array_equal(records.times, clicks)
    np.testing.assert_array_equal(records.is_dark, is_dark)


class TestDetectorConfig:
    def test_defaults(self):
        cfg = DetectorConfig()
        assert cfg.pixel_count == 16
        assert cfg.dead_time == pytest.approx(20e-9)
        assert cfg.jitter_sigma == pytest.approx(50e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pixel_count": 0},
            {"efficiency": 1.5},
            {"efficiency": -0.1},
            {"dead_time": -1e-9},
            {"jitter_sigma": -1.0},
            {"dark_count_rate": -5.0},
            {"dead_time": float("nan")},
            {"dead_time": float("inf")},
            {"jitter_sigma": float("nan")},
            {"dark_count_rate": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        # DetectorConfig takes checked values: the run config refuses each
        # of these, in its own units, before a detector is built
        (field, value), = kwargs.items()
        key, scale = {"pixel_count": ("pixel_count", 1),
                      "efficiency": ("efficiency", 1),
                      "dead_time": ("dead_time_ns", 1e9),
                      "jitter_sigma": ("jitter_sigma_ns", 1e9),
                      "dark_count_rate": ("dark_count_rate_hz", 1)}[field]
        with pytest.raises(ConfigError, match=key):
            config_from_dict("counting", {key: value * scale})


class TestDeadTime:
    def cfg(self, **kw):
        base = dict(efficiency=1.0, jitter_sigma=0.0, dark_count_rate=0.0,
                    dead_time=20e-9)
        base.update(kw)
        return DetectorConfig(**base)

    def test_second_click_inside_dead_time_dropped(self):
        ev = make_events([100e-9, 110e-9], [3, 3])
        rec = detect_window(ev, self.cfg(), window_rng(0, 0))
        np.testing.assert_array_equal(rec.times, [100e-9])

    def test_click_exactly_at_recovery_kept(self):
        # gap of exactly one dead time counts as recovered (t starts at 0 so
        # the subtraction is exact in floating point)
        ev = make_events([0.0, 20e-9], [3, 3])
        rec = detect_window(ev, self.cfg(), window_rng(0, 0))
        assert len(rec) == 2

    def test_blocked_photon_does_not_extend_recovery(self):
        # photons at 0, 15, 25 ns on one pixel with 20 ns dead time:
        # the 15 ns photon is blocked and must not reset the clock, so the
        # 25 ns photon is registered
        ev = make_events([0.0, 15e-9, 25e-9], [0, 0, 0])
        rec = detect_window(ev, self.cfg(), window_rng(0, 0))
        np.testing.assert_allclose(rec.times, [0.0, 25e-9])

    def test_pixels_recover_independently(self):
        ev = make_events([100e-9, 105e-9], [2, 9])
        rec = detect_window(ev, self.cfg(), window_rng(0, 0))
        assert len(rec) == 2

    def test_burst_keeps_one_per_dead_time(self):
        # 30 photons in 2 us on one pixel: consecutive keeps are >= 20 ns apart
        rng = window_rng(4, 0)
        times = np.sort(rng.uniform(0, 2e-6, 30))
        rec = detect_window(make_events(times, np.zeros(30)), self.cfg(), rng)
        assert len(rec) < 30
        assert np.all(np.diff(rec.times) >= 20e-9)

    def test_zero_dead_time_keeps_all(self):
        ev = make_events([1e-9, 1.1e-9, 1.2e-9], [5, 5, 5])
        rec = detect_window(ev, self.cfg(dead_time=0.0), window_rng(0, 0))
        assert len(rec) == 3


class TestEfficiency:
    def test_thinning_rate(self):
        cfg = DetectorConfig(efficiency=0.6, dead_time=0.0, jitter_sigma=0.0)
        rng = window_rng(8, 0)
        n = 50_000
        ev = make_events(np.sort(rng.uniform(0, 1.0, n)),
                         rng.integers(0, 16, n))
        rec = detect_window(ev, cfg, rng)
        # binomial sd = sqrt(n*0.6*0.4) ~ 110
        assert len(rec) == pytest.approx(0.6 * n, abs=600)

    def test_unit_efficiency_lossless(self):
        cfg = DetectorConfig(efficiency=1.0, dead_time=0.0, jitter_sigma=0.0)
        ev = make_events([1e-9, 2e-9], [0, 1])
        assert len(detect_window(ev, cfg, window_rng(0, 0))) == 2


class TestJitter:
    def test_jitter_statistics(self):
        sigma = 50e-12
        cfg = DetectorConfig(efficiency=1.0, dead_time=0.0, jitter_sigma=sigma)
        true_t = np.full(20_000, 1e-6)
        ev = make_events(true_t, np.zeros(20_000))
        rec = detect_window(ev, cfg, window_rng(1, 3))
        err = rec.times - 1e-6
        assert err.mean() == pytest.approx(0.0, abs=3 * sigma / np.sqrt(20_000))
        assert err.std() == pytest.approx(sigma, rel=0.03)

    def test_output_sorted_after_jitter(self):
        cfg = DetectorConfig(efficiency=1.0, dead_time=0.0, jitter_sigma=100e-12)
        rng = window_rng(2, 0)
        ev = make_events(np.sort(rng.uniform(0, 1e-9, 200)), rng.integers(0, 16, 200))
        rec = detect_window(ev, cfg, rng)
        assert np.all(np.diff(rec.times) >= 0)


class TestDarkCounts:
    def test_dark_rate(self):
        cfg = DetectorConfig(efficiency=1.0, dead_time=0.0, jitter_sigma=0.0,
                             dark_count_rate=1000.0)
        # 16 pixels * 1 kHz * 0.5 s = 8000 expected darks
        rec = detect_window(make_events([], []), cfg, window_rng(6, 0), duration=0.5)
        assert len(rec) == pytest.approx(8000, abs=400)
        assert rec.is_dark.all()

    def test_darks_flagged_photons_not(self):
        cfg = DetectorConfig(efficiency=1.0, dead_time=0.0, jitter_sigma=0.0,
                             dark_count_rate=5e4)
        ev = make_events([1e-6], [4])
        rec = detect_window(ev, cfg, window_rng(9, 0), duration=2e-3)
        assert len(rec) > 1
        photon_mask = ~rec.is_dark
        assert photon_mask.sum() == 1
        assert rec.pixels[photon_mask][0] == 4


class TestValidation:
    def test_unassigned_bins_rejected(self):
        ev = make_events([1e-9], [-1])
        with pytest.raises(InvalidArgumentError):
            detect_window(ev, DetectorConfig(), window_rng(0, 0))

    @pytest.mark.parametrize("short", [0, 1, 2])
    def test_mismatched_lengths_rejected(self, short):
        # one time, one bin and one window index per photon
        ev = list(make_events([1e-9, 2e-9], [0, 0]))
        ev[short] = ev[short][:1]
        with pytest.raises(InvalidArgumentError, match="equal length"):
            detect_window(ev, DetectorConfig(), window_rng(0, 0))

    def test_bin_out_of_range_rejected(self):
        ev = make_events([1e-9], [16])
        with pytest.raises(InvalidArgumentError):
            detect_window(ev, DetectorConfig(), window_rng(0, 0))

    def test_unsorted_times_rejected(self):
        ev = make_events([2e-9, 1e-9], [0, 0])
        with pytest.raises(InvalidArgumentError):
            detect_window(ev, DetectorConfig(), window_rng(0, 0))


class TestWholeRun:
    def cfg(self, **kw):
        base = dict(efficiency=0.8, dead_time=20e-9, jitter_sigma=50e-12,
                    dark_count_rate=2e5)
        base.update(kw)
        return DetectorConfig(**base)

    def photons(self, seed, n_windows, window=2e-6):
        """Poisson(30) photons per window on 4 pixels, absolute times."""
        parts = []
        for w in range(n_windows):
            rng = window_rng(seed, w)
            n = int(rng.poisson(30.0))
            parts.append(make_events(
                np.sort(rng.uniform(0, window, n)) + w * window,
                rng.integers(0, 4, n), np.full(n, w)))
        return tuple(np.concatenate(column) for column in zip(*parts))

    @pytest.mark.parametrize("kw", [{}, {"dead_time": 0.0},
                                    {"jitter_sigma": 0.0},
                                    {"efficiency": 1.0},
                                    {"dark_count_rate": 0.0},
                                    {"dead_time": 300e-9}])
    def test_equals_reference_loop(self, kw):
        # one call over the run gives the plain loop's clicks, bit for bit
        config, window = self.cfg(**kw), 2e-6
        events = self.photons(31, 25)
        run, draws = detect_run(events, config, 32, window)
        assert_reference(run, events, draws, config, window)
        assert run.is_dark.any() == (config.dark_count_rate > 0.0)

    @pytest.mark.parametrize("dark_count_rate", [0.0, 2e5])
    @pytest.mark.parametrize("efficiency", [1.0, 0.8])
    @pytest.mark.parametrize("jitter_sigma", [0.0, 50e-12])
    @pytest.mark.parametrize("dead_time", [0.0, 20e-9])
    def test_caller_arrays_unchanged(self, dark_count_rate, efficiency,
                                     jitter_sigma, dead_time):
        # detect works on its own copies: a step that kept the caller's
        # times (say, a sort skipped on sorted input) would let the jitter
        # step's in-place add write into them
        config = self.cfg(dark_count_rate=dark_count_rate,
                          efficiency=efficiency, jitter_sigma=jitter_sigma,
                          dead_time=dead_time)
        window = 2e-6
        events = self.photons(31, 25)
        counts = np.bincount(events[2], minlength=1)
        draws, _ = reference_draws(
            config, [window_rng(32, w) for w in range(counts.size)], counts,
            window)
        arrays = list(events) + [getattr(draws, name)
                                 for name in DetectorDraws.__annotations__]
        before = [a.copy() for a in arrays]
        rec = detect(*events, config, draws, window)
        assert len(rec) > 0
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype

    def test_dead_time_carries_across_window_edge(self):
        # the same pixel fires 5 ns before the end of window 0 and at the
        # start of window 1: it is still dead there, and has recovered
        # 30 ns after its click
        config = self.cfg(efficiency=1.0, jitter_sigma=0.0,
                          dark_count_rate=0.0)
        ev = make_events([1.995e-6, 2e-6, 2.025e-6], [3, 3, 3], [0, 1, 1])
        rec, _ = detect_run(ev, config, 0, 2e-6)
        np.testing.assert_array_equal(rec.times, [1.995e-6, 2.025e-6])

    def test_jitter_follows_window_across_edge_rounding(self):
        # 12 * 2e-6 rounds so that the last photon of window 12 lands after
        # the first of window 13; each window's k-th click still takes
        # that window's k-th jitter draw
        window = 2e-6
        last = np.nextafter(window, 0.0) + 12 * window
        assert last > 13 * window
        ev = make_events([12 * window + 1.5e-6, last, 13 * window,
                          13 * window + 1e-9], [0, 1, 2, 3], [12, 12, 13, 13])
        config = self.cfg(efficiency=1.0, dark_count_rate=0.0)
        rec, draws = detect_run(ev, config, 7, window)
        jitter = {0: draws[12][2][0], 1: draws[12][2][1],
                  2: draws[13][2][0], 3: draws[13][2][1]}
        for pixel, time in zip(rec.pixels.tolist(), rec.times.tolist()):
            assert time == ev[0][pixel] + jitter[pixel]
        assert_reference(rec, ev, draws, config, window)

    def test_windows_must_not_decrease(self):
        config = self.cfg(dark_count_rate=0.0)
        ev = make_events([0.0, 0.0], [3, 3], [1, 0])
        draws, _ = reference_draws(
            config, [window_rng(0, w) for w in range(2)], [1, 1], 2e-6)
        with pytest.raises(InvalidArgumentError):
            detect(*ev, config, draws, 2e-6)

    def test_jitter_draws_cover_every_possible_click(self):
        # a run draws one normal per photon and per dark count, each window
        # last on its stream, and scales it by sigma: normal(0, sigma)
        overrides = {"windows": 60, "efficiency": 0.8,
                     "dark_count_rate_hz": 2e5}
        cfg = config_from_dict("counting", overrides, seed=5)
        det = cfg.detector_config()
        _, counts, _, draws = _draw_windows(cfg, det)
        assert draws.keep.size == counts.sum()
        assert draws.dark_times.size == draws.dark_counts.sum() > 0
        np.testing.assert_array_equal(draws.jitter_counts,
                                      counts + draws.dark_counts)
        jitter = np.split(draws.jitter, np.cumsum(draws.jitter_counts)[:-1])
        for w, (n, d) in enumerate(zip(counts, draws.dark_counts)):
            rng = reference_impl.window_rng(5, w)
            assert rng.poisson(cfg.mean_photon_number) == n
            rng.random(3 * n)
            assert rng.poisson(2e5 * cfg.window * 16) == d
            rng.random(d)
            rng.integers(0, 16, d)
            np.testing.assert_array_equal(
                jitter[w], rng.normal(0.0, det.jitter_sigma, n + d))
        # without jitter, none is drawn
        cfg = config_from_dict(
            "counting", {**overrides, "jitter_sigma_ns": 0.0}, seed=5)
        draws = _draw_windows(cfg, cfg.detector_config())[3]
        assert draws.jitter.size == draws.jitter_counts.sum() == 0


@st.composite
def edge_runs(draw, spread):
    """Photons of up to 20 windows, each within `spread` of a window edge
    (the exact edge and the last double before it included), on 3 pixels;
    returns (events, window, seed)."""
    window = draw(st.sampled_from([2e-6, 1e-7, 0.3]))
    rel = st.one_of(
        st.floats(0.0, spread),
        st.floats(window - spread, window, exclude_max=True),
        st.sampled_from([0.0, float(np.nextafter(window, 0.0))]))
    times, bins, windows = [], [], []
    for w in range(draw(st.integers(1, 20))):
        ts = sorted(draw(st.lists(rel, max_size=4)))
        times += [t + w * window for t in ts]
        bins += draw(st.lists(st.integers(0, 2), min_size=len(ts),
                              max_size=len(ts)))
        windows += [w] * len(ts)
    return (make_events(times, bins, windows), window,
            draw(st.integers(0, 2**64 - 1)))


class TestContinuousRecord:
    """Properties of one detector record that runs across window edges."""

    @settings(deadline=None, max_examples=150)
    @given(edge_runs(spread=40e-9), st.sampled_from([1.0, 0.7]),
           st.sampled_from([0.0, 2.0]))
    def test_no_registered_gap_under_dead_time(self, run, efficiency,
                                               darks_per_window):
        events, window, seed = run
        config = DetectorConfig(
            pixel_count=3, efficiency=efficiency, dead_time=20e-9,
            jitter_sigma=0.0,
            dark_count_rate=darks_per_window / (3 * window))
        rec, draws = detect_run(events, config, seed, window)
        for pixel in range(3):
            assert np.all(np.diff(rec.times[rec.pixels == pixel]) >= 20e-9)
        assert_reference(rec, events, draws, config, window)

    @settings(deadline=None, max_examples=150)
    @given(edge_runs(spread=150e-12), st.sampled_from([0.0, 20e-9]))
    def test_recorded_times_never_decrease(self, run, dead_time):
        events, window, seed = run
        config = DetectorConfig(pixel_count=3, dead_time=dead_time,
                                jitter_sigma=50e-12)
        rec, draws = detect_run(events, config, seed, window)
        assert np.all(np.diff(rec.times) >= 0)
        assert_reference(rec, events, draws, config, window)
