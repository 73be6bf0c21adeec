"""Tests for the detector array model."""

import numpy as np
import pytest

from qgalton.detector import (
    DetectionRecords,
    DetectorConfig,
    DetectorDraws,
    detect,
    draw_window,
)
from qgalton.errors import InvalidArgumentError
from qgalton.source import window_rng


def make_events(times, bins, windows=None):
    """Photon times, bins and window indices (default all 0), as arrays."""
    times = np.asarray(times, float)
    windows = np.zeros(times.size) if windows is None else windows
    return times, np.asarray(bins, np.int64), np.asarray(windows, np.int64)


def detect_window(events, config, rng, duration=1.0):
    """One window through the detector: its draws, then the whole-run code."""
    draws = DetectorDraws.stack(
        [draw_window(config, rng, events[0].size, duration)])
    return detect(*events, config, draws, window=duration)


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
        with pytest.raises(InvalidArgumentError):
            DetectorConfig(**kwargs)


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

    def windows(self, config, seed, n_windows, window=2e-6):
        """Per-window photons and their detector draws, each on its stream."""
        parts = []
        for w in range(n_windows):
            rng = window_rng(seed, w)
            n = int(rng.poisson(30.0))
            ev = make_events(np.sort(rng.uniform(0, window, n)),
                             rng.integers(0, 4, n), np.full(n, w))
            parts.append((ev, draw_window(config, rng, n, window)))
        return parts

    @pytest.mark.parametrize("kw", [{}, {"dead_time": 0.0},
                                    {"jitter_sigma": 0.0},
                                    {"efficiency": 1.0},
                                    {"dark_count_rate": 0.0}])
    def test_equals_window_by_window(self, kw):
        # one call over the run gives each window's one-window result,
        # shifted to its place on the timeline
        config, window = self.cfg(**kw), 2e-6
        parts = self.windows(config, 31, 25)
        times, bins, windows = (np.concatenate(column)
                                for column in zip(*(ev for ev, _ in parts)))
        run = detect(times, bins, windows, config,
                     DetectorDraws.stack([d for _, d in parts]), window)
        one = [detect(*make_events(ev[0], ev[1]), config,
                      DetectorDraws.stack([d]), window) for ev, d in parts]
        np.testing.assert_array_equal(
            run.pixels, np.concatenate([r.pixels for r in one]))
        np.testing.assert_array_equal(
            run.is_dark, np.concatenate([r.is_dark for r in one]))
        np.testing.assert_array_equal(run.times, np.concatenate(
            [r.times + w * window for w, r in enumerate(one)]))
        assert run.is_dark.any() == (config.dark_count_rate > 0.0)

    def test_each_window_starts_recovered(self):
        # the same pixel fires at the end of window 0 and the start of
        # window 1: each window runs on a recovered detector
        config = self.cfg(efficiency=1.0, jitter_sigma=0.0,
                          dark_count_rate=0.0)
        ev = make_events([1.995e-6, 0.0], [3, 3], [0, 1])
        draws = DetectorDraws.stack(
            [draw_window(config, window_rng(0, w), 1, 2e-6) for w in range(2)])
        rec = detect(*ev, config, draws, 2e-6)
        np.testing.assert_allclose(rec.times, [1.995e-6, 2e-6])

    def test_windows_must_not_decrease(self):
        config = self.cfg(dark_count_rate=0.0)
        ev = make_events([0.0, 0.0], [3, 3], [1, 0])
        draws = DetectorDraws.stack(
            [draw_window(config, window_rng(0, w), 1, 2e-6) for w in range(2)])
        with pytest.raises(InvalidArgumentError):
            detect(*ev, config, draws, 2e-6)

    def test_jitter_draws_cover_every_possible_click(self):
        config = self.cfg()
        rng = window_rng(5, 0)
        keep, dark_times, _, jitter = draw_window(config, rng, 40, 2e-6)
        assert keep.size == 40
        assert jitter.size == (keep < 0.8).sum() + dark_times.size

