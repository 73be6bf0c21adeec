"""Tests for the detector array model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_impl
from qgalton.detector import DetectorConfig, detect
from qgalton.errors import ConfigError, InvalidArgumentError
from qgalton.experiments import (_draw_windows, config_from_dict,
                                  simulate_stream)
from qgalton.source import assign_bins, noise_rng, sample_arrivals, window_rng
from qgalton.walk import bin_probabilities


def make_events(times, bins):
    """Photon absolute times and bins, as arrays."""
    return np.asarray(times, float), np.asarray(bins, np.int64)


def detect_run(events, config, seed, duration=1.0):
    """A run's photons through the detector over [0, duration), with the
    noise stream of ``seed``."""
    return detect(*events, config, noise_rng(seed), duration)


def assert_reference(records, events, config, seed, duration):
    """The records equal the plain loop of reference_impl over the same
    photons, with the efficiency uniforms and the noise drawn from a fresh
    generator of the noise stream, bit for bit."""
    times, bins = events
    noise = reference_impl.noise_rng(seed)
    survive = reference_impl.survivors(config, noise, times.size)
    record = [(t, False, i, b) for i, (t, b, s) in enumerate(
        zip(times.tolist(), bins.tolist(), survive)) if s]
    record += [(t, True, i, p) for i, (t, p) in enumerate(
        reference_impl.dark_counts(config, noise, duration))]
    pixels, clicks, is_dark = reference_impl.detect(record, config, noise)
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
        rec = detect_run(ev, self.cfg(), 0)
        np.testing.assert_array_equal(rec.times, [100e-9])

    def test_click_exactly_at_recovery_kept(self):
        # gap of exactly one dead time counts as recovered (t starts at 0 so
        # the subtraction is exact in floating point)
        ev = make_events([0.0, 20e-9], [3, 3])
        rec = detect_run(ev, self.cfg(), 0)
        assert len(rec) == 2

    def test_blocked_photon_does_not_extend_recovery(self):
        # photons at 0, 15, 25 ns on one pixel with 20 ns dead time:
        # the 15 ns photon is blocked and must not reset the clock, so the
        # 25 ns photon is registered
        ev = make_events([0.0, 15e-9, 25e-9], [0, 0, 0])
        rec = detect_run(ev, self.cfg(), 0)
        np.testing.assert_allclose(rec.times, [0.0, 25e-9])

    def test_pixels_recover_independently(self):
        ev = make_events([100e-9, 105e-9], [2, 9])
        rec = detect_run(ev, self.cfg(), 0)
        assert len(rec) == 2

    def test_burst_keeps_one_per_dead_time(self):
        # 30 photons in 2 us on one pixel: consecutive keeps are >= 20 ns apart
        times = np.sort(window_rng(4, 0).uniform(0, 2e-6, 30))
        rec = detect_run(make_events(times, np.zeros(30)), self.cfg(), 4)
        assert len(rec) < 30
        assert np.all(np.diff(rec.times) >= 20e-9)

    def test_zero_dead_time_keeps_all(self):
        ev = make_events([1e-9, 1.1e-9, 1.2e-9], [5, 5, 5])
        rec = detect_run(ev, self.cfg(dead_time=0.0), 0)
        assert len(rec) == 3


class TestEfficiency:
    def test_thinning_rate(self):
        cfg = DetectorConfig(efficiency=0.6, dead_time=0.0, jitter_sigma=0.0)
        rng = window_rng(8, 1)
        n = 50_000
        ev = make_events(np.sort(rng.uniform(0, 1.0, n)),
                         rng.integers(0, 16, n))
        rec = detect_run(ev, cfg, 8)
        # binomial sd = sqrt(n*0.6*0.4) ~ 110
        assert len(rec) == pytest.approx(0.6 * n, abs=600)

    def test_unit_efficiency_lossless(self):
        cfg = DetectorConfig(efficiency=1.0, dead_time=0.0, jitter_sigma=0.0)
        ev = make_events([1e-9, 2e-9], [0, 1])
        assert len(detect_run(ev, cfg, 0)) == 2


class TestJitter:
    def test_jitter_statistics(self):
        sigma = 50e-12
        cfg = DetectorConfig(efficiency=1.0, dead_time=0.0, jitter_sigma=sigma)
        true_t = np.full(20_000, 1e-6)
        ev = make_events(true_t, np.zeros(20_000))
        rec = detect_run(ev, cfg, 1, duration=2e-6)
        err = rec.times - 1e-6
        assert err.mean() == pytest.approx(0.0, abs=3 * sigma / np.sqrt(20_000))
        assert err.std() == pytest.approx(sigma, rel=0.03)

    def test_output_sorted_after_jitter(self):
        cfg = DetectorConfig(efficiency=1.0, dead_time=0.0, jitter_sigma=100e-12)
        rng = window_rng(2, 0)
        ev = make_events(np.sort(rng.uniform(0, 1e-9, 200)), rng.integers(0, 16, 200))
        rec = detect_run(ev, cfg, 2, duration=2e-6)
        assert np.all(np.diff(rec.times) >= 0)


class TestDarkCounts:
    def test_dark_rate(self):
        cfg = DetectorConfig(efficiency=1.0, dead_time=0.0, jitter_sigma=0.0,
                             dark_count_rate=1000.0)
        # 16 pixels * 1 kHz * 0.5 s = 8000 expected darks
        rec = detect_run(make_events([], []), cfg, 6, duration=0.5)
        assert len(rec) == pytest.approx(8000, abs=400)
        assert rec.is_dark.all()

    def test_darks_flagged_photons_not(self):
        cfg = DetectorConfig(efficiency=1.0, dead_time=0.0, jitter_sigma=0.0,
                             dark_count_rate=5e4)
        ev = make_events([1e-6], [4])
        rec = detect_run(ev, cfg, 9, duration=2e-3)
        assert len(rec) > 1
        photon_mask = ~rec.is_dark
        assert photon_mask.sum() == 1
        assert rec.pixels[photon_mask][0] == 4


class TestValidation:
    def test_unassigned_bins_rejected(self):
        ev = make_events([1e-9], [-1])
        with pytest.raises(InvalidArgumentError):
            detect_run(ev, DetectorConfig(), 0)

    @pytest.mark.parametrize("short", [0, 1])
    def test_mismatched_lengths_rejected(self, short):
        # one time and one bin per photon
        args = list(make_events([1e-9, 2e-9], [0, 0]))
        args[short] = args[short][:1]
        with pytest.raises(InvalidArgumentError, match="equal length"):
            detect(*args, DetectorConfig(efficiency=0.5), noise_rng(0), 1.0)

    def test_bin_out_of_range_rejected(self):
        ev = make_events([1e-9], [16])
        with pytest.raises(InvalidArgumentError):
            detect_run(ev, DetectorConfig(), 0)


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
                rng.integers(0, 4, n)))
        return tuple(np.concatenate(column) for column in zip(*parts))

    @pytest.mark.parametrize("kw", [{}, {"dead_time": 0.0},
                                    {"jitter_sigma": 0.0},
                                    {"efficiency": 1.0},
                                    {"dark_count_rate": 0.0},
                                    {"dead_time": 300e-9}])
    def test_equals_reference_loop(self, kw):
        # one call over the run gives the plain loop's clicks, bit for bit
        config, duration = self.cfg(**kw), 25 * 2e-6
        events = self.photons(31, 25)
        run = detect_run(events, config, 32, duration)
        assert_reference(run, events, config, 32, duration)
        assert run.is_dark.any() == (config.dark_count_rate > 0.0)

    @pytest.mark.parametrize("dark_count_rate", [0.0, 2e5])
    @pytest.mark.parametrize("efficiency", [1.0, 0.8])
    @pytest.mark.parametrize("jitter_sigma", [0.0, 50e-12])
    @pytest.mark.parametrize("dead_time", [0.0, 20e-9])
    def test_caller_arrays_unchanged(self, dark_count_rate, efficiency,
                                     jitter_sigma, dead_time):
        # detect works on its own copies: a step that kept the caller's
        # times (say, a sort skipped on sorted input) would let an
        # in-place add of the jitter write into them
        config = self.cfg(dark_count_rate=dark_count_rate,
                          efficiency=efficiency, jitter_sigma=jitter_sigma,
                          dead_time=dead_time)
        events = self.photons(31, 25)
        before = [a.copy() for a in events]
        rec = detect_run(events, config, 32, 25 * 2e-6)
        assert len(rec) > 0
        for a, b in zip(events, before):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype

    def test_dead_time_carries_across_window_edge(self):
        # the same pixel fires 5 ns before the end of window 0 and at the
        # start of window 1: it is still dead there, and has recovered
        # 30 ns after its click
        config = self.cfg(efficiency=1.0, jitter_sigma=0.0,
                          dark_count_rate=0.0)
        ev = make_events([1.995e-6, 2e-6, 2.025e-6], [3, 3, 3])
        rec = detect_run(ev, config, 0, 4e-6)
        np.testing.assert_array_equal(rec.times, [1.995e-6, 2.025e-6])

    def test_noise_drawn_from_run_stream_in_order(self):
        # the noise stream gives, in this order: one uniform per photon in
        # the input's order, the photon surviving if its uniform is below
        # the efficiency; one Poisson dark count over the whole record,
        # that many times duration * u, that many pixels; and one standard
        # normal per registered click in record order, scaled by sigma.
        # Without dead time every click registers
        config = self.cfg(dead_time=0.0)
        duration = 25 * 2e-6
        events = self.photons(31, 25)
        rec = detect_run(events, config, 5, duration)
        stream = reference_impl.noise_rng(5)
        lit = stream.random(events[0].size) < 0.8
        d = stream.poisson(2e5 * 16 * duration)
        dark_times = duration * stream.random(d)
        dark_pixels = stream.integers(0, 16, d)
        assert rec.is_dark.sum() == d > 0
        assert 0 < (~rec.is_dark).sum() == lit.sum() < lit.size
        times = np.concatenate([events[0][lit], dark_times])
        pixels = np.concatenate([events[1][lit], dark_pixels])
        order = np.argsort(times, kind="stable")
        recorded = times[order] + 50e-12 * stream.standard_normal(times.size)
        after = np.argsort(recorded, kind="stable")
        np.testing.assert_array_equal(rec.times, recorded[after])
        np.testing.assert_array_equal(rec.pixels, pixels[order][after])


class TestDeadTimeLoss:
    """The share of photons a run's dead time blocks, against theory."""

    @pytest.mark.parametrize("mean, seeds, tolerance", [
        (4.0, range(20), 0.05), (30.0, range(10), 0.02)])
    def test_matches_non_paralyzable_formula(self, mean, seeds, tolerance):
        # pixel i sees Poisson photons at p_i * mean per window; with x =
        # mean * dead time / window, a non-paralyzable pixel blocks a share
        # x p_i / (1 + x p_i) of them, and the run loses
        # sum_i p_i * x p_i / (1 + x p_i)
        emitted = registered = 0
        for seed in seeds:
            cfg = config_from_dict(
                "counting", {"mean_photon_number": mean}, seed=seed)
            stream = simulate_stream(cfg)
            emitted += stream.truth_pixels.size
            registered += int((~stream.records.is_dark).sum())
        p = bin_probabilities(cfg.stages, cfg.resolved_t2(), cfg.input_port)
        x = mean * cfg.dead_time_ns / cfg.window_ns
        expected = float(np.sum(p * x * p / (1.0 + x * p)))
        loss = 1.0 - registered / emitted
        assert loss == pytest.approx(expected, rel=tolerance)


def dead_time_model(cfg):
    """Mean and variance of one window's registered count, to leading
    order in window / dead time (Müller, Nucl. Instrum. Methods 112, 47
    (1973); Knoll, Radiation Detection and Measurement, ch. 4).

    Pixel i sees Poisson photons at m_i = mean * efficiency * p_i per
    window; with x_i = m_i * dead time / window, a non-paralyzable pixel
    registers m_i / (1 + x_i) of them on average, with variance
    m_i / (1 + x_i)**3.  Pixels are independent, so both sum.
    """
    p = bin_probabilities(cfg.stages, cfg.resolved_t2(), cfg.input_port)
    m = cfg.mean_photon_number * cfg.efficiency * p
    x = m * cfg.dead_time_ns / cfg.window_ns
    return float(np.sum(m / (1.0 + x))), float(np.sum(m / (1.0 + x) ** 3))


def clicks_per_window(cfg):
    """Registered clicks of each window of a run: the run's own draws
    through detect, before encode and decode."""
    arrivals, counts, bin_uniforms = _draw_windows(cfg)
    times, _ = sample_arrivals(arrivals, counts, cfg.window)
    bins = assign_bins(
        bin_probabilities(cfg.stages, cfg.resolved_t2(), cfg.input_port),
        bin_uniforms)
    records = detect(times, bins, cfg.detector_config(), noise_rng(cfg.seed),
                     cfg.windows * cfg.window)
    window = np.clip(records.times // cfg.window, 0, cfg.windows - 1)
    return np.bincount(window.astype(np.int64), minlength=cfg.windows)


class TestDeadTimeModel:
    """Each run's clicks per window against `dead_time_model`: the mean
    count and the mean Fano factor (variance over mean) over seeds 0-19
    lie within 4 standard errors of the model.  Measured on 10,000-window
    runs: at mean 30, counts 28.644 +- 0.011 against 28.651 and Fano
    factor 0.9119 +- 0.0037 against 0.9127 (per-run sd 0.0166, largest
    0.936); at mean 4, counts 3.980 +- 0.0045 against 3.975 and Fano
    factor 0.9858 +- 0.0027 against 0.9875, where a single run reads up
    to 1.009."""

    SEEDS = range(20)

    @pytest.mark.parametrize("mean", [4.0, 30.0])
    def test_mean_and_fano_factor(self, mean):
        means, fanos = [], []
        for seed in self.SEEDS:
            cfg = config_from_dict(
                "counting", {"mean_photon_number": mean, "windows": 10_000},
                seed=seed)
            counts = clicks_per_window(cfg)
            means.append(counts.mean())
            fanos.append(counts.var(ddof=1) / counts.mean())
        model_mean, model_var = dead_time_model(cfg)
        for got, want in ((means, model_mean),
                          (fanos, model_var / model_mean)):
            error = np.std(got, ddof=1) / np.sqrt(len(got))
            assert abs(np.mean(got) - want) <= 4.0 * error, (got, want)
        if mean == 30.0:
            # dead time narrows the counts below Poisson in every run
            assert max(fanos) < 0.97, fanos


@st.composite
def edge_runs(draw, spread):
    """Photons of up to 20 windows, each within `spread` of a window edge
    (the exact edge and the last double before it included), on 3 pixels;
    returns (events, window, duration, seed).  Window w's photons lie at
    w * window on the record, as `source.sample_arrivals` puts them, so
    rounding can put the last of one window after the first of the next."""
    window = draw(st.sampled_from([2e-6, 1e-7, 0.3]))
    rel = st.one_of(
        st.floats(0.0, spread),
        st.floats(window - spread, window, exclude_max=True),
        st.sampled_from([0.0, float(np.nextafter(window, 0.0))]))
    times, bins = [], []
    n_windows = draw(st.integers(1, 20))
    for w in range(n_windows):
        ts = sorted(draw(st.lists(rel, max_size=4)))
        times += [t + w * window for t in ts]
        bins += draw(st.lists(st.integers(0, 2), min_size=len(ts),
                              max_size=len(ts)))
    return (make_events(times, bins), window, n_windows * window,
            draw(st.integers(0, 2**64 - 1)))


class TestContinuousRecord:
    """Properties of one detector record that runs across window edges."""

    @settings(deadline=None, max_examples=150)
    @given(edge_runs(spread=40e-9), st.sampled_from([1.0, 0.7]),
           st.sampled_from([0.0, 2.0]))
    def test_no_registered_gap_under_dead_time(self, run, efficiency,
                                               darks_per_window):
        events, window, duration, seed = run
        config = DetectorConfig(
            pixel_count=3, efficiency=efficiency, dead_time=20e-9,
            jitter_sigma=0.0,
            dark_count_rate=darks_per_window / (3 * window))
        rec = detect_run(events, config, seed, duration)
        for pixel in range(3):
            assert np.all(np.diff(rec.times[rec.pixels == pixel]) >= 20e-9)
        assert_reference(rec, events, config, seed, duration)

    @settings(deadline=None, max_examples=150)
    @given(edge_runs(spread=150e-12), st.sampled_from([0.0, 20e-9]))
    def test_recorded_times_never_decrease(self, run, dead_time):
        events, _, duration, seed = run
        config = DetectorConfig(pixel_count=3, dead_time=dead_time,
                                jitter_sigma=50e-12)
        rec = detect_run(events, config, seed, duration)
        assert np.all(np.diff(rec.times) >= 0)
        assert_reference(rec, events, config, seed, duration)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.tuples(st.floats(0.0, 1e-6), st.integers(0, 2)),
                    max_size=30, unique_by=lambda photon: photon[0]),
           st.sampled_from([0.0, 50e-12]), st.sampled_from([0.0, 3e6]),
           st.randoms(use_true_random=False), st.integers(0, 2**64 - 1))
    def test_permuted_photons_give_same_records(self, photons, jitter, dark,
                                                random, seed):
        # the input need not be in time order: the record is time order,
        # so at unit efficiency any order of the photons gives the same
        # clicks.  Times are distinct, so no tie can make the order of two
        # photons depend on the input's
        config = DetectorConfig(pixel_count=3, jitter_sigma=jitter,
                                dark_count_rate=dark)
        events = make_events(*zip(*photons)) if photons else make_events(
            [], [])
        shuffled = list(range(events[0].size))
        random.shuffle(shuffled)
        got = detect_run((events[0][shuffled], events[1][shuffled]), config,
                         seed, 1e-6)
        order = np.argsort(events[0])
        want = detect_run((events[0][order], events[1][order]), config,
                          seed, 1e-6)
        for name in ("pixels", "times", "is_dark"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.tuples(st.floats(0.0, 1e-6), st.integers(0, 2)),
                    max_size=30),
           st.sampled_from([0.0, 50e-12]), st.sampled_from([0.0, 3e6]),
           st.randoms(use_true_random=False), st.integers(0, 2**64 - 1))
    def test_efficiency_uniforms_follow_input_order(self, photons, jitter,
                                                    dark, random, seed):
        # below unit efficiency the k-th uniform of the noise stream
        # decides the k-th photon as given, whatever the photons' times
        config = DetectorConfig(pixel_count=3, efficiency=0.7,
                                jitter_sigma=jitter, dark_count_rate=dark)
        random.shuffle(photons)
        events = make_events(*zip(*photons)) if photons else make_events(
            [], [])
        rec = detect_run(events, config, seed, 1e-6)
        assert_reference(rec, events, config, seed, 1e-6)
