"""Tests for the weak coherent source model."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_impl
from qgalton.detector import DetectorConfig, detect
from qgalton.errors import (
    ConfigError,
    InvalidArgumentError,
    InvalidDistributionError,
)
from qgalton import experiments
from qgalton.experiments import (
    _draw_windows,
    check_value,
    config_from_dict,
)
from qgalton.source import (
    _CELLS,
    DEFAULT_CALIBRATION,
    assign_bins,
    noise_rng,
    sample_arrivals,
    t2_of_wavelength,
    window_rng,
)


class TestWavelengthModel:
    def test_reproduces_calibration_points(self):
        for wl, t2 in DEFAULT_CALIBRATION:
            assert t2_of_wavelength(wl) == pytest.approx(t2, abs=1e-12)

    def test_slope_sign_and_value(self):
        # line through (1520, 0.816) and (1550, 0.763):
        # slope = (0.763 - 0.816) / 30 = -0.053/30
        slope = (t2_of_wavelength(1551.0) - t2_of_wavelength(1549.0)) / 2.0
        assert slope == pytest.approx(-0.053 / 30.0, abs=1e-12)

    def test_midband_interpolation(self):
        assert t2_of_wavelength(1535.0) == pytest.approx((0.816 + 0.763) / 2, abs=1e-12)

    def test_clamped_to_unit_interval(self):
        # far enough red that the raw line goes negative
        assert t2_of_wavelength(3000.0) == 0.0
        assert t2_of_wavelength(1000.0) == 1.0

    def test_rejects_bad_wavelength_query(self):
        for wavelength in (-5.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidArgumentError):
                t2_of_wavelength(wavelength)


class TestSourceConfig:
    """The source settings are config fields, checked where a run is built."""

    def test_defaults(self):
        cfg = config_from_dict("interference")
        assert cfg.window == pytest.approx(2e-6)
        assert cfg.mean_photon_number == 1.0

    def test_zero_rate(self):
        cfg = config_from_dict("counting", {"mean_photon_number": 0.0})
        assert cfg.mean_photon_number == 0.0

    def test_rejects_negative_rate(self):
        with pytest.raises(ConfigError, match="mean_photon_number"):
            config_from_dict("counting", {"mean_photon_number": -1.0})

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ConfigError, match="window_ns"):
            config_from_dict("counting", {"window_ns": 0.0})


class TestWindowRng:
    def test_streams_are_reproducible(self):
        a = window_rng(42, 7).random(5)
        b = window_rng(42, 7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_by_window(self):
        a = window_rng(42, 0).random(5)
        b = window_rng(42, 1).random(5)
        assert not np.array_equal(a, b)

    def test_streams_differ_by_seed(self):
        a = window_rng(1, 0).random(5)
        b = window_rng(2, 0).random(5)
        assert not np.array_equal(a, b)

    def test_order_independence(self):
        # simulating window 5 first or last gives the same draws
        late = window_rng(9, 5)
        _ = window_rng(9, 0).random(100)
        early = window_rng(9, 5)
        np.testing.assert_array_equal(late.random(8), early.random(8))

    def test_key_words_are_seed_and_window(self):
        key = window_rng(12345, 77).bit_generator.state["state"]["key"]
        assert key.tolist() == [12345, 77]

    @pytest.mark.parametrize("seed, other", [
        (2**64 - 1, 0), (2**63 + 5, 2**63),
    ])
    def test_large_seeds_keep_distinct_streams(self, seed, other):
        key = window_rng(seed, 3).bit_generator.state["state"]["key"]
        assert key.tolist() == [seed, 3]
        assert not np.array_equal(window_rng(seed, 3).random(5),
                                  window_rng(other, 3).random(5))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_key_word_rejected(self, seed):
        # window_rng takes a checked seed: the run config and the fit-*
        # commands refuse one outside the key word
        with pytest.raises(ConfigError, match="seed"):
            check_value("seed", seed, None)


class TestNoiseRng:
    SEEDS = [0, 12345, 2**63 + 5, 2**64 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_key_words_are_seed_and_last_window(self, seed):
        # one word per half of the key: a list [seed, 2**64 - 1] goes
        # through float64 below seed 2**63 and gives key (seed, 0)
        key = noise_rng(seed).bit_generator.state["state"]["key"]
        assert key.dtype == np.uint64
        assert key.tolist() == [seed, 2**64 - 1]
        np.testing.assert_equal(noise_rng(seed).bit_generator.state,
                                reference_impl.noise_rng(seed)
                                .bit_generator.state)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_differs_from_every_window_stream_of_a_run(self, seed):
        # the first and the last window of the largest run a config takes
        noise = noise_rng(seed).standard_normal(8)
        for window in (0, experiments.MAX_WINDOWS - 1):
            assert not np.array_equal(
                noise, window_rng(seed, window).standard_normal(8))


class TestWindowRngParity:
    @pytest.mark.parametrize("seed, window", [
        (0, 0), (12345, 77), (2**63 + 5, 3), (2**64 - 1, 9999),
    ])
    def test_same_stream_as_philox_key(self, seed, window):
        # the cheap construction gives the stream of Philox(key=...)
        got, want = window_rng(seed, window), reference_impl.window_rng(
            seed, window)
        np.testing.assert_equal(got.bit_generator.state,
                                want.bit_generator.state)
        np.testing.assert_array_equal(got.normal(size=9), want.normal(size=9))
        np.testing.assert_array_equal(got.random(9), want.random(9))


def draw_kind(rng, kind, size):
    """One draw of a kind a run makes: counts, uniforms, pixels, jitter."""
    if kind == "poisson":
        return rng.poisson(3.0, size)
    if kind == "random":
        return rng.random(size)
    if kind == "integers":
        # a bounded draw under 2**32 takes 32-bit halves of a 64-bit word
        return rng.integers(0, 16, size)
    return rng.normal(0.0, 50e-12, size)


DRAWS = st.lists(st.tuples(
    st.sampled_from(["poisson", "random", "integers", "normal"]),
    st.integers(0, 40)), max_size=8)


class TestWindowRngRekey:
    @settings(max_examples=80, deadline=None)
    @given(first=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**63)),
           key=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**63)),
           before=DRAWS, after=DRAWS)
    def test_rekeyed_equals_fresh(self, first, key, before, after):
        # whatever was drawn before, the re-keyed generator starts the
        # window's stream afresh, including after a buffered half word
        rng = window_rng(*first)
        for kind, size in before:
            draw_kind(rng, kind, size)
        assert window_rng(*key, rng) is rng
        fresh = reference_impl.window_rng(*key)
        np.testing.assert_equal(rng.bit_generator.state,
                                fresh.bit_generator.state)
        for kind, size in after:
            np.testing.assert_array_equal(draw_kind(rng, kind, size),
                                          draw_kind(fresh, kind, size))

    def test_odd_bounded_draw_leaves_half_word(self):
        # the state the re-key must clear is reachable
        rng = window_rng(3, 0)
        rng.integers(0, 16, 3)
        assert rng.bit_generator.state["has_uint32"] == 1
        window_rng(3, 1, rng)
        np.testing.assert_array_equal(
            rng.integers(0, 16, 5),
            reference_impl.window_rng(3, 1).integers(0, 16, 5))


def draw_run(mean, seed, windows, window=2e-6):
    """In-window arrival times, photon counts and bin uniforms of `windows`
    windows, each drawn on its own stream: a Poisson count, that many
    uniform times, then a bin uniform per photon."""
    times, counts, uniforms = [], [], []
    for w in range(windows):
        rng = window_rng(seed, w)
        n = int(rng.poisson(mean))
        times.append(rng.uniform(0.0, window, n))
        uniforms.append(rng.random(n))
        counts.append(n)
    return (np.concatenate(times), np.array(counts, dtype=np.int64),
            np.concatenate(uniforms))


class TestSampleArrivals:
    def test_times_sorted_and_in_window(self):
        times = window_rng(3, 0).uniform(0.0, 2e-6, 30)
        sorted_times, windows = sample_arrivals(times, np.array([30]), 2e-6)
        assert np.all(np.diff(sorted_times) >= 0)
        assert np.all(sorted_times >= 0.0)
        assert np.all(sorted_times < 2e-6)
        assert np.all(windows == 0)

    def test_poisson_mean_and_variance(self):
        times, counts, _ = draw_run(4.0, 11, 4000)
        counts = np.bincount(sample_arrivals(times, counts, 2e-6)[1],
                             minlength=4000)
        # Poisson(4): mean 4, variance 4; with 4000 windows the sample mean
        # has sd 0.032 and the sample variance sd ~0.14
        assert counts.mean() == pytest.approx(4.0, abs=0.15)
        assert counts.var() == pytest.approx(4.0, abs=0.6)

    def test_uniform_conditional_times(self):
        times, counts, _ = draw_run(10.0, 5, 500, window=1e-6)
        all_times, windows = sample_arrivals(times, counts, 1e-6)
        in_window = all_times - windows * 1e-6
        # mean of U(0, W) is W/2, variance W^2/12
        assert in_window.mean() == pytest.approx(1e-6 / 2, rel=0.02)
        assert in_window.var() == pytest.approx(1e-6**2 / 12, rel=0.06)

    def test_window_index_recorded(self):
        times = window_rng(0, 12).uniform(0.0, 2e-6, 5)
        sorted_times, windows = sample_arrivals(
            times, np.array([0] * 12 + [5]), 2e-6)
        assert sorted_times.size == windows.size == 5
        assert np.all(windows == 12)
        np.testing.assert_array_equal(sorted_times,
                                      np.sort(times) + 12 * 2e-6)

    def test_sorted_within_each_window(self):
        times, windows = sample_arrivals(
            np.array([3e-7, 1e-7, 2e-7, 0.0, 2e-7]), np.array([2, 0, 3]), 1.0)
        np.testing.assert_array_equal(windows, [0, 0, 2, 2, 2])
        np.testing.assert_array_equal(
            times, [1e-7, 3e-7, 2.0, 2.0 + 2e-7, 2.0 + 2e-7])

    def test_one_window_per_entry(self):
        times, counts, _ = draw_run(3.0, 2, 50)
        all_times, windows = sample_arrivals(times, counts, 2e-6)
        for w, own in enumerate(np.split(times, np.cumsum(counts)[:-1])):
            np.testing.assert_array_equal(all_times[windows == w],
                                          np.sort(own) + w * 2e-6)

    @pytest.mark.parametrize("times, counts", [
        ([1e-7], [3]),            # would broadcast one time to 3 photons
        ([1e-7, 2e-7], [1]),
        ([1e-7, 2e-7], [3, -1]),
        ([1e-7], [[1]]),
        ([[1e-7]], [1]),
    ])
    def test_counts_must_match_times(self, times, counts):
        with pytest.raises(InvalidArgumentError, match="counts must"):
            sample_arrivals(np.array(times), np.array(counts), 2e-6)

    def test_window_order_survives_edge_rounding(self):
        # 12 * 2e-6 rounds so that the last time of window 12 lands after
        # 13 * 2e-6, the start of window 13; the photons stay in window order
        last = np.nextafter(2e-6, 0.0)
        assert last + 12 * 2e-6 > 13 * 2e-6
        times, windows = sample_arrivals(
            np.array([last, 1e-7, 0.0]), np.array([0] * 12 + [2, 1]), 2e-6)
        np.testing.assert_array_equal(windows, [12, 12, 13])
        np.testing.assert_array_equal(
            times, [1e-7 + 12 * 2e-6, last + 12 * 2e-6, 13 * 2e-6])

    def test_duplicate_times_inside_a_window(self):
        times, windows = sample_arrivals(
            np.array([2e-7, 1e-7, 2e-7, 1e-7, 2e-7, 0.0, 0.0]),
            np.array([5, 0, 2]), 1e-6)
        np.testing.assert_array_equal(windows, [0, 0, 0, 0, 0, 2, 2])
        np.testing.assert_array_equal(
            times, [1e-7, 1e-7, 2e-7, 2e-7, 2e-7, 2e-6, 2e-6])

    def test_equal_times_on_both_sides_of_a_window_edge(self):
        # a time just below the window's end of window 12 rounds onto the
        # start of window 13, where window 13 has photons too: the times
        # tie across the edge, and window 12's still come first
        window = 2e-6
        below = np.nextafter(window, 0.0)
        while below + 12 * window != 13 * window:
            below = np.nextafter(below, 0.0)
        times, windows = sample_arrivals(
            np.array([below, 1e-7, below, 0.0, 1e-7, 0.0]),
            np.array([0] * 12 + [3, 3]), window)
        np.testing.assert_array_equal(windows, [12] * 3 + [13] * 3)
        edge = 13 * window
        np.testing.assert_array_equal(
            times, [1e-7 + 12 * window, edge, edge, edge, edge,
                    1e-7 + 13 * window])

    @settings(deadline=None, max_examples=150)
    @given(st.lists(st.lists(st.sampled_from(
        [0.0, 1e-7, 5e-7, float(np.nextafter(2e-6, 0.0)), 2e-6 - 1e-18]),
        max_size=6), min_size=1, max_size=12))
    def test_ties_match_sorting_each_window(self, per_window):
        # few distinct values, so ties inside and across windows abound
        times, windows = sample_arrivals(
            np.array([t for ts in per_window for t in ts], dtype=float),
            np.array([len(ts) for ts in per_window]), 2e-6)
        np.testing.assert_array_equal(
            windows, [w for w, ts in enumerate(per_window) for _ in ts])
        np.testing.assert_array_equal(times, np.concatenate(
            [np.empty(0)] + [np.sort(np.array(ts, dtype=float)) + w * 2e-6
                             for w, ts in enumerate(per_window)]))

    def test_many_ties_match_sorting_each_window(self):
        # a run-sized case: ten distinct times, the last rounding onto the
        # next window's start, over 400 windows of up to 20 photons
        rng = window_rng(9, 0)
        counts = rng.integers(0, 20, 400)
        grid = np.append(np.arange(9) * 2e-7, np.nextafter(2e-6, 0.0))
        times = grid[rng.integers(0, 10, counts.sum())]
        got, windows = sample_arrivals(times, counts, 2e-6)
        np.testing.assert_array_equal(windows, np.repeat(np.arange(400),
                                                         counts))
        np.testing.assert_array_equal(got, np.concatenate(
            [np.sort(own) + w * 2e-6 for w, own in
             enumerate(np.split(times, np.cumsum(counts)[:-1]))]))

    @settings(deadline=None, max_examples=200)
    @given(st.sampled_from([1e-9, 2e-6]),
           st.sampled_from([0, 12, 2**16]),
           st.lists(st.lists(st.integers(0, 8), max_size=5), min_size=1,
                    max_size=10))
    def test_overlapping_windows_match_sorting_each_window(
            self, window, first, per_window):
        # times up to four windows long, from window `first` on: a
        # window's times reach past the starts of the next few windows,
        # so one sort of the whole run would mix them
        grid = np.append(np.arange(9) * 0.5 * window,
                         np.nextafter(window, 0.0))
        per_window = [grid[ks] for ks in per_window]
        counts = np.array([0] * first + [ts.size for ts in per_window])
        times, windows = sample_arrivals(
            np.concatenate(per_window), counts, window)
        np.testing.assert_array_equal(
            windows, np.repeat(np.arange(counts.size), counts))
        np.testing.assert_array_equal(times, np.concatenate(
            [np.sort(ts) + (first + w) * window
             for w, ts in enumerate(per_window)]))

    def test_overlap_across_several_windows_is_repaired(self):
        # window 0's time lies past the starts of windows 1 and 2, so the
        # run's times are not sorted, and still come back window by window
        times, windows = sample_arrivals(
            np.array([2.5, 0.5, 0.0, 1.0]), np.array([2, 1, 1]), 1.0)
        np.testing.assert_array_equal(windows, [0, 0, 1, 2])
        np.testing.assert_array_equal(times, [0.5, 2.5, 1.0, 3.0])


# _draw_windows' peak on a saturated run, per photon value drawn: about
# 19.8 bytes today, against 21.5 with one growing buffer split by a
# gather per part and 25.6 when the dark counts and jitter normals were
# drawn in the window loop too
DRAW_PEAK_BYTES_PER_VALUE = 21


def assert_reference_draws(cfg):
    """_draw_windows gives the reference's per-window draws, bit for bit."""
    arrivals, counts, uniforms = _draw_windows(cfg)
    want = reference_impl.draw_windows(cfg)
    got = {"arrivals": arrivals, "counts": counts, "uniforms": uniforms}
    for name, values in got.items():
        assert values.dtype == want[name].dtype, name
        np.testing.assert_array_equal(values, want[name], err_msg=name)


class TestDrawWindows:
    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 12), st.sampled_from([0.0, 0.5, 3.0, 8.0]),
           st.sampled_from([1.0, 0.6]), st.sampled_from([0.0, 5e5]),
           st.sampled_from([0.0, 0.05]), st.integers(0, 2**64 - 1))
    def test_matches_per_window_draws(self, windows, mean, efficiency,
                                      dark_rate, jitter, seed):
        # windows with no photons and runs with none at all (mean 0);
        # efficiency below 1, dark counts and jitter on or off leave the
        # photon draws as they are: the detector draws from the noise
        # stream
        cfg = config_from_dict("counting", {
            "windows": windows, "mean_photon_number": mean,
            "efficiency": efficiency, "dark_count_rate_hz": dark_rate,
            "jitter_sigma_ns": jitter}, seed=seed)
        assert_reference_draws(cfg)

    def test_saturated_draw_memory_per_value(self):
        # 30 photons per window over 10,000 windows: about 600,000 photon
        # values, an arrival time and a bin uniform per photon
        cfg = config_from_dict("counting", {"mean_photon_number": 30.0},
                               seed=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            arrivals, _, uniforms = _draw_windows(cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        drawn = arrivals.size + uniforms.size
        assert drawn == 600_104
        assert peak <= DRAW_PEAK_BYTES_PER_VALUE * drawn, peak / drawn


class TestAssignBins:
    def test_point_mass(self):
        p = np.zeros(16)
        p[7] = 1.0
        bins = assign_bins(p, window_rng(1, 0).random(50))
        assert bins.size == 50
        assert np.all(bins == 7)

    def test_empirical_frequencies_match(self):
        from qgalton.walk import bin_probabilities

        p = bin_probabilities(8, 0.5)
        bins = assign_bins(p, window_rng(17, 0).random(200_000))
        freq = np.bincount(bins, minlength=16) / bins.size
        # multinomial sd per bin is sqrt(p(1-p)/n) <= 1.2e-3 at n=2e5
        np.testing.assert_allclose(freq, p, atol=5e-3)

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidDistributionError):
            assign_bins(np.full(16, 0.07), np.array([0.5]))

    def test_negative_probability_rejected(self):
        p = np.full(16, 1.0 / 16)
        p[0], p[1] = -0.01, p[1] + 0.01 + 1.0 / 16
        with pytest.raises(InvalidDistributionError):
            assign_bins(p, np.array([0.5]))

    def test_nan_probability_rejected(self):
        # abs(nan - 1) > 1e-9 is False, so the sum check alone lets it in
        p = np.full(16, 1.0 / 16)
        p[3] = np.nan
        with pytest.raises(InvalidDistributionError, match="nonnegative"):
            assign_bins(p, np.array([0.1, 0.5, 0.9]))

    @pytest.mark.parametrize("p, total", [
        (np.full(16, 0.07), "1.12"),
        (np.array([0.5, np.inf]), "inf"),
    ])
    def test_sum_message_prints_plain_number(self, p, total):
        with pytest.raises(InvalidDistributionError) as err:
            assign_bins(p, np.array([0.5]))
        assert f"sum to {total}" in str(err.value)
        assert "float64" not in str(err.value)

    def test_empty_window(self):
        assert assign_bins(np.full(16, 1.0 / 16), np.empty(0)).size == 0

    def test_one_uniform_per_photon(self):
        # one uniform gives one bin; detect refuses it for two photons
        times, _ = sample_arrivals(np.array([1e-7, 2e-7]), np.array([2]),
                                   2e-6)
        bins = assign_bins(np.full(16, 1.0 / 16), np.array([0.5]))
        with pytest.raises(InvalidArgumentError):
            detect(times, bins, DetectorConfig(), noise_rng(0), 2e-6)

    def test_whole_run_equals_window_by_window(self):
        # the run's bins are each window's bins as the reference draws them
        # on that window's stream, window after window
        from qgalton.walk import bin_probabilities

        p = bin_probabilities(8, 0.763)
        cfg = config_from_dict("counting", {"windows": 40}, seed=23)
        arrivals, counts, uniforms = _draw_windows(cfg)
        _, windows = sample_arrivals(arrivals, counts, cfg.window)
        run = assign_bins(p, uniforms)
        for w in range(40):
            rng = reference_impl.window_rng(23, w)
            n = reference_impl.sample_arrivals(4.0, cfg.window, rng).size
            np.testing.assert_array_equal(
                run[windows == w], reference_impl.assign_bins(n, p, rng))


def cdf_of(p):
    """The cdf assign_bins draws from: the cumulative sum, its last value
    set to 1."""
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    return cdf


def around(values):
    """Each value and the doubles either side of it that lie in [0, 1)."""
    values = np.asarray(values, dtype=float)
    near = np.concatenate([np.nextafter(values, -1.0), values,
                           np.nextafter(values, 2.0)])
    return near[(near >= 0.0) & (near < 1.0)]


class TestAssignBinsLookup:
    """assign_bins reads most bins off a table of [0, 1) cells; every bin
    must equal the binary search of the cdf, at and beside each cell edge
    and each cdf value, where a table would go wrong."""

    def assert_searchsorted(self, p, uniforms):
        uniforms = np.asarray(uniforms, dtype=float)
        got = assign_bins(p, uniforms)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(
            got, np.searchsorted(cdf_of(p), uniforms, side="right"))

    def edges_and_cdf(self, p):
        return around(np.concatenate([np.arange(_CELLS) / _CELLS,
                                      cdf_of(p)]))

    @pytest.mark.parametrize("stages", [1, 2, 8, 62])
    @pytest.mark.parametrize("t2", [0.0, 0.3, 0.5, 0.763, 1.0])
    @pytest.mark.parametrize("port", ["left", "right"])
    def test_walk_distributions(self, stages, t2, port):
        from qgalton.walk import bin_probabilities

        # t2 0 and 1 leave bins of zero probability
        p = bin_probabilities(stages, t2, port)
        u = np.concatenate([self.edges_and_cdf(p),
                            window_rng(stages, 0).random(5000)])
        self.assert_searchsorted(p, u)

    @pytest.mark.parametrize("p", [
        [1.0],
        [0.0, 1.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0, 0.5, 0.0],
        # cdf values on cell edges
        [0.25, 0.25, 0.5],
        [1.0 / _CELLS, 0.0, 1.0 - 1.0 / _CELLS],
        # several cdf values inside one cell
        [1e-5, 1e-5, 1e-5, 1.0 - 3e-5],
        # a cdf value one double below 1 and one below a cell edge
        [float(np.nextafter(1.0, 0.0)), 0.0, 2.0**-53],
        [float(np.nextafter(0.5, 0.0)), 0.5, 2.0**-54],
    ])
    def test_chosen_distributions(self, p):
        p = np.array(p)
        self.assert_searchsorted(p, self.edges_and_cdf(p))

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 1e-4, 1e-12]),
                    min_size=1, max_size=40).filter(any),
           st.integers(0, 2**32))
    def test_random_distributions(self, weights, seed):
        p = np.array(weights) / sum(weights)
        self.assert_searchsorted(p, np.concatenate([
            self.edges_and_cdf(p), window_rng(seed, 0).random(200)]))

    @pytest.mark.parametrize("uniforms", [
        [0.5, 1.0], [-0.1, 0.5], [0.5, np.nan], [1.5], [np.inf, 0.2],
        [-0.0, 1.0], [[0.5]],
    ])
    def test_uniforms_outside_the_unit_interval_rejected(self, uniforms):
        with pytest.raises(InvalidArgumentError, match=r"\[0, 1\)"):
            assign_bins(np.full(4, 0.25), np.array(uniforms))
