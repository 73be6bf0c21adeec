"""Tests for the delay-line readout."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_impl
from qgalton import readout
from qgalton.detector import DetectionRecords
from qgalton.errors import (
    ConfigError,
    InvalidArgumentError,
    ResourceLimitError,
)
from qgalton.experiments import check_value, config_from_dict, simulate_stream
from qgalton.readout import (
    DEFAULT_TOLERANCE,
    FLAG_NAMES,
    FLAG_OK,
    FLAG_ORPHAN_NEGATIVE,
    FLAG_ORPHAN_POSITIVE,
    FLAG_PIXEL_OUT_OF_RANGE,
    MAX_TRACE_TIME,
    SLOT_PAD,
    LineConfig,
    TraceEvents,
    decode,
    encode,
    persistence_trace,
)

DELTA = 0.9e-9
SPAN = 15 * DELTA  # 13.5 ns end to end


def records_for(pixels, times):
    pixels = np.asarray(pixels, np.int64)
    times = np.asarray(times, float)
    return DetectionRecords(pixels=pixels, times=times,
                            is_dark=np.zeros(times.size, bool))


class TestLineConfig:
    def test_defaults(self):
        cfg = LineConfig()
        assert cfg.span == pytest.approx(13.5e-9)
        assert cfg.slot_delay(0) == pytest.approx(13.5e-9)
        assert cfg.slot_delay(15) == pytest.approx(-13.5e-9)

    def test_slot_delays_step_by_twice_segment(self):
        cfg = LineConfig()
        d = cfg.slot_delay(np.arange(16))
        np.testing.assert_allclose(np.diff(d), -1.8e-9, atol=1e-18)

    @pytest.mark.parametrize("pixel_count", [1, 16, 124])
    @pytest.mark.parametrize("segment_delay", [20.000001e-12, 0.9e-9, 1.0])
    def test_pixel_of_inverts_slot_delay(self, pixel_count, segment_delay):
        # every slot decode scans, padding slots included, and every spacing
        # within 0.9 segment delays of a slot's names that slot
        cfg = LineConfig(segment_delay=segment_delay, pixel_count=pixel_count)
        slots = np.arange(-SLOT_PAD, pixel_count + SLOT_PAD)
        np.testing.assert_array_equal(cfg.pixel_of(cfg.slot_delay(slots)),
                                      slots)
        off = np.linspace(-0.9, 0.9, 19)[:, None] * segment_delay
        got = cfg.pixel_of(cfg.slot_delay(slots)[None, :] + off)
        np.testing.assert_array_equal(got, np.broadcast_to(slots, got.shape))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"segment_delay": 0.0},
            {"pixel_count": 0},
            {"attenuation_per_segment": 0.0},
            {"attenuation_per_segment": 1.2},
            {"base_amplitude": 0.0},
            {"trigger_polarity": "up"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        # LineConfig takes checked values: the run config refuses each of
        # these, in its own units, before a line is built
        (field, value), = kwargs.items()
        key = "segment_delay_ns" if field == "segment_delay" else field
        with pytest.raises(ConfigError, match=key):
            config_from_dict("counting", {key: value})

    def test_pixel_count_bounded_by_largest_mesh(self):
        # one pixel per output bin of the largest mesh; decode-trace's
        # --pixel-count is held to this bound
        check_value("pixel_count", 124, "--pixel-count")
        with pytest.raises(ResourceLimitError, match="124"):
            check_value("pixel_count", 125, "--pixel-count")


class TestEncode:
    def test_pixel_zero_pulse_positions(self):
        # click on pixel 0 at t=0: negative trigger leaves immediately,
        # positive counter crosses the whole line, 13.5 ns later
        trace = encode(records_for([0], [0.0]), LineConfig())
        assert len(trace) == 2
        neg = trace.amplitudes < 0
        assert trace.times[neg][0] == 0.0
        assert trace.times[~neg][0] == pytest.approx(13.5e-9, abs=1e-18)
        assert trace.amplitudes[neg][0] == pytest.approx(-1.0)
        assert trace.amplitudes[~neg][0] == pytest.approx(0.97**15)

    def test_pixel_fifteen_mirrors(self):
        trace = encode(records_for([15], [0.0]), LineConfig())
        neg = trace.amplitudes < 0
        assert trace.times[neg][0] == pytest.approx(13.5e-9, abs=1e-18)
        assert trace.times[~neg][0] == 0.0
        assert trace.amplitudes[neg][0] == pytest.approx(-(0.97**15))
        assert trace.amplitudes[~neg][0] == pytest.approx(1.0)

    def test_pair_spacing_steps_down_by_1p8ns(self):
        cfg = LineConfig()
        diffs = []
        for p in range(16):
            trace = encode(records_for([p], [0.0]), cfg)
            neg = trace.amplitudes < 0
            diffs.append(trace.times[~neg][0] - trace.times[neg][0])
        np.testing.assert_allclose(np.diff(diffs), -1.8e-9, atol=1e-18)

    def test_pair_midpoint_recovers_click_time(self):
        cfg = LineConfig()
        for p in (0, 7, 15):
            trace = encode(records_for([p], [3.25e-7]), cfg)
            mid = trace.times.mean() - cfg.span / 2
            assert mid == pytest.approx(3.25e-7, abs=1e-15)

    def test_trace_sorted_with_origin_ids(self):
        trace = encode(records_for([3, 9], [0.0, 40e-9]), LineConfig())
        assert np.all(np.diff(trace.times) >= 0)
        assert sorted(trace.origin_ids.tolist()) == [0, 0, 1, 1]

    def test_positive_polarity_swaps_signs(self):
        cfg = LineConfig(trigger_polarity="positive")
        trace = encode(records_for([0], [0.0]), cfg)
        early = np.argmin(trace.times)
        assert trace.amplitudes[early] > 0

    def test_rejects_out_of_range_pixels(self):
        with pytest.raises(InvalidArgumentError):
            encode(records_for([16], [0.0]), LineConfig())


class TestDecodeRoundTrip:
    def test_every_pixel(self):
        cfg = LineConfig()
        pixels = np.arange(16, dtype=np.int64)
        times = np.arange(16) * 50e-9
        dec = decode(encode(records_for(pixels, times), cfg), cfg)
        assert len(dec) == 16
        assert dec.ok.all()
        np.testing.assert_array_equal(np.sort(dec.pixels), pixels)
        order = np.argsort(dec.origin_times)
        np.testing.assert_array_equal(dec.pixels[order], pixels)
        np.testing.assert_allclose(dec.origin_times[order], times, atol=1e-15)

    def test_exact_differential_recovery(self):
        # decoded slot spacing is exact: residual against the slot comb is
        # at the floating point noise floor, far below a picosecond
        cfg = LineConfig()
        trace = encode(records_for([5], [1e-6]), cfg)
        neg = trace.amplitudes < 0
        diff = trace.times[~neg][0] - trace.times[neg][0]
        assert abs(diff - 5 * DELTA) < 1e-18  # (15 - 2*5) = 5 segments

    def test_random_sparse_sets(self):
        cfg = LineConfig()
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            times = np.sort(rng.uniform(0, 2e-6, n))
            # enforce sparsity: consecutive clicks at least 30 ns apart
            times = times + np.arange(n) * 30e-9
            pixels = rng.integers(0, 16, n)
            dec = decode(encode(records_for(pixels, times), cfg), cfg)
            assert dec.ok.all()
            order = np.argsort(dec.origin_times)
            np.testing.assert_array_equal(dec.pixels[order], pixels)
            np.testing.assert_allclose(dec.origin_times[order], times, atol=1e-15)

    def test_overlapping_clicks_still_decode(self):
        # two clicks 5 ns apart overlap on the line; slot-comb pairing
        # still resolves both exactly
        cfg = LineConfig()
        pixels = np.array([2, 11])
        times = np.array([0.0, 5e-9])
        dec = decode(encode(records_for(pixels, times), cfg), cfg)
        assert dec.ok.all()
        order = np.argsort(dec.origin_times)
        np.testing.assert_array_equal(dec.pixels[order], pixels)
        np.testing.assert_allclose(dec.origin_times[order], times, atol=1e-15)

    def test_simultaneous_clicks_on_two_pixels(self):
        cfg = LineConfig()
        dec = decode(encode(records_for([0, 15], [1e-7, 1e-7]), cfg), cfg)
        assert dec.ok.all()
        assert set(dec.pixels.tolist()) == {0, 15}
        np.testing.assert_allclose(dec.origin_times, 1e-7, atol=1e-15)

    def test_dense_burst_round_trips(self):
        # same-pixel clicks are separated by a detector dead time in any
        # physical stream; different pixels may collide freely
        cfg = LineConfig()
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0, 400e-9, 16))
        pixels = rng.permutation(16)
        dec = decode(encode(records_for(pixels, times), cfg), cfg)
        ok_frac = dec.ok.mean()
        assert ok_frac == 1.0
        order = np.argsort(dec.origin_times)
        np.testing.assert_array_equal(dec.pixels[order], pixels[np.argsort(times)])

    def test_positive_polarity_round_trip(self):
        cfg = LineConfig(trigger_polarity="positive")
        pixels = np.array([1, 8, 14])
        times = np.array([0.0, 100e-9, 200e-9])
        dec = decode(encode(records_for(pixels, times), cfg), cfg)
        assert dec.ok.all()
        order = np.argsort(dec.origin_times)
        np.testing.assert_array_equal(dec.pixels[order], pixels)


class TestDecodeFlags:
    def test_orphan_negative(self):
        cfg = LineConfig()
        trace = encode(records_for([4], [0.0]), cfg)
        keep = trace.amplitudes < 0  # drop the positive counter pulse
        trimmed = TraceEvents(trace.times[keep], trace.amplitudes[keep])
        dec = decode(trimmed, cfg)
        assert len(dec) == 1
        assert dec.flags[0] == FLAG_ORPHAN_NEGATIVE
        assert dec.pixels[0] == -1
        assert np.isnan(dec.origin_times[0])

    def test_orphan_positive(self):
        cfg = LineConfig()
        trace = encode(records_for([4], [0.0]), cfg)
        extra = TraceEvents(
            np.append(trace.times, 500e-9),
            np.append(trace.amplitudes, 0.5),
        )
        dec = decode(extra, cfg)
        flags = set(dec.flags.tolist())
        assert FLAG_OK in flags
        assert FLAG_ORPHAN_POSITIVE in flags

    def test_pixel_out_of_range(self):
        # structurally valid pair, but its spacing names slot -1, one tap
        # beyond the near end of the line
        cfg = LineConfig()
        trace = TraceEvents(np.array([0.0, 17 * DELTA]), np.array([-1.0, 0.6]))
        dec = decode(trace, cfg)
        assert len(dec) == 1
        assert dec.flags[0] == FLAG_PIXEL_OUT_OF_RANGE

    def test_far_slots_orphan_instead(self):
        # spacing beyond the padded slot range cannot be a pair at all
        cfg = LineConfig()
        trace = TraceEvents(np.array([0.0, 25 * DELTA]), np.array([-1.0, 0.6]))
        dec = decode(trace, cfg)
        assert set(dec.flags.tolist()) == {FLAG_ORPHAN_NEGATIVE, FLAG_ORPHAN_POSITIVE}

    def test_flag_names(self):
        assert FLAG_NAMES[FLAG_OK] == "ok"
        assert FLAG_NAMES[FLAG_PIXEL_OUT_OF_RANGE] == "pixel_out_of_range"

    def test_every_pulse_classified_once(self):
        cfg = LineConfig()
        rng = np.random.default_rng(12)
        times = np.sort(rng.uniform(0, 1e-6, 40))
        pixels = rng.integers(0, 16, 40)
        trace = encode(records_for(pixels, times), cfg)
        dec = decode(trace, cfg)
        used_trig = dec.trigger_index[dec.trigger_index >= 0]
        used_part = dec.partner_index[dec.partner_index >= 0]
        seen = np.concatenate([used_trig, used_part])
        assert np.unique(seen).size == seen.size == len(trace)


class TestDecodePairing:
    """The pairing rule at its edges: the window, and exact ties."""

    def test_window_is_inclusive(self):
        # trigger at 0: the test reads slot delay +/- DEFAULT_TOLERANCE
        cfg = LineConfig()
        delay = float(cfg.slot_delay(4))
        for partner in (delay - DEFAULT_TOLERANCE, delay + DEFAULT_TOLERANCE):
            dec = decode(TraceEvents(np.array([0.0, partner]),
                                     np.array([-1.0, 1.0])), cfg)
            assert dec.flags.tolist() == [FLAG_OK]
            assert dec.pixels.tolist() == [4]

    def test_outside_window_unmatched(self):
        cfg = LineConfig()
        delay = float(cfg.slot_delay(4))
        for partner in (np.nextafter(delay - DEFAULT_TOLERANCE, 0.0),
                        np.nextafter(delay + DEFAULT_TOLERANCE, 1.0)):
            dec = decode(TraceEvents(np.array([0.0, partner]),
                                     np.array([-1.0, 1.0])), cfg)
            assert sorted(dec.flags.tolist()) == [FLAG_ORPHAN_NEGATIVE,
                                                  FLAG_ORPHAN_POSITIVE]

    def test_tie_break_is_earliest_index(self):
        # dyadic times: both counter pulses are exactly 2**-40 s from the
        # slot's spacing, and the earlier one takes the trigger
        cfg = LineConfig(segment_delay=2.0**-30)
        delay = float(cfg.slot_delay(0))
        near = 2.0**-40
        assert near < DEFAULT_TOLERANCE
        trace = TraceEvents(np.array([0.0, delay - near, delay + near]),
                            np.array([-1.0, 1.0, 1.0]))
        dec = decode(trace, cfg)
        ok = dec.ok
        assert dec.pixels[ok].tolist() == [0]
        assert dec.partner_index[ok].tolist() == [1]
        assert dec.partner_index[~ok].tolist() == [2]


class TestDecodeValidation:
    def test_unsorted_trace_accepted(self):
        cfg = LineConfig()
        trace = encode(records_for([3], [0.0]), cfg)
        shuffled = TraceEvents(trace.times[::-1].copy(),
                               trace.amplitudes[::-1].copy())
        dec = decode(shuffled, cfg)
        assert dec.ok.all()
        assert dec.pixels[0] == 3

    def test_zero_amplitude_rejected(self):
        with pytest.raises(InvalidArgumentError):
            decode(TraceEvents(np.array([0.0]), np.array([0.0])), LineConfig())

    def test_oversize_tolerance_rejected(self):
        # the 10 ps decode tolerance is not under half of a 15 ps segment;
        # such a line is refused before any trace is decoded
        with pytest.raises(ConfigError, match="decode tolerance"):
            check_value("segment_delay_ns", 0.015, "--segment-delay-ns")

    def test_empty_trace(self):
        dec = decode(TraceEvents(np.array([]), np.array([])), LineConfig())
        assert len(dec) == 0

    @pytest.mark.parametrize("edge", [-MAX_TRACE_TIME, MAX_TRACE_TIME])
    def test_decodes_at_the_time_bound(self, edge):
        # the outer pulse of each pair sits on the bound itself
        cfg = LineConfig()
        pixels = np.array([0, 3, 15])
        spacing = cfg.slot_delay(pixels)  # counter minus trigger
        trig = edge - (np.maximum if edge > 0 else np.minimum)(spacing, 0.0)
        times = np.concatenate([trig, trig + spacing])
        assert np.abs(times).max() == MAX_TRACE_TIME
        trace = TraceEvents(times, np.repeat([-1.0, 1.0], 3))
        dec = decode(trace, cfg)
        assert dec.ok.all()
        assert sorted(dec.pixels.tolist()) == [0, 3, 15]

    @pytest.mark.parametrize("edge", [-MAX_TRACE_TIME, MAX_TRACE_TIME])
    def test_time_past_the_bound_refused(self, edge):
        cfg = LineConfig()
        past = float(np.nextafter(edge, 2 * edge))
        trace = TraceEvents(np.array([0.0, past]), np.array([-1.0, 1.0]))
        for run in (decode, persistence_trace):
            with pytest.raises(InvalidArgumentError, match="1407"):
                run(trace, cfg)


def assert_ok_origins_sorted(decoded):
    """Ok rows come in origin order: run_intervals takes their gaps as
    they are."""
    assert np.all(np.diff(decoded.origin_times[decoded.ok]) >= 0)


def assert_same_decode(got, want):
    for name in ("pixels", "origin_times", "flags", "trigger_index",
                 "partner_index"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name


# the smallest segment delay a config admits, just over twice the tolerance
NARROWEST = float(np.nextafter(2.0 * DEFAULT_TOLERANCE, 1.0))


@st.composite
def grid_traces(draw):
    """Pulses on a grid of segment-delay multiples, each moved by at most
    the pairing tolerance: most triggers have candidates in several slots
    and share partners with their neighbours, and exact window edges are
    common.  A base at either edge of +/-MAX_TRACE_TIME makes the slot
    tests round off, and a pulse may sit on the edge itself."""
    config = LineConfig(
        pixel_count=draw(st.sampled_from([1, 16, 124])),
        segment_delay=draw(st.sampled_from(
            [0.9e-9, 25e-12, 20.000001e-12, NARROWEST, 1.0])),
        trigger_polarity=draw(st.sampled_from(["negative", "positive"])))
    n = draw(st.integers(0, 40))
    reach = config.pixel_count + 2 * SLOT_PAD
    steps = np.array(draw(st.lists(st.integers(0, 2 * reach), min_size=n,
                                   max_size=n)), dtype=float)
    shifts = np.array(draw(st.lists(
        st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
        | st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    only = draw(st.sampled_from([None, -1.0, 1.0]))  # one polarity only
    if only is None:
        signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                       min_size=n, max_size=n)))
    else:
        signs = np.full(n, only)
    base = draw(st.sampled_from(
        [0.0, 3e-6, -MAX_TRACE_TIME,
         MAX_TRACE_TIME - 2 * reach * config.segment_delay]))
    times = np.clip(base + steps * config.segment_delay
                    + shifts * DEFAULT_TOLERANCE,
                    -MAX_TRACE_TIME, MAX_TRACE_TIME)
    amplitudes = signs * draw(st.floats(0.1, 1.0))
    return TraceEvents(times, amplitudes), config


# decode's peak on the dense trace below: about 6.4 MB today, and under the
# 12.2 MB that the slot-by-slot reference loop peaks at on the same trace
DENSE_PEAK_BYTES = 12_000_000


class TestDecodeParity:
    """The one-sweep decoder returns the slot-by-slot loop's rows exactly."""

    @settings(deadline=None, max_examples=400)
    @given(grid_traces())
    def test_matches_reference_loop(self, case):
        trace, config = case
        want = reference_impl.decode(trace, config)
        got = decode(trace, config)
        assert_same_decode(got, want)
        assert_ok_origins_sorted(got)
        # blocks of a few candidates: triggers split across blocks, and
        # single triggers with more candidates than a block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(readout, "_BLOCK", 3)
            assert_same_decode(decode(trace, config), want)

    @settings(deadline=None, max_examples=300)
    @given(grid_traces(), st.randoms(use_true_random=False))
    def test_permuted_trace_decodes_as_sorted(self, case, random):
        # a trace out of time order is stably sorted first; the same trace
        # in that order is split as it stands, and both give the same rows,
        # their pulse positions mapped through the sort
        trace, config = case
        shuffle = list(range(trace.times.size))
        random.shuffle(shuffle)
        trace = TraceEvents(trace.times[shuffle], trace.amplitudes[shuffle])
        order = np.argsort(trace.times, kind="stable")
        got = decode(trace, config)
        want = decode(TraceEvents(trace.times[order],
                                  trace.amplitudes[order]), config)
        np.testing.assert_array_equal(got.pixels, want.pixels)
        np.testing.assert_array_equal(got.origin_times, want.origin_times)
        np.testing.assert_array_equal(got.flags, want.flags)
        for name in ("trigger_index", "partner_index"):
            index = getattr(want, name)
            np.testing.assert_array_equal(
                getattr(got, name), np.where(index >= 0, order[index], -1))

    def test_saturated_run(self):
        # 30 photons per window: clicks overlap on the line, and about 0.6%
        # of the pulses contest a partner
        config = config_from_dict("counting", {"mean_photon_number": 30.0},
                                  seed=1)
        stream = simulate_stream(config)
        assert_same_decode(stream.decoded, reference_impl.decode(
            stream.trace, config.line_config()))
        assert_ok_origins_sorted(stream.decoded)

    def test_equal_origins_go_in_scan_order(self):
        # a pair in padding slot -1 and a pixel-0 pair, both of origin
        # delta: the padding pair's trigger comes first, but the scan
        # visits pixel 0 first, so its row does
        delta = 2.0**-30
        config = LineConfig(segment_delay=delta)
        trace = TraceEvents(np.array([0.0, 1.0, 16.0, 17.0]) * delta,
                            [-1.0, -1.0, 1.0, 1.0])
        got = decode(trace, config)
        np.testing.assert_array_equal(got.pixels, [0, -1])
        np.testing.assert_array_equal(got.origin_times, [delta, delta])
        assert_same_decode(got, reference_impl.decode(trace, config))

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(-SLOT_PAD, 17)),
                    min_size=1, max_size=24))
    def test_many_equal_origins_match_reference_loop(self, clicks):
        # pairs on an exact grid with few distinct origins, in every slot
        # including the padding: most rows tie with others on origin
        delta = 2.0**-30
        config = LineConfig(segment_delay=delta)
        origins, slots = (np.array(c, dtype=float) for c in zip(*clicks))
        origins *= 8.0
        trace = TraceEvents(
            np.concatenate([origins + slots, origins + 15.0 - slots]) * delta,
            np.repeat([-1.0, 1.0], len(clicks)))
        got = decode(trace, config)
        assert_same_decode(got, reference_impl.decode(trace, config))
        assert_ok_origins_sorted(got)

    def test_dense_trace_memory_within_loop(self):
        # 124 pixels at 0.1 pulses/ns: each trigger has about a dozen
        # counter pulses within the line span, so the (trigger, partner)
        # candidates outnumber the pulses; the sweep takes them in blocks
        # and its peak stays under DENSE_PEAK_BYTES
        rng = np.random.default_rng(5)
        n = 100_000
        trace = TraceEvents(np.sort(rng.uniform(0.0, n * 10e-9, n)),
                            rng.choice([-1.0, 1.0], n))
        config = LineConfig(pixel_count=124)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = decode(trace, config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the pure-Python reference runs untraced: tracing slows it 20-fold
        assert_same_decode(got, reference_impl.decode(trace, config))
        assert peak <= DENSE_PEAK_BYTES, peak


class TestPersistence:
    def enumeration_trace(self, repeats=200, spacing=50e-9):
        pixels = np.tile(np.arange(16), repeats)
        times = np.arange(pixels.size) * spacing
        return encode(records_for(pixels, times), LineConfig())

    def test_sixteen_peaks(self):
        res = persistence_trace(self.enumeration_trace(), LineConfig())
        columns = (res.peak_delays, res.peak_amplitudes, res.peak_counts,
                   res.peak_weights)
        assert [c.size for c in columns] == [16] * 4
        assert res.n_triggers == 3200

    def test_peak_spacing_is_1p8ns(self):
        res = persistence_trace(self.enumeration_trace(), LineConfig())
        delays = res.peak_delays
        np.testing.assert_allclose(np.diff(delays), 1.8e-9, atol=1e-13)
        assert delays[0] == pytest.approx(-13.5e-9, abs=1e-13)
        assert delays[-1] == pytest.approx(13.5e-9, abs=1e-13)

    def test_amplitudes_strictly_decreasing(self):
        res = persistence_trace(self.enumeration_trace(), LineConfig())
        amps = res.peak_amplitudes
        assert np.all(np.diff(amps) < 0)
        assert amps[0] == pytest.approx(1.0)
        assert amps[-1] == pytest.approx(0.97**15)

    def test_uniform_weights(self):
        res = persistence_trace(self.enumeration_trace(), LineConfig())
        np.testing.assert_allclose(res.peak_weights, 1.0 / 16, atol=1e-12)
        np.testing.assert_array_equal(res.peak_counts, [200] * 16)

    def test_haze_from_overlap_counted_but_not_peaked(self):
        # two overlapping clicks add stray overlay points; with a real
        # cluster threshold those strays never form a peak
        cfg = LineConfig()
        trace = encode(records_for([2, 11], [0.0, 5e-9]), cfg)
        res = persistence_trace(trace, cfg, min_cluster=1)
        assert res.n_overlaid == 4  # 2 true pairs + 2 cross overlays
        res2 = persistence_trace(trace, cfg, min_cluster=2)
        assert res2.peak_delays.size == 0

    def test_weight_matches_distribution(self):
        rng = np.random.default_rng(41)
        probs = np.full(16, 1 / 16.0)
        pixels = rng.choice(16, size=5000, p=probs)
        times = np.arange(5000) * 60e-9
        res = persistence_trace(encode(records_for(pixels, times), LineConfig()),
                                LineConfig())
        weights = res.peak_weights
        # binomial sd at n=5000, p=1/16 is 0.0034
        np.testing.assert_allclose(weights, 1 / 16.0, atol=0.015)

    def test_bad_bin_width(self):
        # persistence_trace takes a checked bin width
        with pytest.raises(ConfigError, match="bin_width_ns"):
            config_from_dict("persistence", {"bin_width_ns": 0.0})

    def test_same_arrays_in_small_blocks(self):
        # clicks every 5 ns on average overlap on the 13.5 ns line, so
        # each trigger's pairs spread over several blocks of 3
        rng = np.random.default_rng(8)
        times = np.sort(rng.uniform(0.0, 15e-6, 3000))
        trace = encode(records_for(rng.integers(0, 16, 3000), times),
                       LineConfig())
        want = persistence_trace(trace, LineConfig())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(readout, "_BLOCK", 3)
            got = persistence_trace(trace, LineConfig())
        assert want.n_overlaid > 4 * want.n_triggers
        for name, value in vars(want).items():
            assert np.array_equal(getattr(got, name), value,
                                  equal_nan=name == "mean_amplitudes"), name

    def test_dense_overlay_memory_per_pair(self):
        # 124 pixels at 200 photons per window: about 22 counter pulses
        # per trigger in reach.  The overlay keeps two doubles per pair
        # and sorts them once; building every pair's indices at once as
        # well takes 68 bytes
        config = config_from_dict("persistence", {
            "stages": 62, "pixel_count": 124, "mean_photon_number": 200.0,
            "windows": 100}, seed=1)
        trace = simulate_stream(config).trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = persistence_trace(trace, config.line_config())
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert res.n_overlaid > 20 * res.n_triggers
        assert peak < 52 * res.n_overlaid, peak / res.n_overlaid

    def test_overlay_pairs_capped_before_allocation(self):
        # 3000 triggers and 3000 counter pulses inside one reach would
        # overlay 9e6 pairs, about 390 MB; the count alone is refused
        n = 3000
        times = np.linspace(0.0, 1e-9, 2 * n)
        trace = TraceEvents(times, np.tile([-1.0, 1.0], n))
        assert n * n > readout.MAX_OVERLAY_PAIRS
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError,
                               match="mean_photon_number.*windows"):
                persistence_trace(trace, LineConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
