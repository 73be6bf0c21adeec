"""Contract tests for the event-stream kernels."""

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_impl
from qgalton import kernels, readout
from qgalton.experiments import config_from_dict, simulate_stream

# integer-valued times make exact ties and exact window/dead-time boundaries
# common, which is where the greedy rules are easiest to get wrong
sorted_times = st.lists(st.integers(0, 30), max_size=40).map(
    lambda ts: np.array(sorted(ts), dtype=np.float64))
small_span = st.integers(0, 6).map(float)


@st.composite
def click_streams(draw):
    n_pixels = draw(st.integers(1, 4))
    times = draw(sorted_times)
    pixels = draw(st.lists(st.integers(0, n_pixels - 1),
                           min_size=len(times), max_size=len(times)))
    return np.array(pixels, dtype=np.int64), times, n_pixels


class TestGreedySemantics:
    """Behavioral contract of the two kernels."""

    def test_each_partner_used_once(self):
        trig = np.array([0.0, 1.0, 2.0])
        part = np.array([0.9])
        match = kernels.pair_pulses(trig, part, 5.0)
        assert (match >= 0).sum() == 1

    def test_window_is_inclusive(self):
        match = kernels.pair_pulses(np.array([0.0]), np.array([1.0]), 1.0)
        assert match[0] == 0

    def test_outside_window_unmatched(self):
        match = kernels.pair_pulses(np.array([0.0]), np.array([1.01]), 1.0)
        assert match[0] == -1

    def test_tie_break_is_earliest_index(self):
        trig = np.array([10.0])
        part = np.array([9.0, 11.0])  # equidistant
        assert list(kernels.pair_pulses(trig, part, 2.0)) == [0]

    def test_dead_time_filter_counts(self):
        pixels = np.array([0, 0, 1, 0], dtype=np.int64)
        times = np.array([0.0, 5e-9, 6e-9, 30e-9])
        keep = kernels.dead_time_filter(pixels, times, 20e-9)
        assert list(keep) == [True, False, True, True]

    def test_dead_time_ties_and_boundaries(self):
        pixels = np.zeros(6, dtype=np.int64)
        times = np.array([0.0, 0.0, 10e-9, 20e-9, 20e-9, 40e-9])
        keep = kernels.dead_time_filter(pixels, times, 20e-9)
        # first of a tie registers, the duplicate is blocked; a gap of
        # exactly the dead time registers
        assert list(keep) == [True, False, False, True, False, True]

    def test_backend_reported(self):
        assert kernels.BACKEND == "python"


class TestKernelProperties:
    @settings(deadline=None)
    @given(click_streams(), small_span)
    def test_dead_time_filter(self, stream, dead_time):
        pixels, times, _ = stream
        keep = kernels.dead_time_filter(pixels, times, dead_time)
        assert keep.dtype == bool and keep.shape == times.shape
        last = {}
        for p, t, registered in zip(pixels, times, keep):
            if registered:
                # every registered same-pixel gap is at least the dead time
                assert p not in last or t - last[p] >= dead_time
                last[p] = t
            else:
                # a blocked event falls inside the last registered dead window
                assert p in last and t - last[p] < dead_time

    @settings(deadline=None)
    @given(sorted_times, sorted_times, small_span)
    def test_pair_pulses(self, trig, part, window):
        match = kernels.pair_pulses(trig, part, window)
        assert match.dtype == np.int64 and match.shape == trig.shape
        used = match[match >= 0]
        assert len(set(used.tolist())) == used.size
        for i, j in enumerate(match):
            if j >= 0:
                assert abs(part[j] - trig[i]) <= window
        free = np.ones(part.size, dtype=bool)
        free[used] = False
        for i in np.flatnonzero(match < 0):
            near = np.abs(part - trig[i]) <= window
            assert not (near & free).any()


class TestDeadTimeFilterParity:
    """The vectorized dead-time filter returns the loop's mask exactly."""

    @settings(deadline=None, max_examples=300)
    @given(click_streams(), small_span)
    def test_matches_reference_loop(self, stream, dead_time):
        pixels, times, n_pixels = stream
        got = kernels.dead_time_filter(pixels, times, dead_time)
        want = reference_impl.dead_time_filter(pixels, times, n_pixels,
                                               dead_time)
        assert got.dtype == want.dtype == bool
        np.testing.assert_array_equal(got, want)
        # the detector passes uint8 labels, which numpy sorts by radix
        np.testing.assert_array_equal(
            kernels.dead_time_filter(pixels.astype(np.uint8), times,
                                     dead_time), want)

    @settings(deadline=None)
    @given(st.lists(click_streams(), min_size=1, max_size=5), small_span)
    def test_groups_sorted_only_within(self, streams, dead_time):
        # any integer labels a group: one group per (window, pixel), times
        # sorted within each window only, equals one loop call per window
        n_pixels = 4
        groups = np.concatenate([w * n_pixels + p
                                 for w, (p, _, _) in enumerate(streams)])
        times = np.concatenate([t for _, t, _ in streams])
        got = kernels.dead_time_filter(groups, times, dead_time)
        want = np.concatenate([
            reference_impl.dead_time_filter(p, t, n_pixels, dead_time)
            for p, t, _ in streams])
        np.testing.assert_array_equal(got, want)

    def test_burst_steps_back_past_blocked_events(self):
        # 0 registers; 1..3 are blocked by it; 4 is 4 after 0 and registers
        # although each gap is 1; 7 is blocked by 4 and 9 registers
        pixels = np.zeros(7, dtype=np.int64)
        times = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 7.0, 9.0])
        keep = kernels.dead_time_filter(pixels, times, 4.0)
        assert list(keep) == [True, False, False, False, True, False, True]


# times on a small integer grid against windows of a few units: most
# partners sit in several trigger windows, and ties and exact edges abound
dense_times = st.lists(st.integers(0, 12), max_size=30).map(
    lambda ts: np.array(sorted(ts), dtype=np.float64))


class TestPairPulsesParity:
    """The vectorized kernel returns the greedy loop's result exactly."""

    @settings(deadline=None, max_examples=300)
    @given(dense_times, dense_times, st.integers(0, 4).map(float))
    def test_matches_reference_loop(self, trig, part, window):
        got = kernels.pair_pulses(trig, part, window)
        want = reference_impl.pair_pulses(trig, part, window)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_saturated_decode_passes(self, monkeypatch):
        # record the pairing passes of a real decode at 30 photons/window
        passes = []

        def recording(trig, part, window):
            passes.append((trig.copy(), part.copy(), window))
            return reference_impl.pair_pulses(trig, part, window)

        monkeypatch.setattr(readout, "pair_pulses", recording)
        simulate_stream(config_from_dict(
            "counting", {"mean_photon_number": 30.0, "windows": 300}, seed=1))
        # one pass per slot (16 pixels, 2 padding slots at each end), over
        # the pulses whose candidates are contested
        assert len(passes) == 20
        contested = 0
        for trig, part, window in passes:
            lo = np.searchsorted(part, trig - window, side="left")
            hi = np.searchsorted(part, trig + window, side="right")
            # a trigger with several candidates, or sharing one with the next
            contested += int((hi - lo > 1).sum() + (hi[:-1] > lo[1:]).sum())
            np.testing.assert_array_equal(
                kernels.pair_pulses(trig, part, window),
                reference_impl.pair_pulses(trig, part, window))
        assert contested > 0  # the greedy fallback ran, not only the fast path
