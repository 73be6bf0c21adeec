"""Contract tests for the event-stream kernels."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qgalton import kernels

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
        keep = kernels.dead_time_filter(pixels, times, 2, 20e-9)
        assert list(keep) == [True, False, True, True]

    def test_dead_time_ties_and_boundaries(self):
        pixels = np.zeros(6, dtype=np.int64)
        times = np.array([0.0, 0.0, 10e-9, 20e-9, 20e-9, 40e-9])
        keep = kernels.dead_time_filter(pixels, times, 1, 20e-9)
        # first of a tie registers, the duplicate is blocked; a gap of
        # exactly the dead time registers
        assert list(keep) == [True, False, False, True, False, True]

    def test_backend_reported(self):
        assert kernels.BACKEND == "python"


class TestKernelProperties:
    @settings(deadline=None)
    @given(click_streams(), small_span)
    def test_dead_time_filter(self, stream, dead_time):
        pixels, times, n_pixels = stream
        keep = kernels.dead_time_filter(pixels, times, n_pixels, dead_time)
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
