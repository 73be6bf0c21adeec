"""Contract tests for the event-stream kernels."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

import reference_impl
from qgalton import detector, kernels, readout
from qgalton.experiments import config_from_dict, simulate_stream

# integer-valued times make exact ties and exact dead-time boundaries
# common, which is where the sequential rule is easiest to get wrong
sorted_times = st.lists(st.integers(0, 30), max_size=40).map(
    lambda ts: np.array(sorted(ts), dtype=np.float64))
small_span = st.integers(0, 6).map(float)
# (trigger, partner) candidates over a few pulses each, in any order
candidate_pairs = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                           max_size=40)


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
        # three triggers contest one partner: the first candidate takes it
        taken = kernels.pair_pulses(np.array([0, 1, 2]), np.array([0, 0, 0]))
        assert taken.tolist() == [0]

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
    @given(candidate_pairs)
    @example([])
    def test_pair_pulses(self, pairs):
        trig = np.array([i for i, _ in pairs], dtype=np.int64)
        part = np.array([j for _, j in pairs], dtype=np.int64)
        taken = kernels.pair_pulses(trig, part)
        assert taken.dtype == np.int64
        assert (np.diff(taken) > 0).all()
        is_taken = np.zeros(len(pairs), dtype=bool)
        is_taken[taken] = True
        for k, (i, j) in enumerate(pairs):
            earlier = is_taken[:k]
            # a candidate is taken iff neither pulse was taken before it
            shares = ((trig[:k][earlier] == i) | (part[:k][earlier] == j)).any()
            assert is_taken[k] != shares


class TestDeadTimeFilterParity:
    """The vectorized dead-time filter returns the loop's mask exactly."""

    @settings(deadline=None, max_examples=300)
    @given(click_streams(), small_span)
    # one pixel at 0.4 dead-time spacing: one long run of close events in
    # which every third event registers
    @example((np.zeros(16, dtype=np.int64), np.arange(16) * 2.0, 1), 5.0)
    # runs of close events right after a pixel's first event, on two
    # pixels interleaved, the second run ending in a registered event
    @example((np.array([0, 1, 0, 1, 0, 1, 0, 1, 1]),
              np.array([3.0, 3.0, 4.0, 4.0, 5.0, 5.0, 6.0, 6.0, 7.0]), 2),
             4.0)
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

    def test_chain_heavy_record(self, monkeypatch):
        # at 200 photons per window and a 200 ns dead time most events
        # follow a blocked event on their pixel, in long runs
        calls = []

        def recording(labels, times, dead_time):
            keep = kernels.dead_time_filter(labels, times, dead_time)
            calls.append((labels.tolist(), times.tolist(), dead_time, keep))
            return keep

        monkeypatch.setattr(detector, "dead_time_filter", recording)
        simulate_stream(config_from_dict(
            "counting", {"mean_photon_number": 200.0, "windows": 2000,
                         "dead_time_ns": 200.0}, seed=1))
        (labels, times, dead_time, keep), = calls
        assert keep.sum() < len(times) / 2
        np.testing.assert_array_equal(
            keep, reference_impl.dead_time_filter(labels, times, 16,
                                                  dead_time))

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
    """The walk over one slot's candidates, ordered by trigger, distance
    and partner, pairs as the nearest-in-window greedy loop."""

    @settings(deadline=None, max_examples=300)
    @given(dense_times, dense_times, st.integers(0, 4).map(float))
    def test_matches_reference_loop(self, trig, part, window):
        dist = np.abs(part[None, :] - trig[:, None])
        cand_trig, cand_part = np.nonzero(dist <= window)
        cand_dist = dist[cand_trig, cand_part]
        order = np.lexsort((cand_part, cand_dist, cand_trig))
        taken = order[kernels.pair_pulses(cand_trig[order], cand_part[order])]
        got = np.full(trig.size, -1, dtype=np.int64)
        got[cand_trig[taken]] = cand_part[taken]
        np.testing.assert_array_equal(
            got, reference_impl.pair_pulses(trig, part, window))

    def test_saturated_decode_passes(self, monkeypatch):
        # record the pairing walks of a real decode at 30 photons/window
        walks = []

        def recording(trig, part):
            walks.append(trig.size)
            return kernels.pair_pulses(trig, part)

        monkeypatch.setattr(readout, "pair_pulses", recording)
        simulate_stream(config_from_dict(
            "counting", {"mean_photon_number": 30.0, "windows": 300}, seed=1))
        # one walk, over candidates that contest a pulse
        assert len(walks) == 1 and walks[0] > 0
        # a decode with nothing contested still walks once
        readout.decode(readout.TraceEvents(np.array([]), np.array([])),
                       readout.LineConfig())
        assert walks[1:] == [0]
