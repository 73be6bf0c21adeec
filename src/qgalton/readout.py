"""Delay-line multiplexed readout.

All pixels share one output line.  A click on pixel p produces two pulses
of opposite polarity that travel to the ends of a tapped delay line: the
trigger-polarity pulse leaves after p segment delays, the counter pulse
after (P-1-p), each attenuated per segment traversed.  The pulse-pair
spacing therefore encodes the pixel,

    t_counter - t_trigger = (P - 1 - 2 p) * segment_delay,

a distinct odd multiple of the segment delay per pixel, stepping by twice
the segment delay between neighbours.  The pair midpoint sits half the
line span after the click, so the click time is recovered from the pair
without knowing the pixel first.

Decoding pairs pulses only at the expected spacings (nearest-match pairing
at a tight tolerance around each pixel slot), which keeps accidental
cross-pairings between clicks that overlap on the line to coincidences at
the tolerance scale instead of coincidences at the line-span scale.  One
walk over (trigger, counter pulse) pairs, shared with the persistence
overlay, finds every pair whose spacing fits a slot; a pair that shares no
pulse with another candidate is taken at once, and only the contested
candidates go through `kernels.pair_pulses`, one greedy walk in scan,
trigger and distance order.
`_time_order` splits the trace by polarity for both decode and the
overlay, and `LineConfig.pixel_of` is the one spacing-to-pixel rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .detector import DetectionRecords
from .errors import InvalidArgumentError, ResourceLimitError
from .kernels import non_decreasing, pair_pulses, searchsorted_sorted

FLAG_OK = 0
FLAG_ORPHAN_NEGATIVE = 1
FLAG_ORPHAN_POSITIVE = 2
FLAG_PIXEL_OUT_OF_RANGE = 3
FLAG_NAMES = ("ok", "orphan_negative", "orphan_positive", "pixel_out_of_range")
FLAG_TEXT = np.array(FLAG_NAMES, dtype=object)  # indexed by flag code


def flag_summary(flags: np.ndarray) -> dict:
    """How many events carry each flag, keyed by flag name."""
    counts = np.bincount(flags, minlength=len(FLAG_NAMES))
    return dict(zip(FLAG_NAMES, counts.tolist()))


# pairing tolerance: pulse pairs from one click have spacing set by passive
# line lengths, so the residual budget only covers arithmetic noise
DEFAULT_TOLERANCE = 10e-12
# the largest |time| a trace may hold, about 1,407 s: float64 seconds out to
# here resolve the tolerance to 1/44, and pairing tests one slot per pair
MAX_TRACE_TIME = 2**47 * DEFAULT_TOLERANCE
# slots scanned beyond each end of the line, to flag pixel_out_of_range pairs
SLOT_PAD = 2


@dataclass(frozen=True)
class LineConfig:
    """Delay-line geometry and pulse shaping.

    segment_delay is the per-tap delay in seconds; attenuation_per_segment
    multiplies the amplitude once per segment traversed.  trigger_polarity
    names the polarity of the pulse that leaves through the near end.
    The values are taken as given, checked by `experiments.check_value`.
    """

    segment_delay: float = 0.9e-9
    pixel_count: int = 16
    attenuation_per_segment: float = 0.97
    base_amplitude: float = 1.0
    trigger_polarity: str = "negative"

    @property
    def span(self) -> float:
        """End-to-end line delay, (pixel_count - 1) segments."""
        return (self.pixel_count - 1) * self.segment_delay

    def slot_delay(self, pixel) -> np.ndarray | float:
        """Expected counter-minus-trigger spacing for a pixel index."""
        return (self.pixel_count - 1 - 2 * np.asarray(pixel)) * self.segment_delay

    def pixel_of(self, spacing) -> np.ndarray | float:
        """The slot whose spacing is nearest, as a float: slot_delay's
        inverse, unbounded, so a spacing off the line names a padding slot
        or one beyond."""
        return np.rint(0.5 * ((self.pixel_count - 1)
                              - np.asarray(spacing) / self.segment_delay))


@dataclass
class TraceEvents:
    """Pulses on the readout line, sorted by time.

    amplitudes are signed (polarity is the sign).  origin_ids track which
    detector click produced each pulse, -1 when unknown; real hardware has
    no such channel, it exists for validation.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    origin_ids: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.amplitudes = np.asarray(self.amplitudes, dtype=float)
        if self.origin_ids is None:
            self.origin_ids = np.full(self.times.shape, -1, dtype=np.int64)
        else:
            self.origin_ids = np.asarray(self.origin_ids, dtype=np.int64)
        if not (self.times.shape == self.amplitudes.shape == self.origin_ids.shape):
            raise InvalidArgumentError("trace arrays must have equal length")

    def __len__(self):
        return self.times.size


@dataclass
class DecodedEvents:
    """Decoder output, one row per pulse pair or orphan pulse.

    pixels is -1 for orphans and carries the (possibly illegal) slot index
    for pairs; origin_times is nan for orphans; flags holds FLAG_* codes;
    trigger_index / partner_index point into the decoded trace, -1 where
    that pulse is absent.
    """

    pixels: np.ndarray
    origin_times: np.ndarray
    flags: np.ndarray
    trigger_index: np.ndarray
    partner_index: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.int64)
        self.origin_times = np.asarray(self.origin_times, dtype=float)
        self.flags = np.asarray(self.flags, dtype=np.int8)
        self.trigger_index = np.asarray(self.trigger_index, dtype=np.int64)
        self.partner_index = np.asarray(self.partner_index, dtype=np.int64)

    def __len__(self):
        return self.pixels.size

    @property
    def ok(self) -> np.ndarray:
        return self.flags == FLAG_OK


def encode(records: DetectionRecords, config: LineConfig) -> TraceEvents:
    """Turn detector clicks into the pulse train on the shared line."""
    pixels, times = records.pixels, records.times
    if np.any(pixels < 0) or np.any(pixels >= config.pixel_count):
        raise InvalidArgumentError(
            f"record pixels must lie in [0, {config.pixel_count})"
        )
    delta = config.segment_delay
    alpha = config.attenuation_per_segment
    last = config.pixel_count - 1
    sign = _trigger_sign(config)
    # each pixel's two amplitudes, one power per pixel rather than per
    # pulse; gathered per pulse they keep the bits of the per-pulse product
    taps = np.arange(config.pixel_count)
    trig_amp = sign * config.base_amplitude * alpha**taps
    ctr_amp = -sign * config.base_amplitude * alpha ** (last - taps)

    n = times.size
    all_times = np.empty(2 * n)
    np.add(times, pixels * delta, out=all_times[:n])
    np.add(times, (last - pixels) * delta, out=all_times[n:])
    all_amps = np.empty(2 * n)
    np.take(trig_amp, pixels, out=all_amps[:n])
    np.take(ctr_amp, pixels, out=all_amps[n:])
    ids = np.arange(n, dtype=np.int64)
    all_ids = np.concatenate([ids, ids])
    order = np.argsort(all_times, kind="stable")
    return TraceEvents(all_times[order], all_amps[order], all_ids[order])


def _trigger_sign(config: LineConfig) -> float:
    return -1.0 if config.trigger_polarity == "negative" else 1.0


def _time_order(trace: TraceEvents, config: LineConfig):
    """The trace split by polarity, each side in stable time order: trigger
    pulse positions in the trace and their times, then counter pulse
    positions and their times.  Zero-amplitude pulses and times past
    +/- MAX_TRACE_TIME are refused.

    A trace already in time order, as `encode` gives it, is split as it
    stands; any other, such as decode-trace input, is stably sorted
    first."""
    if np.any(trace.amplitudes == 0.0):
        raise InvalidArgumentError("trace contains zero-amplitude pulses")
    times = trace.times
    if not np.all(np.abs(times) <= MAX_TRACE_TIME):
        raise InvalidArgumentError(
            f"trace times must lie within +/-{MAX_TRACE_TIME:g} s")
    is_trig = np.sign(trace.amplitudes) == _trigger_sign(config)
    if non_decreasing(times):
        trig_pos, part_pos = np.flatnonzero(is_trig), np.flatnonzero(~is_trig)
    else:
        order = np.argsort(times, kind="stable")
        is_trig = is_trig[order]
        trig_pos, part_pos = order[is_trig], order[~is_trig]
    return trig_pos, times[trig_pos], part_pos, times[part_pos]


def _scan_ranks(pixel_count: int) -> np.ndarray:
    """Each slot's place in the order pairing visits them, at slot +
    SLOT_PAD: the legal slots, then SLOT_PAD slots beyond each end of the
    line, alternating outward.  The ranks fit uint8: experiments.check_value
    bounds pixel_count at 124, so a line has at most 124 + 2 * SLOT_PAD
    slots."""
    scan = list(range(pixel_count))
    for k in range(1, SLOT_PAD + 1):
        scan.append(-k)
        scan.append(pixel_count - 1 + k)
    ranks = np.empty(len(scan), dtype=np.uint8)
    ranks[np.array(scan) + SLOT_PAD] = np.arange(len(scan))
    return ranks


# pairs a walk holds at once: at under 100 bytes each, a denser trace takes
# more blocks, not more memory, and at 30 photons per window decode runs
# faster than on one block of every pair
_BLOCK = 1 << 14


def _pairs_within(trig_times, part_times, reach):
    """The number of (trigger, partner) pairs no more than reach apart, and
    a generator of them: trigger and partner index arrays, in blocks of
    about _BLOCK pairs, by trigger and then partner.  Both times must be
    sorted; only two entries per trigger live through the blocks."""
    lo = searchsorted_sorted(part_times, trig_times - reach, "left")
    ends = np.cumsum(searchsorted_sorted(part_times, trig_times + reach,
                                         "right") - lo)

    def blocks():
        start = 0
        while start < trig_times.size:
            before = int(ends[start - 1]) if start else 0
            stop = max(int(np.searchsorted(ends, before + _BLOCK, "right")),
                       start + 1)
            n_pair = np.diff(ends[start:stop], prepend=before)
            yield (np.repeat(np.arange(start, stop), n_pair),
                   np.arange(before, ends[stop - 1])
                   - np.repeat(ends[start:stop] - n_pair - lo[start:stop],
                               n_pair))
            start = stop

    return int(ends[-1]) if ends.size else 0, blocks()


def _candidates(trig_times, part_times, config: LineConfig, slot_delays):
    """Every (trigger, partner, slot) whose spacing passes that slot's
    pairing test, as four arrays: trigger and partner indices, slots and
    distances.

    The test is the window around the slot's spacing: t = trigger + slot
    delay, then t - DEFAULT_TOLERANCE <= partner <= t + DEFAULT_TOLERANCE
    in floating point, and the distance is |partner - t|.  slot_delays
    holds the delay of slot s at s + SLOT_PAD.
    """
    n_pix = config.pixel_count
    far = (n_pix - 1 + 2 * SLOT_PAD) * config.segment_delay
    # a pair passes a slot's test at most this far off the slot's exact
    # spacing: the tolerance plus rounding at the pair's times, under four
    # ulp of 2 * (|trigger| + far + tolerance); an ulp of x is at most
    # 2**-52 * x, and this takes eight.  At |trigger| <= MAX_TRACE_TIME it
    # is 1.5 tolerances + 2**-48 * (far + tolerance), under 0.38 of the
    # 2 * delta between slots once delta is over twice the tolerance, so a
    # pair passes at most the slot nearest its spacing
    slack = DEFAULT_TOLERANCE + 2.0**-48 * (MAX_TRACE_TIME + far
                                            + DEFAULT_TOLERANCE)
    found = [(np.empty(0, np.int64),) * 3 + (np.empty(0),)]
    for cand_trig, cand_part in _pairs_within(trig_times, part_times,
                                              far + slack)[1]:
        trig_c = trig_times[cand_trig]
        part_c = part_times[cand_part]
        slot = np.clip(config.pixel_of(part_c - trig_c),
                       -SLOT_PAD, n_pix - 1 + SLOT_PAD).astype(np.int64)
        t = trig_c + slot_delays[slot + SLOT_PAD]
        hit = np.flatnonzero((t - DEFAULT_TOLERANCE <= part_c)
                             & (part_c <= t + DEFAULT_TOLERANCE))
        found.append((cand_trig[hit], cand_part[hit], slot[hit],
                      np.abs(part_c[hit] - t[hit])))
    return tuple(np.concatenate(c) for c in zip(*found))


def _pair(trig_times, part_times, config: LineConfig):
    """The pairs decode takes, as trigger indices, partner indices and
    slots, in trigger order.

    Slots go in `_scan_ranks` order; within a slot, triggers in time
    order each take the nearest free partner, the earliest on a tie.  A
    candidate whose trigger and partner have no other candidate is taken
    at once.  The rest are contested: sorted by (scan rank, trigger,
    distance, partner), they go through one `pair_pulses` walk, which runs
    once per decode even with nothing contested.
    """
    slot_delays = config.slot_delay(
        np.arange(-SLOT_PAD, config.pixel_count + SLOT_PAD))
    cand_trig, cand_part, cand_slot, cand_dist = _candidates(
        trig_times, part_times, config, slot_delays)
    # the uncontested candidates: their trigger and partner have one each
    chosen = np.bincount(cand_trig, minlength=trig_times.size)[cand_trig] == 1
    chosen &= np.bincount(cand_part, minlength=part_times.size)[cand_part] == 1
    cand_rank = _scan_ranks(config.pixel_count)[cand_slot + SLOT_PAD]

    contested = np.flatnonzero(~chosen)
    contested = contested[np.lexsort((
        cand_part[contested], cand_dist[contested], cand_trig[contested],
        cand_rank[contested]))]
    del cand_dist  # freed before the taken pairs are gathered
    chosen[contested[pair_pulses(cand_trig[contested],
                                 cand_part[contested])]] = True
    # candidates run in trigger order, and a trigger is taken at most once
    taken = np.flatnonzero(chosen)
    return cand_trig[taken], cand_part[taken], cand_slot[taken]


def decode(trace: TraceEvents, config: LineConfig) -> DecodedEvents:
    """Recover clicks (pixel, time) from the pulse train.

    A trigger pulse and a counter pulse pair in pixel slot s when their
    spacing lies within DEFAULT_TOLERANCE of that slot's expected spacing.
    Slots are visited in scan order, the legal slots first, then SLOT_PAD
    slots beyond each end of the line; in each, triggers take the nearest
    free counter pulse in trigger order.  One walk tests each pair within
    the line's reach against the slot nearest its spacing; a pair that
    shares no pulse with another candidate is taken at once, and the
    contested rest go through one ordered `pair_pulses` walk.  Times past
    MAX_TRACE_TIME are refused.  A pair in a padding slot names no
    physical pixel, so it is flagged pixel_out_of_range.  Unmatched pulses
    come back as orphans.  Rows are sorted by origin time (a pulse time
    for orphans), in one stable sort of the pairs in trigger order and then
    the orphans.  Rows of equal time go in scan order, then trigger order,
    then trigger orphans, then counter orphans: the sort gives every order
    but the first, and pairs of equal origin, which a run seldom has, are
    put in scan order after it.
    """
    trig_pos, trig_times, part_pos, part_times = _time_order(trace, config)
    n_pix = config.pixel_count
    p_trig, p_part, p_slot = _pair(trig_times, part_times, config)
    used = np.zeros(trig_times.size, dtype=bool)
    used[p_trig] = True
    lone_trig = np.flatnonzero(~used)
    used = np.zeros(part_times.size, dtype=bool)
    used[p_part] = True
    lone_part = np.flatnonzero(~used)

    # rows: the pairs in trigger order, then unpaired triggers, then
    # unpaired counter pulses; in trigger order the pairs' origins are
    # nearly sorted already, which the stable sort runs through fast
    n_lone = lone_trig.size + lone_part.size
    origin = 0.5 * (trig_times[p_trig] + part_times[p_part]) - 0.5 * config.span
    negative = _trigger_sign(config) < 0
    flags = np.concatenate([
        np.where((p_slot >= 0) & (p_slot < n_pix), FLAG_OK,
                 FLAG_PIXEL_OUT_OF_RANGE),
        np.full(lone_trig.size, FLAG_ORPHAN_NEGATIVE if negative
                else FLAG_ORPHAN_POSITIVE),
        np.full(lone_part.size, FLAG_ORPHAN_POSITIVE if negative
                else FLAG_ORPHAN_NEGATIVE)], dtype=np.int8)
    order = np.argsort(np.concatenate([origin, trig_times[lone_trig],
                                       part_times[lone_part]]), kind="stable")
    origin_times = np.concatenate([origin, np.full(n_lone, np.nan)])[order]
    # freed before the columns are gathered, which is a saturated run's
    # peak of memory
    del trig_times, part_times, origin
    # orphans are nan, so only pairs tie here, and the stable sort left
    # each run of equal origins next to each other in trigger order
    tie = np.flatnonzero(origin_times[1:] == origin_times[:-1])
    if tie.size:
        _scan_ties(order, tie, p_slot, n_pix)
    return DecodedEvents(
        pixels=np.concatenate([p_slot, np.full(n_lone, -1)])[order],
        origin_times=origin_times,
        flags=flags[order],
        trigger_index=np.concatenate([trig_pos[p_trig], trig_pos[lone_trig],
                                      np.full(lone_part.size, -1)])[order],
        partner_index=np.concatenate([part_pos[p_part],
                                      np.full(lone_trig.size, -1),
                                      part_pos[lone_part]])[order],
    )


def _scan_ties(order, tie, slots, pixel_count):
    """Apply decode's tie rule to pairs of equal origin, in place.

    ``order`` sorts decode's rows stably by time, the pairs first and in
    trigger order, ``slots`` holds each pair's slot, and row ``order[i]``
    ties with ``order[i + 1]`` for each i in ``tie``.  Each run of tied
    rows is put in scan order of its slots, trigger order kept within a
    slot."""
    rows = np.union1d(tie, tie + 1)
    run = np.cumsum(~np.isin(rows - 1, tie))
    ranks = _scan_ranks(pixel_count)[slots[order[rows]] + SLOT_PAD]
    order[rows] = order[rows][np.lexsort((ranks, run))]


# pairs persistence_trace overlays at once, each about 43 bytes at its peak;
# pairs per trigger grow with the click rate, so memory grows with its square
MAX_OVERLAY_PAIRS = 2**23


@dataclass
class PersistenceResult:
    """Trigger-aligned overlay of counter pulses.

    bin_edges / bin_counts give the delay histogram over the sweep span;
    mean_amplitudes is per delay bin (nan where empty).  The peak_* columns
    hold one entry per cluster that survived the occupancy threshold, in
    increasing delay: its median delay and amplitude, its member count,
    and that count per sweep as its weight.
    """

    bin_edges: np.ndarray
    bin_counts: np.ndarray
    mean_amplitudes: np.ndarray
    peak_delays: np.ndarray
    peak_amplitudes: np.ndarray
    peak_counts: np.ndarray
    peak_weights: np.ndarray
    n_triggers: int
    n_overlaid: int


def persistence_trace(trace: TraceEvents, config: LineConfig,
                      bin_width: float = 0.1e-9,
                      min_cluster: Optional[int] = None) -> PersistenceResult:
    """Build a persistence view by overlaying sweeps around every trigger.

    Every trigger-polarity pulse starts a sweep; all counter-polarity
    pulses within the line span (plus one slot of margin) are overlaid at
    their delay from the trigger.  True pairs pile up at the slot delays
    while unrelated clicks leave a thin haze, so clusters below
    min_cluster members (default max(5, 0.1% of sweeps)) are discarded.
    More than MAX_OVERLAY_PAIRS pairs are refused, with ResourceLimitError,
    before any is built, as are times past +/- MAX_TRACE_TIME; a run's
    config has checked bin_width.
    """
    _, trig_times, part_pos, part_times = _time_order(trace, config)
    part_amps = trace.amplitudes[part_pos]

    reach = config.span + 2.0 * config.segment_delay
    n_trig = trig_times.size
    if min_cluster is None:
        min_cluster = max(5, int(round(1e-3 * n_trig)))

    total, blocks = _pairs_within(trig_times, part_times, reach)
    if total > MAX_OVERLAY_PAIRS:
        raise ResourceLimitError(
            f"{total} (trigger, counter pulse) pairs to overlay: limit is "
            f"{MAX_OVERLAY_PAIRS}; lower mean_photon_number or windows")
    overlay = [(np.empty(0), np.empty(0))] + [
        (part_times[p] - trig_times[t], part_amps[p]) for t, p in blocks]
    delays, amplitudes = map(np.concatenate, zip(*overlay))
    del overlay

    edges = np.arange(-reach, reach + bin_width, bin_width)
    bin_counts, _ = np.histogram(delays, bins=edges)
    amp_sums, _ = np.histogram(delays, bins=edges, weights=amplitudes)
    with np.errstate(invalid="ignore"):
        mean_amps = np.where(bin_counts > 0, amp_sums / np.maximum(bin_counts, 1),
                             np.nan)

    # clusters are runs of sorted delays no more than a bin apart, so their
    # medians already increase
    srt = np.argsort(delays, kind="stable")
    breaks = np.nonzero(np.diff(delays[srt]) > bin_width)[0] + 1
    clusters = [c for c in np.split(srt, breaks)
                if c.size and c.size >= min_cluster]
    peak_counts = np.array([c.size for c in clusters], dtype=np.int64)
    return PersistenceResult(
        bin_edges=edges,
        bin_counts=bin_counts,
        mean_amplitudes=mean_amps,
        peak_delays=np.array([np.median(delays[c]) for c in clusters],
                             dtype=float),
        peak_amplitudes=np.array([np.median(amplitudes[c]) for c in clusters],
                                 dtype=float),
        peak_counts=peak_counts,
        # weight against sweep count: each sweep holds exactly one true
        # partner, so this estimates the pixel probability
        peak_weights=peak_counts / float(max(n_trig, 1)),
        n_triggers=n_trig,
        n_overlaid=total,
    )
