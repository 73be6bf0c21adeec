"""Reference implementations that the vectorized code must reproduce exactly.

These are the original forms: the walk on complex amplitudes, the
dead-time and greedy pulse-pairing loops, the slot-by-slot decoder, a
plain loop that runs the whole record through the detector one event at a
time, a run's photon draws made window by window on fresh generators and
its detector draws (efficiency, dark counts, jitter) on a fresh generator
of the noise stream, the row-by-row CSV tables, and golden section on one
bracket in scalars.  The package replaced them with real-valued or
vectorized forms; the parity tests compare the two element for element.
"""

import math
from types import SimpleNamespace

import numpy as np

from qgalton.readout import (
    DEFAULT_TOLERANCE,
    FLAG_NAMES,
    FLAG_OK,
    FLAG_ORPHAN_NEGATIVE,
    FLAG_ORPHAN_POSITIVE,
    FLAG_PIXEL_OUT_OF_RANGE,
    SLOT_PAD,
    DecodedEvents,
)
from qgalton.walk import bin_probabilities


def complex_bin_probabilities(stages, t_squared, input_port="left"):
    """The coupler recurrence on complex amplitudes, one row at a time.

    Each coupler maps (left, right) to (t*left + i*r*right, i*r*left +
    t*right); coupler j of the next row takes the right output of coupler
    j-1 on its left and the left output of coupler j on its right.
    Returns (len(t_squared), 2*stages) probabilities |amplitude|**2.
    """
    x = np.atleast_1d(np.asarray(t_squared, dtype=np.float64))
    t = np.sqrt(x)
    ir = 1j * np.sqrt(1.0 - x)
    in_l = np.zeros((stages, x.size), dtype=np.complex128)
    in_r = np.zeros((stages, x.size), dtype=np.complex128)
    (in_l if input_port == "left" else in_r)[0] = 1.0
    for row in range(1, stages + 1):
        left, right = in_l[:row], in_r[:row]
        out_l = t * left + ir * right
        out_r = ir * left + t * right
        if row < stages:
            in_r[:row] = out_l
            in_l[1:row + 1] = out_r
            in_l[0] = 0.0
    probs = np.empty((x.size, 2 * stages))
    probs[:, 0::2] = (out_l.real ** 2 + out_l.imag ** 2).T
    probs[:, 1::2] = (out_r.real ** 2 + out_r.imag ** 2).T
    return probs


def golden_minimize(f, lo, hi, iterations):
    """Golden section on one bracket [lo, hi] of a scalar function f.

    The textbook form: the interior probe a step keeps carries its position
    and value into the next step, and each step but the last places one new
    probe a fraction 1/phi of the new bracket in from its far end.  After
    ``iterations`` steps, the bracket's midpoint.
    """
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1, x2 = b - g * (b - a), a + g * (b - a)
    f1, f2 = f(x1), f(x2)
    for step in range(iterations):
        last = step == iterations - 1
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            if not last:
                x1 = b - g * (b - a)
                f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            if not last:
                x2 = a + g * (b - a)
                f2 = f(x2)
    return 0.5 * (a + b)


def dead_time_filter(pixels, times, n_pixels, dead_time):
    """Mask of events that register under a non-paralyzable dead time.

    Events must be sorted by time.  An event on pixel p at time t registers
    iff t - (last registered time on p) >= dead_time; blocked events do not
    extend the dead window.
    """
    n = len(times)
    keep = np.zeros(n, dtype=bool)
    last = [-np.inf] * n_pixels
    for i in range(n):
        p = pixels[i]
        if times[i] - last[p] >= dead_time:
            keep[i] = True
            last[p] = times[i]
    return keep


def window_rng(master_seed, window_index):
    """Per-window Philox generator keyed on (seed, window), built directly."""
    key = int(master_seed) | (int(window_index) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_arrivals(mean_photon_number, window, rng):
    """One window of sorted arrival times."""
    n = int(rng.poisson(mean_photon_number))
    return np.sort(rng.uniform(0.0, window, size=n))


def assign_bins(n, probabilities, rng):
    """One output bin per photon, drawn from the walk distribution."""
    cdf = np.cumsum(probabilities)
    cdf[-1] = 1.0
    u = rng.random(n)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def draw_windows(config):
    """The photon draws of a run, each window on a fresh generator of its
    own stream and each part as a draw of its own: the doubles that
    `experiments._draw_windows` takes as one ``(2, n)`` block per window.
    Returns the photons' in-window arrival times, the photon count of
    each window and the bin uniforms.  Each kind is a concatenation of
    the windows' draws in window order."""
    kinds = {name: [np.empty(0)] for name in ("arrivals", "uniforms")}
    kinds["counts"] = [np.empty(0, dtype=np.int64)]
    for w in range(config.windows):
        rng = window_rng(config.seed, w)
        n = int(rng.poisson(config.mean_photon_number))
        kinds["arrivals"].append(rng.uniform(0.0, config.window, size=n))
        kinds["uniforms"].append(rng.random(n))
        kinds["counts"].append([n])
    return {name: np.concatenate(parts) for name, parts in kinds.items()}


def noise_rng(master_seed):
    """The run's detector-noise stream: the stream of window 2**64 - 1."""
    return window_rng(master_seed, 2**64 - 1)


def survivors(config, rng, n):
    """Which of n photons survive the efficiency, in the photons' order:
    below unit efficiency, those whose uniform, one each drawn from the
    noise stream ``rng``, lies below it; at unit efficiency all of them,
    with nothing drawn."""
    if config.efficiency >= 1.0:
        return [True] * n
    return (rng.random(n) < config.efficiency).tolist()


def dark_counts(config, rng, duration):
    """The dark counts of the record [0, duration), drawn from the noise
    stream ``rng`` as (time, pixel) pairs."""
    if config.dark_count_rate <= 0.0:
        return []
    mean = config.dark_count_rate * config.pixel_count * duration
    n_dark = int(rng.poisson(mean))
    times = rng.uniform(0.0, duration, size=n_dark)
    pixels = rng.integers(0, config.pixel_count, size=n_dark)
    return list(zip(times.tolist(), pixels.tolist()))


def detect(events, config, rng):
    """Registered clicks of a run's photons and dark counts, in one pass.

    ``events`` holds one (absolute time, is_dark, index, pixel) tuple per
    photon that survived the efficiency and per dark count, with
    ``index`` its place among the run's photons or among its dark counts.
    The events are taken in time order, a photon before a dark count on a
    tie, and each pixel keeps its last registered time over the whole
    run.  With jitter on, the k-th registered click then takes the k-th of
    one normal per click drawn from the noise stream ``rng``.  Returns
    (pixels, times, is_dark) sorted by recorded time.
    """
    last = {}     # last registered time of each pixel, over the whole run
    clicks = []   # (time, pixel, is_dark) in record order
    for t, is_dark, _, pixel in sorted(events):
        if t - last.get(pixel, -np.inf) < config.dead_time:
            continue
        last[pixel] = t
        clicks.append((t, pixel, is_dark))
    if config.jitter_sigma > 0.0 and clicks:
        jitter = rng.normal(0.0, config.jitter_sigma, size=len(clicks))
        clicks = [(t + x, p, d) for (t, p, d), x in zip(clicks, jitter.tolist())]
    clicks.sort(key=lambda click: click[0])
    return (np.array([p for _, p, _ in clicks], dtype=np.int64),
            np.array([t for t, _, _ in clicks], dtype=float),
            np.array([d for _, _, d in clicks], dtype=bool))


def simulate_stream(config):
    """Truth and detector records of a run, as one continuous record.

    Each window draws its photons from its own stream; window w sits at
    w * window on one absolute timeline.  The run's noise stream then
    gives, below unit efficiency, one efficiency uniform per photon in
    emission order, and the dark counts over the whole record.  The
    surviving photons and the dark counts are ordered by absolute time (a
    photon before a dark count on a tie) and pass, one at a time, through
    pixels whose dead time runs on across window edges; the registered
    clicks take their jitter from the noise stream in that order.
    Returns a namespace with the ``truth_*`` arrays and ``records``
    (pixels, times, is_dark) of ``experiments.simulate_stream``, before
    the readout.
    """
    probs = bin_probabilities(config.stages, config.resolved_t2(),
                              config.input_port)
    det = config.detector_config()
    window = config.window

    truth = []    # (time, pixel, window) of every emitted photon
    for w in range(config.windows):
        rng = window_rng(config.seed, w)
        times = sample_arrivals(config.mean_photon_number, window, rng)
        bins = assign_bins(times.size, probs, rng)
        offset = w * window
        for t, b in zip(times.tolist(), bins.tolist()):
            truth.append((t + offset, b, w))
    noise = noise_rng(config.seed)
    survive = survivors(det, noise, len(truth))
    # (time, is_dark, index, pixel) of every click
    events = [(t, False, i, b) for i, ((t, b, _), s)
              in enumerate(zip(truth, survive)) if s]
    darks = dark_counts(det, noise, config.windows * window)
    events += [(t, True, i, p) for i, (t, p) in enumerate(darks)]
    pixels, times, is_dark = detect(events, det, noise)

    return SimpleNamespace(
        truth_pixels=np.array([b for _, b, _ in truth], dtype=np.int64),
        truth_times=np.array([t for t, _, _ in truth], dtype=float),
        truth_windows=np.array([w for _, _, w in truth], dtype=np.int64),
        records=SimpleNamespace(pixels=pixels, times=times, is_dark=is_dark),
    )


def pair_pulses(trigger_times, partner_times, window):
    """Greedy nearest-in-window pairing of trigger pulses with partners.

    Both inputs must be sorted ascending.  Triggers are processed in time
    order; each takes the unused partner nearest in time within +/- window
    (earliest index on exact ties).  Returns an int64 array of partner
    indices per trigger, -1 where no partner was available.
    """
    trig = np.asarray(trigger_times, dtype=float).tolist()
    part = np.asarray(partner_times, dtype=float).tolist()
    n_part = len(part)
    match = [-1] * len(trig)
    used = [False] * n_part
    lo = 0
    for i, t in enumerate(trig):
        while lo < n_part and part[lo] < t - window:
            lo += 1
        best = -1
        best_d = window + 1.0
        j = lo
        while j < n_part and part[j] <= t + window:
            if not used[j]:
                d = abs(part[j] - t)
                if d < best_d:
                    best_d = d
                    best = j
            j += 1
        if best >= 0:
            used[best] = True
            match[i] = best
    return np.array(match, dtype=np.int64)


def decode(trace, config):
    """Recover clicks (pixel, time) from the pulse train, slot by slot.

    Pairing runs one pass per candidate pixel slot: trigger pulses shifted
    by that slot's expected spacing are matched to the nearest unused
    counter pulse within DEFAULT_TOLERANCE.  Legal slots are scanned first,
    then SLOT_PAD slots beyond each end of the line; a pair landing there is
    structurally valid but names no physical pixel, so it is flagged
    pixel_out_of_range.  Unmatched pulses come back as orphans.
    """
    # each polarity's pulses in time order, the earlier trace row first on
    # a tie: triggers carry the trigger polarity's sign, partners the other
    negative = config.trigger_polarity == "negative"
    times, amps = trace.times.tolist(), trace.amplitudes.tolist()
    order = sorted(range(len(times)), key=times.__getitem__)
    trig_pos = [i for i in order if (amps[i] < 0) == negative]
    part_pos = [i for i in order if (amps[i] < 0) != negative]
    trig_pos_in_trace = np.array(trig_pos, dtype=np.int64)
    part_pos_in_trace = np.array(part_pos, dtype=np.int64)
    trig_times = np.array([times[i] for i in trig_pos], dtype=float)
    part_times = np.array([times[i] for i in part_pos], dtype=float)

    trig_flag = FLAG_ORPHAN_NEGATIVE if negative else FLAG_ORPHAN_POSITIVE
    part_flag = FLAG_ORPHAN_POSITIVE if negative else FLAG_ORPHAN_NEGATIVE

    n_pix = config.pixel_count
    slots = list(range(n_pix))
    for k in range(1, SLOT_PAD + 1):
        slots.append(-k)
        slots.append(n_pix - 1 + k)

    trig_pool = np.arange(trig_times.size, dtype=np.int64)
    part_pool = np.arange(part_times.size, dtype=np.int64)

    no_pairs = np.empty(0, dtype=np.int64)
    pair_trig = [no_pairs]
    pair_part = [no_pairs]
    pair_slot = [no_pairs]
    for slot in slots:
        if trig_pool.size == 0 or part_pool.size == 0:
            break
        offset = float(config.slot_delay(slot))
        match = pair_pulses(trig_times[trig_pool] + offset,
                            part_times[part_pool], DEFAULT_TOLERANCE)
        hit = match >= 0
        pair_trig.append(trig_pool[hit])
        pair_part.append(part_pool[match[hit]])
        pair_slot.append(np.full(int(hit.sum()), slot, dtype=np.int64))
        trig_pool = trig_pool[~hit]
        used = np.zeros(part_pool.size, dtype=bool)
        used[match[hit]] = True
        part_pool = part_pool[~used]

    p_trig = np.concatenate(pair_trig)
    p_part = np.concatenate(pair_part)
    p_slot = np.concatenate(pair_slot)

    half_span = 0.5 * config.span
    pair_origin = 0.5 * (trig_times[p_trig] + part_times[p_part]) - half_span
    pair_flags = np.where((p_slot >= 0) & (p_slot < n_pix),
                          FLAG_OK, FLAG_PIXEL_OUT_OF_RANGE).astype(np.int8)

    rows_pixel = [p_slot]
    rows_time = [pair_origin]
    rows_flag = [pair_flags]
    rows_trig = [trig_pos_in_trace[p_trig]]
    rows_part = [part_pos_in_trace[p_part]]
    rows_sort = [pair_origin]

    rows_pixel.append(np.full(trig_pool.size, -1, dtype=np.int64))
    rows_time.append(np.full(trig_pool.size, np.nan))
    rows_flag.append(np.full(trig_pool.size, trig_flag, dtype=np.int8))
    rows_trig.append(trig_pos_in_trace[trig_pool])
    rows_part.append(np.full(trig_pool.size, -1, dtype=np.int64))
    rows_sort.append(trig_times[trig_pool])
    rows_pixel.append(np.full(part_pool.size, -1, dtype=np.int64))
    rows_time.append(np.full(part_pool.size, np.nan))
    rows_flag.append(np.full(part_pool.size, part_flag, dtype=np.int8))
    rows_trig.append(np.full(part_pool.size, -1, dtype=np.int64))
    rows_part.append(part_pos_in_trace[part_pool])
    rows_sort.append(part_times[part_pool])

    sort_key = np.concatenate(rows_sort)
    order = np.argsort(sort_key, kind="stable")
    return DecodedEvents(
        pixels=np.concatenate(rows_pixel)[order],
        origin_times=np.concatenate(rows_time)[order],
        flags=np.concatenate(rows_flag)[order],
        trigger_index=np.concatenate(rows_trig)[order],
        partner_index=np.concatenate(rows_part)[order],
    )


def events_table(stream, window: float, n_windows: int):
    dec = stream.decoded
    rows = []
    for px, t, fl in zip(dec.pixels, dec.origin_times, dec.flags):
        if np.isnan(t):
            win = -1
            t_ns = float("nan")
        else:
            win = int(min(max(t // window, 0), n_windows - 1))
            t_ns = t * 1e9
        rows.append((win, int(px), repr(float(t_ns)), FLAG_NAMES[fl]))
    return ["window_index", "pixel", "origin_time_ns", "flag"], rows


def truth_table(stream):
    rows = [
        (int(w), int(b), repr(float(t * 1e9)))
        for w, b, t in zip(stream.truth_windows, stream.truth_pixels,
                           stream.truth_times)
    ]
    return ["window_index", "bin", "time_ns"], rows


def trace_table(trace):
    return (
        ["time_ns", "amplitude"],
        [(repr(float(t * 1e9)), repr(float(a)))
         for t, a in zip(trace.times, trace.amplitudes)],
    )


def csv_lines(table):
    """The lines a (header, rows) table wrote, one row at a time."""
    header, rows = table
    return [",".join(header) + "\n"] + [
        ",".join(str(x) for x in row) + "\n" for row in rows]
