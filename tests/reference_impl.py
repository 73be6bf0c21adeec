"""Reference implementations that the vectorized code must reproduce exactly.

These are the original loops: the greedy pulse-pairing kernel and the
per-row CSV table builders.  The package replaced them with vectorized
forms; the parity tests compare the two element for element.
"""

import numpy as np

from qgalton.readout import FLAG_NAMES


def pair_pulses(trigger_times, partner_times, window):
    """Greedy nearest-in-window pairing of trigger pulses with partners.

    Both inputs must be sorted ascending.  Triggers are processed in time
    order; each takes the unused partner nearest in time within +/- window
    (earliest index on exact ties).  Returns an int64 array of partner
    indices per trigger, -1 where no partner was available.
    """
    n_trig = len(trigger_times)
    n_part = len(partner_times)
    match = np.full(n_trig, -1, dtype=np.int64)
    used = np.zeros(n_part, dtype=bool)
    lo = 0
    for i in range(n_trig):
        t = trigger_times[i]
        while lo < n_part and partner_times[lo] < t - window:
            lo += 1
        best = -1
        best_d = window + 1.0
        j = lo
        while j < n_part and partner_times[j] <= t + window:
            if not used[j]:
                d = abs(partner_times[j] - t)
                if d < best_d:
                    best_d = d
                    best = j
            j += 1
        if best >= 0:
            used[best] = True
            match[i] = best
    return match


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
