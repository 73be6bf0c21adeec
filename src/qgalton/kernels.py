"""Event-stream kernels: SNSPD dead time and pulse-pair decoding.

Both make sequential decisions over time-sorted NumPy arrays: a registered
click opens a dead window, a used partner is gone for later triggers.

`pair_pulses` is the plain greedy loop over the triggers that have a
partner in their window.  The decoder takes every uncontested pair itself
and hands it only the contested pulses, about 1,600 triggers at 30
photons per window, so it has no vectorized fast path of its own.

`dead_time_filter` is vectorized.  The detector makes one call over
the whole record, and an event at least one dead time after the previous
event of its pixel always registers; only events closer than that to their
predecessor run the sequential rule, in a loop over those events alone.
"""

import numpy as np

__all__ = ["BACKEND", "dead_time_filter", "pair_pulses",
           "searchsorted_sorted"]

# Read by the benchmark harness (perfbench/worker.py, perfbench/run.py),
# which stamps every result with the kernel implementation it timed.
BACKEND = "python"


def dead_time_filter(pixels, times, dead_time):
    """Mask of events that register under a non-paralyzable dead time.

    Events must be sorted by time within each pixel; any integer labels
    the pixels.  An event on pixel p at time t registers iff
    t - (last registered time on p) >= dead_time; blocked events do not
    extend the dead window.
    """
    pixels = np.asarray(pixels)
    times = np.asarray(times, dtype=float)
    # each pixel's events in time order, one pixel after the other
    order = np.argsort(pixels, kind="stable")
    p, t = pixels[order], times[order]
    same = p[1:] == p[:-1]
    # the last registered time is never later than the previous event, and
    # rounding is monotone, so a gap of dead_time or more always registers
    close = np.flatnonzero(same & (t[1:] - t[:-1] < dead_time)) + 1
    held = np.ones(t.size, dtype=bool)
    t = t.tolist()
    last = 0.0
    for i in close.tolist():
        if held[i - 1]:
            last = t[i - 1]
        # else event i - 1 was blocked, and `last` still holds the
        # registered time before it
        held[i] = t[i] - last >= dead_time
    keep = np.empty_like(held)
    keep[order] = held
    return keep


def searchsorted_sorted(a, v, side):
    """``np.searchsorted(a, v, side)`` for a sorted ``v``.

    Both runs are sorted, so one stable merge places every key; it costs
    about half of a binary search per key at a few hundred thousand pulses.
    Stability puts a key before equal values on the left side and after
    them on the right side.
    """
    if side == "left":
        order = np.argsort(np.concatenate([v, a]), kind="stable")
        at_key = order < v.size
    else:
        order = np.argsort(np.concatenate([a, v]), kind="stable")
        at_key = order >= a.size
    return np.flatnonzero(at_key) - np.arange(v.size)


def pair_pulses(trigger_times, partner_times, window):
    """Greedy nearest-in-window pairing of trigger pulses with partners.

    Both inputs must be sorted ascending.  Triggers are processed in time
    order; each takes the unused partner nearest in time within +/- window
    (earliest index on exact ties).  Returns an int64 array of partner
    indices per trigger, -1 where no partner was available.  Every trigger
    with a partner in its window runs the loop: `readout.decode` takes the
    uncontested pairs itself and passes only contested pulses here.
    """
    trig = np.asarray(trigger_times)
    part = np.asarray(partner_times)
    match = np.full(trig.size, -1, dtype=np.int64)
    if trig.size == 0 or part.size == 0:
        return match
    # candidates of trigger i are part[lo[i]:hi[i]]
    lo = searchsorted_sorted(part, trig - window, "left")
    hi = searchsorted_sorted(part, trig + window, "right")
    used = np.zeros(part.size, dtype=bool)
    for i in np.flatnonzero(hi > lo).tolist():
        t = trig[i]
        best = -1
        best_d = window + 1.0
        for j in range(lo[i], hi[i]):
            if not used[j]:
                d = abs(part[j] - t)
                if d < best_d:
                    best_d = d
                    best = j
        if best >= 0:
            used[best] = True
            match[i] = best
    return match
