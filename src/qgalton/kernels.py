"""Event-stream kernels: SNSPD dead time and pulse-pair decoding.

Both make sequential decisions: a registered click opens a dead window,
a taken pulse is gone for every later candidate pair.

`pair_pulses` is the greedy walk over candidate (trigger, partner) pairs
in the order `readout.decode` gives them.  The decoder takes every
uncontested pair itself and hands it only the contested candidates, about
3,000 at 30 photons per window, in one call per decode.

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


def pair_pulses(triggers, partners):
    """Greedy walk over candidate pairs, taken in the order given.

    triggers and partners hold each candidate's trigger and partner
    index.  A candidate is taken when neither pulse belongs to a candidate
    taken before it.  Returns the taken positions, ascending, as int64.
    """
    taken_trig, taken_part = set(), set()
    taken = []
    for k, (i, j) in enumerate(zip(triggers.tolist(), partners.tolist())):
        if i not in taken_trig and j not in taken_part:
            taken_trig.add(i)
            taken_part.add(j)
            taken.append(k)
    return np.array(taken, dtype=np.int64)
