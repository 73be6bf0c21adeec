"""Event-stream kernels: SNSPD dead time and pulse-pair decoding.

Both make sequential decisions: a registered click opens a dead window,
a taken pulse is gone for every later candidate pair.

`pair_pulses` is the greedy walk over candidate (trigger, partner) pairs
in the order `readout.decode` gives them.  The decoder takes every
uncontested pair itself and hands it only the contested candidates, about
3,000 at 30 photons per window, in one call per decode.

`dead_time_filter` is vectorized.  The detector makes one call over
the whole record.  An event at least one dead time after the previous
event of its pixel always registers, and a close event (one closer than
that) right after a registered event is always blocked.  So only a run of
consecutive close events on one pixel needs the sequential rule, and only
from its second event on: a loop walks each run from the registered event
before it.  At 30 photons per window that is about 700 of 14,000 close
events in 300,000.
"""

import numpy as np

__all__ = ["BACKEND", "dead_time_filter", "non_decreasing", "pair_pulses",
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
    # the last registered time is never later than the previous event, and
    # rounding is monotone, so a gap of dead_time or more always registers;
    # an event closer than that to a registered predecessor is blocked
    is_close = np.zeros(t.size, dtype=bool)
    np.less(t[1:] - t[:-1], dead_time, out=is_close[1:])
    is_close[1:] &= p[1:] == p[:-1]
    held = ~is_close
    # so only a close event after a close event needs the sequential rule:
    # walk each run of close events from the registered time before it
    chained = np.flatnonzero(is_close[1:] & is_close[:-1]) + 1
    opens = ~is_close[chained - 2]
    # the registered time before each run, read where its walk starts
    befores = iter(t[chained[opens] - 2].tolist())
    chain_held = []
    last = previous = 0.0
    previous_held = False
    for start, now in zip(opens.tolist(), t[chained].tolist()):
        if start:
            # the run's first event is blocked by the event before it
            last = next(befores)
        elif previous_held:
            last = previous
        previous_held = now - last >= dead_time
        chain_held.append(previous_held)
        previous = now
    held[chained] = chain_held
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


def non_decreasing(values) -> bool:
    """Whether ``values`` never decrease: a stable sort would leave them as
    they are.  A NaN fails the comparison."""
    return bool(np.all(values[1:] >= values[:-1]))
