"""Sequential event-stream kernels: SNSPD dead time and pulse-pair decoding.

Both are plain Python loops over time-sorted NumPy arrays; each decision
depends on the ones before it (a registered click opens a dead window, a
used partner is gone for later triggers).
"""

import numpy as np

__all__ = ["BACKEND", "dead_time_filter", "pair_pulses"]

# Read by the benchmark harness (perfbench/worker.py, perfbench/run.py),
# which stamps every result with the kernel implementation it timed.
BACKEND = "python"


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
