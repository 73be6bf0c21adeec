"""Superconducting nanowire detector array model.

One pixel per mesh output bin.  Each pixel detects an incident photon with a
fixed efficiency, then goes blind for a fixed dead time: while recovering it
ignores further photons and the blocked photons do not extend the recovery
(non-paralyzable response).  Recorded timestamps carry Gaussian jitter, and
each pixel also fires spontaneously at a low dark rate.

The random draws are made window by window, each window on its own stream
(`DetectorDraws`); `detect` then runs the whole run at once, on one
absolute timeline, so a pixel still recovering at the end of a window stays
blind into the next.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .kernels import dead_time_filter


@dataclass(frozen=True)
class DetectorConfig:
    """Per-pixel detector parameters, times in seconds, rate in Hz, taken
    as given: a run's config has checked them."""

    pixel_count: int = 16
    efficiency: float = 1.0
    dead_time: float = 20e-9
    jitter_sigma: float = 50e-12
    dark_count_rate: float = 0.0


@dataclass
class DetectionRecords:
    """Registered detector clicks, sorted by recorded time.

    pixels and times are parallel arrays; is_dark marks clicks that came
    from dark counts rather than incident photons (available because this
    is a simulation; real hardware cannot tell).
    """

    pixels: np.ndarray
    times: np.ndarray
    is_dark: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.int64)
        self.times = np.asarray(self.times, dtype=float)
        self.is_dark = np.asarray(self.is_dark, dtype=bool)
        if not (self.pixels.shape == self.times.shape == self.is_dark.shape):
            raise InvalidArgumentError("pixels, times, is_dark must have equal length")

    def __len__(self):
        return self.times.size


@dataclass
class DetectorDraws:
    """The detector draws of a run, window 0's first, then window 1's, ...

    keep is one efficiency uniform per photon of the run (empty at
    efficiency 1).  dark_times (seconds from the start of their window)
    and dark_pixels are the dark counts, ``dark_counts[w]`` of them in
    window w.  jitter holds the timing jitter in seconds,
    ``jitter_counts[w]`` values for window w, at least one for each of its
    clicks that could register (a run draws one per photon and per dark
    count): the dead time decides later how many register, and a window
    left with k clicks uses its first k.
    """

    keep: np.ndarray
    dark_counts: np.ndarray
    dark_times: np.ndarray
    dark_pixels: np.ndarray
    jitter_counts: np.ndarray
    jitter: np.ndarray


def detect(times: np.ndarray, bins: np.ndarray, windows: np.ndarray,
           config: DetectorConfig, draws: DetectorDraws,
           window: float) -> DetectionRecords:
    """Run the photons of a run through the detector array.

    Each photon has an absolute time on the run's timeline, an output bin
    (bins map one-to-one onto pixels) and a window index, as
    `sample_arrivals` and `assign_bins` give them; window w's dark counts
    land on the same timeline at w * window.  The array watches the whole
    record without a break: a pixel's dead time carries across window
    edges.  Jitter is added on the absolute timeline and the clicks come
    back sorted by recorded time, a photon before a dark count on a tie.
    """
    if not times.shape == bins.shape == windows.shape:
        raise InvalidArgumentError(
            "photon times, bins and window indices must have equal length")
    if np.any(bins < 0) or np.any(bins >= config.pixel_count):
        raise InvalidArgumentError(
            "photon bins must be assigned and lie in "
            f"[0, {config.pixel_count}); run bin assignment first"
        )
    step = np.diff(windows)
    if np.any(step < 0) or np.any((step == 0) & (np.diff(times) < 0)):
        raise InvalidArgumentError("photon times must be sorted")
    n_windows = draws.jitter_counts.size
    if windows.size and windows[-1] >= n_windows:
        raise InvalidArgumentError(
            f"photons in window {windows[-1]}, draws for {n_windows} windows")

    # efficiency thinning: each photon independently survives with prob eta
    if config.efficiency < 1.0:
        survive = np.flatnonzero(draws.keep < config.efficiency)
        times, bins, windows = times[survive], bins[survive], windows[survive]
    is_dark = np.zeros(times.size, dtype=bool)

    if config.dark_count_rate > 0.0:
        dark_windows = np.repeat(np.arange(n_windows, dtype=np.int64),
                                 draws.dark_counts)
        times = np.concatenate(
            [times, draws.dark_times + dark_windows * window])
        bins = np.concatenate([bins, draws.dark_pixels])
        windows = np.concatenate([windows, dark_windows])
        is_dark = np.concatenate(
            [is_dark, np.ones(draws.dark_times.size, dtype=bool)])

    # stable: on a tie the photon comes before the dark count.  Each stage
    # frees its index arrays as it goes, which keeps a run's peak RSS down
    order = np.argsort(times, kind="stable")
    times, bins, windows, is_dark = (times[order], bins[order],
                                     windows[order], is_dark[order])
    del order

    if config.dead_time > 0.0 and times.size:
        # one group per pixel over the whole record; labels this narrow
        # let the filter's stable sort take numpy's radix path
        labels = bins.astype(np.min_scalar_type(config.pixel_count - 1))
        alive = np.flatnonzero(
            dead_time_filter(labels, times, config.dead_time))
        times, bins, windows, is_dark = (times[alive], bins[alive],
                                         windows[alive], is_dark[alive])
        del alive

    if config.jitter_sigma > 0.0 and times.size:
        # the k-th click of window w takes that window's k-th jitter draw.
        # Rounding can put a click of window w + 1 before one of window w,
        # so k counts along a stable sort by window, not along the record.
        # shift[w]: window w's first jitter draw less its first click
        spare = draws.jitter_counts - np.bincount(windows, minlength=n_windows)
        shift = np.cumsum(spare) - spare
        by_window = np.argsort(windows, kind="stable")
        times[by_window] += draws.jitter[
            np.arange(times.size) + shift[windows[by_window]]]
        del windows, by_window
        order = np.argsort(times, kind="stable")
        times, bins, is_dark = times[order], bins[order], is_dark[order]

    return DetectionRecords(pixels=bins, times=times, is_dark=is_dark)
