"""Superconducting nanowire detector array model.

One pixel per mesh output bin.  Each pixel detects an incident photon with a
fixed efficiency, then goes blind for a fixed dead time: while recovering it
ignores further photons and the blocked photons do not extend the recovery
(non-paralyzable response).  Recorded timestamps carry Gaussian jitter, and
each pixel also fires spontaneously at a low dark rate.

Efficiency, dark counts and jitter belong to the array, not to an
acquisition window: `detect` draws all of its randomness from one
run-level noise stream over the continuous record, and runs the whole run
at once, on one absolute timeline, so a pixel still recovering at the end
of a window stays blind into the next.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .kernels import dead_time_filter, non_decreasing


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


def detect(times: np.ndarray, bins: np.ndarray, config: DetectorConfig,
           noise: np.random.Generator, duration: float) -> DetectionRecords:
    """Run the photons of a run through the detector array.

    Each photon has an absolute time on the run's timeline and an output
    bin (bins map one-to-one onto pixels), as `sample_arrivals` and
    `assign_bins` give them.  The array watches the record [0, duration)
    without a break: a pixel's dead time carries across window edges.

    Every random draw comes from ``noise``, the run's noise stream
    (`source.noise_rng`), in this order: below unit efficiency, one
    [0, 1) uniform per photon in the input's order, and a photon survives
    if its uniform is below the efficiency; at a dark rate above 0, one
    Poisson dark count over the whole record, then that many times
    ``duration * u`` and that many pixels; then, with jitter on, one
    standard normal per registered click in record order, scaled by
    sigma.  Record order is time order, a photon before a dark count on a
    tie and otherwise the input's order.  The clicks come back sorted by
    recorded time.

    The stable sort that puts the clicks in order runs only on input out
    of order: dark counts merged in among the photons, or window-edge
    rounding that puts a time of one window before one of the window
    before it.  The input arrays are never written; on a run with neither
    dead time nor jitter, where no step changes them, the clicks may be
    the input arrays themselves.
    """
    if times.shape != bins.shape:
        raise InvalidArgumentError(
            "photon times and bins must have equal length")
    if np.any(bins < 0) or np.any(bins >= config.pixel_count):
        raise InvalidArgumentError(
            "photon bins must be assigned and lie in "
            f"[0, {config.pixel_count}); run bin assignment first"
        )

    # efficiency thinning: each photon independently survives with prob eta
    if config.efficiency < 1.0:
        survive = np.flatnonzero(noise.random(times.size) < config.efficiency)
        times, bins = times[survive], bins[survive]
    is_dark = np.zeros(times.size, dtype=bool)

    if config.dark_count_rate > 0.0:
        d = int(noise.poisson(
            config.dark_count_rate * config.pixel_count * duration))
        times = np.concatenate([times, duration * noise.random(d)])
        bins = np.concatenate(
            [bins, noise.integers(0, config.pixel_count, size=d)])
        is_dark = np.concatenate([is_dark, np.ones(d, dtype=bool)])

    # stable: on a tie the photon comes before the dark count.  Times
    # already in order, as on every run without dark counts, stay as they
    # are: the stable sort would not move them.  Each stage frees its index
    # arrays as it goes, which keeps a run's peak RSS down
    if not non_decreasing(times):
        order = np.argsort(times, kind="stable")
        times, bins, is_dark = times[order], bins[order], is_dark[order]
        del order

    if config.dead_time > 0.0 and times.size:
        # one group per pixel over the whole record; labels this narrow
        # let the filter's stable sort take numpy's radix path
        labels = bins.astype(np.min_scalar_type(config.pixel_count - 1))
        alive = np.flatnonzero(
            dead_time_filter(labels, times, config.dead_time))
        times, bins, is_dark = times[alive], bins[alive], is_dark[alive]
        del alive

    if config.jitter_sigma > 0.0 and times.size:
        # the recorded times, built in the normals' own array: times may
        # still be the caller's
        recorded = noise.standard_normal(times.size)
        recorded *= config.jitter_sigma
        recorded += times
        order = np.argsort(recorded, kind="stable")
        times, bins, is_dark = recorded[order], bins[order], is_dark[order]

    return DetectionRecords(pixels=bins, times=times, is_dark=is_dark)
