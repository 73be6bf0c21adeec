"""Weak coherent photon source feeding the coupler mesh.

The physical source is a pulsed laser attenuated far below one photon per
pulse, gated into fixed acquisition windows.  Photon counts per window are
Poisson, arrival times inside a window are uniform, and each photon exits
the mesh in one output bin drawn from the walk distribution.

Coupler transmission depends on wavelength.  Over the band we care about the
dependence is linear to within measurement error, so the model here is a
straight-line fit through calibration points with clamping at the physical
[0, 1] limits.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, InvalidDistributionError

# transmission calibration: (wavelength in nm, fitted t^2)
DEFAULT_CALIBRATION = ((1520.0, 0.816), (1550.0, 0.763))
# slope (per nm) and intercept of the least-squares line through them
_SLOPE, _INTERCEPT = map(float, np.polyfit(*np.array(DEFAULT_CALIBRATION).T, 1))


def t2_of_wavelength(wavelength: float) -> float:
    """Coupler transmission t^2 at `wavelength` nm, clamped to [0, 1]."""
    if not np.isfinite(wavelength) or wavelength <= 0.0:
        raise InvalidArgumentError(
            f"wavelength_nm must be positive, got {wavelength}")
    return min(1.0, max(0.0, _SLOPE * wavelength + _INTERCEPT))


_ZEROS = (0, 0, 0, 0)
# the seed is the low 64-bit word of every window's Philox key
SEED_MAX = 2**64 - 1


def window_rng(master_seed: int, window_index: int,
               rng: np.random.Generator | None = None) -> np.random.Generator:
    """Independent per-window stream from a counter-based generator.

    Keying the generator on (master_seed, window_index) makes every window
    reproducible on its own: its draws never depend on the other windows.
    A window's stream carries its photons alone: the count, then the
    arrival times and bin uniforms (`experiments._draw_windows`).  The
    detector draws from `noise_rng`, and all further work runs once over
    the whole run.

    Building a generator costs more than a window's draws, so a run builds
    one and re-keys it per window: ``rng``, a generator an earlier call
    returned, is reused, otherwise one is built.  Either way its Philox
    state is set to key (master_seed, window_index), a zero counter and an
    empty buffer, so whatever was drawn from it before, it gives exactly
    the stream of a fresh generator.  A seed in [0, SEED_MAX] and an
    index >= 0 are taken as given: a run's config checks its seed."""
    if rng is None:
        rng = np.random.Generator(np.random.Philox(0))
    # two key words, low the seed and high the window; buffer_pos 4 marks
    # the four-word output buffer as used up, and has_uint32 0 drops a half
    # word left by a bounded integer draw
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": (master_seed, window_index)},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


def noise_rng(master_seed: int) -> np.random.Generator:
    """The run's detector-noise stream: Philox key (master_seed, SEED_MAX).

    Efficiency thinning, dark counts and jitter belong to the detector,
    which watches the continuous record, not a window, so a run draws
    them from this one stream (see `detector.detect`).  Its key is the one
    `window_rng` would give window SEED_MAX, an index no run reaches.  The
    key is built as one integer, low word the seed: as a list, [seed,
    SEED_MAX] with a seed below 2**63 goes through float64 and becomes key
    (seed, 0), window 0's stream."""
    return np.random.Generator(
        np.random.Philox(key=master_seed + (SEED_MAX << 64)))


def sample_arrivals(times: np.ndarray, counts: np.ndarray, window: float):
    """The photons of a run on one absolute timeline.

    ``times`` holds each photon's arrival time in seconds from the start of
    its window, window 0's photons first, then window 1's, and so on;
    ``counts[w]`` is the number of photons of window w.  Conditioned on its
    Poisson count, a window's times are independent uniforms, which is
    exactly a homogeneous Poisson process restricted to the window.  Window
    w starts at ``w * window`` on the run's timeline.  Returns (times,
    windows): each photon's absolute time in seconds and its window index,
    which never decreases; within a window the times are sorted.

    The rounding of ``w * window`` can carry a time of window w past the
    first of window w + 1.  Unless it does, each nonempty window's times
    lie at or below the next one's, and one sort of the values is each
    window sorted in turn: equal times are the same double, so any order
    of ties gives the same values.  A run where it does sorts the
    positions by time, then stably by window, which keeps each window's
    times in the order the first sort gave them.
    """
    if (times.ndim != 1 or counts.ndim != 1 or np.any(counts < 0)
            or counts.sum() != times.size):
        raise InvalidArgumentError(
            f"counts must be 1-d, non-negative and sum to {times.size}")
    windows = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    times = times + windows * window
    starts = (np.cumsum(counts) - counts)[counts > 0]
    if times.size and not np.all(np.maximum.reduceat(times, starts)[:-1]
                                 <= np.minimum.reduceat(times, starts)[1:]):
        order = np.argsort(times)
        order = order[np.argsort(windows[order], kind="stable")]
        return times[order], windows
    times.sort()
    return times, windows


# cells of the [0, 1) lookup table of assign_bins
_CELLS = 4096


def assign_bins(probabilities: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Each photon's output bin, drawn from the walk distribution.

    ``uniforms`` holds one [0, 1) draw per photon, in the photons' order.
    The distribution must be normalized to within 1e-9; anything worse
    points at a bug upstream rather than rounding error.

    A photon's bin is the number of cdf values at or below its uniform,
    ``np.searchsorted(cdf, u, "right")``.  Scaling by _CELLS, a power of
    two, is exact, so ``floor(u * _CELLS)`` puts u in the cell
    [c / _CELLS, (c + 1) / _CELLS) it lies in.  Where no cdf value lies in
    u's cell, that count is the number of cdf values below the cell's
    start, one table entry per cell; only a uniform in a cell that holds a
    cdf value is searched.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise InvalidDistributionError("probabilities must be a 1-d array")
    if not np.all(p >= 0.0):  # NaN fails the comparison
        raise InvalidDistributionError(
            "probabilities must be nonnegative numbers")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise InvalidDistributionError(
            f"probabilities sum to {total!r}, expected 1 within 1e-9"
        )
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    u = np.asarray(uniforms, dtype=float)
    # min and max are NaN if any uniform is
    if u.ndim != 1 or (u.size and not (u.min() >= 0.0 and u.max() < 1.0)):
        raise InvalidArgumentError(
            "uniforms must be a 1-d array of values in [0, 1)")
    table = np.searchsorted(cdf, np.arange(_CELLS) / _CELLS,
                            side="left").astype(np.int64)
    # -1 marks the cells that hold a cdf value
    cells = (cdf * _CELLS).astype(np.int64)
    table[cells[cells < _CELLS]] = -1
    bins = table[(u * _CELLS).astype(np.intp)]
    searched = np.flatnonzero(bins < 0)
    bins[searched] = np.searchsorted(cdf, u[searched], side="right")
    return bins
