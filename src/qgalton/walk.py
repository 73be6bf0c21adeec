"""Single-photon quantum walk through a triangular directional-coupler mesh.

The device is a photonic Galton board: rows of identical 2x2 directional
couplers arranged like pegs, with row k holding k couplers and the final row
of S couplers terminating on 2*S output bins.  A single photon injected into
one input of the top coupler interferes with itself on the way down; the
output bin probabilities form the fringe pattern this module computes.

Each coupler maps input mode amplitudes (left, right) to outputs via

    out_left  = t * in_left + i*r * in_right
    out_right = i*r * in_left + t * in_right

with real t, r >= 0 and t**2 + r**2 = 1.  Coupler j of the next row takes
its left input from the right output of coupler j-1 and its right input
from the left output of coupler j, with vacuum at both edges.
`bin_probabilities` applies this row by row, a unitary step each time, for
many values of t**2 at once; `path_sum_oracle` recomputes one distribution
by brute-force enumeration of all 2**S transmit/cross decision paths and is
kept deliberately independent of it so the two can check each other.
`bin_polynomial` samples `bin_probabilities` at S + 1 points and returns
the same rows as a polynomial in t**2, for the fits' many refinement
probes.

Every amplitude is purely real or purely imaginary, so the recurrence runs
on real numbers.  A cross contributes a factor i, and a path's input side
at each row fixes the parity of its crossings so far (a same-side step
flips the side into the next row, a cross keeps it), so all left inputs of
a row share one phase and all right inputs the phase times -i.  Writing
left = a * phase and right = -i * c * phase, one coupler gives

    out_left  = (t*a + r*c) * phase
    out_right = (r*a - t*c) * i * phase

and the next row's inputs keep the same relation.  Only the real
coefficients are carried; a probability is the coefficient squared.  The
products and sums are those of the complex recurrence with its zero parts
dropped, so the results are the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError

__all__ = ["bin_polynomial", "bin_probabilities", "path_sum_oracle"]

# The walk does stages**2 / 2 coupler steps per t^2 value, and a fit holds
# several (rows, 2*stages) model tables at once; this bounds both.
MAX_STAGES = 62
MAX_ORACLE_STAGES = 20


def check_stages(stages) -> None:
    if not isinstance(stages, (int, np.integer)) or isinstance(stages, bool):
        raise InvalidArgumentError(f"stages must be an integer, got {stages!r}")
    if stages < 1:
        raise InvalidArgumentError(f"stages must be >= 1, got {stages}")
    if stages > MAX_STAGES:
        raise ResourceLimitError(
            f"stages={stages}: limit is stages <= {MAX_STAGES}")


def check_input_port(input_port: str) -> None:
    if input_port not in ("left", "right"):
        raise InvalidArgumentError(f"input_port must be 'left' or 'right', got {input_port!r}")


def check_t_squared(t_squared) -> np.ndarray:
    """``t_squared`` as a float array, refused unless it lies in [0, 1]."""
    x = np.asarray(t_squared, dtype=np.float64)
    if not np.all((x >= 0.0) & (x <= 1.0)):  # NaN fails both comparisons
        raise InvalidArgumentError(
            f"t_squared must lie in [0, 1], got {t_squared}")
    return x


def bin_probabilities(stages: int, t_squared, input_port: str = "left") -> np.ndarray:
    """Output bin probabilities as a vectorized function of t**2.

    Parameters
    ----------
    stages : int
        Number of coupler rows, 1 to MAX_STAGES.
    t_squared : float or array_like
        Coupler transmission probability (or probabilities) in [0, 1].
    input_port : {"left", "right"}
        Input of the top coupler the photon enters.

    Returns
    -------
    np.ndarray
        Shape (2*stages,) for scalar input, else (len(t_squared), 2*stages),
        ordered left to right as [L1, R1, ..., LS, RS] of the last row.
    """
    check_stages(stages)
    check_input_port(input_port)
    x = check_t_squared(t_squared)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    t = np.sqrt(x)
    r = np.sqrt(1.0 - x)

    # in_l[j] / in_r[j]: the real coefficients a / c of the left / right
    # input of coupler j+1 in the current row, one column per t^2 value.
    # Coupler j of the next row takes the right output of coupler j-1 on
    # its left and the left output of coupler j on its right; slots past
    # the row and in_l[0] stay vacuum.
    in_l = np.zeros((stages, x.size))
    in_r = np.zeros((stages, x.size))
    (in_l if input_port == "left" else in_r)[0] = 1.0
    for row in range(1, stages + 1):
        a, c = in_l[:row], in_r[:row]
        out_l = t * a + r * c
        out_r = r * a - t * c
        if row < stages:
            in_r[:row] = out_l
            in_l[1:row + 1] = out_r
            in_l[0] = 0.0
    probs = np.empty((x.size, 2 * stages))
    probs[:, 0::2] = (out_l ** 2).T
    probs[:, 1::2] = (out_r ** 2).T
    return probs[0] if scalar else probs


def bin_polynomial(stages: int, input_port: str = "left"):
    """`bin_probabilities` for one stage count and port, as a polynomial.

    A bin's probability sums products of two path amplitudes, t**s1 r**c1
    and t**s2 r**c2 with s + c = stages.  Only pairs whose cross counts
    c1, c2 have the same parity survive, so c1 + c2 and s1 + s2 are even
    and each product is (t**2)**i (1 - t**2)**j with i + j = stages: every
    bin is a polynomial of degree ``stages`` in t**2.  It is sampled once,
    at the stages + 1 Chebyshev nodes u_k = cos(theta_k), theta_k =
    pi (k + 1/2) / (stages + 1), of u = 2 t**2 - 1, and the discrete cosine
    sum gives its Chebyshev coefficients, which fix it to rounding (within
    about 1e-13 of the walk up to MAX_STAGES).

    Returns a function from a vector of t**2 values in [0, 1] to the rows
    `bin_probabilities` gives for them, each value clipped at 0 so that a
    logarithm never sees rounding below it.
    """
    n = stages + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    samples = bin_probabilities(stages, 0.5 * (1.0 + np.cos(theta)), input_port)
    coefficients = (2.0 / n) * (np.cos(np.outer(np.arange(n), theta)) @ samples)
    coefficients[0] *= 0.5

    def rows(t_squared) -> np.ndarray:
        u = 2.0 * check_t_squared(t_squared) - 1.0
        # T_0 .. T_stages at u, one row each: T_j = 2u T_(j-1) - T_(j-2)
        chebyshev = np.empty((n, u.size))
        chebyshev[0] = 1.0
        chebyshev[1] = u
        twice_u = 2.0 * u
        for j in range(2, n):
            np.multiply(twice_u, chebyshev[j - 1], out=chebyshev[j])
            chebyshev[j] -= chebyshev[j - 2]
        probs = chebyshev.T @ coefficients
        return np.maximum(probs, 0.0, out=probs)

    return rows


# Routing table for the oracle, written out independently of the array code in
# bin_probabilities: state is (coupler index, input side); a same-side decision
# keeps the side through the coupler, a cross flips it; a left output enters
# the right input of the same-index coupler below, a right output enters the
# left input of the next coupler over.


def _oracle_step(j: int, side: str, decision: str) -> tuple[int, str, str]:
    """Return (next coupler index, next input side, output side) after one row."""
    out_side = side if decision == "same" else ("L" if side == "R" else "R")
    if out_side == "L":
        return j, "R", out_side
    return j + 1, "L", out_side


def path_sum_oracle(stages: int, t_squared: float, input_port: str = "left") -> np.ndarray:
    """Brute-force path-sum recomputation of `bin_probabilities` for one t**2.

    Enumerates all 2**stages transmit/cross decision sequences, multiplies
    the per-coupler factors (t for same-side, i*r for cross), and sums path
    amplitudes per terminal bin.  Exponential in ``stages``; refuses more
    than MAX_ORACLE_STAGES rows.
    """
    check_input_port(input_port)
    check_stages(stages)
    if stages > MAX_ORACLE_STAGES:
        raise ResourceLimitError(
            f"stages={stages}: path enumeration needs 2**{stages} paths; "
            f"limit is stages <= {MAX_ORACLE_STAGES}")
    check_t_squared(t_squared)
    t = math.sqrt(t_squared)
    ir = 1j * math.sqrt(1.0 - t_squared)
    start_side = "L" if input_port == "left" else "R"
    amps = [0.0j] * (2 * stages)
    for mask in range(1 << stages):
        j, side = 1, start_side
        amp = 1.0 + 0.0j
        final_j, out_side = j, side
        for stage in range(stages):
            decision = "same" if (mask >> stage) & 1 else "cross"
            amp *= t if decision == "same" else ir
            final_j = j
            j, side, out_side = _oracle_step(j, side, decision)
        bin_index = 2 * (final_j - 1) + (0 if out_side == "L" else 1)
        amps[bin_index] += amp
    return np.abs(np.array(amps, dtype=np.complex128)) ** 2
