"""Single-photon quantum walk through a triangular directional-coupler mesh.

The device is a photonic Galton board: rows of identical 2x2 directional
couplers arranged like pegs, with row k holding k couplers and the final row
of S couplers terminating on 2*S output bins.  A single photon injected into
one input of the top coupler interferes with itself on the way down; the
output bin probabilities form the fringe pattern this module computes.

Each coupler maps input mode amplitudes (left, right) to outputs via

    out_left  = t * in_left + i*r * in_right
    out_right = i*r * in_left + t * in_right

with real t, r >= 0 and t**2 + r**2 = 1.  Iterating this row by row gives the
exact single-photon output distribution; `path_sum_oracle` recomputes it by
brute-force enumeration of all 2**S transmit/cross decision paths and is kept
deliberately independent of `propagate` so the two can check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, InvalidDistributionError, ResourceLimitError

__all__ = [
    "Coupler",
    "CouplerNode",
    "MeshTopology",
    "AmplitudeState",
    "OutputDistribution",
    "build_mesh",
    "coupler_transfer",
    "propagate",
    "stage_amplitudes",
    "path_sum_oracle",
    "amplitude_coefficients",
    "bin_probabilities",
]

MAX_ORACLE_STAGES = 20

# Each amplitude coefficient counts a subset of the 2**stages decision paths,
# so int64 holds every coefficient exactly while 2**stages <= its maximum.
MAX_COEFFICIENT_STAGES = np.iinfo(np.int64).max.bit_length() - 1

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class Coupler:
    """One directional coupler with transmission amplitude ``t``.

    The cross-coupling amplitude ``r`` is always derived as sqrt(1 - t**2),
    so ``t**2 + r**2 == 1`` holds by construction.
    """

    t: float

    def __post_init__(self):
        if not (0.0 <= self.t <= 1.0):
            raise InvalidArgumentError(f"coupler amplitude t must be in [0, 1], got {self.t}")

    @classmethod
    def from_t_squared(cls, t_squared: float) -> "Coupler":
        if not (0.0 <= t_squared <= 1.0):
            raise InvalidArgumentError(
                f"transmission probability t^2 must be in [0, 1], got {t_squared}"
            )
        return cls(math.sqrt(t_squared))

    @property
    def r(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.t * self.t))

    @property
    def t_squared(self) -> float:
        return self.t * self.t

    @property
    def r_squared(self) -> float:
        return max(0.0, 1.0 - self.t * self.t)


@dataclass(frozen=True)
class CouplerNode:
    """One coupler's position in the mesh and where its inputs come from.

    ``left_source`` / ``right_source`` are ``(row, index, side)`` references
    to an output port of the previous row (1-based rows and indices, side in
    {"L", "R"}), or ``None`` for a vacuum input at the mesh edge.
    """

    row: int
    index: int
    left_source: tuple[int, int, str] | None
    right_source: tuple[int, int, str] | None


@dataclass(frozen=True)
class MeshTopology:
    """Triangular Galton mesh: row k (1-based) holds k couplers.

    Couplers in row k+1 interleave with row k: coupler j takes its left input
    from the right output of row-k coupler j-1 (vacuum when j == 1) and its
    right input from the left output of row-k coupler j (vacuum when j == k+1).
    """

    stages: int
    rows: tuple[tuple[CouplerNode, ...], ...] = field(repr=False)

    @property
    def n_bins(self) -> int:
        return 2 * self.stages

    @property
    def n_couplers(self) -> int:
        return self.stages * (self.stages + 1) // 2

    def validate(self) -> None:
        """Check the structural invariants; raises InvalidArgumentError on violation."""
        if self.stages < 1:
            raise InvalidArgumentError("mesh must have at least one stage")
        if len(self.rows) != self.stages:
            raise InvalidArgumentError("row count does not match stages")
        for k, row in enumerate(self.rows, start=1):
            if len(row) != k:
                raise InvalidArgumentError(f"row {k} must hold exactly {k} couplers")
            vacuum = sum(node.left_source is None for node in row)
            vacuum += sum(node.right_source is None for node in row)
            if vacuum != 2:
                raise InvalidArgumentError(f"row {k} must have exactly 2 vacuum inputs")
            if k == 1:
                continue
            # every output of the previous row must feed exactly one input here
            fed = [src for node in row for src in (node.left_source, node.right_source)]
            fed = [s for s in fed if s is not None]
            expected = {(k - 1, j, side) for j in range(1, k) for side in ("L", "R")}
            if set(fed) != expected or len(fed) != len(expected):
                raise InvalidArgumentError(f"row {k} connectivity is not a bijection onto row {k - 1} outputs")


@dataclass(frozen=True)
class AmplitudeState:
    """Mode amplitudes over one row's output ports, ordered [L1, R1, L2, R2, ...]."""

    amplitudes: np.ndarray

    @property
    def total_probability(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


@dataclass(frozen=True)
class OutputDistribution:
    """Complex amplitudes and probabilities over the final output bins."""

    amplitudes: np.ndarray
    probabilities: np.ndarray

    @classmethod
    def from_amplitudes(cls, amplitudes: np.ndarray, check: bool = True) -> "OutputDistribution":
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        probabilities = np.abs(amplitudes) ** 2
        dist = cls(amplitudes=amplitudes, probabilities=probabilities)
        if check:
            dist.validate()
        return dist

    @property
    def n_bins(self) -> int:
        return len(self.probabilities)

    def validate(self) -> None:
        if np.any(self.probabilities < 0.0) or np.any(self.probabilities > 1.0 + 1e-15):
            raise InvalidDistributionError("bin probabilities must lie in [0, 1]")
        total = float(np.sum(self.probabilities))
        if abs(total - 1.0) > _NORM_TOL:
            raise InvalidDistributionError(f"probabilities sum to {total!r}, not 1 within {_NORM_TOL}")
        if np.max(np.abs(self.probabilities - np.abs(self.amplitudes) ** 2)) > 1e-15:
            raise InvalidDistributionError("probabilities inconsistent with amplitudes")


def build_mesh(stages: int) -> MeshTopology:
    """Build the triangular coupler mesh with the given number of rows.

    Parameters
    ----------
    stages : int
        Number of coupler rows; the mesh ends on ``2 * stages`` output bins.

    Raises
    ------
    InvalidArgumentError
        If ``stages`` < 1.
    """
    if not isinstance(stages, (int, np.integer)) or isinstance(stages, bool):
        raise InvalidArgumentError(f"stages must be an integer, got {stages!r}")
    if stages < 1:
        raise InvalidArgumentError(f"stages must be >= 1, got {stages}")
    rows = []
    for k in range(1, stages + 1):
        row = []
        for j in range(1, k + 1):
            left = (k - 1, j - 1, "R") if j > 1 else None
            right = (k - 1, j, "L") if j < k else None
            if k == 1:
                left = right = None
            row.append(CouplerNode(row=k, index=j, left_source=left, right_source=right))
        rows.append(tuple(row))
    mesh = MeshTopology(stages=stages, rows=tuple(rows))
    mesh.validate()
    return mesh


def coupler_transfer(coupler: Coupler, in_left: complex, in_right: complex) -> tuple[complex, complex]:
    """Apply one coupler's 2x2 transfer matrix to a pair of mode amplitudes."""
    t = coupler.t
    ir = 1j * coupler.r
    return (t * in_left + ir * in_right, ir * in_left + t * in_right)


def _check_input_port(input_port: str) -> str:
    if input_port not in ("left", "right"):
        raise InvalidArgumentError(f"input_port must be 'left' or 'right', got {input_port!r}")
    return input_port


def stage_amplitudes(mesh: MeshTopology, coupler: Coupler, input_port: str = "left") -> tuple[AmplitudeState, ...]:
    """Propagate through the mesh, returning the state after every row.

    The photon enters the chosen input of the row-1 coupler with amplitude 1.
    State k holds the 2*(k+1) output amplitudes of row k+1 in the order
    [L1, R1, L2, R2, ...].
    """
    _check_input_port(input_port)
    mesh.validate()
    t = coupler.t
    ir = 1j * coupler.r

    states: list[AmplitudeState] = []
    # outputs of the current row keyed by (coupler index, side)
    outputs: dict[tuple[int, str], complex] = {}
    for k, row in enumerate(mesh.rows, start=1):
        new_outputs: dict[tuple[int, str], complex] = {}
        for node in row:
            if k == 1:
                in_left = 1.0 + 0.0j if input_port == "left" else 0.0j
                in_right = 1.0 + 0.0j if input_port == "right" else 0.0j
            else:
                in_left = outputs.get(node.left_source[1:], 0.0j) if node.left_source else 0.0j
                in_right = outputs.get(node.right_source[1:], 0.0j) if node.right_source else 0.0j
            out_l = t * in_left + ir * in_right
            out_r = ir * in_left + t * in_right
            new_outputs[(node.index, "L")] = out_l
            new_outputs[(node.index, "R")] = out_r
        outputs = new_outputs
        amps = np.array(
            [outputs[(j, side)] for j in range(1, k + 1) for side in ("L", "R")],
            dtype=np.complex128,
        )
        states.append(AmplitudeState(amplitudes=amps))
    return tuple(states)


def propagate(mesh: MeshTopology, coupler: Coupler, input_port: str = "left") -> OutputDistribution:
    """Propagate a single photon through the mesh.

    Returns the output distribution over the ``2 * stages`` bins, ordered
    left to right as [L1, R1, ..., LS, RS] of the final coupler row.
    """
    final = stage_amplitudes(mesh, coupler, input_port)[-1]
    return OutputDistribution.from_amplitudes(final.amplitudes)


@lru_cache(maxsize=64)
def amplitude_coefficients(stages: int, input_port: str = "left") -> np.ndarray:
    """Integer path-count coefficients of the output amplitudes.

    Every root-to-bin path through ``stages`` couplers picks up a factor t per
    same-side transition and i*r per cross, so the amplitude at each bin is
    homogeneous of degree ``stages``:

        amp[bin](t) = sum_k coef[bin, k] * t**k * (i*r)**(stages - k)

    where coef[bin, k] counts the paths to that bin with exactly k same-side
    transitions.  Returns an int64 array of shape (2*stages, stages + 1).

    Raises ResourceLimitError above MAX_COEFFICIENT_STAGES, where the path
    counts could wrap around in int64.
    """
    _check_input_port(input_port)
    if stages < 1:
        raise InvalidArgumentError(f"stages must be >= 1, got {stages}")
    if stages > MAX_COEFFICIENT_STAGES:
        raise ResourceLimitError(
            f"stages={stages}: path counts up to 2**{stages} overflow int64; "
            f"limit is stages <= {MAX_COEFFICIENT_STAGES}"
        )
    # row 1: the photon occupies one input of the single top coupler
    coef = np.zeros((2, stages + 1), dtype=np.int64)
    if input_port == "left":
        coef[0, 1] = 1  # out_L = t * in_L
        coef[1, 0] = 1  # out_R = i*r * in_L
    else:
        coef[0, 0] = 1  # out_L = i*r * in_R
        coef[1, 1] = 1  # out_R = t * in_R
    for row in range(2, stages + 1):
        prev_l = coef[0::2]
        prev_r = coef[1::2]
        in_l = np.zeros((row, stages + 1), dtype=np.int64)
        in_r = np.zeros((row, stages + 1), dtype=np.int64)
        in_l[1:] = prev_r  # left input of coupler j is R_{j-1} of the previous row
        in_r[:-1] = prev_l  # right input of coupler j is L_j of the previous row
        coef = np.zeros((2 * row, stages + 1), dtype=np.int64)
        # out_L = t*in_L + i*r*in_R: the t factor shifts the power index up by one
        coef[0::2, 1:] = in_l[:, :-1]
        coef[0::2] += in_r
        coef[1::2, 1:] = in_r[:, :-1]
        coef[1::2] += in_l
    coef.setflags(write=False)
    return coef


def bin_probabilities(stages: int, t_squared, input_port: str = "left") -> np.ndarray:
    """Output bin probabilities as a vectorized function of t**2.

    Parameters
    ----------
    stages : int
        Number of coupler rows.
    t_squared : float or array_like
        Coupler transmission probability (or probabilities) in [0, 1].

    Returns
    -------
    np.ndarray
        Shape (2*stages,) for scalar input, else (len(t_squared), 2*stages).
    """
    coef = amplitude_coefficients(stages, input_port)
    x = np.asarray(t_squared, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise InvalidArgumentError("t_squared values must lie in [0, 1]")
    t = np.sqrt(x)
    r = np.sqrt(1.0 - x)
    k = np.arange(stages + 1)
    # (N, stages+1) factor tables; (i*r)**(stages-k) carries the phase
    t_pow = t[:, None] ** k
    ir_pow = (1j * r[:, None]) ** (stages - k)
    amps = (coef[None, :, :] * (t_pow * ir_pow)[:, None, :]).sum(axis=2)
    probs = np.abs(amps) ** 2
    return probs[0] if scalar else probs


# Routing table for the oracle, written out independently of the array code in
# stage_amplitudes: state is (coupler index, input side); a same-side decision
# keeps the side through the coupler, a cross flips it; a left output enters
# the right input of the same-index coupler below, a right output enters the
# left input of the next coupler over.


def _oracle_step(j: int, side: str, decision: str) -> tuple[int, str, str]:
    """Return (next coupler index, next input side, output side) after one row."""
    out_side = side if decision == "same" else ("L" if side == "R" else "R")
    if out_side == "L":
        return j, "R", out_side
    return j + 1, "L", out_side


def path_sum_oracle(mesh: MeshTopology, coupler: Coupler, input_port: str = "left") -> OutputDistribution:
    """Brute-force path-sum recomputation of `propagate` for verification.

    Enumerates all 2**stages transmit/cross decision sequences, multiplies
    the per-coupler factors (t for same-side, i*r for cross), and sums path
    amplitudes per terminal bin.  Exponential in ``stages``; refuses more
    than MAX_ORACLE_STAGES rows.
    """
    _check_input_port(input_port)
    mesh.validate()
    stages = mesh.stages
    if stages > MAX_ORACLE_STAGES:
        raise ResourceLimitError(
            f"path enumeration needs 2**{stages} paths; limit is 2**{MAX_ORACLE_STAGES}"
        )
    t = coupler.t
    ir = 1j * coupler.r
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
    return OutputDistribution.from_amplitudes(np.array(amps, dtype=np.complex128))
