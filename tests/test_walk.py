"""Tests for the coupler-mesh walk core.

Closed-form oracles used below were derived by hand from the per-coupler
transfer (t on same-side, i*r on cross) and the interleaved mesh routing:

  stages=2, input=left: amplitudes per bin [i*t*r, t^2, i*t*r, -r^2]
      -> probabilities [t^2 r^2, t^4, t^2 r^2, r^4]
  stages=3, input=left: probabilities
      [t^2 r^4, t^4 r^2, t^2 (t^2 - r^2)^2, 4 t^4 r^2, t^2 r^4, r^6]

with r^2 = 1 - t^2.  Both were cross-checked by explicit 4- and 8-path
enumeration by hand before being frozen here.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_impl
from qgalton.errors import InvalidArgumentError, ResourceLimitError
from qgalton.walk import (
    MAX_STAGES,
    bin_polynomial,
    bin_probabilities,
    path_sum_oracle,
)


def closed_form_2(t2):
    r2 = 1.0 - t2
    return np.array([t2 * r2, t2 * t2, t2 * r2, r2 * r2])


def closed_form_3(t2):
    r2 = 1.0 - t2
    return np.array(
        [
            t2 * r2**2,
            t2**2 * r2,
            t2 * (t2 - r2) ** 2,
            4 * t2**2 * r2,
            t2 * r2**2,
            r2**3,
        ]
    )


class TestCoupler:
    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidArgumentError):
            bin_probabilities(1, bad)
        with pytest.raises(InvalidArgumentError):
            path_sum_oracle(1, bad)


class TestCouplerTransfer:
    """A one-stage mesh is a single coupler fed on one input."""

    def test_identity_coupler(self):
        np.testing.assert_array_equal(bin_probabilities(1, 1.0), [1.0, 0.0])

    def test_balanced_splitter(self):
        np.testing.assert_allclose(bin_probabilities(1, 0.5), [0.5, 0.5],
                                   atol=1e-15)

    def test_measured_coupler_split(self):
        # transmission fitted for 1550 nm photons: t^2 = 0.763
        np.testing.assert_allclose(bin_probabilities(1, 0.763),
                                   [0.763, 0.237], atol=1e-14)

    def test_energy_conservation_random(self):
        rng = np.random.default_rng(7)
        t2s = rng.random(50) ** 2
        for port in ("left", "right"):
            np.testing.assert_allclose(
                bin_probabilities(1, t2s, port).sum(axis=1), 1.0, atol=1e-14)


class TestPropagate:
    def test_single_stage_identity(self):
        np.testing.assert_allclose(bin_probabilities(1, 1.0, "left"), [1.0, 0.0],
                                   atol=0)

    def test_two_stage_balanced_matches_path_enumeration(self):
        np.testing.assert_allclose(bin_probabilities(2, 0.5, "left"), [0.25] * 4,
                                   atol=1e-15)

    def test_two_stage_closed_form(self):
        rng = np.random.default_rng(11)
        for t2 in rng.random(10):
            np.testing.assert_allclose(bin_probabilities(2, t2),
                                       closed_form_2(t2), atol=1e-14)

    def test_three_stage_closed_form_at_measured_t2(self):
        np.testing.assert_allclose(bin_probabilities(3, 0.763),
                                   closed_form_3(0.763), atol=1e-14)

    def test_eight_stage_fringe_matches_oracle(self):
        np.testing.assert_allclose(bin_probabilities(8, 0.763),
                                   path_sum_oracle(8, 0.763), atol=1e-10)

    def test_unitarity_random_cases(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            stages = int(rng.integers(1, 11))
            t = rng.random()
            assert abs(bin_probabilities(stages, t * t).sum() - 1.0) < 1e-12

    def test_per_stage_norm_is_one(self):
        for stages in range(1, 9):
            assert bin_probabilities(stages, 0.763).sum() == pytest.approx(
                1.0, abs=1e-12)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            stages = int(rng.integers(1, 9))
            t2 = rng.random() ** 2
            left = bin_probabilities(stages, t2, "left")
            right = bin_probabilities(stages, t2, "right")
            np.testing.assert_allclose(right, left[::-1], atol=1e-12)

    def test_degenerate_limits(self):
        # bins derived by tracing the routing by hand: t=1 alternates sides and
        # lands on R4 (bin 7); t=0 crosses every row and lands on R8 (bin 15)
        p_transmit = bin_probabilities(8, 1.0)
        assert p_transmit[7] == pytest.approx(1.0, abs=0)
        assert np.count_nonzero(p_transmit) == 1
        p_cross = bin_probabilities(8, 0.0)
        assert p_cross[15] == pytest.approx(1.0, abs=0)
        assert np.count_nonzero(p_cross) == 1

    def test_smoothness_central_difference_converges(self):
        # bin probabilities are polynomial in t, so central-difference slopes
        # at shrinking step sizes must converge quadratically
        def central(t, h):
            p_plus = bin_probabilities(8, (t + h) ** 2)
            p_minus = bin_probabilities(8, (t - h) ** 2)
            return (p_plus - p_minus) / (2 * h)

        for t in (0.3, 0.6, 0.873):
            coarse = central(t, 1e-4)
            fine = central(t, 1e-5)
            np.testing.assert_allclose(fine, coarse, atol=1e-5)

    def test_invalid_port(self):
        with pytest.raises(InvalidArgumentError):
            bin_probabilities(2, 0.5, "top")


class TestPathSumOracle:
    def test_single_stage_is_one_coupler(self):
        for t2 in (0.0, 0.3, 0.763, 1.0):
            np.testing.assert_allclose(path_sum_oracle(1, t2), [t2, 1.0 - t2],
                                       atol=1e-15)

    def test_three_stage_matches_closed_form(self):
        np.testing.assert_allclose(path_sum_oracle(3, 0.763),
                                   closed_form_3(0.763), atol=1e-14)

    def test_three_stage_matches_bin_probabilities(self):
        np.testing.assert_allclose(path_sum_oracle(3, 0.763),
                                   bin_probabilities(3, 0.763), atol=1e-12)

    def test_eight_stage_second_wavelength(self):
        # transmission fitted for 1520 nm photons: t^2 = 0.816
        np.testing.assert_allclose(path_sum_oracle(8, 0.816),
                                   bin_probabilities(8, 0.816), atol=1e-10)

    def test_right_input(self):
        np.testing.assert_allclose(path_sum_oracle(4, 0.7, "right"),
                                   bin_probabilities(4, 0.7, "right"),
                                   atol=1e-12)

    def test_stage_limit(self):
        with pytest.raises(ResourceLimitError):
            path_sum_oracle(21, 0.25)

    def test_rejects_nan(self):
        with pytest.raises(InvalidArgumentError):
            path_sum_oracle(3, float("nan"))


class TestBinProbabilities:
    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(31)
        for stages in range(1, 11):
            t2s = rng.random(8)
            table = bin_probabilities(stages, t2s)
            for t2, row in zip(t2s, table):
                np.testing.assert_allclose(row, path_sum_oracle(stages, t2),
                                           atol=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(stages=st.integers(1, 12),
           t2=st.floats(0.0, 1.0),
           port=st.sampled_from(["left", "right"]))
    def test_matches_oracle_property(self, stages, t2, port):
        np.testing.assert_allclose(bin_probabilities(stages, t2, port),
                                   path_sum_oracle(stages, t2, port),
                                   rtol=0, atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(stages=st.integers(1, MAX_STAGES),
           t2s=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
           port=st.sampled_from(["left", "right"]))
    def test_unitary_and_mirrored_property(self, stages, t2s, port):
        probs = bin_probabilities(stages, t2s, port)
        assert np.all(probs >= 0.0)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
        other = "right" if port == "left" else "left"
        np.testing.assert_allclose(bin_probabilities(stages, t2s, other),
                                   probs[:, ::-1], rtol=0, atol=1e-12)

    def test_rows_equal_single_calls(self):
        # the fits evaluate one t^2 at a time and whole grids; both must see
        # the same model bit for bit
        t2s = np.random.default_rng(3).random(25)
        table = bin_probabilities(8, t2s, "right")
        for t2, row in zip(t2s, table):
            np.testing.assert_array_equal(bin_probabilities(8, t2, "right"), row)

    def test_scalar_shape(self):
        p = bin_probabilities(8, 0.5)
        assert p.shape == (16,)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rows_sum_to_one_at_stage_limit(self):
        # an expansion in integer path counts cancels away 1e-8 of the norm
        # at this size; the unitary row-by-row recurrence keeps it
        probs = bin_probabilities(MAX_STAGES, np.linspace(0.0, 1.0, 41))
        assert probs.shape == (41, 2 * MAX_STAGES)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12

    def test_stage_limit(self):
        with pytest.raises(ResourceLimitError, match="stages=63"):
            bin_probabilities(MAX_STAGES + 1, 0.5)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_nonpositive_stages(self, bad):
        with pytest.raises(InvalidArgumentError):
            bin_probabilities(bad, 0.5)

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_rejects_non_integer_stages(self, bad):
        with pytest.raises(InvalidArgumentError):
            bin_probabilities(bad, 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            bin_probabilities(8, [0.5, 1.2])

    def test_nan_rejected(self):
        with pytest.raises(InvalidArgumentError):
            bin_probabilities(8, [0.5, np.nan])


class TestBinPolynomial:
    """The fits' refinement probes read the walk as its polynomial in t^2;
    it must give the walk's rows to rounding at every stage count."""

    @settings(deadline=None, max_examples=80)
    @given(stages=st.integers(1, MAX_STAGES),
           t2s=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
           port=st.sampled_from(["left", "right"]))
    @example(stages=MAX_STAGES, t2s=[0.0, 0.5, 1.0], port="left")
    @example(stages=1, t2s=[0.0, 0.5, 1.0], port="right")
    def test_matches_walk(self, stages, t2s, port):
        t2s = [0.0, 0.5, 1.0] + t2s
        rows = bin_polynomial(stages, port)(t2s)
        np.testing.assert_allclose(rows, bin_probabilities(stages, t2s, port),
                                   rtol=0, atol=1e-12)
        assert np.all(rows >= 0.0)
        assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-12

    def test_input_checks(self):
        rows = bin_polynomial(8, "right")
        assert rows([0.3, 0.7]).shape == (2, 16)
        with pytest.raises(InvalidArgumentError):
            rows([0.5, 1.2])
        with pytest.raises(InvalidArgumentError):
            rows(np.nan)
        with pytest.raises(InvalidArgumentError):
            bin_polynomial(8, "top")
        with pytest.raises(ResourceLimitError):
            bin_polynomial(MAX_STAGES + 1)


class TestComplexRecurrenceParity:
    # both ends of the range, a regular grid and random values
    T2 = np.concatenate([[0.0, 1.0], np.linspace(0.0, 1.0, 101),
                         np.random.default_rng(11).random(200)])

    @pytest.mark.parametrize("input_port", ["left", "right"])
    def test_real_walk_is_bit_equal(self, input_port):
        # the real-coefficient walk drops only the exact zero parts of the
        # complex recurrence, so every probability keeps its bits
        for stages in range(1, MAX_STAGES + 1):
            assert np.array_equal(
                bin_probabilities(stages, self.T2, input_port),
                reference_impl.complex_bin_probabilities(
                    stages, self.T2, input_port)), stages
