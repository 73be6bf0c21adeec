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

from qgalton.errors import InvalidArgumentError, ResourceLimitError
from qgalton.walk import (
    MAX_COEFFICIENT_STAGES,
    Coupler,
    OutputDistribution,
    amplitude_coefficients,
    bin_probabilities,
    build_mesh,
    coupler_transfer,
    path_sum_oracle,
    propagate,
    stage_amplitudes,
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
    def test_identity_normalization(self):
        c = Coupler(0.8)
        assert c.t_squared + c.r_squared == pytest.approx(1.0, abs=0)
        assert c.t**2 + c.r**2 == pytest.approx(1.0, abs=1e-15)

    def test_from_t_squared(self):
        c = Coupler.from_t_squared(0.763)
        assert c.t_squared == pytest.approx(0.763, abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidArgumentError):
            Coupler(bad)
        with pytest.raises(InvalidArgumentError):
            Coupler.from_t_squared(bad)


class TestBuildMesh:
    def test_smallest_mesh(self):
        mesh = build_mesh(1)
        assert mesh.n_couplers == 1
        assert mesh.n_bins == 2

    def test_full_size_mesh(self):
        mesh = build_mesh(8)
        assert mesh.n_couplers == 36  # 1+2+...+8
        assert mesh.n_bins == 16

    def test_row_sizes(self):
        mesh = build_mesh(5)
        assert [len(row) for row in mesh.rows] == [1, 2, 3, 4, 5]

    def test_two_stage_connectivity(self):
        mesh = build_mesh(2)
        first, second = mesh.rows[1]
        assert first.left_source is None
        assert first.right_source == (1, 1, "L")
        assert second.left_source == (1, 1, "R")
        assert second.right_source is None

    def test_vacuum_count_per_row(self):
        mesh = build_mesh(6)
        for row in mesh.rows:
            vac = sum(n.left_source is None for n in row) + sum(
                n.right_source is None for n in row
            )
            assert vac == 2

    def test_outputs_feed_exactly_once(self):
        mesh = build_mesh(7)
        mesh.validate()  # raises if the feed map is not a bijection

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_nonpositive_stages(self, bad):
        with pytest.raises(InvalidArgumentError):
            build_mesh(bad)


class TestCouplerTransfer:
    def test_identity_coupler(self):
        out = coupler_transfer(Coupler(1.0), 1.0, 0.0)
        assert out == (1.0 + 0.0j, 0.0j)

    def test_balanced_splitter(self):
        out_l, out_r = coupler_transfer(Coupler.from_t_squared(0.5), 1.0, 0.0)
        assert out_l == pytest.approx(1 / np.sqrt(2))
        assert out_r == pytest.approx(1j / np.sqrt(2))
        assert abs(out_l) ** 2 == pytest.approx(0.5, abs=1e-15)
        assert abs(out_r) ** 2 == pytest.approx(0.5, abs=1e-15)

    def test_measured_coupler_split(self):
        # transmission fitted for 1550 nm photons: t^2 = 0.763
        out_l, out_r = coupler_transfer(Coupler.from_t_squared(0.763), 1.0, 0.0)
        assert abs(out_l) ** 2 == pytest.approx(0.763, abs=1e-14)
        assert abs(out_r) ** 2 == pytest.approx(0.237, abs=1e-14)

    def test_energy_conservation_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = Coupler(rng.random())
            a = rng.normal() + 1j * rng.normal()
            b = rng.normal() + 1j * rng.normal()
            out_l, out_r = coupler_transfer(c, a, b)
            assert abs(out_l) ** 2 + abs(out_r) ** 2 == pytest.approx(
                abs(a) ** 2 + abs(b) ** 2, abs=1e-14
            )


class TestPropagate:
    def test_single_stage_identity(self):
        dist = propagate(build_mesh(1), Coupler(1.0), "left")
        np.testing.assert_allclose(dist.probabilities, [1.0, 0.0], atol=0)

    def test_two_stage_balanced_matches_path_enumeration(self):
        dist = propagate(build_mesh(2), Coupler.from_t_squared(0.5), "left")
        np.testing.assert_allclose(dist.probabilities, [0.25] * 4, atol=1e-15)

    def test_two_stage_closed_form(self):
        rng = np.random.default_rng(11)
        for t2 in rng.random(10):
            dist = propagate(build_mesh(2), Coupler.from_t_squared(t2))
            np.testing.assert_allclose(dist.probabilities, closed_form_2(t2), atol=1e-14)

    def test_three_stage_closed_form_at_measured_t2(self):
        dist = propagate(build_mesh(3), Coupler.from_t_squared(0.763))
        np.testing.assert_allclose(dist.probabilities, closed_form_3(0.763), atol=1e-14)

    def test_eight_stage_fringe_matches_oracle(self):
        mesh = build_mesh(8)
        c = Coupler.from_t_squared(0.763)
        dist = propagate(mesh, c)
        oracle = path_sum_oracle(mesh, c)
        np.testing.assert_allclose(dist.probabilities, oracle.probabilities, atol=1e-10)

    def test_unitarity_random_cases(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            stages = int(rng.integers(1, 11))
            dist = propagate(build_mesh(stages), Coupler(rng.random()))
            assert abs(dist.probabilities.sum() - 1.0) < 1e-12

    def test_per_stage_norm_is_one(self):
        states = stage_amplitudes(build_mesh(8), Coupler.from_t_squared(0.763))
        for state in states:
            assert state.total_probability == pytest.approx(1.0, abs=1e-12)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            stages = int(rng.integers(1, 9))
            c = Coupler(rng.random())
            mesh = build_mesh(stages)
            left = propagate(mesh, c, "left").probabilities
            right = propagate(mesh, c, "right").probabilities
            np.testing.assert_allclose(right, left[::-1], atol=1e-12)

    def test_degenerate_limits(self):
        # bins derived by tracing the routing by hand: t=1 alternates sides and
        # lands on R4 (bin 7); t=0 crosses every row and lands on R8 (bin 15)
        mesh = build_mesh(8)
        p_transmit = propagate(mesh, Coupler(1.0)).probabilities
        assert p_transmit[7] == pytest.approx(1.0, abs=0)
        assert np.count_nonzero(p_transmit) == 1
        p_cross = propagate(mesh, Coupler(0.0)).probabilities
        assert p_cross[15] == pytest.approx(1.0, abs=0)
        assert np.count_nonzero(p_cross) == 1

    def test_probability_amplitude_consistency(self):
        dist = propagate(build_mesh(8), Coupler.from_t_squared(0.816))
        np.testing.assert_allclose(
            dist.probabilities, np.abs(dist.amplitudes) ** 2, atol=1e-15
        )

    def test_smoothness_central_difference_converges(self):
        # bin probabilities are polynomial in t, so central-difference slopes
        # at shrinking step sizes must converge quadratically
        mesh = build_mesh(8)

        def central(t, h):
            p_plus = propagate(mesh, Coupler(t + h)).probabilities
            p_minus = propagate(mesh, Coupler(t - h)).probabilities
            return (p_plus - p_minus) / (2 * h)

        for t in (0.3, 0.6, 0.873):
            coarse = central(t, 1e-4)
            fine = central(t, 1e-5)
            np.testing.assert_allclose(fine, coarse, atol=1e-5)

    def test_invalid_port(self):
        with pytest.raises(InvalidArgumentError):
            propagate(build_mesh(2), Coupler(0.5), "top")


class TestPathSumOracle:
    def test_single_stage_equals_coupler_transfer(self):
        for t2 in (0.0, 0.3, 0.763, 1.0):
            c = Coupler.from_t_squared(t2)
            dist = path_sum_oracle(build_mesh(1), c)
            out_l, out_r = coupler_transfer(c, 1.0, 0.0)
            np.testing.assert_allclose(
                dist.probabilities, [abs(out_l) ** 2, abs(out_r) ** 2], atol=1e-15
            )

    def test_three_stage_matches_closed_form(self):
        dist = path_sum_oracle(build_mesh(3), Coupler.from_t_squared(0.763))
        np.testing.assert_allclose(dist.probabilities, closed_form_3(0.763), atol=1e-14)

    def test_three_stage_matches_propagate(self):
        mesh = build_mesh(3)
        c = Coupler.from_t_squared(0.763)
        np.testing.assert_allclose(
            path_sum_oracle(mesh, c).probabilities,
            propagate(mesh, c).probabilities,
            atol=1e-12,
        )

    def test_eight_stage_second_wavelength(self):
        # transmission fitted for 1520 nm photons: t^2 = 0.816
        mesh = build_mesh(8)
        c = Coupler.from_t_squared(0.816)
        np.testing.assert_allclose(
            path_sum_oracle(mesh, c).probabilities,
            propagate(mesh, c).probabilities,
            atol=1e-10,
        )

    def test_right_input(self):
        mesh = build_mesh(4)
        c = Coupler.from_t_squared(0.7)
        np.testing.assert_allclose(
            path_sum_oracle(mesh, c, "right").probabilities,
            propagate(mesh, c, "right").probabilities,
            atol=1e-12,
        )

    def test_stage_limit(self):
        mesh = build_mesh(21)
        with pytest.raises(ResourceLimitError):
            path_sum_oracle(mesh, Coupler(0.5))


class TestBinProbabilities:
    def test_matches_propagate_randomized(self):
        rng = np.random.default_rng(31)
        for stages in range(1, 11):
            mesh = build_mesh(stages)
            t2s = rng.random(8)
            table = bin_probabilities(stages, t2s)
            for t2, row in zip(t2s, table):
                direct = propagate(mesh, Coupler.from_t_squared(t2)).probabilities
                np.testing.assert_allclose(row, direct, atol=1e-12)

    def test_scalar_shape(self):
        p = bin_probabilities(8, 0.5)
        assert p.shape == (16,)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_coefficients_count_paths(self):
        # total signed path count per bin row sums to 2**stages across bins
        for stages in (1, 2, 5, 8, MAX_COEFFICIENT_STAGES):
            coef = amplitude_coefficients(stages)
            assert coef.sum() == 2**stages

    def test_coefficient_stage_limit(self):
        # one more stage and the int64 path counts could wrap silently
        with pytest.raises(ResourceLimitError, match="stages=63"):
            amplitude_coefficients(MAX_COEFFICIENT_STAGES + 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            bin_probabilities(8, [0.5, 1.2])


class TestOutputDistribution:
    def test_from_amplitudes_checks_normalization(self):
        from qgalton.errors import InvalidDistributionError

        with pytest.raises(InvalidDistributionError):
            OutputDistribution.from_amplitudes(np.array([1.0, 1.0], dtype=complex))

    def test_valid_distribution(self):
        amps = np.array([1 / np.sqrt(2), 1j / np.sqrt(2)])
        dist = OutputDistribution.from_amplitudes(amps)
        np.testing.assert_allclose(dist.probabilities, [0.5, 0.5], atol=1e-15)
