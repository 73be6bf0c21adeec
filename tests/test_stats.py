"""Tests for the estimators and goodness-of-fit machinery."""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize, special, stats as sps

from qgalton.errors import (
    DegenerateFitError,
    InvalidArgumentError,
    InvalidDistributionError,
    ResourceLimitError,
)
from qgalton.stats import (
    MAX_BOOTSTRAP_CELLS,
    T2_GRID_POINTS,
    ConsistencyReport,
    FitResult,
    chi_square_gof,
    fit_exponential,
    fit_poisson,
    fit_t2,
    mean_consistency,
    poisson_pmf,
    _MAX_MEAN_GAP,
    _fminbound,
    _grid_degeneracy,
)
from qgalton.walk import bin_probabilities


class TestFitT2:
    def test_noise_free_closure(self):
        # histogram proportional to the exact model recovers t^2 to 1e-5
        for true in (0.3, 0.5, 0.763, 0.816):
            counts = np.round(bin_probabilities(8, true) * 1e9).astype(np.int64)
            r = fit_t2(counts, n_bootstrap=10, seed=0)
            assert r.estimate == pytest.approx(true, abs=1e-5)
            assert r.residual < 1e-12

    def test_recovers_from_multinomial_draws(self):
        true = 0.763
        p = bin_probabilities(8, true)
        counts = np.random.default_rng(5).multinomial(10_000, p)
        r = fit_t2(counts, n_bootstrap=400, seed=1)
        # estimator sd at this sample size is about 0.0012
        assert r.estimate == pytest.approx(true, abs=0.006)
        assert r.ci_low <= true <= r.ci_high
        assert (r.ci_high - r.ci_low) / 2 < 0.01
        assert r.mle == pytest.approx(r.estimate, abs=0.01)
        assert r.n_samples == 10_000

    def test_mirror_equivariance(self):
        # feeding the mirrored histogram as the right-input model must give
        # the same transmission
        p = bin_probabilities(8, 0.7)
        counts = np.random.default_rng(9).multinomial(20_000, p)
        left = fit_t2(counts, n_bootstrap=10, seed=0, input_port="left")
        right = fit_t2(counts[::-1].copy(), n_bootstrap=10, seed=0,
                       input_port="right")
        assert right.estimate == pytest.approx(left.estimate, abs=1e-6)

    def test_point_mass_pulls_to_bound(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[7] = 5000  # the all-transmission exit
        r = fit_t2(counts, n_bootstrap=10, seed=0)
        assert r.estimate > 0.999

    def test_empty_histogram_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_t2(np.zeros(16, dtype=np.int64))

    def test_odd_length_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fit_t2(np.ones(15, dtype=np.int64))

    def test_negative_counts_rejected(self):
        counts = np.ones(16, dtype=np.int64)
        counts[2] = -4
        with pytest.raises(InvalidArgumentError):
            fit_t2(counts)

    def test_both_bound_objective_rejected(self):
        obj = np.ones(11)
        obj[0] = obj[-1] = 0.0
        with pytest.raises(DegenerateFitError):
            _grid_degeneracy(obj)

    def test_single_bound_objective_allowed(self):
        obj = np.linspace(0.0, 1.0, 11)
        _grid_degeneracy(obj)  # minimum only at the left end: fine


class TestFitPoisson:
    def test_recovers_mean(self):
        counts = np.random.default_rng(2).poisson(4.0, 10_000)
        r = fit_poisson(counts, n_bootstrap=400, seed=3)
        assert r.estimate == pytest.approx(4.0, abs=0.06)
        assert r.ci_low <= 4.0 <= r.ci_high
        assert r.mle == pytest.approx(counts.mean())

    def test_small_mean(self):
        counts = np.random.default_rng(8).poisson(0.3, 20_000)
        r = fit_poisson(counts, n_bootstrap=200, seed=0)
        assert r.estimate == pytest.approx(0.3, abs=0.02)

    def test_all_zero_rule_of_three(self):
        r = fit_poisson(np.zeros(1000, dtype=int), n_bootstrap=50, seed=0)
        assert r.estimate == 0.0
        assert r.ci_low == 0.0
        assert r.ci_high == pytest.approx(3.0 / 1000)
        assert "all-zero" in r.flags

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            fit_poisson(np.array([4]))
        with pytest.raises(InvalidArgumentError):
            fit_poisson(np.array([1, -2, 3]))

    def test_result_serializes(self):
        counts = np.random.default_rng(1).poisson(2.0, 500)
        d = asdict(fit_poisson(counts, n_bootstrap=20, seed=0))
        json.dumps(d)
        assert set(d) >= {"estimate", "ci_low", "ci_high", "method", "flags"}


class TestFitExponential:
    def test_recovers_scale(self):
        gaps = np.random.default_rng(4).exponential(0.5e-6, 30_000)
        r = fit_exponential(gaps, n_bootstrap=300, seed=2)
        assert r.estimate == pytest.approx(0.5e-6, rel=0.02)
        assert r.ci_low <= r.estimate <= r.ci_high
        assert r.mle == pytest.approx(gaps.mean())

    def test_scale_equivariance(self):
        # rescaling every gap by c rescales the fit by c, since the bin
        # edges are tied to the sample mean
        gaps = np.random.default_rng(6).exponential(1.0, 5_000)
        base = fit_exponential(gaps, n_bootstrap=10, seed=0)
        scaled = fit_exponential(gaps * 2.5e-7, n_bootstrap=10, seed=0)
        assert scaled.estimate == pytest.approx(base.estimate * 2.5e-7, rel=1e-5)

    def test_rejects_bad_gaps(self):
        with pytest.raises(DegenerateFitError):
            fit_exponential(np.array([1.0]))
        with pytest.raises(InvalidArgumentError):
            fit_exponential(np.array([0.5, -0.1]))
        with pytest.raises(DegenerateFitError):
            fit_exponential(np.zeros(10))

    def test_largest_mean_gap_fits_without_overflow(self):
        gaps = np.random.default_rng(8).exponential(1.0, 50)
        gaps *= 0.999 * _MAX_MEAN_GAP / gaps.mean()
        with np.errstate(all="raise"):
            r = fit_exponential(gaps, n_bootstrap=10, seed=0)
        assert r.estimate == pytest.approx(
            fit_exponential(gaps / _MAX_MEAN_GAP, n_bootstrap=10,
                            seed=0).estimate * _MAX_MEAN_GAP, rel=1e-5)
        with pytest.raises(InvalidArgumentError, match="mean gap"):
            fit_exponential(gaps * 1.01)


class TestChiSquare:
    def test_hand_computed_statistic(self):
        # obs [30, 20, 50] against p [1/4, 1/4, 1/2] at N=100:
        # chi2 = 25/25 + 25/25 + 0 = 2.0 with dof 2, and for dof 2 the
        # survival function is exactly exp(-x/2)
        g = chi_square_gof(np.array([30, 20, 50]),
                           np.array([0.25, 0.25, 0.5]))
        assert g.statistic == pytest.approx(2.0, abs=1e-12)
        assert g.dof == 2
        assert g.p_value == pytest.approx(np.exp(-1.0), abs=1e-12)
        assert g.n_pooled == 3

    def test_fitted_parameters_reduce_dof(self):
        g = chi_square_gof(np.array([30, 20, 50]),
                           np.array([0.25, 0.25, 0.5]), n_fitted=1)
        assert g.dof == 1

    def test_small_cells_pooled(self):
        # middle cells expect 2 each and pool together
        obs = np.array([50, 2, 3, 45])
        probs = np.array([0.5, 0.02, 0.03, 0.45])
        g = chi_square_gof(obs, probs)
        assert g.n_pooled == 3

    def test_trailing_remainder_folds_left(self):
        obs = np.array([50, 49, 1])
        probs = np.array([0.5, 0.49, 0.01])
        g = chi_square_gof(obs, probs)
        assert g.n_pooled == 2
        # perfect agreement after folding
        assert g.statistic == pytest.approx(0.0, abs=1e-12)

    def test_deficit_mass_becomes_tail_category(self):
        # model covers only 0.9 of the mass; the missing 0.1 expects
        # 10 counts and sees none: chi2 = 100/10 + 25/45 + 25/45
        obs = np.array([50, 50])
        probs = np.array([0.45, 0.45])
        g = chi_square_gof(obs, probs)
        assert g.statistic == pytest.approx(100 / 10 + 2 * 25 / 45, abs=1e-9)
        assert g.n_pooled == 3

    def test_point_mass_exact_match(self):
        g = chi_square_gof(np.array([100, 0]), np.array([1.0, 0.0]))
        assert g.statistic == 0.0
        assert g.p_value == 1.0
        assert g.dof == 0

    def test_point_mass_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            chi_square_gof(np.array([99, 1]), np.array([1.0, 0.0]))

    def test_calibration_near_nominal(self):
        # true-model data should reject at roughly the nominal 5 percent
        rng = np.random.default_rng(13)
        probs = np.full(8, 1 / 8.0)
        rejects = sum(
            chi_square_gof(rng.multinomial(2000, probs), probs).p_value < 0.05
            for _ in range(300)
        )
        assert 3 <= rejects <= 30  # 5 percent of 300 is 15

    def test_power_against_truncation(self):
        # clipping a Poisson at 5 is the kind of distortion this must catch
        rng = np.random.default_rng(14)
        from scipy import stats as sps

        counts = np.minimum(rng.poisson(4.0, 5000), 5)
        hist = np.bincount(counts, minlength=10)
        probs = sps.poisson.pmf(np.arange(10), 4.0)
        g = chi_square_gof(hist, probs)
        assert g.p_value < 1e-6

    def test_validation_errors(self):
        with pytest.raises(InvalidArgumentError):
            chi_square_gof(np.array([1, 2]), np.array([0.5]))
        with pytest.raises(InvalidDistributionError):
            chi_square_gof(np.array([1, 2]), np.array([0.9, 0.4]))
        with pytest.raises(InvalidArgumentError):
            chi_square_gof(np.zeros(3, dtype=int), np.full(3, 1 / 3))
        with pytest.raises(InvalidArgumentError):
            chi_square_gof(np.array([50, 50]), np.array([0.5, 0.5]), n_fitted=1)


def make_fit(estimate, lo, hi):
    return FitResult(estimate=estimate, ci_low=lo, ci_high=hi, residual=0.0,
                     method="least-squares", n_samples=100, n_bootstrap=10,
                     seed=0)


class TestMeanConsistency:
    def test_agreeing_fits_overlap(self):
        counts = make_fit(4.0, 3.9, 4.1)
        taus = make_fit(0.5e-6, 0.48e-6, 0.52e-6)  # implies 3.85..4.17
        rep = mean_consistency(counts, taus, 2e-6)
        assert rep.implied_mean == pytest.approx(4.0)
        assert rep.implied_ci[0] == pytest.approx(2e-6 / 0.52e-6)
        assert rep.implied_ci[1] == pytest.approx(2e-6 / 0.48e-6)
        assert rep.implied_ci[0] < rep.implied_ci[1]
        assert rep.ci_overlap
        assert rep.ratio == pytest.approx(1.0)

    def test_disagreeing_fits_flagged(self):
        counts = make_fit(4.0, 3.95, 4.05)
        taus = make_fit(0.25e-6, 0.24e-6, 0.26e-6)  # implies about 8
        rep = mean_consistency(counts, taus, 2e-6)
        assert not rep.ci_overlap
        assert rep.ratio == pytest.approx(0.5, rel=0.01)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            mean_consistency(make_fit(4, 3, 5), make_fit(0.5, 0.4, 0.6), 0.0)
        with pytest.raises(InvalidArgumentError):
            mean_consistency(make_fit(4, 3, 5), make_fit(0.0, 0.0, 0.1), 2e-6)

    def test_serializes(self):
        rep = mean_consistency(make_fit(4.0, 3.9, 4.1),
                               make_fit(0.5e-6, 0.48e-6, 0.52e-6), 2e-6)
        d = asdict(rep)
        json.dumps(d)
        assert isinstance(d["ci_overlap"], bool)
        assert d["implied_mean"] == pytest.approx(4.0)


class TestFitRecipe:
    """The three fits share one estimate-plus-bootstrap helper; pin what
    each returns on seeded data so a change to the helper shows at once."""

    # sha256 of json.dumps(asdict(fit), sort_keys=True)
    CASES = {
        "fit_t2": (
            lambda rng: fit_t2(rng.multinomial(5000, bin_probabilities(8, 0.763)),
                               n_bootstrap=60, seed=4),
            "c8d8a61ded0db7c0aaeccbb1f13de70c84b4d7f48f7073f13a590b06b737001b"),
        "fit_poisson": (
            lambda rng: fit_poisson(rng.poisson(4.0, 2000), n_bootstrap=60,
                                    seed=4),
            "a2e8d84c3062c3bc560893cea5ed3981651c4797fcf277c254aeab3fba9f0047"),
        "fit_exponential": (
            lambda rng: fit_exponential(rng.exponential(5e-7, 3000),
                                        n_bootstrap=60, seed=4),
            "bc94a3c2325202dbeb9592b1620b4a94e74304611a7e27567b3e7c57e23c5483"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_result_pinned(self, name):
        fit, sha256 = self.CASES[name]
        d = asdict(fit(np.random.default_rng(2024)))
        assert d["n_bootstrap"] == 60 and d["method"] == "least-squares"
        text = json.dumps(d, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == sha256


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def objective(kind: str, c: float, a: float, w: float):
    """Scalar objectives of the shapes the fits hand to the minimizer."""
    if kind == "smooth":
        return lambda x: (x - c) ** 2 + a * np.cos(w * x)
    if kind == "inf-left":  # fit_t2's nll is inf where a bin has no mass
        return lambda x: np.inf if x < c else (x - c - a) ** 2
    if kind == "inf-right":
        return lambda x: np.inf if x > c else (x - c + a) ** 2
    if kind == "flat":
        return lambda x: a
    if kind == "steps":  # plateaus make the minimizer's ties happen
        return lambda x: np.floor(abs(x - c) * w)
    # monotone: the minimum sits on one bracket edge
    return lambda x: (w - 5.0) * x


class TestFminbound:
    """scipy's fminbound is the oracle: same func, same bits."""

    @settings(max_examples=400, deadline=None)
    @given(kind=st.sampled_from(["smooth", "inf-left", "inf-right", "flat",
                                 "steps", "edge"]),
           x1=st.floats(-10.0, 10.0),
           width=st.one_of(st.just(0.0), st.floats(1e-9, 30.0)),
           c=st.floats(-15.0, 15.0), a=st.floats(0.0, 3.0),
           w=st.floats(0.0, 10.0),
           xtol=st.sampled_from([1e-10, 1e-8, 1e-5, 1e-2]),
           maxiter=st.sampled_from([1, 2, 3, 7, 500]))
    def test_matches_scipy(self, kind, x1, width, c, a, w, xtol, maxiter):
        func = objective(kind, c, a, w)
        x2 = x1 + width
        with np.errstate(invalid="ignore"):
            want = optimize.fminbound(func, x1, x2, xtol=xtol, maxfun=maxiter,
                                      disp=0)
            got = _fminbound(func, x1, x2, xtol=xtol, maxiter=maxiter)
        assert same_bits(got, want)

    @pytest.mark.parametrize("x1, x2", [
        (float("nan"), 1.0), (0.0, float("inf")), (-float("inf"), 0.0),
        (1.0, 0.0), (np.zeros(2), 1.0),
    ])
    def test_bad_bounds_rejected(self, x1, x2):
        with pytest.raises(InvalidArgumentError, match="bound"):
            _fminbound(lambda x: x * x, x1, x2, xtol=1e-8)


class TestSpecialForms:
    """The scipy.special forms the fits use equal scipy.stats bit for bit."""

    LAM = np.concatenate([[0.0, 1e-9], np.linspace(0.0, 60.0, 2002)])
    K = np.arange(200)

    def test_poisson_pmf(self):
        assert same_bits(poisson_pmf(self.K[None, :], self.LAM[:, None]),
                         sps.poisson.pmf(self.K[None, :], self.LAM[:, None]))

    def test_poisson_sf(self):
        assert same_bits(special.pdtrc(self.K[None, :], self.LAM[:, None]),
                         sps.poisson.sf(self.K[None, :], self.LAM[:, None]))

    def test_chi2_sf(self):
        rng = np.random.default_rng(7)
        dof = rng.integers(1, 120, size=5000)
        x = np.concatenate([[0.0], rng.uniform(0.0, 300.0, size=4999)])
        assert same_bits(special.chdtrc(dof, x), sps.chi2.sf(x, dof))


class TestBootstrapLimit:
    """Oversized bootstraps are refused before their table is allocated."""

    @pytest.mark.parametrize("fit, data, columns", [
        (fit_t2, [5, 3, 2, 1], T2_GRID_POINTS),
        (fit_poisson, [1, 2, 3, 0], 5),
        (fit_exponential, [1.0, 2.0, 0.5], 51),
    ])
    def test_limit(self, fit, data, columns):
        largest = MAX_BOOTSTRAP_CELLS // columns
        with pytest.raises(ResourceLimitError, match="n_bootstrap"):
            fit(data, n_bootstrap=largest + 1)
        with pytest.raises(ResourceLimitError, match="n_bootstrap"):
            fit(data, n_bootstrap=10**12)
