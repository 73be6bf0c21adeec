"""Tests for the estimators and goodness-of-fit machinery."""

import hashlib
import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as sps

import qgalton.stats
import qgalton.walk
import reference_impl
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
    _GOLDEN_ITERATIONS,
    _MAX_MEAN_GAP,
    _MIN_MEAN_GAP,
    _exp_mass_matrix,
    _gap_bins,
    _golden_minimize,
    _grid_degeneracy,
    _igamc,
    _log_factorials,
    _mean_gap,
    _poisson_pmf_matrix,
)
from qgalton.walk import bin_probabilities, unchecked_bin_polynomial


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

    def test_walk_sampled_three_times(self, monkeypatch):
        # the grid scan and the resample model read the walk itself, and
        # the golden-section probes its polynomial from stages + 1 nodes
        sizes = []

        def counted(stages, t_squared, input_port="left"):
            sizes.append(np.size(t_squared))
            return bin_probabilities(stages, t_squared, input_port)

        monkeypatch.setattr(qgalton.walk, "bin_probabilities", counted)
        monkeypatch.setattr(qgalton.stats, "bin_probabilities", counted)
        counts = np.random.default_rng(1).multinomial(
            3000, bin_probabilities(6, 0.4))
        fit_t2(counts, n_bootstrap=20, seed=0)
        assert sorted(sizes) == [1, 7, T2_GRID_POINTS]

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

    @pytest.mark.parametrize("counts", [[2**62] * 4 + [3, 7], [2**62] * 2])
    def test_total_past_int64_rejected(self, counts):
        # an int64 sum wraps these to 10 and to -2**63
        with pytest.raises(InvalidArgumentError, match="histogram counts sum"):
            fit_t2(np.array(counts, dtype=np.int64), n_bootstrap=10)

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
        # past the edges: 20 * mean overflows, or the mean is subnormal
        for gaps in ([1e308, 1e308], [5e-324, 1e-323]):
            with pytest.raises(InvalidArgumentError, match="gaps: mean gap"):
                fit_exponential(np.array(gaps))

    @staticmethod
    def fits_inside_edge(edge, inside, past):
        # the edges are where the bracket mean / 20 .. 20 * mean stops being
        # finite and normal; inside them the fit is the unit-scale fit scaled.
        # 20 gaps keep their sum finite at the top edge
        gaps = np.random.default_rng(8).exponential(1.0, 20)
        gaps *= inside * edge / gaps.mean()
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            r = fit_exponential(gaps, n_bootstrap=10, seed=0)
        assert r.estimate == pytest.approx(
            fit_exponential(gaps / edge, n_bootstrap=10,
                            seed=0).estimate * edge, rel=1e-5)
        with pytest.raises(InvalidArgumentError, match="gaps: mean gap"):
            fit_exponential(gaps / inside * past)

    def test_largest_mean_gap_fits_without_overflow(self):
        self.fits_inside_edge(_MAX_MEAN_GAP, 0.999, 1.01)

    def test_smallest_mean_gap_fits(self):
        self.fits_inside_edge(_MIN_MEAN_GAP, 1.001, 0.99)

    def test_mean_fits_where_the_sum_overflows(self):
        # 50 gaps at the top edge sum past the float maximum; their mean,
        # taken on the gaps scaled by a power of two, still fits, and the
        # whole fit is the scaled gaps' fit scaled back
        gaps = np.random.default_rng(8).exponential(1.0, 50)
        gaps *= 0.999 * _MAX_MEAN_GAP / gaps.mean()
        with np.errstate(over="ignore"):
            assert np.sum(gaps) == np.inf
        with np.errstate(all="raise"):
            big = fit_exponential(gaps, n_bootstrap=10, seed=0)
        scale = 2.0 ** 64
        small = fit_exponential(gaps / scale, n_bootstrap=10, seed=0)
        for field in ("estimate", "ci_low", "ci_high", "mle"):
            assert getattr(big, field) == getattr(small, field) * scale
        assert big.mle <= _MAX_MEAN_GAP

    @pytest.mark.parametrize("gaps", [[1e300, 2e300], [1e306, 3e306]])
    def test_huge_gaps_scale_exactly(self, gaps):
        # a power of two scales every step of the fit without rounding
        gaps = np.array(gaps)
        scale = 2.0 ** 1000
        with np.errstate(all="raise"):
            big = fit_exponential(gaps, n_bootstrap=20, seed=3)
        small = fit_exponential(gaps / scale, n_bootstrap=20, seed=3)
        for field in ("estimate", "ci_low", "ci_high", "mle"):
            assert getattr(big, field) == getattr(small, field) * scale
        assert big.residual == small.residual


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
            "941f198ab4e1c6e73cb24b44c54c1f02df2d7294a82a23dd77177db22c5c6027"),
        "fit_poisson": (
            lambda rng: fit_poisson(rng.poisson(4.0, 2000), n_bootstrap=60,
                                    seed=4),
            "39a1c9092a3163531645d2f2af8f2c1e02ebccae56ffc4d73b8b1d1cb79c3225"),
        "fit_exponential": (
            lambda rng: fit_exponential(rng.exponential(5e-7, 3000),
                                        n_bootstrap=60, seed=4),
            "acb2d288449d71f41ba276650aa0e17601c6e12459e4cb9c7ed23f7c06e7d900"),
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
    """Objectives of the shapes the fits hand to the minimizer, vectorized
    over points."""
    if kind == "smooth":
        return lambda x: (x - c) ** 2 + a * np.cos(w * x)
    if kind == "inf-left":  # fit_t2's nll is inf where a bin has no mass
        return lambda x: np.where(x < c, np.inf, (x - c - a) ** 2)
    if kind == "inf-right":
        return lambda x: np.where(x > c, np.inf, (x - c + a) ** 2)
    if kind == "flat":
        return lambda x: np.full_like(x, a)
    if kind == "steps":  # plateaus make the minimizer's ties happen
        return lambda x: np.floor(np.abs(x - c) * w)
    # monotone: the minimum sits on one bracket edge
    return lambda x: (w - 5.0) * x


def true_minimizer(kind, c, a, w, lo, hi):
    """The minimizer of a shape that is unimodal on [lo, hi], else None."""
    if kind == "smooth" and a == 0.0:
        return min(max(c, lo), hi)
    if kind == "inf-left":  # inf plateau on the left: ties move right
        return min(max(c + a, lo), hi)
    if kind == "inf-right" and c >= hi:  # no inf inside the bracket
        return min(max(c - a, lo), hi)
    if kind == "edge" and w != 5.0:
        return lo if w > 5.0 else hi
    return None


def resolution(f, want, lo, hi, shift, ulps=16):
    """How far from want, inside [lo, hi], f stays within ``ulps`` ulps of
    f(want).

    Floating point cannot order points that close to the minimum, and a
    tie moves the minimizer right, so it may end anywhere in that reach.
    A wrong tie further out needs a plateau of f at least 1/phi times its
    distance from want, and past 16 ulps of f(want) the plateaus of these
    shapes are narrower.  f rises away from want on each side, so each edge
    of the reach is found by bisection.

    Where f(want) is 0 its ulps are subnormal and miss the plateaus: f
    adds ``shift`` (|c| + |a|) to x before squaring, which rounds x to
    steps of up to an ulp of shift, so f is flat on each such step, and
    the reach is at least a few of them.
    """
    level = f(np.array([want]))[0]
    if not np.isfinite(level):
        return hi - lo
    floor = 4.0 * np.spacing(shift) if level == 0.0 else 0.0
    level += ulps * np.spacing(abs(level))
    reach = 0.0
    for end in (lo, hi):
        inside, outside = want, end
        if f(np.array([end]))[0] <= level:
            inside = outside
        while True:
            mid = 0.5 * (inside + outside)
            if mid in (inside, outside):
                break
            if f(np.array([mid]))[0] <= level:
                inside = mid
            else:
                outside = mid
        reach = max(reach, abs(outside - want))
    return max(reach, floor)


# Each probe, x1 = b - g (b - a) or x2 = a + g (b - a) with g = 1/phi, is
# rounded by at most an ulp of max(|lo|, |hi|).  The probes stay in order,
# so a bracket keeps the minimizer, while their exact gap g**3 (b - a)
# exceeds two such ulps; every later bracket nests inside the last one
# that did, so rounding costs at most this many ulps.
STEP_ULPS = 2.0 / ((np.sqrt(5.0) - 1.0) / 2.0) ** 3


def stacked(funcs):
    """One objective over rows: row i owns point i."""
    n = len(funcs)

    def f(x):
        out = np.empty_like(x)
        for i, fn in enumerate(funcs):
            out[i::n] = fn(x[i::n])
        return out
    return f


ROW = st.tuples(
    st.sampled_from(["smooth", "inf-left", "inf-right", "flat", "steps",
                     "edge"]),
    st.floats(-10.0, 10.0),
    st.one_of(st.just(0.0), st.floats(1e-9, 30.0)),
    st.floats(-15.0, 15.0),
    st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    st.floats(0.0, 10.0),
)


class TestGoldenMinimize:
    """The one bounded minimizer: every estimate, MLE and bootstrap refit."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(ROW, min_size=1, max_size=5))
    # brackets only ulps wide, where (x + 1)**2 and 0.3125 x cannot tell
    # neighbouring points apart
    @example(rows=[("smooth", 0.0, 1e-9, -1.0, 0.0, 0.0)])
    @example(rows=[("edge", 7.0, 1e-9, 0.0, 0.0, 5.3125)])
    # x - 1 + 1 is 0 on a plateau around the minimizer at 0, whose next
    # steps sit an ulp of 1 apart
    @example(rows=[("inf-right", 0.0, 1e-9, 1.0, 1.0, 0.0)])
    def test_rows_in_bracket_accurate_and_independent(self, rows):
        funcs = [objective(kind, c, a, w) for kind, _, _, c, a, w in rows]
        lo = np.array([x1 for _, x1, *_ in rows])
        hi = lo + np.array([width for _, _, width, *_ in rows])
        together = _golden_minimize(stacked(funcs), lo, hi)
        for i, (kind, _, _, c, a, w) in enumerate(rows):
            alone = _golden_minimize(funcs[i], lo[i:i + 1], hi[i:i + 1])
            assert same_bits(alone, together[i:i + 1])
            assert lo[i] <= together[i] <= hi[i]
            want = true_minimizer(kind, c, a, w, lo[i], hi[i])
            if want is not None:
                # 48 steps leave 1e-10 of the bracket; on top of that, what
                # floating point cannot resolve, in f and in the steps
                steps = STEP_ULPS * np.spacing(max(abs(lo[i]), abs(hi[i])))
                shift = 0.0 if kind == "edge" else abs(c) + abs(a)
                assert (abs(together[i] - want)
                        <= 1e-9 * (hi[i] - lo[i]) + steps
                        + resolution(funcs[i], want, lo[i], hi[i], shift))

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(ROW, min_size=1, max_size=5))
    @example(rows=[("smooth", 0.0, 1e-9, -1.0, 0.0, 0.0)])
    @example(rows=[("inf-right", 0.0, 1e-9, 1.0, 1.0, 0.0)])
    @example(rows=[("steps", 0.5, 30.0, 0.0, 0.0, 0.0),
                   ("flat", 0.0, 0.0, 0.0, 0.0, 0.0)])
    def test_rows_match_scalar_textbook_search(self, rows):
        # each row keeps one probe per step, its position and value, as
        # the scalar search does: the same bits on every row
        funcs = [objective(kind, c, a, w) for kind, _, _, c, a, w in rows]
        lo = np.array([x1 for _, x1, *_ in rows])
        hi = lo + np.array([width for _, _, width, *_ in rows])
        got = _golden_minimize(stacked(funcs), lo, hi)
        for i, fn in enumerate(funcs):
            want = reference_impl.golden_minimize(
                lambda x: fn(np.array([x]))[0], float(lo[i]), float(hi[i]),
                _GOLDEN_ITERATIONS)
            assert same_bits(got[i:i + 1], [want])

    def test_one_new_probe_per_row_and_step(self):
        # two calls for the first probes, then one per step but the last
        shapes = []

        def counted(x):
            shapes.append(x.shape)
            return (x - 0.3) ** 2

        _golden_minimize(counted, np.zeros(3), np.array([1.0, 2.0, 3.0]))
        assert shapes == [(3,)] * (_GOLDEN_ITERATIONS + 1)

    @pytest.mark.parametrize("stages, t2", [(8, 0.763), (8, 0.3), (5, 0.9)])
    def test_fit_t2_rows_solve_alone(self, stages, t2):
        # fit_t2 searches its estimate and MLE as two rows of one call;
        # each equals its own one-row search over the same grid bracket,
        # scanned on the walk and refined on the fit's polynomial
        counts = np.random.default_rng(3).multinomial(
            4000, bin_probabilities(stages, t2))
        fit = fit_t2(counts, n_bootstrap=10, seed=0)
        freq = counts / counts.sum()
        mask = counts > 0
        grid = np.linspace(0.0, 1.0, T2_GRID_POINTS)
        polynomial = unchecked_bin_polynomial(stages, "left")

        def walk(x):
            return bin_probabilities(stages, x)

        def ls(model):
            return lambda x: ((freq - model(x)) ** 2).sum(axis=1)

        def nll(model):
            def f(x):
                with np.errstate(divide="ignore"):
                    return -(counts[mask] * np.log(
                        model(x)[:, mask])).sum(axis=1)
            return f

        def alone(objective):
            k = int(np.argmin(objective(walk)(grid)))
            lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
            return _golden_minimize(objective(polynomial), np.array([lo]),
                                    np.array([hi]))

        assert same_bits(alone(ls), [fit.estimate])
        assert same_bits(alone(nll), [fit.mle])


def close_to(got, want, rel=1e-12, tiny=1e-300) -> bool:
    """Within rel of want where |want| > tiny, and within tiny below it."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want)
    big = np.abs(want) > tiny
    return (got.shape == want.shape
            and bool(np.all(err[big] <= rel * np.abs(want[big])))
            and bool(np.all(err[~big] <= tiny)))


# each mean as a fraction of kmax + 1, the top of fit_poisson's bracket
LAM_FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)


def tail_bound(kmax: int) -> float:
    """The absolute bound on the tail column, 1 - sum of the pmf row.

    The row's own sum misses the true mass by up to 1e-14 up to kmax 20.
    Past it the exponent's few roundings, log(lam) times k first, each
    cost up to about 2**-53 lam log(lam) over the row, as in scipy's xlogy
    form (whose rows miss 1 by 3.4e-14 at kmax 80).  A tail far below
    these bounds has no relative accuracy left; the fit reads it only
    through its square, next to an observed zero.
    """
    if kmax <= 20:
        return 1e-14
    return 4.0 * 2.0**-53 * (kmax + 1) * np.log(kmax + 1)


class TestSpecialForms:
    """The Poisson pmf on a fixed grid of means, against scipy.stats within
    close_to's bounds, and the tail within tail_bound of it."""

    LAM = np.concatenate([[0.0, 1e-9], np.linspace(0.0, 60.0, 2002)])
    K = np.arange(200)

    def test_poisson_pmf(self):
        assert close_to(poisson_pmf(self.K[None, :], self.LAM[:, None]),
                        sps.poisson.pmf(self.K[None, :], self.LAM[:, None]))

    def test_poisson_sf(self):
        # the tail column at each kmax, over the means in its bracket
        # [0, kmax + 1]
        for kmax in self.K.tolist():
            lam = self.LAM[self.LAM <= kmax + 1]
            k = np.arange(kmax + 1)
            rows = _poisson_pmf_matrix(lam, k, _log_factorials(k))
            err = np.abs(rows[:, -1] - sps.poisson.sf(kmax, lam))
            assert np.all(err <= tail_bound(kmax)), kmax


class TestSpecialFunctions:
    """The Poisson pmf and the chi-square tail the fits use, written with
    numpy and math, against scipy.stats: within 1e-12 relative where
    scipy's value is above 1e-300, within 1e-300 below.  The Poisson tail,
    1 - sum of the pmf row, is held to scipy within tail_bound."""

    @staticmethod
    def matrix(kmax, fractions):
        lam = np.asarray(fractions) * (kmax + 1)
        k = np.arange(kmax + 1)
        return lam, k, _poisson_pmf_matrix(lam, k, _log_factorials(k))

    @settings(max_examples=300, deadline=None)
    @given(kmax=st.integers(1, 200), fractions=LAM_FRACTIONS)
    @example(kmax=1, fractions=[0.0, 1.0])
    @example(kmax=14, fractions=[0.0, 1e-300, 0.5, 1.0])
    @example(kmax=200, fractions=[0.0, 1e-9, 1.0])
    def test_pmf_and_tail_match_scipy(self, kmax, fractions):
        lam, k, rows = self.matrix(kmax, fractions)
        assert close_to(rows[:, :-1], sps.poisson.pmf(k, lam[:, None]))
        err = np.abs(rows[:, -1] - sps.poisson.sf(kmax, lam))
        assert np.all(err <= tail_bound(kmax))
        assert same_bits(rows[:, :-1], poisson_pmf(k, lam[:, None]))

    # the tail is the mass the row leaves, so a row sums to 1 up to the
    # rounding of its own sum: a few ulp, however far the pmf's own sum
    # misses the true mass
    @settings(max_examples=300, deadline=None)
    @given(kmax=st.integers(1, 200), fractions=LAM_FRACTIONS)
    @example(kmax=20, fractions=[0.0, 0.5, 1.0])
    @example(kmax=200, fractions=[1.0])
    def test_pmf_row_and_tail_sum_to_one(self, kmax, fractions):
        _, _, rows = self.matrix(kmax, fractions)
        tail = 1.0 - rows[:, :-1].sum(axis=1)
        assert same_bits(rows[:, -1], tail)
        assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= 16.0 * 2.0**-53)

    def test_edges_exact(self):
        # lam = 0 puts all mass on k = 0; k = 0 is exp(-lam)
        lam, _, rows = self.matrix(5, [0.0, 0.25])
        assert rows[0].tolist() == [1.0] + [0.0] * 6
        assert rows[1, 0] == np.exp(-lam[1])
        assert poisson_pmf(0, 0.0) == 1.0 and poisson_pmf(3, 0.0) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(dof=st.integers(1, 300), scale=st.floats(0.0, 4.0))
    @example(dof=1, scale=0.0)
    @example(dof=1, scale=3.84 / 11)
    @example(dof=1, scale=4.0)
    @example(dof=100, scale=124.3 / 110)
    @example(dof=100, scale=0.0)
    @example(dof=300, scale=1.0)
    @example(dof=300, scale=4.0)
    def test_chi_square_tail_matches_scipy(self, dof, scale):
        statistic = scale * (dof + 10)
        got = _igamc(dof / 2.0, statistic / 2.0)
        assert close_to(got, sps.chi2.sf(statistic, dof))
        if statistic == 0.0:
            assert got == 1.0


class TestRowsAlone:
    """Each row of the fits' model matrices has the same bits alone as
    inside a batch of other parameters, as `_golden_minimize` asks of every
    objective: a row's values depend on its own point and row alone."""

    @settings(max_examples=300, deadline=None)
    @given(kmax=st.integers(1, 200),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
    # rows far apart in one bracket: a tail that read anything batch-wide
    # would give the first row other bits here than alone
    @example(kmax=50, fractions=[0.14, 0.95])
    def test_poisson_rows(self, kmax, fractions):
        lam = np.asarray(fractions) * (kmax + 1)
        k = np.arange(kmax + 1)
        args = (k, _log_factorials(k))
        batch = _poisson_pmf_matrix(lam, *args)
        for i in range(lam.size):
            assert same_bits(_poisson_pmf_matrix(lam[i:i + 1], *args),
                             batch[i:i + 1]), lam[i]

    @settings(max_examples=300, deadline=None)
    @given(gaps=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=40)
           .filter(lambda g: sum(g) > 0.0),
           fractions=st.lists(st.floats(0.05, 20.0), min_size=2, max_size=8))
    def test_exponential_rows(self, gaps, fractions):
        # taus across fit_exponential's bracket, mean / 20 .. 20 * mean
        gaps = np.array(gaps)
        taus = np.asarray(fractions) * _mean_gap(gaps)
        edges, _ = _gap_bins(gaps)
        batch = _exp_mass_matrix(taus, edges)
        for i in range(taus.size):
            assert same_bits(_exp_mass_matrix(taus[i:i + 1], edges),
                             batch[i:i + 1]), taus[i]


def poisson_problem(counts):
    """fit_poisson's histogram, model and bracket, built by hand."""
    kmax = int(counts.max())
    freq = np.append(np.bincount(counts) / counts.size, 0.0)
    k = np.arange(kmax + 1)
    args = (k, _log_factorials(k))
    return (freq, lambda lam: _poisson_pmf_matrix(lam, *args),
            (0.0, kmax + 1.0))


def exponential_problem(gaps):
    """fit_exponential's histogram, model and bracket, built by hand."""
    edges, counts = _gap_bins(gaps)
    mean = _mean_gap(gaps)
    return (counts / gaps.size, lambda tau: _exp_mass_matrix(tau, edges),
            (mean / 20.0, mean * 20.0))


class TestOneSearch:
    """fit_poisson and fit_exponential search their estimate as row 0 of
    the bootstrap's one golden section, so it reads as a one-row search
    over the same bracket would, whatever the resamples."""

    CASES = {
        "fit_poisson": (fit_poisson, poisson_problem,
                        lambda rng: rng.poisson(4.0, 2000)),
        "fit_exponential": (fit_exponential, exponential_problem,
                            lambda rng: rng.exponential(5e-7, 3000)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_one_search_per_fit(self, monkeypatch, name):
        rows = []

        def counted(objective, lo, hi):
            rows.append(np.size(lo))
            return _golden_minimize(objective, lo, hi)

        monkeypatch.setattr(qgalton.stats, "_golden_minimize", counted)
        fit, _, draw = self.CASES[name]
        fit(draw(np.random.default_rng(5)), n_bootstrap=40, seed=0)
        assert rows == [41]

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("data_seed", [0, 5])
    def test_estimate_is_the_one_row_search(self, name, data_seed):
        fit, problem, draw = self.CASES[name]
        data = draw(np.random.default_rng(data_seed))
        freq, model, (lo, hi) = problem(data)

        def objective(x):
            return ((freq - model(x)) ** 2).sum(axis=1)

        estimate = _golden_minimize(objective, np.array([lo]), np.array([hi]))
        residual = objective(estimate)
        for n_bootstrap in (10, 500):
            for seed in (0, 1, 2):
                r = fit(data, n_bootstrap=n_bootstrap, seed=seed)
                assert same_bits([r.estimate], estimate), (n_bootstrap, seed)
                assert same_bits([r.residual], residual), (n_bootstrap, seed)


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

    def test_largest_t2_bootstrap_holds_one_table(self):
        # fit_t2 scans every resample on its grid in one n_bootstrap x grid
        # table; two of them at once would double the peak
        largest = MAX_BOOTSTRAP_CELLS // T2_GRID_POINTS
        counts = np.random.default_rng(0).multinomial(
            4000, bin_probabilities(8, 0.763))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fit_t2(counts, n_bootstrap=largest)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        table = largest * T2_GRID_POINTS * 8
        assert peak <= 1.25 * table, (peak, table)
