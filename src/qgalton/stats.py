"""Estimators and goodness-of-fit checks for decoded event streams.

Three fits share one recipe, `_least_squares_fit`: least squares between
an observed histogram and the model's bin masses for the headline estimate,
the analytic MLE alongside where one exists, and a bootstrap percentile
interval.  One bounded minimizer serves every search: a vectorized golden
section that solves many brackets at once, one row each, and evaluates one
new probe per row and step, keeping the other.  fit_poisson and
fit_exponential search their estimate as row 0 above the bootstrap
resamples, all in one search rather than a Python loop; fit_t2, whose
parametric resamples need its estimate first, searches it and its MLE as
two rows of one search first.  Each public fit only checks its input,
bins it and names its model.  fit_t2's model is a polynomial of degree
stages in t^2: it scans the walk on a grid and reads its golden-section
probes off that polynomial (`unchecked_bin_polynomial`), each row's probe
in its own call.

Only numpy and `math` are used at run time: the Poisson pmf and tail and
the chi-square tail are written out here, so importing this module loads
no scipy, whose import would take most of a process's start-up.  The
tests hold them to `scipy.stats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateFitError,
    InvalidArgumentError,
    InvalidDistributionError,
    ResourceLimitError,
)
from .walk import bin_probabilities, unchecked_bin_polynomial

DEFAULT_BOOTSTRAP = 500
_CI_LEVEL = 0.95
# fit_t2 scans t^2 on this grid before refining, every resample included
T2_GRID_POINTS = 513
# floats in one bootstrap table: n_bootstrap rows by the columns scored
MAX_BOOTSTRAP_CELLS = 2**23
MIN_BOOTSTRAP = 10
_GOLDEN_ITERATIONS = 48
_MIN_EXPECTED = 5.0
# fit_exponential searches mean/20 .. 20*mean; golden section needs only
# both ends finite and normal
_MIN_MEAN_GAP = 20.0 * float(np.finfo(float).tiny)
_MAX_MEAN_GAP = float(np.finfo(float).max) / 20.0
# series and continued fractions stop at this relative size of a term
_EPS = 2.0**-53
# exp of anything below this is under the smallest normal float
_MIN_LOG = math.log(float(np.finfo(float).tiny))


def check_bootstrap_size(n_bootstrap: int, columns: int,
                         why: str = "") -> None:
    """Refuse a bootstrap whose n_bootstrap x columns table is too large.

    Raises ResourceLimitError before anything is allocated; ``why`` ends
    the message.
    """
    if n_bootstrap * columns > MAX_BOOTSTRAP_CELLS:
        raise ResourceLimitError(
            f"n_bootstrap={n_bootstrap} with {columns} columns per resample: "
            f"limit is n_bootstrap * columns <= {MAX_BOOTSTRAP_CELLS}{why}")


@dataclass(frozen=True)
class FitResult:
    """One estimate with its bootstrap percentile interval.

    residual is the least-squares objective at the estimate; mle is the
    analytic maximum-likelihood value when one exists for the model.
    """

    estimate: float
    ci_low: float
    ci_high: float
    residual: float
    method: str
    n_samples: int
    n_bootstrap: int
    seed: int
    mle: Optional[float] = None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class GofResult:
    """Pearson chi-square against a fitted or fixed model."""

    statistic: float
    dof: int
    p_value: float
    n_pooled: int


@dataclass(frozen=True)
class ConsistencyReport:
    """Cross-check of the per-window mean against interval timing.

    implied_mean is window / tau: the mean count the fitted inter-arrival
    time implies for one window.  ci_overlap reports whether the two 95
    percent intervals intersect.
    """

    count_mean: float
    count_ci: tuple[float, float]
    interval_mean: float
    interval_ci: tuple[float, float]
    window: float
    implied_mean: float
    implied_ci: tuple[float, float]
    ratio: float
    ci_overlap: bool


def _golden_minimize(objective: Callable[[np.ndarray], np.ndarray],
                     lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Golden-section minimum per row of a vectorized objective.

    objective maps n points, one per row, to their n values; each value
    must depend on its own point and row alone.  Each step keeps one
    interior probe of every row, its position and its value, and
    evaluates one new probe per row (Kiefer 1953; Press et al., Numerical
    Recipes section 10.2), so a search makes _GOLDEN_ITERATIONS + 1 calls:
    two for the first probes, then one per step but the last.  The kept
    position is never recomputed from the bracket, which would move it in
    the last bits.  _GOLDEN_ITERATIONS steps shrink the bracket by about
    1e-10 of its width, well past the precision any fit needs.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a = np.asarray(lo, dtype=float).copy()
    b = np.asarray(hi, dtype=float).copy()
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = objective(x1)
    f2 = objective(x2)
    for step in range(_GOLDEN_ITERATIONS):
        # keep [a, x2] where x1 is lower, x1 becoming its right probe; else
        # keep [x1, b], x2 becoming its left probe
        left = f1 < f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        if step == _GOLDEN_ITERATIONS - 1:
            break
        reach = invphi * (b - a)
        x_new = np.where(left, b - reach, a + reach)
        f_new = objective(x_new)
        x1, x2 = np.where(left, x_new, x2), np.where(left, x1, x_new)
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
    return 0.5 * (a + b)


def _percentile_ci(samples: np.ndarray) -> tuple[float, float]:
    tail = 100.0 * (1.0 - _CI_LEVEL) / 2.0
    low, high = np.percentile(samples, [tail, 100.0 - tail]).tolist()
    return low, high


def _grid_degeneracy(objective_on_grid: np.ndarray) -> None:
    """Reject objectives whose only minima are the two bracket ends."""
    obj = np.asarray(objective_on_grid)
    m = obj.min()
    at_min = np.isclose(obj, m, rtol=0.0, atol=1e-12 * max(1.0, float(obj.max())))
    if at_min[0] and at_min[-1] and not at_min[1:-1].any():
        raise DegenerateFitError(
            "objective is minimized only at both parameter bounds; the data "
            "do not identify the parameter"
        )


def _least_squares_fit(model_rows: Callable[[np.ndarray], np.ndarray],
                       freq: np.ndarray, n_samples: int,
                       bracket: tuple[float, float],
                       n_bootstrap: int, seed: int,
                       resample_p: Optional[np.ndarray] = None,
                       boot_bracket: Optional[Callable[[np.ndarray], tuple]] = None,
                       estimate: Optional[float] = None,
                       mle: Optional[float] = None,
                       flags: tuple[str, ...] = ()) -> FitResult:
    """The recipe every fit shares: estimate, residual, bootstrap interval.

    model_rows maps a vector of parameter values to model rows aligned with
    freq; the objective is their summed squared difference.  The bootstrap
    draws n_bootstrap multinomial samples of n_samples from the
    distribution resample_p (default: freq itself), zero-padded to the
    width of freq.  One golden section inside boot_bracket(rows) (default:
    bracket for every row) refits the rows: the resamples, under freq as
    row 0 unless an estimate is given.  A row's objective depends on its
    own point and row alone, so row 0 is the estimate a one-row search
    would find, whatever the resamples.  The residual is freq's objective
    at the estimate.
    """
    check_bootstrap_size(n_bootstrap, freq.size)

    def distances(data: np.ndarray, x_rows: np.ndarray) -> np.ndarray:
        return ((data - model_rows(x_rows)) ** 2).sum(axis=1)

    # row 0 is freq; rows 1 onward the resamples, zero-padded to its width
    rows = np.zeros((n_bootstrap + 1, freq.size))
    rows[0] = freq
    p = freq if resample_p is None else resample_p
    np.divide(np.random.default_rng(seed).multinomial(
        n_samples, p, size=n_bootstrap), n_samples, out=rows[1:, :p.size])
    if estimate is not None:
        rows = rows[1:]
    if boot_bracket is None:
        lo, hi = (np.full(rows.shape[0], b) for b in bracket)
    else:
        lo, hi = boot_bracket(rows)
    boot = _golden_minimize(lambda x_rows: distances(rows, x_rows), lo, hi)
    if estimate is None:
        estimate, boot = float(boot[0]), boot[1:]
    residual = float(distances(freq[None, :], np.array([estimate]))[0])
    ci_low, ci_high = _percentile_ci(boot)
    return FitResult(
        estimate=estimate, ci_low=ci_low, ci_high=ci_high, residual=residual,
        method="least-squares", n_samples=n_samples, n_bootstrap=n_bootstrap,
        seed=seed, mle=mle, flags=flags,
    )


def fit_t2(histogram, n_bootstrap: int = DEFAULT_BOOTSTRAP, seed: int = 0,
           input_port: str = "left") -> FitResult:
    """Least-squares coupler transmission from a bin histogram.

    The model is the walk distribution over 2*stages bins as a function of
    t^2; the objective is the summed squared difference between observed
    bin frequencies and model probabilities.  The interval comes from a
    parametric bootstrap: multinomial resamples at the fitted model,
    refitted by vectorized golden section.
    """
    counts = np.asarray(histogram, dtype=np.int64)
    if counts.ndim != 1 or counts.size < 2 or counts.size % 2:
        raise InvalidArgumentError(
            "histogram length must be 2 * stages, got shape "
            f"{counts.shape}"
        )
    if np.any(counts < 0):
        raise InvalidArgumentError("histogram counts must be nonnegative")
    # summed as Python ints, which do not wrap; the multinomial resamples
    # take at most 2**63 - 1 draws
    total = sum(counts.tolist())
    if total > 2**63 - 1:
        raise InvalidArgumentError(
            f"histogram counts sum to {total}: the limit is 2**63 - 1")
    if total == 0:
        raise DegenerateFitError("cannot fit transmission to an empty histogram")
    stages = counts.size // 2
    check_bootstrap_size(n_bootstrap, T2_GRID_POINTS)
    freq = counts / total

    # the objective oscillates in t^2 (each bin is a degree-stages
    # polynomial in t^2), so every minimization below starts from a scan of
    # the walk on a grid to land in the right basin; the golden-section
    # probes inside a bracket then read the same walk as its polynomial
    # the probes stay inside brackets within [0, 1], so they skip the check
    model_rows = unchecked_bin_polynomial(stages, input_port)
    grid = np.linspace(0.0, 1.0, T2_GRID_POINTS)
    model_grid = bin_probabilities(stages, grid, input_port)
    model_sums = (model_grid**2).sum(axis=1)

    def around(k) -> tuple:
        return grid[np.maximum(k - 1, 0)], grid[np.minimum(k + 1, grid.size - 1)]

    def grid_brackets(freq_rows: np.ndarray) -> tuple:
        # sum((f - m)**2) for every resample and grid point, built in one
        # n_bootstrap x grid table; scaling by 2 is exact, so these are the
        # bits of f.f - 2 f.m + m.m
        objs = freq_rows @ model_grid.T
        objs *= 2.0
        np.subtract((freq_rows**2).sum(axis=1)[:, None], objs, out=objs)
        objs += model_sums
        return around(objs.argmin(axis=1))

    grid_obj = ((freq[None, :] - model_grid) ** 2).sum(axis=1)
    _grid_degeneracy(grid_obj)
    flat = float(grid_obj.max() - grid_obj.min()) < 1e-15

    # multinomial MLE of t^2 on the same model, for reference; a bin with
    # counts but no model mass makes it inf
    mask = counts > 0

    def nll_rows(model: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return -(counts[mask] * np.log(model[:, mask])).sum(axis=1)

    def ls_and_nll(x: np.ndarray) -> np.ndarray:
        # x is [estimate probe, MLE probe]; each row reads the polynomial
        # in its own one-point call, as a one-row search does, because the
        # polynomial's bits can depend on the points one call holds
        ls = ((freq[None, :] - model_rows(x[:1])) ** 2).sum(axis=1)
        return np.concatenate([ls, nll_rows(model_rows(x[1:]))])

    # the least-squares estimate and the MLE are two rows of one search
    estimate, mle = _golden_minimize(
        ls_and_nll, *around(np.array([grid_obj.argmin(),
                                      nll_rows(model_grid).argmin()])))
    estimate = 0.5 if flat else float(estimate)

    return _least_squares_fit(
        model_rows, freq, total, (0.0, 1.0), n_bootstrap, seed,
        resample_p=bin_probabilities(stages, estimate, input_port),
        boot_bracket=grid_brackets, estimate=estimate, mle=float(mle),
        flags=("flat-objective",) if flat else ())


def _log_factorials(k) -> np.ndarray:
    """log k! for each integer k >= 0, each within an ulp or two."""
    k = np.asarray(k)
    return np.array([math.lgamma(v + 1.0) for v in k.ravel().tolist()],
                    dtype=float).reshape(k.shape)


def _pmf(k, lam, log_k_factorial) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        exponent = np.asarray(k * np.log(lam), dtype=float)
    # k log(lam) is 0 at k = 0, also where lam = 0
    np.copyto(exponent, 0.0, where=np.asarray(k) == 0)
    exponent -= log_k_factorial
    exponent -= lam
    return np.exp(exponent, out=exponent)


def poisson_pmf(k, lam):
    """Poisson probability of k events at mean lam, broadcasting.

    Defined for integer k >= 0 and lam >= 0; outside that domain the value
    is meaningless.
    """
    return _pmf(k, lam, _log_factorials(k))


def _tail_coefficients(kmax: int) -> np.ndarray:
    """The coefficients d_1..d_terms of `_poisson_pmf_matrix`'s tail at kmax.

    d_n is the product of (kmax + 1) / (kmax + j) for j = 1..n.  The tail's
    term ratios lam / (kmax + j) fall with j and grow with lam, so the term
    count is taken once, at the top of fit_poisson's bracket, lam = kmax + 1,
    and serves every mean in it: with r the next ratio there and q the next
    term over the first, the terms left are at most q / (1 - r) of the
    first, and the count stops where that is at most _EPS.
    """
    top = kmax + 1.0
    terms, q = 1, 1.0
    while True:
        r = top / (kmax + terms + 1)
        q *= r
        if q <= _EPS * (1.0 - r):
            break
        terms += 1
    return np.cumprod(top / (kmax + np.arange(1, terms + 1)))


def _poisson_pmf_matrix(lam_rows: np.ndarray, k: np.ndarray,
                        log_k_factorial: np.ndarray,
                        coefficients: np.ndarray) -> np.ndarray:
    """pmf over k = 0..kmax per row plus a tail-mass column.

    Each lam lies in [0, kmax + 1].  The tail P(X > kmax) is pmf(kmax) * R,
    R = sum over n >= 1 of d_n x**n with x = lam / (kmax + 1) <= 1 and
    coefficients = `_tail_coefficients(kmax)`, taken by Horner over all rows
    at once.  Every row takes the same terms, so a row's bits do not depend
    on the other rows of its call.
    """
    kmax = int(k[-1])
    pmf = _pmf(k[None, :], lam_rows[:, None], log_k_factorial)
    x = lam_rows / (kmax + 1)
    tail = np.full_like(x, coefficients[-1])
    for coefficient in coefficients[-2::-1].tolist():
        tail *= x
        tail += coefficient
    tail *= x
    tail *= pmf[:, -1]
    return np.concatenate([pmf, tail[:, None]], axis=1)


def fit_poisson(window_counts, n_bootstrap: int = DEFAULT_BOOTSTRAP,
                seed: int = 0) -> FitResult:
    """Least-squares Poisson mean from per-window counts.

    The observed count histogram (with an implicit empty tail category
    above the largest count) is matched against the Poisson pmf.  The MLE
    is the sample mean.  The interval is a nonparametric bootstrap over
    windows, done as multinomial resampling of the count histogram.
    """
    counts = np.asarray(window_counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size < 2:
        raise InvalidArgumentError("need counts from at least two windows")
    if np.any(counts < 0):
        raise InvalidArgumentError("window counts must be nonnegative")
    n_windows = counts.size
    kmax = int(counts.max())

    if kmax == 0:
        # nothing ever arrived; the rate is bounded by the rule of three
        return FitResult(
            estimate=0.0, ci_low=0.0, ci_high=3.0 / n_windows, residual=0.0,
            method="least-squares", n_samples=n_windows,
            n_bootstrap=n_bootstrap, seed=seed, mle=0.0, flags=("all-zero",),
        )

    # kmax + 2 columns: one per count and the tail; sized before bincount.
    # Past MAX_BOOTSTRAP_CELLS / MIN_BOOTSTRAP columns no bootstrap a run
    # config or fit option admits can help, so the refusal names the count
    why = ""
    if MIN_BOOTSTRAP * (kmax + 2) > MAX_BOOTSTRAP_CELLS:
        why = (f"; the largest count, {kmax}, passes it at any "
               f"n_bootstrap >= {MIN_BOOTSTRAP}")
    check_bootstrap_size(n_bootstrap, kmax + 2, why)
    hist = np.bincount(counts, minlength=kmax + 1)
    freq = np.concatenate([hist / n_windows, [0.0]])  # tail is empty by design
    observed = freq[:-1] / freq[:-1].sum()
    k = np.arange(kmax + 1)
    log_k_factorial = _log_factorials(k)
    coefficients = _tail_coefficients(kmax)
    return _least_squares_fit(
        lambda lam_rows: _poisson_pmf_matrix(lam_rows, k, log_k_factorial,
                                             coefficients),
        freq, n_windows, (0.0, float(kmax + 1)), n_bootstrap, seed,
        resample_p=observed, mle=float(counts.mean()))


def _exp_mass_matrix(tau_rows: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Exponential bin masses per row plus the open tail column."""
    z = np.exp(-edges[None, :] / tau_rows[:, None])
    return np.concatenate([z[:, :-1] - z[:, 1:], z[:, -1:]], axis=1)


def _mean_gap(gaps: np.ndarray) -> float:
    """The mean of finite gaps whose sum may pass the float maximum: then
    it is taken on the gaps scaled by a power of two, which is exact."""
    with np.errstate(over="ignore"):
        mean = float(gaps.mean())
    if mean == np.inf:
        mean = float((gaps * 2.0**-64).mean()) * 2.0**64
    return mean


def _gap_bins(gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The binning of fit_exponential: edges every tenth of the mean gap
    out to five means, and the count per bin with the open tail last."""
    edges = np.linspace(0.0, 5.0 * _mean_gap(gaps), 51)
    hist, _ = np.histogram(gaps, bins=edges)
    return edges, np.append(hist, gaps.size - hist.sum())


def gap_histogram(gaps, tau: float):
    """Gaps binned as fit_exponential bins them, against the exponential
    model at mean tau: the bin edges, the counts and the model masses, the
    last two each ending with the open tail."""
    edges, counts = _gap_bins(np.asarray(gaps, dtype=float))
    return edges, counts, _exp_mass_matrix(np.array([tau]), edges)[0]


def fit_exponential(intervals, n_bootstrap: int = DEFAULT_BOOTSTRAP,
                    seed: int = 0) -> FitResult:
    """Least-squares exponential mean from inter-arrival gaps.

    Gaps are binned at a tenth of their sample mean out to five means,
    with one open tail bin; bin masses are matched against the exponential
    model.  The MLE is the sample mean.  Bootstrap resamples reuse the
    original bin edges, which pins the multinomial equivalence.
    """
    gaps = np.asarray(intervals, dtype=float)
    if gaps.ndim != 1 or gaps.size < 2:
        raise DegenerateFitError("need at least two inter-arrival gaps to fit")
    if np.any(gaps < 0.0) or not np.all(np.isfinite(gaps)):
        raise InvalidArgumentError("gaps must be finite and nonnegative")
    n = gaps.size
    mean_gap = _mean_gap(gaps)
    if mean_gap <= 0.0:
        raise DegenerateFitError("all gaps are zero; no timescale to fit")
    if not _MIN_MEAN_GAP <= mean_gap <= _MAX_MEAN_GAP:
        raise InvalidArgumentError(
            f"gaps: mean gap {mean_gap:g} lies outside [{_MIN_MEAN_GAP:.3g}, "
            f"{_MAX_MEAN_GAP:.3g}], where the fit's bracket, mean / 20 to "
            "20 * mean, stays finite and normal")

    edges, counts = _gap_bins(gaps)
    freq = counts / n
    return _least_squares_fit(
        lambda tau_rows: _exp_mass_matrix(tau_rows, edges), freq, n,
        (mean_gap / 20.0, mean_gap * 20.0), n_bootstrap, seed, mle=mean_gap)


def mean_consistency(count_fit: FitResult, interval_fit: FitResult,
                     window: float) -> ConsistencyReport:
    """Check that per-window counts and gap timing tell one story.

    A Poisson stream at mean gap tau fills a window of length W with
    W / tau arrivals on average, so the two fits must agree up to their
    uncertainties.  The implied interval maps the gap interval through
    x -> W / x (monotone decreasing, so the endpoints swap).
    """
    if window <= 0.0:
        raise InvalidArgumentError(f"window must be positive, got {window}")
    if interval_fit.estimate <= 0.0:
        raise InvalidArgumentError("interval fit must have a positive mean")
    implied = window / interval_fit.estimate
    imp_lo = window / interval_fit.ci_high if interval_fit.ci_high > 0 else np.inf
    imp_hi = window / interval_fit.ci_low if interval_fit.ci_low > 0 else np.inf
    overlap = (count_fit.ci_low <= imp_hi) and (imp_lo <= count_fit.ci_high)
    return ConsistencyReport(
        count_mean=count_fit.estimate,
        count_ci=(count_fit.ci_low, count_fit.ci_high),
        interval_mean=interval_fit.estimate,
        interval_ci=(interval_fit.ci_low, interval_fit.ci_high),
        window=window,
        implied_mean=implied,
        implied_ci=(imp_lo, imp_hi),
        ratio=count_fit.estimate / implied,
        ci_overlap=bool(overlap),
    )


def chi_square_gof(observed, expected_probs, n_fitted: int = 0) -> GofResult:
    """Pearson chi-square with small-expectation pooling.

    Categories are pooled left to right until each pooled cell expects at
    least _MIN_EXPECTED (5) counts; a trailing remainder folds into the last
    cell.  When the model mass does not reach one, the deficit becomes an
    extra category with zero observed counts.  dof is cells - 1 - n_fitted.
    """
    obs = np.asarray(observed, dtype=np.int64)
    probs = np.asarray(expected_probs, dtype=float)
    if obs.ndim != 1 or probs.ndim != 1 or obs.size != probs.size:
        raise InvalidArgumentError("observed and expected_probs must match in length")
    if np.any(obs < 0):
        raise InvalidArgumentError("observed counts must be nonnegative")
    if np.any(probs < 0.0):
        raise InvalidDistributionError("expected probabilities must be nonnegative")
    mass = probs.sum()
    if mass > 1.0 + 1e-9:
        raise InvalidDistributionError(f"expected probabilities sum to {mass} > 1")
    total = int(obs.sum())
    if total == 0:
        raise InvalidArgumentError("no observed counts to test")

    if mass < 1.0 - 1e-12:
        obs = np.append(obs, 0)
        probs = np.append(probs, 1.0 - mass)

    expected = total * probs
    pooled_obs: list[float] = []
    pooled_exp: list[float] = []
    acc_o = 0.0
    acc_e = 0.0
    for o, e in zip(obs, expected):
        acc_o += o
        acc_e += e
        if acc_e >= _MIN_EXPECTED:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = 0.0
            acc_e = 0.0
    if acc_e > 0.0 or acc_o > 0.0:
        if pooled_obs:
            pooled_obs[-1] += acc_o
            pooled_exp[-1] += acc_e
        else:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)

    k = len(pooled_obs)
    if k < 2:
        # a bare point mass can still be checked for exact agreement
        peak = np.isclose(probs, 1.0, rtol=0.0, atol=1e-12)
        if peak.sum() == 1 and obs[peak][0] == total:
            return GofResult(statistic=0.0, dof=0, p_value=1.0, n_pooled=k)
        raise InvalidArgumentError(
            "fewer than two pooled categories; the model cannot be tested "
            "at this sample size"
        )

    o_arr = np.asarray(pooled_obs)
    e_arr = np.asarray(pooled_exp)
    statistic = float((((o_arr - e_arr) ** 2) / e_arr).sum())
    dof = k - 1 - n_fitted
    if dof < 1:
        raise InvalidArgumentError(
            f"{k} pooled categories leave no degrees of freedom after "
            f"fitting {n_fitted} parameters"
        )
    p_value = _igamc(dof / 2.0, statistic / 2.0)
    return GofResult(statistic=statistic, dof=dof, p_value=p_value, n_pooled=k)


def _igamc(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) for a > 0, x >= 0.

    Q(dof / 2, x / 2) is the chi-square tail.  This is the cephes form:
    below x = max(a, 1), 1 minus the power series of P(a, x); above it, a
    continued fraction, rescaled as its terms grow.  A value whose prefactor
    x**a exp(-x) / Gamma(a) underflows reads 0.
    """
    if x <= 0.0:
        return 1.0
    series = x < 1.0 or x < a
    log_prefactor = a * math.log(x) - x - math.lgamma(a)
    if not log_prefactor >= _MIN_LOG:
        return 1.0 if series else 0.0
    prefactor = math.exp(log_prefactor)
    if series:
        term = total = 1.0
        n = a
        while term > _EPS * total:
            n += 1.0
            term *= x / n
            total += term
        return 1.0 - total * prefactor / a
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    p_prev, q_prev, p, q = 1.0, x, x + 1.0, z * x
    value = p / q
    while True:
        c += 1.0
        y += 1.0
        z += 2.0
        p_prev, p = p, p * z - p_prev * y * c
        q_prev, q = q, q * z - q_prev * y * c
        if q != 0.0:
            step, value = value, p / q
            if abs(step - value) <= _EPS * abs(value):
                return value * prefactor
        if abs(p) > 2.0**52:
            p_prev, q_prev, p, q = (v * 2.0**-52 for v in (p_prev, q_prev,
                                                           p, q))
