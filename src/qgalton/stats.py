"""Estimators and goodness-of-fit checks for decoded event streams.

Three fits share one recipe, `_least_squares_fit`: least squares between
an observed histogram and the model's bin masses for the headline estimate,
the analytic MLE alongside where one exists, and a bootstrap percentile
interval.  One bounded minimizer serves every search: a vectorized golden
section that solves many brackets at once, one row each.  The estimate is
a one-row search (fit_t2 stacks its MLE as a second row) and the bootstrap
refits all resamples in one search rather than a Python loop.  Each public
fit only checks its input, bins it and names its model.

Only `scipy.special` is used at run time: the distributions are written
out from its functions, so importing this module does not load scipy's
stats and optimize subpackages, which take most of a process's start-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special

from .errors import (
    DegenerateFitError,
    InvalidArgumentError,
    InvalidDistributionError,
    ResourceLimitError,
)
from .walk import bin_probabilities

DEFAULT_BOOTSTRAP = 500
_CI_LEVEL = 0.95
# fit_t2 scans t^2 on this grid before refining, every resample included
T2_GRID_POINTS = 513
# floats in one bootstrap table: n_bootstrap rows by the columns scored
MAX_BOOTSTRAP_CELLS = 2**23
_GOLDEN_ITERATIONS = 48
_MIN_EXPECTED = 5.0
# fit_exponential searches mean/20 .. 20*mean; golden section needs only
# both ends finite and normal
_MIN_MEAN_GAP = 20.0 * float(np.finfo(float).tiny)
_MAX_MEAN_GAP = float(np.finfo(float).max) / 20.0


def check_bootstrap_size(n_bootstrap: int, columns: int) -> None:
    """Refuse a bootstrap whose n_bootstrap x columns table is too large.

    Raises ResourceLimitError before anything is allocated.
    """
    if n_bootstrap * columns > MAX_BOOTSTRAP_CELLS:
        raise ResourceLimitError(
            f"n_bootstrap={n_bootstrap} with {columns} columns per resample: "
            f"limit is n_bootstrap * columns <= {MAX_BOOTSTRAP_CELLS}")


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

    objective maps 2n candidate points, both probes of each of the n rows
    stacked as [x1, x2], to objective values of the same shape; each value
    must depend on its own point and row alone.  _GOLDEN_ITERATIONS steps
    shrink the bracket by about 1e-10 of its width, well past the precision
    any fit needs.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a = np.asarray(lo, dtype=float).copy()
    b = np.asarray(hi, dtype=float).copy()
    n = a.size
    for _ in range(_GOLDEN_ITERATIONS):
        x1 = b - invphi * (b - a)
        x2 = a + invphi * (b - a)
        f = objective(np.concatenate([x1, x2]))
        keep_left = f[:n] < f[n:]
        b = np.where(keep_left, x2, b)
        a = np.where(keep_left, a, x1)
    return 0.5 * (a + b)


def _percentile_ci(samples: np.ndarray) -> tuple[float, float]:
    tail = 100.0 * (1.0 - _CI_LEVEL) / 2.0
    return (float(np.percentile(samples, tail)),
            float(np.percentile(samples, 100.0 - tail)))


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
                       resample_p: Optional[Callable[[float], np.ndarray]] = None,
                       boot_bracket: Optional[Callable[[np.ndarray], tuple]] = None,
                       estimate: Optional[float] = None,
                       mle: Optional[float] = None,
                       flags: tuple[str, ...] = ()) -> FitResult:
    """The recipe every fit shares: estimate, residual, bootstrap interval.

    model_rows maps a vector of parameter values to model rows aligned with
    freq; the objective is their summed squared difference.  Unless an
    estimate is given, a one-row golden section finds it inside bracket.
    The bootstrap draws n_bootstrap multinomial samples of n_samples from
    resample_p(estimate) (default: freq itself), zero-padded to the width of
    freq, and refits them all at once by golden section inside
    boot_bracket(resamples) (default: bracket for every resample).
    """
    check_bootstrap_size(n_bootstrap, freq.size)

    def objective_rows(x_rows: np.ndarray) -> np.ndarray:
        return ((freq[None, :] - model_rows(x_rows)) ** 2).sum(axis=1)

    if estimate is None:
        lo, hi = np.array([bracket], dtype=float).T
        estimate = float(_golden_minimize(objective_rows, lo, hi)[0])
    residual = float(objective_rows(np.array([estimate]))[0])

    rng = np.random.default_rng(seed)
    p = freq if resample_p is None else resample_p(estimate)
    resamples = rng.multinomial(n_samples, p, size=n_bootstrap) / n_samples
    pad = freq.size - resamples.shape[1]
    if pad:
        resamples = np.concatenate(
            [resamples, np.zeros((n_bootstrap, pad))], axis=1)

    if boot_bracket is None:
        boot_lo, boot_hi = (np.full(n_bootstrap, b) for b in bracket)
    else:
        boot_lo, boot_hi = boot_bracket(resamples)

    def boot_objective(x_rows: np.ndarray) -> np.ndarray:
        # x_rows holds both golden-section probes of every resample
        d = resamples - model_rows(x_rows).reshape(2, n_bootstrap, -1)
        return (d ** 2).sum(axis=-1).ravel()

    boot = _golden_minimize(boot_objective, boot_lo, boot_hi)
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

    def model_rows(t2_rows: np.ndarray) -> np.ndarray:
        return bin_probabilities(stages, t2_rows, input_port)

    # the objective oscillates in t^2 (the model is a degree-2*stages
    # polynomial family), so every minimization below starts from a grid
    # scan to land in the right basin before local refinement
    grid = np.linspace(0.0, 1.0, T2_GRID_POINTS)
    model_grid = model_rows(grid)

    def around(k) -> tuple:
        return grid[np.maximum(k - 1, 0)], grid[np.minimum(k + 1, grid.size - 1)]

    def grid_brackets(freq_rows: np.ndarray) -> tuple:
        objs = ((freq_rows**2).sum(axis=1)[:, None]
                - 2.0 * freq_rows @ model_grid.T
                + (model_grid**2).sum(axis=1)[None, :])
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
        # x is [estimate probe, MLE probe] per golden step, twice over
        model = model_rows(x)
        ls = ((freq[None, :] - model[0::2]) ** 2).sum(axis=1)
        return np.column_stack([ls, nll_rows(model[1::2])]).ravel()

    # the least-squares estimate and the MLE are two rows of one search
    estimate, mle = _golden_minimize(
        ls_and_nll, *around(np.array([grid_obj.argmin(),
                                      nll_rows(model_grid).argmin()])))

    return _least_squares_fit(
        model_rows, freq, total, (0.0, 1.0), n_bootstrap, seed,
        resample_p=lambda est: model_rows(np.array([est]))[0],
        boot_bracket=grid_brackets,
        estimate=0.5 if flat else float(estimate), mle=float(mle),
        flags=("flat-objective",) if flat else ())


def poisson_pmf(k, lam):
    """Poisson probability of k events at mean lam, broadcasting.

    Defined for integer k >= 0 and lam >= 0; outside that domain the value
    is meaningless (scipy's `poisson.pmf`, which this equals bit for bit
    on the domain, returns 0 or NaN there).
    """
    return np.exp(special.xlogy(k, lam) - special.gammaln(k + 1) - lam)


def _poisson_pmf_matrix(lam_rows: np.ndarray, kmax: int) -> np.ndarray:
    """pmf over k = 0..kmax per row plus a tail-mass column."""
    k = np.arange(kmax + 1)
    pmf = poisson_pmf(k[None, :], lam_rows[:, None])
    tail = special.pdtrc(kmax, lam_rows)[:, None]
    return np.concatenate([pmf, tail], axis=1)


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

    # kmax + 2 columns: one per count and the tail; sized before bincount
    check_bootstrap_size(n_bootstrap, kmax + 2)
    hist = np.bincount(counts, minlength=kmax + 1)
    freq = np.concatenate([hist / n_windows, [0.0]])  # tail is empty by design
    observed = freq[:-1] / freq[:-1].sum()
    return _least_squares_fit(
        lambda lam_rows: _poisson_pmf_matrix(lam_rows, kmax), freq,
        n_windows, (0.0, float(kmax + 1)), n_bootstrap, seed,
        resample_p=lambda est: observed, mle=float(counts.mean()))


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
    p_value = float(special.chdtrc(dof, statistic))
    return GofResult(statistic=statistic, dof=dof, p_value=p_value, n_pooled=k)
