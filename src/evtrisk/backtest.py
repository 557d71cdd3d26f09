"""Quantile-forecast backtesting: exceedance bookkeeping, coverage tests,
and rolling-window forecast harnesses.

A forecast of the level-p quantile of the loss distribution should be
exceeded with probability 1 - p.  The unconditional coverage (UC) test
checks the exceedance frequency, the independence (IND) test checks for
first-order clustering of exceedances via the transition matrix of the
indicator series, and the conditional coverage (CC) statistic is their sum
(chi-square with 2 degrees of freedom).

Two harnesses produce the indicator series:

* roll_unconditional re-estimates the stationary quantile on windows of
  `window` observations stepped by `step` days and counts exceedances over
  following test spans;
* roll_conditional refits AR(1)-GARCH(1,1) daily on a trailing window,
  estimates the residual quantile, and forecasts the next day's conditional
  quantile mu_next + sigma_next * q_resid (`Forecast.quantile`).

Quantile methods on a window (or residual) sample: "hill" (Hill fit at
k_alpha = 50 + tail extrapolation with k = 50), "corrected" (bias-corrected
Hill at k_alpha = 200, same extrapolation), "empirical" (order statistic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._special import ndtri, xlogy
from .argarch import _pack, filter_series, fit_qmle, forecast_next
from .errors import ConvergenceError, EstimationError, NegativeGammaError, _finite_floats
from .ingest import ReturnSeries
from .tailest import TAIL_ESTIMATORS, empirical_quantile, hill, weissman_quantile

__all__ = [
    "ExceedanceSeries",
    "BacktestReport",
    "SlidingBacktestSummary",
    "UncondRollResult",
    "CondRollResult",
    "exceedances",
    "uc_test",
    "ind_test",
    "cc_test",
    "sliding_backtest",
    "method_quantile",
    "roll_unconditional",
    "roll_conditional",
    "METHODS",
]

METHODS = ("hill", "corrected", "empirical")

K_ALPHA_HILL = 50
K_ALPHA_CORRECTED = 200
K_WEISSMAN = 50
_K_ALPHA = {"hill": K_ALPHA_HILL, "corrected": K_ALPHA_CORRECTED}

# roll_conditional fits cold (from fit_qmle's fixed starts) on fits 0, 250,
# 500, ...; the fits in between start warm from the previous day's fit, at the
# optimizer vector and inverse Hessian its search ended with
_COLD_EVERY = 250


@dataclass(frozen=True, eq=False)
class ExceedanceSeries:
    """0/1 exceedance indicators with the intended exceedance probability p."""

    indicators: np.ndarray
    p: float

    def __post_init__(self):
        raw = np.asarray(self.indicators)
        if raw.size and not np.isin(raw, (0, 1)).all():
            raise ValueError("indicators must be 0/1")
        if not 0 < self.p < 1:
            raise ValueError(f"p must be in (0, 1), got {self.p}")
        object.__setattr__(self, "indicators", raw.astype(np.int8, copy=False))

    @property
    def n(self) -> int:
        return int(self.indicators.size)

    @property
    def n1(self) -> int:
        return int(self.indicators.sum())


@dataclass(frozen=True)
class BacktestReport:
    """UC/IND/CC likelihood-ratio statistics and chi-square p-values."""

    lr_uc: float
    lr_ind: float
    lr_cc: float
    p_uc: float
    p_ind: float
    p_cc: float


def exceedances(realized, forecasts, p: float) -> ExceedanceSeries:
    """Indicator series of realized losses strictly above their forecasts."""
    realized = _finite_floats(realized, "realized losses")
    forecasts = _finite_floats(forecasts, "quantile forecasts")
    if realized.shape != forecasts.shape:
        raise ValueError(
            f"length mismatch: {realized.shape} realized vs {forecasts.shape} forecasts")
    return ExceedanceSeries(indicators=(realized > forecasts).astype(np.int8), p=p)


def _safe_div(num, den):
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


def _lr_uc(n1, n, p_exc):
    """Vectorized UC likelihood ratio; 0*log(0) = 0 throughout."""
    n1 = np.asarray(n1, dtype=float)
    n0 = n - n1
    pi = n1 / n
    ll_null = xlogy(n0, 1.0 - p_exc) + xlogy(n1, p_exc)
    ll_hat = xlogy(n0, 1.0 - pi) + xlogy(n1, pi)
    return np.maximum(-2.0 * (ll_null - ll_hat), 0.0)


def _lr_ind(n00, n01, n10, n11):
    """Vectorized IND likelihood ratio from transition counts."""
    n00, n01, n10, n11 = (np.asarray(c, dtype=float) for c in (n00, n01, n10, n11))
    total = n00 + n01 + n10 + n11
    pi = _safe_div(n01 + n11, total)
    pi01 = _safe_div(n01, n00 + n01)
    pi11 = _safe_div(n11, n10 + n11)
    ll_null = xlogy(n00 + n10, 1.0 - pi) + xlogy(n01 + n11, pi)
    ll_hat = (xlogy(n00, 1.0 - pi01) + xlogy(n01, pi01)
              + xlogy(n10, 1.0 - pi11) + xlogy(n11, pi11))
    return np.maximum(2.0 * (ll_hat - ll_null), 0.0)


def uc_test(e: ExceedanceSeries) -> tuple:
    """Unconditional coverage LR test: (lr_uc, p-value), chi-square df 1."""
    from scipy.special import chdtrc

    if e.n < 1:
        raise ValueError("need at least one indicator")
    lr = float(_lr_uc(e.n1, e.n, e.p))
    return lr, float(chdtrc(1, lr))


def ind_test(e: ExceedanceSeries) -> tuple:
    """First-order independence LR test: (lr_ind, p-value), chi-square df 1."""
    from scipy.special import chdtrc

    if e.n < 2:
        raise ValueError("need at least two indicators")
    lr = float(_window_lrs(e, e.n)[2][0])
    return lr, float(chdtrc(1, lr))


def cc_test(e: ExceedanceSeries) -> BacktestReport:
    """Conditional coverage test: LR_cc = LR_uc + LR_ind, chi-square df 2."""
    from scipy.special import chdtrc

    lr_uc, p_uc = uc_test(e)
    lr_ind, p_ind = ind_test(e)
    lr_cc = lr_uc + lr_ind
    return BacktestReport(lr_uc=lr_uc, lr_ind=lr_ind, lr_cc=lr_cc,
                          p_uc=p_uc, p_ind=p_ind, p_cc=float(chdtrc(2, lr_cc)))


@dataclass(frozen=True)
class SlidingBacktestSummary:
    """Coverage-test results aggregated over daily-stepped test windows."""

    placements: int
    mean_count: float
    max_count: int
    reject_uc: float
    reject_ind: float
    reject_cc: float


def _moving_sum(a, length: int) -> np.ndarray:
    c = np.concatenate([[0], np.cumsum(np.asarray(a, dtype=np.int64))])
    return c[length:] - c[:-length]


def _window_lrs(e: ExceedanceSeries, length: int) -> tuple:
    """(n1, lr_uc, lr_ind) over every length-day window of e, stepped one day.

    The transition counts of a window come from three moving sums over its
    length - 1 consecutive-day pairs: the 1 -> 1 pairs, the pairs that
    leave a 1 and the pairs that enter a 1.
    """
    ind = e.indicators
    a, b = ind[:-1], ind[1:]
    pairs = length - 1
    n11 = _moving_sum(a & b, pairs)
    n10 = _moving_sum(a, pairs) - n11
    n01 = _moving_sum(b, pairs) - n11
    n00 = pairs - n11 - n10 - n01
    n1 = _moving_sum(ind, length)
    return n1, _lr_uc(n1, length, e.p), _lr_ind(n00, n01, n10, n11)


def _chi2_critical(level: float) -> tuple:
    """The chi-square critical values at `level` for df 1 and 2, the
    quantiles chi2.ppf(1 - level, df), in closed form: ndtri(level / 2)^2
    and -2 log(level)."""
    return ndtri(0.5 * level) ** 2, -2.0 * math.log(level)


def sliding_backtest(e: ExceedanceSeries, test_len: int,
                     level: float = 0.05) -> SlidingBacktestSummary:
    """UC/IND/CC tests over every test_len-day window stepped one day at a time.

    Returns the fraction of windows on which each test rejects at `level`,
    along with the mean and max exceedance count per window.  A `level`
    outside (0, 1) is a ValueError.
    """
    if test_len < 2 or test_len > e.n:
        raise ValueError(f"test_len must be in [2, {e.n}], got {test_len}")
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0, 1), got {level}")
    n1, lr_uc, lr_ind = _window_lrs(e, test_len)
    crit1, crit2 = _chi2_critical(level)
    return SlidingBacktestSummary(
        placements=int(n1.size),
        mean_count=float(np.mean(n1)),
        max_count=int(np.max(n1)),
        reject_uc=float(np.mean(lr_uc > crit1)),
        reject_ind=float(np.mean(lr_ind > crit1)),
        reject_cc=float(np.mean(lr_uc + lr_ind > crit2)),
    )


def method_quantile(x, p: float, method: str) -> float:
    """Level-p quantile of a sample by one of the three tail methods.

    A bias correction that turns nonpositive falls back to the plain Hill
    fit at the same k.
    """
    if method == "empirical":
        return empirical_quantile(x, p)
    if method not in _K_ALPHA:
        raise ValueError(f"unknown quantile method {method!r}")
    try:
        fit = TAIL_ESTIMATORS[method](x, _K_ALPHA[method], -1.0)
    except NegativeGammaError:
        fit = hill(x, _K_ALPHA[method])
    return weissman_quantile(x, p, K_WEISSMAN, fit)


def _window_quantile(x, p: float, method: str, window: int) -> float:
    """`method_quantile` of a roll's window sample; its error names the
    method, its k_alpha and the window."""
    try:
        return method_quantile(x, p, method)
    except EstimationError as err:
        k = f" at k_alpha {_K_ALPHA[method]}" if method in _K_ALPHA else ""
        raise EstimationError(
            f"quantile method {method}{k} fails on window {window}: {err}") from err


def _roll_values(r, window: int, step: int) -> np.ndarray:
    """The finite values of a roll's series, its window and step checked >= 1."""
    if window < 1 or step < 1:
        raise ValueError(f"window and step must be >= 1, got window={window}, step={step}")
    return _finite_floats(r.values if isinstance(r, ReturnSeries) else r, "backtest series")


@dataclass(frozen=True, eq=False)
class UncondRollResult:
    """Per-window stationary-quantile forecasts and their exceedance counts.

    `counts[method][test_len]` holds the exceedance count of each window's
    forecast over the following test_len days (NaN where the data end before
    the span completes).  `daily[method]` stitches each window's forecast
    over its own `step` following days into one daily indicator series
    starting at index `window` of the input.
    """

    starts: np.ndarray
    forecasts: dict
    counts: dict
    daily: dict

    def mean_count(self, method: str, test_len: int) -> float:
        counts = self.counts[method][test_len]
        if np.isnan(counts).all():
            raise ValueError(f"no window completes a test span of {test_len} days")
        return float(np.nanmean(counts))


def roll_unconditional(r, window: int = 2000, step: int = 250, p: float = 0.99,
                       methods=METHODS, test_lens=(250, 2000)) -> UncondRollResult:
    """Rolling unconditional quantile forecasts with exceedance counts.

    Each window of `window` observations (stepped by `step`) yields one
    level-p quantile forecast per method; exceedances are counted over the
    following spans in `test_lens`.  A `window` or `step` below 1 is a
    ValueError, raised before any fit; a window too short for a method is
    an EstimationError naming the method, its k_alpha and the window.
    """
    x = _roll_values(r, window, step)
    n = x.size
    if n < window + step:
        raise EstimationError(
            f"need at least window + step = {window + step} observations, got {n}")
    starts = np.arange(0, n - window - step + 1, step)

    forecasts = {m: np.empty(starts.size) for m in methods}
    counts = {m: {L: np.full(starts.size, np.nan) for L in test_lens} for m in methods}
    for j, s in enumerate(starts):
        xwin = x[s:s + window]
        for m in methods:
            q = _window_quantile(xwin, p, m, window)
            forecasts[m][j] = q
            for L in test_lens:
                if s + window + L <= n:
                    counts[m][L][j] = float(np.sum(x[s + window:s + window + L] > q))

    p_exc = 1.0 - p
    daily = {}
    for m in methods:
        fc = np.repeat(forecasts[m], step)
        daily[m] = exceedances(x[window:window + fc.size], fc, p_exc)
    return UncondRollResult(starts, forecasts, counts, daily)


@dataclass(frozen=True, eq=False)
class CondRollResult:
    """Day-ahead conditional quantile forecasts from daily AR-GARCH refits.

    `days` are the forecast target indices into the input series;
    `refit_failures` lists target days whose window was filtered with the
    previous day's parameters after a failed fit; `cold_days` lists target
    days whose forecast comes from a cold fit: the anchors and any warm
    fit that fell back to the cold starts.
    """

    days: np.ndarray
    forecasts: dict
    exceedances: dict
    refit_failures: np.ndarray
    cold_days: np.ndarray

    def mean_count(self, method: str, test_len: int) -> float:
        return sliding_backtest(self.exceedances[method], test_len).mean_count


def roll_conditional(r, window: int = 2000, step: int = 1, p: float = 0.99,
                     methods=METHODS) -> CondRollResult:
    """Daily AR(1)-GARCH(1,1) refits with day-ahead conditional quantiles.

    For each day t (stepped by `step`) the model is fit by QMLE on the
    trailing `window` observations, the residual level-p quantile is
    estimated per method, and the forecast for day t+1 is
    mu_next + sigma_next * q_resid (`Forecast.quantile`).  A failed fit reuses
    the previous day's parameters and records the day in `refit_failures`.
    A `window` or `step` below 1 is a ValueError, raised before any fit; a
    window whose residuals are too few for a method is an EstimationError
    naming the method, its k_alpha and the window.

    Each fit is warm-started from the previous day's fit (`fit_qmle`'s
    `start`), which carries the curvature its search learned, except the
    anchors: the first fit and every 250th after it run the cold starts of
    `fit_qmle` and carry nothing, so a day depends on the days before it
    only back to its anchor.  A warm search that does not converge falls
    back to the cold starts too; the target days of both are in
    `cold_days`.  The day after a failed fit starts from the reused
    parameters alone, without the curvature of a search, and like every
    warm day skips `fit_qmle`'s check of a start from far parameters.
    """
    x = _roll_values(r, window, step)
    n = x.size
    if n < window + 1:
        raise EstimationError(
            f"need at least window + 1 = {window + 1} observations, got {n}")
    fit_days = np.arange(window - 1, n - 1, step)

    forecasts = {m: np.empty(fit_days.size) for m in methods}
    failures, cold = [], []
    fitted = None
    for j, t in enumerate(fit_days):
        xwin = x[t - window + 1:t + 1]
        start = None if j % _COLD_EVERY == 0 else fitted
        try:
            fitted = fit_qmle(xwin, compute_se=False, start=start)
        except (ConvergenceError, EstimationError):
            if fitted is None:
                raise
            # a search end, so the next day skips fit_qmle's far-start check
            fitted = replace(filter_series(xwin, fitted.params),
                             _search_end=(_pack(fitted.params), None))
            failures.append(t + 1)
        else:
            if start is None or "warm_start_failed" in fitted.flags:
                cold.append(t + 1)
        base = forecast_next(fitted, x[t])
        for m in methods:
            forecasts[m][j] = base.quantile(_window_quantile(fitted.resid, p, m, window))

    days = fit_days + 1
    realized = x[days]
    p_exc = 1.0 - p
    exc = {m: exceedances(realized, forecasts[m], p_exc) for m in methods}
    return CondRollResult(days=days, forecasts=forecasts, exceedances=exc,
                          refit_failures=np.asarray(failures, dtype=np.int64),
                          cold_days=np.asarray(cold, dtype=np.int64))
