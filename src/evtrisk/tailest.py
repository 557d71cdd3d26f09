"""Tail-index and high-quantile estimation for heavy-tailed samples.

For a distribution with a regularly varying upper tail, 1 - F(x) ~ A x^(-alpha),
the extreme value index is gamma = 1/alpha.  The estimators here work on the
top k order statistics of a sample:

* Pareto quantile plot and its regression slope (graphical / OLS estimate),
* the Hill estimator,
* a second-order bias-corrected Hill estimator with the convergence-rate
  parameter rho fixed at a constant (default -1),
* the Weissman extrapolation to quantiles beyond the sample range.

All estimators are scale equivariant and use only ratios of upper order
statistics, so they can be applied to any positively-scaled loss series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, NegativeGammaError, _finite_floats

__all__ = [
    "TailFit",
    "pareto_qq_points",
    "qq_slope_alpha",
    "hill",
    "hill_corrected",
    "weissman_quantile",
    "empirical_quantile",
    "tail_index_trace",
    "TAIL_ESTIMATORS",
]

@dataclass(frozen=True)
class TailFit:
    """A fitted extreme value index gamma (tail index alpha = 1/gamma)."""

    gamma: float
    k_alpha: int

    def __post_init__(self):
        if not self.gamma > 0:
            raise EstimationError(f"extreme value index must be positive, got {self.gamma}")

    @property
    def alpha(self) -> float:
        return 1.0 / self.gamma


def _top_order_stats(x, k: int) -> tuple[np.ndarray, float]:
    """Top k order statistics and the (k+1)-th largest value; the top k are
    sorted, so a sum over them does not depend on the order of the sample."""
    n = len(x)
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    part = np.partition(_finite_floats(x, "tail sample"), n - k - 1)
    return np.sort(part[n - k:]), float(part[n - k - 1])


def pareto_qq_points(x, k: int) -> np.ndarray:
    """Points of the Pareto quantile plot for the k largest observations.

    Returns an array of (u, v) rows with u_i = -log(i/(k+1)) and
    v_i = log X_(n-i+1), i = 1..k.  A straight line of slope gamma indicates
    a power-law tail with index alpha = 1/gamma.
    """
    top = _top_order_stats(x, k)[0][::-1]  # X_(n), X_(n-1), ..., X_(n-k+1)
    if top[-1] <= 0:
        raise EstimationError(f"top {k} order statistics must be positive for the log plot")
    i = np.arange(1, k + 1)
    u = -np.log(i / (k + 1.0))
    v = np.log(top)
    return np.column_stack([u, v])


def qq_slope_alpha(points) -> TailFit:
    """OLS slope of the Pareto quantile plot; tail index = 1/slope."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise EstimationError("need at least two (u, v) points")
    u, v = pts[:, 0], pts[:, 1]
    if np.ptp(u) == 0:
        raise EstimationError("degenerate regression: constant abscissa")
    slope, _ = np.polyfit(u, v, 1)
    if slope <= 0:
        raise EstimationError(f"nonpositive quantile-plot slope {slope:.4g}")
    return TailFit(gamma=float(slope), k_alpha=len(pts))


def _log_excesses(x, k_alpha: int) -> tuple[np.ndarray, float]:
    """Top k_alpha log-excesses and their mean M1 (the Hill estimate); nonpositive
    top k_alpha + 1 order statistics, or all of them equal, are EstimationErrors."""
    top, thresh = _top_order_stats(x, k_alpha)
    if thresh <= 0 or np.min(top) <= 0:
        raise EstimationError(
            f"Hill estimator needs the top {k_alpha + 1} order statistics positive")
    logs = np.log(top) - math.log(thresh)
    m1 = float(np.mean(logs))
    if m1 == 0.0:
        raise EstimationError("all top order statistics equal; Hill estimate degenerate")
    return logs, m1


def hill(x, k_alpha: int) -> TailFit:
    """Hill estimator of the extreme value index from the top k_alpha log-excesses."""
    _, m1 = _log_excesses(x, k_alpha)
    return TailFit(gamma=m1, k_alpha=k_alpha)


def hill_corrected(x, k_alpha: int, rho: float = -1.0) -> TailFit:
    """Bias-corrected Hill estimator using the second log-moment.

    With M1, M2 the first two moments of the top-k log-excesses and
    T = M2/(2 M1), the corrected index is

        gamma = (M1 - (1 - rho) * T) / rho,

    which removes the leading second-order bias when the tail approximation
    has convergence-rate parameter rho < 0.  For rho = -1 this simplifies to
    M2/M1 - M1.  A nonpositive corrected value (possible at very small k) is
    a NegativeGammaError, with no fit.
    """
    if rho >= 0:
        raise ValueError(f"rho must be negative, got {rho}")
    logs, m1 = _log_excesses(x, k_alpha)
    m2 = float(np.mean(logs ** 2))
    t = m2 / (2.0 * m1)
    gamma = (m1 - (1.0 - rho) * t) / rho
    if gamma <= 0:
        raise NegativeGammaError(
            f"bias correction gave nonpositive index {gamma:.4g} at k={k_alpha}")
    return TailFit(gamma=gamma, k_alpha=k_alpha)


def weissman_quantile(x, p: float, k: int, fit: TailFit) -> float:
    """Extrapolated quantile F^{-1}(p) = X_(n-k) * (k / (n(1-p)))^(1/alpha)."""
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0, 1), got {p}")
    _, anchor = _top_order_stats(x, k)
    if anchor <= 0:
        raise EstimationError(f"anchor order statistic X_(n-k) = {anchor} must be positive")
    n = len(x)
    try:
        value = anchor * (k / (n * (1.0 - p))) ** (1.0 / fit.alpha)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise EstimationError(f"extrapolated quantile overflows at k={k}")
    return float(value)


def empirical_quantile(x, p: float) -> float:
    """Order-statistic quantile X_(ceil(np)) (no interpolation)."""
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0, 1), got {p}")
    x = _finite_floats(x, "quantile sample")
    n = len(x)
    # nextafter guards products that land one ulp above an exact integer
    idx = int(math.ceil(np.nextafter(n * p, 0)))
    idx = min(max(idx, 1), n)
    return float(np.partition(x, idx - 1)[idx - 1])


# method name (as `tail --method` and the backtests take it) -> (x, k, rho)
# -> TailFit.  The entries call the estimators through the module globals, so
# a wrapper installed on this module (a profiler, a test double) sees every
# call made through the table.
TAIL_ESTIMATORS = {
    "hill": lambda x, k, rho: hill(x, k),
    "corrected": lambda x, k, rho: hill_corrected(x, k, rho=rho),
    "qq": lambda x, k, rho: qq_slope_alpha(pareto_qq_points(x, k)),
}


def tail_index_trace(x, k_grid, method: str = "hill", rho: float = -1.0) -> list:
    """Tail fits over a grid of k values (for stability plots).

    Grid points where the estimator is undefined are skipped.  Every
    estimator reads only the top k + 1 order statistics, so the fits run on
    the top max(k) + 1 of x, taken once.
    """
    if method not in TAIL_ESTIMATORS:
        raise ValueError(f"unknown method {method!r}")
    estimate = TAIL_ESTIMATORS[method]
    ks = [int(k) for k in k_grid]
    x = _finite_floats(x, "tail sample")
    n = len(x)
    if ks and all(1 <= k < n for k in ks):  # else the bad k's error names the real n
        cut = n - max(ks) - 1
        x = np.partition(x, cut)[cut:]
    out = []
    for k in ks:
        try:
            out.append(estimate(x, k, rho))
        except EstimationError:
            continue
    return out
