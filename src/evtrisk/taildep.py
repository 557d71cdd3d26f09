"""Rank-based estimation of the tail dependence coefficient chi.

For a bivariate series (X, Y), chi is the limit of the conditional
probability that Y sits above its (1-p)-quantile given that X does, as
p -> 0; chi > 0 means the extremes of the two series are asymptotically
dependent.  The empirical estimate counts joint occupancy of the top-k
rank sets:

    chi_hat = (1/k) * #{i : rank(X_i) > n-k and rank(Y_i) > n-k}.

Being rank-based, chi_hat is invariant under strictly increasing
transforms of each margin separately.  Confidence intervals use the
stationary block bootstrap on PAIRED indices so both serial and
cross-sectional dependence survive resampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .argarch import fit_qmle
from .bootstrap import BootstrapSpec, _replicate_ci
from .errors import _finite_floats
from .ingest import PairedReturns

__all__ = ["TailDepFit", "chi_hat", "chi_ci", "chi_trace", "residual_pair",
           "t_copula_chi"]


@dataclass(frozen=True)
class TailDepFit:
    """Tail dependence coefficient estimate at top-k level."""

    chi: float
    k: int
    ci: Optional[tuple] = None  # (lower, upper, level)


def _check_pair(x, y, k: int):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"series must be 1-d of equal length, got {x.shape} and {y.shape}")
    if not 1 <= k < x.size:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={x.size}")
    return _finite_floats(x, "tail dependence pair"), _finite_floats(y, "tail dependence pair")


def chi_hat(x, y, k: int) -> TailDepFit:
    """Empirical tail dependence coefficient from joint top-k rank counts.

    Ties get mid-ranks; the count is clamped into [0, 1] after dividing
    by k (heavy ties can push the raw ratio past 1).
    """
    x, y = _check_pair(x, y, k)
    joint = np.count_nonzero(_top_k_mask(x, k) & _top_k_mask(y, k))
    return TailDepFit(chi=float(min(max(joint / k, 0.0), 1.0)), k=k)


def _top_k_mask(v, k: int) -> np.ndarray:
    """Mask of mid-rank(v) > n-k, in O(n) by selection (no full ranking).

    Only the values tied with c, the order statistic at rank n-k+1, need
    their mid-rank: everything above c ranks past n-k and everything
    below c does not.
    """
    n = v.size
    c = np.partition(v, n - k)[n - k]
    mid = np.count_nonzero(v < c) + (np.count_nonzero(v == c) + 1) / 2
    return v >= c if mid > n - k else v > c


def chi_ci(x, y, k: int, spec: BootstrapSpec) -> tuple:
    """Paired stationary-bootstrap percentile CI: (lower, upper, point)."""
    x, y = _check_pair(x, y, k)
    point = chi_hat(x, y, k).chi
    lower, upper = _replicate_ci(x.size, spec,
                                 lambda idx: chi_hat(x[idx], y[idx], k).chi)
    return lower, upper, point


def chi_trace(x, y, k_grid, boot_spec: Optional[BootstrapSpec] = None) -> list:
    """chi_hat over a grid of k, optionally with a bootstrap CI per point."""
    out = []
    for k in map(int, k_grid):
        if boot_spec is None:
            out.append(chi_hat(x, y, k))
        else:  # chi_ci computes the point estimate as well
            lo, hi, point = chi_ci(x, y, k, boot_spec)
            out.append(TailDepFit(point, k, ci=(lo, hi, boot_spec.level)))
    return out


def residual_pair(pair: PairedReturns) -> PairedReturns:
    """AR(1)-GARCH(1,1) standardized residuals of each margin.

    Removes univariate volatility dynamics so the remaining tail dependence
    is cross-sectional.  The first date drops out with the AR lag.
    """
    fit_a = fit_qmle(pair.values_a, compute_se=False)
    fit_b = fit_qmle(pair.values_b, compute_se=False)
    return PairedReturns(dates=pair.dates[1:],
                         values_a=fit_a.resid, values_b=fit_b.resid,
                         symbol_a=pair.symbol_a, symbol_b=pair.symbol_b)


def t_copula_chi(rho: float, df: float) -> float:
    """Closed-form chi of a bivariate Student-t copula (reference oracle).

    chi = 2 * T_{df+1}(-sqrt((df+1)(1-rho)/(1+rho))) where T is the CDF of
    a Student-t with df+1 degrees of freedom.
    """
    from scipy.special import stdtr

    if not -1 < rho <= 1:
        raise ValueError(f"rho must be in (-1, 1], got {rho}")
    if not df > 0:
        raise ValueError(f"df must be positive, got {df}")
    if rho == 1.0:
        return 1.0
    arg = math.sqrt((df + 1.0) * (1.0 - rho) / (1.0 + rho))
    return float(2.0 * stdtr(df + 1.0, -arg))
