"""Extremal index estimation via the bias-corrected sliding-blocks estimator.

The extremal index theta in (0, 1] is the reciprocal limiting mean cluster
size of extremes: theta = 1 for i.i.d. data, theta = 1/m when every value
is repeated m times.  The sliding-blocks estimator transforms each window
maximum M_{i,i+b} through the empirical CDF,

    Y_i = -b * log F_n(M_{i,i+b}),    i = 1..n-b,

and inverts the mean: theta_hat = 1 / mean(Y).  Sampling noise can push
the reciprocal above 1, so the reported estimate is clamped to (0, 1] with
the raw value kept alongside.

F_n sees the data only through their ranks, so the estimate is computed
from the ranks: F_n of a window maximum is the count of points at or below
its rank, over n.  The point estimate and each block-bootstrap replicate
run that one computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._special import ndtri
from .bootstrap import BootstrapSpec, percentile_ci
from .errors import EstimationError, _finite_floats

__all__ = [
    "ExtremalIndexFit",
    "block_maxima_sliding",
    "extremal_index_sliding",
    "theta_ci",
    "theta_sweep",
]

EXP_LIKELIHOOD = "exp_likelihood"
BLOCK_BOOTSTRAP = "block_bootstrap"


@dataclass(frozen=True)
class ExtremalIndexFit:
    """Sliding-blocks extremal index estimate at block size b.

    `theta` is clamped to (0, 1]; `theta_raw` is the unclamped reciprocal
    mean of the pseudo-observations.
    """

    theta: float
    block_size: int
    pseudo_obs_count: int
    theta_raw: float
    ci: Optional[tuple] = None  # (lower, upper, level)


def block_maxima_sliding(x, b: int) -> np.ndarray:
    """Maxima over all sliding windows of b+1 consecutive points (length n-b).

    O(n log b) by doubling: after k shifted maxima, entry i holds the
    maximum of the 2**k points from i; two such runs that overlap cover a
    window of b+1 exactly.  A maximum never rounds, so the result equals
    the direct window maximum bit for bit.
    """
    _check_block_size(b, len(x))
    return _window_maxima(_finite_floats(x, "block maxima sample"), b + 1)


def _check_block_size(b: int, n: int) -> None:
    if not 1 < b < n:
        raise ValueError(f"block size must satisfy 1 < b < n, got b={b}, n={n}")


def _window_maxima(x: np.ndarray, w: int) -> np.ndarray:
    """Maxima of the len(x)-w+1 windows of w consecutive entries, of any dtype."""
    m, span = x, 1
    while 2 * span <= w:
        m = np.maximum(m[:-span], m[span:])
        span *= 2
    return np.maximum(m[:len(x) - w + 1], m[w - span:])


def extremal_index_sliding(x, b: int) -> ExtremalIndexFit:
    """Sliding-blocks estimate of the extremal index, computed from the ranks of x.

    The empirical CDF uses denominator n, so the sample maximum maps to
    F_n = 1 and contributes a zero pseudo-observation; it is retained.
    Depending on x through its ranks alone, the estimate is invariant under
    strictly increasing transforms of x.
    """
    return _fit_on_ranks(_dense_ranks(x), b)


def _dense_ranks(x) -> np.ndarray:
    """Ranks 0, 1, ... of the distinct values of x, ties sharing a rank.

    They are held in the smallest signed integer type that holds len(x),
    int16 for up to 32,768 points, so the window maxima and each bootstrap
    resample of the ranks move a quarter of the bytes of int64.
    """
    x = _finite_floats(x, "extremal index sample")
    return np.unique(x, return_inverse=True)[1].astype(np.min_scalar_type(-len(x)))


def _fit_on_ranks(ranks: np.ndarray, b: int) -> ExtremalIndexFit:
    """The estimate from integer ranks, dense or not, at block size b.

    F_n of a window maximum is the count of points at or below its rank: a
    cumulative bincount indexed by the window maxima of the ranks.  Only
    the ranks from the smallest window maximum up are counted; those below
    it enter as one count.  Each pseudo-observation takes the same
    operations as over the full bincount, so the mean has the same bits.
    """
    n = len(ranks)
    if np.ptp(ranks) == 0:
        raise EstimationError("constant series: extremal index undefined")
    _check_block_size(b, n)
    wm = _window_maxima(ranks, b + 1)
    lo = wm.min()
    top = ranks[ranks >= lo] - lo
    at_or_below = np.cumsum(np.bincount(top)) + (n - len(top))
    # take gathers faster than [] with the narrow index types of dense ranks
    y = np.take(-b * np.log(at_or_below / n), wm - lo)
    mean_y = float(np.mean(y))
    if mean_y == 0.0:
        raise EstimationError(
            f"all {n - b} block maxima sit at the sample maximum; "
            "extremal index degenerate at this block size")
    theta_raw = 1.0 / mean_y
    return ExtremalIndexFit(theta=min(theta_raw, 1.0), block_size=b,
                            pseudo_obs_count=n - b, theta_raw=theta_raw)


def theta_ci(fit: ExtremalIndexFit, x, level: float = 0.95,
             method: str = EXP_LIKELIHOOD, boot_spec=None) -> tuple:
    """Confidence interval for the extremal index estimate.

    exp_likelihood treats the pseudo-observations as exponential with rate
    theta and forms the loglikelihood (Wald, log scale) interval, deflating
    the sample size to n_eff = (n - b)/b because windows overlap b-fold.
    block_bootstrap re-estimates theta on stationary-bootstrap resamples
    drawn as boot_spec says (default BootstrapSpec()) and takes percentile
    endpoints at `level`; boot_spec.level is not used.  Either way x is
    checked, so NaN or inf is a DataError.
    """
    return _with_ci(fit, _dense_ranks(x), level, method, boot_spec).ci[:2]


def _with_ci(fit: ExtremalIndexFit, ranks: np.ndarray, level: float, method: str,
             boot_spec) -> ExtremalIndexFit:
    """fit with the theta_ci interval attached; the bootstrap resamples the ranks."""
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if method == EXP_LIKELIHOOD:
        # a fit has b < n (_check_block_size), so n_eff > 0
        n_eff = fit.pseudo_obs_count / fit.block_size
        z = ndtri(0.5 + level / 2.0)
        half = z / math.sqrt(n_eff)
        lower, upper = fit.theta * math.exp(-half), fit.theta * math.exp(half)
    elif method == BLOCK_BOOTSTRAP:
        spec = replace(boot_spec or BootstrapSpec(), level=level)
        b = fit.block_size
        lower, upper, _ = percentile_ci(ranks, lambda rs: _fit_on_ranks(rs, b).theta, spec)
    else:
        raise ValueError(f"unknown CI method {method!r}")
    return replace(fit, ci=(lower, upper, level))


def theta_sweep(x, b_grid, level: float = 0.95,
                method: str = EXP_LIKELIHOOD, boot_spec=None) -> list:
    """Extremal index fits with CIs over a grid of block sizes.

    Used to pick b where the point estimates stabilize; grid points where
    the estimator degenerates are skipped.  x is ranked once for every fit
    and bootstrap interval.
    """
    ranks = _dense_ranks(x)
    out = []
    for b in b_grid:
        try:
            fit = _fit_on_ranks(ranks, int(b))
        except EstimationError:
            continue
        out.append(_with_ci(fit, ranks, level, method, boot_spec))
    return out
