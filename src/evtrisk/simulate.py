"""Reference samplers for oracles and Monte-Carlo studies.

Provides an AR(1)-GARCH(1,1) path simulator (Gaussian or standardized
Student-t innovations) and i.i.d. heavy-tailed samplers (Pareto, Frechet)
by inverse-CDF transforms, plus an m-fold duplication wrapper whose output
has extremal index 1/m.  All samplers are deterministic given the seed.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import default_rng

from .argarch import ArGarchParams
from .errors import _check_integer

__all__ = ["sim_argarch", "sim_pareto", "sim_frechet", "sim_duplicated"]

_BURN_IN = 1000


def sim_argarch(params: ArGarchParams, n: int, seed,
                innovation: str = "gaussian", df: float = None) -> np.ndarray:
    """Simulate n steps of x_t = mu + phi x_{t-1} + sigma_t eps_t.

    The volatility recursion sigma_t^2 = omega + a * a_{t-1}^2 +
    b_coef * sigma_{t-1}^2 starts from the model's unconditional variance
    and a burn-in of 1000 steps is discarded.  Student-t innovations are
    standardized to unit variance (a finite df > 2 required).
    """
    _check_integer(n, "n")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    rng = default_rng(seed)
    total = n + _BURN_IN
    if innovation == "gaussian":
        eps = rng.standard_normal(total)
    elif innovation == "student_t":
        if df is None or not 2 < df < math.inf:
            raise ValueError(f"student_t innovations need a finite df > 2, got {df}")
        eps = rng.standard_t(df, total) * math.sqrt((df - 2.0) / df)
    else:
        raise ValueError(f"unknown innovation {innovation!r}")

    mu, phi, omega, a, b = params.mu, params.phi, params.omega, params.a, params.b_coef
    sig2 = omega / (1.0 - a - b)
    x_prev = mu / (1.0 - phi) if abs(1.0 - phi) > 1e-12 else mu
    a_prev_sq = 0.0
    out = np.empty(total)
    for t in range(total):
        if t > 0:
            sig2 = omega + a * a_prev_sq + b * sig2
        a_t = math.sqrt(sig2) * eps[t]
        x_prev = mu + phi * x_prev + a_t
        out[t] = x_prev
        a_prev_sq = a_t * a_t
    return out[_BURN_IN:]


def sim_pareto(alpha: float, n: int, seed) -> np.ndarray:
    """I.i.d. Pareto sample with survival function P(X > x) = x^-alpha, x >= 1."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    _check_integer(n, "n")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    u = default_rng(seed).random(n)
    return (1.0 - u) ** (-1.0 / alpha)  # 1 - u lies in (0, 1]


def sim_frechet(alpha: float, n: int, seed) -> np.ndarray:
    """I.i.d. Frechet sample with CDF exp(-x^-alpha), x > 0."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    _check_integer(n, "n")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    u = default_rng(seed).random(n)
    e = -np.log1p(-u)  # exponential(1), zero only if u == 0 exactly
    e[e == 0.0] = np.finfo(float).tiny
    return e ** (-1.0 / alpha)


def sim_duplicated(base_sampler, m: int, n: int, seed) -> np.ndarray:
    """Repeat each draw of base_sampler m times (extremal index 1/m).

    base_sampler is a callable (count, seed) -> array, e.g.
    functools.partial(sim_frechet, 2.0).
    """
    _check_integer(m, "m")
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    _check_integer(n, "n")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    base = np.asarray(base_sampler(-(-n // m), seed), dtype=float)
    return base[np.arange(n) // m]
