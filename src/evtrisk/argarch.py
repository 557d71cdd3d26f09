"""AR(1)-GARCH(1,1) estimation by Gaussian quasi-maximum likelihood.

The model for a return series x_t is

    x_t     = mu + phi * x_{t-1} + a_t,          a_t = sigma_t * eps_t,
    sigma_t^2 = omega + a * a_{t-1}^2 + b_coef * sigma_{t-1}^2,

with eps_t i.i.d. mean zero, unit variance.  The Gaussian likelihood is
used for estimation only; consistency of the QMLE does not require
Gaussian innovations.  After fitting, the conditional volatilities and
standardized residuals eps_hat_t = (x_t - mu - phi x_{t-1}) / sigma_t are
filtered out for downstream tail analysis, and one-step-ahead mean and
volatility forecasts are formed from the last filtered state.

Conventions: the first observation is consumed by the AR lag, so filtered
series have length n - 1.  The recursion starts from sigma_1^2 = Var(x)
and a_1 = x_1 - mean(x).

The variance recursion runs as LAPACK's banded solve dtbtrs, called
through `ctypes` in the OpenBLAS that NumPy's wheel ships, so that this
module loads no SciPy; where NumPy has no such OpenBLAS it runs SciPy's
dtbtrs, with the same bytes (`_openblas_dtbtrs`, `_banded_solve`).
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional, Union

import numpy as np

from .errors import ConvergenceError, EstimationError, _finite_floats

__all__ = [
    "ArGarchParams",
    "FilteredSeries",
    "Forecast",
    "fit_qmle",
    "filter_series",
    "forecast_next",
]

_LOG_2 = math.log(2.0)
_LOG_2PI = math.log(2.0 * math.pi)


def _logit(u) -> float:
    """log(u / (1 - u)) for 0 < u < 1, in the branches of scipy.special.logit
    (SciPy 1.17), so with its bits: on [0.3, 0.65] the difference of two
    log1p, which keeps full precision near u = 1/2."""
    if 0.3 <= u <= 0.65:
        s = 2.0 * (u - 0.5)
        return math.log1p(s) - math.log1p(-s)
    return math.log(u / (1.0 - u))


_MAX_PERSISTENCE = 1.0 - 1e-6
# the one box bound of the search: z[3], the logit of the persistence
_Z3_MAX = _logit(_MAX_PERSISTENCE)
# `minimize` converges at a largest |projected gradient| entry of _GTOL, or
# when a step decreases the objective by at most _FTOL relative (a stall)
_GTOL = 1e-5
_FTOL = 1e-15
# Armijo constant, the most objective evaluations of one line search, and
# the most steps of one search
_C1 = 1e-4
_LINE_EVALS = 20
_MAX_STEPS = 15000
# the objective's value where it is undefined: `_neg_loglik` where the
# loglik or its gradient is not finite
_UNDEFINED = 1e300
PARAM_NAMES = ("mu", "phi", "omega", "a", "b_coef")


@dataclass(frozen=True)
class ArGarchParams:
    """Parameters (mu, phi, omega, a, b_coef) of an AR(1)-GARCH(1,1) model."""

    mu: float
    phi: float
    omega: float
    a: float
    b_coef: float

    def __post_init__(self):
        if not self.omega > 0:
            raise EstimationError(f"omega must be positive, got {self.omega}")
        if self.a < 0 or self.b_coef < 0:
            raise EstimationError(f"ARCH/GARCH coefficients must be nonnegative, "
                                  f"got a={self.a}, b_coef={self.b_coef}")
        if not self.a + self.b_coef < 1:
            raise EstimationError(
                f"covariance stationarity requires a + b_coef < 1, got {self.a + self.b_coef}")
        if not np.isfinite(self.as_array()).all():
            raise EstimationError("non-finite value in AR-GARCH parameters")

    @property
    def persistence(self) -> float:
        return self.a + self.b_coef

    def as_array(self) -> np.ndarray:
        return np.array([self.mu, self.phi, self.omega, self.a, self.b_coef])


@dataclass(frozen=True, eq=False)
class FilteredSeries:
    """Fitted volatilities and standardized residuals for observations 2..n.

    `sigma` and `resid` have length n - 1.  `se` holds QMLE sandwich
    standard errors when computed; `flags` carries fit diagnostics such as
    "near_igarch" (the fit ended on the persistence bound 1 - 1e-6).  A
    `fit_qmle` result also keeps, privately, the optimizer vector and
    inverse Hessian its search ended with, which a warm fit started from it
    carries on.
    """

    sigma: np.ndarray
    resid: np.ndarray
    params: ArGarchParams
    loglik: float
    se: Optional[dict] = None
    flags: tuple = ()
    _search_end: Optional[tuple] = field(default=None, repr=False)


@dataclass(frozen=True)
class Forecast:
    """One-step-ahead conditional mean and volatility."""

    mu_next: float
    sigma_next: float

    def quantile(self, q) -> float:
        """Day-ahead quantile mu_next + sigma_next * q, q a residual quantile."""
        return self.mu_next + self.sigma_next * float(q)


def _openblas_dtbtrs():
    """LAPACK's dtbtrs in the OpenBLAS of NumPy's wheel, or None where it has none.

    NumPy's wheels ship OpenBLAS with its LAPACK, built with 64-bit
    integers, as numpy.libs/libscipy_openblas64_*.so beside the package
    (numpy/.dylibs on macOS), which exports dtbtrs as `scipy_dtbtrs_64_`.
    NumPy has loaded that file already, so opening it again costs no
    memory.  The file name and the symbol name are the wheel's build
    choices, not a NumPy API: a NumPy linked to a system BLAS, MKL or
    Accelerate has neither, and then `_banded_solve` runs SciPy's dtbtrs.
    """
    package = os.path.dirname(np.__file__)
    for folder in (os.path.join(package, os.pardir, "numpy.libs"),
                   os.path.join(package, ".dylibs")):
        try:
            names = sorted(os.listdir(folder))
        except OSError:
            continue
        for name in names:
            if name.startswith("libscipy_openblas64_"):
                try:
                    func = ctypes.CDLL(os.path.join(folder, name)).scipy_dtbtrs_64_
                except (OSError, AttributeError):
                    continue
                func.restype = None
                return func
    return None


_DTBTRS = _openblas_dtbtrs()
_INT = ctypes.c_int64
_ONE, _TWO = ctypes.byref(_INT(1)), ctypes.byref(_INT(2))
_LEN = ctypes.c_size_t(1)  # the hidden length of each Fortran character argument


def _banded_solve(ab, rhs):
    """A call without arguments that solves the band ab on rhs in place, as
    `_Likelihood.solve` says, with its arguments checked and bound once.

    It calls `_DTBTRS` through `ctypes`, which reads and writes where its
    pointers say, so first both arrays are checked: writeable float64 in
    Fortran order, ab of shape (2, n) and rhs of shape (n, k).  Where
    NumPy's OpenBLAS has no dtbtrs it calls `scipy.linalg.lapack.dtbtrs`
    instead.  With a unit diagonal dtbtrs finds no singular matrix, and its
    `info` reports only an illegal argument, which the checks rule out, so
    neither route reads it.
    """
    if not (ab.dtype == rhs.dtype == np.float64 and ab.ndim == rhs.ndim == 2
            and ab.shape[0] == 2 and rhs.shape[0] == ab.shape[1] >= 1 and rhs.shape[1] >= 1
            and all(arr.flags.f_contiguous and arr.flags.writeable for arr in (ab, rhs))):
        raise ValueError("the banded solve takes writeable float64 Fortran arrays, "
                         "a (2, n) band and an (n, k) right-hand side")
    if _DTBTRS is None:
        from scipy.linalg.lapack import dtbtrs

        return partial(dtbtrs, ab, rhs, uplo="L", trans="T", diag="U", overwrite_b=1)
    # uplo, trans, diag, n, kd, nrhs, ab, ldab, b, ldb and info by reference,
    # then the hidden lengths of the three characters.  Each argument is a
    # ctypes object of its C type (or bytes, a char *), so the call declares
    # no argtypes, whose conversions would add about 2 us to each solve
    n, k = (ctypes.byref(_INT(size)) for size in rhs.shape)
    # pointers to the first byte of each array, through the buffer of its
    # transpose, which is C-contiguous; the ctypes objects hold the buffers,
    # so the arrays live as long as the bound call
    ab_data, rhs_data = (ctypes.byref(ctypes.c_char.from_buffer(arr.T)) for arr in (ab, rhs))
    return partial(_DTBTRS, b"L", b"T", b"U", n, _ONE, k, ab_data, _TWO, rhs_data, n,
                   ctypes.byref(_INT()), _LEN, _LEN, _LEN)


class _Likelihood:
    """The Gaussian quasi-likelihood of one series, evaluated in place.

    A fit builds one, and its searches, its final `filter_series` and its
    standard errors all run in it, so an objective evaluation allocates
    nothing of length n.  It keeps views of x, the start values a_1^2
    (sq[0]) and sigma_1^2 (start_var), the arrays that `recursion` and
    `factors` fill, and the band `ab` of the variance solve with its
    Fortran columns u and w, each with its solve bound (`solve_u`,
    `solve_w`).  It also remembers the parameters and loglik of its last
    `recursion`, so that the filter of a fit whose search ended there need
    not run it again.
    """

    def __init__(self, x):
        self.x, self.x_now, self.x_lag, self.x_lag2 = x, x[1:], x[:-1], x[:-2]
        dev_sq = x - x.mean()
        dev_sq *= dev_sq  # the steps of np.var(x), without its overhead
        self.start_var = float(dev_sq.mean())
        self.sq = np.empty_like(x)  # a_1^2, then innov_t^2 for t = 2..n
        self.sq[0] = dev_sq[0]
        self.prev_sq, self.innov_sq = self.sq[:-1], self.sq[1:]
        self.innov, self.sigma2, self.v, self.tmp, self.terms = np.empty((5, x.size - 1))
        self.ab = np.ones((2, x.size - 1), order="F")
        self.u = np.empty((x.size - 1, 1), order="F")
        self.w = np.empty_like(self.u)
        self.solve_u, self.solve_w = _banded_solve(self.ab, self.u), _banded_solve(self.ab, self.w)
        self.theta = self.loglik = None  # of the last recursion

    def solve(self, rhs) -> np.ndarray:
        """Solve y_t = rhs_t + b_coef * y_{t+1} from y_n = rhs_n, in place on
        the Fortran (n - 1, k) rhs, with -b_coef in row 1 of `ab`.

        This is the transpose of the variance recursion y_t - b_coef * y_{t-1}
        = rhs_t, a unit lower-bidiagonal system that LAPACK's banded
        triangular solver dtbtrs runs column by column (`_banded_solve`).
        The matrix is Toeplitz, so the recursion itself is this solve on the
        reversed series: OpenBLAS's forward kernels round differently on
        different CPUs, its transposed one the same on every CPU it was run
        on.  `solve_u` and `solve_w` are this solve on u and w, bound once.
        """
        _banded_solve(self.ab, rhs)()
        return rhs

    def recursion(self, mu, phi, omega, a, b_coef) -> float:
        """Innovations a_t and conditional variances sigma_t^2, t = 2..n, into
        innov and sigma2; returns the quasi-loglikelihood.

        sigma2_t = u_t + b_coef * sigma2_{t-1}, with u_t = omega + a * a_{t-1}^2,
        is linear in sigma2: one banded solve of u, written reversed, with
        the start term b_coef * sigma_1^2 folded into the first u_t.  The
        loglik terms are summed before their factor -1/2: a power of two
        commutes with rounding, so the bits are those of the plain formula.
        """
        self.theta = None  # innov and sigma2 are overwritten from here on
        innov, sigma2, tmp, terms = self.innov, self.sigma2, self.tmp, self.terms
        np.multiply(self.x_lag, phi, out=innov)
        np.subtract(self.x_now, mu, out=tmp)
        np.subtract(tmp, innov, out=innov)
        np.square(innov, out=self.innov_sq)
        u = self.u[::-1, 0]  # in time order
        np.multiply(self.prev_sq, a, out=tmp)
        np.add(tmp, omega, out=u)
        u[0] += b_coef * self.start_var
        self.ab[1] = -b_coef
        self.solve_u()
        np.copyto(sigma2, u)  # in time order: NumPy is slower on reversed views
        np.log(sigma2, out=terms)
        np.add(terms, _LOG_2PI, out=terms)
        terms += np.divide(self.innov_sq, sigma2, out=tmp)
        self.theta, self.loglik = (mu, phi, omega, a, b_coef), -0.5 * _sum(terms)
        return self.loglik

    def factors(self) -> np.ndarray:
        """The score factors of the last `recursion` into v and w; returns v.

        The score of observation t is w_t d sigma2_t - v_t d innov_t, with
        w_t = (innov_t^2 / sigma2_t - 1) / (2 sigma2_t), v_t = innov_t / sigma2_t
        and d the derivative in theta = (mu, phi, omega, a, b_coef).
        d innov_t = (-1, -x_{t-1}, 0, 0, 0), and the variance derivatives follow
        the variance recursion itself, d sigma2_t = drive_t + b_coef * d sigma2_{t-1}
        with drive_t = (-2a innov_{t-1}, -2a innov_{t-1} x_{t-2}, 1, innov_{t-1}^2,
        sigma2_{t-1}) (Fiorentini, Calzolari & Panattoni 1996); the start values
        a_1 and sigma_1^2 do not depend on theta, so the first drive_t is
        (0, 0, 1, a_1^2, sigma_1^2).  w holds 2 w_t.  A plain filter needs
        neither, so `recursion` leaves them to `score` and `scores`.
        """
        innov, sigma2 = self.innov, self.sigma2
        v = np.divide(innov, sigma2, out=self.v)
        w = self.w[:, 0]
        np.multiply(innov, v, out=w)
        np.subtract(w, 1.0, out=w)
        np.divide(w, sigma2, out=w)
        return v

    def loglik_at(self, theta) -> float:
        """The loglik at theta, with innov and sigma2 filled for it: those of
        the last `recursion` when it ran at theta, bit for bit, else a new one."""
        if self.theta is None or np.array(self.theta).tobytes() != np.array(theta).tobytes():
            return self.recursion(*theta)
        return self.loglik

    def score(self, theta) -> tuple:
        """Quasi-loglikelihood at theta and its exact gradient in theta.

        The gradient is the summed score by the adjoint method.  With L the
        banded matrix of the variance recursion, d sigma2 = L^-1 drive, so
        sum_t w_t d sigma2_t = (L^-T w) . drive: one backward solve of w, in
        place, then five dot products against the `factors`.
        No drive or d innov rows are built.  The solve runs on 2w, so the
        sums over it are halved.  The sums are Python floats, as NumPy
        scalars give the same bits at more cost per operation.
        """
        ll = self.recursion(*theta)
        v, two_a = self.factors(), 2.0 * theta[3]
        self.solve_w()
        g = self.w[:, 0]
        innov_g = np.multiply(self.innov[:-1], g[1:], out=self.tmp[:-1])
        return ll, (_sum(v) - two_a * (0.5 * _sum(innov_g)),
                    _dot(self.x_lag, v) - two_a * (0.5 * _dot(innov_g, self.x_lag2)),
                    0.5 * _sum(g),
                    0.5 * _dot(self.prev_sq, g),
                    0.5 * (self.start_var * g.item(0) + _dot(self.sigma2[:-1], g[1:])))

    def scores(self, theta) -> np.ndarray:
        """Exact per-observation scores d l_t / d theta, shape (n - 1, 5).

        One solve of the five drive rows of `factors`, reversed; only the
        outer product S of the sandwich needs the rows themselves.
        """
        self.recursion(*theta)
        v = self.factors()
        drive = np.empty((self.innov.size, 5), order="F")
        rows = drive[::-1].T  # in time order
        rows[:2, 0] = 0.0
        rows[0, 1:] = -2.0 * theta[3] * self.innov[:-1]
        rows[1, 1:] = rows[0, 1:] * self.x_lag2
        rows[2] = 1.0
        rows[3] = self.prev_sq
        rows[4, 0] = self.start_var
        rows[4, 1:] = self.sigma2[:-1]
        # C-contiguous, in time order: on other layouts einsum rounds S otherwise
        scores = (0.5 * self.w) * self.solve(drive)[::-1].copy()
        scores[:, 0] += v
        scores[:, 1] += v * self.x_lag
        return scores


def _sum(a) -> float:
    """a.sum(), by the reduction that it calls, without its Python wrapper."""
    return float(np.add.reduce(a))


def _dot(a, b) -> float:
    """Sum of a * b by einsum: OpenBLAS splits a long `a @ b` across threads,
    which makes its last bits depend on the thread count."""
    return float(np.einsum("i,i->", a, b))


def filter_series(x, params: ArGarchParams) -> FilteredSeries:
    """Run the volatility recursion at fixed parameters.

    Deterministic; returns conditional volatilities, standardized residuals
    and the Gaussian quasi-loglikelihood evaluated at `params`.  A series
    holding NaN or inf is a DataError.  `fit_qmle` passes its checked
    series as its `_Likelihood`, whose last recursion this reuses when it
    ran at `params`.
    """
    if not isinstance(x, _Likelihood):
        x = _finite_floats(x, "AR-GARCH series")
        if x.size < 2:
            raise EstimationError("need at least two observations to filter")
        x = _Likelihood(x)
    ll = x.loglik_at((params.mu, params.phi, params.omega, params.a, params.b_coef))
    sigma = np.sqrt(x.sigma2)
    return FilteredSeries(sigma=sigma, resid=x.innov / sigma, params=params, loglik=ll)


def _expit(v) -> float:
    """1 / (1 + exp(-v)), the bits of scipy.special.expit without its call overhead."""
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:  # exp(-v) beyond the float range, where expit is 0
        return 0.0


def _softplus(v) -> float:
    """log(1 + exp(v)) in the branches of np.logaddexp(0, v), so with its bits."""
    if v > 0:
        return v + math.log1p(math.exp(-v))
    if v < 0:
        return math.log1p(math.exp(v))
    return _LOG_2 if v == 0 else v  # v is 0 or NaN


def _unpack(z) -> tuple:
    """Map the unconstrained optimizer vector z to theta = (mu, phi, omega, a, b_coef).

    Returns theta and the entries of the Jacobian d theta / d z besides its
    unit (mu, phi) diagonal: d omega / d z[2], d a / d z[3], d b_coef / d z[3]
    and d a / d z[4] (d b_coef / d z[4] is its negative; the rest are 0).
    """
    mu, phi, wt, st, ft = z.tolist()
    total, frac = _expit(st), _expit(ft)
    d_total = total * (1.0 - total)
    omega = _softplus(wt)  # keeps omega > 0
    return ((mu, phi, omega, total * frac, total * (1.0 - frac)),
            (_expit(wt), d_total * frac, d_total * (1.0 - frac), total * frac * (1.0 - frac)))


def _pack(p: ArGarchParams) -> np.ndarray:
    wt = math.log(math.expm1(p.omega)) if p.omega < 30 else p.omega
    total = p.persistence
    frac = p.a / total if total > 0 else 0.5
    st, ft = (_logit(min(max(u, 1e-8), 1.0 - 1e-8)) for u in (total, frac))
    return np.array([p.mu, p.phi, wt, st, ft])


def _starts(x) -> list:
    """Two fixed data-derived starting points: high and low persistence.

    On a weakly identified series the loglik can have a high-persistence
    local mode next to a better one near b_coef = 0; the low-persistence
    start reaches the latter, which a start at 0.95 persistence misses.
    """
    m = float(np.mean(x))
    v = float(np.var(x))
    return [
        ArGarchParams(m, 0.0, 0.05 * v, 0.05, 0.90),
        ArGarchParams(m, 0.0, 0.5 * v, 0.05, 0.45),
    ]


def _neg_loglik(z, work: _Likelihood) -> tuple:
    """Negative quasi-loglikelihood at optimizer vector z and its exact gradient in z.

    One `work.score` call, its gradient carried to z by the chain rule: the
    products with the nonzero Jacobian entries, summed from +0.0 in the
    order of an einsum over the whole Jacobian, so with its bits.  Where
    the loglik or the gradient is not finite, the value is `_UNDEFINED`
    and the gradient 0.
    """
    theta, (d_omega, d_a, d_b, d_share) = _unpack(z)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ll, (s_mu, s_phi, s_omega, s_a, s_b) = work.score(theta)
    grad = (0.0 + s_mu, 0.0 + s_phi, 0.0 + s_omega * d_omega,
            0.0 + s_a * d_a + s_b * d_b, 0.0 + s_a * d_share + s_b * -d_share)
    if not all(map(math.isfinite, (ll, *grad))):
        return _UNDEFINED, np.zeros(5)
    return -ll, np.array([-v for v in grad])


@dataclass(eq=False)
class _SearchResult:
    """End of a `minimize` search: the point x, its objective fun, the
    objective evaluations nfev, whether it converged (`minimize` lists the
    stop rules), and its last inverse Hessian hinv."""

    x: np.ndarray
    fun: float
    nfev: int
    success: bool
    hinv: np.ndarray


_IDENTITY = tuple(tuple(float(i == j) for j in range(5)) for i in range(5))  # as rows


def _fdot(a, b) -> float:
    """a . b for two 5-sequences of floats, summed left to right from +0.0."""
    return 0.0 + a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3] + a[4] * b[4]


def _matvec(rows, v) -> list:
    """The five `_fdot`s of the rows with v."""
    v0, v1, v2, v3, v4 = v
    return [0.0 + r0 * v0 + r1 * v1 + r2 * v2 + r3 * v3 + r4 * v4
            for r0, r1, r2, r3, r4 in rows]


def _direction(hinv, z, g) -> list:
    """The quasi-Newton step -hinv g; while z sits on the bound with g[3] < 0,
    or the step would leave through it, the z[3] row and column of hinv take
    no part in it."""
    p = [-v for v in _matvec(hinv, g)]
    if z[3] >= _Z3_MAX and (g[3] < 0 or p[3] > 0):
        p = [-v for v in _matvec(hinv, (g[0], g[1], g[2], 0.0, g[4]))]
        p[3] = 0.0
    return p


def _bfgs_update(hinv, s, y, sy) -> list:
    """(I - s y'/sy) H (I - y s'/sy) + s s'/sy for H = hinv symmetric, as the
    rows H_ij - (Hy_i s_j + Hy_j s_i) / sy + c (s_i s_j), c = (y.Hy / sy + 1) / sy.
    Each term is symmetric in i and j, bit for bit, so the update keeps H
    exactly symmetric, as the formula assumes."""
    hy = _matvec(hinv, y)
    c = (_fdot(y, hy) / sy + 1.0) / sy
    s0, s1, s2, s3, s4 = s
    hy0, hy1, hy2, hy3, hy4 = hy
    rows = []
    for (h0, h1, h2, h3, h4), s_i, hy_i in zip(hinv, s, hy):
        rows.append((h0 - (hy_i * s0 + hy0 * s_i) / sy + c * (s_i * s0),
                     h1 - (hy_i * s1 + hy1 * s_i) / sy + c * (s_i * s1),
                     h2 - (hy_i * s2 + hy2 * s_i) / sy + c * (s_i * s2),
                     h3 - (hy_i * s3 + hy3 * s_i) / sy + c * (s_i * s3),
                     h4 - (hy_i * s4 + hy4 * s_i) / sy + c * (s_i * s4)))
    return rows


def minimize(fun, z0, args=(), hinv0=None) -> _SearchResult:
    """Minimize fun(z, *args) -> (value, gradient array) over 5-vectors z by
    BFGS subject to z[3] <= _Z3_MAX.

    The inverse-Hessian update of Nocedal & Wright (2006, Algorithm 6.1).
    Without `hinv0` the search starts from the identity: the first step is
    -g / |g|, after which the inverse Hessian starts from (s.y / y.y) I
    (their eq. 6.20).  With `hinv0`, such as the last inverse Hessian of a
    search on a neighbouring objective, the first step is -hinv0 g and the
    updates go on from hinv0 unscaled; if that step does not descend, the
    search takes the identity start instead.  A pair with s.y <= 0 is not
    used.  Each step is an Armijo backtracking line search (c1 = 1e-4) from
    the full step, by safeguarded quadratic interpolation.  The bound is a
    box bound as in L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995): a step that
    would cross it is cut at it, and while the search sits on it the step
    is taken as `_direction` says.

    The search stops with `success` at a largest projected-gradient entry
    of at most 1e-5, or after a step that decreased the objective by at
    most 1e-15 relative (a stall at rounding level).  It stops without
    `success`, at its last point, when a line search finds no Armijo
    decrease in 20 evaluations or after `_MAX_STEPS` steps, and at once
    when fun is undefined at z0 (a value of at least `_UNDEFINED`).  `nfev`
    counts every call of `fun`.  The result's `x` (the point the search
    ended at, which fun was last called at if it converged) and `hinv` (the
    inverse Hessian it ended with) are arrays.

    fun is called with an array.  The step itself runs on Python floats,
    each dot product a left-to-right sum from +0.0 (`_fdot`), so neither
    the BLAS thread count or core type nor NumPy's SIMD kernels move its bits.
    """
    x = np.array(z0, dtype=float)
    x[3] = min(x[3], _Z3_MAX)
    f, g = fun(x, *args)
    z, g, nfev = x.tolist(), g.tolist(), 1
    # fresh: the identity start, whose first step is scaled to unit length
    fresh = hinv0 is None
    hinv = _IDENTITY if fresh else np.array(hinv0, dtype=float).tolist()
    if not f < _UNDEFINED:
        return _SearchResult(x, f, nfev, False, np.array(hinv))
    for it in range(_MAX_STEPS):
        projected = (g[0], g[1], g[2], 0.0, g[4]) if z[3] >= _Z3_MAX and g[3] < 0 else g
        if all(abs(v) <= _GTOL for v in projected):
            return _SearchResult(x, f, nfev, True, np.array(hinv))
        p = _direction(hinv, z, g)
        if it == 0 and not fresh and not _fdot(g, p) < 0:  # the carried step does not descend
            fresh, hinv = True, _IDENTITY
            p = _direction(hinv, z, g)
        if fresh:
            norm = math.sqrt(_fdot(g, g))
            p = [v / norm for v in p]
        slope = _fdot(g, p)
        to_bound = (_Z3_MAX - z[3]) / p[3] if p[3] > 0 else math.inf
        step = min(1.0, to_bound)
        for _ in range(_LINE_EVALS):
            trial = [zi + step * pi for zi, pi in zip(z, p)]
            if step == to_bound:
                trial[3] = _Z3_MAX
            x_trial = np.array(trial)
            f_trial, g_trial = fun(x_trial, *args)
            nfev += 1
            if f_trial <= f + _C1 * step * slope:
                break
            # minimizer of the quadratic through f, slope and f_trial, kept
            # within [0.1, 0.5] of the failed step
            quad = -slope * step * step / (2.0 * (f_trial - f - slope * step))
            step = min(max(quad, 0.1 * step), 0.5 * step)
        else:
            return _SearchResult(x, f, nfev, False, np.array(hinv))
        g_trial = g_trial.tolist()
        s = [a - b for a, b in zip(trial, z)]
        y = [a - b for a, b in zip(g_trial, g)]
        stalled = f - f_trial <= _FTOL * max(abs(f), abs(f_trial), 1.0)
        x, z, f, g = x_trial, trial, f_trial, g_trial
        if stalled:
            return _SearchResult(x, f, nfev, True, np.array(hinv))
        sy = _fdot(s, y)
        if sy > 0:
            if fresh:
                scale = sy / _fdot(y, y)
                hinv = [[scale * e for e in row] for row in _IDENTITY]
            hinv = _bfgs_update(hinv, s, y, sy)
        fresh = False
    return _SearchResult(x, f, nfev, False, np.array(hinv))


def fit_qmle(x, compute_se: bool = True,
             start: Union[ArGarchParams, FilteredSeries, None] = None) -> FilteredSeries:
    """Fit AR(1)-GARCH(1,1) by Gaussian QMLE.

    BFGS search (`minimize`) on the exact score over a reparameterized
    space enforcing omega > 0, a >= 0 and b_coef >= 0; the persistence
    a + b_coef is bounded at 1 - 1e-6 by a box bound of the search.  A
    search converged if it reports `success`: a small projected gradient
    or a stall.  One that ends in a failed line search or at the step
    budget did not.  The fit is multistarted from two fixed data-derived
    points, one of high and one of low persistence (a cold fit), and keeps
    the best converged search.  A start from parameters is a third start
    of the cold fit, run after the two, so the fit is never below the cold
    fit.  A start from a `fit_qmle` result instead runs one search from
    where that fit's search ended (a warm fit), and falls back to the cold
    starts, flagged "warm_start_failed", if that search does not converge.
    A search that starts where the loglik or its gradient is not finite
    ends there unconverged.  A fit that ends on the persistence bound is
    returned with a "near_igarch" flag rather than rejected.

    The searches run in one `_Likelihood`, and the fit's filter reuses its
    last recursion where the winning search ended there, as every converged
    search does at its last evaluation: a warm fit, or a fit won by its
    last search, runs no recursion after its search.  The search's step
    arithmetic is plain Python floats, with no BLAS or SIMD kernel (see
    `minimize`).

    Parameters
    ----------
    x : array-like
        Return series, length >= 200, finite (else DataError), non-constant.
    compute_se : bool
        Attach QMLE sandwich standard errors (skipped in bulk rolling fits).
    start : ArGarchParams or FilteredSeries, optional
        From parameters, or from a `filter_series` result, which ran no
        search: a third start of the cold fit, with the identity inverse
        Hessian; where it ties a cold start, the cold start's search is
        kept.  From a `fit_qmle` result, such as the previous day's fit of
        a rolling window: a warm fit, at the optimizer vector and with the
        inverse Hessian that fit's search ended with, so the curvature
        learned there carries over.  Any other type is a ValueError.

    Returns
    -------
    FilteredSeries
    """
    if not (start is None or isinstance(start, (ArGarchParams, FilteredSeries))):
        raise ValueError("start must be an ArGarchParams or a FilteredSeries, "
                         f"got {type(start).__name__}")
    x = _finite_floats(x, "AR-GARCH series")
    if x.size < 200:
        raise EstimationError(f"need at least 200 observations to fit, got {x.size}")
    if np.ptp(x) == 0:
        raise EstimationError("constant series: GARCH parameters unidentifiable")

    if isinstance(start, FilteredSeries):  # where its search ended, else its parameters
        start = start._search_end or start.params
    work = _Likelihood(x)
    carried = isinstance(start, tuple)
    searches = [minimize(_neg_loglik, start[0], (work,), hinv0=start[1])] if carried else []
    flags = ("warm_start_failed",) if carried and not searches[0].success else ()
    if flags or not carried:  # parameters start last: min keeps the first of equal minima
        starts = _starts(x) + ([start] if isinstance(start, ArGarchParams) else [])
        searches = [minimize(_neg_loglik, _pack(p0), (work,)) for p0 in starts]
    converged = [res for res in searches if res.success]
    if not converged:
        raise ConvergenceError("QMLE search failed to converge from any start")
    best = min(converged, key=lambda r: r.fun)

    if best.x[3] >= _Z3_MAX:
        flags = ("near_igarch",) + flags
    params = ArGarchParams(*_unpack(best.x)[0])

    fitted = filter_series(work, params)
    se = _sandwich_se(work, params) if compute_se else None
    return replace(fitted, se=se, flags=flags, _search_end=(best.x, best.hinv))


def _symmetric_inverse(a) -> np.ndarray:
    """Inverse of a small symmetric matrix, symmetrized.

    Gauss-Jordan elimination with partial pivoting in elementwise NumPy,
    with no LAPACK kernel, so the same bits on every CPU.  A singular or
    non-finite matrix gives non-finite entries.
    """
    n = len(a)
    aug = np.concatenate([a, np.eye(n)], axis=1)
    for k in range(n):
        pivot = k + int(np.argmax(np.abs(aug[k:, k])))
        aug[[k, pivot]] = aug[[pivot, k]]
        aug[k] /= aug[k, k]
        others = np.arange(n) != k
        aug[others] -= aug[others, k, None] * aug[k]
    inv = aug[:, n:]
    return 0.5 * (inv + inv.T)


def _sandwich_se(work: _Likelihood, params: ArGarchParams) -> dict:
    """QMLE sandwich standard errors H^-1 S H^-1 (Bollerslev & Wooldridge 1992).

    S is the outer product of the exact per-observation scores (`_Likelihood.scores`)
    and H the Hessian of the total loglikelihood, taken as central
    differences of the summed score (`_Likelihood.score`, the gradient the fit
    itself follows, so no score rows are built for H); both at the fitted
    parameters in the original coordinates.  S and the product run through
    einsum and H is inverted by `_symmetric_inverse`, so no BLAS or LAPACK
    kernel makes the SEs depend on the CPU.  Boundary fits can yield NaN
    entries; that is reported honestly rather than patched.
    """
    theta = params.as_array()
    h = 1e-4 * np.maximum(np.abs(theta), 1e-2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scores = work.scores(theta)
        hess = np.column_stack([np.subtract(work.score(theta + e)[1], work.score(theta - e)[1])
                                for e in np.diag(h)]) / (2.0 * h)
        hinv = _symmetric_inverse(0.5 * (hess + hess.T))
        outer = np.einsum("ti,tj->ij", scores, scores)
        se = np.sqrt(np.einsum("ij,jk,ki->i", hinv, outer, hinv))
    return dict(zip(PARAM_NAMES, (float(s) for s in se)))


def forecast_next(f: FilteredSeries, x_last: float) -> Forecast:
    """One-step-ahead forecast from the last filtered state.

    mu_next = mu + phi * x_last; sigma_next^2 = omega + a * a_T^2 +
    b_coef * sigma_T^2 with (a_T, sigma_T) from the final filtered step.
    `Forecast.quantile` turns it into the day-ahead conditional quantile.
    """
    if f.sigma.size == 0:
        raise EstimationError("cannot forecast from an empty filtered series")
    p = f.params
    sigma_t = float(f.sigma[-1])
    a_t = float(f.resid[-1]) * sigma_t
    mu_next = p.mu + p.phi * float(_finite_floats(x_last, "last observation"))
    sigma_next = math.sqrt(p.omega + p.a * a_t * a_t + p.b_coef * sigma_t * sigma_t)
    return Forecast(mu_next=mu_next, sigma_next=sigma_next)
