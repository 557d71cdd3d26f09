"""AR(1)-GARCH(1,1) filtering, QMLE fitting, and forecasting."""

import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dtbtrs
from scipy.special import expit, logit

import evtrisk as ev
from evtrisk import argarch
from evtrisk.argarch import _LOG_2PI, _Likelihood, _dot, _pack, _symmetric_inverse, minimize
from evtrisk.errors import EstimationError

GARCH_TRUTH = ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894)
UNIT_PARAMS = ev.ArGarchParams(mu=0.0, phi=0.0, omega=1.0, a=0.0, b_coef=0.0)


def test_params_validation():
    with pytest.raises(EstimationError):
        ev.ArGarchParams(0.0, 0.0, 0.0, 0.1, 0.8)  # omega must be > 0
    with pytest.raises(EstimationError):
        ev.ArGarchParams(0.0, 0.0, 1.0, -0.1, 0.8)
    with pytest.raises(EstimationError):
        ev.ArGarchParams(0.0, 0.0, 1.0, 0.3, 0.7)  # persistence at 1
    p = ev.ArGarchParams(0.1, 0.2, 0.5, 0.1, 0.8)
    assert p.persistence == pytest.approx(0.9)


@pytest.mark.parametrize("bad", [{"mu": np.nan}, {"phi": np.inf}, {"omega": np.inf}])
def test_params_refuse_non_finite_values(bad):
    # an EstimationError, which roll_conditional catches from a failed refit
    with pytest.raises(EstimationError, match="non-finite"):
        ev.ArGarchParams(**{"mu": 0.0, "phi": 0.0, "omega": 1.0, "a": 0.1, "b_coef": 0.8,
                            **bad})


def test_degenerate_filter_is_identity():
    # omega=1, a=b=0 fixes sigma at 1 and resid at the raw innovations
    x = np.array([0.3, -0.5, 1.2, 0.0, 2.0])
    f = ev.filter_series(x, UNIT_PARAMS)
    np.testing.assert_array_equal(f.sigma, np.ones(4))
    np.testing.assert_array_equal(f.resid, x[1:])
    assert len(f.sigma) == len(x) - 1


def test_filter_matches_naive_recursion():
    params = ev.ArGarchParams(-0.05, 0.1, 0.02, 0.1, 0.85)
    x = ev.sim_argarch(params, 200, 0)
    f = ev.filter_series(x, params)
    s2 = np.var(x)
    prev_innov_sq = (x[0] - x.mean()) ** 2
    for t in range(1, len(x)):
        innov = x[t] - params.mu - params.phi * x[t - 1]
        s2 = params.omega + params.a * prev_innov_sq + params.b_coef * s2
        assert f.sigma[t - 1] == pytest.approx(np.sqrt(s2), rel=1e-12)
        assert f.resid[t - 1] == pytest.approx(innov / np.sqrt(s2), rel=1e-12)
        prev_innov_sq = innov ** 2


def test_filter_is_bitwise_deterministic():
    params = ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894)
    x = ev.sim_argarch(params, 500, 1)
    a = ev.filter_series(x, params)
    b = ev.filter_series(x, params)
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.resid, b.resid)
    assert a.loglik == b.loglik


def test_loglik_at_true_params_beats_wrong_params():
    truth = ev.ArGarchParams(0.0, 0.0, 0.05, 0.1, 0.85)
    x = ev.sim_argarch(truth, 5000, 2)
    wrong = ev.ArGarchParams(0.5, 0.3, 1.0, 0.01, 0.5)
    assert ev.filter_series(x, truth).loglik > ev.filter_series(x, wrong).loglik


def test_fit_recovers_simulated_params(garch_truth):
    x = ev.sim_argarch(garch_truth, 15_605, 20_000)
    fit = ev.fit_qmle(x)
    got = fit.params
    assert got.mu == pytest.approx(garch_truth.mu, abs=0.02)
    assert got.phi == pytest.approx(garch_truth.phi, abs=0.03)
    assert got.omega == pytest.approx(garch_truth.omega, abs=0.005)
    assert got.a == pytest.approx(garch_truth.a, abs=0.02)
    assert got.b_coef == pytest.approx(garch_truth.b_coef, abs=0.02)
    assert fit.loglik >= ev.filter_series(x, garch_truth).loglik - 1e-6
    assert set(fit.se) == {"mu", "phi", "omega", "a", "b_coef"}
    assert all(s > 0 for s in fit.se.values())


@pytest.mark.slow
def test_fit_unbiased_across_seeds(garch_recovery, garch_truth):
    mean_params, mean_ses = garch_recovery
    for got, se, want in zip(mean_params, mean_ses, garch_truth.as_array()):
        assert abs(got - want) < 3 * se


def test_fit_is_local_optimum():
    truth = ev.ArGarchParams(0.0, 0.05, 0.05, 0.1, 0.85)
    x = ev.sim_argarch(truth, 2000, 3)
    fit = ev.fit_qmle(x, compute_se=False)
    rng = np.random.default_rng(4)
    p = fit.params
    for _ in range(100):
        cand = ev.ArGarchParams(
            p.mu + rng.normal(0, 0.02),
            p.phi + rng.normal(0, 0.02),
            p.omega * np.exp(rng.normal(0, 0.1)),
            max(p.a + rng.normal(0, 0.01), 0.0),
            max(min(p.b_coef + rng.normal(0, 0.01), 0.999 - p.a), 0.0),
        )
        assert ev.filter_series(x, cand).loglik <= fit.loglik + 1e-6


def test_location_scale_consistency():
    truth = ev.ArGarchParams(-0.05, 0.1, 0.02, 0.1, 0.85)
    x = ev.sim_argarch(truth, 4000, 5)
    base = ev.fit_qmle(x, compute_se=False).params
    c = 2.5
    scaled = ev.fit_qmle(c * x, compute_se=False).params
    assert scaled.mu == pytest.approx(c * base.mu, abs=1e-4)
    assert scaled.omega == pytest.approx(c * c * base.omega, abs=1e-4)
    assert scaled.phi == pytest.approx(base.phi, abs=1e-4)
    assert scaled.a == pytest.approx(base.a, abs=1e-4)
    assert scaled.b_coef == pytest.approx(base.b_coef, abs=1e-4)


def test_fit_requires_enough_data():
    x = ev.sim_argarch(UNIT_PARAMS, 150, 6)
    with pytest.raises(EstimationError):
        ev.fit_qmle(x)
    with pytest.raises(EstimationError):
        ev.fit_qmle(np.zeros(500))


def test_simulated_residuals_are_white():
    truth = ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894)
    x = ev.sim_argarch(truth, 10_000, 7)
    f = ev.fit_qmle(x, compute_se=False)
    band = 3.0 / np.sqrt(len(f.resid))
    assert np.all(np.abs(ev.acf(f.resid, 20)) < band)
    assert np.all(np.abs(ev.acf(f.resid ** 2, 20)) < band)


def test_forecast_next_step():
    params = ev.ArGarchParams(0.1, 0.2, 0.02, 0.1, 0.85)
    x = ev.sim_argarch(params, 300, 8)
    f = ev.filter_series(x, params)
    fc = ev.forecast_next(f, x[-1])
    assert fc.mu_next == pytest.approx(0.1 + 0.2 * x[-1])
    innov_last = f.resid[-1] * f.sigma[-1]
    want_var = 0.02 + 0.1 * innov_last ** 2 + 0.85 * f.sigma[-1] ** 2
    assert fc.sigma_next == pytest.approx(np.sqrt(want_var))
    assert fc.quantile(2.0) == pytest.approx(fc.mu_next + 2.0 * fc.sigma_next)


def test_residual_whiteness_on_sp500(sp500_fit):
    fit, _ = sp500_fit
    band = 3.0 / np.sqrt(len(fit.resid))
    assert np.all(np.abs(ev.acf(fit.resid, 20)) < band)
    assert np.all(np.abs(ev.acf(fit.resid ** 2, 20)) < band)


# The allocating formulas that the workspace `_Likelihood` replaced, kept
# unchanged as its oracle: the objective must keep their bits.


def _variance_solve(b_coef, rhs, trans="N"):
    """Solve y_t - b_coef * y_{t-1} = rhs_t for t = 1..n, from y_0 = 0.

    The recursion is a unit lower-bidiagonal linear system, so LAPACK's
    banded triangular solver runs it, column by column for an (n, k) rhs.
    trans="T" solves the transposed system, the backward recursion
    y_t = rhs_t + b_coef * y_{t+1} from y_{n+1} = 0.  The matrix is
    Toeplitz, so the forward solve is the transposed one on the reversed
    series: OpenBLAS's forward kernels round differently on different CPUs,
    its transposed one the same on every CPU it was run on.
    """
    if trans == "N":  # copied back in order: NumPy is slower on reversed views
        return _variance_solve(b_coef, rhs[::-1], "T")[::-1].copy()
    n = rhs.shape[0]
    ab = np.empty((2, n), order="F")
    ab[0] = 1.0
    ab[1] = -b_coef
    y, info = dtbtrs(ab, rhs.reshape(n, -1), uplo="L", trans=trans, diag="U")
    if info != 0:
        raise EstimationError(f"banded variance solve failed (LAPACK info {info})")
    return y.reshape(rhs.shape)


def _recursion(x, mu, phi, omega, a, b_coef):
    """Innovations a_t, conditional variances sigma_t^2 and score factors, t = 2..n.

    sigma2_t = u_t + b_coef * sigma2_{t-1}, with u_t = omega + a * a_{t-1}^2,
    is linear in sigma2: one banded solve, with the start term
    b_coef * sigma_1^2 folded into the first u_t.

    The score of observation t is w_t d sigma2_t - v_t d innov_t, with
    w_t = (innov_t^2 / sigma2_t - 1) / (2 sigma2_t), v_t = innov_t / sigma2_t
    and d the derivative in theta = (mu, phi, omega, a, b_coef).
    d innov_t = (-1, -x_{t-1}, 0, 0, 0), and the variance derivatives follow
    the variance recursion itself, d sigma2_t = drive_t + b_coef * d sigma2_{t-1}
    with drive_t = (-2a innov_{t-1}, -2a innov_{t-1} x_{t-2}, 1, innov_{t-1}^2,
    sigma2_{t-1}) (Fiorentini, Calzolari & Panattoni 1996); the start values
    a_1 and sigma_1^2 do not depend on theta, so the first drive_t is
    (0, 0, 1, a_1^2, sigma_1^2).  Returns innov, sigma2, prev_sq (a_{t-1}^2),
    start_var (sigma_1^2), w and v.
    """
    innov = x[1:] - mu - phi * x[:-1]
    dev_sq = x - x.mean()
    dev_sq *= dev_sq  # the steps of np.var(x), without its overhead
    prev_sq = np.empty_like(innov)
    prev_sq[0] = dev_sq[0]
    np.square(innov[:-1], out=prev_sq[1:])
    u = omega + a * prev_sq
    start_var = float(dev_sq.mean())
    u[0] += b_coef * start_var
    sigma2 = _variance_solve(b_coef, u)
    v = innov / sigma2
    w = 0.5 * (innov * v - 1.0) / sigma2
    return innov, sigma2, prev_sq, start_var, w, v


def _gaussian_terms(innov, sigma2) -> np.ndarray:
    """Gaussian loglikelihood term of each innovation given its variance."""
    return -0.5 * (_LOG_2PI + np.log(sigma2) + innov * innov / sigma2)


def _summed_score(x, theta) -> tuple:
    """Quasi-loglikelihood at theta and its exact gradient in theta.

    The gradient is the summed score by the adjoint method.  With L the
    banded matrix of the variance recursion, d sigma2 = L^-1 drive, so
    sum_t w_t d sigma2_t = (L^-T w) . drive: one backward 1-D solve of w,
    then five dot products against the factors of `_recursion`.  No
    drive or d innov rows are built.
    """
    innov, sigma2, prev_sq, start_var, w, v = _recursion(x, *theta)
    g = _variance_solve(theta[4], w, "T")
    two_a = 2.0 * theta[3]
    innov_g = innov[:-1] * g[1:]
    grad = np.array([
        v.sum() - two_a * innov_g.sum(),
        _dot(x[:-1], v) - two_a * _dot(innov_g, x[:-2]),
        g.sum(),
        _dot(prev_sq, g),
        start_var * g[0] + _dot(sigma2[:-1], g[1:]),
    ])
    return float(np.sum(_gaussian_terms(innov, sigma2))), grad


def _scores(x, theta) -> np.ndarray:
    """Exact per-observation scores d l_t / d theta, shape (n - 1, 5).

    One forward solve of the five drive rows of `_recursion`; only the
    outer product S of the sandwich needs the rows themselves.
    """
    innov, sigma2, prev_sq, start_var, w, v = _recursion(x, *theta)
    drive = np.empty((5, innov.size))
    drive[:2, 0] = 0.0
    drive[0, 1:] = -2.0 * theta[3] * innov[:-1]
    drive[1, 1:] = drive[0, 1:] * x[:-2]
    drive[2] = 1.0
    drive[3] = prev_sq
    drive[4, 0] = start_var
    drive[4, 1:] = sigma2[:-1]
    scores = w[:, None] * _variance_solve(theta[4], drive.T)
    scores[:, 0] += v
    scores[:, 1] += v * x[:-1]
    return scores


def _unpack(z) -> tuple:
    """Map the unconstrained optimizer vector z to theta = (mu, phi, omega, a, b_coef).

    Returns theta and its Jacobian d theta / d z, shape (5, 5).
    """
    mu, phi, wt, st, ft = z
    total = float(expit(st))
    frac = float(expit(ft))
    theta = np.array([mu, phi, np.logaddexp(0.0, wt),  # softplus keeps omega > 0
                      total * frac, total * (1.0 - frac)])
    d_total = total * (1.0 - total)
    jac = np.zeros((5, 5))
    jac[0, 0] = jac[1, 1] = 1.0
    jac[2, 2] = expit(wt)
    jac[3, 3], jac[4, 3] = d_total * frac, d_total * (1.0 - frac)
    jac[3, 4] = total * frac * (1.0 - frac)
    jac[4, 4] = -jac[3, 4]
    return theta, jac


def _neg_loglik(z, x) -> tuple:
    """Negative quasi-loglikelihood at optimizer vector z and its exact gradient in z.

    One `_summed_score` call, its gradient carried to z by the chain rule.
    """
    theta, jac = _unpack(z)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ll, score = _summed_score(x, theta)
        grad = np.einsum("i,ij->j", score, jac)  # no BLAS: the same bits on every CPU
    if not (math.isfinite(ll) and np.all(np.isfinite(grad))):
        return 1e300, np.zeros(5)
    return -ll, -grad


def _central_difference_scores(x, theta):
    """Per-observation loglikelihood gradient by central differences."""
    cols = []
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = 1e-5 * abs(theta[i])
        up = _gaussian_terms(*_recursion(x, *(theta + step))[:2])
        down = _gaussian_terms(*_recursion(x, *(theta - step))[:2])
        cols.append((up - down) / (2.0 * step[i]))
    return np.column_stack(cols)


@pytest.mark.parametrize("at_fit", [True, False])
def test_exact_scores_match_central_differences(at_fit):
    truth = ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894)
    x = ev.sim_argarch(truth, 2000, 11, innovation="student_t", df=5.0)
    theta = (ev.fit_qmle(x, compute_se=False).params.as_array() if at_fit
             else np.array([0.1, -0.2, 0.05, 0.15, 0.7]))
    got = _Likelihood(x).scores(theta)
    want = _central_difference_scores(x, theta)
    assert got.shape == (x.size - 1, 5)
    # relative error of each score column, measured in the column norm
    rel = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
    assert np.all(rel < 1e-6), rel


def test_sandwich_se_matches_frozen_reference():
    # SEs of the nested finite-difference sandwich that preceded exact scores
    frozen = {"mu": 0.01638594505692868, "phi": 0.023945081863470583,
              "omega": 0.004440900954601064, "a": 0.016070515269789958,
              "b_coef": 0.017149971259380618}
    truth = ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894)
    x = ev.sim_argarch(truth, 2000, 11, innovation="student_t", df=5.0)
    se = ev.fit_qmle(x).se
    for name, want in frozen.items():
        assert se[name] == pytest.approx(want, rel=1e-4)


def test_full_size_fit_matches_frozen_reference():
    # fit_qmle(x) of the score code that built (5, n - 1) drive rows per
    # evaluation, on a case-study-sized series
    want_loglik = -19717.500036087862
    want_params = [-0.0540313325570535, 0.061066162846188404, 0.011876847845186344,
                   0.09981572600671512, 0.8931550099023304]
    want_se = {"mu": 0.0061448341435096894, "phi": 0.009736519900511498,
               "omega": 0.001665632496538958, "a": 0.008992741574077109,
               "b_coef": 0.007987942546560545}
    x = ev.sim_argarch(GARCH_TRUTH, 15605, 31, innovation="student_t", df=5.0)
    fit = ev.fit_qmle(x)
    assert fit.loglik >= want_loglik - 1e-8
    np.testing.assert_allclose(fit.params.as_array(), want_params, rtol=0, atol=1e-6)
    for name, want in want_se.items():
        assert fit.se[name] == pytest.approx(want, rel=1e-6, abs=0)


NEAR_INTEGRATED = ev.ArGarchParams(0.0, 0.02, 0.002, 0.12, 0.8799999)

# fit_qmle(x, compute_se=False) of the Nelder-Mead simplex that preceded the
# exact-gradient search: (params, seed, df) -> (loglik, params, flags)
FROZEN_FITS = [
    ((GARCH_TRUTH, 21, 5.0), (-2730.4310537676943, [
        -0.04100403824626312, 0.1281419553864414, 0.012987214523085735,
        0.1256473133948985, 0.8743516866051014], ("near_igarch",))),
    ((GARCH_TRUTH, 22, 5.0), (-1978.2670554417361, [
        -0.03600945260886654, 0.09525367865216369, 0.011733950581159691,
        0.08780879163518529, 0.891362908588135], ())),
    ((GARCH_TRUTH, 23, 5.0), (-2570.462117476594, [
        -0.07911474843129035, 0.053312469198145584, 0.021547399232913753,
        0.07827702397334846, 0.8983518861702796], ())),
    ((NEAR_INTEGRATED, 300, 4.0), (-1010.1064734450379, [
        0.011096887116277442, 0.0364113650384999, 0.00135318008798749,
        0.1036939127351366, 0.8963050872648635], ("near_igarch",))),
]


@pytest.mark.parametrize("case, frozen", FROZEN_FITS,
                         ids=["t5-seed21", "t5-seed22", "t5-seed23", "near-integrated"])
def test_fit_matches_frozen_reference(case, frozen):
    params, seed, df = case
    want_loglik, want_params, want_flags = frozen
    x = ev.sim_argarch(params, 2000, seed, innovation="student_t", df=df)
    fit = ev.fit_qmle(x, compute_se=False)
    # tolerances: no loss of loglik beyond 1e-8; each param within 1e-4 absolute
    assert fit.loglik >= want_loglik - 1e-8
    np.testing.assert_allclose(fit.params.as_array(), want_params, rtol=0, atol=1e-4)
    assert fit.flags == want_flags
    if want_flags:  # the persistence sits at the clamp
        assert fit.params.persistence == pytest.approx(1.0 - 1e-6, rel=0, abs=1e-12)


WEAK_GARCH = ev.ArGarchParams(0.01, -0.1, 0.2, 0.05, 0.5)

# weakly identified series (WEAK_GARCH, n = 2,000) whose global mode lies near
# b_coef = 0 beside a high-persistence local mode that high-persistence starts
# end in: (seed, innovation, df) -> best loglik of a 15-start L-BFGS-B grid
GLOBAL_MODES = [
    ((5001, "student_t", 5.0), -1992.3940819087445),
    ((5021, "student_t", 5.0), -2126.83659106516),
    ((1008, "gaussian", None), -1973.0821870607037),
]


@pytest.mark.parametrize("case, frozen", GLOBAL_MODES,
                         ids=["t5-seed5001", "t5-seed5021", "gauss-seed1008"])
def test_fit_finds_the_low_persistence_global_mode(case, frozen):
    seed, innovation, df = case
    x = ev.sim_argarch(WEAK_GARCH, 2000, seed, innovation=innovation, df=df)
    fit = ev.fit_qmle(x, compute_se=False)
    assert fit.loglik >= frozen - 1e-8
    assert fit.params.persistence < 0.1


def _point(point, x):
    """Optimizer vector z at the fit, off the optimum, or on the persistence bound."""
    if point == "fit":
        return _pack(ev.fit_qmle(x, compute_se=False).params)
    z = _pack(ev.ArGarchParams(0.1, -0.2, 0.05, 0.15, 0.7))
    if point == "at-bound":
        z[3] = logit(1.0 - 1e-6)
    return z


@pytest.mark.parametrize("point", ["fit", "off-optimum", "at-bound"])
def test_neg_loglik_gradient_matches_central_differences(point):
    x = ev.sim_argarch(GARCH_TRUTH, 2000, 11, innovation="student_t", df=5.0)
    z, work = _point(point, x), _Likelihood(x)
    _, grad = argarch._neg_loglik(z, work)
    want = np.empty(5)
    for i in range(5):
        step = np.zeros(5)
        step[i] = 1e-5
        want[i] = (argarch._neg_loglik(z + step, work)[0]
                   - argarch._neg_loglik(z - step, work)[0]) / 2e-5
    np.testing.assert_allclose(grad, want, rtol=1e-6, atol=1e-6)


def test_neg_loglik_is_1e300_with_zero_gradient_where_the_loglik_overflows():
    # mu = 1e300 overflows the squared innovations, so the loglik is not finite
    x = ev.sim_argarch(GARCH_TRUTH, 300, 11)
    value, grad = argarch._neg_loglik(np.array([1e300, 0.0, 0.0, 0.0, 0.0]), _Likelihood(x))
    assert value == 1e300
    assert grad.tolist() == [0.0] * 5


def test_search_from_a_carried_inverse_hessian_that_does_not_descend_starts_afresh():
    # -I turns the first step uphill, so the search must take the steps of
    # the identity start, and a search started where another ended, with
    # its inverse Hessian, stops at once
    x = ev.sim_argarch(GARCH_TRUTH, 500, 11, innovation="student_t", df=5.0)
    z0, work = _pack(GARCH_TRUTH), _Likelihood(x)
    fresh = minimize(argarch._neg_loglik, z0, (work,))
    uphill = minimize(argarch._neg_loglik, z0, (work,), hinv0=-np.eye(5))
    assert fresh.success and fresh.nfev > 10
    assert uphill.nfev == fresh.nfev and uphill.x.tolist() == fresh.x.tolist()
    assert uphill.hinv.tolist() == fresh.hinv.tolist()
    again = minimize(argarch._neg_loglik, fresh.x, (work,), hinv0=fresh.hinv)
    assert again.success and again.nfev <= 2


def test_search_whose_line_search_fails_ends_unconverged_where_it_started():
    # the reported gradient points uphill, so no step along it decreases z.z:
    # the line search spends its evaluations and the search stops at z0
    z0 = np.array([0.5, -0.2, 0.1, 0.3, 0.4])
    res = minimize(lambda z: (_dot(z, z), -2.0 * z), z0)
    assert not res.success
    assert res.nfev == 1 + argarch._LINE_EVALS == 21
    assert res.x.tolist() == z0.tolist() and res.fun == _dot(z0, z0)


def test_symmetric_inverse_matches_the_lapack_inverse():
    x = ev.sim_argarch(GARCH_TRUTH, 2000, 11, innovation="student_t", df=5.0)
    params = ev.fit_qmle(x, compute_se=False).params
    theta = params.as_array()
    h = 1e-4 * np.maximum(np.abs(theta), 1e-2)  # the steps of _sandwich_se
    hess = np.column_stack([_summed_score(x, theta + e)[1] - _summed_score(x, theta - e)[1]
                            for e in np.diag(h)]) / (2.0 * h)
    hess = 0.5 * (hess + hess.T)
    np.testing.assert_allclose(_symmetric_inverse(hess), np.linalg.inv(hess), rtol=1e-9)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.isfinite(_symmetric_inverse(np.ones((5, 5)))).all()


def _loop_solve(b_coef, rhs, start, trans):
    """y_t = rhs_t + b_coef * y_{t-1} from y_0 = start, or backward for "T"."""
    y = np.array(rhs, dtype=float)
    if trans == "N":
        y[0] += b_coef * start
        for t in range(1, len(y)):
            y[t] += b_coef * y[t - 1]
    else:
        for t in range(len(y) - 2, -1, -1):
            y[t] += b_coef * y[t + 1]
    return y


def _solve(b_coef, rhs, trans):
    """`_Likelihood.solve` on rhs for "T", and on the reversed rhs for the
    forward recursion "N", as `_Likelihood.recursion` runs it."""
    work = _Likelihood(np.zeros(len(rhs) + 1))
    work.ab[1] = -b_coef
    y = np.asfortranarray((rhs if trans == "T" else rhs[::-1]).reshape(len(rhs), -1))
    work.solve(y)
    return (y if trans == "T" else y[::-1]).reshape(rhs.shape)


@pytest.mark.parametrize("trans", ["N", "T"])
@pytest.mark.parametrize("shape", [(1,), (1, 5), (15604,), (15604, 5)])
@pytest.mark.parametrize("b_coef", [0.0, 0.5, 0.894, 1.0 - 1e-6])
def test_variance_solve_matches_loop(b_coef, shape, trans):
    rng = np.random.default_rng(len(shape) * shape[0])
    # positive terms, like variances: the recursion is then well conditioned
    rhs = rng.uniform(0.5, 1.5, shape)
    start = 2.0 if trans == "N" else 0.0
    want = _loop_solve(b_coef, rhs, start, trans)
    folded = rhs.copy()
    folded[0] += b_coef * start
    got = _solve(b_coef, folded, trans)
    assert got.shape == shape
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_the_openblas_solve_matches_scipys_dtbtrs_byte_for_byte():
    # the solve calls dtbtrs in the OpenBLAS of NumPy's wheel, which SciPy's
    # wrapper does not reach; on this install both must give the same bytes
    if argarch._DTBTRS is None:
        pytest.skip("this NumPy ships no OpenBLAS dtbtrs; the solve runs in SciPy")
    rng = np.random.default_rng(41)
    for k in range(200):
        n = int(rng.integers(200, 16_001))
        ab = np.ones((2, n), order="F")
        ab[1] = -rng.uniform(0.0, 0.999)
        rhs = np.asfortranarray(rng.uniform(0.5, 1.5, (n, 1 if k % 2 else 5)))
        want, info = dtbtrs(ab, rhs, uplo="L", trans="T", diag="U")
        got = rhs.copy(order="F")
        argarch._banded_solve(ab, got)()
        assert info == 0 and got.tobytes() == want.tobytes(), (k, n)


def _read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("ab, rhs", [
    (np.ones((2, 10), order="F"), np.ones((10, 5))),  # C order
    (np.ones((2, 10), order="F"), np.ones((10, 1), dtype=np.float32, order="F")),
    (np.ones((2, 10), order="F"), np.ones((11, 1), order="F")),
    (np.ones((2, 10), order="F"), np.ones(10)),
    (np.ones((2, 10), order="F"), _read_only(np.ones((10, 1), order="F"))),
    (np.ones((2, 10)), np.ones((10, 1), order="F")),  # a C-order band
    (np.ones((3, 10), order="F"), np.ones((10, 1), order="F")),
    (_read_only(np.ones((2, 10), order="F")), np.ones((10, 1), order="F")),
    (np.ones((2, 0), order="F"), np.ones((0, 1), order="F")),
], ids=["rhs-c-order", "rhs-float32", "rhs-too-long", "rhs-1d", "rhs-read-only",
        "band-c-order", "band-3-rows", "band-read-only", "empty"])
def test_the_solve_refuses_arrays_it_cannot_pass_to_lapack(ab, rhs):
    # through ctypes a wrong array would be read or written out of bounds
    with pytest.raises(ValueError, match="^the banded solve takes writeable float64"):
        argarch._banded_solve(ab, rhs)


def test_without_numpys_openblas_the_solve_runs_in_scipy(monkeypatch):
    def no_library(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(argarch.ctypes, "CDLL", no_library)
    assert argarch._openblas_dtbtrs() is None
    monkeypatch.setattr(argarch, "_DTBTRS", None)
    b_coef = 0.894
    rhs = np.asfortranarray(np.random.default_rng(42).uniform(0.5, 1.5, (2000, 5)))
    want = _variance_solve(b_coef, rhs, "T")
    got = _solve(b_coef, rhs, "T")
    assert got.tobytes() == want.tobytes()


# a fit in a fresh interpreter whose ctypes can open no library, so that
# `import evtrisk` finds no OpenBLAS dtbtrs and the fit solves in SciPy
FALLBACK_SCRIPT = """
import ctypes, json, sys
import numpy as np

def no_library(name, *args, **kwargs):
    raise OSError(f"{name}: cannot open shared object file")

ctypes.CDLL = no_library
import evtrisk as ev
from evtrisk import argarch
imported = "scipy.linalg" in sys.modules
fit = ev.fit_qmle(np.load(sys.argv[1]))
parts = [fit.loglik, fit.params.as_array(), [fit.se[k] for k in sorted(fit.se)], fit.sigma,
         fit.resid, *fit._search_end]
print(json.dumps({"route": argarch._DTBTRS is None, "imported": imported,
                  "loaded": "scipy.linalg.lapack" in sys.modules,
                  "fit": [np.asarray(part, dtype=float).tobytes().hex() for part in parts]}))
"""


def test_a_fit_has_the_same_bytes_when_the_solve_falls_back_to_scipy(tmp_path):
    x = ev.sim_argarch(GARCH_TRUTH, 2000, 11, innovation="student_t", df=5.0)
    np.save(tmp_path / "x.npy", x)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FALLBACK_SCRIPT, str(tmp_path / "x.npy")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.splitlines()[-1])
    fit = ev.fit_qmle(x)
    parts = [fit.loglik, fit.params.as_array(), [fit.se[k] for k in sorted(fit.se)], fit.sigma,
             fit.resid, *fit._search_end]
    # SciPy loads only for the fallback's first solve, not at import
    assert child["route"] and not child["imported"] and child["loaded"]
    assert child["fit"] == [np.asarray(part, dtype=float).tobytes().hex() for part in parts]


POINTS = ["fit", "off-optimum", "at-bound"]


@pytest.mark.parametrize("point, n", [(p, 2000) for p in POINTS] + [(p, 15605) for p in POINTS],
                         ids=POINTS + [f"{p}-n15605" for p in POINTS])
def test_adjoint_gradient_matches_forward_scores(point, n):
    x = ev.sim_argarch(GARCH_TRUTH, n, 11, innovation="student_t", df=5.0)
    z = _point(point, x)
    theta, jac = _unpack(z)
    work = _Likelihood(x)
    scores = work.scores(theta)
    want = scores.sum(0) @ jac
    _, grad = argarch._neg_loglik(z, work)
    err = np.abs(-grad - want)
    # at the fit the summed score cancels to about 1e-5 out of terms of order
    # 1e3, so its rounding is bounded relative to the sum of their magnitudes
    bound = 1e-10 * (np.abs(scores).sum(0) @ np.abs(jac) if point == "fit"
                     else np.abs(want))
    assert np.all(err <= bound), err / bound


def test_summed_score_matches_score_rows_at_the_hessian_points():
    x = ev.sim_argarch(GARCH_TRUTH, 2000, 11, innovation="student_t", df=5.0)
    theta = ev.fit_qmle(x, compute_se=False).params.as_array()
    h = 1e-4 * np.maximum(np.abs(theta), 1e-2)  # the steps of _sandwich_se
    work = _Likelihood(x)
    for point in [*(theta + np.diag(h)), *(theta - np.diag(h))]:
        scores = work.scores(point)
        ll, got = work.score(point)
        assert ll == np.sum(_gaussian_terms(*_recursion(x, *point)[:2]))
        # near the fit the sums cancel, so rounding is bounded by the magnitudes
        err = np.abs(got - scores.sum(0))
        assert np.all(err <= 1e-10 * np.abs(scores).sum(0)), err


def _draws(rng, z0, count):
    """Optimizer vectors about z0: one in 50 scaled by 300, one in 97 with an
    entry set to a signed zero, an expit or softplus overflow edge or 1e300."""
    for k in range(count):
        z = z0 + rng.normal(0.0, 1.0, 5) * rng.choice([0.1, 1.0, 3.0])
        if k % 50 == 0:
            z *= 300.0
        if k % 97 == 0:
            z[rng.integers(0, 5)] = rng.choice([0.0, -0.0, 709.8, -709.8, 746.0, -746.0,
                                                1e300, -1e300])
        yield z


@pytest.mark.parametrize("n", [200, 2000, 15605])
def test_objective_equals_the_allocating_formula_bit_for_bit(n):
    x = ev.sim_argarch(GARCH_TRUTH, n, 11, innovation="student_t", df=5.0)
    work = _Likelihood(x)
    # the loglik overflow, wt == 0 and +-0.0, exp overflows, and d omega / d z[2]
    # == 0 (at n = 2,000 times a negative score entry, a -0.0 product)
    specials = [np.array([1e300, 0.0, 0.0, 0.0, 0.0]), np.zeros(5),
                np.array([0.1, 0.2, -0.0, 800.0, -800.0]), np.array([0.0, 0.0, -750.0, 5.0, 0.0]),
                np.array([-0.05, 0.066, -750.0, 13.0, -30.0])]
    overflows = beyond = 0
    for z in [*specials, *_draws(np.random.default_rng(n), _pack(GARCH_TRUTH), 2000)]:
        want_value, want_grad = _neg_loglik(z, x)
        value, grad = argarch._neg_loglik(z, work)
        assert value == want_value, z
        assert grad.tobytes() == want_grad.tobytes(), z  # every bit, the signs of 0 too
        overflows += value == 1e300
        beyond += np.abs(z).max() > 709.8
    assert overflows >= 1 and beyond >= 40


def test_scalar_maps_match_scipy_expit_and_numpy_logaddexp():
    rng = np.random.default_rng(3)
    edges = [0.0, -0.0, 709.78, -709.78, 709.8, -709.8, 745.2, -745.2, 746.0, -746.0,
             36.7, -36.7, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf]
    draws = np.concatenate([edges, rng.normal(0.0, 1.0, 2000), rng.normal(0.0, 40.0, 2000),
                            rng.uniform(-800.0, 800.0, 2000)])
    for v in draws.tolist():
        assert math.copysign(1.0, argarch._expit(v)) == math.copysign(1.0, expit(v))
        assert argarch._expit(v) == expit(v), v
        assert argarch._softplus(v) == np.logaddexp(0.0, v), v
    with np.errstate(invalid="ignore"):
        assert math.isnan(argarch._softplus(math.nan)) and math.isnan(np.logaddexp(0.0, math.nan))
    assert math.isnan(argarch._expit(math.nan))


def test_logit_matches_scipy_logit_bit_for_bit():
    rng = np.random.default_rng(4)
    # the branch edges 0.3 and 0.65 and their neighbours, and the clip points of _pack
    edges = [v for c in (0.3, 0.5, 0.65) for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))]
    draws = np.concatenate([
        edges, [1e-8, 1.0 - 1e-8, 1.0 - 1e-6], rng.random(20000),
        *(c + rng.uniform(-0.02, 0.02, 20000) for c in (0.3, 0.5, 0.65)),
        10.0 ** rng.uniform(-300.0, -1.0, 20000), 1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 20000),
    ])
    got = np.array([argarch._logit(v) for v in draws.tolist()])
    assert got.tobytes() == logit(draws).tobytes()
    assert argarch._Z3_MAX == float(logit(1.0 - 1e-6))


def _assert_same_fit(got, want):
    assert got.params == want.params and got.loglik == want.loglik
    assert got.sigma.tobytes() == want.sigma.tobytes()
    assert got.resid.tobytes() == want.resid.tobytes()
    assert got.se == want.se and got.flags == want.flags
    assert [a.tobytes() for a in got._search_end] == [a.tobytes() for a in want._search_end]


@pytest.mark.parametrize("params, seed, start", [(GARCH_TRUTH, 11, 0), (WEAK_GARCH, 5021, 150)],
                         ids=["t5-seed11", "weak-t5-seed5021"])
def test_a_shared_workspace_leaks_nothing_between_searches(monkeypatch, params, seed, start):
    # each evaluation of the allocating oracle starts afresh, so fits with it
    # patched in see no state left in the workspace by an earlier search
    x = ev.sim_argarch(params, start + 2001, seed, innovation="student_t", df=5.0)
    today, tomorrow = x[start:start + 2000], x[start + 1:start + 2001]

    def fits():
        cold = ev.fit_qmle(today, compute_se=False)
        return cold, ev.fit_qmle(tomorrow, compute_se=False, start=cold), ev.fit_qmle(tomorrow)

    real = fits()
    monkeypatch.setattr(argarch, "_neg_loglik", lambda z, work: _neg_loglik(z, work.x))
    for got, want in zip(real, fits()):
        _assert_same_fit(got, want)


def test_an_evaluation_allocates_no_length_n_temporary():
    n = 15605
    x = ev.sim_argarch(GARCH_TRUTH, n, 11, innovation="student_t", df=5.0)
    work, z = _Likelihood(x), _pack(GARCH_TRUTH)
    argarch._neg_loglik(z, work)
    tracemalloc.start()
    try:
        argarch._neg_loglik(z, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n, peak


# a fit in a fresh interpreter: the features NumPy dispatches to, and the
# bytes of the loglik, parameters, standard errors and search end
SIMD_SCRIPT = """
import json, sys
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
import evtrisk as ev
fit = ev.fit_qmle(np.load(sys.argv[1]))
z, hinv = fit._search_end
parts = [fit.loglik, fit.params.as_array(), [fit.se[k] for k in sorted(fit.se)], z, hinv]
print(json.dumps({"features": sorted(k for k, on in __cpu_features__.items() if on),
                  "fit": [np.asarray(part, dtype=float).tobytes().hex() for part in parts]}))
"""
# NPY_DISABLE_CPU_FEATURES by level: AVX-512 off, then AVX2 off too
SIMD_LEVELS = {"default": "", "avx2": "AVX512_ICL AVX512_SPR X86_V4",
               "sse": "AVX512_ICL AVX512_SPR X86_V4 X86_V3"}


@functools.lru_cache(maxsize=None)
def _fit_at_simd_level(level, series):
    """The child's report, or its last error line where it exits non-zero."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    if SIMD_LEVELS[level]:
        env["NPY_DISABLE_CPU_FEATURES"] = SIMD_LEVELS[level]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SIMD_SCRIPT, series], env=env,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return (proc.stderr.strip().splitlines() or ["no output"])[-1]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def simd_series(tmp_path_factory):
    path = tmp_path_factory.mktemp("simd") / "x.npy"
    np.save(path, ev.sim_argarch(GARCH_TRUTH, 2000, 11, innovation="student_t", df=5.0))
    return str(path)


@pytest.mark.parametrize("level, previous", [("avx2", "default"), ("sse", "avx2")])
def test_a_fit_has_the_same_bits_at_every_simd_level(simd_series, level, previous):
    # einsum's short dots round differently with AVX-512 than with AVX2;
    # the search must still take the same steps to the same end
    default = _fit_at_simd_level("default", simd_series)
    assert isinstance(default, dict), default
    got, prev = _fit_at_simd_level(level, simd_series), _fit_at_simd_level(previous, simd_series)
    if not isinstance(got, dict):  # an older NumPy may not know these feature names
        pytest.skip(f"NumPy refuses NPY_DISABLE_CPU_FEATURES={SIMD_LEVELS[level]!r}: {got}")
    if isinstance(prev, dict) and got["features"] == prev["features"]:
        pytest.skip(f"this CPU has none of {SIMD_LEVELS[level]} to disable")
    assert got["fit"] == default["fit"]


@pytest.mark.parametrize("start", ["cold", "carried", "params", "se"])
def test_a_fit_holds_the_filter_of_its_parameters_byte_for_byte(start):
    # a fit's filter reuses its search's last recursion where it can; the
    # result must be that of a fresh filter_series at the fitted parameters
    x = ev.sim_argarch(GARCH_TRUTH, 2001, 11, innovation="student_t", df=5.0)
    today = ev.fit_qmle(x[:-1], compute_se=False)
    starts = {"cold": None, "carried": today, "params": today.params, "se": None}
    fit = ev.fit_qmle(x[1:], compute_se=start == "se", start=starts[start])
    want = ev.filter_series(x[1:], fit.params)
    assert fit.sigma.tobytes() == want.sigma.tobytes()
    assert fit.resid.tobytes() == want.resid.tobytes()
    assert fit.loglik == want.loglik
    assert "warm_start_failed" not in fit.flags and (fit.se is not None) == (start == "se")


# squared deviations of about 1e-310 make the score overflow at every start
UNDEFINED_SERIES = np.random.default_rng(0).standard_t(5, 500) * 1e-155
UNDEFINED_Z = np.array([1e300, 0.0, 0.0, 0.0, 0.0])


def test_a_filter_computes_no_score_factors():
    # on this series the score factor w overflows; a plain filter returns
    # only the recursion, with the bits of the allocating formulas
    x = UNDEFINED_SERIES
    params = ev.ArGarchParams(float(np.mean(x)), 0.0, 0.05 * float(np.var(x)), 0.05, 0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ev.filter_series(x, params)
    with np.errstate(over="ignore"):
        innov, sigma2 = _recursion(x, *params.as_array())[:2]
    sigma = np.sqrt(sigma2)
    assert got.sigma.tobytes() == sigma.tobytes()
    assert got.resid.tobytes() == (innov / sigma).tobytes()
    assert got.loglik == np.sum(_gaussian_terms(innov, sigma2))


def test_a_search_that_starts_where_the_objective_is_undefined_ends_unconverged():
    x = ev.sim_argarch(GARCH_TRUTH, 300, 11)
    res = minimize(argarch._neg_loglik, UNDEFINED_Z, (_Likelihood(x),))
    assert not res.success and res.nfev == 1 and res.fun == 1e300
    assert res.x.tolist() == UNDEFINED_Z.tolist()


@pytest.mark.parametrize("warm", [False, True])
def test_a_fit_whose_starts_are_all_undefined_raises_without_a_warning(monkeypatch, warm):
    real_minimize, searches = argarch.minimize, []

    def wrapped(*args, **kwargs):
        searches.append(real_minimize(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(argarch, "minimize", wrapped)
    start = argarch._starts(UNDEFINED_SERIES)[0] if warm else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ev.ConvergenceError,
                           match="^QMLE search failed to converge from any start$"):
            ev.fit_qmle(UNDEFINED_SERIES, start=start)
    assert len(searches) == warm + len(argarch._starts(UNDEFINED_SERIES))
    assert all(not res.success and res.nfev == 1 and res.fun == 1e300 for res in searches)


def test_a_carried_start_where_the_objective_is_undefined_falls_back_flagged():
    x = ev.sim_argarch(GARCH_TRUTH, 500, 11, innovation="student_t", df=5.0)
    cold = ev.fit_qmle(x, compute_se=False)
    undefined = replace(cold, _search_end=(UNDEFINED_Z, None))
    fit = ev.fit_qmle(x, compute_se=False, start=undefined)
    assert fit.params == cold.params and fit.loglik == cold.loglik
    assert fit.flags == cold.flags + ("warm_start_failed",)


# a search on a pure-Python objective in a fresh interpreter: a badly scaled
# quadratic plus a quartic, so any bits that move come from minimize itself
SEARCH_SCRIPT = """
import json
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
from evtrisk.argarch import minimize
SCALES, CENTRE = (1e-3, 1.0, 30.0, 0.3, 1e3), (0.7, -1.3, 2.1, 0.4, -0.05)

def objective(z):
    d = [v - c for v, c in zip(z.tolist(), CENTRE)]
    r = 0.0
    for v in d:
        r += v * v
    f = 0.25 * r * r
    for k, v in zip(SCALES, d):
        f += k * v * v
    return f, np.array([2.0 * k * v + r * v for k, v in zip(SCALES, d)])

res = minimize(objective, np.array([3.0, 2.0, -1.0, -2.0, 1.5]))
print(json.dumps({"features": sorted(k for k, on in __cpu_features__.items() if on),
                  "success": res.success, "nfev": res.nfev,
                  "search": [np.asarray(part, dtype=float).tobytes().hex()
                             for part in (res.x, [res.fun], res.hinv)]}))
"""


@functools.lru_cache(maxsize=None)
def _search_at_simd_level(level):
    """The child's report, or its last error line where it exits non-zero."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    if SIMD_LEVELS[level]:
        env["NPY_DISABLE_CPU_FEATURES"] = SIMD_LEVELS[level]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SEARCH_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return (proc.stderr.strip().splitlines() or ["no output"])[-1]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("level, previous", [("avx2", "default"), ("sse", "avx2")])
def test_a_search_has_the_same_bits_at_every_simd_level(level, previous):
    # the step runs on Python floats, so no NumPy kernel may move a bit of it
    default = _search_at_simd_level("default")
    assert isinstance(default, dict), default
    assert default["success"] and default["nfev"] > 30
    got, prev = _search_at_simd_level(level), _search_at_simd_level(previous)
    if not isinstance(got, dict):  # an older NumPy may not know these feature names
        pytest.skip(f"NumPy refuses NPY_DISABLE_CPU_FEATURES={SIMD_LEVELS[level]!r}: {got}")
    if isinstance(prev, dict) and got["features"] == prev["features"]:
        pytest.skip(f"this CPU has none of {SIMD_LEVELS[level]} to disable")
    assert (got["nfev"], got["search"]) == (default["nfev"], default["search"])
