"""AR(1)-GARCH(1,1) filtering, QMLE fitting, and forecasting."""

import numpy as np
import pytest
from scipy.special import logit

import evtrisk as ev
from evtrisk.argarch import (_gaussian_terms, _neg_loglik, _pack, _recursion, _scores,
                             _summed_score, _symmetric_inverse, _unpack, _variance_solve,
                             minimize)
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
    got = _scores(x, theta)
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
    z = _point(point, x)
    _, grad = _neg_loglik(z, x)
    want = np.empty(5)
    for i in range(5):
        step = np.zeros(5)
        step[i] = 1e-5
        want[i] = (_neg_loglik(z + step, x)[0] - _neg_loglik(z - step, x)[0]) / 2e-5
    np.testing.assert_allclose(grad, want, rtol=1e-6, atol=1e-6)


def test_neg_loglik_is_1e300_with_zero_gradient_where_the_loglik_overflows():
    # mu = 1e300 overflows the squared innovations, so the loglik is not finite
    x = ev.sim_argarch(GARCH_TRUTH, 300, 11)
    value, grad = _neg_loglik(np.array([1e300, 0.0, 0.0, 0.0, 0.0]), x)
    assert value == 1e300
    assert grad.tolist() == [0.0] * 5


def test_search_from_a_carried_inverse_hessian_that_does_not_descend_starts_afresh():
    # -I turns the first step uphill, so the search must take the steps of
    # the identity start, and a search started where another ended, with
    # its inverse Hessian, stops at once
    x = ev.sim_argarch(GARCH_TRUTH, 500, 11, innovation="student_t", df=5.0)
    z0 = _pack(GARCH_TRUTH)
    fresh = minimize(_neg_loglik, z0, (x,))
    uphill = minimize(_neg_loglik, z0, (x,), hinv0=-np.eye(5))
    assert fresh.success and fresh.nfev > 10
    assert uphill.nfev == fresh.nfev and uphill.x.tolist() == fresh.x.tolist()
    assert uphill.hinv.tolist() == fresh.hinv.tolist()
    again = minimize(_neg_loglik, fresh.x, (x,), hinv0=fresh.hinv)
    assert again.success and again.nfev <= 2


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
    got = _variance_solve(b_coef, np.asfortranarray(folded), trans)
    assert got.shape == shape
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


POINTS = ["fit", "off-optimum", "at-bound"]


@pytest.mark.parametrize("point, n", [(p, 2000) for p in POINTS] + [(p, 15605) for p in POINTS],
                         ids=POINTS + [f"{p}-n15605" for p in POINTS])
def test_adjoint_gradient_matches_forward_scores(point, n):
    x = ev.sim_argarch(GARCH_TRUTH, n, 11, innovation="student_t", df=5.0)
    z = _point(point, x)
    theta, jac = _unpack(z)
    scores = _scores(x, theta)
    want = scores.sum(0) @ jac
    _, grad = _neg_loglik(z, x)
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
    for point in [*(theta + np.diag(h)), *(theta - np.diag(h))]:
        scores = _scores(x, point)
        ll, got = _summed_score(x, point)
        assert ll == np.sum(_gaussian_terms(*_recursion(x, *point)[:2]))
        # near the fit the sums cancel, so rounding is bounded by the magnitudes
        err = np.abs(got - scores.sum(0))
        assert np.all(err <= 1e-10 * np.abs(scores).sum(0)), err
