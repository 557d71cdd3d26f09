"""Acceptance checks: reference values of the S&P 500 tail-risk case study.

Criteria 1-6 and 8-11 compare against reference results computed on the
vendored daily price snapshot (data/) and skip when it is absent.  Criteria
7 and 12 are simulation-only and always run.
"""

import time

import numpy as np
import pytest

import evtrisk as ev

METHODS = ("hill", "corrected", "empirical")


def test_criterion_01_full_sample_tail_index(sp500_returns):
    x = sp500_returns.values
    t0 = time.perf_counter()
    plain = ev.hill(x, 250)
    corrected = ev.hill_corrected(x, 1000)
    elapsed = time.perf_counter() - t0
    assert plain.alpha == pytest.approx(2.95, abs=0.10)
    assert corrected.alpha == pytest.approx(3.05, abs=0.15)
    assert elapsed < 1.0


def test_criterion_02_quantile_extrapolation_stability(sp500_returns):
    x = sp500_returns.values
    emp = ev.empirical_quantile(x, 0.99)
    assert emp == pytest.approx(2.85, abs=0.10)
    fit = ev.hill(x, 250)
    for k in range(150, 301):
        q = ev.weissman_quantile(x, 0.99, k, fit)
        assert q == pytest.approx(emp, abs=0.15)


def test_criterion_03_full_sample_qmle(sp500_fit):
    fit, elapsed = sp500_fit
    p = fit.params
    assert p.mu == pytest.approx(-0.050, abs=0.005)
    assert p.phi == pytest.approx(0.066, abs=0.005)
    assert p.omega == pytest.approx(0.011, abs=0.005)
    assert p.a == pytest.approx(0.099, abs=0.010)
    assert p.b_coef == pytest.approx(0.894, abs=0.010)
    assert elapsed < 30.0


def test_criterion_04_extremal_index_raw_and_residual(sp500_returns, sp500_fit):
    x = sp500_returns.values
    assert ev.extremal_index_sliding(x, 500).theta == pytest.approx(0.198, abs=0.03)
    fit, _ = sp500_fit
    sweep = ev.theta_sweep(fit.resid, range(100, 1001, 100), level=0.95)
    covering = sum(f.ci[0] <= 1.0 <= f.ci[1] for f in sweep)
    assert covering >= len(range(100, 1001, 100)) / 2


def test_criterion_05_residual_tails(sp500_fit):
    fit, _ = sp500_fit
    r = fit.resid
    assert ev.hill(r, 250).alpha == pytest.approx(4.05, abs=0.15)
    assert ev.hill_corrected(r, 1500).alpha == pytest.approx(4.22, abs=0.20)
    assert ev.empirical_quantile(r, 0.99) == pytest.approx(2.64, abs=0.05)


def test_criterion_06_declustering_sizes(sp500_returns):
    r = sp500_returns
    assert len(ev.rank_gap_decluster(r, 2)) == pytest.approx(7053, abs=150)
    assert len(ev.rank_gap_decluster(r, 9)) == pytest.approx(2360, abs=60)
    assert len(ev.rank_gap_decluster(r, 19)) == pytest.approx(1155, abs=40)
    sizes = [len(ev.weekday_subsample(r, d)) for d in range(5)]
    assert sizes == [2977, 3189, 3179, 3140, 3120]


@pytest.mark.slow
def test_criterion_07_simulated_declustering_theta(declustering_theta_study):
    means, elapsed = declustering_theta_study
    assert means["raw"] == pytest.approx(0.212, abs=0.05)
    assert means["thin"] == pytest.approx(0.459, abs=0.07)
    assert means["gap2"] == pytest.approx(0.262, abs=0.05)
    assert means["gap9"] == pytest.approx(0.372, abs=0.07)
    assert elapsed < 600.0


def test_criterion_08_rolling_unconditional_counts(uncond_roll):
    res = uncond_roll
    assert res.starts.size == 54
    want_250 = dict(zip(METHODS, (4.15, 4.31, 4.19)))
    want_2000 = dict(zip(METHODS, (36.2, 37.8, 36.8)))
    for m in METHODS:
        assert res.mean_count(m, 250) == pytest.approx(want_250[m], abs=0.4)
        assert res.mean_count(m, 2000) == pytest.approx(want_2000[m], abs=3.0)


def test_criterion_09_rolling_conditional_counts(cond_roll):
    res, elapsed = cond_roll
    want_250 = dict(zip(METHODS, (2.78, 2.71, 2.81)))
    want_2000 = dict(zip(METHODS, (22.13, 21.35, 22.83)))
    for m in METHODS:
        assert res.mean_count(m, 250) == pytest.approx(want_250[m], abs=0.3)
        assert res.mean_count(m, 2000) == pytest.approx(want_2000[m], abs=2.0)
    assert elapsed < 4 * 3600.0


def test_criterion_10_coverage_rejection_table(uncond_roll, cond_roll):
    cond, _ = cond_roll
    table = {
        # test_len: (tolerance, {(series, test): per-method rejections})
        250: (0.03, {("uncond", "uc"): (0.174, 0.182, 0.178),
                     ("uncond", "cc"): (0.175, 0.172, 0.179),
                     ("cond", "uc"): (0.035, 0.021, 0.058),
                     ("cond", "cc"): (0.026, 0.011, 0.048)}),
        2000: (0.06, {("uncond", "uc"): (0.573, 0.688, 0.679),
                      ("uncond", "cc"): (0.808, 0.788, 0.736),
                      ("cond", "uc"): (0.148, 0.051, 0.162),
                      ("cond", "cc"): (0.127, 0.037, 0.160)}),
    }
    for test_len, (tol, cells) in table.items():
        for m_idx, m in enumerate(METHODS):
            uncond_sb = ev.sliding_backtest(uncond_roll.daily[m], test_len)
            cond_sb = ev.sliding_backtest(cond.exceedances[m], test_len)
            got = {("uncond", "uc"): uncond_sb.reject_uc,
                   ("uncond", "cc"): uncond_sb.reject_cc,
                   ("cond", "uc"): cond_sb.reject_uc,
                   ("cond", "cc"): cond_sb.reject_cc}
            for cell, wants in cells.items():
                assert got[cell] == pytest.approx(wants[m_idx], abs=tol), \
                    f"{cell} {m} at test_len {test_len}"


def test_criterion_11_tail_dependence(sp500_returns, djia_returns, ftse_returns):
    spec = ev.BootstrapSpec(replicates=999, mean_block=200.0, seed=0, level=0.90)
    wants = {"djia": (0.83, 0.80, 0.03), "ftse": (0.40, 0.34, 0.04)}
    pairs = {"djia": ev.align_pairs(sp500_returns, djia_returns),
             "ftse": ev.align_pairs(sp500_returns, ftse_returns)}
    for name, pair in pairs.items():
        want_raw, want_resid, tol = wants[name]
        raw_lo, raw_hi, raw_chi = ev.chi_ci(pair.values_a, pair.values_b, 500, spec)
        resid = ev.residual_pair(pair)
        res_lo, res_hi, res_chi = ev.chi_ci(resid.values_a, resid.values_b, 500, spec)
        assert raw_chi == pytest.approx(want_raw, abs=tol)
        assert res_chi == pytest.approx(want_resid, abs=tol)
        assert raw_lo <= res_hi and res_lo <= raw_hi  # 90% CIs overlap


@pytest.mark.slow
def test_criterion_12_property_suites(pareto_hill_means, frechet_hill_means,
                                      theta_iid_coverage, duplication_thetas,
                                      coverage_test_sizes, bootstrap_coverage,
                                      tcopula_sample, garch_recovery,
                                      garch_truth):
    # tail index consistency on exact heavy-tailed samplers
    for alpha, mean_alpha in pareto_hill_means.items():
        assert abs(mean_alpha - alpha) / alpha < 0.05
    plain, corrected = frechet_hill_means
    assert abs(corrected - 2.0) < abs(plain - 2.0)

    # extremal index: i.i.d. coverage and 1/m duplication law
    assert theta_iid_coverage >= 0.90
    for m, theta in duplication_thetas.items():
        assert theta == pytest.approx(1.0 / m, abs=0.05)

    # UC/CC Monte-Carlo size at nominal level 0.05
    assert coverage_test_sizes["uc"] == pytest.approx(0.05, abs=0.02)
    assert coverage_test_sizes["cc"] == pytest.approx(0.05, abs=0.02)

    # block-bootstrap interval coverage at nominal level 0.90
    assert bootstrap_coverage == pytest.approx(0.90, abs=0.05)

    # tail dependence against the closed-form t-copula value
    x, y, rho, df = tcopula_sample
    assert ev.chi_hat(x, y, 500).chi == pytest.approx(
        ev.t_copula_chi(rho, df), abs=0.05)

    # QMLE parameter recovery within three mean standard errors
    mean_params, mean_ses = garch_recovery
    for got, se, want in zip(mean_params, mean_ses, garch_truth.as_array()):
        assert abs(got - want) < 3 * se
