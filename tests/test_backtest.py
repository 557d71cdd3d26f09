"""Coverage tests (UC/IND/CC), sliding aggregation, and rolling forecasts."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

import evtrisk as ev
from evtrisk import argarch, backtest


def _lr_uc_direct(n1, n, p):
    pi = n1 / n
    ll = lambda q: (n - n1) * math.log(1 - q) + n1 * math.log(q)
    return -2.0 * (ll(p) - ll(pi))


def _lr_ind_direct(n00, n01, n10, n11):
    def term(k, q):
        return k * math.log(q) if k else 0.0

    total = n00 + n01 + n10 + n11
    pi = (n01 + n11) / total
    ll0 = term(n01 + n11, pi) + term(n00 + n10, 1 - pi)
    pi01 = n01 / (n00 + n01) if n00 + n01 else 0.0
    pi11 = n11 / (n10 + n11) if n10 + n11 else 0.0
    ll1 = (term(n01, pi01) + term(n00, 1 - pi01)
           + term(n11, pi11) + term(n10, 1 - pi11))
    return 2.0 * (ll1 - ll0)


def test_exceedances_strict_inequality():
    e = ev.exceedances([1.0, 2.0, 3.0], [1.0, 1.5, 3.0], 0.01)
    np.testing.assert_array_equal(e.indicators, [0, 1, 0])
    assert e.n == 3 and e.n1 == 1
    with pytest.raises(ValueError):
        ev.exceedances([1.0, 2.0], [1.0], 0.01)


def test_ind_test_counts_transitions_by_hand():
    # pairs 0->1, 1->1, 1->0, 0->1: n00, n01, n10, n11 = 0, 2, 1, 1
    e = ev.ExceedanceSeries(np.array([0, 1, 1, 0, 1], dtype=np.int8), 0.05)
    assert ev.ind_test(e)[0] == pytest.approx(_lr_ind_direct(0, 2, 1, 1), rel=1e-12)


def test_uc_statistic_closed_form():
    e = ev.ExceedanceSeries(np.r_[np.ones(5), np.zeros(245)].astype(np.int8), 0.01)
    lr, pval = ev.uc_test(e)
    assert lr == pytest.approx(_lr_uc_direct(5, 250, 0.01), rel=1e-12)
    assert lr == pytest.approx(1.9568097882306, abs=1e-9)
    assert pval == pytest.approx(chi2.sf(lr, 1))


def test_uc_zero_iff_exact_rate():
    e = ev.ExceedanceSeries(np.r_[np.ones(10), np.zeros(190)].astype(np.int8), 0.05)
    lr, pval = ev.uc_test(e)
    assert lr == 0.0
    assert pval == 1.0
    off = ev.ExceedanceSeries(np.r_[np.ones(11), np.zeros(189)].astype(np.int8), 0.05)
    assert ev.uc_test(off)[0] > 0.0


def test_ind_statistic_closed_form_on_clustered_series():
    ind = np.zeros(250, dtype=np.int8)
    ind[100:103] = 1
    e = ev.ExceedanceSeries(ind, 0.01)
    lr, pval = ev.ind_test(e)
    assert lr == pytest.approx(_lr_ind_direct(245, 1, 1, 2), rel=1e-12)
    assert lr > 10.0
    assert pval < 0.05  # clustering detected


def test_ind_degenerate_series_scores_zero():
    e = ev.ExceedanceSeries(np.zeros(100, dtype=np.int8), 0.01)
    lr, pval = ev.ind_test(e)
    assert lr == 0.0 and pval == 1.0


def test_cc_is_exact_sum_of_uc_and_ind():
    for seed in range(20):
        ind = (np.random.default_rng(seed).random(500) < 0.05).astype(np.int8)
        e = ev.ExceedanceSeries(ind, 0.05)
        rep = ev.cc_test(e)
        assert abs(rep.lr_cc - (rep.lr_uc + rep.lr_ind)) <= 1e-10
        assert rep.p_cc == pytest.approx(chi2.sf(rep.lr_cc, 2))
        assert 0.0 <= min(rep.p_uc, rep.p_ind, rep.p_cc)
        assert max(rep.p_uc, rep.p_ind, rep.p_cc) <= 1.0


@pytest.mark.slow
def test_uc_cc_monte_carlo_size(coverage_test_sizes):
    assert coverage_test_sizes["uc"] == pytest.approx(0.05, abs=0.02)
    assert coverage_test_sizes["cc"] == pytest.approx(0.05, abs=0.02)


@pytest.mark.slow
def test_ind_monte_carlo_size(coverage_test_sizes):
    # where its chi-square null approximation holds, IND is well sized
    assert coverage_test_sizes["ind_p20"] == pytest.approx(0.05, abs=0.02)
    # at p=0.05 the expected 1->1 cell is ~2.4, so the test over-rejects a bit
    assert coverage_test_sizes["ind_p05"] < 0.12


def test_sliding_backtest_matches_per_window_tests():
    rng = np.random.default_rng(11)
    ind = (rng.random(200) < 0.08).astype(np.int8)
    e = ev.ExceedanceSeries(ind, 0.05)
    summary = ev.sliding_backtest(e, 50, level=0.05)
    assert summary.placements == 151
    counts, rej_uc, rej_ind, rej_cc = [], [], [], []
    for s in range(151):
        w = ev.ExceedanceSeries(ind[s:s + 50], 0.05)
        counts.append(w.n1)
        rep = ev.cc_test(w)
        rej_uc.append(rep.p_uc < 0.05)
        rej_ind.append(rep.p_ind < 0.05)
        rej_cc.append(rep.p_cc < 0.05)
    assert summary.mean_count == pytest.approx(np.mean(counts))
    assert summary.max_count == max(counts)
    assert summary.reject_uc == pytest.approx(np.mean(rej_uc))
    assert summary.reject_ind == pytest.approx(np.mean(rej_ind))
    assert summary.reject_cc == pytest.approx(np.mean(rej_cc))


def test_sliding_backtest_window_bounds():
    e = ev.ExceedanceSeries(np.zeros(10, dtype=np.int8), 0.01)
    with pytest.raises(ValueError):
        ev.sliding_backtest(e, 1)
    with pytest.raises(ValueError):
        ev.sliding_backtest(e, 11)


def test_method_quantile_agreement_on_pareto():
    x = ev.sim_pareto(3.0, 10_000, 12)
    truth = (1 - 0.99) ** (-1.0 / 3.0)
    for method in ("hill", "corrected", "empirical"):
        got = ev.method_quantile(x, 0.99, method)
        assert got == pytest.approx(truth, rel=0.10)
    with pytest.raises(ValueError):
        ev.method_quantile(x, 0.99, "parametric")


def test_roll_unconditional_window_layout():
    x = ev.sim_pareto(3.0, 3000, 13)
    res = ev.roll_unconditional(x, window=1000, step=250, p=0.99,
                                test_lens=(250, 1000))
    np.testing.assert_array_equal(res.starts, np.arange(0, 1751, 250))
    for m in ("hill", "corrected", "empirical"):
        assert np.isfinite(res.forecasts[m]).all()
        c250 = res.counts[m][250]
        assert np.isfinite(c250).all()  # every window has 250 days after it
        c1000 = res.counts[m][1000]
        assert np.isnan(c1000[-3:]).all()  # the last spans run off the end
        assert np.isfinite(c1000[:-3]).all()
        assert res.daily[m].n == res.starts.size * 250


def test_roll_unconditional_counts_match_manual():
    x = ev.sim_pareto(2.0, 2600, 14)
    res = ev.roll_unconditional(x, window=2000, step=250, p=0.99,
                                test_lens=(250,))
    q0 = ev.method_quantile(x[:2000], 0.99, "empirical")
    assert res.forecasts["empirical"][0] == pytest.approx(q0)
    assert res.counts["empirical"][250][0] == np.sum(x[2000:2250] > q0)


def test_roll_unconditional_is_schedule_invariant():
    x = ev.sim_pareto(3.0, 3000, 15)
    full = ev.roll_unconditional(x, window=1000, step=250, p=0.99,
                                 test_lens=(250,))
    solo = ev.roll_unconditional(x, window=1000, step=250, p=0.99,
                                 methods=("corrected",), test_lens=(250,))
    np.testing.assert_array_equal(full.forecasts["corrected"],
                                  solo.forecasts["corrected"])
    np.testing.assert_array_equal(full.counts["corrected"][250],
                                  solo.counts["corrected"][250])


def test_roll_unconditional_iid_exceedance_rate():
    x = ev.sim_pareto(3.0, 8000, 11)
    res = ev.roll_unconditional(x, window=2000, step=250, p=0.99,
                                methods=("hill", "empirical"), test_lens=(250,))
    for m in ("hill", "empirical"):
        assert 1.5 <= res.mean_count(m, 250) <= 3.5  # nominal 2.5


@pytest.mark.slow
def test_roll_conditional_structure_and_determinism():
    truth = ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894)
    x = ev.sim_argarch(truth, 1220, 16)
    res = ev.roll_conditional(x, window=1000, step=10, p=0.99,
                              methods=("empirical",))
    np.testing.assert_array_equal(res.days, np.arange(999, 1219, 10) + 1)
    fc = res.forecasts["empirical"]
    assert np.isfinite(fc).all()
    np.testing.assert_array_equal(res.exceedances["empirical"].indicators,
                                  (x[res.days] > fc).astype(np.int8))
    assert res.refit_failures.size == 0
    again = ev.roll_conditional(x, window=1000, step=10, p=0.99,
                                methods=("empirical",))
    np.testing.assert_array_equal(fc, again.forecasts["empirical"])


def test_roll_conditional_refit_failure_reuses_previous_params(monkeypatch):
    x = ev.sim_argarch(ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894), 303, 21)
    real_fit, real_minimize = backtest.fit_qmle, argarch.minimize
    real_recursion = argarch._Likelihood.recursion
    fits, starts, searches, recursions = [], [], [], []

    def fit_failing_on_day_2(xwin, **kwargs):
        starts.append(kwargs["start"])
        searches.clear()
        recursions.clear()
        if len(fits) == 1:
            fits.append(None)
            raise ev.ConvergenceError("forced failure")
        fits.append(real_fit(xwin, **kwargs))
        return fits[-1]

    def recursion(self, *theta):
        recursions.append(theta)
        return real_recursion(self, *theta)

    def wrapped(*args, **kwargs):
        searches.append(real_minimize(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(backtest, "fit_qmle", fit_failing_on_day_2)
    monkeypatch.setattr(argarch._Likelihood, "recursion", recursion)
    monkeypatch.setattr(argarch, "minimize", wrapped)
    res = ev.roll_conditional(x, window=300, step=1, p=0.99, methods=("empirical",))
    # day 3 starts from day 1's parameters without curvature, and like any
    # warm day pays no loglik evaluation beyond its search: its filter
    # reuses the search's last one
    z, hinv = starts[2]._search_end
    assert z.tobytes() == argarch._pack(fits[0].params).tobytes() and hinv is None
    assert len(searches) == 1 and len(recursions) == searches[0].nfev
    np.testing.assert_array_equal(res.days, [300, 301, 302])
    assert res.refit_failures.tolist() == [301] and res.cold_days.tolist() == [300]
    filtered = ev.filter_series(x[1:301], fits[0].params)  # day 1's params on day 2's window
    base = ev.forecast_next(filtered, x[300])
    rq = ev.method_quantile(filtered.resid, 0.99, "empirical")
    assert res.forecasts["empirical"][1] == base.mu_next + base.sigma_next * rq
    assert len(fits) == 3 and fits[2] is not None  # day 3 refits as usual


def test_roll_conditional_failure_on_first_day_raises(monkeypatch):
    x = ev.sim_argarch(ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894), 303, 21)

    def fit_failing(xwin, **kwargs):
        raise ev.ConvergenceError("forced failure")

    monkeypatch.setattr(backtest, "fit_qmle", fit_failing)
    with pytest.raises(ev.ConvergenceError, match="forced failure"):
        ev.roll_conditional(x, window=300, step=1, p=0.99, methods=("empirical",))


def _spy_on_fits(monkeypatch):
    """Record (window, start, fit) of every fit_qmle call of roll_conditional."""
    real_fit, calls = backtest.fit_qmle, []

    def spy(xwin, **kwargs):
        calls.append((xwin, kwargs.get("start"), real_fit(xwin, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(backtest, "fit_qmle", spy)
    return calls


TRUTH = ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894)


def _warm_days_below_cold(monkeypatch, x, window, checked=None):
    """Target days of a daily roll whose warm fit ends more than 1e-8 below a
    cold fit of the same window, among the fits `checked` (default all).

    The tolerance is the gate of test_fit_matches_frozen_reference: no loss
    of loglik beyond 1e-8.
    """
    calls = _spy_on_fits(monkeypatch)
    res = ev.roll_conditional(x, window=window, step=1, p=0.99, methods=("empirical",))
    monkeypatch.undo()
    assert len(calls) == len(x) - window
    anchors = range(0, len(calls), backtest._COLD_EVERY)
    assert [j for j, (_, start, _) in enumerate(calls) if start is None] == list(anchors)
    assert res.cold_days.tolist() == [res.days[j] for j in anchors]
    below = []
    for j in range(len(calls)) if checked is None else checked:
        xwin, start, fit = calls[j]
        if start is not None and fit.loglik < ev.fit_qmle(xwin, compute_se=False).loglik - 1e-8:
            below.append(int(res.days[j]))
    return below


# the golden backtest_cond roll (tests/golden/sim_argarch_roll/roll.csv)
GOLDEN_ROLL = ev.sim_argarch(TRUTH, 452, 5, innovation="student_t", df=5.0)


def test_roll_conditional_warm_fits_match_cold_fits(monkeypatch):
    # the second case is the golden roll warm from day 320, whose fit ends
    # on the persistence bound: the search of day 322 once stopped on the
    # bound 0.806 below the cold fit, and day 321's just inside it
    x = ev.sim_argarch(TRUTH, 530, 31, innovation="student_t", df=5.0)
    assert _warm_days_below_cold(monkeypatch, x, 500, range(30)) == []
    assert _warm_days_below_cold(monkeypatch, GOLDEN_ROLL[120:323], 200) == []


def test_golden_roll_warm_fits_reach_the_cold_fits(monkeypatch):
    # 27 warm days of this roll once ended below the cold fit; their rows of
    # tests/golden/backtest_cond hold the forecasts of fits that do not
    assert _warm_days_below_cold(monkeypatch, GOLDEN_ROLL, 200) == []


def test_long_window_warm_fits_reach_the_cold_fits(monkeypatch):
    # 25 warm days after a cold anchor on windows of 2,000 days; 13 of them
    # once ended below the cold fit, the worst by 0.068
    x = ev.sim_argarch(TRUTH, 3001, 7, innovation="student_t", df=5.0)[500:2526]
    assert _warm_days_below_cold(monkeypatch, x, 2000) == []


def test_roll_conditional_anchor_forgets_the_days_before_it():
    # the golden roll has 252 fits, so fit 250 is its second anchor: from
    # there on it must forecast what a roll started at that anchor does
    methods = ("hill", "empirical")
    full = ev.roll_conditional(GOLDEN_ROLL, window=200, methods=methods)
    tail = ev.roll_conditional(GOLDEN_ROLL[250:], window=200, methods=methods)
    assert full.days.size == 252 and tail.days.size == 2
    for m in methods:
        assert full.forecasts[m][250:].tobytes() == tail.forecasts[m].tobytes()


def _record_searches(monkeypatch):
    """Record the result of every argarch.minimize call."""
    real_minimize, searches = argarch.minimize, []

    def wrapped(*args, **kwargs):
        searches.append(real_minimize(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(argarch, "minimize", wrapped)
    return searches


def test_warm_fit_starts_where_the_previous_search_ended(monkeypatch):
    x = ev.sim_argarch(TRUTH, 500, 32, innovation="student_t", df=5.0)
    cold = ev.fit_qmle(x, compute_se=False)
    real_minimize, starts = argarch.minimize, []

    def wrapped(fun, z0, *args, **kwargs):
        starts.append((z0, kwargs.get("hinv0")))
        return real_minimize(fun, z0, *args, **kwargs)

    monkeypatch.setattr(argarch, "minimize", wrapped)
    ev.fit_qmle(x[1:], compute_se=False, start=cold)
    z_end, hinv_end = cold._search_end
    assert len(starts) == 1 and starts[0][0] is z_end and starts[0][1] is hinv_end
    # parameters, and a filter_series result, which ran no search, are a
    # third start after the two cold ones, all from the identity
    want = [argarch._pack(p0).tolist() for p0 in argarch._starts(x[1:])]
    want.append(argarch._pack(cold.params).tolist())
    for start in (cold.params, ev.filter_series(x, cold.params)):
        starts.clear()
        ev.fit_qmle(x[1:], compute_se=False, start=start)
        assert [z0.tolist() for z0, _ in starts] == want
        assert all(hinv0 is None for _, hinv0 in starts)


def _fail_search(monkeypatch, k):
    """Make search k (from 0) of argarch.minimize report no convergence."""
    real_minimize, searches = argarch.minimize, []

    def wrapped(*args, **kwargs):
        res = real_minimize(*args, **kwargs)
        res.success = res.success and len(searches) != k
        searches.append(res)
        return res

    monkeypatch.setattr(argarch, "minimize", wrapped)
    return searches


def test_failed_warm_search_falls_back_to_the_cold_fit(monkeypatch):
    x = ev.sim_argarch(ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894), 500, 32,
                       innovation="student_t", df=5.0)
    cold = ev.fit_qmle(x, compute_se=False)
    assert "warm_start_failed" not in cold.flags
    searches = _fail_search(monkeypatch, 0)
    fit = ev.fit_qmle(x, compute_se=False, start=cold)
    assert len(searches) == 1 + len(argarch._starts(x))
    assert fit.params == cold.params and fit.loglik == cold.loglik
    assert fit.flags == cold.flags + ("warm_start_failed",)


def test_warm_search_that_uses_up_its_steps_falls_back_to_the_cold_fit(monkeypatch):
    x = ev.sim_argarch(ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894), 500, 32,
                       innovation="student_t", df=5.0)
    cold = ev.fit_qmle(x, compute_se=False)
    far, full_budget = ev.ArGarchParams(0.0, 0.0, 0.5, 0.3, 0.3), argarch._MAX_STEPS
    carried = replace(cold, _search_end=(argarch._pack(far), None))
    monkeypatch.setattr(argarch, "_MAX_STEPS", 2)
    short = argarch.minimize(argarch._neg_loglik, argarch._pack(far), (argarch._Likelihood(x),))
    assert not short.success and short.nfev >= 3
    # the same budget for the warm search only: the cold starts get the full one
    real_minimize, searches = argarch.minimize, []

    def wrapped(*args, **kwargs):
        monkeypatch.setattr(argarch, "_MAX_STEPS", 2 if not searches else full_budget)
        searches.append(real_minimize(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(argarch, "minimize", wrapped)
    fit = ev.fit_qmle(x, compute_se=False, start=carried)
    assert searches[0].x.tolist() == short.x.tolist() and not searches[0].success
    assert len(searches) == 1 + len(argarch._starts(x))
    assert all(res.success for res in searches[1:])
    assert fit.params == cold.params and fit.loglik == cold.loglik
    assert fit.flags == cold.flags + ("warm_start_failed",)


# (series, start): far parameter starts, whose searches converge below the
# cold fit, and the parameter and filter_series starts of a day-ahead refit
SIM_7, SIM_32 = (ev.sim_argarch(TRUTH, 2000, seed, innovation="student_t", df=5.0)
                 for seed in (7, 32))
SIM_11 = ev.sim_argarch(TRUTH, 2001, 11, innovation="student_t", df=5.0)


def _today_params():
    """The parameters of a cold fit of SIM_11's first 2,000 days."""
    return ev.fit_qmle(SIM_11[:-1], compute_se=False).params


PARAMETER_STARTS = {
    "seed7-tiny-omega": (SIM_7, lambda: ev.ArGarchParams(0.0, 0.0, 1e-300, 0.05, 0.9)),
    "seed32-zero": (SIM_32, lambda: ev.ArGarchParams(0.0, 0.0, 1e-300, 0.0, 0.0)),
    "zero": (SIM_7, lambda: ev.ArGarchParams(0.0, 0.0, 1e-300, 0.0, 0.0)),
    "far-mean": (SIM_7, lambda: ev.ArGarchParams(1e5, 0.0, 1e-300, 0.0, 0.0)),
    "params": (SIM_11[1:], _today_params),
    "filter_series": (SIM_11[1:], lambda: ev.filter_series(SIM_11[:-1], _today_params())),
}


@pytest.mark.parametrize("case", list(PARAMETER_STARTS))
def test_a_parameter_start_is_one_more_cold_start(monkeypatch, case):
    # the search from the first four starts converges 26 to 4e9 loglik
    # units below the cold fit; the fit keeps the best converged search
    x, start = PARAMETER_STARTS[case]
    start = start()
    cold = ev.fit_qmle(x, compute_se=False)
    searches = _record_searches(monkeypatch)
    fit = ev.fit_qmle(x, compute_se=False, start=start)
    assert len(searches) == len(argarch._starts(x)) + 1
    assert fit.loglik >= cold.loglik
    assert fit.loglik == -min(res.fun for res in searches if res.success)
    assert "warm_start_failed" not in fit.flags


def test_no_start_pays_a_loglik_evaluation_for_a_check(monkeypatch):
    x = ev.sim_argarch(TRUTH, 500, 32, innovation="student_t", df=5.0)
    cold = ev.fit_qmle(x, compute_se=False)
    real_recursion, recursions = argarch._Likelihood.recursion, []

    def recursion(self, *theta):
        recursions.append(theta)
        return real_recursion(self, *theta)

    monkeypatch.setattr(argarch._Likelihood, "recursion", recursion)
    searches = _record_searches(monkeypatch)
    # a search carried on from a fit, as the roll's warm days run, pays
    # nothing beyond its own evaluations, whose last one the filter reuses;
    # a parameter start pays one more only where its own search, the last,
    # does not win
    for start, count in ((cold, 1), (cold.params, 3), (ev.filter_series(x, cold.params), 3)):
        recursions.clear()
        searches.clear()
        fit = ev.fit_qmle(x[1:], compute_se=False, start=start)
        assert "warm_start_failed" not in fit.flags and len(searches) == count
        best = min((res for res in searches if res.success), key=lambda res: res.fun)
        refilter = best is not searches[-1]
        assert len(recursions) == sum(res.nfev for res in searches) + refilter


def test_searches_report_every_objective_evaluation(monkeypatch):
    x = ev.sim_argarch(ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894), 500, 32,
                       innovation="student_t", df=5.0)
    cold = ev.fit_qmle(x, compute_se=False)
    real_objective, evals = argarch._neg_loglik, []

    def objective(z, x):
        evals.append(z)
        return real_objective(z, x)

    monkeypatch.setattr(argarch, "_neg_loglik", objective)
    searches = _record_searches(monkeypatch)
    ev.fit_qmle(x, compute_se=False)
    ev.fit_qmle(x[1:], compute_se=False, start=cold.params)
    assert len(searches) == 2 * len(argarch._starts(x)) + 1
    assert all(res.nfev > 1 for res in searches)
    assert sum(res.nfev for res in searches) == len(evals)


@pytest.mark.parametrize("warm", [False, True])
def test_fit_raises_when_no_search_converges(monkeypatch, warm):
    x = ev.sim_argarch(ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894), 500, 32,
                       innovation="student_t", df=5.0)
    start = ev.fit_qmle(x, compute_se=False).params if warm else None
    real_minimize, searches = argarch.minimize, []

    def wrapped(*args, **kwargs):
        res = real_minimize(*args, **kwargs)
        res.success = False
        searches.append(res)
        return res

    monkeypatch.setattr(argarch, "minimize", wrapped)
    with pytest.raises(ev.ConvergenceError,
                       match="^QMLE search failed to converge from any start$"):
        ev.fit_qmle(x, compute_se=False, start=start)
    assert len(searches) == warm + len(argarch._starts(x))


def test_roll_conditional_counts_a_warm_fallback_as_cold(monkeypatch):
    x = ev.sim_argarch(ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894), 303, 21)
    _fail_search(monkeypatch, len(argarch._starts(x)))  # day 2's warm search
    res = ev.roll_conditional(x, window=300, step=1, p=0.99, methods=("empirical",))
    assert res.cold_days.tolist() == [300, 301]
    assert res.refit_failures.size == 0


def test_roll_conditional_fits_cold_every_250th_fit(monkeypatch):
    x = ev.sim_argarch(ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894), 460, 33)
    calls = _spy_on_fits(monkeypatch)
    res = ev.roll_conditional(x, window=200, step=1, p=0.99, methods=("empirical",))
    assert len(calls) == 260
    assert [j for j, (_, start, _) in enumerate(calls) if start is None] == [0, 250]
    fallbacks = [j for j, (_, _, fit) in enumerate(calls)
                 if "warm_start_failed" in fit.flags]
    assert res.cold_days.tolist() == [res.days[j] for j in sorted({0, 250, *fallbacks})]


def test_method_quantile_corrected_falls_back_to_plain_hill():
    # the top 200 log-excesses all equal log(e) - log(1) = 1, so M2 = M1**2
    # and the corrected index is exactly zero
    x = np.r_[np.linspace(0.5, 1.0, 1800), np.full(200, np.e)]
    with pytest.raises(ev.NegativeGammaError):
        ev.hill_corrected(x, backtest.K_ALPHA_CORRECTED)
    fallback = ev.hill(x, backtest.K_ALPHA_CORRECTED)
    want = ev.weissman_quantile(x, 0.99, backtest.K_WEISSMAN, fallback)
    assert ev.method_quantile(x, 0.99, "corrected") == want


@pytest.mark.parametrize("rate", [0.01, 0.05, 0.2])
def test_p_values_equal_the_chi2_oracle(rate):
    for seed in range(10):
        ind = (np.random.default_rng(seed).random(500) < rate).astype(np.int8)
        e = ev.ExceedanceSeries(ind, 0.05)
        lr_uc, p_uc = ev.uc_test(e)
        lr_ind, p_ind = ev.ind_test(e)
        rep = ev.cc_test(e)
        assert p_uc == float(chi2.sf(lr_uc, 1))
        assert p_ind == float(chi2.sf(lr_ind, 1))
        assert (rep.p_uc, rep.p_ind) == (p_uc, p_ind)
        assert rep.p_cc == float(chi2.sf(rep.lr_cc, 2))


@pytest.mark.parametrize("level", [0.01, 0.05, 0.1])
def test_sliding_rejection_rates_equal_the_chi2_oracle(level):
    rng = np.random.default_rng(12)
    ind = (rng.random(400) < 0.08).astype(np.int8)
    e = ev.ExceedanceSeries(ind, 0.05)
    summary = ev.sliding_backtest(e, 60, level=level)
    lr_uc, lr_ind = np.array(
        [(ev.uc_test(w)[0], ev.ind_test(w)[0])
         for w in (ev.ExceedanceSeries(ind[s:s + 60], 0.05) for s in range(341))]).T
    crit1, crit2 = chi2.ppf(1.0 - level, 1), chi2.ppf(1.0 - level, 2)
    assert summary.reject_uc == float(np.mean(lr_uc > crit1))
    assert summary.reject_ind == float(np.mean(lr_ind > crit1))
    assert summary.reject_cc == float(np.mean(lr_uc + lr_ind > crit2))


def test_critical_values_are_the_chi2_quantiles_in_closed_form():
    from scipy.special import gammaincinv

    levels = np.concatenate([np.linspace(0.001, 0.999, 999), [0.01, 0.025, 0.05, 0.1]])
    for level in levels.tolist():
        got = backtest._chi2_critical(level)
        for crit, df in zip(got, (1, 2)):
            want = 2.0 * gammaincinv(df / 2.0, 1.0 - level)
            assert abs(crit - want) <= 3e-14 * want, (level, df)


def test_no_attainable_uc_statistic_lies_between_the_old_and_new_critical_values(monkeypatch):
    # every UC statistic of a window of L = 2..2000 days is rejected at the
    # closed-form df-1 value exactly where it was at SciPy's 2 gammaincinv.
    # SciPy's vectorized xlogy stands in for the package's, whose bits
    # tests/test_special.py shows to be the same, for speed
    from scipy.special import gammaincinv, xlogy

    monkeypatch.setattr(backtest, "xlogy", xlogy)
    lengths = np.arange(2, 2001)
    n1 = np.concatenate([np.arange(n + 1) for n in lengths])
    n = np.repeat(lengths, lengths + 1)
    checked = between = 0
    for p in (0.001, 0.01, 0.025, 0.05):
        lr = backtest._lr_uc(n1, n, p)
        for level in (0.01, 0.05, 0.1):
            old, new = 2.0 * gammaincinv(0.5, 1.0 - level), backtest._chi2_critical(level)[0]
            between += int(np.count_nonzero((lr > min(old, new)) & (lr <= max(old, new))))
            checked += lr.size
    assert checked == 24_035_976 and between == 0


@pytest.mark.parametrize("bad", [0.5, 1.7, -1])
def test_exceedance_series_refuses_values_other_than_0_and_1(bad):
    with pytest.raises(ValueError, match="0/1"):
        ev.ExceedanceSeries([0, bad, 1], 0.05)


@pytest.mark.parametrize("good", [[0, 1, 0], np.array([False, True, False]),
                                  [0.0, 1.0, 0.0]])
def test_exceedance_series_accepts_ints_bools_and_integral_floats(good):
    e = ev.ExceedanceSeries(good, 0.05)
    assert e.indicators.dtype == np.int8
    np.testing.assert_array_equal(e.indicators, [0, 1, 0])
    assert e.n1 == 1


def test_uncond_mean_count_refuses_a_length_no_window_completes():
    x = ev.sim_pareto(3.0, 2300, 5)
    res = ev.roll_unconditional(x, window=1000, step=250, methods=("empirical",),
                                test_lens=(250, 5000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert res.mean_count("empirical", 250) == np.mean(res.counts["empirical"][250])
        with pytest.raises(ValueError, match="5000"):
            res.mean_count("empirical", 5000)


def test_cond_mean_count_is_the_sliding_mean_count():
    ind = (np.random.default_rng(4).uniform(size=300) < 0.05).astype(np.int8)
    res = ev.CondRollResult(days=np.arange(300),
                            forecasts={}, exceedances={"hill": ev.ExceedanceSeries(ind, 0.05)},
                            refit_failures=np.array([], dtype=np.int64),
                            cold_days=np.array([], dtype=np.int64))
    want = np.mean(np.array([ind[s:s + 50].sum() for s in range(251)]))
    assert res.mean_count("hill", 50) == want
    with pytest.raises(ValueError, match="test_len"):
        res.mean_count("hill", 301)
