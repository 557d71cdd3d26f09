"""Rank-based tail dependence coefficient and its t-copula oracle."""

import math

import numpy as np
import pytest
from scipy.stats import rankdata, t as student_t

import evtrisk as ev


def test_chi_self_dependence_is_one():
    x = ev.sim_pareto(2.0, 2000, 0)
    for k in (10, 100, 500):
        assert ev.chi_hat(x, x, k).chi == 1.0


def test_chi_bounds_and_symmetry():
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(2, 3000))
    for k in (30, 150, 600):
        fit = ev.chi_hat(x, y, k)
        assert 0.0 <= fit.chi <= 1.0
        assert fit.chi == ev.chi_hat(y, x, k).chi
        assert fit.k == k


def test_chi_invariant_under_monotone_margin_transforms():
    rng = np.random.default_rng(2)
    z = rng.normal(size=2000)
    x = z + rng.normal(size=2000)
    y = z + rng.normal(size=2000)
    base = ev.chi_hat(x, y, 100).chi
    assert ev.chi_hat(np.exp(x), y, 100).chi == base
    assert ev.chi_hat(x, y ** 3, 100).chi == base
    assert ev.chi_hat(np.exp(x), np.arctan(y), 100).chi == base


def test_chi_counts_joint_tail_by_hand():
    # top-2 sets: x -> rows 3,4; y -> rows 2,4; overlap 1 of k=2
    x = np.array([1.0, 2.0, 3.0, 9.0, 8.0])
    y = np.array([1.0, 2.0, 9.0, 3.0, 8.0])
    assert ev.chi_hat(x, y, 2).chi == pytest.approx(0.5)


def _chi_by_midranks(x, y, k):
    n = x.size
    joint = np.sum((rankdata(x, method="average") > n - k)
                   & (rankdata(y, method="average") > n - k))
    return float(min(max(joint / k, 0.0), 1.0))


@pytest.mark.parametrize("n", [50, 777])
def test_chi_equals_a_midrank_oracle(n):
    rng = np.random.default_rng(n)
    z = rng.standard_t(3, n)
    x = z + rng.standard_t(3, n)
    y = z + rng.standard_t(3, n)
    pairs = [(x, y), (np.round(x, 1), np.round(y, 1)),
             (np.round(x), np.round(y)), (x, np.full(n, 2.5)),
             (np.round(x, 1), np.zeros(n))]
    for u, v in pairs:
        for k in sorted({1, 2, n // 10, n // 2, n - 2, n - 1}):
            assert ev.chi_hat(u, v, k).chi == _chi_by_midranks(u, v, k)


def test_chi_k_bounds():
    x = np.arange(10.0)
    with pytest.raises(ValueError):
        ev.chi_hat(x, x, 0)
    with pytest.raises(ValueError):
        ev.chi_hat(x, x, 10)
    with pytest.raises(ValueError):
        ev.chi_hat(x, np.arange(9.0), 2)


def test_independent_margins_have_vanishing_chi():
    vals = []
    for seed in range(20):
        rng = np.random.default_rng([5, seed])
        x, y = rng.normal(size=(2, 10_000))
        vals.append(ev.chi_hat(x, y, 100).chi)
    assert np.mean(vals) < 0.05


def test_t_copula_closed_form_values():
    # perfect dependence and independence limits
    assert ev.t_copula_chi(1.0, 3.0) == pytest.approx(1.0)
    assert ev.t_copula_chi(0.0, 1e9) == pytest.approx(0.0, abs=1e-6)
    # symmetric in the sign convention: chi rises with rho and falls with df
    assert ev.t_copula_chi(0.9, 3.0) > ev.t_copula_chi(0.5, 3.0)
    assert ev.t_copula_chi(0.9, 3.0) > ev.t_copula_chi(0.9, 30.0)


def test_chi_estimate_matches_t_copula_oracle(tcopula_sample):
    x, y, rho, df = tcopula_sample
    oracle = ev.t_copula_chi(rho, df)
    assert oracle == pytest.approx(0.6701799733, abs=1e-9)
    assert ev.chi_hat(x, y, 500).chi == pytest.approx(oracle, abs=0.05)
    assert ev.chi_hat(x, y, 200).chi == pytest.approx(oracle, abs=0.05)


def test_chi_ci_brackets_point_and_is_paired(tcopula_sample):
    x, y, _, _ = tcopula_sample
    spec = ev.BootstrapSpec(replicates=99, mean_block=50.0, seed=3, level=0.90)
    lo, hi, point = ev.chi_ci(x, y, 500, spec)
    assert lo <= point <= hi
    assert (lo, hi, point) == ev.chi_ci(x, y, 500, spec)
    # paired resampling keeps perfect dependence at the upper bound; ties
    # among duplicated resample values can nudge mid-ranks slightly below
    lo_s, hi_s, point_s = ev.chi_ci(x, x, 500, spec)
    assert point_s == 1.0
    assert hi_s == 1.0
    assert lo_s >= 0.99


def test_chi_ci_matches_hand_rolled_replicate_loop(tcopula_sample):
    x, y, _, _ = tcopula_sample
    spec = ev.BootstrapSpec(replicates=59, mean_block=40.0, seed=5, level=0.80)
    values = []
    for r in range(spec.replicates):
        idx = ev.resample_indices(x.size, spec, r)
        values.append(ev.chi_hat(x[idx], y[idx], 300).chi)
    lo, hi = np.quantile(values, [0.1, 0.9], method="weibull")
    assert ev.chi_ci(x, y, 300, spec) == (float(lo), float(hi),
                                          ev.chi_hat(x, y, 300).chi)


def test_chi_trace_spans_grid(tcopula_sample):
    x, y, _, _ = tcopula_sample
    spec = ev.BootstrapSpec(replicates=49, mean_block=50.0, seed=4, level=0.90)
    fits = ev.chi_trace(x, y, [100, 300, 500], boot_spec=spec)
    assert [f.k for f in fits] == [100, 300, 500]
    for f in fits:
        lo, hi, level = f.ci
        assert lo <= f.chi <= hi and level == 0.90


def test_residual_pair_filters_both_margins():
    params = ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894)
    shared = ev.sim_argarch(params, 3000, 6)
    noise = ev.sim_argarch(params, 3000, 7)
    dates = np.datetime64("2000-01-01") + np.arange(3000)
    pair = ev.PairedReturns(dates, shared, 0.7 * shared + 0.3 * noise, "A", "B")
    out = ev.residual_pair(pair)
    assert len(out.values_a) == len(pair.values_a) - 1
    np.testing.assert_array_equal(out.dates, pair.dates[1:])
    assert out.symbol_a == "A" and out.symbol_b == "B"
    # filtering removes volatility clustering from each margin
    band = 3.0 / np.sqrt(len(out.values_a))
    assert np.max(np.abs(ev.acf(out.values_a ** 2, 10))) < band


def test_t_copula_chi_equals_the_student_t_oracle():
    for rho in (-0.9, -0.3, 0.0, 0.25, 0.5, 0.7, 0.9, 0.999):
        for df in (0.5, 1.0, 3.0, 4.0, 10.0, 1e3):
            arg = math.sqrt((df + 1.0) * (1.0 - rho) / (1.0 + rho))
            assert ev.t_copula_chi(rho, df) == float(2.0 * student_t.cdf(-arg, df + 1.0))
