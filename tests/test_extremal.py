"""Sliding-blocks extremal index estimation and confidence intervals."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.stats import norm

import evtrisk as ev
from evtrisk.errors import DataError, EstimationError
from evtrisk.extremal import _fit_on_ranks, _window_maxima


def test_block_maxima_by_hand():
    np.testing.assert_array_equal(
        ev.block_maxima_sliding([1.0, 2.0, 3.0, 4.0], 2), [3.0, 4.0])
    np.testing.assert_array_equal(
        ev.block_maxima_sliding([5.0, 1.0, 1.0, 1.0, 7.0], 3), [5.0, 7.0])


# b+1 at, below and above powers of two, and b = n-1
@pytest.mark.parametrize("n, b", [(12, 2), (13, 2), (600, 99), (601, 99),
                                  (600, 599), (17, 16), (1200, 254), (1200, 255),
                                  (1200, 256), (1200, 511), (513, 512)])
def test_block_maxima_equal_a_direct_window_max(n, b):
    rng = np.random.default_rng([n, b])
    raw = rng.standard_t(3, n)
    ties = np.round(raw)  # a handful of distinct values
    signed_inf = raw.copy()
    signed_inf[rng.choice(n, 3, replace=False)] = [np.inf, -np.inf, -np.inf]
    all_but_one_neg_inf = np.full(n, -np.inf)
    all_but_one_neg_inf[n // 2] = 1.0
    for x in (raw, ties, signed_inf, -np.abs(ties), all_but_one_neg_inf):
        want = sliding_window_view(x, b + 1).max(axis=1)
        # the doubling kernel is exact on infinities too; the public function
        # refuses them, as every function that takes a sample does
        assert np.array_equal(_window_maxima(x, b + 1), want)
        if np.isfinite(x).all():
            assert np.array_equal(ev.block_maxima_sliding(x, b), want)
        else:
            with pytest.raises(DataError, match="non-finite"):
                ev.block_maxima_sliding(x, b)


def test_window_maxima_of_integer_ranks():
    ranks = np.random.default_rng(4).integers(0, 7, 300)
    for w in (2, 3, 64, 65, 300):
        got = _window_maxima(ranks, w)
        assert got.dtype == ranks.dtype
        np.testing.assert_array_equal(got, sliding_window_view(ranks, w).max(axis=1))


def test_block_size_bounds():
    x = np.arange(10.0)
    with pytest.raises(ValueError):
        ev.block_maxima_sliding(x, 1)
    with pytest.raises(ValueError):
        ev.block_maxima_sliding(x, 10)


def test_iid_theta_near_one():
    x = ev.sim_frechet(1.0, 10_000, 0)
    fit = ev.extremal_index_sliding(x, 100)
    assert fit.theta == 1.0  # clamped
    assert fit.theta_raw > 0.9
    assert fit.pseudo_obs_count == 10_000 - 100


def test_duplicated_series_theta_inverse_m(duplication_thetas):
    for m, theta in duplication_thetas.items():
        assert theta == pytest.approx(1.0 / m, abs=0.05)


@pytest.mark.slow
def test_iid_ci_coverage(theta_iid_coverage):
    assert theta_iid_coverage >= 0.90


def _oracle(x, b):
    """(theta, theta_raw) from the direct window maxima and F_n by searchsorted."""
    maxima = sliding_window_view(x, b + 1).max(axis=1)
    ecdf = np.searchsorted(np.sort(x), maxima, side="right") / len(x)
    theta_raw = 1.0 / float(np.mean(-b * np.log(ecdf)))
    return min(theta_raw, 1.0), theta_raw


@pytest.mark.parametrize("b", [2, 7, 40, 255, 256, 999])
def test_estimate_equals_the_direct_oracle_bit_for_bit(b):
    raw = ev.sim_argarch(ev.ArGarchParams(0.0, 0.1, 0.2, 0.15, 0.8), 3000, b)
    samples = {"raw": raw, "tied": np.round(raw, 1),
               "duplicated": ev.sim_duplicated(
                   lambda c, s: ev.sim_frechet(1.0, c, s), 3, 3000, b)}
    for name, x in samples.items():
        fit = ev.extremal_index_sliding(x, b)
        assert (fit.theta, fit.theta_raw) == _oracle(x, b), name
        assert (fit.pseudo_obs_count, fit.block_size) == (3000 - b, b)


def test_rank_invariance():
    x = ev.sim_argarch(ev.ArGarchParams(0.0, 0.0, 0.2, 0.15, 0.8), 3000, 4)
    a = ev.extremal_index_sliding(x, 50)
    b = ev.extremal_index_sliding(np.exp(x / 10.0), 50)
    assert a.theta == b.theta
    assert a.theta_raw == b.theta_raw


def test_negation_changes_estimate_on_skewed_data():
    # upper-tail construction: the two tails of a skewed series differ
    x = ev.sim_duplicated(lambda c, s: ev.sim_frechet(1.0, c, s), 3, 6000, 8)
    pos = ev.extremal_index_sliding(x, 60).theta
    neg = ev.extremal_index_sliding(-x, 60).theta
    assert pos != neg


def test_pseudo_observations_nonnegative_and_theta_positive():
    for seed in range(5):
        x = ev.sim_argarch(ev.ArGarchParams(0.0, 0.0, 0.2, 0.15, 0.8),
                           2000, seed)
        maxima = ev.block_maxima_sliding(x, 40)
        ecdf = np.searchsorted(np.sort(x), maxima, side="right") / len(x)
        assert np.all(-40 * np.log(ecdf) >= 0)
        fit = ev.extremal_index_sliding(x, 40)
        assert 0 < fit.theta <= 1


def test_constant_series_is_degenerate():
    with pytest.raises(EstimationError):
        ev.extremal_index_sliding(np.ones(100), 10)


def test_likelihood_ci_formula():
    x = ev.sim_frechet(1.0, 5000, 2)
    fit = ev.extremal_index_sliding(x, 100)
    lo, hi = ev.theta_ci(fit, x, level=0.95)
    half = norm.ppf(0.975) / math.sqrt((5000 - 100) / 100)
    assert lo == pytest.approx(fit.theta * math.exp(-half))
    assert hi == pytest.approx(fit.theta * math.exp(half))
    assert lo < fit.theta < hi


def test_bootstrap_ci_brackets_estimate():
    x = ev.sim_duplicated(lambda c, s: ev.sim_frechet(1.0, c, s), 2, 4000, 3)
    fit = ev.extremal_index_sliding(x, 50)
    spec = ev.BootstrapSpec(replicates=99, mean_block=100.0, seed=5, level=0.90)
    lo, hi = ev.theta_ci(fit, x, method="block_bootstrap", boot_spec=spec)
    assert lo <= hi
    assert 0 < lo and hi <= 1.0
    # deterministic given the bootstrap settings
    assert (lo, hi) == ev.theta_ci(fit, x, method="block_bootstrap", boot_spec=spec)


def test_ci_rejects_bad_level_and_method():
    x = ev.sim_frechet(1.0, 1000, 1)
    fit = ev.extremal_index_sliding(x, 20)
    with pytest.raises(ValueError):
        ev.theta_ci(fit, x, level=1.0)
    with pytest.raises(ValueError):
        ev.theta_ci(fit, x, method="wald")


def test_sweep_covers_grid_and_attaches_cis():
    x = ev.sim_frechet(1.0, 3000, 6)
    spec = ev.BootstrapSpec(replicates=49, mean_block=100.0, seed=3)
    for method in ("exp_likelihood", "block_bootstrap"):
        fits = ev.theta_sweep(x, [20, 40, 80], level=0.95, method=method, boot_spec=spec)
        assert [f.block_size for f in fits] == [20, 40, 80]
        for f in fits:
            lo, hi, level = f.ci
            # bootstrap endpoints of i.i.d. data may both sit at the clamp, 1
            assert (lo < hi if method == "exp_likelihood" else lo <= hi <= 1.0)
            assert level == 0.95
            # the sweep ranks x once; each fit and interval is the one made alone
            alone = ev.extremal_index_sliding(x, f.block_size)
            ci = ev.theta_ci(alone, x, level=0.95, method=method, boot_spec=spec)
            assert repr(f) == repr(replace(alone, ci=(*ci, 0.95)))


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_likelihood_ci_equals_the_normal_oracle(level):
    x = ev.sim_frechet(1.0, 5000, 2)
    fit = ev.extremal_index_sliding(x, 100)
    half = norm.ppf(0.5 + level / 2.0) / math.sqrt((5000 - 100) / 100)
    assert ev.theta_ci(fit, x, level=level) == (fit.theta * math.exp(-half),
                                                fit.theta * math.exp(half))


def _theta_or_error(estimate):
    try:
        return estimate()
    except EstimationError as exc:
        return repr(exc)


def _outcome(value):
    if isinstance(value, float):
        return "theta < 1" if value < 1.0 else "theta = 1"
    return "constant" if "constant" in value else "degenerate"


@pytest.mark.parametrize("x, b, mean_block, outcomes", [
    # so tied that some resamples are constant or have every window maximum
    # at the sample maximum: the replicates the bootstrap drops
    (np.array([0.0, 0, 0, 5, 0, 0, 0, 0, 5, 5, 0, 0]), 2, 1.0,
     {"theta = 1", "constant", "degenerate"}),
    (np.round(ev.sim_duplicated(lambda c, s: ev.sim_frechet(1.0, c, s), 3, 300, 2)),
     10, 3.0, {"theta < 1", "theta = 1"}),
])
def test_rank_statistic_equals_the_estimate_on_each_resample(x, b, mean_block, outcomes):
    ranks = np.unique(x, return_inverse=True)[1]
    spec = ev.BootstrapSpec(mean_block=mean_block, seed=1)
    seen = set()
    for r in range(200):
        idx = ev.resample_indices(len(x), spec, r)
        want = _theta_or_error(lambda: ev.extremal_index_sliding(x[idx], b).theta)
        assert _theta_or_error(lambda: _fit_on_ranks(ranks[idx], b).theta) == want
        seen.add(_outcome(want))
    assert seen == outcomes


def test_bootstrap_ci_refuses_non_finite_data():
    x = ev.sim_frechet(1.0, 1000, 1)
    fit = ev.extremal_index_sliding(x, 20)
    x[500] = np.nan
    spec = ev.BootstrapSpec(replicates=9, mean_block=50.0, seed=1)
    with pytest.raises(DataError):
        ev.theta_ci(fit, x, method="block_bootstrap", boot_spec=spec)


def _spiked_uniform():
    """400 uniform draws with 5.0 at every 10th position: each window of 20 or
    more days holds a spike, so its maximum is the sample maximum."""
    x = np.random.default_rng(0).uniform(size=400)
    x[::10] = 5.0
    return x


def test_sweep_skips_a_degenerate_block_size():
    x = _spiked_uniform()
    with pytest.raises(EstimationError):
        ev.extremal_index_sliding(x, 20)
    assert [f.block_size for f in ev.theta_sweep(x, [5, 20, 30])] == [5]


def _formula_or_error(r, b):
    """(theta, theta_raw) of ranks r at block size b, written out over the
    whole cumulative bincount, or the type of the error it raises."""
    n = len(r)
    try:
        if np.ptp(r) == 0:
            raise EstimationError("constant series")
        if not 1 < b < n:
            raise ValueError("block size")
        maxima = sliding_window_view(r, b + 1).max(axis=1)
        y = -b * np.log(np.cumsum(np.bincount(r))[maxima] / n)
        mean_y = float(np.mean(y))
        if mean_y == 0.0:
            raise EstimationError("degenerate")
    except (EstimationError, ValueError) as exc:
        return type(exc)
    theta_raw = 1.0 / mean_y
    return min(theta_raw, 1.0), theta_raw


def _fit_or_error(r, b):
    try:
        fit = _fit_on_ranks(r, b)
    except (EstimationError, ValueError) as exc:
        return type(exc)
    return fit.theta, fit.theta_raw


def test_rank_fit_equals_the_formula_bit_for_bit():
    raw = ev.sim_argarch(ev.ArGarchParams(0.0, 0.1, 0.2, 0.15, 0.8), 300, 11)
    series = {"continuous": raw, "tied": np.round(raw, 0)}
    spec = ev.BootstrapSpec(mean_block=20.0, seed=4)
    samples = []
    for name, x in series.items():
        ranks = np.unique(x, return_inverse=True)[1]
        samples += [(name, ranks[ev.resample_indices(len(x), spec, r)]) for r in range(4)]
        samples.append((f"{name} non-dense", 3 * ranks + 7))
    # a run of 40 lowest values: at b < 40 some window maximum is rank 0
    low_run = np.unique(np.concatenate([raw[:100], np.full(40, -99.0), raw[140:]]),
                        return_inverse=True)[1]
    assert _window_maxima(low_run, 21).min() == 0
    samples.append(("low run", low_run))
    outcomes = set()
    for name, r in samples:
        for b in range(1, len(r)):
            want = _formula_or_error(r, b)
            # int16 is the type the package ranks a series of this length in
            assert _fit_or_error(r, b) == _fit_or_error(r.astype(np.int16), b) == want, (name, b)
            outcomes.add(want if isinstance(want, type) else "fit")
    assert outcomes == {ValueError, EstimationError, "fit"}
