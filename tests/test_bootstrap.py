"""Stationary block bootstrap: resampling scheme and percentile intervals."""

import numpy as np
import pytest

import evtrisk as ev
from evtrisk.errors import EstimationError


def test_spec_validation():
    with pytest.raises(ValueError):
        ev.BootstrapSpec(replicates=0)
    with pytest.raises(ValueError):
        ev.BootstrapSpec(mean_block=0.5)
    with pytest.raises(ValueError):
        ev.BootstrapSpec(level=1.0)
    spec = ev.BootstrapSpec()
    assert spec.replicates == 999
    assert spec.mean_block == 200.0
    assert spec.level == 0.90


def test_replicates_are_counter_addressed():
    spec = ev.BootstrapSpec(replicates=10, mean_block=5.0, seed=1)
    # replicate r depends only on (seed, r), not on what ran before it
    idx_7 = ev.resample_indices(100, spec, 7)
    for r in range(5):
        ev.resample_indices(100, spec, r)
    np.testing.assert_array_equal(ev.resample_indices(100, spec, 7), idx_7)
    assert not np.array_equal(idx_7, ev.resample_indices(100, spec, 8))


def test_resample_shape_and_membership():
    x = np.arange(50.0) + 100.0
    spec = ev.BootstrapSpec(replicates=5, mean_block=4.0, seed=2)
    for r in range(5):
        xs = ev.resample(x, spec, r)
        assert xs.shape == x.shape
        assert np.isin(xs, x).all()


def test_blocks_are_mostly_consecutive_with_wraparound():
    n, mean_block = 1000, 50.0
    spec = ev.BootstrapSpec(replicates=1, mean_block=mean_block, seed=3)
    idx = ev.resample_indices(n, spec, 0)
    consecutive = np.mean(idx[1:] == (idx[:-1] + 1) % n)
    # a new block starts with probability 1/mean_block at each step
    assert consecutive > 1.0 - 2.0 / mean_block
    assert consecutive < 1.0


def test_percentile_ci_brackets_replicate_median():
    x = ev.sim_pareto(3.0, 500, 4)
    spec = ev.BootstrapSpec(replicates=199, mean_block=10.0, seed=5, level=0.90)
    lo, hi, point = ev.percentile_ci(x, lambda xs: float(np.mean(xs)), spec)
    reps = [float(np.mean(ev.resample(x, spec, r))) for r in range(199)]
    assert lo <= np.median(reps) <= hi
    assert point == pytest.approx(np.mean(x))
    assert lo < hi


def test_percentile_ci_is_reproducible():
    x = ev.sim_pareto(2.0, 300, 6)
    spec = ev.BootstrapSpec(replicates=99, mean_block=8.0, seed=7, level=0.95)
    stat = lambda xs: ev.hill(xs, 30).gamma
    assert ev.percentile_ci(x, stat, spec) == ev.percentile_ci(x, stat, spec)


@pytest.mark.slow
def test_hill_ci_coverage_near_nominal(bootstrap_coverage):
    assert bootstrap_coverage == pytest.approx(0.90, abs=0.05)


def test_failure_budget_tolerates_rare_failures():
    x = np.arange(200.0)
    spec = ev.BootstrapSpec(replicates=199, mean_block=5.0, seed=8, level=0.90)

    def fragile_mean(xs):
        if xs[0] == 57.0:  # resample starts are uniform: ~1/n of replicates
            raise ValueError("unlucky resample")
        return float(np.mean(xs))

    lo, hi, _ = ev.percentile_ci(x, fragile_mean, spec)
    assert lo < hi


def test_failure_budget_aborts_at_twenty_percent():
    x = np.arange(100.0)
    spec = ev.BootstrapSpec(replicates=50, mean_block=5.0, seed=9, level=0.90)

    def fails_on_resamples(xs):
        if np.array_equal(xs, x):  # the point estimate itself succeeds
            return float(np.mean(xs))
        raise ValueError("no statistic here")

    with pytest.raises(EstimationError):
        ev.percentile_ci(x, fails_on_resamples, spec)


def test_ci_endpoints_match_frozen_reference():
    # frozen from the sliding_window_view maxima and rankdata mid-ranks;
    # the O(n) kernels must reproduce every endpoint bit for bit
    params = ev.ArGarchParams(0.0, 0.0, 0.2, 0.15, 0.8)
    spec = ev.BootstrapSpec(replicates=199, mean_block=100.0, seed=1, level=0.90)
    x = ev.sim_argarch(params, 3000, 7)
    theta_frozen = {
        "raw": (0.4159147120688533, 0.8769655415742513),
        "rounded": (0.4295527450823575, 0.9179712844489368),
    }
    for name, s in (("raw", x), ("rounded", np.round(x, 1))):
        fit = ev.extremal_index_sliding(s, 100)
        assert ev.theta_ci(fit, s, level=0.90, method="block_bootstrap",
                           boot_spec=spec) == theta_frozen[name]
    a = ev.sim_argarch(params, 3000, 8)
    b = a + ev.sim_argarch(params, 3000, 9)
    assert ev.chi_ci(a, b, 100, spec) == (0.34, 0.49, 0.41)
    assert ev.chi_ci(np.round(a, 1), np.round(b, 1), 100, spec) == (0.33, 0.49, 0.41)
