"""Stationary block bootstrap: resampling scheme and percentile intervals."""

import hashlib

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
    for mean_block in (np.inf, np.nan):
        with pytest.raises(ValueError, match="mean_block must be finite"):
            ev.BootstrapSpec(mean_block=mean_block)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ev.BootstrapSpec(seed=-1)
    for name, value in [("replicates", 2.5), ("replicates", 10.0), ("replicates", True),
                        ("replicates", "10"), ("seed", 1.5), ("seed", np.float64(1.0)),
                        ("seed", False), ("seed", None)]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            ev.BootstrapSpec(**{name: value})
    spec = ev.BootstrapSpec(replicates=np.int64(10), seed=np.uint32(7))
    assert (spec.replicates, spec.seed) == (10, 7)
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
        xs = x[ev.resample_indices(len(x), spec, r)]
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
    reps = [float(np.mean(x[ev.resample_indices(len(x), spec, r)])) for r in range(199)]
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


# sha256 of the int64 index vectors of (seed, r) = (0, 0), (3, 1), (13, 998),
# concatenated, per (n, mean_block); frozen from the modulo-and-repeat
# construction that drew each block whole and cut the result to n
RESAMPLE_HASHES = {
    (2, 1.0): "513b7d57254e507c7631273b9a9075a7381d75e65d118ed65275d19126fc48e5",
    (2, 1.5): "47ebc1df7b8ccc0aaf3506224e6916e847c04466c2dfb986934d19350faac7e3",
    (2, 200.0): "02a646589b206f5660fbfbbc090b83de1c9ec9eea17d5fa7b3cc696f8ec84e5e",
    (2, 1e5): "02a646589b206f5660fbfbbc090b83de1c9ec9eea17d5fa7b3cc696f8ec84e5e",
    (3, 1.0): "d5239faad55253d6d37a3b5c40255a63b38c3b3ba6619f701eecf35a0daebfa2",
    (3, 1.5): "dc785e89dd78868c9e67c990fa811a30d1c1d8e347b1f04e021dbf17b2010459",
    (3, 200.0): "88146204adf73ffee243faa0f3fe613d29ba265db442e910c093db2335eae74f",
    (3, 1e5): "88146204adf73ffee243faa0f3fe613d29ba265db442e910c093db2335eae74f",
    (17, 1.0): "afd2781dd9b48a45c07a8c5b3b992aec16516d0ab7cddc7ce354102bc482d095",
    (17, 1.5): "8fd511c3b03f447a459bf37e084499bb3e1722c84a37a700f17b3b3286f56755",
    (17, 200.0): "24ad7db0c52903ff5d2a0ad186e96314c4474c7b527fbe49dfe257ee53edb934",
    (17, 1e5): "24ad7db0c52903ff5d2a0ad186e96314c4474c7b527fbe49dfe257ee53edb934",
    (15_605, 1.0): "2cbe654491ef0a3df930b843422d2f8fcf96ddd6f4372333886d09f94912d1b9",
    (15_605, 1.5): "7cc78e3092b86d074a5b8c668d282d8296eb5e1d0347216a08c300d5062adc9e",
    (15_605, 200.0): "6791cd44ada4330de65dcb0b75248200987ebf13709eda2fa933d7e43f7e6dad",
    (15_605, 1e5): "4cabfd8b0191d78dea826459b84c0b38a4c71b517824310ec973c18cb3d474fb",
}


def _index_hash(n, mean_block, seed_r):
    h = hashlib.sha256()
    for seed, r in seed_r:
        idx = ev.resample_indices(n, ev.BootstrapSpec(mean_block=mean_block, seed=seed), r)
        assert idx.dtype == np.int64 and idx.shape == (n,)
        h.update(idx.tobytes())
    return h.hexdigest()


def test_resample_indices_match_frozen_hashes():
    for (n, mean_block), want in RESAMPLE_HASHES.items():
        assert _index_hash(n, mean_block, ((0, 0), (3, 1), (13, 998))) == want, (n, mean_block)
    # n = 17, mean block 4, seed 0, r = 7: the block (start 14, length 3)
    # ends exactly at index n-1 and the next one (16, 3) wraps round to 0
    idx = ev.resample_indices(17, ev.BootstrapSpec(mean_block=4.0, seed=0), 7)
    assert [14, 15, 16, 16, 0, 1] in [idx[i:i + 6].tolist() for i in range(12)]
    assert _index_hash(17, 4.0, ((0, 7),)) == (
        "6c853d2714dfde97f5f338237714dddd7e85c68aee6114d85abd133094e96717")
