"""Shared fixtures: vendored-data gates and session-scoped Monte-Carlo studies.

Expensive simulation studies run once per session; module tests and the
acceptance suite assert against the same cached results.  Every fixture that
needs the vendored price snapshot skips cleanly when data/ is absent, so the
simulation-only part of the suite is self-contained.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import evtrisk as ev

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
DATA_SKIP = ("vendored price snapshot not present under data/; "
             "run scripts/fetch_data.py on a machine with network access")

GARCH_TRUTH = ev.ArGarchParams(mu=-0.05, phi=0.066, omega=0.011,
                               a=0.099, b_coef=0.894)


def _load_returns(name: str, symbol: str) -> ev.ReturnSeries:
    path = DATA_DIR / name
    if not path.exists():
        pytest.skip(DATA_SKIP)
    return ev.load_returns(path, symbol=symbol)


@pytest.fixture(scope="session")
def garch_truth() -> ev.ArGarchParams:
    """Reference AR(1)-GARCH(1,1) parameter set used across simulations."""
    return GARCH_TRUTH


@pytest.fixture(scope="session")
def sp500_returns() -> ev.ReturnSeries:
    return _load_returns("sp500.csv", "SP500")


@pytest.fixture(scope="session")
def djia_returns() -> ev.ReturnSeries:
    return _load_returns("djia.csv", "DJIA")


@pytest.fixture(scope="session")
def ftse_returns() -> ev.ReturnSeries:
    return _load_returns("ftse100.csv", "FTSE100")


@pytest.fixture(scope="session")
def sp500_fit(sp500_returns):
    """Full-sample QMLE fit of the S&P 500 returns, with wall time."""
    t0 = time.perf_counter()
    fit = ev.fit_qmle(sp500_returns.values)
    return fit, time.perf_counter() - t0


@pytest.fixture(scope="session")
def uncond_roll(sp500_returns):
    """Rolling unconditional quantile forecasts on the S&P 500 sample."""
    return ev.roll_unconditional(sp500_returns.values, window=2000, step=250,
                                 p=0.99, test_lens=(250, 2000))


@pytest.fixture(scope="session")
def cond_roll(sp500_returns):
    """Daily-refit conditional quantile forecasts on the S&P 500 sample."""
    t0 = time.perf_counter()
    res = ev.roll_conditional(sp500_returns.values, window=2000, step=1, p=0.99)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="session")
def pareto_hill_means():
    """Mean Hill alpha over 200 Pareto(alpha) samples, n=10000, k=200."""
    out = {}
    for alpha in (1.0, 2.0, 3.0):
        vals = [ev.hill(ev.sim_pareto(alpha, 10_000, seed), 200).alpha
                for seed in range(200)]
        out[alpha] = float(np.mean(vals))
    return out


@pytest.fixture(scope="session")
def frechet_hill_means():
    """Mean plain and corrected Hill alpha on Frechet(2) at a deep k."""
    plain, corrected = [], []
    for seed in range(200):
        x = ev.sim_frechet(2.0, 10_000, seed)
        plain.append(ev.hill(x, 1000).alpha)
        corrected.append(ev.hill_corrected(x, 1000).alpha)
    return float(np.mean(plain)), float(np.mean(corrected))


@pytest.fixture(scope="session")
def theta_iid_coverage():
    """Fraction of 95% likelihood CIs covering theta=1 on i.i.d. samples."""
    covered = 0
    for seed in range(200):
        x = ev.sim_frechet(1.0, 10_000, seed)
        fit = ev.extremal_index_sliding(x, 100)
        lo, hi = ev.theta_ci(fit, x, level=0.95)
        covered += lo <= 1.0 <= hi
    return covered / 200


@pytest.fixture(scope="session")
def duplication_thetas():
    """Extremal index estimates on m-fold duplicated i.i.d. samples."""
    out = {}
    for m in (2, 5):
        x = ev.sim_duplicated(lambda c, s: ev.sim_frechet(1.0, c, s),
                              m, 20_000, 42)
        out[m] = ev.extremal_index_sliding(x, 100).theta
    return out


@pytest.fixture(scope="session")
def coverage_test_sizes():
    """Monte-Carlo rejection rates of UC/IND/CC at level 0.05 under the null.

    Indicators are i.i.d. Bernoulli(p), n=1000, 2000 seeds.  The IND test is
    also sized at p=0.2 where the chi-square approximation of its null is
    accurate (at p=0.05 the expected 1->1 transition count is below 3).
    """
    rej = {"uc": 0, "ind_p05": 0, "cc": 0, "ind_p20": 0}
    for seed in range(2000):
        rng = np.random.default_rng([7, seed])
        e = ev.ExceedanceSeries((rng.random(1000) < 0.05).astype(np.int8), 0.05)
        rej["uc"] += ev.uc_test(e)[1] < 0.05
        rej["ind_p05"] += ev.ind_test(e)[1] < 0.05
        rej["cc"] += ev.cc_test(e).p_cc < 0.05
        e2 = ev.ExceedanceSeries((rng.random(1000) < 0.2).astype(np.int8), 0.2)
        rej["ind_p20"] += ev.ind_test(e2)[1] < 0.05
    return {k: v / 2000 for k, v in rej.items()}


@pytest.fixture(scope="session")
def bootstrap_coverage():
    """Coverage of the 90% block-bootstrap CI for the Hill gamma.

    Pareto(3) samples have gamma = 1/3 exactly; 200 outer replications.
    """
    spec = ev.BootstrapSpec(replicates=199, mean_block=20.0, seed=123, level=0.90)
    covered = 0
    for seed in range(200):
        x = ev.sim_pareto(3.0, 10_000, 1000 + seed)
        lo, hi, _ = ev.percentile_ci(x, lambda xs: ev.hill(xs, 200).gamma, spec)
        covered += lo <= 1.0 / 3.0 <= hi
    return covered / 200


@pytest.fixture(scope="session")
def tcopula_sample():
    """One large bivariate Student-t sample with rho=0.9, df=3."""
    rng = np.random.default_rng(99)
    n = 20_000
    rho, df = 0.9, 3.0
    chol = np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]]))
    z = chol @ rng.standard_normal((2, n))
    w = rng.chisquare(df, n)
    t = z * np.sqrt(df / w)
    return t[0], t[1], rho, df


@pytest.fixture(scope="session")
def garch_recovery(garch_truth):
    """QMLE parameter means and sandwich-SE means over 50 long simulations."""
    params, ses = [], []
    for seed in range(50):
        x = ev.sim_argarch(garch_truth, 15_605, 20_000 + seed)
        fit = ev.fit_qmle(x)
        params.append(fit.params.as_array())
        ses.append([fit.se[name] for name in ("mu", "phi", "omega", "a", "b_coef")])
    return np.mean(params, axis=0), np.mean(ses, axis=0)


@pytest.fixture(scope="session")
def declustering_theta_study(garch_truth):
    """Mean extremal index over 100 simulated samples, per declustering arm.

    Arms: raw series (b=500), 1-in-5 thinning (b=100), rank-gap declustering
    with gaps 2 (b=250) and 9 (b=150).  Sample length matches the daily
    equity series the reference parameters were fitted on.
    """
    t0 = time.perf_counter()
    sums = {"raw": 0.0, "thin": 0.0, "gap2": 0.0, "gap9": 0.0}
    for seed in range(100):
        x = ev.sim_argarch(garch_truth, 15_605, seed)
        sums["raw"] += ev.extremal_index_sliding(x, 500).theta
        sums["thin"] += ev.extremal_index_sliding(x[::5], 100).theta
        sums["gap2"] += ev.extremal_index_sliding(
            x[ev.rank_gap_keep_mask(x, 2)], 250).theta
        sums["gap9"] += ev.extremal_index_sliding(
            x[ev.rank_gap_keep_mask(x, 9)], 150).theta
    means = {arm: s / 100 for arm, s in sums.items()}
    return means, time.perf_counter() - t0
