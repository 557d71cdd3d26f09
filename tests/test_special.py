"""The package's `ndtri` and `xlogy` against SciPy's, byte for byte.

evtrisk takes these two functions from `evtrisk._special` rather than from
`scipy.special`, so that no CLI command loads SciPy; the reports keep their
bytes only while the two give SciPy's bits.
"""

import math

import numpy as np
import pytest
from scipy import special

from evtrisk import _special, backtest

EXP_M2 = 0.13533528323661269189  # the edges of Cephes ndtri's branches
EXP_M32 = math.exp(-32.0)


def _ulps_about(y, count=20) -> list:
    """y and the `count` floats on either side of it."""
    out, lo, hi = [y], y, y
    for _ in range(count):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def test_ndtri_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(31)
    edges = [0.0, -0.0, 1.0, 0.5, -1e-300, -1.0, 1.0 + 2e-16, 2.0, np.inf, -np.inf, np.nan,
             5e-324, 1e-300, 1.0 - 1e-16, 1.0 - 2.0 ** -53]
    for y in (EXP_M2, 1.0 - EXP_M2, EXP_M32, 1.0 - EXP_M32, 0.5):
        edges += _ulps_about(y)
    y = np.concatenate([
        edges,
        rng.uniform(0.0, 1.0, 200_000),  # the central branch and both tails
        10.0 ** rng.uniform(-300.0, 0.0, 150_000),  # down to 1e-300
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 150_000),  # 1 - y down to 1e-16
    ])
    assert y.size > 500_000
    got = np.array([_special.ndtri(v) for v in y.tolist()])
    want = special.ndtri(y)
    assert got.tobytes() == want.tobytes()  # the signs of the NaNs too


@pytest.mark.parametrize("x, y", [(0.0, 0.0), (0.0, 0.5), (3.0, 0.0), (0.5, 0.0), (0.0, np.nan),
                                  (2.0, np.nan), (np.nan, 0.5), (np.nan, 0.0), (0.0, -1.0),
                                  (2.0, -1.0), (0.0, 1.0), (7.0, 1.0), (-0.0, 0.25)])
def test_xlogy_matches_scipy_on_the_edge_scalars(x, y):
    with np.errstate(divide="ignore", invalid="ignore"):
        want = special.xlogy(x, y)
    got = _special.xlogy(x, y)
    assert got.shape == () and got.tobytes() == np.float64(want).tobytes()


def test_xlogy_matches_scipy_on_arrays_with_runs_and_nans():
    rng = np.random.default_rng(32)
    y = np.repeat(rng.uniform(0.0, 1.0, 300), rng.integers(1, 40, 300))
    y[rng.integers(0, y.size, 30)] = np.nan
    y[rng.integers(0, y.size, 30)] = 0.0
    x = rng.integers(0, 5, y.size).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = special.xlogy(x, y)
    assert _special.xlogy(x, y).tobytes() == want.tobytes()
    assert _special.xlogy(x.reshape(-1, 1), y[:50]).tobytes() == \
        special.xlogy(x.reshape(-1, 1), y[:50]).tobytes()
    assert _special.xlogy([], []).shape == (0,)


def test_moving_window_ratios_give_scipys_likelihood_ratios(monkeypatch):
    # 200 moving-window arrays: the UC and IND statistics of every window,
    # with the package's xlogy and then with SciPy's in its place
    cases = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        rate = (0.005, 0.01, 0.05, 0.2)[seed % 4]
        ind = (rng.random(3000) < rate).astype(np.int8)
        for length in (20, 250, 1000, 2000):
            cases.append((backtest.ExceedanceSeries(ind, rate), length))
    got = [backtest._window_lrs(e, length) for e, length in cases]
    monkeypatch.setattr(backtest, "xlogy", special.xlogy)
    want = [backtest._window_lrs(e, length) for e, length in cases]
    assert len(got) == 200
    for g, w in zip(got, want):
        assert [a.tobytes() for a in g] == [a.tobytes() for a in w]
