"""Hill and bias-corrected Hill tail-index estimation, quantile extrapolation."""

from dataclasses import replace

import numpy as np
import pytest

import evtrisk as ev
from evtrisk.errors import DataError, EstimationError, NegativeGammaError

SAMPLE = np.array([1.0, 2.0, 4.0, 8.0])


def test_hill_small_sample_by_hand():
    # top 2 over the 3rd largest: mean(log 8/2, log 4/2) = 1.5*log 2
    fit = ev.hill(SAMPLE, 2)
    assert fit.gamma == pytest.approx(1.5 * np.log(2.0))
    assert fit.alpha == pytest.approx(1.0 / (1.5 * np.log(2.0)))
    assert fit.k_alpha == 2


def test_hill_ignores_input_order():
    rng = np.random.default_rng(0)
    x = ev.sim_pareto(2.0, 500, 1)
    shuffled = rng.permutation(x)
    assert ev.hill(x, 50).gamma == ev.hill(shuffled, 50).gamma


@pytest.mark.parametrize("seed", range(4))
def test_tail_estimates_do_not_depend_on_the_sample_order(seed):
    # a heavy t(3) sample with k large enough that the sums over the top k
    # would change their last bits with the order np.partition leaves
    rng = np.random.default_rng(seed)
    x = rng.standard_t(3, 5000)

    def estimates(v):
        fit = ev.hill(v, 250)
        return (fit.gamma, ev.hill_corrected(v, 250).gamma,
                ev.weissman_quantile(v, 0.999, 250, fit))

    want = estimates(x)
    for _ in range(5):
        assert estimates(rng.permutation(x)) == want


def test_hill_k_bounds():
    with pytest.raises(ValueError):
        ev.hill(SAMPLE, 0)
    with pytest.raises(ValueError):
        ev.hill(SAMPLE, 4)


def test_hill_needs_positive_threshold():
    with pytest.raises(EstimationError):
        ev.hill(np.array([-1.0, -0.5, 0.0, 1.0]), 3)


def test_scale_equivariance():
    x = ev.sim_pareto(1.5, 2000, 7)
    for c in (0.01, 3.0, 250.0):
        assert ev.hill(c * x, 100).gamma == pytest.approx(
            ev.hill(x, 100).gamma, rel=1e-12)
        assert ev.hill_corrected(c * x, 300).gamma == pytest.approx(
            ev.hill_corrected(x, 300).gamma, rel=1e-12)
        fit = ev.hill(x, 100)
        q = ev.weissman_quantile(x, 0.999, 100, fit)
        qc = ev.weissman_quantile(c * x, 0.999, 100, ev.hill(c * x, 100))
        assert qc == pytest.approx(c * q, rel=1e-12)


def test_corrected_hill_two_algebraic_forms_agree():
    # gamma_c = (M1 - (1-rho)*M2/(2 M1))/rho reduces to M2/M1 - M1 at rho=-1
    x = ev.sim_pareto(2.0, 5000, 3)
    logs = np.log(np.sort(x)[-201:] / np.sort(x)[-201])[1:]
    m1 = logs.mean()
    m2 = (logs ** 2).mean()
    expected = m2 / m1 - m1
    assert ev.hill_corrected(x, 200).gamma == pytest.approx(expected, abs=1e-15)


def test_corrected_hill_requires_negative_rho():
    x = ev.sim_pareto(2.0, 1000, 5)
    with pytest.raises(ValueError):
        ev.hill_corrected(x, 100, rho=0.0)


def test_degenerate_correction_raises_negative_gamma():
    # equal top log-excesses drive the corrected index to zero
    x = np.concatenate([np.ones(10), [2.0, 2.0]])
    with pytest.raises(NegativeGammaError, match="nonpositive index"):
        ev.hill_corrected(x, 2)


@pytest.mark.slow
def test_pareto_consistency(pareto_hill_means):
    for alpha, mean_alpha in pareto_hill_means.items():
        assert abs(mean_alpha - alpha) / alpha < 0.05


@pytest.mark.slow
def test_correction_reduces_frechet_bias(frechet_hill_means):
    plain, corrected = frechet_hill_means
    assert abs(corrected - 2.0) < abs(plain - 2.0)
    assert abs(corrected - 2.0) < 0.05


def test_weissman_pareto_closed_form():
    # anchor X_(n-k)=90 scaled by (k/(n(1-p)))^gamma with gamma pinned to 1
    x = np.arange(1.0, 101.0)
    fit = replace(ev.hill(x, 10), gamma=1.0)
    q = ev.weissman_quantile(x, 0.999, 10, fit)
    assert q == pytest.approx(90.0 * (10 / (100 * 0.001)), rel=1e-12)


def test_weissman_monotone_in_p():
    x = ev.sim_pareto(2.0, 3000, 11)
    fit = ev.hill(x, 150)
    qs = [ev.weissman_quantile(x, p, 150, fit)
          for p in (0.99, 0.995, 0.999, 0.9999)]
    assert np.all(np.diff(qs) > 0)


def test_empirical_quantile_exact_positions():
    x = np.arange(1.0, 101.0)
    assert ev.empirical_quantile(x, 0.99) == 99.0
    assert ev.empirical_quantile(x, 0.5) == 50.0
    assert ev.empirical_quantile(x, 0.001) == 1.0


def test_empirical_quantile_rejects_bad_level():
    with pytest.raises(ValueError):
        ev.empirical_quantile(SAMPLE, 1.0)
    with pytest.raises(ValueError):
        ev.empirical_quantile(SAMPLE, 0.0)


def test_qq_points_and_slope_on_exact_pareto():
    # on exact Pareto quantiles the QQ plot is a line of slope gamma
    u = (np.arange(1, 1001) - 0.5) / 1000
    x = (1 - u) ** -0.5  # alpha = 2
    points = ev.pareto_qq_points(x, 200)
    assert points.shape == (200, 2)
    fit = ev.qq_slope_alpha(points)
    assert fit.alpha == pytest.approx(2.0, rel=0.05)


def test_tail_index_trace_spans_grid():
    x = ev.sim_pareto(2.0, 2000, 13)
    trace = ev.tail_index_trace(x, range(10, 200, 10))
    assert len(trace) == 19
    assert all(f.k_alpha == k for f, k in zip(trace, range(10, 200, 10)))


def test_tail_index_trace_skips_grid_points_where_the_estimator_is_undefined():
    # 20 positive values over negative ones: from k = 20 on, the Hill
    # threshold X_(n-k) is not positive
    x = np.concatenate([ev.sim_pareto(2.0, 20, 13), -np.arange(1.0, 81.0)])
    trace = ev.tail_index_trace(x, range(5, 40, 5))
    assert [f.k_alpha for f in trace] == [5, 10, 15]


@pytest.mark.parametrize("method", ["hill", "corrected", "qq"])
def test_tail_index_trace_equals_one_estimator_call_per_k(method):
    # the trace fits on the top max(k) + 1 values; each fit keeps its bits,
    # and a k the estimator degenerates at (corrected at k = 3) is skipped
    x = ev.sim_frechet(2.0, 5000, 21)
    grid = [3, 25, 100, 400, 250, 1000]
    want = []
    for k in grid:
        try:
            want.append(ev.TAIL_ESTIMATORS[method](x, k, -0.5))
        except EstimationError:
            pass
    assert len(want) >= len(grid) - 1
    assert ev.tail_index_trace(x, grid, method=method, rho=-0.5) == want


def test_tail_index_trace_refuses_a_non_finite_value_below_the_top_k():
    x = np.concatenate([ev.sim_pareto(2.0, 200, 13), [-np.inf]])
    with pytest.raises(DataError, match="non-finite value in tail sample"):
        ev.tail_index_trace(x, [10, 20])


def test_tail_index_trace_names_the_sample_size_for_a_k_outside_it():
    x = ev.sim_pareto(2.0, 200, 13)
    with pytest.raises(ValueError, match="got k=200, n=200"):
        ev.tail_index_trace(x, [10, 200])
    with pytest.raises(ValueError, match="got k=0, n=200"):
        ev.tail_index_trace(x, [0, 10])


def test_weissman_overflow_is_an_estimation_error():
    # three equal top values over a tiny threshold give gamma near 583
    x = np.array([5e-254, 1.0, 1.0, 1.0])
    with pytest.raises(EstimationError, match="overflows"):
        ev.weissman_quantile(x, 0.99, 3, ev.hill(x, 3))


def test_tail_estimators_give_the_fit_of_the_estimator_they_name():
    table = ev.TAIL_ESTIMATORS
    assert set(table) == {"hill", "corrected", "qq"}
    x = ev.sim_pareto(2.0, 2000, 13)
    assert table["hill"](x, 200, -0.5) == ev.hill(x, 200)
    assert table["corrected"](x, 200, -0.5) == ev.hill_corrected(x, 200, rho=-0.5)
    assert table["corrected"](x, 200, -0.5) != ev.hill_corrected(x, 200)
    assert table["qq"](x, 200, -0.5) == ev.qq_slope_alpha(ev.pareto_qq_points(x, 200))
