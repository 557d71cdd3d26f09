"""Reference samplers: Pareto, Frechet, AR-GARCH, duplication."""

import numpy as np
import pytest
from scipy import stats

import evtrisk as ev


def test_pareto_matches_inverse_cdf():
    x = ev.sim_pareto(2.0, 100_000, 0)
    assert x.min() >= 1.0
    # exact law: P(X > t) = t^-2
    assert np.median(x) == pytest.approx(2 ** 0.5, rel=0.02)
    assert np.mean(x > 10.0) == pytest.approx(0.01, abs=0.002)
    assert stats.kstest(x, lambda t: 1.0 - t ** -2.0).pvalue > 0.01


def test_frechet_matches_inverse_cdf():
    x = ev.sim_frechet(1.0, 100_000, 0)
    assert np.all(x > 0)
    assert np.median(x) == pytest.approx(1.0 / np.log(2.0), rel=0.02)
    assert stats.kstest(x, lambda t: np.exp(-1.0 / t)).pvalue > 0.01


def test_samplers_are_deterministic_with_prefix_property():
    long = ev.sim_pareto(3.0, 2000, 42)
    short = ev.sim_pareto(3.0, 500, 42)
    np.testing.assert_array_equal(short, long[:500])
    a = ev.sim_argarch(ev.ArGarchParams(0.0, 0.0, 0.1, 0.1, 0.8), 1000, 42)
    b = ev.sim_argarch(ev.ArGarchParams(0.0, 0.0, 0.1, 0.1, 0.8), 1000, 42)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(ev.sim_pareto(2.0, 100, 0),
                              ev.sim_pareto(2.0, 100, 1))


def test_duplication_repeats_each_draw_m_times():
    x = ev.sim_duplicated(lambda c, s: ev.sim_pareto(2.0, c, s), 3, 10, 7)
    assert len(x) == 10
    base = ev.sim_pareto(2.0, 4, 7)
    np.testing.assert_array_equal(x, np.repeat(base, 3)[:10])


@pytest.mark.parametrize("m, n", [(1, 7), (2, 2000), (3, 10), (5, 3), (7, 100)])
def test_duplication_equals_repeat_then_cut(m, n):
    def base(count, seed):
        return ev.sim_frechet(1.0, count, seed)

    want = np.repeat(base(-(-n // m), 4), m)[:n]
    assert ev.sim_duplicated(base, m, n, 4).tobytes() == want.tobytes()


def test_argarch_gaussian_moments():
    params = ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894)
    x = ev.sim_argarch(params, 1_000_000, 5)
    assert np.isfinite(x).all()
    # stationary AR(1)-GARCH variance: (omega/(1-a-b)) / (1-phi^2)
    want_var = params.omega / (1 - params.persistence) / (1 - params.phi ** 2)
    assert x.var() == pytest.approx(want_var, rel=0.05)
    want_mean = params.mu / (1 - params.phi)
    assert x.mean() == pytest.approx(want_mean, abs=0.01)
    # volatility clustering shows in the squared series, not the level acf
    assert ev.acf(x ** 2, 1)[0] > 0.05


def test_argarch_student_t_has_heavier_tails():
    params = ev.ArGarchParams(0.0, 0.0, 0.011, 0.099, 0.894)
    g = ev.sim_argarch(params, 200_000, 9)
    t = ev.sim_argarch(params, 200_000, 9, innovation="student_t", df=5.0)
    # same target variance; the t draw spends more mass far out
    assert np.mean(np.abs(t) > 5 * t.std()) > np.mean(np.abs(g) > 5 * g.std())
    with pytest.raises(ValueError):
        ev.sim_argarch(params, 100, 0, innovation="student_t")  # df required
    with pytest.raises(ValueError):
        ev.sim_argarch(params, 100, 0, innovation="cauchy")


def test_heavy_tail_samplers_scale():
    for alpha in (0.5, 1.0, 3.0):
        x = ev.sim_pareto(alpha, 50_000, 1)
        fit = ev.hill(x, 500)
        assert fit.alpha == pytest.approx(alpha, rel=0.15)


def test_invalid_sampler_args():
    with pytest.raises(ValueError):
        ev.sim_pareto(0.0, 10, 0)
    with pytest.raises(ValueError):
        ev.sim_frechet(-1.0, 10, 0)
    with pytest.raises(ValueError):
        ev.sim_pareto(2.0, 0, 0)


P = ev.ArGarchParams(0.0, 0.0, 0.011, 0.099, 0.894)
SAMPLERS = {
    "argarch": lambda n: ev.sim_argarch(P, n, 0),
    "pareto": lambda n: ev.sim_pareto(2.0, n, 0),
    "frechet": lambda n: ev.sim_frechet(2.0, n, 0),
    "duplicated": lambda n: ev.sim_duplicated(lambda c, s: ev.sim_frechet(2.0, c, s), 2, n, 0),
}


@pytest.mark.parametrize("name", sorted(SAMPLERS))
@pytest.mark.parametrize("n", [True, 2.0])
def test_a_bool_or_float_count_is_refused_not_read_as_a_number(name, n):
    # True would give one draw, 2.0 a TypeError from NumPy
    with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
        SAMPLERS[name](n)


@pytest.mark.parametrize("m", [True, 2.0])
def test_a_bool_or_float_duplication_factor_is_refused(m):
    # True would return the base draws as if m were 1
    with pytest.raises(ValueError, match=f"m must be an integer, got {m!r}"):
        ev.sim_duplicated(lambda c, s: ev.sim_frechet(2.0, c, s), m, 5, 0)
