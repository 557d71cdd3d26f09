#!/usr/bin/env python3
"""Tail-index and high-quantile estimation on a known heavy-tailed sample.

Simulates a Pareto sample with tail index alpha = 3, then shows the three
estimators the package provides: the standard Hill estimator, the
second-order bias-corrected Hill estimator, and the Pareto QQ-plot slope.
Closes with level-0.99 quantiles: Weissman extrapolation under each fit
against the plain empirical quantile.
"""

import numpy as np

import evtrisk as ev

ALPHA_TRUE = 3.0
N = 15605


def main() -> None:
    x = ev.sim_pareto(ALPHA_TRUE, N, seed=1)
    print(f"Pareto sample: n = {N}, true alpha = {ALPHA_TRUE}")

    fit_h = ev.hill(x, 250)
    fit_c = ev.hill_corrected(x, 1000)
    fit_q = ev.qq_slope_alpha(ev.pareto_qq_points(x, 250))
    print(f"  Hill (k = 250):            alpha = {fit_h.alpha:.3f}")
    print(f"  corrected Hill (k = 1000): alpha = {fit_c.alpha:.3f}")
    print(f"  QQ slope (k = 250):        alpha = {fit_q.alpha:.3f}")

    # stability of the Hill estimate across the choice of k
    print("\nHill trace over k:")
    for fit in ev.tail_index_trace(x, [100, 250, 500, 1000, 2000]):
        print(f"  k = {fit.k_alpha:5d}  alpha = {fit.alpha:.3f}")

    print("\nLevel-0.99 quantile:")
    emp = ev.empirical_quantile(x, 0.99)
    print(f"  empirical:              {emp:.3f}")
    for name, fit in [("Hill", fit_h), ("corrected", fit_c)]:
        q = ev.weissman_quantile(x, 0.99, 250, fit)
        print(f"  Weissman under {name:9s} {q:.3f}")
    print(f"  exact Pareto quantile:  {(1 - 0.99) ** (-1 / ALPHA_TRUE):.3f}")


if __name__ == "__main__":
    main()
