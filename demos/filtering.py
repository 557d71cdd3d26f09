#!/usr/bin/env python3
"""AR(1)-GARCH(1,1) Gaussian QMLE fitting and residual diagnostics.

Fits the filter to a simulated series with known parameters, compares the
estimates (with sandwich standard errors) to the truth, checks that the
standardized residuals are serially uncorrelated in level and square, and
produces a one-step-ahead conditional quantile forecast: mu_next +
sigma_next * q, with q the 0.99 quantile of the standardized residuals
(`Forecast.quantile`).
"""

import numpy as np

import evtrisk as ev

TRUTH = ev.ArGarchParams(mu=-0.05, phi=0.066, omega=0.011, a=0.099, b_coef=0.894)
N = 15605


def main() -> None:
    x = ev.sim_argarch(TRUTH, N, seed=42)
    fit = ev.fit_qmle(x)
    p = fit.params

    print(f"QMLE fit on n = {N} simulated observations "
          f"(loglik = {fit.loglik:.1f}, flags = {list(fit.flags)})")
    print(f"  {'param':6s} {'truth':>8s} {'estimate':>9s} {'std err':>8s}")
    for name, true_val in [("mu", TRUTH.mu), ("phi", TRUTH.phi),
                           ("omega", TRUTH.omega), ("a", TRUTH.a),
                           ("b_coef", TRUTH.b_coef)]:
        est = getattr(p, name)
        se = fit.se[name]
        print(f"  {name:6s} {true_val:8.4f} {est:9.4f} {se:8.4f}")
    print(f"  persistence a + b_coef = {p.persistence:.4f}")

    # whiteness: all residual autocorrelations inside the 3/sqrt(n) band
    band = 3.0 / np.sqrt(fit.resid.size)
    acf_r = np.abs(ev.acf(fit.resid, 20))
    acf_r2 = np.abs(ev.acf(fit.resid ** 2, 20))
    acf_x2 = np.abs(ev.acf(x ** 2, 20))
    print(f"\nResidual whiteness (band {band:.4f}):")
    print(f"  max |acf(x^2)|      = {acf_x2.max():.4f}  (raw series: clustered)")
    print(f"  max |acf(resid)|    = {acf_r.max():.4f}")
    print(f"  max |acf(resid^2)|  = {acf_r2.max():.4f}")

    q99 = ev.empirical_quantile(fit.resid, 0.99)
    fc = ev.forecast_next(fit, x[-1])
    print("\nOne-step-ahead forecast:")
    print(f"  mu_next = {fc.mu_next:.4f}, sigma_next = {fc.sigma_next:.4f}")
    print(f"  conditional 0.99 quantile = {fc.quantile(q99):.4f}")


if __name__ == "__main__":
    main()
