#!/usr/bin/env python3
"""Rolling quantile forecasts and coverage backtests on a simulated series.

Runs the unconditional harness (refit every 250 days on a 2000-day window)
and a thinned conditional harness (daily GARCH refits are the production
configuration; this demo steps by 20 days to stay fast), then applies the
unconditional (UC), independence (IND), and conditional coverage (CC)
likelihood-ratio tests to the pooled day-ahead exceedances.
"""

import numpy as np

import evtrisk as ev

PARAMS = ev.ArGarchParams(mu=-0.05, phi=0.066, omega=0.011, a=0.099, b_coef=0.894)


def report(label: str, e: ev.ExceedanceSeries) -> None:
    r = ev.cc_test(e)
    print(f"  {label}: {e.n1}/{e.n} exceedances "
          f"(expected {0.01 * e.n:.1f})")
    print(f"    UC  lr = {r.lr_uc:6.3f}  p = {r.p_uc:.3f}")
    print(f"    IND lr = {r.lr_ind:6.3f}  p = {r.p_ind:.3f}")
    print(f"    CC  lr = {r.lr_cc:6.3f}  p = {r.p_cc:.3f}")


def main() -> None:
    x = ev.sim_argarch(PARAMS, 8000, seed=21)

    print("Unconditional rolling forecast (window 2000, step 250, p = 0.99):")
    res = ev.roll_unconditional(x, window=2000, step=250, p=0.99)
    for m in ("hill", "corrected", "empirical"):
        mean250 = res.mean_count(m, 250)
        print(f"  {m:10s} mean exceedances per 250-day window = {mean250:.2f} "
              "(2.5 expected under correct coverage)")

    print("\nCoverage tests on the pooled daily indicator series:")
    for m in ("hill", "corrected", "empirical"):
        report(m, res.daily[m])

    print("\nSliding 250-day placements (empirical method):")
    s = ev.sliding_backtest(res.daily["empirical"], 250)
    print(f"  placements = {s.placements}, mean count = {s.mean_count:.2f}, "
          f"max count = {s.max_count}")
    print(f"  rejection rates at 5%: UC {s.reject_uc:.3f}, "
          f"IND {s.reject_ind:.3f}, CC {s.reject_cc:.3f}")

    print("\nConditional rolling forecast (window 2000, step 20, p = 0.99):")
    cond = ev.roll_conditional(x, window=2000, step=20, p=0.99)
    for m in ("hill", "corrected", "empirical"):
        e = cond.exceedances[m]
        print(f"  {m:10s} exceedance rate over {e.n} forecast days "
              f"= {e.n1 / e.n:.4f} (0.0100 nominal)")
    if cond.refit_failures.size:
        print(f"  refit failures on days {cond.refit_failures.tolist()}")


if __name__ == "__main__":
    main()
