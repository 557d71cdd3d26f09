#!/usr/bin/env python3
"""End-to-end tail-risk case study on the vendored S&P 500 snapshot.

Chains the full pipeline on daily negative log-returns: heavy-tail index
and 0.99 quantile estimates, extremal index with block-size sweep,
weekday and gap declustering, AR(1)-GARCH(1,1) QMLE filtering with
residual tail re-estimation, and cross-index tail dependence against
DJIA and FTSE 100.  Needs the snapshot under data/; see data/README.md.

The heavy rolling backtests are left to the CLI:

    evtrisk backtest-uncond --input data/sp500.csv --out-dir out/
    evtrisk backtest-cond   --input data/sp500.csv --out-dir out/
"""

import sys
from pathlib import Path

import numpy as np

import evtrisk as ev

DATA = Path(__file__).resolve().parents[1] / "data"


def load(name: str, symbol: str) -> ev.ReturnSeries:
    return ev.load_returns(DATA / name, symbol=symbol)


def tail_summary(label: str, x: np.ndarray, k_hill: int, k_corr: int) -> None:
    h = ev.hill(x, k_hill)
    c = ev.hill_corrected(x, k_corr)
    q = ev.empirical_quantile(x, 0.99)
    print(f"  {label}: alpha_hill(k={k_hill}) = {h.alpha:.2f}, "
          f"alpha_corr(k={k_corr}) = {c.alpha:.2f}, q_0.99 = {q:.2f}")


def main() -> int:
    if not (DATA / "sp500.csv").exists():
        print("vendored snapshot not found under data/; run "
              "scripts/fetch_data.py on a machine with network access")
        return 1

    sp = load("sp500.csv", "SP500")
    print(f"S&P 500: {len(sp)} daily negative log-returns "
          f"({sp.dates[0]} .. {sp.dates[-1]})")

    print("\nTail of the loss distribution:")
    tail_summary("raw returns", sp.values, 250, 1000)

    print("\nExtremal index (sliding blocks):")
    for fit in ev.theta_sweep(sp.values, [250, 500, 750, 1000]):
        print(f"  b = {fit.block_size:4d}  theta = {fit.theta:.3f}"
              f"  (CI {fit.ci[0]:.3f}, {fit.ci[1]:.3f})")

    print("\nDeclustering:")
    for gap in (2, 9, 19):
        kept = len(ev.rank_gap_decluster(sp, gap))
        print(f"  gap-{gap:2d} declustering keeps {kept} of {len(sp)} days")
    sizes = [len(ev.weekday_subsample(sp, d)) for d in range(5)]
    print(f"  weekday subsample sizes (Mon..Fri): {sizes}")

    print("\nAR(1)-GARCH(1,1) QMLE filter:")
    fit = ev.fit_qmle(sp.values)
    p = fit.params
    print(f"  mu = {p.mu:.3f}, phi = {p.phi:.3f}, omega = {p.omega:.3f}, "
          f"a = {p.a:.3f}, b = {p.b_coef:.3f} "
          f"(persistence {p.persistence:.3f})")
    band = 3.0 / np.sqrt(fit.resid.size)
    print(f"  max |acf(resid)| = {np.abs(ev.acf(fit.resid, 20)).max():.4f}, "
          f"max |acf(resid^2)| = {np.abs(ev.acf(fit.resid ** 2, 20)).max():.4f} "
          f"(band {band:.4f})")
    print("  residual tail:")
    tail_summary("residuals", fit.resid, 250, 1500)
    theta_r = ev.extremal_index_sliding(fit.resid, 500)
    lo, hi = ev.theta_ci(theta_r, fit.resid)
    print(f"  residual theta(b=500) = {theta_r.theta:.3f} (CI {lo:.3f}, {hi:.3f})")

    print("\nCross-index tail dependence (k = 500, 90% CIs):")
    spec = ev.BootstrapSpec(replicates=999, mean_block=200.0, seed=0, level=0.90)
    for name, symbol in [("djia.csv", "DJIA"), ("ftse100.csv", "FTSE100")]:
        if not (DATA / name).exists():
            print(f"  {symbol}: file missing, skipped")
            continue
        pair = ev.align_pairs(sp, load(name, symbol))
        lo, hi, chi = ev.chi_ci(pair.values_a, pair.values_b, 500, spec)
        rp = ev.residual_pair(pair)
        rlo, rhi, rchi = ev.chi_ci(rp.values_a, rp.values_b, 500, spec)
        print(f"  SP500/{symbol} ({len(pair)} common days): "
              f"raw chi = {chi:.2f} ({lo:.2f}, {hi:.2f}), "
              f"residual chi = {rchi:.2f} ({rlo:.2f}, {rhi:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
