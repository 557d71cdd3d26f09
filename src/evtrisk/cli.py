"""Command-line front end.

Subcommands: tail, theta, decluster, garch, backtest-uncond, backtest-cond,
chi, sim, acf.  Every run writes a JSON report (schema_version field), any
plot-data CSVs, and a run manifest recording the resolved flags, seeds and
SHA-256 checksums of the inputs, so each output is reproducible from its
manifest alone.  Outputs contain no timestamps; identical invocations give
byte-identical files.

Exit codes: 0 success, 1 domain error (single-line diagnostic on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .argarch import ArGarchParams, fit_qmle, forecast_next
from .backtest import (METHODS, method_quantile, roll_conditional, roll_unconditional,
                       sliding_backtest)
from .bootstrap import BootstrapSpec, percentile_ci
from .decluster import rank_gap_decluster, weekday_subsample
from .errors import EvtriskError
from .extremal import theta_sweep
from .ingest import ReturnSeries, acf, align_pairs, load_returns
from .simulate import sim_argarch, sim_duplicated, sim_frechet, sim_pareto
from .taildep import chi_trace, residual_pair
from .tailest import TAIL_ESTIMATORS, tail_index_trace, weissman_quantile

SCHEMA_VERSION = 1


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _dump_json(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _emit(args, report: dict, plots: dict = None, series: dict = None) -> None:
    """Write the JSON report, plot CSVs, the `series` ({output path: ReturnSeries})
    and a run manifest under --out-dir: the one place the CLI writes files."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = args.command.replace("-", "_")

    report = {"schema_version": SCHEMA_VERSION, "command": args.command, **report}
    report_path = out_dir / f"{prefix}_report.json"
    _dump_json(report, report_path)

    outputs = [report_path.name]
    for name, (header, rows) in (plots or {}).items():
        plot_path = out_dir / f"{prefix}_{name}.csv"
        with open(plot_path, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
        outputs.append(plot_path.name)
    for name, r in (series or {}).items():
        series_path = out_dir / name
        series_path.parent.mkdir(parents=True, exist_ok=True)
        r.write_csv(series_path)
        outputs.append(name)

    flags = {k: v for k, v in vars(args).items() if k != "func" and not callable(v)}
    inputs = {}
    for key in ("input", "pair"):
        val = flags.get(key)
        paths = val if isinstance(val, list) else [val] if val else []
        for p in paths:
            inputs[p] = _sha256(p)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "version": __version__,
        "flags": flags,
        "inputs": inputs,
        "outputs": sorted(outputs),
    }
    _dump_json(manifest, out_dir / f"{prefix}_manifest.json")


def _parse_grid(text: str, n: int) -> np.ndarray:
    """Parse an inclusive lo:hi:step integer grid specification whose points
    are all below n, the length of the sample they index."""
    try:
        lo, hi, step = (int(part) for part in text.split(":"))
    except ValueError:
        raise ValueError(f"grid must be lo:hi:step, got {text!r}") from None
    if step < 1 or hi < lo or lo < 1:
        raise ValueError(f"grid must have step >= 1 and hi >= lo >= 1, got {text!r}")
    if hi >= n:
        raise ValueError(f"grid {text!r} must end below the sample length n={n}")
    return np.arange(lo, hi + 1, step)


def _parse_methods(text: str) -> tuple:
    """Comma-separated distinct quantile methods, at least one."""
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
    if not methods or len(set(methods)) < len(methods):
        raise ValueError(f"methods must be one or more distinct names, got {text!r}")
    return methods


def _parse_test_lens(text: str) -> tuple:
    """Comma-separated distinct test span lengths, each of at least 2 days."""
    test_lens = tuple(int(t) for t in text.split(","))
    if min(test_lens) < 2:
        raise ValueError(f"test lengths must be at least 2, got {text!r}")
    if len(set(test_lens)) < len(test_lens):
        raise ValueError(f"test lengths must be distinct, got {text!r}")
    return test_lens


# the two checks below refuse an option before any fit, in the words of the
# library's own checks of the same value
def _check_unit(name: str, value: float) -> None:
    if not 0 < value < 1:
        raise ValueError(f"{name} must be in (0, 1), got {value}")


def _check_k(k: int, n: int) -> None:
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")


def _backtest_options(args) -> tuple:
    """The methods and test lengths of a backtest command, checked with its
    --p and --level before the input is loaded or any window estimated."""
    _check_unit("p", args.p)
    _check_unit("level", args.level)
    return _parse_methods(args.methods), _parse_test_lens(args.test_len)


def _boot_spec(args, level: float) -> BootstrapSpec:
    return BootstrapSpec(replicates=args.boot_reps, mean_block=args.boot_mean_block,
                         seed=args.boot_seed, level=level)


# --- subcommand handlers ---------------------------------------------------

def _cmd_tail(args) -> None:
    r = load_returns(args.input)
    x = r.values
    k_grid = _parse_grid(args.k_grid, len(x)) if args.k_grid else None
    spec = _boot_spec(args, args.ci_level) if args.ci else None
    k = args.k if args.k is not None else args.k_alpha
    if args.p is not None:
        _check_unit("p", args.p)
        _check_k(k, len(x))
    estimate = TAIL_ESTIMATORS[args.method]

    fit = estimate(x, args.k_alpha, args.rho)
    report = {"input": args.input, "n": len(x), "method": args.method,
              "k_alpha": args.k_alpha, "gamma": fit.gamma, "alpha": fit.alpha}
    if args.method == "corrected":
        report["rho"] = args.rho

    if args.ci:
        lo, hi, _ = percentile_ci(
            x, lambda xs: estimate(xs, args.k_alpha, args.rho).alpha, spec)
        report["alpha_ci"] = {"lower": lo, "upper": hi, "level": spec.level}

    if args.p is not None:
        report.update({"p": args.p, "k": k,
                       "quantile": weissman_quantile(x, args.p, k, fit)})

    plots = {}
    if k_grid is not None:
        trace = tail_index_trace(x, k_grid, method=args.method, rho=args.rho)
        rows = [(f.k_alpha, f.alpha, f.gamma) for f in trace]
        plots["trace"] = (["k", "alpha", "gamma"], rows)
    _emit(args, report, plots)


def _cmd_theta(args) -> None:
    if args.block_size is None and not args.block_grid:
        raise ValueError("one of --block-size or --block-grid is required")
    r = load_returns(args.input)
    x = r.values
    grid = _parse_grid(args.block_grid, len(x)) if args.block_grid else [args.block_size]
    _check_unit("level", args.level)
    method = {"lik": "exp_likelihood", "boot": "block_bootstrap"}[args.ci]
    spec = _boot_spec(args, args.level) if args.ci == "boot" else None

    fits = theta_sweep(x, grid, level=args.level, method=method, boot_spec=spec)
    if not fits:
        where = "every grid block size" if args.block_grid else f"block size {args.block_size}"
        raise ValueError(f"extremal index degenerate at {where}")
    plots = {}
    if args.block_grid:
        rows = [(f.block_size, f.theta, f.ci[0], f.ci[1]) for f in fits]
        plots["trace"] = (["b", "theta", "lo", "hi"], rows)
    pick = min(fits, key=lambda f: abs(f.block_size - args.block_size)) \
        if args.block_size else fits[-1]
    report = {"input": args.input, "n": len(x), "theta": pick.theta,
              "theta_raw": pick.theta_raw, "b": pick.block_size,
              "ci": {"lower": pick.ci[0], "upper": pick.ci[1], "level": args.level}}
    _emit(args, report, plots)


def _cmd_decluster(args) -> None:
    r = load_returns(args.input)
    if args.method == "weekday":
        if args.weekday is None:
            raise ValueError("--weekday is required with --method weekday")
        kept = weekday_subsample(r, args.weekday)
    else:
        if args.gap_days is None:
            raise ValueError("--gap-days is required with --method gap")
        kept = rank_gap_decluster(r, args.gap_days)

    retained = "decluster_retained.csv"
    report = {"input": args.input, "method": args.method, "n": len(r),
              "kept": len(kept), "removed": len(r) - len(kept),
              "retained_csv": retained}
    if args.method == "weekday":
        report["weekday"] = args.weekday
    else:
        report["gap_days"] = args.gap_days
    _emit(args, report, series={retained: kept})


def _cmd_garch(args) -> None:
    if args.forecast:
        _check_unit("p", args.p)
    r = load_returns(args.input)
    fitted = fit_qmle(r.values)
    p = fitted.params
    report = {
        "input": args.input, "n": len(r),
        "params": {"mu": p.mu, "phi": p.phi, "omega": p.omega,
                   "a": p.a, "b_coef": p.b_coef},
        "se": fitted.se, "loglik": fitted.loglik, "flags": list(fitted.flags),
    }
    series = {}
    if args.filter_out:
        series[args.filter_out] = ReturnSeries(dates=r.dates[1:], values=fitted.resid,
                                               symbol=r.symbol)
        report["filter_out"] = args.filter_out
    if args.forecast:
        rq = method_quantile(fitted.resid, args.p, args.resid_method)
        fc = forecast_next(fitted, float(r.values[-1]))
        report["forecast"] = {"p": args.p, "resid_method": args.resid_method,
                              "resid_quantile": rq, "mu_next": fc.mu_next,
                              "sigma_next": fc.sigma_next, "quantile": fc.quantile(rq)}
    _emit(args, report, series=series)


def _sliding_tests(exceedances_by_method: dict, test_lens, level: float) -> dict:
    """Sliding-window UC/IND/CC rejection rates per method and test length.

    Test lengths longer than a method's exceedance series are left out.
    """
    tests = {}
    for m, e in exceedances_by_method.items():
        tests[m] = {}
        for L in test_lens:
            if e.n >= L:
                sb = sliding_backtest(e, L, level=level)
                tests[m][str(L)] = {
                    "reject_uc": sb.reject_uc, "reject_ind": sb.reject_ind,
                    "reject_cc": sb.reject_cc, "placements": sb.placements,
                    "mean_count": sb.mean_count, "max_count": sb.max_count}
    return tests


def _cmd_backtest_uncond(args) -> None:
    methods, test_lens = _backtest_options(args)
    r = load_returns(args.input)
    res = roll_unconditional(r, window=args.window, step=args.step, p=args.p,
                             methods=methods, test_lens=test_lens)
    rows = []
    for j, s in enumerate(res.starts):
        for m in methods:
            for L in test_lens:
                c = res.counts[m][L][j]
                rows.append((int(s), m, repr(float(res.forecasts[m][j])), L,
                             "" if np.isnan(c) else int(c)))
    # a test length that no window completes has no mean count
    summary = {"windows": int(res.starts.size), "window": args.window,
               "step": args.step, "p": args.p,
               "mean_counts": {m: {str(L): res.mean_count(m, L) for L in test_lens
                                   if not np.isnan(res.counts[m][L]).all()}
                               for m in methods},
               "tests": _sliding_tests(res.daily, test_lens, args.level)}
    plots = {"windows": (["window_start", "method", "forecast", "test_len", "count"], rows)}
    _emit(args, {"input": args.input, **summary}, plots)


def _cmd_backtest_cond(args) -> None:
    methods, test_lens = _backtest_options(args)
    r = load_returns(args.input)
    res = roll_conditional(r, window=args.window, step=args.step, p=args.p,
                           methods=methods)
    rows = []
    for j, d in enumerate(res.days):
        for m in methods:
            rows.append((int(d), str(r.dates[d]), m, repr(float(res.forecasts[m][j])),
                         int(res.exceedances[m].indicators[j])))
    summary = {"days": int(res.days.size), "window": args.window, "step": args.step,
               "p": args.p, "refit_failures": int(res.refit_failures.size),
               "cold_fits": int(res.cold_days.size),
               "tests": _sliding_tests(res.exceedances, test_lens, args.level)}
    plots = {"days": (["day", "date", "method", "forecast", "exceed"], rows)}
    _emit(args, {"input": args.input, **summary}, plots)


def _cmd_chi(args) -> None:
    path_a, path_b = args.pair
    pair = align_pairs(load_returns(path_a), load_returns(path_b))
    # the residuals lose the first date to the AR lag
    n = len(pair) - 1 if args.residuals else len(pair)
    _check_k(args.k, n)
    k_grid = _parse_grid(args.k_grid, n) if args.k_grid else None
    spec = _boot_spec(args, args.ci_level) if args.ci else None
    if args.residuals:
        pair = residual_pair(pair)
    x, y = pair.values_a, pair.values_b

    report = {"pair": [path_a, path_b], "n": len(pair),
              "residuals": bool(args.residuals)}
    plots = {}
    if k_grid is not None:
        fits = chi_trace(x, y, k_grid, boot_spec=spec)
        rows = [(f.k, f.chi, f.ci[0] if f.ci else "", f.ci[1] if f.ci else "")
                for f in fits]
        plots["trace"] = (["k", "chi", "lo", "hi"], rows)
    fit = chi_trace(x, y, [args.k], boot_spec=spec)[0]
    report.update({"k": args.k, "chi": fit.chi})
    if fit.ci:
        lo, hi, level = fit.ci
        report["chi_ci"] = {"lower": lo, "upper": hi, "level": level}
    _emit(args, report, plots)


def _cmd_sim(args) -> None:
    if args.model == "argarch":
        params = ArGarchParams(args.mu, args.phi, args.omega, args.a, args.b)
        values = sim_argarch(params, args.n, args.seed,
                             innovation=args.innovation, df=args.df)
        model_desc = {"mu": args.mu, "phi": args.phi, "omega": args.omega,
                      "a": args.a, "b_coef": args.b,
                      "innovation": args.innovation, "df": args.df}
    elif args.model == "pareto":
        values = sim_pareto(args.alpha, args.n, args.seed)
        model_desc = {"alpha": args.alpha}
    elif args.model == "frechet":
        values = sim_frechet(args.alpha, args.n, args.seed)
        model_desc = {"alpha": args.alpha}
    else:  # dup
        alpha = args.alpha

        def base(count, seed):
            return sim_frechet(alpha, count, seed)

        values = sim_duplicated(base, args.m, args.n, args.seed)
        model_desc = {"alpha": args.alpha, "m": args.m, "base": "frechet"}

    # synthetic business-day dates so simulated files flow through any subcommand
    dates = np.busday_offset(np.datetime64("2000-01-03"), np.arange(args.n),
                             roll="forward")
    series = ReturnSeries(dates=dates, values=values, symbol=f"sim_{args.model}")
    out_name = args.out if args.out else "sim_series.csv"
    report = {"model": args.model, "n": args.n, "seed": args.seed,
              "params": model_desc, "out": out_name}
    _emit(args, report, series={out_name: series})


def _cmd_acf(args) -> None:
    r = load_returns(args.input)
    # an exact power-of-two scale changes no autocorrelation and keeps x ** 2 finite
    x = np.ldexp(r.values, -np.frexp(np.max(np.abs(r.values)))[1])
    lags = np.arange(1, args.max_lag + 1)
    raw = acf(x, args.max_lag)
    squared = acf(x ** 2, args.max_lag)
    band = 3.0 / np.sqrt(len(x))
    rows = list(zip(lags.tolist(), raw.tolist(), squared.tolist()))
    report = {"input": args.input, "n": len(x), "max_lag": args.max_lag,
              "band": band,
              "max_abs_acf": float(np.max(np.abs(raw))),
              "max_abs_acf_squared": float(np.max(np.abs(squared)))}
    _emit(args, report, {"trace": (["lag", "acf", "acf_squared"], rows)})


# --- parser ----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evtrisk",
        description="Extreme-value tail risk analysis of financial return series.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="directory for reports and plot data")

    inp = argparse.ArgumentParser(add_help=False)
    inp.add_argument("--input", required=True,
                     help="CSV of prices (date + close column) or returns (date,value)")

    boot = argparse.ArgumentParser(add_help=False)
    boot.add_argument("--boot-reps", type=int, default=999)
    boot.add_argument("--boot-mean-block", type=float, default=200.0)
    boot.add_argument("--boot-seed", type=int, default=0)

    # theta takes the level of either CI from its own --level
    ci_level = argparse.ArgumentParser(add_help=False)
    ci_level.add_argument("--ci-level", type=float, default=0.90)

    p = sub.add_parser("tail", parents=[common, inp, boot, ci_level],
                       help="tail index and high quantile estimation")
    p.add_argument("--method", choices=list(TAIL_ESTIMATORS), default="hill")
    p.add_argument("--k-alpha", type=int, required=True,
                   help="number of top order statistics for the index")
    p.add_argument("--rho", type=float, default=-1.0,
                   help="second-order parameter for the bias correction")
    p.add_argument("--p", type=float, help="quantile level to extrapolate")
    p.add_argument("--k", type=int, help="anchor order statistics for the quantile")
    p.add_argument("--k-grid", help="lo:hi:step trace of estimates vs k")
    p.add_argument("--ci", action="store_true", help="attach a block-bootstrap CI")
    p.set_defaults(func=_cmd_tail)

    p = sub.add_parser("theta", parents=[common, inp, boot],
                       help="extremal index (sliding blocks)")
    p.add_argument("--block-size", type=int, help="block size b")
    p.add_argument("--block-grid", help="lo:hi:step sweep of block sizes")
    p.add_argument("--ci", choices=["lik", "boot"], default="lik")
    p.add_argument("--level", type=float, default=0.95,
                   help="level of the lik or boot CI")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("decluster", parents=[common, inp],
                       help="weekday subsampling or rank-ordered gap declustering")
    p.add_argument("--method", choices=["weekday", "gap"], required=True)
    p.add_argument("--weekday", help="Mon..Fri or 0..4")
    p.add_argument("--gap-days", type=int)
    p.set_defaults(func=_cmd_decluster)

    p = sub.add_parser("garch", parents=[common, inp],
                       help="AR(1)-GARCH(1,1) QMLE fit, filtering, forecasting")
    p.add_argument("--filter-out", help="write standardized residuals CSV here")
    p.add_argument("--forecast", action="store_true",
                   help="emit the day-ahead conditional quantile")
    p.add_argument("--p", type=float, default=0.99)
    p.add_argument("--resid-method", choices=list(METHODS), default="empirical")
    p.set_defaults(func=_cmd_garch)

    backtest = argparse.ArgumentParser(add_help=False)
    backtest.add_argument("--window", type=int, default=2000)
    backtest.add_argument("--test-len", default="250,2000",
                          help="comma-separated distinct test span lengths, each >= 2")
    backtest.add_argument("--p", type=float, default=0.99)
    backtest.add_argument("--methods", default=",".join(METHODS))
    backtest.add_argument("--level", type=float, default=0.05,
                          help="test level for rejection fractions")

    p = sub.add_parser("backtest-uncond", parents=[common, inp, backtest],
                       help="rolling unconditional quantile backtest")
    p.add_argument("--step", type=int, default=250)
    p.set_defaults(func=_cmd_backtest_uncond)

    p = sub.add_parser("backtest-cond", parents=[common, inp, backtest],
                       help="daily AR-GARCH conditional quantile backtest")
    p.add_argument("--step", type=int, default=1)
    p.set_defaults(func=_cmd_backtest_cond)

    p = sub.add_parser("chi", parents=[common, boot, ci_level],
                       help="bivariate tail dependence coefficient")
    p.add_argument("--pair", nargs=2, required=True, metavar=("A", "B"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--k-grid", help="lo:hi:step trace of chi vs k")
    p.add_argument("--residuals", action="store_true",
                   help="filter each margin by AR-GARCH first")
    p.add_argument("--ci", action="store_true", help="attach paired bootstrap CIs")
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("sim", parents=[common],
                       help="reference samplers (AR-GARCH, Pareto, Frechet, duplicated)")
    p.add_argument("--model", choices=["argarch", "pareto", "frechet", "dup"],
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--m", type=int, default=2, help="duplication factor for dup")
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--innovation", choices=["gaussian", "student_t"],
                   default="gaussian")
    p.add_argument("--df", type=float)
    p.add_argument("--out", help="output CSV name (under --out-dir)")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("acf", parents=[common, inp],
                       help="autocorrelations of the series and its square")
    p.add_argument("--max-lag", type=int, default=20)
    p.set_defaults(func=_cmd_acf)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (EvtriskError, ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
