"""The benchmark's workloads: their sizes, one pass of each, and the check
of a pass's outputs against a frozen reference.

Only the standard library is imported here, because the worker times
``import evtrisk`` itself and must not have loaded NumPy before it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Tolerances of the output check, as a share of the reference value.
# QMLE estimates are only pinned down to the simplex tolerance
# (xatol 1e-6 on the transformed parameters), so anything computed from a
# fit may move by that much under a different optimizer that reaches the
# same optimum.  Everything else is fixed arithmetic on fixed data and
# must repeat to rounding.
FIT_RTOL = 1e-4
EXACT_RTOL = 1e-9
ATOL = 1e-12


@dataclass(frozen=True)
class Size:
    window: int      # cond_roll estimation window
    paths: int       # cond_roll independent paths, one roll_conditional each
    days: int        # cond_roll forecast days per path
    n: int           # univariate series length of boot_ci and cli_screen
    pairs: int       # cli_screen input pairs, one screen each
    n_pair: int      # boot_ci bivariate sample length
    reps: int        # replicates per bootstrap CI


FULL = Size(window=2000, paths=16, days=2, n=15_605, pairs=2, n_pair=7_808, reps=999)
TINY = Size(window=2000, paths=2, days=1, n=3_000, pairs=1, n_pair=1_500, reps=19)


def _close(got, want, rtol: float) -> bool:
    """got matches want within rtol; a NaN matches only a NaN."""
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return abs(got - want) <= rtol * max(abs(got), abs(want)) + ATOL


# --- cond_roll ---------------------------------------------------------------

def run_cond_roll(ev, series, size: Size, seed: int, work: Path) -> dict:
    out = []
    for r in series:
        res = ev.roll_conditional(r, window=size.window, step=1, p=0.99)
        out.append({"days": res.days.tolist(),
                    "forecasts": {m: v.tolist() for m, v in res.forecasts.items()},
                    "refit_failures": res.refit_failures.tolist()})
    return {"paths": out}


def check_cond_roll(out: dict, ref: dict) -> list:
    """One operation per forecast day; a refit failure fails its day."""
    bad = []
    for i, (got, want) in enumerate(zip(out["paths"], ref["paths"], strict=True)):
        failures = set(got["refit_failures"])
        for j, day in enumerate(want["days"]):
            ok = day not in failures and got["days"][j] == day and all(
                _close(got["forecasts"][m][j], values[j], FIT_RTOL)
                for m, values in want["forecasts"].items())
            if not ok:
                bad.append(f"path {i} day {day}")
    return bad


# --- boot_ci -----------------------------------------------------------------

BOOT_CALLS = ("theta", "chi", "alpha")


def run_boot_ci(ev, series, size: Size, seed: int, work: Path) -> dict:
    spec = ev.BootstrapSpec(replicates=size.reps, mean_block=200.0, seed=seed,
                            level=0.90)
    x = series[0].values
    fit = ev.extremal_index_sliding(x, 500)
    lo, hi = ev.theta_ci(fit, x, level=0.90, method="block_bootstrap",
                         boot_spec=spec)
    out = {"theta": [lo, hi, fit.theta]}
    out["chi"] = list(ev.chi_ci(series[1].values, series[2].values, 500, spec))
    out["alpha"] = list(ev.percentile_ci(x, lambda xs: ev.hill(xs, 250).alpha,
                                         spec))
    return out


def check_boot_ci(out: dict, ref: dict) -> list:
    """One operation per CI call: (lower, upper, point) must all match."""
    return [name for name in BOOT_CALLS
            if not all(_close(g, w, EXACT_RTOL) for g, w in zip(out[name], ref[name]))]


# --- cli_screen --------------------------------------------------------------

def cli_commands(a: str, b: str) -> list:
    """(name, argv, rtol) of the case-study screen, without bootstrap CIs."""
    return [
        ("tail_hill", ["tail", "--input", a, "--method", "hill", "--k-alpha", "250",
                       "--p", "0.99", "--k", "250", "--k-grid", "25:2000:5"], EXACT_RTOL),
        ("tail_corrected", ["tail", "--input", a, "--method", "corrected",
                            "--k-alpha", "250", "--p", "0.99", "--k", "250"], EXACT_RTOL),
        ("theta", ["theta", "--input", a, "--block-grid", "100:1000:100",
                   "--block-size", "500"], EXACT_RTOL),
        ("decluster_gap", ["decluster", "--input", a, "--method", "gap",
                           "--gap-days", "9"], EXACT_RTOL),
        ("decluster_weekday", ["decluster", "--input", a, "--method", "weekday",
                               "--weekday", "wed"], EXACT_RTOL),
        ("garch", ["garch", "--input", a, "--filter-out", "resid.csv", "--forecast"],
         FIT_RTOL),
        ("backtest_uncond", ["backtest-uncond", "--input", a], EXACT_RTOL),
        ("chi", ["chi", "--pair", a, b, "--k", "500", "--residuals",
                 "--k-grid", "100:1000:50"], FIT_RTOL),
        ("acf", ["acf", "--input", a, "--max-lag", "20"], EXACT_RTOL),
    ]


def _numeric_fields(obj, prefix: str = "") -> dict:
    """Flatten the numbers of a JSON report to {dotted.path: value}."""
    if isinstance(obj, dict):
        out = {}
        for key, val in obj.items():
            out.update(_numeric_fields(val, f"{prefix}{key}."))
        return out
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return {prefix[:-1]: obj}
    return {}


def run_cli_screen(ev, series, size: Size, seed: int, work: Path) -> dict:
    from evtrisk.cli import main

    out = {}
    for p in range(size.pairs):
        a, b = (str(work / f"{side}{p}.csv") for side in "ab")
        for i, (name, argv, _) in enumerate(cli_commands(a, b)):
            out_dir = work / f"cli{p}-{i}"
            code = main(argv + ["--out-dir", str(out_dir)])
            report = {}
            if code == 0:
                path = out_dir / f"{argv[0].replace('-', '_')}_report.json"
                report = _numeric_fields(json.loads(path.read_text()))
            out[f"{p}:{name}"] = {"code": code, "report": report}
    return out


def check_cli_screen(out: dict, ref: dict) -> list:
    """One operation per command: exit 0 and every reference field matching."""
    rtols = {name: rtol for name, _, rtol in cli_commands("a", "b")}
    bad = []
    for key, want in ref.items():
        got = out[key]
        rtol = rtols[key.split(":", 1)[1]]
        if got["code"] != 0 or not all(
                _close(got["report"].get(k), v, rtol) for k, v in want["report"].items()):
            bad.append(key)
    return bad


@dataclass(frozen=True)
class Workload:
    """A workload; every size-dependent field is a function of a Size."""

    name: str
    run: Callable             # run(ev, series, size, seed, work) -> outputs
    check: Callable           # check(outputs, reference) -> failed operation ids
    files: Callable           # input CSVs, in the order run() receives them
    operations: Callable      # operations per pass
    fits: Callable            # full QMLE fits per pass, the base of nfev_per_fit
    expected_calls: Callable  # call counts of a pass, asserted by the tracer


N_COMMANDS = len(cli_commands("a", "b"))

WORKLOADS = {w.name: w for w in (
    Workload(
        "cond_roll", run_cond_roll, check_cond_roll,
        files=lambda s: [f"roll{j}.csv" for j in range(s.paths)],
        operations=lambda s: s.paths * s.days,
        fits=lambda s: s.paths * s.days,
        expected_calls=lambda s: {
            "argarch.fit_qmle": s.paths * s.days,
            "argarch.forecast_next": s.paths * s.days,
            "backtest.method_quantile": 3 * s.paths * s.days,
            "backtest.roll_conditional": s.paths,
            "ingest.load_returns": s.paths}),
    Workload(
        "boot_ci", run_boot_ci, check_boot_ci,
        files=lambda s: ["series.csv", "pair_a.csv", "pair_b.csv"],
        operations=lambda s: len(BOOT_CALLS),
        fits=lambda s: 0,
        expected_calls=lambda s: {
            "bootstrap.resample_indices": 3 * s.reps,
            "taildep.chi_hat": s.reps + 1,
            "bootstrap.percentile_ci": 2,
            "tailest.hill": s.reps + 1,
            "ingest.load_returns": 3}),
    Workload(
        "cli_screen", run_cli_screen, check_cli_screen,
        files=lambda s: [f"{side}{p}.csv" for p in range(s.pairs) for side in "ab"],
        operations=lambda s: s.pairs * N_COMMANDS,
        fits=lambda s: 3 * s.pairs,
        expected_calls=lambda s: {
            "cli.main": s.pairs * N_COMMANDS,
            "argarch.fit_qmle": 3 * s.pairs,
            "taildep.residual_pair": s.pairs,
            "decluster.rank_gap_keep_mask": s.pairs,
            "decluster.weekday_subsample": s.pairs,
            # two loads per pair in setup, then one per command and a second for chi
            "ingest.load_returns": s.pairs * (2 + N_COMMANDS + 1)}),
)}
