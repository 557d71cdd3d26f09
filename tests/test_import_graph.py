"""The import graph and the public names of the package root.

`import evtrisk` loads no `scipy` module at all, and neither does any CLI
command: the AR-GARCH likelihood calls LAPACK's banded solve in the
OpenBLAS that NumPy's wheel ships (`argarch._banded_solve`), and the
normal quantile of theta's likelihood CI and of the backtests' critical
values and the `xlogy` of their likelihood ratios are the package's own
(`evtrisk._special`).  SciPy once made up two thirds of the start-up time
of every CLI call.  `scipy.special` is imported only inside the two
calls that still use it: the p-values of `uc_test`, `ind_test` and
`cc_test` (`chdtrc`), which no command reports, and the `t_copula_chi`
oracle (`stdtr`).  These checks run in a fresh interpreter, because the
test session itself imports SciPy for its oracles.

The root declares no public name itself: it re-exports the `__all__` of
each submodule.  The CLI imports no private name from another module, so
each rule it applies, such as which columns of an input file are read,
lives in the one module that owns it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# each step is a CLI argv, or a Python expression evaluated with evtrisk as ev
SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

import evtrisk as ev
loaded = {"import": scipy_modules()}
from evtrisk.cli import main
for name, step in json.loads(sys.argv[1]):
    if isinstance(step, str):
        eval(step, {"ev": ev})
    else:
        assert main(step) == 0, name
    loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""


def _loaded_after(steps) -> dict:
    """{step name: the scipy modules loaded after it} in one fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(steps)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _sim_argarch(out, name, seed) -> list:
    return ["sim", "--model", "argarch", "--n", "600", "--seed", str(seed),
            "--out", name, "--out-dir", out]


def test_evtrisk_and_every_command_load_no_scipy(tmp_path):
    out = str(tmp_path)
    a, b = out + "/a.csv", out + "/b.csv"
    boot = ["--boot-reps", "20"]
    steps = [
        ("sim", ["sim", "--model", "pareto", "--alpha", "3", "--n", "500",
                 "--out", "pareto.csv", "--out-dir", out]),
        ("tail", ["tail", "--input", out + "/pareto.csv", "--k-alpha", "50", "--p", "0.99",
                  "--k-grid", "10:200:10", "--ci", *boot, "--out-dir", out]),
        ("sim_a", _sim_argarch(out, "a.csv", 3)),
        ("sim_b", _sim_argarch(out, "b.csv", 4)),
        ("decluster", ["decluster", "--input", a, "--method", "gap", "--gap-days", "5",
                       "--out-dir", out]),
        ("acf", ["acf", "--input", a, "--out-dir", out]),
        ("garch", ["garch", "--input", a, "--forecast", "--out-dir", out]),
        ("chi", ["chi", "--pair", a, b, "--k", "30", "--residuals", "--ci", *boot,
                 "--out-dir", out]),
        ("theta_lik", ["theta", "--input", a, "--block-size", "20", "--ci", "lik",
                       "--out-dir", out]),
        ("theta_boot", ["theta", "--input", a, "--block-size", "20", "--ci", "boot", *boot,
                        "--out-dir", out]),
        ("backtest-uncond", ["backtest-uncond", "--input", a, "--window", "300", "--step",
                             "100", "--test-len", "200", "--methods", "empirical",
                             "--out-dir", out]),
        ("backtest-cond", ["backtest-cond", "--input", a, "--window", "300", "--step", "10",
                           "--test-len", "20", "--methods", "empirical", "--out-dir", out]),
    ]
    loaded = _loaded_after(steps)
    assert loaded == dict.fromkeys(["import", *(name for name, _ in steps)], [])


@pytest.mark.parametrize("name, call", [
    ("cc_test", "ev.cc_test(ev.exceedances([1.0, 2.0, 3.0, 0.0], [0.5, 2.5, 2.0, 1.0], 0.1))"),
    ("t_copula_chi", "ev.t_copula_chi(0.5, 4.0)"),
], ids=["cc_test", "t_copula_chi"])
def test_coverage_p_values_and_the_t_copula_oracle_import_scipy_special(name, call):
    loaded = _loaded_after([(name, call)])
    assert loaded["import"] == []
    assert "scipy.special" in loaded[name] and "scipy.linalg" not in loaded[name]


def test_root_exports_exactly_the_submodules_public_names():
    import importlib

    import evtrisk

    modules = ("argarch", "backtest", "bootstrap", "decluster", "errors", "extremal",
               "ingest", "simulate", "taildep", "tailest")
    declared = {"__version__"}
    for name in modules:
        module = importlib.import_module(f"evtrisk.{name}")
        declared.update(module.__all__)
        for public in module.__all__:
            assert getattr(evtrisk, public) is getattr(module, public)
    assert len(evtrisk.__all__) == len(set(evtrisk.__all__))
    assert set(evtrisk.__all__) == declared


PUBLIC_NAMES = [
    "ArGarchParams", "BacktestReport", "BootstrapSpec", "CondRollResult",
    "ConvergenceError", "DataError", "EstimationError", "EvtriskError",
    "ExceedanceSeries", "ExtremalIndexFit", "FilteredSeries", "Forecast", "METHODS",
    "NegativeGammaError", "PairedReturns", "ReturnSeries", "SlidingBacktestSummary",
    "TAIL_ESTIMATORS", "TailDepFit", "TailFit", "UncondRollResult", "WEEKDAY_NAMES",
    "__version__", "acf", "align_pairs", "block_maxima_sliding", "cc_test", "chi_ci",
    "chi_hat", "chi_trace", "empirical_quantile", "exceedances",
    "extremal_index_sliding", "filter_series", "fit_qmle", "forecast_next", "hill",
    "hill_corrected", "ind_test", "load_returns", "method_quantile", "pareto_qq_points",
    "percentile_ci", "qq_slope_alpha", "rank_gap_decluster", "rank_gap_keep_mask",
    "resample_indices", "residual_pair", "roll_conditional", "roll_unconditional",
    "sim_argarch", "sim_duplicated", "sim_frechet", "sim_pareto", "sliding_backtest",
    "t_copula_chi", "tail_index_trace", "theta_ci", "theta_sweep", "uc_test",
    "weekday_subsample", "weissman_quantile",
]


def test_public_names_are_the_pinned_list():
    # a name added to or dropped from the public surface shows in this list
    import evtrisk

    assert sorted(evtrisk.__all__) == PUBLIC_NAMES


def test_result_types_hold_what_their_call_computed():
    # no field repeats an argument of the call that built the result; sweeps
    # keep their grid index, which says which grid points survived
    from dataclasses import fields

    import evtrisk

    want = {
        "TailFit": ["gamma", "k_alpha"],
        "ExtremalIndexFit": ["theta", "block_size", "pseudo_obs_count", "theta_raw", "ci"],
        "TailDepFit": ["chi", "k", "ci"],
        "BacktestReport": ["lr_uc", "lr_ind", "lr_cc", "p_uc", "p_ind", "p_cc"],
        "SlidingBacktestSummary": ["placements", "mean_count", "max_count", "reject_uc",
                                   "reject_ind", "reject_cc"],
        "UncondRollResult": ["starts", "forecasts", "counts", "daily"],
        "CondRollResult": ["days", "forecasts", "exceedances", "refit_failures",
                           "cold_days"],
    }
    got = {name: [f.name for f in fields(getattr(evtrisk, name))] for name in want}
    assert got == want


def test_cli_imports_no_private_name_from_another_module():
    tree = ast.parse((SRC / "evtrisk" / "cli.py").read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("evtrisk"))
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []
