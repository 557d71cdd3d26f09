"""The import graph and the public names of the package root.

evtrisk loads none of scipy.stats, scipy.signal and scipy.optimize.  The
first two once cost about half of `import evtrisk`, which every CLI call
pays, and nothing in evtrisk needs them; the QMLE fit runs its own search,
so a fitting command loads no scipy.optimize either.  That check runs in a
fresh interpreter, because the test session itself imports scipy.stats as
an oracle.

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

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
heavy = ("scipy.stats", "scipy.signal", "scipy.optimize")
loaded = {}
import evtrisk
loaded["import"] = [m for m in heavy if m in sys.modules]
from evtrisk.cli import main
out = sys.argv[1]
assert main(["sim", "--model", "pareto", "--alpha", "3", "--n", "500",
             "--out", "pareto.csv", "--out-dir", out]) == 0
assert main(["tail", "--input", out + "/pareto.csv", "--k-alpha", "50",
             "--p", "0.99", "--out-dir", out]) == 0
loaded["tail"] = [m for m in heavy if m in sys.modules]
assert main(["sim", "--model", "argarch", "--n", "300", "--seed", "3",
             "--out", "garch.csv", "--out-dir", out]) == 0
assert main(["garch", "--input", out + "/garch.csv", "--forecast", "--out-dir", out]) == 0
loaded["garch"] = [m for m in heavy if m in sys.modules]
print(json.dumps(loaded))
"""


def test_evtrisk_loads_no_scipy_stats_signal_or_optimize(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"import": [], "tail": [], "garch": []}


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
