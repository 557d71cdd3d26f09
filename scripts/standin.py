#!/usr/bin/env python3
"""Run the criterion-9 stand-in once and print one JSON line.

    python3 scripts/standin.py

The stand-in replaces the data-gated conditional backtest of acceptance
criterion 9 with a simulated series: ``evtrisk sim --model argarch`` at the
reference parameters (mu -0.05, phi 0.066, omega 0.011, a 0.099, b_coef
0.894, t(5) innovations, n = 15,605, seed 9), then ``evtrisk
backtest-cond`` on it with its defaults.  Both run from this checkout's
``src`` in a temporary directory, each in a fresh interpreter with one
BLAS thread.

The line holds ``wall_s`` and ``peak_rss_mb`` of the ``backtest-cond``
process (start-up included; the peak is its resident-set high-water mark),
and ``days``, ``cold_fits`` and ``refit_failures`` from its report.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIM = ["sim", "--model", "argarch", "--mu", "-0.05", "--phi", "0.066", "--omega", "0.011",
       "--a", "0.099", "--b", "0.894", "--innovation", "student_t", "--df", "5",
       "--n", "15605", "--seed", "9", "--out", "standin.csv"]
BACKTEST = ["backtest-cond", "--input", "standin.csv"]


def cli(argv: list, cwd: str) -> tuple:
    """Run `evtrisk argv` in cwd; (wall seconds, peak RSS in MB) of its process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "evtrisk.cli", *argv], cwd=cwd, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"evtrisk {argv[0]} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cli(SIM, tmp)
        wall, peak = cli(BACKTEST, tmp)
        report = json.loads((Path(tmp) / "backtest_cond_report.json").read_text())
    print(json.dumps({"wall_s": round(wall, 3), "peak_rss_mb": round(peak, 1),
                      "days": report["days"], "cold_fits": report["cold_fits"],
                      "refit_failures": report["refit_failures"]}))


if __name__ == "__main__":
    main()
