"""Seeded inputs of the benchmark workloads, written as date,value CSVs.

The generator is the benchmark's own NumPy code, not ``evtrisk.simulate``,
so a later change to the package's samplers cannot change the workloads.
The program only ever sees the CSV files.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

# Reference AR(1)-GARCH(1,1) set (GARCH_TRUTH of the test suite).
MU, PHI, OMEGA, A, B_COEF = -0.05, 0.066, 0.011, 0.099, 0.894
DF = 5.0          # Student-t innovations: a heavy loss tail
RHO = 0.7         # correlation of the bivariate innovations
BURN = 500
START_DATE = np.datetime64("1962-01-02")


def _t_innovations(rng, n: int, dims: int) -> np.ndarray:
    """Unit-variance Student-t(DF) innovations, correlated RHO across dims.

    The margins share one chi-square mixing draw, so the pair has a
    t-copula and hence tail dependence.
    """
    z = rng.standard_normal((n, dims))
    if dims == 2:
        z[:, 1] = RHO * z[:, 0] + math.sqrt(1.0 - RHO * RHO) * z[:, 1]
    w = rng.chisquare(DF, size=n) / DF
    return z / np.sqrt(w)[:, None] * math.sqrt((DF - 2.0) / DF)


def argarch_paths(rng, n: int, dims: int = 1) -> np.ndarray:
    """`dims` AR(1)-GARCH(1,1) paths of length n, shape (n, dims)."""
    eps = _t_innovations(rng, n + BURN, dims).tolist()
    out = np.empty((n + BURN, dims))
    for j in range(dims):
        sig2 = OMEGA / (1.0 - A - B_COEF)
        x_prev = MU / (1.0 - PHI)
        a_prev = 0.0
        for t in range(n + BURN):
            sig2 = OMEGA + A * a_prev * a_prev + B_COEF * sig2
            a_prev = math.sqrt(sig2) * eps[t][j]
            x_prev = MU + PHI * x_prev + a_prev
            out[t, j] = x_prev
    return out[BURN:]


def t_pairs(rng, n: int) -> np.ndarray:
    """n i.i.d. bivariate Student-t(DF) pairs with correlation RHO."""
    return _t_innovations(rng, n, 2)


def write_csv(path: Path, values) -> str:
    """Write values on consecutive business days; return the file's sha256."""
    dates = np.busday_offset(START_DATE, np.arange(len(values)), roll="forward")
    lines = ["date,value"]
    lines += [f"{d},{float(v)!r}" for d, v in zip(dates.astype(str), values)]
    data = ("\n".join(lines) + "\n").encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _series(workload: str, size, rng) -> list:
    if workload == "cond_roll":
        return [argarch_paths(rng, size.window + size.days)[:, 0]
                for _ in range(size.paths)]
    if workload == "boot_ci":
        pair = t_pairs(rng, size.n_pair)
        return [argarch_paths(rng, size.n)[:, 0], pair[:, 0], pair[:, 1]]
    if workload == "cli_screen":
        pairs = [argarch_paths(rng, size.n, dims=2) for _ in range(size.pairs)]
        return [pair[:, side] for pair in pairs for side in (0, 1)]
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(wl, size, seed: int, out_dir: Path) -> dict:
    """Generate a workload's input files under out_dir; {file name: sha256}.

    The same (workload, size, seed) always gives the same bytes.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    stream = ("cond_roll", "boot_ci", "cli_screen").index(wl.name)
    series = _series(wl.name, size, np.random.default_rng([seed, stream]))
    return {name: write_csv(out_dir / name, values)
            for name, values in zip(wl.files(size), series, strict=True)}
