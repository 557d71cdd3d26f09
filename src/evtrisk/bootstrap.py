"""Stationary block bootstrap for serial-dependence-robust confidence intervals.

Resamples concatenate circular blocks whose lengths are geometric with a
given mean, so resampled series preserve short-range dependence while the
random block boundaries restore approximate stationarity of the scheme.
Each replicate draws from its own counter-based substream, making replicate
r reproducible in isolation and the whole set independent of evaluation
order or parallel scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .errors import EstimationError, EvtriskError, _check_integer

__all__ = ["BootstrapSpec", "resample_indices", "percentile_ci"]


@dataclass(frozen=True)
class BootstrapSpec:
    """Replicate count, expected block length, seed and two-sided CI level."""

    replicates: int = 999
    mean_block: float = 200.0
    seed: int = 0
    level: float = 0.90

    def __post_init__(self):
        _check_integer(self.replicates, "replicates")
        _check_integer(self.seed, "seed")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if not 1 <= self.mean_block < np.inf:
            raise ValueError(f"mean_block must be finite and >= 1, got {self.mean_block}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.level < 1:
            raise ValueError(f"level must be in (0, 1), got {self.level}")


def resample_indices(n: int, spec: BootstrapSpec, replicate_index: int) -> np.ndarray:
    """Index vector of one stationary-bootstrap resample of length n.

    Block starts are uniform on 0..n-1, lengths geometric with mean
    spec.mean_block (support 1, 2, ...), indexing wraps circularly.  The
    randomness is drawn from the substream keyed by (seed, replicate_index).
    """
    if n < 2:
        raise ValueError(f"need n >= 2 to resample, got {n}")
    rng = default_rng([int(spec.seed), int(replicate_index)])
    p = 1.0 / spec.mean_block

    # a block of n or more can only be the last one, which is trimmed below
    # anyway; clipping its length at n changes no index, and keeps the sums
    # of huge draws (mean blocks of about 1e18 and up) from overflowing int64
    lengths, starts = [], []
    total = 0
    while total < n:
        m = max(int((n - total) * p * 1.5) + 16, 16)
        lengths.append(np.minimum(rng.geometric(p, size=m), n))
        starts.append(rng.integers(0, n, size=m))
        total += int(lengths[-1].sum())
    lengths = lengths[0] if len(lengths) == 1 else np.concatenate(lengths)
    starts = starts[0] if len(starts) == 1 else np.concatenate(starts)

    # trim the blocks to n in all; a block running past n-1 becomes two
    # segments, [start, n) and [0, rest); the output at position j of a
    # segment is j plus that segment's offset
    ends = np.cumsum(lengths)
    n_blocks = int(np.searchsorted(ends, n, side="left")) + 1
    starts = starts[:n_blocks]
    lengths = lengths[:n_blocks]
    offset = starts - (ends[:n_blocks] - lengths)
    lengths[-1] -= ends[n_blocks - 1] - n
    head = np.minimum(lengths, n - starts)
    seg_len = np.empty(2 * n_blocks, dtype=np.int64)
    seg_len[0::2] = head
    seg_len[1::2] = lengths - head
    seg_offset = np.empty(2 * n_blocks, dtype=np.int64)
    seg_offset[0::2] = offset
    seg_offset[1::2] = offset - n
    idx = np.repeat(seg_offset, seg_len)
    idx += np.arange(n)
    return idx


def percentile_ci(x, statistic, spec: BootstrapSpec) -> tuple:
    """Percentile bootstrap CI (lower, upper, point) for statistic(x).

    Replicates on which the statistic raises a domain error are dropped;
    more than 20% failures aborts with an error since the statistic is then
    too unstable under resampling for a percentile interval to mean much.
    """
    x = np.asarray(x)
    point = float(statistic(x))
    lower, upper = _replicate_ci(len(x), spec, lambda idx: statistic(x[idx]))
    return lower, upper, point


def _replicate_ci(n: int, spec: BootstrapSpec, statistic_at) -> tuple:
    """Percentile endpoints (lower, upper) of statistic_at(indices) over replicates.

    The one replicate loop of the package: replicate r evaluates the
    statistic on the index vector resample_indices(n, spec, r).  A replicate
    whose statistic raises a domain error is dropped; more than 20% dropped
    aborts with an EstimationError.
    """
    values = []
    failures = 0
    budget = 0.2 * spec.replicates
    for r in range(spec.replicates):
        idx = resample_indices(n, spec, r)
        try:
            values.append(float(statistic_at(idx)))
        except (EvtriskError, ValueError, FloatingPointError):
            failures += 1
            if failures > budget:
                raise EstimationError(
                    f"statistic failed on {failures} of {r + 1} bootstrap replicates; "
                    "unstable under resampling")
    tail = (1.0 - spec.level) / 2.0
    # weibull positions (R+1)q are exact integers for e.g. 999 replicates
    lower, upper = np.quantile(values, [tail, 1.0 - tail], method="weibull")
    return float(lower), float(upper)
