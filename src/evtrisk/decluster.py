"""Declustering procedures that thin serial dependence among extremes.

Two schemes:

* weekday subsampling: keep only the observations falling on one weekday
  (every fifth trading day), shrinking clusters of consecutive extremes;
* rank-ordered gap declustering: walk the positive observations from
  largest to smallest, greedily keeping a day unless it falls within
  `gap_days` trading days of an already-kept day of the same pass, then do
  the same for the negative observations from most negative upward.  Days
  removed in either pass are dropped; zero values are always retained.

Both return subsequences of the input in original order.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, _check_integer, _finite_floats
from .ingest import ReturnSeries

__all__ = [
    "weekday_subsample",
    "rank_gap_decluster",
    "rank_gap_keep_mask",
    "WEEKDAY_NAMES",
]

WEEKDAY_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")


def _weekday_number(weekday) -> int:
    """0..6 from an int, a numeric string or a name; a bool or float is refused."""
    if isinstance(weekday, str):
        try:
            day = int(weekday)
        except ValueError:
            key = weekday.strip().lower()[:3]
            if key not in WEEKDAY_NAMES:
                raise ValueError(f"unknown weekday {weekday!r}") from None
            return WEEKDAY_NAMES.index(key)
    else:
        _check_integer(weekday, "weekday")
        day = int(weekday)
    if not 0 <= day <= 6:
        raise ValueError(f"weekday number must be 0 (Mon) .. 6 (Sun), got {day}")
    return day


def weekday_subsample(r: ReturnSeries, weekday) -> ReturnSeries:
    """Observations whose date falls on the given weekday, order preserved.

    `weekday` is an integer 0..6 (Monday = 0), a numeric string like "2",
    or a name like "Wed".
    """
    day = _weekday_number(weekday)
    index = np.flatnonzero(r.weekdays() == day)
    if index.size == 0:
        raise DataError(f"no observations fall on weekday {weekday!r}")
    return r.take(index)


def _greedy_gap_pass(order: np.ndarray, slot: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray, removed: np.ndarray) -> None:
    """Mark days removed by one greedy pass.

    `order` lists candidate positions in priority order.  Position i falls
    on distinct day slot[i], and the distinct days within gap_days of it are
    slots lo[i]..hi[i]-1; a kept candidate blocks those, and a candidate on
    a blocked day is removed.
    """
    blocked = bytearray(len(removed))
    for i, s, a, b in zip(order.tolist(), slot[order].tolist(), lo[order].tolist(),
                          hi[order].tolist()):
        if blocked[s]:
            removed[i] = True
        else:
            blocked[a:b] = b"\1" * (b - a)


def rank_gap_keep_mask(values, gap_days: int, day_index=None) -> np.ndarray:
    """Boolean mask of days retained by rank-ordered gap declustering.

    Day distance is measured on `day_index` (default: position, i.e.
    trading-day index).  The positive pass visits values > 0 in descending
    order, the negative pass values < 0 in ascending order; ties visit the
    earlier day first.  The passes are independent and a day survives only
    if removed by neither.  NaN or inf in `values` is a DataError, and a
    `gap_days` that is a bool or a float is a ValueError.
    """
    _check_integer(gap_days, "gap_days")
    if gap_days < 1:
        raise ValueError(f"gap_days must be >= 1, got {gap_days}")
    v = _finite_floats(values, "declustering sample")
    if day_index is None:
        days = np.arange(len(v), dtype=np.int64)
    else:
        days = np.asarray(day_index, dtype=np.int64)
        if days.shape != v.shape:
            raise ValueError("day_index must have one ordinal per value")
    # slots index the distinct days, so memory stays O(n) whatever their range
    distinct, slot = np.unique(days, return_inverse=True)
    lo = np.searchsorted(distinct, days - gap_days)
    hi = np.searchsorted(distinct, days + gap_days, side="right")
    removed = np.zeros(len(v), dtype=bool)
    for candidate, key in ((v > 0, -v), (v < 0, v)):
        idx = np.flatnonzero(candidate)
        _greedy_gap_pass(idx[np.lexsort((idx, key[idx]))], slot, lo, hi, removed)
    return ~removed


def rank_gap_decluster(r: ReturnSeries, gap_days: int) -> ReturnSeries:
    """Rank-ordered gap declustering of both tails of a return series.

    Day ordinals come from the business-day calendar of the dates (equal to
    plain position for a series on consecutive business days), so distances
    survive subsampling and reapplying the procedure is a no-op.
    """
    days = np.busday_count(r.dates[0], r.dates)
    keep = rank_gap_keep_mask(r.values, gap_days, day_index=days)
    return r.take(np.flatnonzero(keep))
