"""Weekday subsampling and rank-ordered gap declustering."""

import numpy as np
import pytest

import evtrisk as ev
from evtrisk.errors import DataError


def _business_series(values, start="2015-01-05"):
    dates = np.busday_offset(np.datetime64(start), np.arange(len(values)),
                             roll="forward")
    return ev.ReturnSeries(dates.astype("datetime64[D]"),
                           np.asarray(values, dtype=float), "TST")


def test_weekday_partition():
    rng = np.random.default_rng(0)
    r = _business_series(rng.normal(size=500))
    parts = [ev.weekday_subsample(r, d) for d in range(5)]
    assert sum(len(p) for p in parts) == len(r)
    for d, p in enumerate(parts):
        assert np.all(p.weekdays() == d)
    recovered = np.sort(np.concatenate([p.dates for p in parts]))
    np.testing.assert_array_equal(recovered, r.dates)


def test_weekday_accepts_names_and_numbers():
    rng = np.random.default_rng(1)
    r = _business_series(rng.normal(size=50))
    np.testing.assert_array_equal(ev.weekday_subsample(r, "Wed").values,
                                  ev.weekday_subsample(r, 2).values)
    np.testing.assert_array_equal(ev.weekday_subsample(r, "friday").values,
                                  ev.weekday_subsample(r, 4).values)


def test_weekday_rejects_bad_input():
    r = _business_series(np.ones(10))
    with pytest.raises(ValueError):
        ev.weekday_subsample(r, "noday")
    with pytest.raises(ValueError):
        ev.weekday_subsample(r, 7)
    with pytest.raises(DataError):
        ev.weekday_subsample(r, "sun")  # business days only


def test_gap_mask_small_example():
    # positive pass keeps 6 (day 4) then 5 (day 0), drops 4 (day 1, too close);
    # the zero and the lone negative survive
    mask = ev.rank_gap_keep_mask([5.0, 4.0, 0.0, -3.0, 6.0], 2)
    np.testing.assert_array_equal(mask, [True, False, True, True, True])


def test_gap_tie_prefers_earlier_day():
    mask = ev.rank_gap_keep_mask([2.0, 0.0, 2.0], 2)
    np.testing.assert_array_equal(mask, [True, True, False])


def test_gap_passes_are_independent():
    # the negative day survives between two close positive days: each sign
    # runs its own pass and only same-sign neighbours can remove a day
    mask = ev.rank_gap_keep_mask([3.0, -5.0, 1.0], 2)
    np.testing.assert_array_equal(mask, [True, True, False])


def test_retained_days_respect_gap_within_each_sign():
    rng = np.random.default_rng(2)
    v = rng.standard_t(3, size=2000)
    for gap in (2, 9, 19):
        mask = ev.rank_gap_keep_mask(v, gap)
        for sign in (1, -1):
            kept = np.flatnonzero(mask & (np.sign(v) == sign))
            if kept.size > 1:
                assert np.diff(kept).min() > gap


def test_declustering_is_idempotent():
    rng = np.random.default_rng(3)
    r = _business_series(rng.standard_t(3, size=1500))
    once = ev.rank_gap_decluster(r, 9)
    twice = ev.rank_gap_decluster(once, 9)
    np.testing.assert_array_equal(once.values, twice.values)
    np.testing.assert_array_equal(once.dates, twice.dates)


def test_declustered_series_is_subsequence():
    rng = np.random.default_rng(4)
    r = _business_series(rng.standard_t(3, size=800))
    out = ev.rank_gap_decluster(r, 2)
    assert len(out) < len(r)
    pos = np.searchsorted(r.dates, out.dates)
    np.testing.assert_array_equal(r.dates[pos], out.dates)
    np.testing.assert_array_equal(r.values[pos], out.values)


def test_zeros_always_survive():
    v = np.array([0.0, 5.0, 0.0, -5.0, 0.0])
    mask = ev.rank_gap_keep_mask(v, 4)
    assert mask[[0, 2, 4]].all()


def _bisect_keep_mask(values, gap_days, day_index):
    """Reference: each pass keeps a sorted list of kept days and bisects it."""
    from bisect import bisect_left, insort

    v = np.asarray(values, dtype=float)
    days = np.asarray(day_index, dtype=np.int64)
    removed = np.zeros(len(v), dtype=bool)
    for idx, key in ((np.flatnonzero(v > 0), -v), (np.flatnonzero(v < 0), v)):
        kept = []
        for i in idx[np.lexsort((idx, key[idx]))]:
            d = days[i]
            pos = bisect_left(kept, d)
            if ((pos > 0 and d - kept[pos - 1] <= gap_days)
                    or (pos < len(kept) and kept[pos] - d <= gap_days)):
                removed[i] = True
            else:
                insort(kept, d)
    return ~removed


@pytest.mark.parametrize("days_kind", ["repeated", "spread", "shuffled"])
def test_gap_mask_equals_the_bisect_passes(days_kind):
    rng = np.random.default_rng(["repeated", "spread", "shuffled"].index(days_kind))
    for _ in range(100):
        n = int(rng.integers(1, 80))
        v = np.round(rng.standard_normal(n) * 2)  # ties and zeros
        if days_kind == "repeated":  # sorted, many days shared
            days = np.sort(rng.integers(0, max(n // 2, 1), n))
        elif days_kind == "spread":  # a range of about 1e12 days
            days = np.cumsum(rng.integers(0, 2 * 10**10, n)) - 5 * 10**11
            days[rng.integers(0, n)] += rng.integers(-5, 5)
        else:
            days = rng.permutation(np.sort(rng.integers(0, 2 * n, n)))
        for gap in (1, 3, 10**10):
            np.testing.assert_array_equal(ev.rank_gap_keep_mask(v, gap, day_index=days),
                                          _bisect_keep_mask(v, gap, days))
    x = ev.sim_argarch(ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894), 15_605, 0)
    for gap in (1, 9, 50):
        np.testing.assert_array_equal(ev.rank_gap_keep_mask(x, gap),
                                      _bisect_keep_mask(x, gap, np.arange(len(x))))


def test_gap_must_be_positive():
    with pytest.raises(ValueError):
        ev.rank_gap_keep_mask([1.0, 2.0], 0)


@pytest.mark.parametrize("value", [True, False, 2.7, 2.0, np.float64(2.0), None, [2]],
                         ids=["true", "false", "2.7", "2.0", "np-2.0", "none", "list"])
def test_a_bool_or_non_integer_day_count_is_refused_not_truncated(value):
    r = _business_series(np.arange(1.0, 21.0))
    with pytest.raises(ValueError):
        ev.weekday_subsample(r, value)
    with pytest.raises(ValueError):
        ev.rank_gap_keep_mask(r.values, value)
    with pytest.raises(ValueError):
        ev.rank_gap_decluster(r, value)


def test_integer_types_and_numeric_strings_are_taken():
    r = _business_series(np.arange(1.0, 21.0))
    wed = ev.weekday_subsample(r, 2).values
    for day in (np.int64(2), np.int8(2), "2", " 2 ", "wed", "Wednesday"):
        np.testing.assert_array_equal(ev.weekday_subsample(r, day).values, wed)
    np.testing.assert_array_equal(ev.rank_gap_keep_mask(r.values, np.int32(3)),
                                  ev.rank_gap_keep_mask(r.values, 3))


def test_declustering_weakens_serial_dependence_in_extremes():
    x = ev.sim_argarch(ev.ArGarchParams(-0.05, 0.066, 0.011, 0.099, 0.894),
                       15_605, 0)
    raw = ev.extremal_index_sliding(x, 500).theta
    kept = x[ev.rank_gap_keep_mask(x, 9)]
    after = ev.extremal_index_sliding(kept, 150).theta
    assert after > raw
    assert after < 1.0
