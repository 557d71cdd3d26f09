"""Price/return ingestion, alignment, and autocorrelation."""

import numpy as np
import pytest

import evtrisk as ev
from evtrisk.errors import DataError

DATES = np.arange("2020-01-01", "2020-01-11", dtype="datetime64[D]")


def _write_price_csv(path, rows, header="Date,Close"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def test_load_prices_parses_and_sorts(tmp_path):
    p = tmp_path / "px.csv"
    # rows deliberately out of order
    _write_price_csv(p, ["2020-01-03,102.0", "2020-01-01,100.0", "2020-01-02,101.5"])
    series = ev.load_prices(p, symbol="TST")
    assert series.symbol == "TST"
    assert list(series.prices) == [100.0, 101.5, 102.0]
    assert str(series.dates[0]) == "2020-01-01"


def test_load_prices_rejects_nonpositive_price(tmp_path):
    p = tmp_path / "px.csv"
    _write_price_csv(p, ["2020-01-01,100.0", "2020-01-02,-1.0"])
    with pytest.raises(DataError):
        ev.load_prices(p)


def test_load_prices_rejects_duplicate_dates(tmp_path):
    p = tmp_path / "px.csv"
    _write_price_csv(p, ["2020-01-01,100.0", "2020-01-01,101.0"])
    with pytest.raises(DataError):
        ev.load_prices(p)


def test_load_prices_rejects_missing_column(tmp_path):
    p = tmp_path / "px.csv"
    _write_price_csv(p, ["2020-01-01,100.0"], header="Date,Open")
    with pytest.raises(DataError):
        ev.load_prices(p)


def test_load_prices_rejects_blank_date(tmp_path):
    p = tmp_path / "px.csv"
    _write_price_csv(p, ["2020-01-01,100.0", ",101.0", "2020-01-03,102.0"])
    with pytest.raises(DataError, match="missing date"):
        ev.load_prices(p)


@pytest.mark.parametrize("row, match", [(",0.5", "missing date"),
                                        ("2020-01-03,nan", "non-finite"),
                                        ("2020-01-03,inf", "non-finite")])
def test_load_returns_rejects_blank_date_and_non_finite_value(tmp_path, row, match):
    p = tmp_path / "r.csv"
    p.write_text("date,value\n2020-01-01,0.1\n2020-01-02,-0.2\n" + row + "\n")
    with pytest.raises(DataError, match=match):
        ev.load_returns(p)


@pytest.mark.parametrize("text, match", [
    ("date,value\n2020-01-01,0.1\n2020-01-02\n", ":3: bad row"),  # no value cell
    ("value,date\n0.1,2020-01-01\n-0.2\n", "missing date"),  # no date cell
])
def test_load_returns_short_row_is_a_data_error(tmp_path, text, match):
    p = tmp_path / "r.csv"
    p.write_text(text)
    with pytest.raises(DataError, match=match):
        ev.load_returns(p)


def test_series_constructors_reject_missing_dates():
    dates = DATES[:3].copy()
    dates[1] = np.datetime64("NaT")
    with pytest.raises(DataError, match="missing date"):
        ev.PriceSeries(dates, np.array([100.0, 101.0, 102.0]))
    with pytest.raises(DataError, match="missing date"):
        ev.ReturnSeries(dates, np.zeros(3))
    with pytest.raises(DataError, match="missing date"):
        ev.ReturnSeries(np.array(["NaT"], dtype="datetime64[D]"), np.zeros(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_return_series_rejects_non_finite_values(bad):
    with pytest.raises(DataError, match="non-finite"):
        ev.ReturnSeries(DATES[:3], np.array([0.1, bad, -0.2]))


def test_to_returns_sign_and_scale():
    prices = ev.PriceSeries(DATES[:3], np.array([100.0, 110.0, 99.0]), "TST")
    r = ev.to_returns(prices)
    # a price rise is a negative loss in percent units
    assert r.values[0] == pytest.approx(-100.0 * np.log(1.1))
    assert r.values[1] == pytest.approx(-100.0 * np.log(0.9))
    assert len(r) == len(prices) - 1
    assert str(r.dates[0]) == "2020-01-02"


def test_returns_invert_back_to_prices():
    rng = np.random.default_rng(0)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 300)))
    dates = np.datetime64("2000-01-01") + np.arange(300)
    r = ev.to_returns(ev.PriceSeries(dates, prices, ""))
    rebuilt = prices[0] * np.exp(np.cumsum(-r.values / 100.0))
    np.testing.assert_allclose(rebuilt, prices[1:], rtol=1e-12)


def test_return_series_roundtrips_through_csv(tmp_path):
    r = ev.ReturnSeries(DATES[:4], np.array([0.1, -2.5, 3.25, 0.0]), "TST")
    path = tmp_path / "r.csv"
    r.write_csv(path)
    back = ev.load_returns(path, symbol="TST")
    np.testing.assert_array_equal(back.values, r.values)
    np.testing.assert_array_equal(back.dates, r.dates)


def test_weekdays_known_dates():
    # 2020-01-06 was a Monday
    r = ev.ReturnSeries(np.array(["2020-01-06", "2020-01-07", "2020-01-10"],
                                 dtype="datetime64[D]"),
                        np.zeros(3), "")
    assert list(r.weekdays()) == [0, 1, 4]


def test_align_pairs_intersects_dates():
    a = ev.ReturnSeries(DATES[:5], np.arange(5.0), "A")
    b = ev.ReturnSeries(DATES[2:8], np.arange(6.0) + 10, "B")
    pair = ev.align_pairs(a, b)
    assert len(pair) <= min(len(a), len(b))
    assert set(pair.dates) <= set(a.dates) & set(b.dates)
    np.testing.assert_array_equal(pair.values_a, [2.0, 3.0, 4.0])
    np.testing.assert_array_equal(pair.values_b, [10.0, 11.0, 12.0])


def test_align_pairs_no_overlap_is_error():
    a = ev.ReturnSeries(DATES[:3], np.zeros(3), "A")
    b = ev.ReturnSeries(DATES[5:8], np.zeros(3), "B")
    with pytest.raises(DataError):
        ev.align_pairs(a, b)


def test_acf_matches_direct_computation():
    rng = np.random.default_rng(1)
    x = rng.normal(size=500)
    got = ev.acf(x, 3)
    c = x - x.mean()
    for h in (1, 2, 3):
        assert got[h - 1] == pytest.approx((c[:-h] @ c[h:]) / (c @ c))


def test_acf_affine_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=400)
    np.testing.assert_allclose(ev.acf(x, 10), ev.acf(3.7 * x - 11.0, 10),
                               atol=1e-12)


def test_acf_of_persistent_series_is_positive():
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.normal(size=1000))
    assert ev.acf(x, 1)[0] > 0.9
