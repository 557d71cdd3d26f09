"""Price/return ingestion, alignment, and autocorrelation."""

import csv
import gc
import io
import os
import subprocess
import sys
import tracemalloc
import warnings
from datetime import date, timedelta
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import evtrisk as ev
from evtrisk import ingest
from evtrisk.cli import main
from evtrisk.errors import DataError
from evtrisk.ingest import _column_rule, _read_columns

DATES = np.arange("2020-01-01", "2020-01-11", dtype="datetime64[D]")


def _write_price_csv(path, rows, header="Date,Close"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def load_prices(path):
    """`load_returns` of a price file; the name marks the price-file cases
    of the tests that run both file kinds."""
    return ev.load_returns(path)


def _loaded(load, dates, values):
    """The dates and values `load` gives for a file of these rows: for a
    price file, the negative log-returns in percent dated at the later price."""
    if load is load_prices:
        return dates[1:], -100.0 * np.diff(np.log(values))
    return dates, np.asarray(values, dtype=float)


def test_load_prices_parses_and_sorts(tmp_path):
    p = tmp_path / "px.csv"
    # rows deliberately out of order
    _write_price_csv(p, ["2020-01-03,102.0", "2020-01-01,100.0", "2020-01-02,101.5"])
    series = ev.load_returns(p, symbol="TST")
    assert series.symbol == "TST"
    # bit-identical to the negative log-returns of the date-sorted prices
    want = -100.0 * np.diff(np.log([100.0, 101.5, 102.0]))
    assert series.values.tobytes() == want.tobytes()
    np.testing.assert_array_equal(series.dates, DATES[1:3])


def test_load_prices_rejects_nonpositive_price(tmp_path):
    p = tmp_path / "px.csv"
    _write_price_csv(p, ["2020-01-01,100.0", "2020-01-02,-1.0"])
    with pytest.raises(DataError, match="non-positive price"):
        ev.load_returns(p)


def test_load_prices_rejects_duplicate_dates(tmp_path):
    p = tmp_path / "px.csv"
    _write_price_csv(p, ["2020-01-01,100.0", "2020-01-01,101.0"])
    with pytest.raises(DataError, match="duplicate date"):
        ev.load_returns(p)


def test_load_prices_rejects_missing_column(tmp_path):
    p = tmp_path / "px.csv"
    _write_price_csv(p, ["2020-01-01"], header="Date")
    with pytest.raises(DataError, match="expected a header row with a date and a value"):
        ev.load_returns(p)


def test_load_prices_rejects_blank_date(tmp_path):
    p = tmp_path / "px.csv"
    _write_price_csv(p, ["2020-01-01,100.0", ",101.0", "2020-01-03,102.0"])
    with pytest.raises(DataError, match="missing date"):
        ev.load_returns(p)


@pytest.mark.parametrize("header, date_col, price_col", [
    ("Date,Open,High,Low,Close,Adj Close,Volume", 0, 4), ("Date,Adj Close,Volume", 0, 1),
    ("Volume,adj_close,Date", 2, 1), ("Open,Price,Date", 2, 1), ("when,px,volume", 0, 1),
    ("close,close", 0, 1), ("open,date", 1, 0)])
def test_column_rule_picks_the_date_and_price_columns(tmp_path, header, date_col, price_col):
    cells = np.random.default_rng(4).uniform(10.0, 20.0, (3, header.count(",") + 1))
    rows = [",".join(str(DATES[i]) if j == date_col else repr(v) for j, v in enumerate(row))
            for i, row in enumerate(cells.tolist())]
    p = tmp_path / "px.csv"
    _write_price_csv(p, rows, header)
    series = ev.load_returns(p)
    want = -100.0 * np.diff(np.log(cells[:, price_col]))
    assert series.values.tobytes() == want.tobytes()
    np.testing.assert_array_equal(series.dates, DATES[1:3])


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


@pytest.mark.parametrize("load, header", [(load_prices, "Date,Close"),
                                          (ev.load_returns, "date,value")])
def test_bad_row_error_names_the_physical_line(tmp_path, load, header):
    p = tmp_path / "x.csv"
    p.write_text(header + "\n2020-01-01,100\n\n2020-01-03,x\n")
    with pytest.raises(DataError, match=r"x\.csv:4: bad row \['2020-01-03', 'x'\]"):
        load(p)


@pytest.mark.parametrize("load, header", [(load_prices, "Date,Close"),
                                          (ev.load_returns, "date,value")])
def test_rows_blank_in_both_cells_are_skipped(tmp_path, load, header):
    p = tmp_path / "x.csv"
    p.write_text(header + "\n2020-01-01,1.5\n,\n\n , \n 2020-01-02 , 2.5 \n")
    series = load(p)
    dates, values = _loaded(load, DATES[:2], [1.5, 2.5])
    np.testing.assert_array_equal(series.dates, dates)
    np.testing.assert_array_equal(series.values, values)


@pytest.mark.parametrize("load, text, match", [
    (ev.load_returns, "", "empty file"),
    # a header without a `value` column is a price file
    (ev.load_returns, "date,val\n2020-01-01,0.1\n", r"need at least 2 prices in '.*x\.csv'"),
    (ev.load_returns, "day,value\n2020-01-01,0.1\n", r"missing column\(s\) \['date'\]"),
    (ev.load_returns, "date,value\n\n,\n", r"empty return series '.*x\.csv'"),
    (load_prices, "Date,Close\n2020-01-01,100\n", r"need at least 2 prices in '.*x\.csv'"),
])
def test_loaders_refuse_files_without_header_or_rows(tmp_path, load, text, match):
    p = tmp_path / "x.csv"
    p.write_text(text)
    with pytest.raises(DataError, match=match):
        load(p)


@pytest.mark.parametrize("load, header", [(load_prices, "Date,Close"),
                                          (ev.load_returns, "date,value")])
def test_loaders_refuse_dates_outside_the_plausible_range(tmp_path, load, header):
    # a 20-digit year wraps NumPy's int64 day count to -11562726299856889-01-17
    p = tmp_path / "x.csv"
    p.write_text(header + "\n2020-01-01,100\n99999999999999999999-01-01,101\n"
                 "2020-01-03,102\n")
    with pytest.raises(DataError, match=r"date -11562726299856889-01-17 outside"):
        load(p)
    p.write_text(header + "\n1799-12-31,100\n1800-01-01,101\n")
    with pytest.raises(DataError, match=r"date 1799-12-31 outside"):
        load(p)
    p.write_text(header + "\n9999-12-31,100\n10000-01-01,101\n")
    with pytest.raises(DataError, match=r"date 10000-01-01 outside"):
        load(p)


def test_series_constructors_reject_missing_dates():
    dates = DATES[:3].copy()
    dates[1] = np.datetime64("NaT")
    with pytest.raises(DataError, match="missing date"):
        ev.ReturnSeries(dates, np.zeros(3))
    with pytest.raises(DataError, match="missing date"):
        ev.ReturnSeries(np.array(["NaT"], dtype="datetime64[D]"), np.zeros(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_return_series_rejects_non_finite_values(bad):
    with pytest.raises(DataError, match="non-finite"):
        ev.ReturnSeries(DATES[:3], np.array([0.1, bad, -0.2]))


def test_to_returns_sign_and_scale(tmp_path):
    p = tmp_path / "px.csv"
    _write_price_csv(p, ["2020-01-01,100.0", "2020-01-02,110.0", "2020-01-03,99.0"])
    r = ev.load_returns(p)
    # a price rise is a negative loss in percent units
    assert r.values[0] == pytest.approx(-100.0 * np.log(1.1))
    assert r.values[1] == pytest.approx(-100.0 * np.log(0.9))
    assert len(r) == 3 - 1
    assert str(r.dates[0]) == "2020-01-02"


def test_returns_invert_back_to_prices(tmp_path):
    rng = np.random.default_rng(0)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 300)))
    dates = np.datetime64("2000-01-01") + np.arange(300)
    p = tmp_path / "px.csv"
    _write_price_csv(p, [f"{d},{v!r}" for d, v in zip(dates, prices.tolist())])
    r = ev.load_returns(p)
    rebuilt = prices[0] * np.exp(np.cumsum(-r.values / 100.0))
    np.testing.assert_allclose(rebuilt, prices[1:], rtol=1e-12)


def test_return_series_roundtrips_through_csv(tmp_path):
    r = ev.ReturnSeries(DATES[:4], np.array([0.1, -2.5, 3.25, 0.0]), "TST")
    path = tmp_path / "r.csv"
    r.write_csv(path)
    back = ev.load_returns(path, symbol="TST")
    np.testing.assert_array_equal(back.values, r.values)
    np.testing.assert_array_equal(back.dates, r.dates)


def test_write_csv_matches_csv_writer_bytes(tmp_path):
    values = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e16, 0.1 + 0.2, 1.7976931348623157e308,
                       -2.5, 1e-5, 123456789.125])
    dates = np.array(["1800-01-01", "1969-12-31", "1970-01-01", "2000-02-29", "2020-01-03",
                      "2020-01-06", "2024-12-31", "2100-03-01", "9998-01-01", "9999-12-31"],
                     dtype="datetime64[D]")
    r = ev.ReturnSeries(dates, values, "EDGE")
    path = tmp_path / "r.csv"
    r.write_csv(path)
    # reference: the row-by-row csv.writer output the fast writer replaced
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(["date", "value"])
    for d, v in zip(dates, values):
        w.writerow([str(d), repr(float(v))])
    assert path.read_bytes() == ref.getvalue().encode()
    back = ev.load_returns(path)
    assert back.values.tobytes() == values.tobytes()  # -0.0 and subnormals included
    np.testing.assert_array_equal(back.dates, dates)


def test_write_csv_writes_in_blocks_the_bytes_of_one_join(tmp_path):
    n = 7 * ingest._WRITE_ROWS + 3
    dates = np.datetime64("2000-01-03") + np.arange(n)
    values = ev.sim_pareto(3.0, n, 1) * np.where(np.arange(n) % 3, 1.0, -1.0)
    series = ev.ReturnSeries(dates, values)
    tracemalloc.start()
    try:
        series.write_csv(tmp_path / "r.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = map("{},{!r}\r\n".format, np.datetime_as_string(dates).tolist(), values.tolist())
    assert (tmp_path / "r.csv").read_bytes() == ("date,value\r\n" + "".join(rows)).encode()
    # one block's strings, not the 2.8 MiB of the whole file's
    assert peak < 1 << 20


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


def test_acf_is_exact_for_huge_values_and_refuses_non_finite():
    spike = np.r_[1.28e77, np.zeros(9)] ** 2  # centered @ centered overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ev.acf(spike, 2)
    np.testing.assert_allclose(got, [-1 / 90, -2 / 90], rtol=1e-12)
    for bad in (np.nan, np.inf):
        with pytest.raises(DataError, match="non-finite"):
            ev.acf(np.r_[bad, np.zeros(9)], 2)


@pytest.mark.parametrize("load, header", [
    (load_prices, " DATE , close "), (load_prices, "date,CLOSE"),
    (ev.load_returns, "Date,Value"), (ev.load_returns, " date , value "),
    (ev.load_returns, "Date,value"),
    # the byte-order mark a spreadsheet's "CSV UTF-8" export starts with
    (load_prices, "\ufeffDate,Close"), (ev.load_returns, "\ufeffdate,value")])
def test_loaders_match_column_names_ignoring_case_and_spaces(tmp_path, load, header):
    p = tmp_path / "x.csv"
    p.write_text(f"{header}\n2020-01-01,1.5\n2020-01-02,2.5\n", encoding="utf-8")
    series = load(p)
    dates, values = _loaded(load, DATES[:2], [1.5, 2.5])
    np.testing.assert_array_equal(series.values, values)
    np.testing.assert_array_equal(series.dates, dates)


def _reference_read_columns(path, date_col, value_col):
    """The reader before the column-wise fast path, kept as the oracle: a
    csv.reader row per line, then the row-by-row pass on any failure."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, header row required")
        names = [cell.strip().lower() for cell in header]
        wanted = date_col.strip().lower(), value_col.strip().lower()
        missing = set(wanted) - set(names)
        if missing:
            raise DataError(f"{path}: missing column(s) {sorted(missing)}")
        get = itemgetter(*map(names.index, wanted))
        try:
            dates, values = zip(get(header), *map(get, filter(None, reader)))
            return (np.array(dates[1:], dtype="datetime64[D]"),
                    np.array(values[1:], dtype=float))
        except (IndexError, ValueError):
            pass
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)
        dates, values = [], []
        for row in reader:
            d, v = (cell.strip() for cell in get(row + [""] * len(header)))
            if d or v:
                try:
                    dates.append(np.datetime64(d, "D"))
                    values.append(float(v))
                except ValueError:
                    raise DataError(f"{path}:{reader.line_num}: bad row {row!r}") from None
    return np.array(dates, dtype="datetime64[D]"), np.array(values, dtype=float)


READER_HEADERS = ["date,value", "Date,Close", "value,date", " date , value ",
                  "Date,Open,High,Low,Close,Adj Close,Volume", "date,value,note",
                  '"date",value', "date", ""]
READER_CELLS = st.one_of(
    st.sampled_from(["", " ", "  ", "x", "nan", "1e400", "-0.0", " 1.5 ", " 2020-01-02 ",
                     "2020-02-30", "2020-01-02T10", '"1.5"', '"2020-01-02"', '"1,5"',
                     '"a""b"', 'a"b', "2020-01-02\r\n"]),
    st.dates(min_value=date(1790, 1, 1), max_value=date(2100, 1, 1)).map(str),
    st.floats(-1e3, 1e3).map(repr),
)


@st.composite
def reader_csv(draw):
    """A date/value or price file of up to 30 rows, then corrupted, with each
    line ended by LF, CRLF or CR."""
    header = draw(st.sampled_from(READER_HEADERS))
    names = [cell.strip(' "').lower() for cell in header.split(",")]
    start = draw(st.dates(min_value=date(1990, 1, 1), max_value=date(2050, 1, 1)))
    rows = [[str(start + timedelta(days=i)) if name == "date" else repr(draw(st.floats(1, 9)))
             for name in names] for i in range(draw(st.integers(0, 30)))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["cell", "drop", "extra", "blank", "repeat"]))
        at = draw(st.integers(0, len(rows)))
        if kind == "blank":
            rows.insert(at, [draw(st.sampled_from(["", " ", "\t"]))])
        elif rows:
            row = rows[min(at, len(rows) - 1)]
            if kind == "extra" or not row:
                row.append(draw(READER_CELLS))
            elif kind == "cell":
                row[draw(st.integers(0, len(row) - 1))] = draw(READER_CELLS)
            elif kind == "drop":
                row.pop(draw(st.integers(0, len(row) - 1)))
            else:
                rows.insert(at, list(row))
    lines = [header, *(",".join(r) for r in rows)]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))
    return text if draw(st.booleans()) else text[:-len(ends[-1])]


def _picked_columns(path):
    """The header cells of the date and value columns `_column_rule` picks,
    or None where it refuses the header."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader(fh), [])
    try:
        date_at, value_at, _ = _column_rule(path, [cell.strip().lower() for cell in header])
    except DataError:
        return None
    return header[date_at], header[value_at]


def _columns_or_error(read, path, *columns):
    try:
        dates, values = read(path, *columns)[:2]
    except DataError as err:
        return str(err)
    return dates.dtype.str, dates.tobytes(), values.dtype.str, values.tobytes()


# derandomized so every run of the suite draws the same files; the examples
# are a header-only file, a short row after a lone CR, and a quoted cell
# holding a line end and commas
@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=reader_csv())
@example(text="Date,Close\n")
@example(text="date,value,note\r2020-01-01,1.5,x\ry\r")
@example(text='date,value,note\r\n2020-01-01,1.5,"x\r\n2020-01-02,2.5,y"\r\n')
def test_reader_equals_the_row_by_row_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("reader") / "x.csv"
    path.write_bytes(text.encode())
    columns = _picked_columns(path)
    if columns is None:
        with pytest.raises(DataError):
            _read_columns(path)
        with pytest.raises(DataError):
            _reference_read_columns(path, "date", "value")
    else:
        assert (_columns_or_error(_read_columns, path)
                == _columns_or_error(_reference_read_columns, path, *columns))


def test_loading_a_long_file_runs_at_most_one_gc_collection(tmp_path):
    # a row-by-row reader makes two containers per row, and so dozens of
    # collections over a 15,605-row file
    assert main(["sim", "--model", "pareto", "--alpha", "3", "--n", "15605",
                 "--out", "r.csv", "--out-dir", str(tmp_path)]) == 0
    starts = []

    def count(phase, info):
        starts.extend([info["generation"]] * (phase == "start"))

    gc.callbacks.append(count)
    try:
        r = ev.load_returns(tmp_path / "r.csv")
    finally:
        gc.callbacks.remove(count)
    assert len(r) == 15605
    assert len(starts) <= 1, starts


# one load in a fresh interpreter: how far it raises the peak RSS, in KiB.
# VmHWM, not ru_maxrss: Linux carries a parent's ru_maxrss into the child
PEAK_SCRIPT = """
import sys
import evtrisk

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

before = peak()
evtrisk.load_returns(sys.argv[1])
print(peak() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's /proc")
def test_loading_a_long_file_raises_peak_memory_by_under_1_5_mb(tmp_path):
    # a reader that holds a Python string per line or cell adds about 4.4 MB
    assert main(["sim", "--model", "pareto", "--alpha", "3", "--n", "15606",
                 "--out", "r.csv", "--out-dir", str(tmp_path)]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PEAK_SCRIPT, str(tmp_path / "r.csv")],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    assert int(proc.stdout) < 1.5 * 1024


@pytest.mark.parametrize("text, by_csv", [
    ("date,value\r\n2020-01-01,1.5\r\n2020-01-02,2.5\r\n", False),
    ("Date,Open,Close\n2020-01-01,1,2\n\n2020-01-02,3,4\n", False),
    ("\ufeffDate,Close\r2020-01-01,1\r2020-01-02,3\r", False),
    ("date,value\n2020-01-01,\"1.5\"\n", True),
    ('"date",value\n2020-01-01,1.5\n', True),
    ("date,value\n2020-01-01,1_5\n", True),
    ("date,value\n,\n2020-01-01,1.5\n", True),
    ("date,value\n\n", True),
], ids=["crlf", "price-blank-line", "bom-cr", "quoted-cell", "quoted-header",
        "underscore", "blank-row", "no-rows"])
def test_only_files_the_c_reader_refuses_go_to_the_csv_reader(tmp_path, monkeypatch,
                                                              text, by_csv):
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    calls = []
    real = ingest._csv_columns
    monkeypatch.setattr(ingest, "_csv_columns", lambda *args: calls.append(1) or real(*args))
    try:
        ingest._read_columns(path)
    except DataError:
        pass
    assert bool(calls) == by_csv


@pytest.mark.parametrize("text, warns, by_csv", [
    ("date,value\n2020-01-01T00:00Z,1.5\n2020-01-02,2.5\n", 1, False),
    ("date,value\n2020-01-01T00:00Z,1.5\n2020-01-02T00:00+01,2.5\n", 2, False),
    ("date,value\n2020-01-01T00:00Z,1_5\n", 1, True),
    ("date,value\n\n", 0, True),
], ids=["utc-suffix", "two-offsets", "refused-after-a-warning", "no-rows"])
def test_both_readers_give_the_same_warnings(tmp_path, monkeypatch, text, warns, by_csv):
    # NumPy warns that a zone suffix is dropped; the C reader must not hide
    # that, nor show its own "no data" warning for an empty body.  A file it
    # refuses after a warning is read again by `csv`, which warns again
    path = tmp_path / "x.csv"
    path.write_text(text)

    def warned():
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            try:
                _read_columns(path)
            except DataError:
                pass
        return [(w.category, str(w.message)) for w in seen]

    calls, real = [], ingest._csv_columns
    monkeypatch.setattr(ingest, "_csv_columns", lambda *args: calls.append(1) or real(*args))
    both = warned()
    assert bool(calls) == by_csv
    monkeypatch.setattr(ingest, "_loadtxt_columns", lambda fh, cols: None)
    csv_only = warned()
    assert len(csv_only) == warns and set(both) == set(csv_only)
    assert both == csv_only or by_csv
