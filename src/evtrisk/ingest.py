"""Loading daily price or return files, and serial-dependence diagnostics.

Input data are daily adjusted closing prices P_0, ..., P_n.  Losses are
represented throughout the package as negative log-returns in percent,

    X_i = -100 * log(P_i / P_{i-1}),

so that a large positive X_i is a large daily loss.  `load_returns` reads
either a price file, which it turns into these returns, or a return file
written by :meth:`ReturnSeries.write_csv`.  All downstream estimators (tail
index, extremal index, GARCH filtering, ...) consume the ``values`` array of
a :class:`ReturnSeries`.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

import numpy as np

from .errors import DataError, _finite_floats

__all__ = [
    "PairedReturns",
    "ReturnSeries",
    "load_returns",
    "align_pairs",
    "acf",
]


# Dates a daily series can hold: none before 1800, and four-digit years, which
# leave room for the synthetic business-day calendar of `sim` from 2000.  A
# year outside them is a typo, or wrapped NumPy's int64 day count and would
# sort as some other date.
_DATE_RANGE = (np.datetime64("1800-01-01"), np.datetime64("9999-12-31"))


# rows that `ReturnSeries.write_csv` formats and writes at a time
_WRITE_ROWS = 2048


def _as_dates(dates) -> np.ndarray:
    return np.asarray(dates, dtype="datetime64[D]")


def _check_dates_increasing(dates: np.ndarray, what: str) -> None:
    if np.any(np.isnat(dates)):
        raise DataError(f"missing date in {what}")
    outside = (dates < _DATE_RANGE[0]) | (dates > _DATE_RANGE[1])
    if np.any(outside):
        raise DataError(f"date {dates[np.argmax(outside)]} outside "
                        f"{_DATE_RANGE[0]}..{_DATE_RANGE[1]} in {what}")
    # neighbours compared as dates: no int64 copy of the series
    later, earlier = dates[1:], dates[:-1]
    same = later == earlier
    if np.any(same):
        raise DataError(f"duplicate date {dates[np.argmax(same)]} in {what}")
    back = later < earlier
    if np.any(back):
        raise DataError(f"dates not sorted at {dates[np.argmax(back) + 1]} in {what}")


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """Negative log-returns, one value per trading day.

    Returns that `load_returns` makes from a price file are in percent, each
    dated at the *later* price of the pair that produced it.
    """

    dates: np.ndarray
    values: np.ndarray
    symbol: str = ""

    def __post_init__(self):
        object.__setattr__(self, "dates", _as_dates(self.dates))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.dates.shape != self.values.shape:
            raise DataError("dates and values must have equal length")
        if len(self.values) == 0:
            raise DataError(f"empty return series {self.symbol!r}")
        _finite_floats(self.values, f"returns {self.symbol!r}")
        _check_dates_increasing(self.dates, f"returns {self.symbol!r}")

    def __len__(self) -> int:
        return len(self.values)

    def weekdays(self) -> np.ndarray:
        """Weekday per observation, 0 = Monday ... 6 = Sunday."""
        # days since 1970-01-01 (a Thursday); +3 shifts so Monday -> 0
        return (self.dates.view("int64") + 3) % 7

    def take(self, index) -> "ReturnSeries":
        """Subseries at the given positions (order preserved)."""
        return ReturnSeries(self.dates[index], self.values[index], self.symbol)

    def write_csv(self, path) -> None:
        """Write `date,value` rows, each value as its shortest round-trip repr.

        The bytes are those of `csv.writer` (CRLF line ends, no quoting:
        ISO dates and finite float reprs hold no delimiter or quote).
        """
        with open(path, "w", newline="") as fh:
            fh.write("date,value\r\n")
            # a block of rows at a time: no string of the whole file
            for i in range(0, len(self), _WRITE_ROWS):
                block = slice(i, i + _WRITE_ROWS)
                fh.write("".join(map("{},{!r}\r\n".format,
                                     np.datetime_as_string(self.dates[block]).tolist(),
                                     self.values[block].tolist())))


@dataclass(frozen=True, eq=False)
class PairedReturns:
    """Two return series restricted to their common dates."""

    dates: np.ndarray
    values_a: np.ndarray
    values_b: np.ndarray
    symbol_a: str = ""
    symbol_b: str = ""

    def __len__(self) -> int:
        return len(self.dates)


def _open_csv(path):
    """A CSV file opened for reading: UTF-8, a leading byte-order mark dropped,
    line ends left for csv.reader."""
    return open(path, newline="", encoding="utf-8-sig")


def _rows(reader, path):
    """The rows of a csv reader; a csv error (such as a cell past the module's
    field size limit) is a DataError naming the line."""
    try:
        yield from reader
    except csv.Error as err:
        raise DataError(f"{path}:{reader.line_num}: {err}") from None


# price column names in the column rule's order of preference, outside the date column
_PRICE_COLUMNS = ("close", "adj close", "adj_close", "price")


def _column_rule(path, names: list) -> tuple:
    """(date column, value column, values are prices) of a header whose cells
    are stripped and lower-cased: the column rule of `load_returns`."""
    if "value" in names:
        if "date" not in names:
            raise DataError(f"{path}: missing column(s) ['date']")
        return names.index("date"), names.index("value"), False
    if len(names) < 2:
        raise DataError(f"{path}: expected a header row with a date and a value "
                        "or price column")
    date = names.index("date") if "date" in names else 0
    price = next((j for name in _PRICE_COLUMNS for j, cell in enumerate(names)
                  if cell == name and j != date), 0 if date == 1 else 1)
    return date, price, True


# a row of the C reader: the date and the value column
_ROW = np.dtype([("d", "datetime64[D]"), ("v", float)])


def _csv_only(path) -> bool:
    """Whether the file holds a quote, whose cells only `csv.reader` splits
    as it does, or a line of `csv.field_size_limit()` bytes or more, which
    may hold a cell it refuses.  Read in 64 KiB blocks."""
    limit, size, last_end = csv.field_size_limit(), 0, -1
    with open(path, "rb") as raw:
        for block in iter(partial(raw.read, 1 << 16), b""):
            if b'"' in block:
                return True
            codes = np.frombuffer(block, np.uint8)
            ends = size + np.flatnonzero((codes == 10) | (codes == 13))  # \n, \r
            if ends.size:
                if np.diff(ends, prepend=last_end).max() > limit:
                    return True
                last_end = int(ends[-1])
            size += len(block)
    return size - last_end > limit


def _loadtxt_columns(fh, cols):
    """Dates and values of the lines left in `fh`, in columns `cols`, by
    NumPy's C reader; None where it raises, whatever the reason, or finds
    no row."""
    try:
        with warnings.catch_warnings():
            # an empty body is told by the length, so only that warning goes
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", usecols=cols, dtype=_ROW,
                              comments=None, ndmin=1)
    except Exception:
        return None
    return (rows["d"].copy(), rows["v"].copy()) if len(rows) else None


def _csv_columns(fh, path, cols, ncol: int):
    """Dates and values in columns `cols` of the rows after the header of
    `fh`, an `_open_csv` handle, read from its start by `csv.reader`.

    Cells are stripped, rows blank in both cells are skipped and missing
    cells read as blank; any other row that does not parse is a DataError
    naming its physical line.
    """
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    get = itemgetter(*cols)
    dates, values = [], []
    for row in _rows(reader, path):
        d, v = (cell.strip() for cell in get(row + [""] * ncol))
        if d or v:
            try:
                dates.append(np.datetime64(d, "D"))
                values.append(float(v))
            except ValueError:
                raise DataError(f"{path}:{reader.line_num}: bad row {row!r}") from None
    return np.array(dates, dtype="datetime64[D]"), np.array(values, dtype=float)


def _read_columns(path):
    """Dates, values and whether they are prices, from a CSV file with a
    header row, in the columns `_column_rule` picks.

    Column names match header cells stripped and lower-cased, so `Date`,
    ` date ` and `date` name the same column.  The rows after the header go
    to NumPy's C reader unless `_csv_only` says otherwise; what it does not
    take goes to `_csv_columns`, the only source of a row's DataError.
    """
    with _open_csv(path) as fh:
        header = next(_rows(csv.reader(fh), path), None)
        if header is None:
            raise DataError(f"{path}: empty file, header row required")
        *cols, prices = _column_rule(path, [cell.strip().lower() for cell in header])
        columns = None if _csv_only(path) else _loadtxt_columns(fh, cols)
        return (*(columns or _csv_columns(fh, path, cols, len(header))), prices)


def load_returns(path, symbol: str = "") -> ReturnSeries:
    """Load a return or a price CSV with a header row and ISO-8601 dates.

    The header decides the kind; its cells match stripped and lower-cased.
    A header with a `value` column is a return file, as written by
    :meth:`ReturnSeries.write_csv`: it needs a `date` column too, and its
    rows must come sorted by date.  Any other header of two or more columns
    is a price file: dates from the `date` column, else the first column;
    prices from the first of `close`, `adj close`, `adj_close` and `price`,
    else the second column.  Price rows are sorted by date and turned into
    negative log-returns in percent, -100*log(P_i / P_{i-1}), each dated at
    the later price.  Duplicate dates and non-positive prices are hard
    errors rather than silently repaired.

    The rows are read in two stages.  NumPy's C reader (`np.loadtxt`)
    takes a file without quotes in which every non-empty line has both
    cells and they parse, and keeps no Python string per line or cell.
    Any other file (a quote, a short row or one blank in both cells, a
    cell it cannot parse, no rows) goes to the `csv` module's reader,
    which strips cells, skips blank rows and names a bad row by its
    physical line.  Both convert with the routines of `np.datetime64` and
    `float`, so a file both take gives the same bits in both.
    """
    symbol = symbol or str(path)
    dates, values, prices = _read_columns(path)
    if prices:
        order = np.argsort(dates, kind="stable")
        dates, values = dates[order], values[order]
        if len(values) < 2:
            raise DataError(f"need at least 2 prices in {symbol!r}")
        if np.any(_finite_floats(values, f"prices {symbol!r}") <= 0):
            raise DataError(f"non-positive price in {symbol!r}")
        _check_dates_increasing(dates, f"prices {symbol!r}")
        dates, values = dates[1:], -100.0 * np.diff(np.log(values))
    return ReturnSeries(dates, values, symbol)


def align_pairs(a: ReturnSeries, b: ReturnSeries) -> PairedReturns:
    """Restrict two return series to the dates present in both.

    Uses strict date intersection: a day survives only if both series have an
    observation for it.
    """
    common, ia, ib = np.intersect1d(a.dates, b.dates, return_indices=True)
    if len(common) == 0:
        raise DataError(f"no common dates between {a.symbol!r} and {b.symbol!r}")
    return PairedReturns(common, a.values[ia], b.values[ib], a.symbol, b.symbol)


def acf(x, max_lag: int) -> np.ndarray:
    """Sample autocorrelation at lags 1..max_lag (biased denominator).

    r_h = sum_{t<=n-h} (x_t - xbar)(x_{t+h} - xbar) / sum_t (x_t - xbar)^2
    """
    n = len(x)
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if n <= max_lag:
        raise ValueError(f"series length {n} must exceed max_lag {max_lag}")
    x = _finite_floats(x, "acf sample")
    # an exact power-of-two scale keeps the sum of squares finite; einsum, not
    # BLAS's `@`, keeps the sums independent of the BLAS thread count
    x = np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])
    centered = x - x.mean()
    denom = float(np.einsum("i,i->", centered, centered))
    if denom == 0.0:
        raise DataError("zero-variance series has no autocorrelation")
    out = np.empty(max_lag)
    for h in range(1, max_lag + 1):
        out[h - 1] = float(np.einsum("i,i->", centered[:-h], centered[h:])) / denom
    return out
