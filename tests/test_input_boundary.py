"""Input boundary: estimators refuse non-finite data, functions refuse
arguments outside their domain, and the CLI answers any malformed file with
exit 0, or with exit 1 and a single `error:` line."""

import contextlib
import functools
import io
import tempfile
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import evtrisk as ev
from evtrisk import ingest
from evtrisk.cli import main
from evtrisk.errors import DataError, EstimationError

CLEAN = ev.sim_pareto(3.0, 1000, 0)
CLEAN_FIT = ev.hill(CLEAN, 50)
CLEAN_THETA = ev.extremal_index_sliding(CLEAN, 20)
PARAMS = ev.ArGarchParams(0.0, 0.0, 1.0, 0.1, 0.8)
CLEAN_FILTERED = ev.filter_series(CLEAN, PARAMS)
ESTIMATORS = {
    "hill": lambda x: ev.hill(x, 50),
    "hill_corrected": lambda x: ev.hill_corrected(x, 50),
    "weissman_quantile": lambda x: ev.weissman_quantile(x, 0.999, 50, CLEAN_FIT),
    "pareto_qq_points": lambda x: ev.pareto_qq_points(x, 50),
    "empirical_quantile": lambda x: ev.empirical_quantile(x, 0.99),
    "extremal_index_sliding": lambda x: ev.extremal_index_sliding(x, 20),
    "theta_ci_likelihood": lambda x: ev.theta_ci(CLEAN_THETA, x, method="exp_likelihood"),
    "chi_hat": lambda x: ev.chi_hat(x, np.roll(x, 1), 50),
    "chi_hat_second_margin": lambda x: ev.chi_hat(np.roll(x, 1), x, 50),
    "fit_qmle": lambda x: ev.fit_qmle(x, compute_se=False),
    "filter_series": lambda x: ev.filter_series(x, PARAMS),
    "rank_gap_keep_mask": lambda x: ev.rank_gap_keep_mask(x, 9),
    "block_maxima_sliding": lambda x: ev.block_maxima_sliding(x, 20),
    "exceedances_realized": lambda x: ev.exceedances(x, np.zeros_like(x), 0.01),
    "exceedances_forecasts": lambda x: ev.exceedances(np.zeros_like(x), x, 0.01),
    "forecast_next": lambda x: ev.forecast_next(CLEAN_FILTERED, x[0]),
    "acf": lambda x: ev.acf(x, 5),
    # the bad value is the last day, which no window fits: the roll's own check refuses it
    "roll_conditional": lambda x: ev.roll_conditional(np.r_[x[1:300], x[0]], window=299,
                                                      methods=("empirical",)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", list(ESTIMATORS))
def test_estimators_refuse_non_finite_input(name, bad):
    x = CLEAN.copy()
    ESTIMATORS[name](x)  # the clean sample is accepted
    x[0] = bad
    with pytest.raises(DataError, match="non-finite"):
        ESTIMATORS[name](x)


DATES = np.datetime64("2020-01-01") + np.arange(3)
NON_POSITIVE_TAIL = np.r_[-np.ones(10), 1.0, 2.0]
FRECHET_2 = functools.partial(ev.sim_frechet, 2.0)
# calls outside a function's domain: name -> (call, error, message)
DOMAIN_ERRORS = {
    "return-series-lengths": (lambda: ev.ReturnSeries(DATES, np.ones(2)), DataError,
                              "equal length"),
    "acf-max-lag-0": (lambda: ev.acf(CLEAN, 0), ValueError, "max_lag must be >= 1"),
    "acf-zero-variance": (lambda: ev.acf(np.ones(10), 2), DataError, "zero-variance"),
    "filter_series-one-obs": (lambda: ev.filter_series(CLEAN[:1], PARAMS),
                              EstimationError, "at least two observations"),
    "forecast_next-empty": (lambda: ev.forecast_next(
        replace(CLEAN_FILTERED, sigma=np.empty(0), resid=np.empty(0)), 0.0),
        EstimationError, "empty filtered series"),
    "exceedance-series-p": (lambda: ev.ExceedanceSeries(np.zeros(5), 1.0),
                            ValueError, r"p must be in \(0, 1\)"),
    "sliding_backtest-level": (lambda: ev.sliding_backtest(
        ev.ExceedanceSeries(np.zeros(5), 0.01), 3, level=1.5),
        ValueError, r"level must be in \(0, 1\)"),
    "roll_unconditional-step-0": (lambda: ev.roll_unconditional(
        CLEAN, window=100, step=0, methods=("empirical",)),
        ValueError, "window and step must be >= 1"),
    "roll_conditional-window-0": (lambda: ev.roll_conditional(
        CLEAN, window=0, methods=("empirical",)),
        ValueError, "window and step must be >= 1"),
    "roll_conditional-short-window": (lambda: ev.roll_conditional(CLEAN[:301], window=300),
                                      EstimationError, "method corrected at k_alpha 200 "
                                      "fails on window 300: Hill estimator needs"),
    "uc_test-empty": (lambda: ev.uc_test(ev.ExceedanceSeries(np.zeros(0), 0.01)),
                      ValueError, "at least one indicator"),
    "ind_test-one": (lambda: ev.ind_test(ev.ExceedanceSeries(np.zeros(1), 0.01)),
                     ValueError, "at least two indicators"),
    "resample_indices-n1": (lambda: ev.resample_indices(1, ev.BootstrapSpec(), 0),
                            ValueError, "need n >= 2"),
    "rank_gap_keep_mask-day-index": (lambda: ev.rank_gap_keep_mask(CLEAN, 9, np.arange(5)),
                                     ValueError, "one ordinal per value"),
    "t_copula_chi-rho": (lambda: ev.t_copula_chi(-1.0, 4.0), ValueError, "rho must be"),
    "t_copula_chi-df": (lambda: ev.t_copula_chi(0.5, 0.0), ValueError, "df must be positive"),
    "sim_argarch-n": (lambda: ev.sim_argarch(PARAMS, 0, 0), ValueError, "n must be positive"),
    "sim_frechet-n": (lambda: ev.sim_frechet(2.0, 0, 0), ValueError, "n must be positive"),
    "sim_duplicated-n": (lambda: ev.sim_duplicated(FRECHET_2, 2, 0, 0),
                         ValueError, "n must be positive"),
    "sim_duplicated-m": (lambda: ev.sim_duplicated(FRECHET_2, 0, 10, 0),
                         ValueError, "m must be a positive integer"),
    "qq_slope_alpha-one-point": (lambda: ev.qq_slope_alpha([[1.0, 0.0]]),
                                 EstimationError, "at least two"),
    "qq_slope_alpha-constant-u": (lambda: ev.qq_slope_alpha([[1.0, 0.0], [1.0, 1.0]]),
                                  EstimationError, "constant abscissa"),
    "qq_slope_alpha-falling": (lambda: ev.qq_slope_alpha([[0.0, 1.0], [1.0, 0.0]]),
                               EstimationError, "nonpositive quantile-plot slope"),
    "pareto_qq_points-non-positive": (lambda: ev.pareto_qq_points(NON_POSITIVE_TAIL, 5),
                                      EstimationError, "positive for the log plot"),
    "hill-equal-top": (lambda: ev.hill(np.ones(10), 3),
                       EstimationError, "Hill estimate degenerate"),
    "hill_corrected-equal-top": (lambda: ev.hill_corrected(np.ones(10), 3),
                                 EstimationError, "Hill estimate degenerate"),
    "weissman_quantile-p": (lambda: ev.weissman_quantile(CLEAN, 1.0, 50, CLEAN_FIT),
                            ValueError, r"p must be in \(0, 1\)"),
    "weissman_quantile-anchor": (lambda: ev.weissman_quantile(NON_POSITIVE_TAIL, 0.99, 3,
                                                              CLEAN_FIT),
                                 EstimationError, "anchor order statistic"),
    "tail_index_trace-method": (lambda: ev.tail_index_trace(CLEAN, [50], method="pickands"),
                                ValueError, "unknown method 'pickands'"),
    "tail_fit-gamma-0": (lambda: ev.TailFit(gamma=0.0, k_alpha=5),
                         EstimationError, "extreme value index must be positive"),
}


@pytest.mark.parametrize("name", list(DOMAIN_ERRORS))
def test_functions_refuse_arguments_outside_their_domain(name):
    call, error, message = DOMAIN_ERRORS[name]
    with pytest.raises(error, match=message):
        call()


# a cell past the csv module's default field size limit (131,072 characters)
LONG_CELL = "x" * 200_000


@pytest.mark.parametrize("text, line", [
    (f"date,value\n2020-01-01,1.0\n2020-01-02,{LONG_CELL}\n", 3),
    (f"date,value,{LONG_CELL}\n2020-01-01,1.0,0\n", 1),
    (f"date,value,note\n2020-01-01,1.0,x\r\n2020-01-02,1.0,{LONG_CELL}\n", 3),
    (f"date,value,note\n2020-01-01,1.0,{LONG_CELL}", 2),
], ids=["value-cell", "header-cell", "unread-cell", "unread-cell-last-line"])
def test_cell_past_the_csv_field_limit_is_a_data_error(tmp_path, capsys, text, line):
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"in.csv:{line}: field larger than field limit"):
        ev.load_returns(path)
    assert main(["acf", "--input", str(path), "--out-dir", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}:{line}: field larger")


# cells a malformed return or price file is built from
CELLS = st.one_of(
    st.sampled_from(["", " ", "nan", "inf", "-inf", "NaT", "x", "0", "-1",
                     "2020-01-01", "2020-02-30", "1e400", "\"", "date", "value"]),
    st.dates().map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=6),
)
HEADERS = st.one_of(
    st.sampled_from(["date,value", "value,date", "Date,Close", "date,close,value",
                     "date", "", "a,b"]),
    st.lists(st.text(max_size=6), max_size=3).map(",".join),
)


@st.composite
def malformed_csv(draw):
    """A well-formed return or price file of up to 40 rows, then corrupted."""
    prices = draw(st.booleans())
    start = draw(st.dates(min_value=date(1950, 1, 1), max_value=date(2050, 1, 1)))
    values = draw(st.lists(st.floats(0.01, 1e3) if prices else st.floats(-10.0, 10.0),
                           max_size=40))
    rows = [[str(start + timedelta(days=i)), repr(v)] for i, v in enumerate(values)]
    header = "Date,Close" if prices else "date,value"
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["header", "cell", "drop", "extra", "repeat"]))
        if kind == "header":
            header = draw(HEADERS)
            continue
        if not rows:
            continue
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if kind == "extra" or not row:
            row.append(draw(CELLS))
        elif kind == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(CELLS)
        elif kind == "drop":
            row.pop(draw(st.integers(0, len(row) - 1)))
        else:
            rows.insert(draw(st.integers(0, len(rows))), list(row))
    return "\n".join([header, *(",".join(r) for r in rows)]) + "\n"


# every subcommand that reads an input file, with small sizes so it is fast
SUBCOMMANDS = [
    ["tail", "--k-alpha", "3", "--p", "0.99", "--k", "3", "--k-grid", "2:4:1"],
    ["theta", "--block-size", "3"],
    ["decluster", "--method", "weekday", "--weekday", "Mon"],
    ["decluster", "--method", "gap", "--gap-days", "2"],
    ["garch", "--forecast"],
    ["backtest-uncond", "--window", "5", "--step", "2", "--test-len", "2",
     "--methods", "empirical"],
    ["backtest-cond", "--window", "5", "--test-len", "2"],
    ["acf", "--max-lag", "2"],
]


# derandomized so every run of the suite draws the same 50 files
@settings(max_examples=50, deadline=None, derandomize=True)
@given(text=malformed_csv())
def test_cli_contract_on_malformed_files(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_text(text, encoding="utf-8")
        runs = [[*argv, "--input", str(path)] for argv in SUBCOMMANDS]
        runs.append(["chi", "--pair", str(path), str(path), "--k", "3"])
        for argv in runs:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([*argv, "--out-dir", str(Path(tmp) / "out")])
            lines = err.getvalue().splitlines()
            if code == 0:
                assert not lines, argv
            else:
                assert code == 1, argv
                assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)


@st.composite
def reader_variant(draw):
    """A `malformed_csv` file with cells padded, quoted, added or dropped,
    each line ended by LF, CRLF or CR, and maybe a leading byte-order mark."""
    lines = draw(malformed_csv()).split("\n")[:-1]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        cells = lines[at].split(",")
        j = draw(st.integers(0, len(cells) - 1))
        kind = draw(st.sampled_from(["padded", "quoted", "extra", "missing"]))
        if kind == "padded":
            pad = draw(st.sampled_from([" ", "  ", "\t"]))
            cells[j] = pad + cells[j] + draw(st.sampled_from(["", pad]))
        elif kind == "quoted":
            cells[j] = f'"{cells[j]}"'
        elif kind == "extra":
            cells.insert(j + 1, draw(CELLS))
        else:
            del cells[j]
        lines[at] = ",".join(cells)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    return "\ufeff" * draw(st.booleans()) + "".join(map(str.__add__, lines, ends))


def _loaded(path):
    """The date and value bytes `load_returns` gives, or its error's type and text."""
    try:
        series = ev.load_returns(path)
    except Exception as err:
        return type(err).__name__, str(err)
    return series.dates.tobytes(), series.values.tobytes()


# derandomized so every run of the suite draws the same files; the examples
# are quoted cells that hold a line end, and commas before the used columns
@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=reader_variant())
@example(text='date,value,note\n2020-01-01,1.5,"x\n2020-01-02,2.5,y"\n')
@example(text='note,date,value\n"a,2020-01-01,1.5,b",2020-01-02,2.5\n')
def test_load_returns_equals_the_csv_reader_alone(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_text(text, encoding="utf-8", newline="")
        got = _loaded(path)
        with mock.patch.object(ingest, "_loadtxt_columns", return_value=None):
            assert got == _loaded(path)
