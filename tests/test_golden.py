"""Golden CLI reports: every subcommand on simulated inputs, against expected files.

The `sim` subcommand writes the inputs at test time from fixed seeds, so no
data file is needed.  Each case's JSON report must match
``tests/golden/<case>.json``: integers, strings and booleans exactly, and
floats at a relative tolerance of 1e-9, or of 1e-4 in the cases whose
report derives from a QMLE fit.  These are the ``EXACT_RTOL`` and
``FIT_RTOL`` of ``perfbench/workloads.py``: a fit is pinned down only to
the optimizer's tolerance, everything else is fixed arithmetic.

Every CSV a case writes (plot data and series, as its manifest lists them)
must match ``tests/golden/<case>/<name>``: numeric cells at the case's
tolerance, every other cell exactly.  Each case's manifest must match
``tests/golden/<case>.manifest.json`` in the same way, except that its
``inputs`` are compared by path only: the input hashes follow the last bits
of the sim CSVs, which the sim cases already compare at tolerance.

The expected files are written by running this module as a script, see
`write_expected`.
"""

import csv
import io
import json
import os
from pathlib import Path

import pytest

from evtrisk.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

FIT_RTOL = 1e-4
EXACT_RTOL = 1e-9
ATOL = 1e-12

GARCH = ["--mu", "-0.05", "--phi", "0.066", "--omega", "0.011", "--a", "0.099",
         "--b", "0.894", "--innovation", "student_t", "--df", "5"]
BOOT = ["--boot-reps", "49", "--boot-mean-block", "50", "--boot-seed", "3"]

# (case, argv, rtol); the sim cases write the inputs of the later ones
CASES = [
    ("sim_argarch_a", ["sim", "--model", "argarch", *GARCH, "--n", "1500",
                       "--seed", "3", "--out", "garch_a.csv"], EXACT_RTOL),
    ("sim_argarch_b", ["sim", "--model", "argarch", *GARCH, "--n", "1500",
                       "--seed", "4", "--out", "garch_b.csv"], EXACT_RTOL),
    # window 200 plus 252 forecast days: the roll refits cold on its
    # first day and again on its 251st
    ("sim_argarch_roll", ["sim", "--model", "argarch", *GARCH, "--n", "452",
                          "--seed", "5", "--out", "roll.csv"], EXACT_RTOL),
    ("sim_pareto", ["sim", "--model", "pareto", "--alpha", "3", "--n", "2000",
                    "--seed", "7", "--out", "pareto.csv"], EXACT_RTOL),
    ("sim_frechet", ["sim", "--model", "frechet", "--alpha", "1", "--n", "2000",
                     "--seed", "5", "--out", "frechet.csv"], EXACT_RTOL),
    ("sim_dup", ["sim", "--model", "dup", "--alpha", "1", "--m", "3", "--n", "2000",
                 "--seed", "2", "--out", "dup.csv"], EXACT_RTOL),
    ("tail_hill", ["tail", "--input", "pareto.csv", "--k-alpha", "200", "--p", "0.999",
                   "--k-grid", "50:400:50", "--ci", *BOOT], EXACT_RTOL),
    ("tail_corrected", ["tail", "--input", "frechet.csv", "--method", "corrected",
                        "--k-alpha", "300", "--p", "0.99", "--k", "100"], EXACT_RTOL),
    ("tail_qq", ["tail", "--input", "pareto.csv", "--method", "qq",
                 "--k-alpha", "200"], EXACT_RTOL),
    ("theta_lik", ["theta", "--input", "dup.csv", "--block-size", "40"], EXACT_RTOL),
    ("theta_boot_grid", ["theta", "--input", "dup.csv", "--block-grid", "20:80:20",
                         "--block-size", "50", "--ci", "boot", "--level", "0.9",
                         *BOOT], EXACT_RTOL),
    ("theta_boot", ["theta", "--input", "garch_a.csv", "--block-size", "30",
                    "--ci", "boot", *BOOT], EXACT_RTOL),
    ("decluster_weekday", ["decluster", "--input", "garch_a.csv", "--method",
                           "weekday", "--weekday", "wed"], EXACT_RTOL),
    ("decluster_gap", ["decluster", "--input", "garch_a.csv", "--method", "gap",
                       "--gap-days", "9"], EXACT_RTOL),
    ("garch", ["garch", "--input", "garch_a.csv", "--filter-out", "resid.csv",
               "--forecast", "--resid-method", "hill"], FIT_RTOL),
    ("backtest_uncond", ["backtest-uncond", "--input", "garch_a.csv", "--window", "500",
                         "--step", "100", "--test-len", "100,400"], EXACT_RTOL),
    ("backtest_cond", ["backtest-cond", "--input", "roll.csv", "--window", "200",
                       "--methods", "hill,empirical", "--test-len", "50,100"], FIT_RTOL),
    ("chi", ["chi", "--pair", "garch_a.csv", "garch_b.csv", "--k", "100",
             "--k-grid", "50:200:50", "--ci", *BOOT], EXACT_RTOL),
    ("chi_residuals", ["chi", "--pair", "garch_a.csv", "garch_b.csv", "--k", "100",
                       "--residuals"], FIT_RTOL),
    ("acf", ["acf", "--input", "garch_a.csv", "--max-lag", "10"], EXACT_RTOL),
]


def run_cases(workdir: Path) -> dict:
    """{case: (report text, manifest text, {CSV name: CSV text})} of every
    case, run in order inside workdir.

    Paths are relative to workdir, so the outputs do not depend on it.  The
    sim cases write their series and reports to workdir itself.
    """
    outputs = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for case, argv, _ in CASES:
            out_dir = Path("." if argv[0] == "sim" else case)
            assert main([*argv, "--out-dir", str(out_dir)]) == 0, case
            prefix = argv[0].replace("-", "_")
            manifest = (out_dir / f"{prefix}_manifest.json").read_text()
            csvs = {name: (out_dir / name).read_text()
                    for name in json.loads(manifest)["outputs"] if name.endswith(".csv")}
            outputs[case] = ((out_dir / f"{prefix}_report.json").read_text(), manifest, csvs)
    finally:
        os.chdir(cwd)
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("golden"))


def _assert_matches(got, want, rtol: float, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_matches(got[key], want[key], rtol, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, rtol, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert abs(got - want) <= rtol * max(abs(got), abs(want)) + ATOL, \
            f"{where}: {got!r} != {want!r} at rtol {rtol}"
    else:  # int, str, bool, None: equal and of the same type
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _csv_cells(text: str) -> list:
    """Rows of a CSV, each cell a float where it parses as one, else its text."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    return [[cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def _manifest_fields(text: str) -> dict:
    """A manifest with its input hashes dropped: `inputs` becomes its sorted paths."""
    manifest = json.loads(text)
    manifest["inputs"] = sorted(manifest["inputs"])
    return manifest


@pytest.mark.parametrize("case, rtol", [(case, rtol) for case, _, rtol in CASES])
def test_report_matches_golden(outputs, case, rtol):
    report, manifest, csvs = outputs[case]
    want = json.loads((GOLDEN / f"{case}.json").read_text())
    _assert_matches(json.loads(report), want, rtol, case)
    _assert_matches(_manifest_fields(manifest),
                    _manifest_fields((GOLDEN / f"{case}.manifest.json").read_text()),
                    rtol, f"{case} manifest")
    expected = GOLDEN / case
    want_names = sorted(str(p.relative_to(expected)) for p in expected.rglob("*.csv"))
    assert sorted(csvs) == want_names, case
    for name, text in csvs.items():
        _assert_matches(_csv_cells(text), _csv_cells((expected / name).read_text()),
                        rtol, f"{case}/{name}")


def _matches(got, want, rtol: float) -> bool:
    try:
        _assert_matches(got, want, rtol, "")
    except AssertionError:
        return False
    return True


def write_expected() -> None:
    """Rewrite tests/golden/ from the code as it stands.

    Run this only on the parent commit of a change, before the change
    touches src/, and never to make a failing case pass: the expected files
    must record what the code did before the change, not what it does now.
    A file the new output matches at its case's tolerance is left as it is,
    so a rewrite on another CPU does not churn the last digits of a fit.
    """
    import tempfile

    rtols = {case: rtol for case, _, rtol in CASES}
    with tempfile.TemporaryDirectory() as tmp:
        for case, (report, manifest, csvs) in run_cases(Path(tmp)).items():
            files = {GOLDEN / f"{case}.json": (report, json.loads),
                     GOLDEN / f"{case}.manifest.json": (manifest, _manifest_fields)}
            files.update({GOLDEN / case / name: (text, _csv_cells)
                          for name, text in csvs.items()})
            for path, (text, parse) in files.items():
                if not (path.exists()
                        and _matches(parse(text), parse(path.read_text()), rtols[case])):
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(text)


if __name__ == "__main__":
    write_expected()
