"""Command-line interface: subcommand artifacts, manifests, exit codes."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import evtrisk as ev
from evtrisk import cli
from evtrisk.cli import main


def _run(*argv):
    return main([str(a) for a in argv])


def _read_json(path):
    return json.loads(path.read_text())


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def pareto_csv(tmp_path):
    out = tmp_path / "gen"
    assert _run("sim", "--model", "pareto", "--alpha", 3, "--n", 3000,
                "--seed", 7, "--out", "pareto.csv", "--out-dir", out) == 0
    return out / "pareto.csv"


@pytest.fixture()
def argarch_csv(tmp_path):
    out = tmp_path / "gen"
    assert _run("sim", "--model", "argarch", "--mu", -0.05, "--phi", 0.066,
                "--omega", 0.011, "--a", 0.099, "--b", 0.894,
                "--n", 1200, "--seed", 3, "--out", "garch.csv",
                "--out-dir", out) == 0
    return out / "garch.csv"


def test_no_arguments_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_input_exits_1(tmp_path, capsys):
    code = _run("tail", "--input", tmp_path / "absent.csv",
                "--k-alpha", 50, "--out-dir", tmp_path)
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err and "\n" not in err  # single-line diagnostic


@pytest.mark.parametrize("content", ["", "date\n2020-01-01\n2020-01-02\n"])
def test_malformed_header_exits_1(tmp_path, capsys, content):
    bad = tmp_path / "bad.csv"
    bad.write_text(content)
    code = _run("acf", "--input", bad, "--out-dir", tmp_path / "o")
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err


def test_short_return_row_exits_1(tmp_path, capsys):
    bad = tmp_path / "short.csv"
    bad.write_text("date,value\n2020-01-01,0.1\n2020-01-02\n")
    code = _run("acf", "--input", bad, "--out-dir", tmp_path / "o")
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err


def test_wrapped_date_exits_1(tmp_path, capsys):
    bad = tmp_path / "far.csv"
    bad.write_text("date,value\n2020-01-01,0.1\n99999999999999999999-01-01,0.2\n"
                   "2020-01-03,0.3\n")
    code = _run("acf", "--input", bad, "--out-dir", tmp_path / "o")
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "outside" in err and "\n" not in err


def test_unsorted_return_dates_exit_1(tmp_path, capsys):
    # price files are sorted on load; a return file must come sorted
    bad = tmp_path / "unsorted.csv"
    bad.write_text("date,value\n2020-01-02,0.1\n2020-01-01,0.2\n2020-01-03,0.3\n")
    code = _run("acf", "--input", bad, "--max-lag", 1, "--out-dir", tmp_path / "o")
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: dates not sorted at 2020-01-01 in returns {str(bad)!r}\n")


def test_domain_error_exits_1(pareto_csv, tmp_path, capsys):
    code = _run("theta", "--input", pareto_csv, "--out-dir", tmp_path)
    assert code == 1  # neither --block-size nor --block-grid given
    assert capsys.readouterr().err.strip()


@pytest.mark.parametrize("argv, message", [
    (["tail", "--k-alpha", 100, "--k-grid", "50:10:5"], "grid must have step >= 1"),
    (["tail", "--k-alpha", 100, "--k-grid", "a:b"], "grid must be lo:hi:step"),
    (["backtest-uncond", "--methods", "hill,foo"], "unknown methods ['foo']"),
    (["decluster", "--method", "weekday"], "--weekday is required"),
    (["decluster", "--method", "gap"], "--gap-days is required"),
    (["backtest-uncond", "--step", 0], "window and step must be >= 1"),
    (["backtest-cond", "--step", 0], "window and step must be >= 1"),
    (["backtest-uncond", "--window", 0], "window and step must be >= 1"),
    (["backtest-uncond", "--level", 1.5, "--test-len", 250], "level must be in (0, 1)"),
    (["backtest-cond", "--level", 1.5], "level must be in (0, 1)"),
    (["backtest-uncond", "--p", 1.5], "p must be in (0, 1), got 1.5"),
    (["backtest-cond", "--p", 1.5], "p must be in (0, 1), got 1.5"),
    (["theta", "--block-size", 100, "--ci", "boot", "--boot-mean-block", "inf"],
     "mean_block must be finite and >= 1, got inf"),
    (["tail", "--k-alpha", 100, "--ci", "--boot-seed", -1], "seed must be >= 0, got -1"),
    (["tail", "--k-alpha", 100, "--k-grid", "25:3000:25"],
     "grid '25:3000:25' must end below the sample length n=3000"),
    (["theta", "--block-grid", "2000:3000:1000"],
     "grid '2000:3000:1000' must end below the sample length n=3000"),
    (["backtest-uncond", "--methods", ","],
     "methods must be one or more distinct names, got ','"),
    (["backtest-cond", "--methods", ","],
     "methods must be one or more distinct names, got ','"),
    (["backtest-uncond", "--methods", "hill,hill"],
     "methods must be one or more distinct names, got 'hill,hill'"),
    (["backtest-cond", "--methods", "hill, hill"],
     "methods must be one or more distinct names, got 'hill, hill'"),
], ids=["grid-descending", "grid-not-integers", "unknown-method", "weekday-missing",
        "gap-days-missing", "uncond-step-0", "cond-step-0", "uncond-window-0",
        "uncond-level-1.5", "cond-level-1.5", "uncond-p-1.5", "cond-p-1.5",
        "boot-mean-block-inf", "boot-seed-negative",
        "tail-grid-past-n", "theta-grid-past-n", "uncond-methods-empty", "cond-methods-empty",
        "uncond-methods-repeated", "cond-methods-repeated"])
def test_bad_option_value_exits_1_with_one_error_line(pareto_csv, tmp_path, capsys,
                                                      monkeypatch, argv, message):
    rolls = []
    for name in ("roll_conditional", "roll_unconditional"):
        monkeypatch.setattr(cli, name, _spy(getattr(cli, name), rolls))
    code = _run(*argv, "--input", pareto_csv, "--out-dir", tmp_path / "o")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()
    if {"--level", "--methods", "--p"} & set(argv):  # refused before the roll
        assert rolls == []


def _spy(func, calls):
    """func, recording each call in calls."""
    def spy(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)
    return spy


# 1,200 aligned dates of argarch_csv leave 1,199 residuals
@pytest.mark.parametrize("command, argv, fit, message", [
    ("chi", ["--k", 1199, "--residuals"], "residual_pair",
     "k must satisfy 1 <= k < n, got k=1199, n=1199"),
    ("chi", ["--k", 60, "--residuals", "--ci", "--ci-level", 1.5], "residual_pair",
     "level must be in (0, 1), got 1.5"),
    ("chi", ["--k", 60, "--residuals", "--ci", "--boot-reps", 0], "residual_pair",
     "replicates must be >= 1, got 0"),
    ("chi", ["--k", 60, "--residuals", "--k-grid", "0:100:10"], "residual_pair",
     "grid must have step >= 1 and hi >= lo >= 1, got '0:100:10'"),
    ("garch", ["--forecast", "--p", 1.5], "fit_qmle", "p must be in (0, 1), got 1.5"),
    ("tail", ["--k-alpha", 100, "--ci", "--p", 1.5], "percentile_ci",
     "p must be in (0, 1), got 1.5"),
    ("tail", ["--k-alpha", 100, "--ci", "--p", 0.99, "--k", 1200], "percentile_ci",
     "k must satisfy 1 <= k < n, got k=1200, n=1200"),
    ("theta", ["--block-size", 100, "--level", 1.5], "theta_sweep",
     "level must be in (0, 1), got 1.5"),
], ids=["chi-k-past-residuals", "chi-ci-level-1.5", "chi-boot-reps-0", "chi-grid-from-0",
        "garch-forecast-p-1.5", "tail-ci-p-1.5", "tail-ci-k-past-n", "theta-lik-level-1.5"])
def test_option_checked_without_a_fit_is_refused_before_it(
        argarch_csv, tmp_path, capsys, monkeypatch, command, argv, fit, message):
    fits = []
    monkeypatch.setattr(cli, fit, _spy(getattr(cli, fit), fits))
    inputs = ["--pair", argarch_csv, argarch_csv] if command == "chi" else [
        "--input", argarch_csv]
    code = _run(command, *inputs, *argv, "--out-dir", tmp_path / "o")
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert fits == [] and not (tmp_path / "o").exists()


def test_chi_grid_past_the_residual_length_is_refused_before_the_fits(
        argarch_csv, tmp_path, capsys, monkeypatch):
    # 1,200 aligned dates leave 1,199 residuals, so k = 1,199 is past the end
    fits = []
    monkeypatch.setattr(cli, "residual_pair", fits.append)
    code = _run("chi", "--pair", argarch_csv, argarch_csv, "--k", 60, "--residuals",
                "--k-grid", "1000:1199:199", "--out-dir", tmp_path / "o")
    assert code == 1
    assert capsys.readouterr().err == (
        "error: grid '1000:1199:199' must end below the sample length n=1199\n")
    assert fits == [] and not (tmp_path / "o").exists()


def _run_capped(*argv):
    """The CLI in a child process that caps its own address space at 3 GiB,
    so a request for terabytes fails at once instead of taking the machine."""
    script = ("import resource, sys; "
              "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
              "from evtrisk.cli import main; sys.exit(main(sys.argv[1:]))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)


capped = pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")


@capped
def test_huge_grid_is_refused_before_it_is_built(pareto_csv, tmp_path):
    # 1e12 grid points would take 7.3 TiB
    proc = _run_capped("tail", "--input", pareto_csv, "--k-alpha", 100,
                       "--k-grid", "25:1000000000000:1", "--out-dir", tmp_path / "o")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == (
        "error: grid '25:1000000000000:1' must end below the sample length n=3000\n")


@capped
def test_sim_dup_with_a_huge_factor_needs_memory_for_n_values_only(tmp_path):
    # one base draw repeated 1e12 times would take 7.3 TiB before the cut to n
    proc = _run_capped("sim", "--model", "dup", "--m", 10 ** 12, "--n", 10,
                       "--out", "dup.csv", "--out-dir", tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "dup.csv").read_text().splitlines()[1:]
    assert len(rows) == 10 and len({row.split(",")[1] for row in rows}) == 1


@capped
def test_sim_past_the_memory_limit_exits_1_with_one_error_line(tmp_path):
    proc = _run_capped("sim", "--model", "pareto", "--n", 10 ** 12, "--out-dir", tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_sim_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run("sim", "--model", "pareto", "--alpha", 2, "--n", 100,
                    "--seed", 7, "--out", "x.csv", "--out-dir", out) == 0
    assert (a / "x.csv").read_bytes() == (b / "x.csv").read_bytes()
    assert (a / "sim_report.json").read_bytes() == (b / "sim_report.json").read_bytes()


def test_sim_with_an_infinite_df_exits_1_naming_df(tmp_path, capsys):
    # the t standardization sqrt((df - 2) / df) is inf / inf there
    code = _run("sim", "--model", "argarch", "--mu", -0.05, "--phi", 0.066,
                "--omega", 0.011, "--a", 0.099, "--b", 0.894, "--innovation", "student_t",
                "--df", "inf", "--n", 100, "--seed", 3, "--out-dir", tmp_path / "o")
    assert code == 1
    assert capsys.readouterr().err == (
        "error: student_t innovations need a finite df > 2, got inf\n")
    assert not (tmp_path / "o").exists()


def test_rerun_into_same_dir_is_stable(pareto_csv, tmp_path):
    out = tmp_path / "tail"
    args = ("tail", "--input", pareto_csv, "--k-alpha", 100, "--p", 0.99,
            "--k", 100, "--out-dir", out)
    assert _run(*args) == 0
    first = {p.name: _sha(p) for p in out.iterdir()}
    assert _run(*args) == 0
    second = {p.name: _sha(p) for p in out.iterdir()}
    assert first == second  # no timestamps or other run-varying content


def test_commands_do_not_mutate_input(pareto_csv, tmp_path):
    before = _sha(pareto_csv)
    _run("tail", "--input", pareto_csv, "--k-alpha", 100,
         "--out-dir", tmp_path / "o")
    assert _sha(pareto_csv) == before


def test_tail_report_estimates_alpha(pareto_csv, tmp_path):
    out = tmp_path / "tail"
    assert _run("tail", "--input", pareto_csv, "--method", "hill",
                "--k-alpha", 150, "--p", 0.99, "--k", 150,
                "--k-grid", "50:250:50", "--out-dir", out) == 0
    report = _read_json(out / "tail_report.json")
    assert report["schema_version"] == 1
    assert report["alpha"] == pytest.approx(3.0, rel=0.25)
    assert report["quantile"] == pytest.approx((1 - 0.99) ** (-1 / 3), rel=0.3)
    trace = (out / "tail_trace.csv").read_text().splitlines()
    assert len(trace) == 1 + 5  # header + one row per grid point
    manifest = _read_json(out / "tail_manifest.json")
    assert manifest["inputs"][str(pareto_csv)] == _sha(pareto_csv)
    assert manifest["outputs"] == [
        "tail_report.json", "tail_trace.csv"]
    assert manifest["flags"]["k_alpha"] == 150


def test_only_sim_records_a_seed_flag(pareto_csv, tmp_path):
    assert _run("acf", "--input", pareto_csv, "--out-dir", tmp_path) == 0
    flags = _read_json(tmp_path / "acf_manifest.json")["flags"]
    assert "threads" not in flags and "seed" not in flags
    sim_flags = _read_json(pareto_csv.parent / "sim_manifest.json")["flags"]
    assert sim_flags["seed"] == 7 and "threads" not in sim_flags
    with pytest.raises(SystemExit) as exc:
        main(["acf", "--input", str(pareto_csv), "--seed", "1"])
    assert exc.value.code == 2


def test_tail_bootstrap_ci(pareto_csv, tmp_path):
    out = tmp_path / "tailci"
    assert _run("tail", "--input", pareto_csv, "--k-alpha", 150, "--ci",
                "--boot-reps", 99, "--boot-mean-block", 20,
                "--out-dir", out) == 0
    report = _read_json(out / "tail_report.json")
    ci = report["alpha_ci"]
    assert ci["lower"] < report["alpha"] < ci["upper"]
    assert ci["level"] == 0.90


@pytest.mark.parametrize("method, estimate", [
    ("hill", lambda x, k: ev.hill(x, k)),
    ("corrected", lambda x, k: ev.hill_corrected(x, k, rho=-0.8)),
    ("qq", lambda x, k: ev.qq_slope_alpha(ev.pareto_qq_points(x, k))),
])
def test_tail_methods_match_library_calls(pareto_csv, tmp_path, method, estimate):
    out = tmp_path / method
    assert _run("tail", "--input", pareto_csv, "--method", method,
                "--k-alpha", 150, "--rho", -0.8, "--p", 0.995, "--k", 120,
                "--k-grid", "40:200:40", "--ci", "--boot-reps", 49,
                "--boot-mean-block", 20, "--out-dir", out) == 0
    report = _read_json(out / "tail_report.json")
    x = ev.load_returns(pareto_csv).values
    fit = estimate(x, 150)
    assert report["alpha"] == fit.alpha
    assert report["quantile"] == ev.weissman_quantile(x, 0.995, 120, fit)
    spec = ev.BootstrapSpec(replicates=49, mean_block=20.0, seed=0, level=0.90)
    lo, hi, _ = ev.percentile_ci(x, lambda xs: estimate(xs, 150).alpha, spec)
    assert report["alpha_ci"] == {"lower": lo, "upper": hi, "level": 0.90}
    rows = (out / "tail_trace.csv").read_text().splitlines()[1:]
    want = [estimate(x, k) for k in (40, 80, 120, 160, 200)]
    assert rows == [f"{f.k_alpha},{f.alpha!r},{f.gamma!r}" for f in want]


def test_theta_single_block_and_sweep(pareto_csv, tmp_path):
    out = tmp_path / "theta"
    assert _run("theta", "--input", pareto_csv, "--block-size", 100,
                "--out-dir", out) == 0
    report = _read_json(out / "theta_report.json")
    assert report["theta"] == pytest.approx(1.0, abs=0.15)
    assert report["ci"]["lower"] <= report["theta"]
    out2 = tmp_path / "sweep"
    assert _run("theta", "--input", pareto_csv, "--block-grid", "50:150:50",
                "--out-dir", out2) == 0
    rows = (out2 / "theta_trace.csv").read_text().splitlines()
    assert len(rows) == 1 + 3


def test_theta_bootstrap_ci_is_taken_at_level(pareto_csv, tmp_path):
    out = tmp_path / "thetaboot"
    assert _run("theta", "--input", pareto_csv, "--block-size", 100,
                "--ci", "boot", "--boot-reps", 99, "--out-dir", out) == 0
    report = _read_json(out / "theta_report.json")
    x = ev.load_returns(pareto_csv).values
    fit = ev.extremal_index_sliding(x, 100)
    spec = ev.BootstrapSpec(replicates=99, mean_block=200.0, seed=0, level=0.95)
    lo, hi = ev.theta_ci(fit, x, level=0.95, method="block_bootstrap",
                         boot_spec=spec)
    assert report["ci"] == {"lower": lo, "upper": hi, "level": 0.95}
    # the interval at 0.90, the --ci-level default of tail and chi, differs
    narrow = ev.theta_ci(fit, x, level=0.90, method="block_bootstrap",
                         boot_spec=spec)
    assert narrow != (lo, hi)


def test_theta_bootstrap_ci_with_a_huge_mean_block_finishes(pareto_csv, tmp_path):
    # such a mean block draws geometric lengths near or at INT64_MAX, whose
    # sum once overflowed: 1e19 crashed the interpreter and 1e300 never
    # left the draw loop, so each run is a subprocess under a timeout
    script = ("import sys; from evtrisk.cli import main; "
              "sys.exit(main(['theta', '--block-size', '100', '--ci', 'boot', "
              "'--boot-reps', '20', *sys.argv[1:]]))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    x = ev.load_returns(pareto_csv).values
    fit = ev.extremal_index_sliding(x, 100)
    # every length past n is cut to the same block, so a mean block of 1e12
    # gives the same resamples: single blocks, wrapped round the series
    spec = ev.BootstrapSpec(replicates=20, mean_block=1e12)
    lo, hi = ev.theta_ci(fit, x, level=0.95, method="block_bootstrap", boot_spec=spec)
    for mean_block in ("1e19", "1e300"):
        out = tmp_path / mean_block
        proc = subprocess.run([sys.executable, "-c", script, "--boot-mean-block", mean_block,
                               "--input", str(pareto_csv), "--out-dir", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (mean_block, proc.returncode, proc.stderr)
        ci = _read_json(out / "theta_report.json")["ci"]
        assert (ci["lower"], ci["upper"]) == (lo, hi), mean_block


def test_ci_level_is_a_flag_of_tail_and_chi_only(pareto_csv, tmp_path):
    # theta takes the level of either CI from --level
    with pytest.raises(SystemExit) as exc:
        main(["theta", "--input", str(pareto_csv), "--block-size", "100",
              "--ci", "boot", "--boot-reps", "99", "--ci-level", "0.5",
              "--out-dir", str(tmp_path / "theta")])
    assert exc.value.code == 2
    out = tmp_path / "tail"
    assert _run("tail", "--input", pareto_csv, "--k-alpha", 150, "--ci",
                "--boot-reps", 99, "--ci-level", 0.5, "--out-dir", out) == 0
    assert _read_json(out / "tail_report.json")["alpha_ci"]["level"] == 0.5


def test_decluster_weekday_and_gap(argarch_csv, tmp_path):
    out = tmp_path / "wd"
    assert _run("decluster", "--input", argarch_csv, "--method", "weekday",
                "--weekday", "wed", "--out-dir", out) == 0
    report = _read_json(out / "decluster_report.json")
    assert 0 < report["kept"] < 1200
    assert report["kept"] + report["removed"] == 1200
    retained = (out / "decluster_retained.csv").read_text().splitlines()
    assert len(retained) == 1 + report["kept"]

    out2 = tmp_path / "gap"
    assert _run("decluster", "--input", argarch_csv, "--method", "gap",
                "--gap-days", 9, "--out-dir", out2) == 0
    report2 = _read_json(out2 / "decluster_report.json")
    assert report2["kept"] < 1200
    assert report2["gap_days"] == 9


def test_garch_fit_filter_forecast(argarch_csv, tmp_path):
    out = tmp_path / "garch"
    assert _run("garch", "--input", argarch_csv, "--filter-out", "resid.csv",
                "--forecast", "--p", 0.99, "--resid-method", "empirical",
                "--out-dir", out) == 0
    report = _read_json(out / "garch_report.json")
    params = report["params"]
    assert params["a"] + params["b_coef"] < 1
    assert params["omega"] > 0
    assert report["se"]["a"] > 0
    assert report["forecast"]["sigma_next"] > 0
    assert report["forecast"]["quantile"] > report["forecast"]["mu_next"]
    resid = ev.load_returns(out / "resid.csv")
    assert len(resid) == 1200 - 1


def test_garch_where_the_loglik_is_undefined_at_every_start_exits_1(tmp_path, capsys):
    # squared deviations of about 1e-310 make the score overflow at every start
    values = np.random.default_rng(0).standard_t(5, 500) * 1e-155
    dates = (np.datetime64("2000-01-03") + np.arange(500)).astype(str)
    path = tmp_path / "tiny.csv"
    path.write_text("date,value\n" + "".join(f"{d},{v!r}\n" for d, v in zip(dates, values.tolist())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run("garch", "--input", path, "--out-dir", tmp_path / "o")
    assert code == 1
    assert capsys.readouterr().err == "error: QMLE search failed to converge from any start\n"
    assert not (tmp_path / "o").exists()


def test_backtest_uncond_artifacts(pareto_csv, tmp_path):
    out = tmp_path / "bu"
    assert _run("backtest-uncond", "--input", pareto_csv, "--window", 1000,
                "--step", 250, "--test-len", "250", "--methods",
                "hill,empirical", "--out-dir", out) == 0
    report = _read_json(out / "backtest_uncond_report.json")
    assert report["windows"] == 8
    for m in ("hill", "empirical"):
        assert report["mean_counts"][m]["250"] > 0
        tests = report["tests"][m]["250"]
        assert tests["placements"] == 8 * 250 - 250 + 1
        assert 0.0 <= tests["reject_cc"] <= 1.0
    rows = (out / "backtest_uncond_windows.csv").read_text().splitlines()
    assert len(rows) == 1 + 8 * 2  # per window and method


def test_backtest_cond_artifacts(argarch_csv, tmp_path):
    out = tmp_path / "bc"
    assert _run("backtest-cond", "--input", argarch_csv, "--window", 1000,
                "--step", 25, "--test-len", "5", "--methods", "empirical",
                "--out-dir", out) == 0
    report = _read_json(out / "backtest_cond_report.json")
    assert report["days"] == 8
    assert report["refit_failures"] == 0
    assert report["cold_fits"] == 1  # the first fit; the other seven start warm
    assert report["tests"]["empirical"]["5"]["placements"] == 4
    rows = (out / "backtest_cond_days.csv").read_text().splitlines()
    assert len(rows) == 1 + 8


def test_backtest_forecast_cells_are_plain_numbers(pareto_csv, argarch_csv, tmp_path):
    assert _run("backtest-uncond", "--input", pareto_csv, "--window", 1000,
                "--step", 250, "--test-len", "250", "--out-dir", tmp_path) == 0
    assert _run("backtest-cond", "--input", argarch_csv, "--window", 1000,
                "--step", 25, "--test-len", "5", "--out-dir", tmp_path) == 0
    for name in ("backtest_uncond_windows.csv", "backtest_cond_days.csv"):
        with open(tmp_path / name, newline="") as fh:
            cells = [row["forecast"] for row in csv.DictReader(fh)]
        assert cells and all(np.isfinite(float(c)) for c in cells), name


def test_chi_pair_with_ci(tmp_path):
    gen = tmp_path / "gen"
    for name, seed in (("a.csv", 1), ("b.csv", 1)):
        assert _run("sim", "--model", "frechet", "--alpha", 1, "--n", 2000,
                    "--seed", seed, "--out", name, "--out-dir", gen) == 0
    out = tmp_path / "chi"
    assert _run("chi", "--pair", gen / "a.csv", gen / "b.csv", "--k", 100,
                "--ci", "--boot-reps", 99, "--boot-mean-block", 20,
                "--k-grid", "50:150:50", "--out-dir", out) == 0
    report = _read_json(out / "chi_report.json")
    assert report["chi"] == 1.0  # identical margins
    assert report["chi_ci"]["lower"] <= 1.0 <= report["chi_ci"]["upper"]
    rows = (out / "chi_trace.csv").read_text().splitlines()
    assert len(rows) == 1 + 3
    manifest = _read_json(out / "chi_manifest.json")
    assert len(manifest["inputs"]) == 2


def test_acf_artifacts(pareto_csv, tmp_path):
    out = tmp_path / "acf"
    assert _run("acf", "--input", pareto_csv, "--max-lag", 10,
                "--out-dir", out) == 0
    report = _read_json(out / "acf_report.json")
    assert report["band"] == pytest.approx(3.0 / np.sqrt(3000))
    assert report["max_abs_acf"] < 0.1  # i.i.d. input
    rows = (out / "acf_trace.csv").read_text().splitlines()
    assert len(rows) == 1 + 10


def test_price_csv_is_accepted(tmp_path):
    rng = np.random.default_rng(0)
    prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, 400)))
    dates = np.busday_offset(np.datetime64("2001-01-01"), np.arange(400),
                             roll="forward")
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text("Date,Close\n" + "\n".join(
        f"{d},{p:.6f}" for d, p in zip(dates, prices)) + "\n")
    out = tmp_path / "o"
    assert _run("acf", "--input", csv_path, "--max-lag", 5,
                "--out-dir", out) == 0
    assert _read_json(out / "acf_report.json")["n"] == 399


# at 1.28e77 the sum of squares of x ** 2 overflowed; at 1e200 x ** 2 itself does
@pytest.mark.parametrize("big", ["1.28e77", "1e200"])
def test_acf_of_huge_returns_is_exact_and_quiet(tmp_path, capsys, big):
    path = tmp_path / "huge.csv"
    dates = np.arange("2020-01-01", "2020-01-11", dtype="datetime64[D]")
    path.write_text("date,value\n" + "".join(
        f"{d},{v}\n" for d, v in zip(dates, [big] + ["0"] * 9)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run("acf", "--input", path, "--max-lag", 2, "--out-dir", tmp_path / "o")
    assert code == 0 and capsys.readouterr().err == ""
    report = _read_json(tmp_path / "o" / "acf_report.json")
    assert report["max_abs_acf"] == pytest.approx(2 / 90, rel=1e-12)
    assert report["max_abs_acf_squared"] == pytest.approx(2 / 90, rel=1e-12)


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at n = 15,605 OpenBLAS splits a 1-D `a @ b` across threads, so its last
    # bits depend on the thread count; both runs are on one machine, since
    # einsum's summation order may differ between CPUs
    assert _run("sim", "--model", "argarch", "--mu", -0.05, "--phi", 0.066,
                "--omega", 0.011, "--a", 0.099, "--b", 0.894, "--n", 15605,
                "--seed", 3, "--out", "sim.csv", "--out-dir", tmp_path) == 0
    script = ("import sys; from evtrisk.cli import main; args = sys.argv[1:]; "
              "sys.exit(main(['garch', '--forecast', *args]) or main(['acf', *args]))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = tmp_path / threads
        subprocess.run([sys.executable, "-c", script, "--input", str(tmp_path / "sim.csv"),
                        "--out-dir", str(out)], env=env, check=True, timeout=300)
        reports.append([(out / name).read_bytes()
                        for name in ("garch_report.json", "acf_report.json", "acf_trace.csv")])
    assert reports[0] == reports[1]


def _openblas_cores(core_type):
    """The "Core:" lines OpenBLAS prints at start-up with OPENBLAS_CORETYPE set."""
    env = dict(os.environ, OPENBLAS_VERBOSE="2", OPENBLAS_CORETYPE=core_type)
    proc = subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg.lapack"],
                          env=env, capture_output=True, text=True, timeout=120)
    return [line for line in proc.stderr.splitlines() if line.startswith("Core:")]


def test_backtest_cond_does_not_depend_on_the_openblas_kernels(tmp_path):
    # OPENBLAS_CORETYPE picks OpenBLAS's kernels for one process; a BLAS
    # kernel in a fit's arithmetic, such as the forward banded solve, gives
    # each of these three its own days CSV even at this size, and a BLAS
    # product or LAPACK inverse in the sandwich its own garch SEs
    if _openblas_cores("Haswell") == _openblas_cores("Prescott"):
        pytest.skip("OpenBLAS ignores OPENBLAS_CORETYPE here")
    assert _run("sim", "--model", "argarch", "--mu", -0.05, "--phi", 0.066,
                "--omega", 0.011, "--a", 0.099, "--b", 0.894, "--n", 330,
                "--seed", 5, "--out", "sim.csv", "--out-dir", tmp_path) == 0
    script = ("import sys; from evtrisk.cli import main; args = sys.argv[1:]; "
              "sys.exit(main(['backtest-cond', '--window', '300', '--methods', "
              "'hill,empirical', '--test-len', '20', *args]) "
              "or main(['garch', '--forecast', *args]))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for core_type in ("", "Haswell", "Prescott"):  # "" is the default
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if core_type:
            env["OPENBLAS_CORETYPE"] = core_type
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = tmp_path / (core_type or "default")
        subprocess.run([sys.executable, "-c", script, "--input", str(tmp_path / "sim.csv"),
                        "--out-dir", str(out)], env=env, check=True, timeout=300)
        outputs.append([(out / name).read_bytes()
                        for name in ("backtest_cond_report.json", "backtest_cond_days.csv",
                                     "garch_report.json")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_sim_dup_writes_the_duplicated_series(tmp_path):
    out = tmp_path / "dup"
    assert _run("sim", "--model", "dup", "--alpha", 1.5, "--m", 3, "--n", 300,
                "--seed", 5, "--out-dir", out) == 0
    want = ev.sim_duplicated(lambda count, seed: ev.sim_frechet(1.5, count, seed),
                             3, 300, 5)
    np.testing.assert_array_equal(ev.load_returns(out / "sim_series.csv").values, want)
    report = _read_json(out / "sim_report.json")
    assert report["params"] == {"alpha": 1.5, "m": 3, "base": "frechet"}
    assert _read_json(out / "sim_manifest.json")["outputs"] == [
        "sim_report.json", "sim_series.csv"]


def test_chi_residuals_match_library_calls(argarch_csv, tmp_path):
    other = tmp_path / "gen2"
    assert _run("sim", "--model", "argarch", "--mu", 0.0, "--phi", 0.05,
                "--omega", 0.02, "--a", 0.08, "--b", 0.9, "--n", 1200,
                "--seed", 4, "--out", "other.csv", "--out-dir", other) == 0
    out = tmp_path / "chi"
    assert _run("chi", "--pair", argarch_csv, other / "other.csv", "--k", 60,
                "--residuals", "--out-dir", out) == 0
    report = _read_json(out / "chi_report.json")
    pair = ev.residual_pair(ev.align_pairs(ev.load_returns(argarch_csv),
                                           ev.load_returns(other / "other.csv")))
    assert report["residuals"] is True
    assert report["n"] == len(pair) == 1199
    assert report["chi"] == ev.chi_hat(pair.values_a, pair.values_b, 60).chi


def test_manifests_list_series_outputs(argarch_csv, tmp_path):
    assert _read_json(argarch_csv.parent / "sim_manifest.json")["outputs"] == [
        "garch.csv", "sim_report.json"]
    out = tmp_path / "dec"
    assert _run("decluster", "--input", argarch_csv, "--method", "gap",
                "--gap-days", 5, "--out-dir", out) == 0
    assert _read_json(out / "decluster_manifest.json")["outputs"] == [
        "decluster_report.json", "decluster_retained.csv"]
    out = tmp_path / "garch"
    assert _run("garch", "--input", argarch_csv, "--filter-out", "sub/resid.csv",
                "--out-dir", out) == 0
    assert _read_json(out / "garch_manifest.json")["outputs"] == [
        "garch_report.json", "sub/resid.csv"]
    assert len(ev.load_returns(out / "sub" / "resid.csv")) == 1200 - 1


@pytest.mark.parametrize("command, roll", [("backtest-cond", "roll_conditional"),
                                           ("backtest-uncond", "roll_unconditional")])
@pytest.mark.parametrize("test_len", ["1", "250,1", "0", "-5", "100,100"])
def test_short_test_len_exits_1_before_any_fit(argarch_csv, tmp_path, capsys,
                                               monkeypatch, command, roll, test_len):
    def refuse(*args, **kwargs):
        pytest.fail(f"{roll} ran although --test-len {test_len} is refused")

    monkeypatch.setattr(f"evtrisk.cli.{roll}", refuse)
    code = _run(command, "--input", argarch_csv, "--window", 1000,
                "--test-len", test_len, "--out-dir", tmp_path / "o")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def _refuse_constant(name):
    raise ValueError(f"not valid JSON: {name}")


def test_backtest_uncond_leaves_out_lengths_no_window_completes(argarch_csv, tmp_path):
    out = tmp_path / "bu"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run("backtest-uncond", "--input", argarch_csv, "--window", 1000,
                    "--step", 100, "--test-len", "100,5000", "--out-dir", out)
    assert code == 0
    report = json.loads((out / "backtest_uncond_report.json").read_text(),
                        parse_constant=_refuse_constant)
    for m in ("hill", "corrected", "empirical"):
        assert list(report["mean_counts"][m]) == ["100"]
        assert list(report["tests"][m]) == ["100"]


def test_tail_method_choices_are_the_estimator_table(pareto_csv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tail", "--help"])
    assert exc.value.code == 0
    assert "--method {hill,corrected,qq}" in capsys.readouterr().out
    for method in ev.TAIL_ESTIMATORS:
        out = tmp_path / method
        assert _run("tail", "--input", pareto_csv, "--method", method,
                    "--k-alpha", 100, "--out-dir", out) == 0
        assert _read_json(out / "tail_report.json")["method"] == method


def test_theta_grid_degenerate_everywhere_exits_1(tmp_path, capsys):
    # every window of 20 or more days holds one of the spikes
    x = np.random.default_rng(0).uniform(size=400)
    x[::10] = 5.0
    dates = np.busday_offset(np.datetime64("2000-01-03"), np.arange(400), roll="forward")
    ev.ReturnSeries(dates, x).write_csv(tmp_path / "spikes.csv")
    # a grid, and the single block size that takes the same path
    for flags, where in [(["--block-grid", "20:40:10"], "every grid block size"),
                         (["--block-size", "20"], "block size 20")]:
        code = _run("theta", "--input", tmp_path / "spikes.csv", *flags,
                    "--out-dir", tmp_path / "o")
        assert code == 1
        assert capsys.readouterr().err == f"error: extremal index degenerate at {where}\n"
        assert not (tmp_path / "o").exists()


# the arguments of each subcommand that reads --input, sized for the 1,200-day file
INPUT_COMMANDS = {
    "tail": ["--k-alpha", 100, "--p", 0.999],
    "theta": ["--block-size", 50],
    "decluster": ["--method", "gap", "--gap-days", 5],
    "garch": ["--forecast", "--resid-method", "corrected"],
    "backtest-uncond": ["--window", 1000, "--step", 100, "--test-len", 100],
    "backtest-cond": ["--window", 1170, "--test-len", 20],
    "acf": [],
}


# and a byte-order mark, as a spreadsheet's "CSV UTF-8" export writes
@pytest.mark.parametrize("header", ["Date,Value", " date , value ", "\ufeffdate,value"])
def test_header_case_and_spaces_change_no_report(argarch_csv, tmp_path, header):
    text = argarch_csv.read_text()
    assert text.startswith("date,value")
    odd = tmp_path / "odd.csv"
    odd.write_text(header + text[len("date,value"):], encoding="utf-8")
    want, got = ev.load_returns(argarch_csv), ev.load_returns(odd)
    np.testing.assert_array_equal(got.dates, want.dates)
    np.testing.assert_array_equal(got.values, want.values)

    def report(name, command, *args):
        out = tmp_path / name / command
        assert _run(command, *args, "--out-dir", out) == 0, command
        rep = _read_json(out / f"{command.replace('-', '_')}_report.json")
        rep.pop("input", None)
        rep.pop("pair", None)
        return rep

    for command, args in INPUT_COMMANDS.items():
        assert (report("odd", command, "--input", odd, *args)
                == report("lower", command, "--input", argarch_csv, *args))
    assert (report("odd", "chi", "--pair", odd, odd, "--k", 50)
            == report("lower", "chi", "--pair", argarch_csv, argarch_csv, "--k", 50))
