"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs each workload on tiny inputs (two paths of one forecast day, 19
bootstrap replicates, n = 3,000) and checks that:

- the generator gives the same bytes for a seed and other bytes for another;
- a pass runs untraced and traced, with bit-identical outputs;
- the output check accepts those outputs, and rejects a perturbed copy and
  a refit failure;
- the tracer self-check passes with the call counts the tiny sizes imply,
  and every per-layer metric of BENCHMARK.json is reported;
- the runner exits non-zero, printing no result, where the sources are absent.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import gen
import run
import tracer
import workloads

WORK = run.ROOT / ".perfbench_work" / "selftest"


def perturb_first_float(obj) -> bool:
    """Scale the first float found in nested outputs by 1.001, in place."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, val in items:
        if isinstance(val, float):
            obj[key] = val * 1.001
            return True
        if isinstance(val, (dict, list)) and perturb_first_float(val):
            return True
    return False


def check_workload(wl) -> None:
    work = WORK / wl.name
    first = gen.write_inputs(wl, workloads.TINY, 3, work / "a")
    assert first == gen.write_inputs(wl, workloads.TINY, 3, work / "b"), \
        "same seed, different inputs"
    assert first != gen.write_inputs(wl, workloads.TINY, 4, work / "c"), \
        "different seeds, same inputs"

    plain = run.run_worker(wl.name, work / "a", 3, trace=False, tiny=True)
    traced = run.run_worker(wl.name, work / "a", 3, trace=True, tiny=True)
    for result in (plain, traced):
        assert not result.get("error"), result.get("error")
    assert plain["outputs"] == traced["outputs"], "tracing changed the outputs"

    ops = wl.operations(workloads.TINY)
    assert run.failed_operations(wl, traced, plain["outputs"], ops) == (0, [])
    bad = copy.deepcopy(plain["outputs"])
    assert perturb_first_float(bad)
    assert wl.check(bad, plain["outputs"]), "a perturbed output passed the check"
    if wl.name == "cond_roll":
        bad = copy.deepcopy(plain["outputs"])
        bad["paths"][0]["refit_failures"] = bad["paths"][0]["days"][:1]
        assert wl.check(bad, plain["outputs"]), "a refit failure passed the check"

    assert traced["self_check"] == [], traced["self_check"]
    names = {name for name, _, _ in tracer.PER_LAYER[:-1]}
    assert set(traced["layers"]) == names, "per-layer metrics missing"
    print(f"{wl.name}: ok ({plain['wall_s']:.2f} s untraced, "
          f"{traced['wall_s']:.2f} s traced)")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in tracer.PER_LAYER]
    print("BENCHMARK.json: ok")


def check_refuses_without_sources() -> None:
    bare = WORK / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "boot_ci",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    print("without sources: refused")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        check_benchmark_json()
        for wl in workloads.WORKLOADS.values():
            check_workload(wl)
        check_refuses_without_sources()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
