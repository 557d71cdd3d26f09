"""evtrisk benchmark runner.

    python3 perfbench/run.py --workload {cond_roll,boot_ci,cli_screen}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Generates the workload's inputs from the
seed, then runs passes of the workload, each in a fresh interpreter
(worker.py), until the next pass would end after S seconds.  Every pass's
outputs are checked against the frozen references in references.json.

With --trace 0 every pass is untraced and the end-to-end metrics are the
medians over passes.  With --trace 1 untraced and traced passes alternate;
the per-layer metrics are medians over the traced passes, and
trace.overhead_ratio compares their wall time with the untraced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give the same numbers
for a reader, plus the input hashes, counts and environment.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
REF_SEEDS = 16          # inputs are made from seed mod REF_SEEDS
BUDGET_S = 170          # a run ends within this, whatever --seconds says

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, inputs: Path, seed: int, trace: bool,
               tiny: bool = False, timeout: float = BUDGET_S) -> dict:
    """One pass in a fresh interpreter; its JSON result, or an "error" key."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(inputs), "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--tiny"] * tiny
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"outputs": None, "error": f"pass exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"outputs": None, "error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def failed_operations(wl, result: dict, reference: dict, ops: int) -> tuple:
    """(failed count, reasons) for one pass of `ops` operations.

    A pass that raised, crashed or failed the tracer self-check fails every
    operation; otherwise each operation outside the reference tolerance fails.
    """
    if result.get("error") or result.get("outputs") is None:
        return ops, [f"pass: {result.get('error')}"]
    if result.get("self_check"):
        return ops, [f"tracer self-check: {m}" for m in result["self_check"]]
    try:
        bad = wl.check(result["outputs"], reference)
    except (KeyError, IndexError, TypeError) as err:
        return ops, [f"malformed outputs: {type(err).__name__}: {err}"]
    return len(bad), bad


def median_of(passes: list, key: str) -> float:
    values = [p[key] for p in passes if key in p]
    return statistics.median(values) if values else 0.0


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def measure(wl, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import gen

    size = workloads.FULL
    input_seed = seed % REF_SEEDS
    hashes = gen.write_inputs(wl, size, input_seed, work)
    frozen = json.loads(REFERENCES.read_text())[wl.name][str(input_seed)]
    if hashes != frozen["inputs"]:
        raise SystemExit("error: generated inputs differ from those of the frozen "
                         "reference; the generator or NumPy's streams changed")

    ops = wl.operations(size)
    plain, traced, failures = [], [], []
    started = time.perf_counter()
    deadline, budget_end = started + seconds, started + BUDGET_S
    longest = 0.0
    while True:
        use_trace = trace and len(plain) > len(traced)
        started = time.perf_counter()
        result = run_worker(wl.name, work, input_seed, use_trace,
                            timeout=budget_end - started)
        longest = max(longest, time.perf_counter() - started)
        count, reasons = failed_operations(wl, result, frozen["outputs"], ops)
        failures.append(count)
        for reason in reasons:
            print(f"{wl.name}: failed: {reason}", file=sys.stderr)
        (traced if use_trace else plain).append(result)
        if result.get("error"):
            break
        enough = plain and (traced or not trace)
        if enough and time.perf_counter() + longest > deadline:
            break
    return {"plain": plain, "traced": traced, "hashes": hashes,
            "input_seed": input_seed, "attempted": ops * len(failures),
            "failed": sum(failures), "size": size}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evtrisk" / "__init__.py").is_file():
        print(f"error: no evtrisk sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if not REFERENCES.is_file():
        print(f"error: missing {REFERENCES}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src" / "evtrisk", quiet=1)

    wl = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    try:
        m = measure(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain, traced, size = m["plain"], m["traced"], m["size"]
    nfev = sum(p.get("optimizer", {}).get("nfev", 0) for p in plain)
    fits = wl.fits(size) * len(plain)
    info = {
        "workload": wl.name, "seed": args.seed, "input_seed": m["input_seed"],
        "inputs_sha256": m["hashes"],
        "pass_wall_s": {"untraced": [p.get("wall_s") for p in plain],
                        "traced": [p.get("wall_s") for p in traced]},
        "counts": {"days": wl.operations(size) if wl.name == "cond_roll" else 0,
                   "replicates": 3 * size.reps if wl.name == "boot_ci" else 0,
                   "commands": wl.operations(size) if wl.name == "cli_screen" else 0,
                   "nfev_per_fit": nfev / fits if fits else 0.0},
        "env": {"git_revision": git_revision(), "nproc": os.cpu_count(),
                **(plain[0].get("versions", {}) if plain else {})},
    }
    print(json.dumps({"info": info}))

    if args.trace:
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        layered = [p["layers"] for p in traced if "layers" in p]
        values = {name: statistics.median(p[name] for p in layered) if layered else 0.0
                  for name, _, _ in tracer.PER_LAYER[:-1]}
        plain_wall = median_of(plain, "wall_s")
        values["trace.overhead_ratio"] = (median_of(traced, "wall_s") / plain_wall - 1.0
                                          if plain_wall else 0.0)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        metrics = {name: {"value": median_of(plain, name), "unit": unit}
                   for name, unit in END_TO_END}

    for name, v in metrics.items():
        print(f"{wl.name}  {name:<40} {v['value']:.6g} {v['unit']}")
    print(f"{wl.name}  {'fail_ratio':<40} {m['failed'] / m['attempted']:.6g} "
          f"({m['failed']} of {m['attempted']} operations)")
    print(json.dumps({"correct": m["failed"] == 0, "attempted": m["attempted"],
                      "failed": m["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
