#!/usr/bin/env python3
"""Run the benchmark on a parent commit and on the working tree in
alternating pairs, and write every run to a ``BENCH_<pr>.json``.

    python3 scripts/bench_pairs.py --pr N --claim "boot_ci peak_rss_mb falls: ..." \\
        --run boot_ci:10:701 --run cond_roll:5:721 --run cli_screen:5:741 \\
        [--parent HEAD] [--traced-seed 761]

Run from anywhere inside a git checkout.  ``--parent`` (a git revision,
default ``HEAD``) is exported with ``git archive`` into a temporary
directory; the change is the working tree as it stands, committed or not.
Each ``--run WORKLOAD:PAIRS:SEED`` runs PAIRS pairs of
``perfbench/run.py --trace 0`` at its own run length, pair i on seed
SEED + i - 1, in the order given.  Odd pairs run the parent first and even pairs the change first.
``--traced-seed`` adds one ``--trace 1`` run of the change per workload at
the end, which also runs the tracer's self-check.

The file has the keys ``claim``, ``command``, ``parent`` (the full commit
hash), ``pairs`` (the run plan in words), ``machine`` and ``runs``; each run
records its workload, seed, trace flag, pair number (0 for a traced run),
side (``parent`` or ``change``) and the JSON result line of ``run.py``.  It
is rewritten after every run, so an interrupted script keeps what ran.
At the end the script prints, per workload and end-to-end metric, the
median of each side and in how many pairs the change read lower.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload <workload> --seed <seed> --trace <trace>"


def run_spec(text: str) -> tuple:
    """WORKLOAD:PAIRS:SEED as (workload, pairs, first seed)."""
    try:
        workload, pairs, seed = text.split(":")
        return workload, int(pairs), int(seed)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:PAIRS:SEED, got {text!r}") from None


def machine() -> str:
    return (f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}, "
            f"NumPy {version('numpy')}, SciPy {version('scipy')}")


def bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """The result line of one `perfbench/run.py` run in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def plan_words(runs: list, traced_seed) -> str:
    parts = [f"{w} --trace 0 pairs 1-{n} (seeds {s}-{s + n - 1})" for w, n, s in runs]
    words = ", then ".join(parts)
    if traced_seed is not None:
        words += f", then one --trace 1 run of the change per workload (seed {traced_seed})"
    return words + "; odd pairs ran the parent first, even pairs the change first"


def summary(records: list) -> None:
    """Per workload and end-to-end metric: medians of both sides and change wins."""
    pairs = {}
    for r in records:
        if r["trace"] == 0 and "metrics" in r["result"]:
            pairs.setdefault((r["workload"], r["pair"]), {})[r["side"]] = r["result"]["metrics"]
    by_workload = {}
    for (workload, _), sides in pairs.items():
        if len(sides) == 2:
            by_workload.setdefault(workload, []).append(sides)
    for workload, done in by_workload.items():
        for metric in done[0]["parent"]:
            parent = [s["parent"][metric]["value"] for s in done]
            change = [s["change"][metric]["value"] for s in done]
            wins = sum(c < p for p, c in zip(parent, change))
            print(f"{workload:<11} {metric:<12} parent {statistics.median(parent):.4g}  "
                  f"change {statistics.median(change):.4g}  lower in {wins}/{len(done)} pairs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, type=int, help="writes BENCH_<pr>.json")
    parser.add_argument("--claim", required=True)
    parser.add_argument("--run", required=True, action="append", type=run_spec,
                        metavar="WORKLOAD:PAIRS:SEED")
    parser.add_argument("--parent", default="HEAD", help="git revision (default HEAD)")
    parser.add_argument("--traced-seed", type=int)
    args = parser.parse_args(argv)

    git = ["git", "-C", str(ROOT)]
    parent_hash = subprocess.run([*git, "rev-parse", args.parent], capture_output=True,
                                 text=True, check=True).stdout.strip()
    out = ROOT / f"BENCH_{args.pr}.json"
    doc = {"claim": args.claim, "command": COMMAND,
           "parent": parent_hash, "pairs": plan_words(args.run, args.traced_seed),
           "machine": machine(), "runs": []}

    def record(checkout, workload, seed, trace, pair, side):
        result = bench(checkout, workload, seed, trace)
        doc["runs"].append({"workload": workload, "seed": seed, "trace": trace,
                            "pair": pair, "side": side, "result": result})
        out.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{workload} pair {pair} {side}: {json.dumps(result)[:160]}", flush=True)

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = subprocess.run([*git, "archive", parent_hash], capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        sides = {"parent": Path(tmp), "change": ROOT}
        for workload, pairs, first_seed in args.run:
            for pair in range(1, pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    record(sides[side], workload, first_seed + pair - 1, 0, pair, side)
        if args.traced_seed is not None:
            for workload in dict.fromkeys(w for w, _, _ in args.run):
                record(ROOT, workload, args.traced_seed, 1, 0, "change")
    summary(doc["runs"])
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
