"""One pass of one workload, in the fresh interpreter this script runs in.

    python3 perfbench/worker.py --workload NAME --inputs DIR --seed N
                                [--trace] [--tiny]

Times ``import evtrisk`` plus the ingest of the input CSVs (setup), then one
pass of the workload (wall), and prints one JSON line with the timings,
``ru_maxrss``, the outputs to check and, with --trace, the per-layer
metrics.  The benchmark's runner starts it with PYTHONPATH pointing at the
checkout's ``src`` and BLAS/OpenMP threads set to 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import tracer
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    size = workloads.TINY if args.tiny else workloads.FULL

    start = time.perf_counter()
    import evtrisk as ev
    import_s = time.perf_counter() - start
    if not Path(ev.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: evtrisk imported from {ev.__file__}, not {SRC}")

    # Tracing is installed outside the timed setup; the untraced pass keeps
    # only the optimizer counter (no clock reads), for nfev next to wall_s.
    tr = tracer.Tracer() if args.trace else None
    counter = tr.optimizer if tr else tracer.OptimizerCounter()
    if tr:
        tr.install()
    else:
        counter.install(sys.modules["evtrisk.argarch"])

    start = time.perf_counter()
    series = [ev.load_returns(args.inputs / name) for name in wl.files(size)]
    setup_s = import_s + time.perf_counter() - start

    start = time.perf_counter()
    try:
        outputs = wl.run(ev, series, size, args.seed, args.inputs)
        error = None
    except Exception as err:  # every operation of the pass counts as failed
        outputs, error = None, f"{type(err).__name__}: {err}"
    wall_s = time.perf_counter() - start

    import numpy
    import scipy
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
        "error": error,
        "optimizer": {"starts": counter.starts, "nfev": counter.nfev},
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tr:
        result["layers"] = tr.metrics()
        result["self_check"] = tr.self_check(wl.expected_calls(size))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
