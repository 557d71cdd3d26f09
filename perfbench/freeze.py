"""Write references.json: the outputs of the current code on every input set.

    python3 perfbench/freeze.py [WORKLOAD ...]

The stored outputs are what every benchmark run is checked against, so
re-freezing is a deliberate change of the reference: do it only in a change
that redefines the benchmark, never to make a failing check pass.  A
reference with a failed operation (a raised error, a refit failure, a
non-zero exit) is refused: the workloads must be ones on which none fails.
"""

from __future__ import annotations

import json
import shutil
import sys

import gen
import run
import workloads


def freeze(name: str) -> dict:
    wl = workloads.WORKLOADS[name]
    out = {}
    for seed in range(run.REF_SEEDS):
        work = run.ROOT / ".perfbench_work" / f"freeze-{name}-{seed}"
        try:
            hashes = gen.write_inputs(wl, workloads.FULL, seed, work)
            result = run.run_worker(name, work, seed, trace=False)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        outputs = result.get("outputs")
        if result.get("error") or outputs is None:
            raise SystemExit(f"{name} seed {seed}: {result.get('error')}")
        failed = wl.check(outputs, outputs)
        if failed:
            raise SystemExit(f"{name} seed {seed}: failed {failed}")
        print(f"{name} seed {seed}: wall {result['wall_s']:.2f} s", file=sys.stderr)
        out[str(seed)] = {"inputs": hashes, "outputs": outputs}
    return out


def main(argv) -> int:
    refs = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.is_file() else {}
    for name in argv or sorted(workloads.WORKLOADS):
        refs[name] = freeze(name)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
