"""Smoke test of the demos: each runs to exit 0 in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# demos that read the vendored snapshot, by the file they need
NEEDS_DATA = {"sp500_case_study.py": ROOT / "data" / "sp500.csv"}


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    needed = NEEDS_DATA.get(demo.name)
    if needed is not None and not needed.exists():
        pytest.skip(f"{needed.relative_to(ROOT)} is absent")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
