"""benchmarks/bench_scalars.py imports and times src names directly, so a
src change that renames or deletes one fails here rather than at the next
benchmark run.  One run with one identity-suite sample takes a few seconds."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_scalars_runs():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_scalars.py"), "--samples", "1"],
        cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "\nQ[x]/(x^2 - 1) product, _remainder(u * v, m) (us) " in proc.stdout
    assert "\n_remainder(p, m), degree 6 mod x^3 - x/2 + 1/3 (us) " in proc.stdout
