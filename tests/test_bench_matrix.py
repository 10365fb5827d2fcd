"""Smoke test for benchmarks/bench_matrix.py."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_matrix_reports_both_readers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_matrix.py"), "--records", "2", "--repeats", "1"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert "read_matrix_file, 2 records, " in out.stdout
    assert "rows x 5000" in out.stdout
    assert " rows/s, struct " in out.stdout and "speedup" in out.stdout
