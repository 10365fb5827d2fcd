"""Smoke test for benchmarks/bench_alignment.py on whichever backend is active."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_alignment_reports_extract_edits():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_alignment.py"), "--pairs", "20", "--max-len", "8"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert "kernel alone, pure python" in out.stdout
    assert "extract_edits, kernel plus run extraction" in out.stdout
    assert "extract_edits, identical or shared-suffix pairs" in out.stdout
