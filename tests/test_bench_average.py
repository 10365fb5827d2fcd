"""Smoke test for benchmarks/bench_average.py."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_average_reports_every_case():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_average.py"), "--calls", "2"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    for case in ("2 members, rows 862x19", "3 members, rows 862x19", "2 members, rows 7x5000", "3 members, rows 7x5000"):
        assert f"average_distributions, {case}: oracle" in out.stdout
