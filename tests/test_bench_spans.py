"""Smoke test for benchmarks/bench_spans.py."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_spans_reports_both_producers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_spans.py"), "--blocks", "5", "--pairs", "5", "--repeats", "1"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    lines = out.stdout.splitlines()
    assert len(lines) == 2
    rate = r", \d+ spans: checked [\d,]+ spans/s, builder [\d,]+ spans/s, speedup [\d.]+x"
    assert re.fullmatch(r"read_m2, 5 blocks x 2 annotators" + rate, lines[0]), lines[0]
    assert re.fullmatch(r"extract_edits_batch, 5 pairs" + rate, lines[1]), lines[1]
