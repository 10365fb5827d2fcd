"""Smoke test for benchmarks/bench_predict.py."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_predict_reports_training_and_every_member():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_predict.py"), "--pairs", "20", "--sentences", "10", "--repeats", "1"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    lines = out.stdout.splitlines()
    assert len(lines) == 4
    rate = r"old [\d,]+ sentences/s, new [\d,]+ sentences/s, speedup [\d.]+x"
    assert re.fullmatch(r"train_baselines, 3 members, 20 pairs: " + rate, lines[0]), lines[0]
    for cw, line in enumerate(lines[1:]):
        assert re.fullmatch(rf"predict_batch, cw={cw}, 10 sentences in 1 batches: " + rate, line), line
