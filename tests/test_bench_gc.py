"""Smoke test for benchmarks/bench_gc.py."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_gc_reports_every_command_both_ways():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_gc.py"),
         "--pairs", "30", "--sentences", "20", "--tune", "10", "--mono", "10", "--repeats", "1"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    lines = out.stdout.splitlines()
    names = ["build-vocab", "encode", "apply", "correct cw=0", "correct cw=1", "correct cw=2",
             "average", "vote", "score", "tune", "distill", "filter"]
    assert len(lines) == len(names) + 1
    way = r"[\d.]+ s \(gen0 \d+, gen1 \d+, gen2 \d+; gc [\d.]+ ms\)"
    for name, line in zip(names, lines):
        assert re.fullmatch(rf"{name}: on {way}, paused {way}, speedup [\d.]+x", line), line
        # main's young collection of the parser; the command itself runs paused.
        assert re.search(r"paused [\d.]+ s \(gen0 \d+, gen1 [1-9]", line), line
    assert re.fullmatch(r"all 12 commands: on [\d.]+ s, paused [\d.]+ s, speedup [\d.]+x", lines[-1]), lines[-1]
