"""The workload process: runs a plan's commands through ``cli.main``.

One fresh process per benchmark run; the commands run one after another in
it (one closed-loop client, no threads).  The command list repeats in rounds
until the time budget is spent.  Each command is bracketed by the
calibration loop (``calibration.py``), so its time can be put on a common
machine speed.  With
``--trace 1`` the first half of the budget runs untraced and the second half
under the tracer, so one process yields both the tracing overhead and a
check that tracing leaves the outputs unchanged.

    python3 perfbench/worker.py --plan PLAN.json --seconds S --trace 0|1 --out RESULT.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gec_editkit import cli  # noqa: E402
from gec_editkit.align import alignment_backend  # noqa: E402
from calibration import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402


def sha256_file(path: str) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def run_command(command: dict) -> tuple[int, float, str]:
    buf = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(command["argv"])
    except Exception:  # a crash is a failed command, not a failed benchmark
        traceback.print_exc()
        code = -1
    return code, perf_counter() - start, buf.getvalue()


def run_round(commands: list[dict], tracer=None) -> list[dict]:
    records = []
    for command in commands:
        before = calibrate()
        if tracer is None:
            code, took, out = run_command(command)
        else:
            code, took, out = tracer.command(command["name"], lambda: run_command(command))
        records.append({
            "code": code,
            "seconds": took,
            "calibration": (before + calibrate()) / 2,
            "files": {Path(p).name: sha256_file(p) for p in command["outputs"]},
            "stdout": hashlib.sha256(out.encode()).hexdigest() if command["stdout"] else None,
        })
    return records


def run_phase(commands: list[dict], budget: float, tracer=None) -> list[dict]:
    """Repeat the command list while another round still fits in ``budget``."""
    rounds = []
    start = perf_counter()
    while not rounds or (perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= budget:
        if tracer is not None:
            tracer.reset()
        rounds.append({"commands": run_round(commands, tracer)})
        if tracer is not None:
            rounds[-1]["spans"] = tracer.spans
            rounds[-1]["counters"] = tracer.counters
            rounds[-1]["cli"] = tracer.commands
    return rounds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    commands = json.loads(Path(args.plan).read_text())["commands"]

    result = {"backend": alignment_backend()}
    if args.trace:
        result["untraced"] = run_phase(commands, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            result["traced"] = run_phase(commands, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    else:
        result["untraced"] = run_phase(commands, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
