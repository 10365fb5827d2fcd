#!/usr/bin/env python3
"""End-to-end benchmark of the gec-editkit command line.

    python3 perfbench/run.py --workload desk-decode|wide-matrix|long-align \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The run generates its inputs from ``--seed``
under ``.perfbench_work/`` (nothing is timed yet), times ``setup_s`` in fresh
interpreters, then starts one workload process (``worker.py``) that drives
the workload's subcommands through ``gec_editkit.cli.main`` in rounds for
``--seconds`` seconds.  Every output is checked: each command must exit 0,
every round must write the same bytes, the workload's own laws must hold
and, at the default seed, every output and printed summary must match the
sha256 in ``reference.json``.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones
(``setup_s``, ``wall_cal_s``, ``peak_rss_mb``); with ``--trace 1`` they are the
per-layer ones from a traced half-run; ``setup_s`` and ``wall_cal_s`` are put
on a nominal machine speed (``calibration.py``).  The line before it holds everything
else: the environment stamp, the workload's measured properties and each
command's throughput.  A failed check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from calibration import calibrate, on_nominal

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 0
SETUP_REPEATS = 9
SETUP_CODE = (
    "import time; t = time.perf_counter(); import gec_editkit.cli as c; c.build_parser(); "
    "print(time.perf_counter() - t)"
)

# Every subcommand a workload may run, with the unit its throughput counts.
COMMAND_UNITS = {
    "build-vocab": "pairs", "encode": "pairs", "correct": "sents", "average": "sents",
    "vote": "sents", "score": "sents", "tune": "sents", "distill": "sents",
}


def _program_env() -> dict:
    # String hashing is randomised per process, and the layout it gives the
    # program's dicts and sets moves wall time by about a tenth between
    # processes; a fixed hash seed takes that spread out of the runs.
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def measure_setup() -> list[tuple[float, float]]:
    """Fresh interpreter to ``import gec_editkit.cli`` plus ``build_parser()``.

    Returns (seconds, calibration) pairs, the calibration loop timed in this
    process just before and after each interpreter.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_program_env(),
                             capture_output=True, text=True, check=True, timeout=60)
        samples.append((float(out.stdout.strip()), (before + calibrate()) / 2))
    return samples


def environment(seed: int, backend: str) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit to name
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gec_editkit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "alignment_backend": backend, "git_commit": commit,
        "src_sha256": digest.hexdigest(), "seed": seed,
    }


# -- correctness --------------------------------------------------------------


def _lines(path: str) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def law_problems(plan: dict) -> dict[str, str]:
    """Checks that hold at every seed, keyed by the command they indict."""
    facts = plan["facts"]
    problems = {}
    if "vote_output" in facts:
        # Quorum law: where every member wrote the same sentence, every edit
        # has all the votes, so the vote must write that sentence too.
        source = _lines(facts["vote_source"])
        members = [_lines(p) for p in facts["vote_members"]]
        voted = _lines(facts["vote_output"])
        if len(voted) != len(source):
            problems["vote"] = f"vote wrote {len(voted)} lines for {len(source)} sources"
        else:
            for i, row in enumerate(zip(*members)):
                if len(set(row)) == 1 and voted[i] != row[0]:
                    problems["vote"] = f"line {i + 1}: unanimous members but vote wrote {voted[i]!r}"
                    break
    if "encode_output" in facts:
        # One tag per position: [START] plus each source token.
        sources = [line.split("\t")[0].split(" ") for line in _lines(facts["encode_input"])]
        tags = _lines(facts["encode_output"])
        if len(tags) != len(sources) or any(len(t.split(" ")) != len(s) + 1 for s, t in zip(sources, tags)):
            problems["encode"] = "encode did not write one tag per [START] and source token"
    if "expected_correct" in facts:
        if Path(facts["correct_output"]).read_bytes() != Path(facts["expected_correct"]).read_bytes():
            problems["correct"] = "correct --tagger matrix=A differs from the producer's own decode"
    return problems


def check(plan: dict, rounds: list[list[dict]], reference: dict | None) -> tuple[int, int, list[str]]:
    """Count failed command runs over all rounds; return (attempted, failed, why).

    A run fails when it exits non-zero, when its outputs differ from the
    first round's or, given ``reference``, from the committed digests, or
    when a law on the final outputs indicts its command.
    """
    commands = plan["commands"]
    laws = law_problems(plan)
    attempted = failed = 0
    why: list[str] = []
    first = rounds[0]
    for r, records in enumerate(rounds):
        for i, (command, record) in enumerate(zip(commands, records)):
            attempted += 1
            label = f"round {r} command {i} ({command['name']})"
            got = _outputs(record)
            bad = None
            if record["code"] != 0:
                bad = f"exit code {record['code']}"
            elif None in record["files"].values():
                bad = "an output file is missing"
            elif got != _outputs(first[i]):
                bad = "output differs from round 0"
            elif reference is not None and got != reference[str(i)]:
                bad = "output differs from reference.json"
            elif command["name"] in laws:
                bad = laws[command["name"]]
            if bad:
                failed += 1
                why.append(f"{label}: {bad}")
    return attempted, failed, why


def _outputs(record: dict) -> dict:
    return {"files": record["files"], "stdout": record["stdout"]}


def digests(rounds: list[list[dict]]) -> dict:
    """The first round's output digests, keyed by command index."""
    return {str(i): _outputs(record) for i, record in enumerate(rounds[0])}


# -- metrics ------------------------------------------------------------------


def command_rates(plan: dict, records: list[dict]) -> dict[str, float]:
    sizes: dict[str, float] = {}
    times: dict[str, float] = {}
    for command, record in zip(plan["commands"], records):
        name = command["name"]
        sizes[name] = sizes.get(name, 0) + command["size"]
        times[name] = times.get(name, 0.0) + record["seconds"]
    return {name: sizes[name] / times[name] for name in sizes}


def median_of(dicts: list[dict]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def round_wall(records: list[dict]) -> float:
    return sum(record["seconds"] for record in records)


def round_wall_cal(records: list[dict]) -> float:
    """A round's seconds with each command put on the nominal machine speed."""
    return sum(on_nominal(r["seconds"], r["calibration"]) for r in records)


def _slug(command: str) -> str:
    return command.replace("-", "_")


def layer_metrics(round_: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    spans, c = round_["spans"], round_["counters"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "levenshtein.backtrace_ops.calls": calls("levenshtein.backtrace_ops"),
        "levenshtein.backtrace_ops.s": total("levenshtein.backtrace_ops"),
        "levenshtein.backtrace_ops.cells": c["levenshtein.cells"],
        "align.extract_edits.calls": calls("align.extract_edits"),
        "align.extract_edits.self_s": self_s("align.extract_edits"),
        "align.encode_tags.calls": calls("align.encode_tags"),
        "align.encode_tags.self_s": self_s("align.encode_tags"),
        "align.encode_passes_per_pair": ratio(c["encode.passes"], c["encode.pairs"]),
        "transforms.apply_transform.fallbacks": c["transforms.fallbacks"],
        "vocab.build_vocab.s": total("vocab.build_vocab"),
        "vocab.read_vocab_file.s": total("vocab.read_vocab_file"),
        "tagger.train_baseline.s": total("tagger.train_baseline"),
        "tagger.train_baseline.pairs": c["train.pairs"],
        "tagger.predict.calls": calls("tagger.predict"),
        "tagger.predict.self_s": self_s("tagger.predict"),
        "tagger.predict.repeat_frac": ratio(c["predict.repeats"], calls("tagger.predict")),
        "tagger.TagDistribution.checks": calls("tagger.TagDistribution"),
        "tagger.TagDistribution.s": total("tagger.TagDistribution"),
        "tagger.matrix.miss_frac": ratio(c["matrix.misses"], c["matrix.calls"]),
        "decode.select_tags.calls": calls("decode.select_tags"),
        "decode.select_tags.s": total("decode.select_tags"),
        "decode.apply_tags.calls": calls("decode.apply_tags"),
        "decode.apply_tags.s": total("decode.apply_tags"),
        "decode.passes_per_sentence": ratio(c["decode.passes"], c["decode.sentences"]),
        "decode.changing_pass_frac": ratio(c["decode.changing"], c["decode.passes"]),
        "ensemble.average_distributions.calls": calls("ensemble.average_distributions"),
        "ensemble.average_distributions.s": total("ensemble.average_distributions"),
        "ensemble.tally_votes.s": total("ensemble.tally_votes"),
        "ensemble.majority_vote.s": total("ensemble.majority_vote"),
        "ensemble.conflicts_dropped": c["ensemble.conflicts_dropped"],
        "matrix_io.read_matrix_file.s": total("matrix_io.read_matrix_file"),
        "matrix_io.read_matrix_file.rows": c["matrix.rows"],
        "matrix_io.read_matrix_file.bytes": c["matrix.bytes"],
        "matrix_io.read_matrix_file.rows_per_s": ratio(c["matrix.rows"], total("matrix_io.read_matrix_file")),
        "corpus.read.s": total("corpus.read"),
        "corpus.write.s": total("corpus.write"),
        "score.score_corpus.s": total("score.score_corpus"),
        "tune.trials": c["tune.trials"],
        "tune.tune_hyperparams.s": total("tune.tune_hyperparams"),
        "distill.edited_frac": ratio(c["distill.emitted"], c["distill.processed"]),
        "distill.failed": c["distill.failed"],
        "workload.dp_cells_per_pair": ratio(c["levenshtein.cells"], calls("levenshtein.backtrace_ops")),
    }
    for command in COMMAND_UNITS:
        m[f"cli.{_slug(command)}.unattributed_s"] = 0.0
    for name, (_, unattributed) in round_["cli"].items():
        m[f"cli.{_slug(name)}.unattributed_s"] += unattributed
    return m


# -- the run ------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's digests as the default seed's reference")
    return parser.parse_args(argv)


def run(args, inputs) -> tuple[dict, dict]:
    """Generate, time and check one run; return (detail, result)."""
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plan = inputs.make_plan(args.workload, work, args.seed).to_json()
        (work / "plan.json").write_text(json.dumps(plan))
        setup = measure_setup()
        subprocess.run([sys.executable, str(HERE / "worker.py"), "--plan", str(work / "plan.json"),
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--out", str(work / "result.json")],
                       cwd=ROOT, env=_program_env(), check=True, timeout=2 * args.seconds + 60)
        result = json.loads((work / "result.json").read_text())
        untraced = [r["commands"] for r in result["untraced"]]
        traced = [r["commands"] for r in result.get("traced", [])]
        vocab_file = work / "vocab.txt"
        vocab_width = len(_lines(str(vocab_file))) - 1 if vocab_file.exists() else 0

        refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        reference = refs.get(args.workload) if args.seed == DEFAULT_SEED else None
        if args.write_reference:
            refs[args.workload] = digests(untraced)
            REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
            reference = refs[args.workload]
        attempted, failed, why = check(plan, untraced + traced, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    wall = statistics.median(round_wall(r) for r in untraced)
    wall_cal = statistics.median(round_wall_cal(r) for r in untraced)
    rates = median_of([command_rates(plan, r) for r in untraced])
    properties = {
        "workload.tokens_mean": plan["facts"]["tokens_mean"],
        "workload.tokens_max": plan["facts"]["tokens_max"],
        "workload.vocab_width": vocab_width,
    }
    detail = {
        "workload": args.workload,
        "env": environment(args.seed, result["backend"]),
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "properties": properties,
        "end_to_end": {
            "setup_s": statistics.median(on_nominal(*sample) for sample in setup),
            "setup_raw_s": statistics.median(seconds for seconds, _ in setup),
            "wall_s": wall, "wall_cal_s": wall_cal,
            "peak_rss_mb": result["peak_rss_mb"], "failed_frac": failed / attempted,
            **{f"{_slug(name)}_{COMMAND_UNITS[name]}_per_s": rate for name, rate in rates.items()},
        },
        "calibration_s": statistics.median(rec["calibration"] for r in untraced for rec in r),
        "failures": why[:20],
    }
    if args.trace:
        layers = median_of([layer_metrics(r) for r in result["traced"]])
        for command, unit in COMMAND_UNITS.items():
            layers[f"cli.{_slug(command)}.{unit}_per_s"] = rates.get(command, 0.0)
        layers.update(properties)
        traced_wall = statistics.median(round_wall_cal(r) for r in traced)
        layers["trace.overhead_s"] = traced_wall - wall_cal
        properties.update({k: layers[k] for k in (
            "workload.dp_cells_per_pair", "align.encode_passes_per_pair", "decode.passes_per_sentence",
            "tagger.predict.repeat_frac", "tagger.matrix.miss_frac")})
        detail["trace_overhead_s"] = layers["trace.overhead_s"]
        values, wanted = layers, "per_layer"
    else:
        values, wanted = detail["end_to_end"], "end_to_end"
    # BENCHMARK.json names every metric and its unit; a name it lists that
    # the run did not measure is a bug here, so it raises.
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in json.loads(SPEC.read_text())[wanted]}
    return detail, {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gec_editkit" / "__init__.py").is_file():
        print(f"error: no gec_editkit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gec_editkit
    import inputs

    if Path(gec_editkit.__file__).resolve().parent != SRC / "gec_editkit":
        print(f"error: gec_editkit imported from {gec_editkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(inputs.WORKLOADS)}",
              file=sys.stderr)
        return 2
    detail, result = run(args, inputs)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
