"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import run  # noqa: E402


def _tree_digest(work: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(work.iterdir()):
        # Paths inside the plan name the work directory; compare contents only.
        data = path.read_bytes().replace(str(work).encode(), b"WORK")
        digest.update(path.name.encode() + b"\0" + data)
    return digest.hexdigest()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seed_fixes_the_generated_bytes(tmp_path, workload):
    a, b, c = (inputs.make_plan(workload, tmp_path / name, seed) for name, seed in
               (("a", 3), ("b", 3), ("c", 4)))
    assert a.to_json()["facts"]["tokens_mean"] == b.to_json()["facts"]["tokens_mean"]
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")
    assert _tree_digest(tmp_path / "a") != _tree_digest(tmp_path / "c")


def _run_worker(plan, work: Path, trace: int) -> dict:
    (work / "plan.json").write_text(json.dumps(plan))
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--plan", str(work / "plan.json"),
                    "--seconds", "0", "--trace", str(trace), "--out", str(work / "result.json")],
                   env=dict(os.environ, PYTHONPATH=str(run.SRC)), check=True, timeout=300)
    return json.loads((work / "result.json").read_text())


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    work = tmp_path_factory.mktemp("desk")
    plan = inputs.make_plan("desk-decode", work, 5).to_json()
    return plan, work, _run_worker(plan, work, trace=1)


def test_clean_run_passes_every_check(desk):
    plan, _, result = desk
    rounds = [r["commands"] for r in result["untraced"] + result["traced"]]
    attempted, failed, why = run.check(plan, rounds, run.digests(rounds))
    assert (attempted, failed, why) == (2 * len(plan["commands"]), 0, [])


def test_tracing_leaves_outputs_unchanged(desk):
    _, _, result = desk
    untraced, traced = result["untraced"], result["traced"]
    assert run.digests([r["commands"] for r in traced]) == run.digests([r["commands"] for r in untraced])
    layers = run.layer_metrics(traced[0])
    assert layers["tagger.predict.calls"] > 0 and layers["decode.select_tags.calls"] > 0
    assert layers["tune.trials"] == inputs.DESK_TRIALS


def test_tracer_uninstall_restores_the_package():
    from gec_editkit import cli, decode, tagger
    from tracer import Tracer

    def current():
        return cli.run_pipeline, decode.select_tags, tagger.TagDistribution.__post_init__

    before = current()
    tracer = Tracer()
    tracer.install()
    assert all(now is not then for now, then in zip(current(), before))
    tracer.uninstall()
    assert current() == before


def test_corrupted_output_counts_as_failed(desk):
    plan, _, result = desk
    rounds = [r["commands"] for r in result["untraced"]]
    reference = run.digests(rounds)
    vote = next(i for i, c in enumerate(plan["commands"]) if c["name"] == "vote")

    bad = json.loads(json.dumps(reference))
    bad[str(vote)]["files"]["vote.txt"] = "0" * 64
    assert run.check(plan, rounds, bad)[1] == 1

    changed = json.loads(json.dumps(rounds + rounds))
    changed[1][vote]["files"]["vote.txt"] = "0" * 64
    assert run.check(plan, changed, None)[1] == 1

    crashed = json.loads(json.dumps(rounds))
    crashed[0][0]["code"] = 1
    assert run.check(plan, crashed, None)[1] >= 1


def test_vote_law_catches_a_wrong_vote(desk):
    plan, _, _ = desk
    vote_path = Path(plan["facts"]["vote_output"])
    members = [run._lines(p) for p in plan["facts"]["vote_members"]]
    unanimous = next(i for i, row in enumerate(zip(*members)) if len(set(row)) == 1)
    original = vote_path.read_bytes()
    lines = original.decode().splitlines()
    lines[unanimous] += " extra"
    vote_path.write_text("\n".join(lines) + "\n")
    try:
        assert "vote" in run.law_problems(plan)
    finally:
        vote_path.write_bytes(original)
    assert "vote" not in run.law_problems(plan)


def test_encode_law_catches_a_missing_tag(tmp_path):
    plan = inputs.make_plan("long-align", tmp_path, 5).to_json()
    result = _run_worker(plan, tmp_path, trace=0)
    assert run.check(plan, [r["commands"] for r in result["untraced"]], None)[1] == 0
    tags = Path(plan["facts"]["encode_output"])
    lines = tags.read_text().splitlines()
    lines[3] = lines[3].rsplit(" ", 1)[0]
    tags.write_text("\n".join(lines) + "\n")
    assert "encode" in run.law_problems(plan)
