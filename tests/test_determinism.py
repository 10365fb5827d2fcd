"""Every command's output bytes are the same under any hash seed and memory layout.

Strings hash by a per-process seed and tags by identity, that is by address,
so a set order that reached an output would show here as two runs that
differ.  The two runs take different string-hash seeds, and one first holds
a few objects of a tag's size, which moves every tag to another address.
"""

import os
import subprocess
import sys
from pathlib import Path

from gec_editkit import write_sentences, write_tsv_corpus

from deskdata import make_corpus

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter, in the directory holding the inputs.
DRIVER = """
import sys

from gec_editkit.cli import main


class Pad:
    __slots__ = ("kind", "payload")


padding = [Pad() for _ in range(int(sys.argv[1]))]

members = [f"baseline=train.tsv,cw={cw},sm=0.5" for cw in (0, 1, 2)]
member_flags = [flag for spec in members for flag in ("--member", spec)]
runs = [
    ["build-vocab", "--input", "train.tsv", "--output", "vocab.txt", "--size", "500"],
    *(["correct", "--input", "eval.txt", "--output", f"correct{i}.txt", "--vocab", "vocab.txt", "--tagger", spec]
      for i, spec in enumerate(members)),
    ["ensemble", "--mode", "average", "--source", "eval.txt", "--output", "average.txt", "--vocab", "vocab.txt",
     *member_flags],
    ["ensemble", "--mode", "vote", "--source", "eval.txt", "--output", "vote.txt",
     "--member", "correct0.txt", "--member", "correct1.txt", "--member", "correct1.txt", "--member", "correct2.txt"],
    *(["distill", "--input", "raw.txt", "--output", f"distill.{mode}.tsv", "--vocab", "vocab.txt",
       *member_flags, "--mode", mode, "--limit", "25"] for mode in ("vote", "average")),
]
for argv in runs:
    assert main(argv) == 0, argv
"""

OUTPUTS = (
    "vocab.txt", "correct0.txt", "correct1.txt", "correct2.txt", "average.txt", "vote.txt",
    "distill.vote.tsv", "distill.average.tsv",
)


def _run(tmp_path, hash_seed, padding):
    work = tmp_path / f"hashseed{hash_seed}"
    work.mkdir()
    pairs = make_corpus(200, seed=47)
    write_tsv_corpus(work / "train.tsv", pairs[:120])
    write_sentences(work / "eval.txt", [source for source, _ in pairs[120:160]])
    write_sentences(work / "raw.txt", [source for source, _ in pairs[160:]])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", DRIVER, str(padding)], cwd=work, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, {name: (work / name).read_bytes() for name in OUTPUTS}


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    first = _run(tmp_path, 1, 0)
    second = _run(tmp_path, 2, 3)
    assert first[0] == second[0]
    for name in OUTPUTS:
        assert first[1][name] == second[1][name], name
    assert first[1]["distill.vote.tsv"] and first[1]["distill.average.tsv"]
