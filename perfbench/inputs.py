"""Seeded input generation and the command plan of each workload.

Everything here runs before any timing.  The program under test only ever
sees the files written into the work directory; the seed stays in the
benchmark.  The same seed writes the same bytes.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "tests"))

from deskdata import make_corpus  # noqa: E402

from gec_editkit.align import extract_edits  # noqa: E402
from gec_editkit.corpus import M2Block, M2Edit, write_m2, write_sentences, write_tsv_corpus  # noqa: E402
from gec_editkit.decode import Hyperparams, run_pipeline  # noqa: E402
from gec_editkit.tags import append, replace  # noqa: E402
from gec_editkit.tagger import train_baseline  # noqa: E402
from gec_editkit.vocab import TagVocab, build_vocab, write_vocab_file  # noqa: E402

WORKLOADS = ("desk-decode", "wide-matrix", "long-align")

# desk-decode: the training corpus is small next to the decoded input, so
# decoding (predict/select/apply) outweighs baseline training.
DESK_TRAIN = 600
DESK_DEV = 1000
DESK_TUNE = 300
DESK_TRIALS = 6
DESK_MONO = 500
DESK_MEMBERS = (0, 1, 2)

# wide-matrix: rows are what a matrix file costs, so the files are sized by
# rows; the seed decoders' visited sentences fill them.
WIDE_WIDTH = 5000
WIDE_ROWS = 160
WIDE_TRAIN = 1500
WIDE_MEMBERS = (1, 2)

# long-align: the kernel is O(n*m), so long sentences with dense edits put
# alignment first.
LONG_PAIRS = 500
LONG_MIN_LEN = 24
LONG_MAX_LEN = 40
LONG_MEMBERS = 3
LONG_WORDS = (
    "the", "a", "an", "dog", "dogs", "cat", "cats", "he", "she", "they", "go",
    "goes", "went", "to", "school", "home", "and", "very", "big", "small",
    "runs", "run", "walk", "walks", "of", "in", "on", "at", "with", "is", "are",
    "was", "were", "book", "books", "car", "cars", "red", "old", "new",
)

MATRIX_FORMAT = "gec-editkit/matrix-v1"


@dataclass
class Command:
    """One CLI invocation: argv for ``gec_editkit.cli.main``.

    ``size`` is the input count its throughput divides by.
    ``outputs`` are files whose bytes are checked; ``stdout`` says whether
    the printed summary is checked too.
    """

    name: str
    argv: list[str]
    size: int
    outputs: list[str] = field(default_factory=list)
    stdout: bool = False


@dataclass
class Plan:
    workload: str
    seed: int
    commands: list[Command]
    # Facts the generator knows and the checks need; JSON-serialisable.
    facts: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "commands": [vars(c) for c in self.commands],
            "facts": self.facts,
        }


def _m2_blocks(sources, annotator_targets) -> list[M2Block]:
    blocks = []
    for i, src in enumerate(sources):
        annotations = {
            a: tuple(M2Edit(span) for span in extract_edits(src, targets[i]))
            for a, targets in enumerate(annotator_targets)
        }
        blocks.append(M2Block(tuple(src), annotations))
    return blocks


def _token_facts(sentences) -> dict:
    lengths = [len(s) for s in sentences]
    return {"tokens_mean": sum(lengths) / len(lengths), "tokens_max": max(lengths)}


def make_desk(work: Path, seed: int) -> Plan:
    rng = random.Random(seed)
    draw = lambda n: make_corpus(n, rng.randrange(2**31))  # noqa: E731
    train, dev, tune, mono = draw(DESK_TRAIN), draw(DESK_DEV), draw(DESK_TUNE), draw(DESK_MONO)
    write_tsv_corpus(work / "train.tsv", train)
    write_sentences(work / "dev.txt", [s for s, _ in dev])
    write_m2(work / "dev.m2", _m2_blocks([s for s, _ in dev], [[t for _, t in dev]]))
    write_m2(work / "tune.m2", _m2_blocks([s for s, _ in tune], [[t for _, t in tune]]))
    write_sentences(work / "mono.txt", [s for s, _ in mono])

    w = str(work)
    vocab = f"{w}/vocab.txt"
    members = [f"baseline={w}/train.tsv,cw={cw}" for cw in DESK_MEMBERS]
    corrected = [f"{w}/correct.cw{cw}.txt" for cw in DESK_MEMBERS]
    commands = [Command("build-vocab", ["build-vocab", "--input", f"{w}/train.tsv", "--output", vocab],
                        DESK_TRAIN, [vocab])]
    for spec, out in zip(members, corrected):
        commands.append(Command("correct", ["correct", "--input", f"{w}/dev.txt", "--output", out,
                                            "--vocab", vocab, "--tagger", spec], DESK_DEV, [out]))
    member_flags = [x for spec in members for x in ("--member", spec)]
    commands.append(Command("average", ["ensemble", "--mode", "average", "--source", f"{w}/dev.txt",
                                        "--output", f"{w}/average.txt", "--vocab", vocab, *member_flags],
                            DESK_DEV, [f"{w}/average.txt"]))
    vote_flags = [x for out in corrected for x in ("--member", out)]
    commands.append(Command("vote", ["ensemble", "--mode", "vote", "--source", f"{w}/dev.txt",
                                     "--output", f"{w}/vote.txt", *vote_flags], DESK_DEV,
                            [f"{w}/vote.txt"]))
    commands.append(Command("score", ["score", "--hyp", f"{w}/average.txt", "--gold", f"{w}/dev.m2"],
                            DESK_DEV, stdout=True))
    commands.append(Command("tune", ["tune", "--gold", f"{w}/tune.m2", "--vocab", vocab, "--tagger",
                                     members[1], "--trials", str(DESK_TRIALS), "--seed", "0"],
                            DESK_TUNE * DESK_TRIALS, stdout=True))
    commands.append(Command("distill", ["distill", "--input", f"{w}/mono.txt", "--output",
                                        f"{w}/distill.tsv", "--vocab", vocab, *member_flags,
                                        "--mode", "vote", "--limit", str(DESK_MONO)],
                            DESK_MONO, [f"{w}/distill.tsv"], stdout=True))
    facts = _token_facts([s for s, _ in dev])
    facts["vote_members"] = corrected
    facts["vote_output"] = f"{w}/vote.txt"
    facts["vote_source"] = f"{w}/dev.txt"
    return Plan("desk-decode", seed, commands, facts)


def _wide_vocab(narrow: TagVocab, rng: random.Random) -> TagVocab:
    tags = list(narrow.tags)
    seen = set(tags)
    letters = "abcdefghijklmnopqrstuvwxyz"
    while len(tags) < WIDE_WIDTH:
        word = "".join(rng.choice(letters) for _ in range(rng.randint(3, 9)))
        tag = (append if rng.random() < 0.5 else replace)(word)
        if tag not in seen:
            seen.add(tag)
            tags.append(tag)
    return TagVocab(tuple(tags))


class _Recorder:
    """Forwards predict to a tagger and keeps every distinct sentence asked."""

    def __init__(self, tagger):
        self.tagger = tagger
        self.vocab = tagger.vocab
        self.seen: dict[tuple[str, ...], object] = {}

    def predict(self, tokens):
        key = tuple(tokens)
        if key not in self.seen:
            self.seen[key] = self.tagger.predict(key)
        return self.seen[key]


def _write_matrix_v1(path: Path, vocab: TagVocab, records) -> None:
    # Written here rather than with the library writer, so the benchmark's
    # input stays the v1 JSON-lines format whatever the writer becomes.
    header = {"format": MATRIX_FORMAT, "vocab_sha256": vocab.sha256, "vocab_size": len(vocab)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for tokens, dist in records:
            record = {
                "tokens": list(tokens),
                "rows": [list(map(float, row)) for row in dist.rows],
                "error_probs": [float(x) for x in dist.error_probs],
            }
            fh.write(json.dumps(record) + "\n")
        # Finish the write-back now, so it does not run into the timed rounds.
        fh.flush()
        os.fsync(fh.fileno())


def make_wide(work: Path, seed: int) -> Plan:
    rng = random.Random(seed)
    train = make_corpus(WIDE_TRAIN, rng.randrange(2**31))
    vocab = _wide_vocab(build_vocab(train, WIDE_WIDTH), rng)
    write_vocab_file(work / "vocab.txt", vocab)
    members = [_Recorder(train_baseline(train, vocab, cw)) for cw in WIDE_MEMBERS]
    hp = Hyperparams()
    pool = iter(make_corpus(WIDE_ROWS, rng.randrange(2**31)))
    # Decode sentences until member A's visited sentences fill the row budget.
    inputs, expected = [], []
    while sum(len(t) + 1 for t in members[0].seen) < WIDE_ROWS:
        source = next(pool)[0]
        inputs.append(source)
        expected.append(run_pipeline(members[0], source, hp).output)
        for other in members[1:]:
            run_pipeline(other, source, hp)
    write_sentences(work / "input.txt", inputs)
    write_sentences(work / "expected.txt", expected)
    paths = [f"{work}/member{name}.jsonl" for name in "AB"]
    for path, member in zip(paths, members):
        _write_matrix_v1(Path(path), vocab, member.seen.items())

    w = str(work)
    specs = [f"matrix={p}" for p in paths]
    member_flags = [x for spec in specs for x in ("--member", spec)]
    commands = [
        Command("correct", ["correct", "--input", f"{w}/input.txt", "--output", f"{w}/correct.txt",
                            "--vocab", f"{w}/vocab.txt", "--tagger", specs[0]], len(inputs),
                [f"{w}/correct.txt"]),
        Command("average", ["ensemble", "--mode", "average", "--source", f"{w}/input.txt", "--output",
                            f"{w}/average.txt", "--vocab", f"{w}/vocab.txt", *member_flags],
                len(inputs), [f"{w}/average.txt"]),
    ]
    facts = _token_facts(inputs)
    facts["expected_correct"] = f"{w}/expected.txt"
    facts["correct_output"] = f"{w}/correct.txt"
    return Plan("wide-matrix", seed, commands, facts)


def _mutate(rng: random.Random, tokens, density: float) -> tuple[str, ...]:
    out: list[str] = []
    for tok in tokens:
        roll = rng.random()
        if roll < density / 3:
            pass
        elif roll < 2 * density / 3:
            out.append(rng.choice(LONG_WORDS))
        else:
            out.append(tok)
        if rng.random() < density / 3:
            out.append(rng.choice(LONG_WORDS))
    return tuple(out)


def make_long(work: Path, seed: int) -> Plan:
    rng = random.Random(seed)
    sources, targets, second, outputs = [], [], [], [[] for _ in range(LONG_MEMBERS)]
    for _ in range(LONG_PAIRS):
        src = tuple(rng.choice(LONG_WORDS) for _ in range(rng.randint(LONG_MIN_LEN, LONG_MAX_LEN)))
        tgt = _mutate(rng, src, 0.3 + 0.3 * rng.random())
        sources.append(src)
        targets.append(tgt)
        second.append(_mutate(rng, tgt, 0.1))
        for member in outputs:
            member.append(_mutate(rng, tgt, 0.15))
    write_tsv_corpus(work / "train.tsv", list(zip(sources, targets)))
    write_sentences(work / "source.txt", sources)
    for k, member in enumerate(outputs):
        write_sentences(work / f"member{k}.txt", member)
    write_m2(work / "gold.m2", _m2_blocks(sources, [targets, second]))

    w = str(work)
    vote_flags = [x for k in range(LONG_MEMBERS) for x in ("--member", f"{w}/member{k}.txt")]
    commands = [
        Command("build-vocab", ["build-vocab", "--input", f"{w}/train.tsv", "--output", f"{w}/vocab.txt"],
                LONG_PAIRS, [f"{w}/vocab.txt"]),
        Command("encode", ["encode", "--input", f"{w}/train.tsv", "--output", f"{w}/tags.txt"],
                LONG_PAIRS, [f"{w}/tags.txt"]),
        Command("vote", ["ensemble", "--mode", "vote", "--source", f"{w}/source.txt", "--output",
                         f"{w}/vote.txt", *vote_flags], LONG_PAIRS, [f"{w}/vote.txt"]),
        Command("score", ["score", "--hyp", f"{w}/vote.txt", "--gold", f"{w}/gold.m2"],
                LONG_PAIRS, stdout=True),
    ]
    facts = _token_facts(sources)
    facts["encode_input"] = f"{w}/train.tsv"
    facts["encode_output"] = f"{w}/tags.txt"
    facts["vote_members"] = [f"{w}/member{k}.txt" for k in range(LONG_MEMBERS)]
    facts["vote_output"] = f"{w}/vote.txt"
    facts["vote_source"] = f"{w}/source.txt"
    return Plan("long-align", seed, commands, facts)


MAKERS = {"desk-decode": make_desk, "wide-matrix": make_wide, "long-align": make_long}


def make_plan(workload: str, work: Path, seed: int) -> Plan:
    work.mkdir(parents=True, exist_ok=True)
    return MAKERS[workload](work, seed)
