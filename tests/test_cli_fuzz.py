"""Seeded corruption of every input kind the command line reads.

Each input is truncated, has a byte flipped or has a byte inserted, and one
copy gets a 0xff byte at the start of its middle line.  A run either exits 0
or exits 1 with an ``error:`` line naming the corrupted file; nothing raises
out of ``main`` and a failed run leaves no output or temporary file behind.
"""

from __future__ import annotations

import random

import pytest

from gec_editkit import (
    M2Block,
    M2Edit,
    build_vocab,
    extract_edits,
    train_baseline,
    write_m2,
    write_matrix_file,
    write_sentences,
    write_tsv_corpus,
    write_vocab_file,
)
from gec_editkit.cli import main

from deskdata import make_corpus

LEXICON = "go\tVBZ\tgoes\ngo\tVBD\twent\nbe\tVBZ\tis\nbe\tVBD\twas\nhave\tVBZ\thas\nhave\tVBD\thad\n"

# Input kind -> (the clean file's name, the command that reads it from {bad}).
# Every other input of the command is the clean file in {clean}.
COMMANDS = {
    "sentences": ("sents.txt", ["correct", "--input", "{bad}", "--output", "{out}", "--vocab", "{clean}/vocab.txt",
                                "--tagger", "matrix={clean}/matrix.jsonl"]),
    "tsv": ("train.tsv", ["build-vocab", "--input", "{bad}", "--output", "{out}"]),
    "m2": ("gold.m2", ["score", "--hyp", "{clean}/hyp.txt", "--gold", "{bad}"]),
    "vocab": ("vocab.txt", ["correct", "--input", "{clean}/sents.txt", "--output", "{out}", "--vocab", "{bad}",
                            "--tagger", "baseline={clean}/train.tsv"]),
    "matrix": ("matrix.jsonl", ["correct", "--input", "{clean}/sents.txt", "--output", "{out}",
                                "--vocab", "{clean}/vocab.txt", "--tagger", "matrix={bad}"]),
    "lexicon": ("verbs.tsv", ["encode", "--input", "{clean}/train.tsv", "--output", "{out}", "--lexicon", "{bad}"]),
    "tags": ("tags.txt", ["apply", "--source", "{clean}/train_sources.txt", "--tags", "{bad}", "--output", "{out}"]),
}


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    d = tmp_path_factory.mktemp("clean")
    pairs = make_corpus(30, seed=11)
    train, dev = pairs[:20], pairs[20:]
    write_tsv_corpus(d / "train.tsv", train)
    write_sentences(d / "train_sources.txt", [s for s, _ in train])
    write_sentences(d / "sents.txt", [s for s, _ in dev])
    write_sentences(d / "hyp.txt", [t for _, t in dev])
    write_m2(d / "gold.m2", [M2Block(s, {0: tuple(M2Edit(e) for e in extract_edits(s, t))}) for s, t in dev])
    vocab = build_vocab(train, 100)
    write_vocab_file(d / "vocab.txt", vocab)
    model = train_baseline(train, vocab, context_width=1)
    write_matrix_file(d / "matrix.jsonl", vocab, [(s, model.predict(s)) for s, _ in dev])
    (d / "verbs.tsv").write_text(LEXICON, encoding="utf-8")
    assert main(["encode", "--input", str(d / "train.tsv"), "--output", str(d / "tags.txt")]) == 0
    return d


def _run(clean, tmp_path, capsys, kind: str, data: bytes) -> tuple[int, str, str]:
    """Run ``kind``'s command on ``data``: (exit code, what it printed, what it wrote)."""
    name, argv = COMMANDS[kind]
    bad = tmp_path / ("bad-" + name)
    bad.write_bytes(data)
    out = tmp_path / "out"
    rc = main([arg.format(bad=bad, out=out, clean=clean) for arg in argv])
    printed = capsys.readouterr()
    left = sorted(p.name for p in tmp_path.iterdir())
    if rc != 0:
        assert rc == 1
        assert printed.err.startswith("error: ") and str(bad) in printed.err, printed.err
        assert left == [bad.name]
        return rc, printed.err, ""
    assert left == sorted([bad.name] + ([out.name] if "{out}" in argv else []))
    written = out.read_text(encoding="utf-8") if out.exists() else ""
    out.unlink(missing_ok=True)
    return rc, printed.out, written


def _corrupt(rng: random.Random, data: bytes) -> bytes:
    at = rng.randrange(len(data))
    how = rng.choice(("truncate", "flip", "insert"))
    if how == "truncate":
        return data[:at]
    if how == "flip":
        return data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
    return data[:at] + bytes([rng.randrange(256)]) + data[at:]


@pytest.mark.parametrize("kind", sorted(COMMANDS))
def test_corrupted_inputs_fail_cleanly(clean, tmp_path, capsys, kind):
    data = (clean / COMMANDS[kind][0]).read_bytes()
    assert _run(clean, tmp_path, capsys, kind, data)[0] == 0
    rng = random.Random(f"cli-fuzz-{kind}")
    for _ in range(12):
        _run(clean, tmp_path, capsys, kind, _corrupt(rng, data))


@pytest.mark.parametrize("kind", sorted(COMMANDS))
def test_a_non_utf8_byte_fails_at_its_line(clean, tmp_path, capsys, kind):
    lines = (clean / COMMANDS[kind][0]).read_bytes().splitlines(keepends=True)
    middle = len(lines) // 2
    lines[middle] = b"\xff" + lines[middle]
    rc, err, _ = _run(clean, tmp_path, capsys, kind, b"".join(lines))
    assert rc == 1
    assert f"{tmp_path / ('bad-' + COMMANDS[kind][0])}:{middle + 1}: not UTF-8" in err


@pytest.mark.parametrize("kind", ["sentences", "tsv", "m2", "vocab"])
def test_crlf_inputs_read_like_their_lf_twins(clean, tmp_path, capsys, kind):
    data = (clean / COMMANDS[kind][0]).read_bytes()
    assert b"\r" not in data
    lf = _run(clean, tmp_path, capsys, kind, data)
    assert lf[0] == 0
    assert _run(clean, tmp_path, capsys, kind, data.replace(b"\n", b"\r\n")) == lf
