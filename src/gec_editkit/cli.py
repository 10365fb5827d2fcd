"""Batch command-line surface.

Every subcommand is a thin deterministic wrapper over one library operation:
identical inputs, flags, and seed produce byte-identical outputs.  Output
files are written to a temporary sibling and renamed on success, so failures
leave nothing partial behind.

Tagger member specs (for correct/ensemble/tune/distill) take two forms::

    matrix=predictions.jsonl          serve rows from a matrix file
    baseline=train.tsv[,cw=1][,sm=1.0]  train the count-based tagger on the fly
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .align import encode_tags, extract_edits
from .corpus import (
    atomic_output as _atomic_output,
    filter_edit_free,
    read_m2,
    read_sentences,
    read_tsv_corpus,
    write_sentences,
    write_tsv_corpus,
)
# No command calls run_pipeline any more; the name stays in this module because
# perfbench's tracer tests wrap and restore it here.
from .decode import Hyperparams, apply_tags, run_pipeline, run_pipeline_batch  # noqa: F401
from .distill import distill
from .ensemble import average_correct_batch, vote_correct
from .errors import ContractError, EditKitError, InputError
from .matrix_io import read_matrix_file
from .score import score_corpus
from .spans import TokenSeq
from .tagger import BaselineTagger, MatrixTagger, Tagger, train_baselines
from .tags import format_tag, parse_tag
from .transforms import VerbLexicon
from .tune import tune_hyperparams
from .vocab import build_vocab, read_vocab_file, write_vocab_file

MODES = ("average", "vote")


def _load_lexicon(args: argparse.Namespace) -> VerbLexicon | None:
    return VerbLexicon.from_path(args.lexicon) if args.lexicon else None


def _parse_spec(spec: str) -> tuple[str, tuple[int, float] | None]:
    """``(path, (context_width, smoothing))`` of a baseline spec, ``(path, None)`` of a matrix spec."""
    kind, sep, rest = spec.partition("=")
    if not sep or not rest:
        raise ContractError(f"bad tagger spec {spec!r}: expected matrix=PATH or baseline=PATH[,cw=N][,sm=X]")
    if kind == "matrix":
        return rest, None
    if kind != "baseline":
        raise ContractError(f"unknown tagger kind {kind!r} in {spec!r}")
    parts = rest.split(",")
    context_width, smoothing = 1, 1.0
    for opt in parts[1:]:
        key, _, value = opt.partition("=")
        if key not in ("cw", "sm"):
            raise ContractError(f"unknown baseline option {key!r} in {spec!r}")
        try:
            if key == "cw":
                context_width = int(value)
            else:
                smoothing = float(value)
        except ValueError:
            raise ContractError(f"bad numeric option {opt!r} in tagger spec {spec!r}") from None
    BaselineTagger.check_shape(context_width, smoothing)
    return parts[0], (context_width, smoothing)


def _build_taggers(specs: Sequence[str], vocab, lexicon: VerbLexicon | None) -> list[Tagger]:
    """One tagger per spec, in spec order.

    Every spec is parsed before any file is read.  Baseline members that
    share a training TSV are trained together: the file is read and encoded
    once for all of them.
    """
    parsed = [_parse_spec(spec) for spec in specs]
    taggers: list[Tagger | None] = [None] * len(parsed)
    baselines: dict[str, list[int]] = {}
    for i, (path, shape) in enumerate(parsed):
        if shape is None:
            taggers[i] = MatrixTagger.from_records(vocab, read_matrix_file(path, vocab))
        else:
            baselines.setdefault(path, []).append(i)
    for path, members in baselines.items():
        models = train_baselines(read_tsv_corpus(path), vocab, [parsed[i][1] for i in members], lexicon)
        for i, model in zip(members, models):
            taggers[i] = model
    return taggers


def _at_least_one(name: str, value: int) -> None:
    """Refuse a count below 1 before the command reads or trains anything."""
    if value < 1:
        raise ContractError(f"{name} must be >= 1, got {value}")


def _hp(args: argparse.Namespace) -> Hyperparams:
    return Hyperparams(args.ac, args.mep, args.max_iters)


def _quorum(args: argparse.Namespace, n_members: int) -> int | None:
    """The vote quorum: ``--n-min``, else members - 1 (at least 1); None when averaging.

    Checked here, before any sentence runs, so a bad quorum fails the command
    instead of failing every sentence, and a quorum given to average mode,
    which has no use for it, is refused instead of ignored.
    """
    if args.mode != "vote":
        if args.n_min is not None:
            raise ContractError(f"--n-min is the vote mode's quorum; --mode {args.mode} takes none")
        return None
    n_min = max(1, n_members - 1) if args.n_min is None else args.n_min
    if not 1 <= n_min <= n_members:
        raise ContractError(f"n_min must lie in [1, {n_members}], got {n_min}")
    return n_min


def cmd_build_vocab(args: argparse.Namespace) -> int:
    pairs = read_tsv_corpus(args.input)
    vocab = build_vocab(pairs, args.size, _load_lexicon(args))
    with _atomic_output(args.output) as tmp:
        write_vocab_file(tmp, vocab)
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    lexicon = _load_lexicon(args)
    pairs = read_tsv_corpus(args.input)
    lines = [
        " ".join(format_tag(t) for t in encode_tags(src, tgt, lexicon)) for src, tgt in pairs
    ]
    with _atomic_output(args.output) as tmp:
        tmp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return 0


def cmd_apply(args: argparse.Namespace) -> int:
    lexicon = _load_lexicon(args)
    sentences = read_sentences(args.source)
    tag_lines = Path(args.tags).read_text(encoding="utf-8").splitlines()
    if len(sentences) != len(tag_lines):
        raise InputError(f"{len(sentences)} sentences but {len(tag_lines)} tag lines")
    outputs = []
    for sent, line in zip(sentences, tag_lines):
        tags = [parse_tag(text) for text in line.split(" ") if text]
        outputs.append(apply_tags(sent, tags, lexicon))
    with _atomic_output(args.output) as tmp:
        write_sentences(tmp, outputs)
    return 0


def cmd_correct(args: argparse.Namespace) -> int:
    lexicon = _load_lexicon(args)
    vocab = read_vocab_file(args.vocab)
    (tagger,) = _build_taggers([args.tagger], vocab, lexicon)
    hp = _hp(args)
    sentences = read_sentences(args.input)
    outputs = [result.output for result in run_pipeline_batch(tagger, sentences, hp, lexicon)]
    with _atomic_output(args.output) as tmp:
        write_sentences(tmp, outputs)
    return 0


def cmd_ensemble(args: argparse.Namespace) -> int:
    n_min = _quorum(args, len(args.member))
    lexicon = _load_lexicon(args)
    sources = read_sentences(args.source)
    if args.mode == "vote":
        member_outputs = [read_sentences(path) for path in args.member]
        for path, outputs in zip(args.member, member_outputs):
            if len(outputs) != len(sources):
                raise InputError(f"{path}: {len(outputs)} sentences, source has {len(sources)}")
        rows = list(zip(*member_outputs)) if member_outputs else []
        corrected = [vote_correct(src, row, n_min) for src, row in zip(sources, rows)]
    else:
        if not args.vocab:
            raise ContractError("--vocab is required in average mode")
        vocab = read_vocab_file(args.vocab)
        taggers = _build_taggers(args.member, vocab, lexicon)
        corrected = average_correct_batch(taggers, sources, _hp(args), lexicon)
    with _atomic_output(args.output) as tmp:
        write_sentences(tmp, corrected)
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    blocks = read_m2(args.gold)
    hyps = read_sentences(args.hyp)
    if len(hyps) != len(blocks):
        raise InputError(f"hypothesis has {len(hyps)} sentences, gold has {len(blocks)}")
    hyp_edits = [extract_edits(block.source, hyp) for block, hyp in zip(blocks, hyps)]
    report = score_corpus(hyp_edits, [block.gold_edit_lists() for block in blocks])
    print(report.summary())
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    _at_least_one("trials", args.trials)
    lexicon = _load_lexicon(args)
    vocab = read_vocab_file(args.vocab)
    (tagger,) = _build_taggers([args.tagger], vocab, lexicon)
    base = Hyperparams(max_iters=args.max_iters)
    blocks = read_m2(args.gold)
    sources = [block.source for block in blocks]
    gold = [block.gold_edit_lists() for block in blocks]

    def correct(sources: Sequence[TokenSeq], ac: float, mep: float) -> list[TokenSeq]:
        hp = replace(base, ac=ac, mep=mep)
        return [result.output for result in run_pipeline_batch(tagger, sources, hp, lexicon)]

    result = tune_hyperparams(correct, sources, gold, args.trials, args.seed, base)
    print(f"ac {result.best.ac!r} mep {result.best.mep!r}")
    print(result.report.summary())
    return 0


def cmd_distill(args: argparse.Namespace) -> int:
    hp = _hp(args)
    n_min = _quorum(args, len(args.member))
    _at_least_one("limit", args.limit)
    lexicon = _load_lexicon(args)
    vocab = read_vocab_file(args.vocab)
    taggers = _build_taggers(args.member, vocab, lexicon)

    def correct(sources: Sequence[TokenSeq]) -> list[TokenSeq]:
        if args.mode == "average":
            return average_correct_batch(taggers, sources, hp, lexicon)
        member_outputs = [[r.output for r in run_pipeline_batch(tagger, sources, hp, lexicon)] for tagger in taggers]
        return [vote_correct(source, row, n_min) for source, row in zip(sources, zip(*member_outputs))]

    pairs, stats = distill(correct, read_sentences(args.input), args.limit)
    with _atomic_output(args.output) as tmp:
        write_tsv_corpus(tmp, pairs)
    print(stats.summary())
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    pairs = read_tsv_corpus(args.input)
    with _atomic_output(args.output) as tmp:
        write_tsv_corpus(tmp, filter_edit_free(pairs))
    return 0


def _add_hp_flags(p: argparse.ArgumentParser, n_min: bool = False) -> None:
    p.add_argument("--ac", type=float, default=0.0, help="extra confidence added to KEEP (default 0)")
    p.add_argument("--mep", type=float, default=0.0, help="minimum error probability (default 0)")
    p.add_argument("--max-iters", type=int, default=4, help="correction passes (default 4)")
    if n_min:
        p.add_argument("--n-min", type=int, default=None, help="vote mode's quorum (default members - 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gec-editkit", description="Edit-tag GEC toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a tag vocabulary from a parallel TSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--size", type=int, default=5000, help="vocabulary size cap (default 5000)")
    p.add_argument("--lexicon")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("encode", help="encode one correction pass per TSV pair as tags")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--lexicon")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("apply", help="apply per-line tag sequences to sentences")
    p.add_argument("--source", required=True)
    p.add_argument("--tags", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--lexicon")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("correct", help="run the iterative pipeline with one tagger")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--tagger", required=True, help="matrix=PATH or baseline=PATH[,cw=N][,sm=X]")
    p.add_argument("--lexicon")
    _add_hp_flags(p)
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("ensemble", help="combine members by probability averaging or span voting")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--output", required=True)
    p.add_argument(
        "--member",
        action="append",
        required=True,
        help="vote: a member's corrected text file; average: a tagger spec",
    )
    p.add_argument("--vocab", help="required in average mode")
    p.add_argument("--lexicon")
    _add_hp_flags(p, n_min=True)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("score", help="span-level P/R/F0.5 of corrected text against gold M2")
    p.add_argument("--hyp", required=True)
    p.add_argument("--gold", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("tune", help="seeded random search over (ac, mep) on a dev M2 file")
    p.add_argument("--gold", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--tagger", required=True, help="matrix=PATH or baseline=PATH[,cw=N][,sm=X]")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=4)
    p.add_argument("--lexicon")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("distill", help="keep only the sentence pairs a teacher system changes")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--member", action="append", required=True, help="teacher tagger spec(s)")
    p.add_argument("--mode", choices=MODES, default="vote")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--lexicon")
    _add_hp_flags(p, n_min=True)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("filter", help="drop pairs whose source equals their target")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_filter)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EditKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
