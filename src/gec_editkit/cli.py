"""Batch command-line surface.

Every subcommand is a thin deterministic wrapper over one library operation:
it reads its inputs, calls the library, and writes its outputs.  Identical
inputs, flags, and seed produce byte-identical outputs.  All file reading and
writing goes through ``gec_editkit.corpus``: a malformed or non-UTF-8 input
fails at ``path:line``, and a failed command leaves no partial output.

Tagger member specs (for correct/ensemble/tune/distill) take two forms::

    matrix=predictions.jsonl          serve rows from a matrix file
    baseline=train.tsv[,cw=1][,sm=1.0]  train the count-based tagger on the fly
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import replace
from typing import Sequence

from .align import encode_tags_batch, extract_edits_batch
from .corpus import (
    filter_edit_free,
    read_lines,
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
from .ensemble import _check_quorum, average_correct_batch, vote_correct_batch
from .errors import ContractError, EditKitError, InputError
from .matrix_io import read_matrix_file
from .score import score_corpus
from .spans import TokenSeq
from .tagger import BaselineTagger, MatrixTagger, Tagger, train_baselines
from .tags import parse_tag
from .transforms import VerbLexicon
from .tune import tune_hyperparams
from .vocab import build_vocab, read_vocab_file, write_vocab_file

MODES = ("average", "vote")


def _load_lexicon(args: argparse.Namespace) -> VerbLexicon | None:
    return VerbLexicon.from_path(args.lexicon) if args.lexicon else None


def _parse_spec(spec: str, vocab_size: int) -> tuple[str, tuple[int, float] | None]:
    """``(path, (context_width, smoothing))`` of a baseline spec, ``(path, None)`` of a matrix spec.

    A baseline shape is checked against a vocab of ``vocab_size`` tags.
    """
    kind, sep, rest = spec.partition("=")
    if not sep or not rest:
        raise ContractError(f"bad tagger spec {spec!r}: expected matrix=PATH or baseline=PATH[,cw=N][,sm=X]")
    if kind == "matrix":
        return rest, None
    if kind != "baseline":
        raise ContractError(f"unknown tagger kind {kind!r} in {spec!r}")
    parts = rest.split(",")
    context_width, smoothing = 1, 1.0
    seen: set[str] = set()
    for opt in parts[1:]:
        key, _, value = opt.partition("=")
        if key not in ("cw", "sm"):
            raise ContractError(f"unknown baseline option {key!r} in {spec!r}")
        if key in seen:
            raise ContractError(f"baseline option {key!r} given twice in {spec!r}")
        seen.add(key)
        try:
            if key == "cw":
                context_width = int(value)
            else:
                smoothing = float(value)
        except ValueError:
            raise ContractError(f"bad numeric option {opt!r} in tagger spec {spec!r}") from None
    BaselineTagger.check_shape(context_width, smoothing, vocab_size)
    return parts[0], (context_width, smoothing)


def _build_taggers(specs: Sequence[str], vocab, lexicon: VerbLexicon | None) -> list[Tagger]:
    """One tagger per spec, in spec order.

    Every spec is parsed before any file is read.  Baseline members that
    share a training TSV are trained together: the file is read and encoded
    once for all of them.
    """
    parsed = [_parse_spec(spec, len(vocab)) for spec in specs]
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
    """The hyperparameters given on the command line; Hyperparams fills in the rest."""
    given = {name: getattr(args, name, None) for name in ("ac", "mep", "max_iters")}
    return Hyperparams(**{name: value for name, value in given.items() if value is not None})


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
    _check_quorum(n_min, n_members)
    return n_min


def cmd_build_vocab(args: argparse.Namespace) -> int:
    pairs = read_tsv_corpus(args.input)
    vocab = build_vocab(pairs, args.size, _load_lexicon(args))
    write_vocab_file(args.output, vocab)
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    lexicon = _load_lexicon(args)
    pairs = read_tsv_corpus(args.input)
    write_sentences(args.output, [[tag.text for tag in tags] for tags in encode_tags_batch(pairs, lexicon)])
    return 0


def cmd_apply(args: argparse.Namespace) -> int:
    lexicon = _load_lexicon(args)
    sentences = read_sentences(args.source)
    # The line count is checked before any tag is parsed, so counting takes a
    # pass of its own: a short or long tag file fails as a mismatch of the
    # two files, not at the first line whose tags do not fit.
    with read_lines(args.tags) as lines:
        n_tag_lines = sum(1 for _ in lines)
    if len(sentences) != n_tag_lines:
        raise InputError(f"{args.source} has {len(sentences)} sentences but {args.tags} has {n_tag_lines} tag lines")
    with read_lines(args.tags) as lines:
        outputs = [apply_tags(sent, [parse_tag(text) for text in line.split(" ") if text], lexicon)
                   for sent, line in zip(sentences, lines)]
    write_sentences(args.output, outputs)
    return 0


def cmd_correct(args: argparse.Namespace) -> int:
    hp = _hp(args)
    lexicon = _load_lexicon(args)
    vocab = read_vocab_file(args.vocab)
    (tagger,) = _build_taggers([args.tagger], vocab, lexicon)
    sentences = read_sentences(args.input)
    write_sentences(args.output, [result.output for result in run_pipeline_batch(tagger, sentences, hp, lexicon)])
    return 0


def cmd_ensemble(args: argparse.Namespace) -> int:
    n_min = _quorum(args, len(args.member))
    if args.mode == "vote":
        unread = {"--vocab": args.vocab, "--lexicon": args.lexicon, "--ac": args.ac, "--mep": args.mep,
                  "--max-iters": args.max_iters}
        for flag, value in unread.items():
            if value is not None:
                raise ContractError(f"{flag} is not read by --mode vote, which combines the members' output text")
        sources = read_sentences(args.source)
        member_outputs = [read_sentences(path) for path in args.member]
        for path, outputs in zip(args.member, member_outputs):
            if len(outputs) != len(sources):
                raise InputError(f"{path} has {len(outputs)} sentences, {args.source} has {len(sources)}")
        corrected = vote_correct_batch(sources, member_outputs, n_min)
    else:
        hp = _hp(args)
        if not args.vocab:
            raise ContractError("--vocab is required in average mode")
        lexicon = _load_lexicon(args)
        sources = read_sentences(args.source)
        vocab = read_vocab_file(args.vocab)
        taggers = _build_taggers(args.member, vocab, lexicon)
        corrected = average_correct_batch(taggers, sources, hp, lexicon)
    write_sentences(args.output, corrected)
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    blocks = read_m2(args.gold)
    hyps = read_sentences(args.hyp)
    if len(hyps) != len(blocks):
        raise InputError(f"{args.hyp} has {len(hyps)} sentences, {args.gold} has {len(blocks)} blocks")
    hyp_edits = extract_edits_batch([block.source for block in blocks], hyps)
    report = score_corpus(hyp_edits, [block.gold_edit_lists() for block in blocks])
    print(report.summary())
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    _at_least_one("trials", args.trials)
    base = _hp(args)
    lexicon = _load_lexicon(args)
    vocab = read_vocab_file(args.vocab)
    (tagger,) = _build_taggers([args.tagger], vocab, lexicon)
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
        return vote_correct_batch(sources, member_outputs, n_min)

    pairs, stats = distill(correct, read_sentences(args.input), args.limit)
    write_tsv_corpus(args.output, pairs)
    print(stats.summary())
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    write_tsv_corpus(args.output, filter_edit_free(read_tsv_corpus(args.input)))
    return 0


def _add_hp_flags(p: argparse.ArgumentParser, n_min: bool = False) -> None:
    p.add_argument("--ac", type=float, help="extra confidence added to KEEP (default 0)")
    p.add_argument("--mep", type=float, help="minimum error probability (default 0)")
    p.add_argument("--max-iters", type=int, help="correction passes (default 4)")
    if n_min:
        p.add_argument("--n-min", type=int, default=None, help="vote mode's quorum (default members - 1)")


def _build_vocab_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--size", type=int, default=5000, help="vocabulary size cap (default 5000)")
    p.add_argument("--lexicon")
    p.set_defaults(func=cmd_build_vocab)


def _encode_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--lexicon")
    p.set_defaults(func=cmd_encode)


def _apply_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", required=True)
    p.add_argument("--tags", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--lexicon")
    p.set_defaults(func=cmd_apply)


def _correct_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--tagger", required=True, help="matrix=PATH or baseline=PATH[,cw=N][,sm=X]")
    p.add_argument("--lexicon")
    _add_hp_flags(p)
    p.set_defaults(func=cmd_correct)


def _ensemble_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--output", required=True)
    p.add_argument(
        "--member",
        action="append",
        required=True,
        help="vote: a member's corrected text file; average: a tagger spec",
    )
    p.add_argument("--vocab", help="required in average mode, refused in vote mode")
    p.add_argument("--lexicon")
    _add_hp_flags(p, n_min=True)
    p.set_defaults(func=cmd_ensemble)


def _score_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hyp", required=True)
    p.add_argument("--gold", required=True)
    p.set_defaults(func=cmd_score)


def _tune_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gold", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--tagger", required=True, help="matrix=PATH or baseline=PATH[,cw=N][,sm=X]")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, help="correction passes (default 4)")
    p.add_argument("--lexicon")
    p.set_defaults(func=cmd_tune)


def _distill_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--member", action="append", required=True, help="teacher tagger spec(s)")
    p.add_argument("--mode", choices=MODES, default="vote")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--lexicon")
    _add_hp_flags(p, n_min=True)
    p.set_defaults(func=cmd_distill)


def _filter_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_filter)


# Every subcommand, in the order --help lists them: its help line and the
# function that adds its arguments and the command it runs.
SUBCOMMANDS = {
    "build-vocab": ("build a tag vocabulary from a parallel TSV", _build_vocab_args),
    "encode": ("encode one correction pass per TSV pair as tags", _encode_args),
    "apply": ("apply per-line tag sequences to sentences", _apply_args),
    "correct": ("run the iterative pipeline with one tagger", _correct_args),
    "ensemble": ("combine members by probability averaging or span voting", _ensemble_args),
    "score": ("span-level P/R/F0.5 of corrected text against gold M2", _score_args),
    "tune": ("seeded random search over (ac, mep) on a dev M2 file", _tune_args),
    "distill": ("keep only the sentence pairs a teacher system changes", _distill_args),
    "filter": ("drop pairs whose source equals their target", _filter_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser: with every subcommand, or with ``command`` alone.

    A parser with one subcommand parses that subcommand's arguments, and
    prints its help, usage and errors, as the full parser would: its
    top-level usage still names every subcommand.
    """
    parser = argparse.ArgumentParser(prog="gec-editkit", description="Edit-tag GEC toolkit")
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        # The usage names every choice, as the full parser's does.  The full
        # parser takes no metavar: its errors would name the argument by it.
        sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(SUBCOMMANDS) + "}")
    for name in SUBCOMMANDS if command is None else [command]:
        help_text, add_args = SUBCOMMANDS[name]
        add_args(sub.add_parser(name, help=help_text))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand with the cyclic garbage collector paused.

    A command's data (token tuples, spans, tags, arrays) holds no reference
    cycle, so reference counting frees all of it, and the collector would
    only re-scan it.  The parser's own object graph is cyclic, so one young
    collection frees it first; the collector is re-enabled afterwards if it
    was enabled before.  ``tests/test_gc.py`` checks that no command leaves
    cyclic garbage behind.

    When the first argument names a subcommand, only that subcommand's
    parser is built; any other first argument (``--help``, none, an unknown
    command) gets the full parser and its help or error.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None).parse_args(argv)
    gc.collect(1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (EditKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
