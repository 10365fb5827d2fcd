"""Token alignment, span-edit extraction, and tag encoding.

The Levenshtein kernel is the hot loop of every corpus-scale operation
(vocabulary building, baseline training, span voting, scoring), so it lives
in the compiled extension ``_levenshtein_c`` (built from ``_levenshtein.c``)
when one is built; otherwise the bit-parallel pure-Python kernel in
``_levenshtein`` runs.  They differ in algorithm but return identical op
streams, one op code per alignment step, and this module reads those codes
directly.

Every alignment goes through one batch entry, ``_runs_batch``: the corpus
operations (``extract_edits_batch``, ``encode_tags_batch``, ``count_passes``
and so ``build_vocab`` and training, ``ensemble.vote_correct_batch``) hand it
all their pairs at once, and the per-pair functions a batch of one.  It
trims each pair's common suffix, answers pairs left with an empty side
without the kernel, aligns the rest and reads their runs.  Which kernel path
aligns them is decided there and in ``_levenshtein``:

- with the compiled kernel, each pair's interned ids go to it one by one;
- with the pure-Python kernel, the tokens go to
  ``_levenshtein.backtrace_ops_batch``, which aligns the pairs whose source
  holds 1 to 64 tokens in one vectorised bit-parallel pass when there are at
  least ``_levenshtein.BATCH_MIN`` of them, and every other pair one by one.
  The pure-Python kernel compares tokens only for equality, so it needs no
  interning.

The common suffix of a pair never reaches the kernel.  The backtrace starts
at the end of both sequences and takes equal ids as MATCH before reading
anything else, so it always consumes the maximal common suffix as MATCHes,
and what it does afterwards depends only on the prefixes left.  Aligning the
prefixes alone therefore gives exactly the full op stream minus its trailing
MATCHes, on either kernel.  The common prefix gets no such shortcut: the
backtrace reaches it last, after choices that may have used its tokens.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence

from . import _levenshtein
from ._levenshtein import OP_DELETE, OP_INSERT, OP_MATCH, OP_SUBSTITUTE
from .errors import ContractError
from .spans import EditSpan, TokenSeq
from .tags import DELETE, KEEP, Tag, TagSeq, append, replace
from .transforms import VerbLexicon, apply_tags, detect_transform

try:
    from . import _levenshtein_c as _kernel  # type: ignore[no-redef]

    _BACKEND = "c"
except ImportError:
    _kernel = _levenshtein
    _BACKEND = "python"


_DELETE = bytes([OP_DELETE])
_INSERT = bytes([OP_INSERT])


def alignment_backend() -> str:
    """Name of the kernel selected at import: "c" or "python"."""
    return _BACKEND


def _intern(source: Sequence[str], target: Sequence[str]) -> tuple[list[int], list[int]]:
    ids: dict[str, int] = {}
    src = [ids.setdefault(t, len(ids)) for t in source]
    tgt = [ids.setdefault(t, len(ids)) for t in target]
    return src, tgt


_Run = tuple[int, int, int, int, bytes]


def _runs_batch(pairs: Sequence[tuple[Sequence[str], Sequence[str]]]) -> Iterator[list[_Run]]:
    """The runs of each pair, in order: maximal stretches of non-MATCH ops in its minimal-cost alignment.

    Each run is ``(src_start, src_end, tgt_start, tgt_end, codes)``: the
    source and target spans it covers and its slice of the kernel's op codes.
    MATCH and SUBSTITUTE consume one token on each side, DELETE only a source
    token, INSERT only a target token.  The backtrace prefers MATCH, then
    SUBSTITUTE, then DELETE, then INSERT, so the runs are deterministic.

    Only the parts before the common suffix go to the kernel.  The backtrace
    would match that suffix token by token before anything else, and the ops
    it picks from there on depend only on the prefixes, so they are the same
    ops; trailing MATCHes open no run.  Trimming the common prefix as well
    would not be exact: ``("a", "x")`` to ``("a", "a", "y")`` aligns as
    [0, 0) -> a, [1, 2) -> y, but with the prefix cut off as [1, 2) -> a y.
    When the trim leaves one side empty (identical sentences, or one the
    other's suffix), the only alignment is all DELETEs or all INSERTs, and
    the kernel is not called.  The pairs that need the kernel go to it in one
    batch; each pair's runs are read from its op codes as the caller takes
    them, so a caller that keeps only what it makes of them holds one pair's
    runs at a time.
    """
    ends: list[tuple[int, int]] = []
    for source, target in pairs:
        n, m = len(source), len(target)
        while n and m and source[n - 1] == target[m - 1]:
            n -= 1
            m -= 1
        ends.append((n, m))
    codes = iter(_backtrace([(src[:n], tgt[:m]) for (src, tgt), (n, m) in zip(pairs, ends) if n and m]))
    # One side empty: n DELETEs or m INSERTs is the only alignment.
    return (
        _walk(next(codes)) if n and m else [(0, n, 0, m, _DELETE * n + _INSERT * m)] if n or m else []
        for n, m in ends
    )


def _backtrace(pairs: list[tuple[Sequence[str], Sequence[str]]]) -> list[bytes]:
    """The op codes of each pair from the kernel selected at import."""
    if _kernel is _levenshtein:
        return _levenshtein.backtrace_ops_batch(pairs)
    return [_kernel.backtrace_ops(*_intern(source, target)) for source, target in pairs]


def _walk(codes: bytes) -> list[_Run]:
    """The runs of one op stream."""
    runs: list[_Run] = []
    i = j = src_start = tgt_start = 0
    start = -1  # index into codes where the open run began, or -1
    for k, code in enumerate(codes):
        if code == OP_MATCH:
            if start >= 0:
                runs.append((src_start, i, tgt_start, j, codes[start:k]))
                start = -1
            i += 1
            j += 1
            continue
        if start < 0:
            start, src_start, tgt_start = k, i, j
        if code != OP_INSERT:
            i += 1
        if code != OP_DELETE:
            j += 1
    if start >= 0:
        runs.append((src_start, i, tgt_start, j, codes[start:]))
    return runs


def _runs(source: Sequence[str], target: Sequence[str]) -> list[_Run]:
    """_runs_batch of one pair."""
    return next(_runs_batch([(source, target)]))


def _edits(target: TokenSeq, runs: list[_Run]) -> list[EditSpan]:
    return [
        EditSpan(src_start, src_end, target[tgt_start:tgt_end])
        for src_start, src_end, tgt_start, tgt_end, _ in runs
    ]


def extract_edits(source: Sequence[str], target: Sequence[str]) -> list[EditSpan]:
    """Span edits turning ``source`` into ``target``.

    Maximal runs of adjacent non-match alignment ops merge into one span
    each, so the result is sorted, pairwise non-overlapping, and applying it
    with apply_edits reproduces ``target`` exactly.
    """
    tgt = tuple(target)
    return _edits(tgt, _runs(source, tgt))


def extract_edits_batch(
    sources: Sequence[Sequence[str]],
    targets: Sequence[Sequence[str]],
    known: dict[tuple[TokenSeq, TokenSeq], list[EditSpan]] | None = None,
) -> list[list[EditSpan]]:
    """extract_edits of each source against the target at its position.

    Each distinct ``(source, target)`` pair is aligned once, and positions
    that repeat it share its edit list; the pairs not yet known are aligned
    in one batch.  ``known`` maps pairs to edits already extracted and gets
    the new ones, so a caller that scores many corrections of one corpus
    (tune's trials) aligns no pair twice.
    """
    if len(sources) != len(targets):
        raise ContractError(f"{len(sources)} sources but {len(targets)} targets")
    known = {} if known is None else known
    pairs = [(tuple(source), tuple(target)) for source, target in zip(sources, targets)]
    new = [pair for pair in dict.fromkeys(pairs) if pair not in known]
    for pair, runs in zip(new, _runs_batch(new)):
        known[pair] = _edits(pair[1], runs)
    return [known[pair] for pair in pairs]


def encode_tags(
    source: Sequence[str],
    target: Sequence[str],
    lexicon: VerbLexicon | None = None,
) -> TagSeq:
    """Encode one correction pass from ``source`` toward ``target``.

    One tag per position ([START] + tokens).  Substitutions prefer a
    transform tag over a token-specific REPLACE.  Only one appended token fits
    behind any position per pass, and a replacement occupies its position's
    tag slot, so the remaining insertions of a run are deferred: applying this
    pass and re-encoding picks them up, and iteration converges to ``target``
    in at most len(target) + 1 passes.
    """
    src = tuple(source)
    tgt = tuple(target)
    return _tags(src, tgt, _runs(src, tgt), lexicon)


def encode_tags_batch(
    pairs: Iterable[tuple[Sequence[str], Sequence[str]]],
    lexicon: VerbLexicon | None = None,
) -> list[TagSeq]:
    """encode_tags of each ``(source, target)`` pair; each distinct pair is aligned once, all in one batch."""
    pairs = [(tuple(source), tuple(target)) for source, target in pairs]
    distinct = list(dict.fromkeys(pairs))
    tags = {pair: _tags(*pair, runs, lexicon) for pair, runs in zip(distinct, _runs_batch(distinct))}
    return [tags[pair] for pair in pairs]


def _tags(src: TokenSeq, tgt: TokenSeq, runs: list[_Run], lexicon: VerbLexicon | None) -> TagSeq:
    tags: list[Tag] = [KEEP] * (len(src) + 1)
    for src_start, src_end, tgt_start, tgt_end, codes in runs:
        repl = tgt[tgt_start:tgt_end]
        width = src_end - src_start
        if width == 0:
            # Pure insertion: the anchor is the preceding (matched) position,
            # whose tag slot is still free.
            if tags[src_start].is_keep:
                tags[src_start] = append(repl[0])
        elif width == 1:
            transform = detect_transform(src[src_start], repl, lexicon)
            if transform is not None:
                tags[src_start + 1] = transform
            elif not repl:
                tags[src_start + 1] = DELETE
            else:
                tags[src_start + 1] = replace(repl[0])
        else:
            i, j = src_start, tgt_start
            for code in codes:
                if code == OP_SUBSTITUTE:
                    one = (tgt[j],)
                    transform = detect_transform(src[i], one, lexicon)
                    tags[i + 1] = transform if transform is not None else replace(one[0])
                    i += 1
                    j += 1
                elif code == OP_DELETE:
                    tags[i + 1] = DELETE
                    i += 1
                else:  # INSERT: only lands if the anchor slot is free
                    if tags[i].is_keep:
                        tags[i] = append(tgt[j])
                    j += 1
    return TagSeq(tags)


def encode_passes(
    source: Sequence[str],
    target: Sequence[str],
    lexicon: VerbLexicon | None = None,
) -> Iterator[tuple[TokenSeq, TagSeq]]:
    """Run the encoder to convergence, yielding ``(sentence, tags)`` per pass.

    Each pass encodes the current sentence toward ``target`` and the next one
    applies those tags.  The last pass is the all-KEEP one at ``target``, so
    tags that hide behind other edits (deep insertions) show up in some pass.
    """
    cur = tuple(source)
    tgt = tuple(target)
    # len(tgt)+1 applies suffice to reach the target; one more encode
    # observes the all-KEEP fixed point.
    for _ in range(len(tgt) + 2):
        tags = encode_tags(cur, tgt, lexicon)
        yield cur, tags
        if tags.all_keep:
            return
        cur = apply_tags(cur, tags, lexicon)
    raise RuntimeError(f"encoding did not converge for pair {source!r} -> {target!r}")  # pragma: no cover


def count_passes(
    pairs: Iterable[tuple[Sequence[str], Sequence[str]]],
    lexicon: VerbLexicon | None = None,
) -> dict[tuple[TokenSeq, TagSeq], int]:
    """Every distinct ``(sentence, tags)`` pass of encode_passes over ``pairs``, with its count.

    Each distinct pair is encoded once and its passes count once per copy of
    the pair; a pass that several pairs share (every pair with the same
    target ends on the same all-KEEP pass) is one key.  Keys are in the
    order the passes first appear in the stream of all pairs' passes, so
    anything tallied over them in key order first meets its items in the
    order that stream would.

    The pairs walk to convergence side by side: one encode_tags_batch call
    encodes the next pass of every pair not yet at its all-KEEP pass.  The
    passes are counted afterwards, pair by pair, in the stream's order.
    """
    copies = Counter((tuple(s), tuple(t)) for s, t in pairs)
    walks: list[list[tuple[TokenSeq, TagSeq]]] = [[] for _ in copies]
    # (pair's index, its current sentence, its target) for every pair still walking
    active = [(k, source, target) for k, (source, target) in enumerate(copies)]
    while active:
        encoded = encode_tags_batch([(cur, target) for _, cur, target in active], lexicon)
        walking = []
        for (k, cur, target), tags in zip(active, encoded):
            walks[k].append((cur, tags))
            if tags.all_keep:
                continue
            cur = apply_tags(cur, tags, lexicon)
            # As in encode_passes: len(target)+1 applies suffice to reach the
            # target, and one more encode observes the all-KEEP fixed point.
            if len(walks[k]) == len(target) + 2:  # pragma: no cover
                source = list(copies)[k][0]
                raise RuntimeError(f"encoding did not converge for pair {source!r} -> {target!r}")
            walking.append((k, cur, target))
        active = walking
    passes: dict[tuple[TokenSeq, TagSeq], int] = {}
    for walk, n in zip(walks, copies.values()):
        for one in walk:
            passes[one] = passes.get(one, 0) + n
    return passes
