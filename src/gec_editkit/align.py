"""Token alignment, span-edit extraction, and tag encoding.

The Levenshtein kernel is the hot loop of every corpus-scale operation
(vocabulary building, baseline training, span voting, scoring).  It is the
bit-parallel pure-Python kernel in ``_levenshtein``, which returns one op
code per alignment step; this module reads those codes directly.

Every alignment goes through one batch entry, ``_runs_batch``: the corpus
operations (``extract_edits_batch``, ``encode_tags_batch``, ``count_passes``
and so ``build_vocab`` and training, ``ensemble.vote_correct_batch``) hand it
all their pairs at once, and the per-pair functions a batch of one.  It
trims each pair's common suffix, answers pairs left with an empty side
without the kernel, and hands the rest, as tokens, to
``_levenshtein.backtrace_ops_batch``.  That aligns the pairs whose source
holds 1 to 64 tokens in one vectorised bit-parallel pass when there are at
least ``_levenshtein.BATCH_MIN`` of them, and every other pair one by one.
The kernel compares tokens only for equality, so they need no interning.

The common suffix of a pair never reaches the kernel.  The backtrace starts
at the end of both sequences and takes equal tokens as MATCH before reading
anything else, so it always consumes the maximal common suffix as MATCHes,
and what it does afterwards depends only on the prefixes left.  Aligning the
prefixes alone therefore gives exactly the full op stream minus its trailing
MATCHes.  The common prefix gets no such shortcut: the backtrace reaches it
last, after choices that may have used its tokens.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence

from . import _levenshtein
from ._levenshtein import OP_DELETE, OP_INSERT, OP_MATCH, OP_SUBSTITUTE
from .errors import ContractError
from .spans import EditSpan, TokenSeq, _span, validate_tokens
from .tags import DELETE, KEEP, Tag, TagSeq, _tag_seq, append, replace
from .transforms import VerbLexicon, apply_tags, detect_transform

_DELETE = bytes([OP_DELETE])
_INSERT = bytes([OP_INSERT])


def alignment_backend() -> str:
    """Always "python", the one alignment kernel: ``perfbench/worker.py`` stamps each result with it."""
    return "python"


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
    kernel_pairs = [(src[:n], tgt[:m]) for (src, tgt), (n, m) in zip(pairs, ends) if n and m]
    codes = iter(_levenshtein.backtrace_ops_batch(kernel_pairs))
    # One side empty: n DELETEs or m INSERTs is the only alignment.
    return (
        _walk(next(codes)) if n and m else [(0, n, 0, m, _DELETE * n + _INSERT * m)] if n or m else []
        for n, m in ends
    )


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
    """The spans of ``runs``: the target is checked once here, so its slices need no check of their own."""
    target = validate_tokens(target)
    return [
        _span(src_start, src_end, target[tgt_start:tgt_end])
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
    return _tags(src, tgt, _runs(src, tgt), lexicon, {})


def encode_tags_batch(
    pairs: Iterable[tuple[Sequence[str], Sequence[str]]],
    lexicon: VerbLexicon | None = None,
) -> list[TagSeq]:
    """encode_tags of each ``(source, target)`` pair; each distinct pair is aligned once, all in one batch.

    A pair whose sides are equal, as every walk's last pass is, encodes as
    all KEEP without being aligned.  Each distinct ``(token, replacement)``
    substitution goes through detect_transform once for the whole batch.
    """
    pairs = [(tuple(source), tuple(target)) for source, target in pairs]
    distinct = list(dict.fromkeys(pairs))
    tags = {pair: _tag_seq([KEEP] * (len(pair[0]) + 1)) for pair in distinct if pair[0] == pair[1]}
    unequal = [pair for pair in distinct if pair not in tags]
    substitutions: dict[tuple[str, TokenSeq], Tag] = {}
    tags.update(
        (pair, _tags(*pair, runs, lexicon, substitutions)) for pair, runs in zip(unequal, _runs_batch(unequal))
    )
    return [tags[pair] for pair in pairs]


def _substitution(token: str, repl: TokenSeq, lexicon: VerbLexicon | None) -> Tag:
    """The tag replacing ``token`` by ``repl``: a transform if one fits, else REPLACE by its first token."""
    transform = detect_transform(token, repl, lexicon)
    return replace(repl[0]) if transform is None else transform


def _tags(
    src: TokenSeq,
    tgt: TokenSeq,
    runs: list[_Run],
    lexicon: VerbLexicon | None,
    substitutions: dict[tuple[str, TokenSeq], Tag],
) -> TagSeq:
    """The tags of one pass.  ``substitutions`` maps each ``(token,
    replacement)`` met so far to its _substitution tag and gets the new ones."""
    tags: list[Tag] = [KEEP] * (len(src) + 1)
    for src_start, src_end, tgt_start, tgt_end, codes in runs:
        repl = tgt[tgt_start:tgt_end]
        width = src_end - src_start
        if width == 0:
            # Pure insertion: the anchor is the preceding (matched) position,
            # whose tag slot is still free.
            if tags[src_start].is_keep:
                tags[src_start] = append(repl[0])
        elif width == 1 and not repl:  # no transform deletes
            tags[src_start + 1] = DELETE
        elif width == 1:
            key = (src[src_start], repl)
            tag = substitutions.get(key)
            if tag is None:
                tag = substitutions[key] = _substitution(*key, lexicon)
            tags[src_start + 1] = tag
        else:
            i, j = src_start, tgt_start
            for code in codes:
                if code == OP_SUBSTITUTE:
                    key = (src[i], tgt[j:j + 1])
                    tag = substitutions.get(key)
                    if tag is None:
                        tag = substitutions[key] = _substitution(*key, lexicon)
                    tags[i + 1] = tag
                    i += 1
                    j += 1
                elif code == OP_DELETE:
                    tags[i + 1] = DELETE
                    i += 1
                else:  # INSERT: only lands if the anchor slot is free
                    if tags[i].is_keep:
                        tags[i] = append(tgt[j])
                    j += 1
    return _tag_seq(tags)


def count_passes(
    pairs: Iterable[tuple[Sequence[str], Sequence[str]]],
    lexicon: VerbLexicon | None = None,
) -> dict[tuple[TokenSeq, TagSeq], int]:
    """Every distinct ``(sentence, tags)`` pass of encoding each pair to convergence, with its count.

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
            # len(target)+1 applies suffice to reach the target, and one more
            # encode observes the all-KEEP fixed point.
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
