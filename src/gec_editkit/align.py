"""Token alignment, span-edit extraction, and tag encoding.

The Levenshtein kernel is the hot loop of every corpus-scale operation
(vocabulary building, baseline training, span voting, scoring), so it lives
in a compiled extension with this module picking the backend at import time.
Set GEC_EDITKIT_PURE_PYTHON=1 to force the pure-Python fallback.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterator, Sequence

from . import _levenshtein
from .decode import apply_tags
from .spans import EditSpan, TokenSeq
from .tags import DELETE, KEEP, Tag, TagSeq, append, replace
from .transforms import detect_transform

if TYPE_CHECKING:
    from .transforms import VerbLexicon

if os.environ.get("GEC_EDITKIT_PURE_PYTHON"):
    _kernel = _levenshtein
    _BACKEND = "python"
else:
    try:
        from . import _levenshtein_cy as _kernel  # type: ignore[no-redef]

        _BACKEND = "cython"
    except ImportError:
        _kernel = _levenshtein
        _BACKEND = "python"


def alignment_backend() -> str:
    """Name of the kernel selected at import: "cython" or "python"."""
    return _BACKEND


class OpKind(Enum):
    MATCH = _levenshtein.OP_MATCH
    SUBSTITUTE = _levenshtein.OP_SUBSTITUTE
    DELETE = _levenshtein.OP_DELETE
    INSERT = _levenshtein.OP_INSERT


@dataclass(frozen=True, slots=True)
class AlignmentOp:
    """One alignment step.

    MATCH/SUBSTITUTE consume one token on each side; DELETE consumes only a
    source token; INSERT only a target token.  The indices record the cursor
    on each side when the op fires, so replaying the ops reconstructs both
    sequences.
    """

    kind: OpKind
    src_index: int
    tgt_index: int


def _intern(source: Sequence[str], target: Sequence[str]) -> tuple[list[int], list[int]]:
    ids: dict[str, int] = {}
    src = [ids.setdefault(t, len(ids)) for t in source]
    tgt = [ids.setdefault(t, len(ids)) for t in target]
    return src, tgt


def align_tokens(source: Sequence[str], target: Sequence[str]) -> list[AlignmentOp]:
    """Minimal-cost token alignment under unit costs (match is free).

    Deterministic: the backtrace prefers MATCH, then SUBSTITUTE, then DELETE,
    then INSERT.
    """
    src_ids, tgt_ids = _intern(source, target)
    codes = _kernel.backtrace_ops(src_ids, tgt_ids)
    ops: list[AlignmentOp] = []
    i = j = 0
    for code in codes:
        kind = OpKind(code)
        ops.append(AlignmentOp(kind, i, j))
        if kind is OpKind.MATCH or kind is OpKind.SUBSTITUTE:
            i += 1
            j += 1
        elif kind is OpKind.DELETE:
            i += 1
        else:
            j += 1
    return ops


@dataclass(frozen=True, slots=True)
class _Run:
    """A maximal stretch of non-MATCH ops: source span plus target span."""

    src_start: int
    src_end: int
    tgt_start: int
    tgt_end: int
    ops: tuple[AlignmentOp, ...]


def _runs(ops: Sequence[AlignmentOp]) -> list[_Run]:
    runs: list[_Run] = []
    bucket: list[AlignmentOp] = []
    for op in ops:
        if op.kind is OpKind.MATCH:
            if bucket:
                runs.append(_close_run(bucket))
                bucket = []
        else:
            bucket.append(op)
    if bucket:
        runs.append(_close_run(bucket))
    return runs


def _close_run(bucket: list[AlignmentOp]) -> _Run:
    first, last = bucket[0], bucket[-1]
    src_end = last.src_index + (0 if last.kind is OpKind.INSERT else 1)
    tgt_end = last.tgt_index + (0 if last.kind is OpKind.DELETE else 1)
    return _Run(first.src_index, src_end, first.tgt_index, tgt_end, tuple(bucket))


def extract_edits(source: Sequence[str], target: Sequence[str]) -> list[EditSpan]:
    """Span edits turning ``source`` into ``target``.

    Maximal runs of adjacent non-match alignment ops merge into one span
    each, so the result is sorted, pairwise non-overlapping, and applying it
    with apply_edits reproduces ``target`` exactly.
    """
    tgt = tuple(target)
    return [
        EditSpan(run.src_start, run.src_end, tgt[run.tgt_start:run.tgt_end])
        for run in _runs(align_tokens(source, target))
    ]


def encode_tags(
    source: Sequence[str],
    target: Sequence[str],
    lexicon: "VerbLexicon | None" = None,
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
    tags: list[Tag] = [KEEP] * (len(src) + 1)
    for run in _runs(align_tokens(src, tgt)):
        repl = tgt[run.tgt_start:run.tgt_end]
        width = run.src_end - run.src_start
        if width == 0:
            # Pure insertion: the anchor is the preceding (matched) position,
            # whose tag slot is still free.
            anchor = run.src_start
            if tags[anchor].is_keep:
                tags[anchor] = append(repl[0])
        elif width == 1:
            transform = detect_transform(src[run.src_start], repl, lexicon)
            if transform is not None:
                tags[run.src_start + 1] = transform
            elif not repl:
                tags[run.src_start + 1] = DELETE
            else:
                tags[run.src_start + 1] = replace(repl[0])
        else:
            for op in run.ops:
                if op.kind is OpKind.SUBSTITUTE:
                    one = (tgt[op.tgt_index],)
                    transform = detect_transform(src[op.src_index], one, lexicon)
                    tags[op.src_index + 1] = transform if transform is not None else replace(one[0])
                elif op.kind is OpKind.DELETE:
                    tags[op.src_index + 1] = DELETE
                else:  # INSERT: only lands if the anchor slot is free
                    if tags[op.src_index].is_keep:
                        tags[op.src_index] = append(tgt[op.tgt_index])
    return TagSeq(tags)


def encode_passes(
    source: Sequence[str],
    target: Sequence[str],
    lexicon: "VerbLexicon | None" = None,
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
