"""The plain O(n*m) Levenshtein DP: the test oracle for the alignment kernel.

It fills the whole (n+1)(m+1) table one cell at a time, where the kernel
keeps only bit vectors of distance differences.  It uses unit costs and a
backtrace that prefers MATCH, then SUBSTITUTE, then DELETE, then INSERT.

``chunks`` is the batch pass's chunk planner as a greedy loop over the
lanes, one lane at a time: the oracle for ``_levenshtein._chunks``.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Sequence

from gec_editkit import _levenshtein
from gec_editkit._levenshtein import OP_DELETE, OP_INSERT, OP_MATCH, OP_SUBSTITUTE


def backtrace_ops(src_ids: Sequence[Hashable], tgt_ids: Sequence[Hashable]) -> bytes:
    """Minimal-cost edit script between two id sequences, whose ids are compared only for equality.

    Unit costs for substitute/delete/insert, zero for match.  The backtrace
    prefers MATCH, then SUBSTITUTE, then DELETE, then INSERT, which makes the
    op stream deterministic across runs and platforms.  Returns one op code
    per step, in forward order.
    """
    n, m = len(src_ids), len(tgt_ids)
    width = m + 1
    dp = [0] * ((n + 1) * width)
    for j in range(1, width):
        dp[j] = j
    for i in range(1, n + 1):
        row = i * width
        prev = row - width
        dp[row] = i
        s = src_ids[i - 1]
        for j in range(1, width):
            above = dp[prev + j]
            left = dp[row + j - 1]
            diag = dp[prev + j - 1]
            if s == tgt_ids[j - 1]:
                best = diag
                if above + 1 < best:
                    best = above + 1
                if left + 1 < best:
                    best = left + 1
            else:
                best = diag + 1
                if above + 1 < best:
                    best = above + 1
                if left + 1 < best:
                    best = left + 1
            dp[row + j] = best

    ops = bytearray()
    i, j = n, m
    while i > 0 or j > 0:
        cost = dp[i * width + j]
        if i > 0 and j > 0 and src_ids[i - 1] == tgt_ids[j - 1] and dp[(i - 1) * width + j - 1] == cost:
            ops.append(OP_MATCH)
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and dp[(i - 1) * width + j - 1] + 1 == cost:
            ops.append(OP_SUBSTITUTE)
            i -= 1
            j -= 1
        elif i > 0 and dp[(i - 1) * width + j] + 1 == cost:
            ops.append(OP_DELETE)
            i -= 1
        else:
            ops.append(OP_INSERT)
            j -= 1
    ops.reverse()
    return bytes(ops)


def chunks(pairs: Sequence[tuple[Sequence[Hashable], Sequence[Hashable]]], lanes: list[int]) -> Iterator[list[int]]:
    """The lanes in chunks of at most BATCH_CELLS cells, pairs of like target length together.

    The lanes are taken in order of target length, ties in the given order.
    A lane joins the open chunk unless the chunk, with it, would have more
    than BATCH_CELLS cells (its lanes times its longest source times its
    longest target); then the open chunk is closed and the lane opens the
    next one.
    """
    chunk: list[int] = []
    rows = cols = 0
    for k in sorted(lanes, key=lambda k: len(pairs[k][1])):
        n, m = len(pairs[k][0]), len(pairs[k][1])
        if chunk and (len(chunk) + 1) * max(rows, n) * max(cols, m) > _levenshtein.BATCH_CELLS:
            yield chunk
            chunk, rows, cols = [], 0, 0
        chunk.append(k)
        rows, cols = max(rows, n), max(cols, m)
    if chunk:
        yield chunk
