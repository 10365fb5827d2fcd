"""The Levenshtein kernel: pure Python, bit-parallel, with a batched numpy pass.

Operates on sequences of ids that are compared only for equality, so any
hashable values serve; ``align`` hands it the tokens themselves.  The
distances come from Myers' bit-vector algorithm (G. Myers, JACM 1999) in
Hyyrö's form for global edit distance (H. Hyyrö, Nordic J. Computing 2003).
The costs are unit costs, and the backtrace's preferences make the op stream
deterministic; ``tests/test_kernels.py`` checks both paths below against the
plain DP kept in ``tests/levenshtein_oracle.py``.

There are two paths through the bit-vector algorithm.  ``backtrace_ops``
aligns one pair with Python ints as bit vectors of any width.
``backtrace_ops_batch`` aligns many pairs at once: each pair whose source
holds 1 to 64 ids is a ``uint64`` lane of numpy arrays, every column step is
a handful of numpy operations over all lanes, and the backtraces walk all
lanes in lockstep.  A numpy call costs about a microsecond whatever its
width, so the batch pass pays off only over many lanes: it runs when at
least ``BATCH_MIN`` pairs fit a lane, and every other pair (a longer source,
an empty one, or all pairs of a smaller batch) goes through
``backtrace_ops`` one by one.  The batch entry measures every pair once,
into arrays of source and target lengths; the lanes are picked and their
chunks planned from those arrays in numpy, and each chunk's ids are
numbered in one ``dict.setdefault`` pass straight into its padded arrays.
"""

from __future__ import annotations

from itertools import chain, count
from operator import itemgetter
from typing import Hashable, Iterator, Sequence

import numpy as np

OP_MATCH = 0
OP_SUBSTITUTE = 1
OP_DELETE = 2
OP_INSERT = 3

# The fewest lanes worth a batch pass.  On pairs of 24-40 tokens with dense
# edits, 96 pairs took 1.45 ms batched against 2.36 ms one by one, and the
# two cross near 40 pairs; on 4-12-token desk pairs they cross near 96
# (0.62 against 0.63 ms), and one pair costs 0.2-0.6 ms batched against
# 5-20 us alone (medians of 9, 2-vCPU Xeon, Python 3.11, numpy 2.4).
BATCH_MIN = 96
# A batch pass takes at most this many DP cells (lanes times the longest
# target times the longest source) at once: about 1,000 lanes of 32-by-32
# ids, whose three uint64 words per lane and column take about 0.8 MiB.
BATCH_CELLS = 2**20
# Columns are compared with their lanes' sources, one bool per cell, at most
# this many cells at a time.
_SLAB_CELLS = 2**16
_WORD = 64


def backtrace_ops(src_ids: Sequence[Hashable], tgt_ids: Sequence[Hashable]) -> bytes:
    """Minimal-cost edit script between two id sequences.

    Unit costs for substitute/delete/insert, zero for match.  The backtrace
    prefers MATCH, then SUBSTITUTE, then DELETE, then INSERT, which makes the
    op stream deterministic across runs and platforms.  Returns one op code
    per step, in forward order.

    With ``D[i][j]`` the distance between the first ``i`` source ids and the
    first ``j`` target ids, column ``j`` is kept as bit vectors over rows
    ``1..n`` (bit ``i - 1`` for row ``i``): ``pv`` holds the rows where
    ``D[i][j] - D[i-1][j]`` is +1, ``mv`` where it is -1, and ``d0`` where
    ``D[i][j] == D[i-1][j-1]``.  The backtrace reads those bits: SUBSTITUTE
    when ``d0`` is clear, DELETE when ``pv`` is set.  Equal ids always have
    ``D[i][j] == D[i-1][j-1]``, so they are a MATCH with no bit to read.
    """
    n = len(src_ids)
    full = (1 << n) - 1
    peq: dict[Hashable, int] = {}  # id -> the rows that hold it
    bit = 1
    for s in src_ids:
        peq[s] = peq.get(s, 0) | bit
        bit <<= 1
    # Column 0 is D[i][0] = i: every vertical delta is +1.
    pv, mv = full, 0
    pvs, d0s = [pv], [0]
    for t in tgt_ids:
        eq = peq.get(t, 0)
        xv = eq | mv
        d0 = (((eq & pv) + pv) ^ pv) | xv
        ph = mv | (full & ~(d0 | pv))
        mh = pv & d0
        # Row 0 is D[0][j] = j, so a +1 horizontal delta shifts in at the top.
        ph = ((ph << 1) | 1) & full
        mh = (mh << 1) & full
        pv = mh | (full & ~(xv | ph))
        mv = ph & xv
        pvs.append(pv)
        d0s.append(d0)

    ops = bytearray()
    i, j = n, len(tgt_ids)
    while i and j:
        if src_ids[i - 1] == tgt_ids[j - 1]:
            ops.append(OP_MATCH)
            i -= 1
            j -= 1
        elif not d0s[j] >> (i - 1) & 1:
            ops.append(OP_SUBSTITUTE)
            i -= 1
            j -= 1
        elif pvs[j] >> (i - 1) & 1:
            ops.append(OP_DELETE)
            i -= 1
        else:
            ops.append(OP_INSERT)
            j -= 1
    # On an edge only one way is left: up column 0 or along row 0.
    ops += bytes([OP_DELETE]) * i + bytes([OP_INSERT]) * j
    ops.reverse()
    return bytes(ops)


def backtrace_ops_batch(pairs: Sequence[tuple[Sequence[Hashable], Sequence[Hashable]]]) -> list[bytes]:
    """``[backtrace_ops(src, tgt) for src, tgt in pairs]``, with many pairs aligned at once.

    Every pair's source and target length is measured once, into two arrays,
    and one mask over them picks the lanes.  Pairs whose source holds 1 to 64
    ids are aligned by the batch pass when there are at least BATCH_MIN of
    them, in chunks of at most BATCH_CELLS cells that _chunks plans from
    those arrays; the rest go one by one through backtrace_ops.
    """
    n = np.fromiter(map(len, map(itemgetter(0), pairs)), dtype=np.int64, count=len(pairs))
    m = np.fromiter(map(len, map(itemgetter(1), pairs)), dtype=np.int64, count=len(pairs))
    laned = (n > 0) & (n <= _WORD)
    if np.count_nonzero(laned) < BATCH_MIN:
        laned[:] = False
    ops = [b"" if in_lane else backtrace_ops(*pair) for in_lane, pair in zip(laned.tolist(), pairs)]
    for chunk in _chunks(n, m, np.flatnonzero(laned)):
        for k, codes in zip(chunk, _align_lanes([pairs[k] for k in chunk])):
            ops[k] = codes
    return ops


def _chunks(n: np.ndarray, m: np.ndarray, lanes: np.ndarray) -> Iterator[list[int]]:
    """The ``lanes`` in chunks of at most BATCH_CELLS cells, pairs of like target length together.

    ``n`` and ``m`` hold every pair's source and target length.  The lanes
    are sorted stably by target length, so a chunk's longest target is its
    last lane's, and a chunk that starts at lane ``s`` and takes ``k`` lanes
    has ``k * max(n[s : s + k]) * m[s + k - 1]`` cells, which never falls
    as ``k`` grows.  A chunk takes every lane up to the first that would
    bring it past BATCH_CELLS, and at least one lane.
    """
    lanes = lanes[np.argsort(m[lanes], kind="stable")]
    rows, cols = n[lanes], m[lanes]
    start = 0
    while start < len(lanes):
        # Look ahead over a window that grows until the chunk ends inside it,
        # so planning stays linear in the lanes however many chunks there are.
        window = 256
        while True:
            stop = min(start + window, len(lanes))
            cells = np.arange(1, stop - start + 1) * np.maximum.accumulate(rows[start:stop]) * cols[start:stop]
            fit = int(np.searchsorted(cells, BATCH_CELLS, side="right"))
            if fit < stop - start or stop == len(lanes):
                break
            window *= 4
        end = start + max(1, fit)
        yield lanes[start:end].tolist()
        start = end


def _align_lanes(pairs: list[tuple[Sequence[Hashable], Sequence[Hashable]]]) -> list[bytes]:
    """backtrace_ops of each pair, whose source holds 1 to 64 ids, in one batch pass.

    Pair ``b`` is lane ``b``.  The column step is backtrace_ops's on
    ``uint64`` words.  The masks with ``full`` are left out: every step is
    bitwise, an addition or a left shift, so no bit above row ``n`` of a lane
    reaches a row at or below it, and the backtrace reads no row above ``n``.
    """
    width = len(pairs)
    srcs, tgts = zip(*pairs)
    n = np.fromiter(map(len, srcs), dtype=np.int64, count=width)
    m = np.fromiter(map(len, tgts), dtype=np.int64, count=width)
    cols = int(m.max())

    # eq[j, b]: the rows of lane b that hold its target's j-th id (Peq of
    # that id).  Ids are numbered across the chunk in one pass, sources then
    # targets, each id by the position where it first occurs: equal ids get
    # equal numbers, and pads (-1, -2) match nothing.  Each slab of columns
    # compares every target number with every source number of its lane,
    # one bool per cell, and packs the bools eight to a byte and eight bytes
    # to a little-endian word.
    number: dict[Hashable, int] = {}
    in_src = int(n.sum())
    ids = np.fromiter(
        map(number.setdefault, chain(chain.from_iterable(srcs), chain.from_iterable(tgts)), count()),
        dtype=np.int32,
        count=in_src + int(m.sum()),
    )
    del number
    src = np.full((width, int(n.max())), -1, dtype=np.int32)
    src[np.arange(src.shape[1]) < n[:, None]] = ids[:in_src]
    tgt = np.full((width, cols), -2, dtype=np.int32)
    tgt[np.arange(cols) < m[:, None]] = ids[in_src:]
    tgt = tgt.T
    del ids
    packed = np.zeros((cols + 1, width, 8), dtype=np.uint8)
    slab = max(1, _SLAB_CELLS // src.size)
    for j in range(0, cols, slab):
        same = tgt[j : j + slab, :, None] == src
        packed[j + 1 : j + 1 + slab, :, : (src.shape[1] + 7) // 8] = np.packbits(same, axis=2, bitorder="little")
        del same
    del src, tgt
    eq = packed.view(np.dtype("<u8"))[:, :, 0]

    pvs = np.empty((cols + 1, width), dtype=np.uint64)
    d0s = np.empty((cols + 1, width), dtype=np.uint64)
    pv = pvs[0]
    pv.fill(np.iinfo(np.uint64).max)
    mv = np.zeros(width, dtype=np.uint64)
    xv = np.empty_like(mv)
    ph = np.empty_like(mv)
    mh = np.empty_like(mv)
    one = np.uint64(1)
    for j in range(1, cols + 1):
        e = eq[j]
        d0 = d0s[j]
        np.bitwise_or(e, mv, out=xv)
        np.bitwise_and(e, pv, out=d0)
        d0 += pv
        d0 ^= pv
        d0 |= xv
        np.bitwise_or(d0, pv, out=ph)
        np.invert(ph, out=ph)
        ph |= mv
        np.bitwise_and(pv, d0, out=mh)
        ph <<= one
        ph |= one
        mh <<= one
        pv = pvs[j]
        np.bitwise_or(xv, ph, out=pv)
        np.invert(pv, out=pv)
        pv |= mh
        np.bitwise_and(ph, xv, out=mv)
    del xv, ph, mh, mv

    # The op at cell (i, j) as two bits, 3 minus the code: lo is set for
    # MATCH and DELETE, hi for MATCH and SUBSTITUTE.  Column 0 reads DELETE.
    # A lane's cursor is the word bit of row i, 0 on row 0, where both bits
    # read clear: INSERT.
    lo = pvs
    lo &= d0s
    lo |= eq
    lo[0] = np.iinfo(np.uint64).max
    hi = np.invert(d0s, out=d0s)
    hi |= eq
    hi[0] = 0
    del pvs, d0s, eq, packed
    lo, hi = lo.ravel(), hi.ravel()

    # Each lane walks back from (n, m); the walk is over once every row
    # cursor is 0 and every column is 0.  A finished lane reads INSERT from
    # then on and its column falls below 0, which take clips to column 0.
    row = np.left_shift(one, (n - 1).astype(np.uint64))
    at = m * width + np.arange(width)
    steps = int((n + m).max())
    shortest = int(np.maximum(n, m).max())
    los = np.empty((steps, width), dtype=bool)
    his = np.empty((steps, width), dtype=bool)
    word = np.empty(width, dtype=np.uint64)
    moves = np.empty(width, dtype=bool)
    step = 0
    while step < steps:
        lo_bit, hi_bit = los[step], his[step]
        np.take(lo, at, out=word, mode="clip")
        word &= row
        np.not_equal(word, 0, out=lo_bit)
        np.take(hi, at, out=word, mode="clip")
        word &= row
        np.not_equal(word, 0, out=hi_bit)
        # Up a row unless INSERT, left a column unless DELETE.
        np.bitwise_or(lo_bit, hi_bit, out=moves)
        np.right_shift(row, moves, out=row)
        np.less_equal(lo_bit, hi_bit, out=moves)
        np.subtract(at, width, out=at, where=moves)
        step += 1
        if step >= shortest and not row.any() and at.max() < width:
            break

    # MATCH and SUBSTITUTE take a row and a column, so a lane's walk has
    # n + m steps minus those with hi set.
    lengths = (n + m - his[:step].sum(axis=0)).tolist()
    codes = np.full((step, width), OP_INSERT, dtype=np.uint8)
    codes -= los[:step]
    codes -= his[:step]
    codes -= his[:step]
    # Reversed, each lane's walk is its forward op stream, at the end of its row.
    blob = np.ascontiguousarray(codes[::-1].T).tobytes()
    return [blob[end - length : end] for end, length in zip(range(step, (width + 1) * step, step), lengths)]
