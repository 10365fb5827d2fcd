"""Pure-Python Levenshtein kernel (fallback for the compiled extension).

Operates on integer id sequences; token interning happens in ``align``.
The distances come from Myers' bit-vector algorithm (G. Myers, JACM 1999) in
Hyyrö's form for global edit distance (H. Hyyrö, Nordic J. Computing 2003),
with Python ints as bit vectors of any width.  The compiled kernel in
``_levenshtein.c`` (module ``_levenshtein_c``) fills the full DP table
instead.  The two use the same unit costs, the same backtrace preferences and
the same op codes, so they return identical op streams;
``tests/test_kernels.py::test_kernel_equals_the_dp_oracle`` checks both
against the plain DP kept in ``tests/levenshtein_oracle.py``.
"""

from __future__ import annotations

OP_MATCH = 0
OP_SUBSTITUTE = 1
OP_DELETE = 2
OP_INSERT = 3


def backtrace_ops(src_ids: list[int], tgt_ids: list[int]) -> bytes:
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
    peq: dict[int, int] = {}  # id -> the rows that hold it
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
