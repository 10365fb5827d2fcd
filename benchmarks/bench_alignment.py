#!/usr/bin/env python3
"""Time the Levenshtein alignment kernel alone: one pair at a time vs batched.

The speedup printed here is for the kernel alone, on token ids: its batch
pass (``backtrace_ops_batch`` on all pairs at once; it aligns them one by one
below ``BATCH_MIN`` pairs) over its one-pair-at-a-time loop
(``backtrace_ops``) on the same pairs.  Then come two lines for
``extract_edits``, the kernel with its Python run extraction: one on the
random pairs, one on pairs that are identical or differ only in their first
third.  The second is the traffic of training and voting, where most pairs
share a long suffix, which ``extract_edits`` matches without the kernel.  It
does not time any CLI command; ``perfbench/`` is the end-to-end instrument,
and there the kernel is only a part of vocabulary building, span voting, and
scoring.

Usage::

    python benchmarks/bench_alignment.py [--pairs 2000] [--max-len 30] [--seed 0]
"""

from __future__ import annotations

import argparse
import random
import time

from gec_editkit import _levenshtein
from gec_editkit.align import extract_edits

WORDS = ["the", "a", "dog", "cat", "he", "she", "go", "goes", "to", "school", "home", "very"]


def make_pairs(n: int, max_len: int, seed: int) -> list[tuple[list[int], list[int]]]:
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        src = [rng.randrange(len(WORDS)) for _ in range(rng.randint(0, max_len))]
        tgt = list(src)
        for i in range(len(tgt)):
            if rng.random() < 0.2:
                tgt[i] = rng.randrange(len(WORDS))
        pairs.append((src, tgt))
    return pairs


def time_kernel(pairs, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for src, tgt in pairs:
            _levenshtein.backtrace_ops(src, tgt)
        best = min(best, time.perf_counter() - start)
    return best


def time_batch_kernel(pairs, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _levenshtein.backtrace_ops_batch(pairs)
        best = min(best, time.perf_counter() - start)
    return best


def time_extract_edits(word_pairs) -> float:
    start = time.perf_counter()
    for src, tgt in word_pairs:
        extract_edits(src, tgt)
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=2000)
    parser.add_argument("--max-len", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    pairs = make_pairs(args.pairs, args.max_len, args.seed)
    print(f"{args.pairs} pairs, tokens/sentence <= {args.max_len}")

    py_time = time_kernel(pairs)
    print(f"kernel alone, pure python : {py_time:.3f}s  ({args.pairs / py_time:,.0f} pairs/s)")
    batch_time = time_batch_kernel(pairs)
    print(
        f"kernel alone, pure python batched: {batch_time:.3f}s  ({args.pairs / batch_time:,.0f} pairs/s, "
        f"{py_time / batch_time:.1f}x over one pair at a time)"
    )
    assert _levenshtein.backtrace_ops_batch(pairs) == [_levenshtein.backtrace_ops(src, tgt) for src, tgt in pairs]

    word_pairs = [
        ([WORDS[i] for i in src], [WORDS[i] for i in tgt]) for src, tgt in pairs[:500]
    ]
    print(
        "extract_edits, kernel plus run extraction: "
        f"{len(word_pairs) / time_extract_edits(word_pairs):,.0f} sentences/s"
    )
    # Every other pair identical, the rest edited only before a shared suffix.
    suffix_pairs = [
        (src, src if k % 2 else tgt[: len(tgt) // 3] + src[len(src) // 3 :])
        for k, (src, tgt) in enumerate(word_pairs)
    ]
    print(
        "extract_edits, identical or shared-suffix pairs: "
        f"{len(suffix_pairs) / time_extract_edits(suffix_pairs):,.0f} sentences/s"
    )


if __name__ == "__main__":
    main()
