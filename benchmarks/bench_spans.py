#!/usr/bin/env python3
"""Time the two producers of EditSpans: the M2 reader and edit extraction.

Writes one seeded M2 file to a temporary directory: ``--blocks`` sentences
of 24-40 tokens, each annotated by 2 annotators whose edits are those of a
dense random correction, as ``long-align`` in ``perfbench/`` has.  It then
times ``read_m2`` of that file and ``extract_edits_batch`` of ``--pairs``
such long pairs, each two ways: as shipped ("builder": the spans come from
``spans._span``, which trusts tokens its caller checked) and with the
public, checked ``EditSpan`` constructor put in its place ("checked").  Both
must give equal spans, which the script checks.  Edit extraction includes
the alignment, which both share.

Usage::

    python benchmarks/bench_spans.py [--blocks 500] [--pairs 1500] [--repeats 5] [--seed 0]
"""

from __future__ import annotations

import argparse
import random
import sys
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

from gec_editkit import EditSpan, align, corpus
from gec_editkit.corpus import M2Block, M2Edit, read_m2, write_m2

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from gen import mutate, random_tokens  # noqa: E402

ANNOTATORS = 2


def long_pair(rng: random.Random) -> tuple[tuple[str, ...], tuple[str, ...]]:
    source = random_tokens(rng, max_len=40, min_len=24)
    return source, mutate(rng, source, 0.3 + 0.2 * rng.random())


def write_file(path: Path, n_blocks: int, rng: random.Random) -> None:
    blocks = []
    for _ in range(n_blocks):
        source = random_tokens(rng, max_len=40, min_len=24)
        edits = [align.extract_edits(source, mutate(rng, source, 0.3)) for _ in range(ANNOTATORS)]
        blocks.append(M2Block(source, {a: tuple(map(M2Edit, spans)) for a, spans in enumerate(edits)}))
    write_m2(path, blocks)


def best_of(repeats: int, run, checked: bool):
    """Best seconds of ``repeats`` calls of ``run``, and the last call's result."""
    best = float("inf")
    with ExitStack() as stack:
        if checked:
            for module in (align, corpus):
                stack.enter_context(mock.patch.object(module, "_span", EditSpan))
        for _ in range(repeats):
            start = time.perf_counter()
            result = run()
            best = min(best, time.perf_counter() - start)
    return best, result


def report(what: str, run, count, repeats: int) -> None:
    old, want = best_of(repeats, run, checked=True)
    new, got = best_of(repeats, run, checked=False)
    assert got == want
    n = count(got)
    print(f"{what}, {n} spans: checked {n / old:,.0f} spans/s, builder {n / new:,.0f} spans/s, speedup {old / new:.2f}x")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=500)
    parser.add_argument("--pairs", type=int, default=1500)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gold.m2"
        write_file(path, args.blocks, rng)
        report(
            f"read_m2, {args.blocks} blocks x {ANNOTATORS} annotators",
            lambda: read_m2(path),
            lambda blocks: sum(len(edits) for block in blocks for edits in block.annotations.values()),
            args.repeats,
        )
    sources, targets = zip(*(long_pair(rng) for _ in range(args.pairs)))
    report(
        f"extract_edits_batch, {args.pairs} pairs",
        lambda: align.extract_edits_batch(sources, targets),
        lambda edits: sum(map(len, edits)),
        args.repeats,
    )


if __name__ == "__main__":
    main()
