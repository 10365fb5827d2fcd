#!/usr/bin/env python3
"""Time ``read_matrix_file`` alone: struct packing against the numpy oracle.

Writes one seeded v1 matrix file at a 5000-tag vocab to a temporary
directory: ``--records`` sentences of 3-7 tokens, each row most of its mass
on a few tags, as ``wide-matrix`` in ``perfbench/`` has.  It then reads the
file with the shipped number converter ("struct": the shape is checked, then
each row is packed by struct in C) and with ``tests/matrix_oracle.py`` put in
its place ("oracle": ``np.array`` over the parsed lists, which finds the dtype
in one pass over every value and converts in another).  Both must give
bit-identical arrays, which the script checks.  A read includes the line
reading, ``orjson.loads`` and TagDistribution's checks, which both share.

On a 2-vCPU Xeon with Python 3.11, numpy 2.4 and orjson 3.8, struct read
the default file (27 records, 162 rows, 19 MB) at 2,300-2,500 rows/s against
1,900-2,000 for the oracle, 1.2x (best of 5, three runs).

Usage::

    python benchmarks/bench_matrix.py [--records 27] [--repeats 5] [--seed 0]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from gec_editkit import TagDistribution, TagVocab, matrix_io
from gec_editkit.tags import replace
from gec_editkit.vocab import MANDATORY_TAGS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from matrix_oracle import float_array  # noqa: E402

WIDTH = 5000


def write_file(path: Path, n_records: int, rng: np.random.Generator) -> TagVocab:
    vocab = TagVocab(MANDATORY_TAGS + tuple(replace(f"w{i}") for i in range(WIDTH - len(MANDATORY_TAGS))))
    records = []
    for i in range(n_records):
        n_tokens = int(rng.integers(3, 8))
        rows = rng.random((n_tokens + 1, WIDTH)) ** 8  # most of the mass on a few tags
        rows /= rows.sum(axis=1, keepdims=True)
        tokens = (f"s{i}",) + tuple(f"t{j}" for j in range(n_tokens - 1))
        records.append((tokens, TagDistribution(vocab.sha256, rows, rng.random(n_tokens + 1))))
    matrix_io.write_matrix_file(path, vocab, records)
    return vocab


def time_read(path: Path, vocab: TagVocab, repeats: int) -> tuple[float, list]:
    """Best seconds per read over ``repeats`` reads, and the last read's records."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        records = matrix_io.read_matrix_file(path, vocab)
        best = min(best, time.perf_counter() - start)
    return best, records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--records", type=int, default=27)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "member.jsonl"
        vocab = write_file(path, args.records, np.random.default_rng(args.seed))
        size_mb = path.stat().st_size / 1e6
        with mock.patch.object(matrix_io, "_float_array", float_array):
            old, want = time_read(path, vocab, args.repeats)
        new, got = time_read(path, vocab, args.repeats)
    for (got_tokens, got_dist), (want_tokens, want_dist) in zip(got, want, strict=True):
        assert got_tokens == want_tokens
        for name in ("rows", "error_probs"):
            assert np.array_equal(getattr(got_dist, name).view(np.uint64), getattr(want_dist, name).view(np.uint64))
    n_rows = sum(dist.positions for _, dist in got)
    print(
        f"read_matrix_file, {len(got)} records, {n_rows} rows x {WIDTH}, {size_mb:.1f} MB: "
        f"oracle {n_rows / old:,.0f} rows/s, struct {n_rows / new:,.0f} rows/s, speedup {old / new:.2f}x"
    )


if __name__ == "__main__":
    main()
