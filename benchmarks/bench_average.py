#!/usr/bin/env python3
"""Time ``average_distributions`` alone: the sorting network against the sort-based oracle.

Each case averages 2 or 3 members' distributions over one decoding batch:
as many rows as ``decode.BATCH_ELEMENTS`` allows at the width (at least one
sentence of 6 tokens, 7 rows), which is 862 rows at 19 tags and 7 rows at
5000.  "oracle" is the sort-based mean kept in ``tests/average_oracle.py``,
put in place of the one ``ensemble`` uses; "network" is the shipped one.
Both must give the same floats, which the script checks.  It does not time
any CLI command; ``perfbench/`` is the end-to-end instrument, and there
averaging is a part of ``ensemble --mode average`` and ``distill``.

On a 2-vCPU Xeon with Python 3.11 and numpy 2.4, the network ran 7-11x
faster than the oracle at 19 tags and 6-10x at 5000 tags (best of 5 repeats;
more for 2 members than for 3).

Usage::

    python benchmarks/bench_average.py [--calls 200] [--seed 0]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from gec_editkit import TagDistribution, ensemble
from gec_editkit.decode import BATCH_ELEMENTS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from average_oracle import orderless_mean  # noqa: E402

SENTENCE_ROWS = 7


def make_members(k: int, width: int, rng: np.random.Generator) -> list[TagDistribution]:
    n_rows = max(BATCH_ELEMENTS // width, SENTENCE_ROWS)
    starts = list(range(0, n_rows - SENTENCE_ROWS + 1, SENTENCE_ROWS))
    members = []
    for _ in range(k):
        rows = rng.random((n_rows, width)) ** 8  # most of the mass on a few tags
        rows /= rows.sum(axis=1, keepdims=True)
        members.append(TagDistribution("bench", rows, 1.0 - rows[:, 0], starts))
    return members


def time_average(members: list[TagDistribution], calls: int, repeats: int = 5) -> float:
    """Best seconds per call over ``repeats`` runs of ``calls`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            ensemble.average_distributions(members)
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--calls", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    network = ensemble._orderless_mean
    for width in (19, 5000):
        for k in (2, 3):
            members = make_members(k, width, rng)
            shape = members[0].rows.shape
            ensemble._orderless_mean = orderless_mean
            try:
                want = ensemble.average_distributions(members)
                old = time_average(members, args.calls)
            finally:
                ensemble._orderless_mean = network
            got = ensemble.average_distributions(members)
            assert np.array_equal(got.rows, want.rows) and np.array_equal(got.error_probs, want.error_probs)
            new = time_average(members, args.calls)
            print(
                f"average_distributions, {k} members, rows {shape[0]}x{shape[1]}: "
                f"oracle {old * 1e6:,.0f} us, network {new * 1e6:,.0f} us, speedup {old / new:.1f}x"
            )


if __name__ == "__main__":
    main()
