#!/usr/bin/env python3
"""Time the baseline tagger's prediction and training against the per-sentence forms they replaced.

The inputs are those of ``desk-decode`` in ``perfbench/``: ``--pairs``
training pairs and ``--sentences`` dev sentences from the desk corpus
(``tests/deskdata.py``), and three members, ``cw=0,1,2``.  Prediction runs
the dev sentences in the chunks ``decode_iteratively`` would hand a tagger
(at most ``decode.BATCH_ELEMENTS / len(vocab)`` rows each).

"old" is a copy of the code each step replaced, kept below: for
prediction, ``_context_keys`` per sentence and the seen counts gathered from
nested ``{context: {tag index: count}}`` dicts, read from the shipped
tagger's table; for training, the ``Counter.update`` tally over
``(context, tag index)`` items, each repeated as often as its pass, into
those nested dicts, which the numpy tally (``tagger._tally``) replaced.
"new" is ``BaselineTagger.predict_batch`` and ``train_baselines`` as
shipped.  The training line leaves encoding out, in training pairs per
second: ``align.count_passes`` runs once, and both forms start from its
passes (``train_baselines`` is handed them through a patched
``count_passes``), so they differ in the tally alone.  The old forms must
give the same rows, and the same contexts in the same order with the same
tag counts (``tests/train_oracle.py`` reads the table back as nested
dicts), which the script checks.  It does not time any CLI command;
``perfbench/`` is the end-to-end instrument.

On a 2-vCPU Xeon with Python 3.11 and numpy 2.4, prediction ran 1.2-2.2x
as fast as the old gather and the numpy training tally, straight into the
tagger's table, 1.7-1.8x as fast as the ``Counter.update`` one into nested
dicts (best of 5 repeats, two runs).

Usage::

    python benchmarks/bench_predict.py [--pairs 600] [--sentences 1000] [--repeats 5] [--seed 0]
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from itertools import chain, repeat
from pathlib import Path
from unittest import mock

import numpy as np

from gec_editkit import BaselineTagger, TagDistribution, build_vocab, tagger, train_baselines
from gec_editkit.align import count_passes
from gec_editkit.decode import BATCH_ELEMENTS, _chunks
from gec_editkit.tagger import _batch_context_keys, _context_keys, sentence_bounds

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import train_oracle  # noqa: E402
from deskdata import make_corpus  # noqa: E402

SHAPES = [(0, 1.0), (1, 1.0), (2, 1.0)]


def old_predict_batch(model: BaselineTagger, counts: dict, sentences) -> TagDistribution:
    """The per-sentence keys and the gather from the nested counts, plain dicts as the old tagger held them."""
    keys = [key for tokens in sentences for key in _context_keys(tokens, model.context_width)]
    rows = np.full((len(keys), len(model.vocab)), model.smoothing)
    seen = list(map(counts.get, keys, repeat({})))
    sizes = np.fromiter(map(len, seen), dtype=np.intp, count=len(seen))
    hit_rows = np.repeat(np.arange(len(seen), dtype=np.intp), sizes)
    hit_cols = np.fromiter(chain.from_iterable(seen), dtype=np.intp, count=hit_rows.size)
    hit_counts = np.fromiter(chain.from_iterable(map(dict.values, seen)), dtype=np.float64, count=hit_rows.size)
    rows[hit_rows, hit_cols] += hit_counts
    rows /= rows.sum(axis=1, keepdims=True)
    err = np.clip(1.0 - rows[:, model.vocab.keep_index], 0.0, 1.0)
    return TagDistribution(model.vocab.sha256, rows, err, sentence_bounds(map(len, sentences))[:-1])


def old_train_baselines(passes, vocab, shapes) -> list[dict]:
    """The passes tallied by one Counter.update per member, every position's item repeated as often as its pass."""
    sentences = [cur for cur, _ in passes]
    indices = list(map(vocab.index.get, chain.from_iterable(tags for _, tags in passes), repeat(vocab.unknown_index)))
    tallies = []
    for context_width, _ in shapes:
        reps = chain.from_iterable(map(repeat, passes.values(), (len(cur) + 1 for cur in sentences)))
        items = zip(_batch_context_keys(sentences, context_width), indices)
        tally: Counter = Counter()
        tally.update(chain.from_iterable(map(repeat, items, reps)))
        counts: dict = {}
        for (key, idx), n in tally.items():
            counts.setdefault(key, {})[idx] = n
        tallies.append(counts)
    return tallies


def best_seconds(run, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=600)
    parser.add_argument("--sentences", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    pairs = make_corpus(args.pairs, seed=args.seed)
    sentences = [source for source, _ in make_corpus(args.sentences, seed=args.seed + 1)]
    vocab = build_vocab(pairs, 200)

    passes = count_passes(pairs)
    with mock.patch.object(tagger, "count_passes", lambda pairs, lexicon: passes):
        old_models = old_train_baselines(passes, vocab, SHAPES)
        models = train_baselines(pairs, vocab, SHAPES)
        for old, new in zip(old_models, models):
            assert list(old.items()) == list(train_oracle.nested(new).items())
        old = best_seconds(lambda: old_train_baselines(passes, vocab, SHAPES), args.repeats)
        new = best_seconds(lambda: train_baselines(pairs, vocab, SHAPES), args.repeats)
    print(
        f"train_baselines, {len(SHAPES)} members, {len(pairs)} pairs: "
        f"old {len(pairs) / old:,.0f} sentences/s, new {len(pairs) / new:,.0f} sentences/s, speedup {old / new:.2f}x"
    )

    batches = [[sentences[i] for i in chunk] for chunk in _chunks(sentences, max(1, BATCH_ELEMENTS // len(vocab)))]
    for model in models:
        counts = train_oracle.nested(model)
        for batch in batches:
            want = old_predict_batch(model, counts, batch)
            got = model.predict_batch(batch)
            assert np.array_equal(got.rows, want.rows) and np.array_equal(got.error_probs, want.error_probs)
        old = best_seconds(lambda: [old_predict_batch(model, counts, batch) for batch in batches], args.repeats)
        new = best_seconds(lambda: [model.predict_batch(batch) for batch in batches], args.repeats)
        print(
            f"predict_batch, cw={model.context_width}, {len(sentences)} sentences in {len(batches)} batches: "
            f"old {len(sentences) / old:,.0f} sentences/s, new {len(sentences) / new:,.0f} sentences/s, "
            f"speedup {old / new:.2f}x"
        )


if __name__ == "__main__":
    main()
