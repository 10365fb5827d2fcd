"""The pair-by-pair, pass-by-pass training loop: the test oracle for
``tagger.train_baselines`` and ``vocab.count_edit_tags``; and the nested
counts it gives, turned into a ``BaselineTagger``'s table and back.

It runs the encoder to convergence on every pair as given, repeats
included, and adds each pass to the tallies as it is produced, so it keeps
no pass and shares no work between equal pairs or equal passes.  The nested
counts are built from the tallies at the end, contexts and their tags in the
order first seen.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate

import numpy as np

from gec_editkit.align import encode_tags
from gec_editkit.tagger import _context_keys
from gec_editkit.transforms import apply_tags


def encode_passes(source, target, lexicon=None):
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
    raise RuntimeError(f"encoding did not converge for pair {source!r} -> {target!r}")


def train_counts(pairs, vocab, widths, lexicon=None):
    """One nested ``{context: {tag index: count}}`` per context width in ``widths``."""
    tallies = [Counter() for _ in widths]
    for source, target in pairs:
        for cur, tags in encode_passes(source, target, lexicon):
            indices = list(map(vocab.index_of, tags))
            for width, tally in zip(widths, tallies):
                tally.update(zip(_context_keys(cur, width), indices))
    models = []
    for tally in tallies:
        counts = {}
        for (key, idx), n in tally.items():
            counts.setdefault(key, {})[idx] = n
        models.append(counts)
    return models


def count_edit_tags(pairs, lexicon=None):
    counts = Counter()
    for source, target in pairs:
        for _, tags in encode_passes(source, target, lexicon):
            counts.update(tags)
    return counts


def table(counts):
    """The table ``(contexts, indptr, cols, counts)`` of nested ``{context: {tag index: count}}``.

    Contexts keep their order; each context's tags are put in ascending index order.
    """
    rows = [sorted(tags.items()) for tags in counts.values()]
    cells = [cell for row in rows for cell in row]
    indptr = np.array(list(accumulate(map(len, rows), initial=0)), dtype=np.intp)
    cols = np.array([col for col, _ in cells], dtype=np.intp)
    return list(counts), indptr, cols, np.array([n for _, n in cells], dtype=np.float64)


def nested(model):
    """A BaselineTagger's table read back as nested ``{context: {tag index: count}}``, in row order, counts as ints."""
    bounds = model.indptr.tolist()
    cols, counts = model.cols.tolist(), list(map(int, model.counts.tolist()))
    return {context: dict(zip(cols[lo:hi], counts[lo:hi])) for context, lo, hi in zip(model.contexts, bounds, bounds[1:])}
