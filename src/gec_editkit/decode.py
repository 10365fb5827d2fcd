"""Turn tag distributions into corrections.

select_batch applies the two inference tweaks before the per-position argmax:
extra confidence added to KEEP (trades recall for precision) and a minimum
error probability below which corrections are suppressed, both at sentence
level (gate on the max detection score) and at token level (demote weak
picks).  decode_iteratively repeats predict -> select -> apply, bounded by
max_iters, because some corrections only become expressible after others.
It works on a batch of sentences at a time, the way sequence taggers infer:
one prediction, one validation and one vectorised selection per pass for all
sentences not yet converged.  Every decoder (one tagger, the averaging
ensemble, one sentence or a corpus) runs through it.  Applying the selected
tags is transforms.apply_tags, the same function the encoder's passes use;
this module re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError, check_integer
from .spans import TokenSeq
from .tags import KEEP, TagSeq, _tag_seq
from .tagger import TagDistribution, Tagger
from .transforms import VerbLexicon, apply_tags
from .vocab import TagVocab

# A decoding batch holds at most this many float64 elements per row array
# (128 KiB), and at least one sentence: about 120 short desk sentences at a
# 19-tag vocab, one at 5000 tags.  Larger batches decode no faster, but the
# averaging ensemble's temporaries grow with them: its sorting network holds
# a sorted copy of every member's rows, two more arrays while it swaps a
# pair, and the running sum of deviations.  With the earlier sort-based mean,
# whose stack of member rows cost about as much, 2**16 raised the desk
# benchmark's peak RSS by a fifth.
BATCH_ELEMENTS = 2**14


@dataclass(frozen=True, slots=True)
class Hyperparams:
    """Inference knobs: KEEP confidence, error threshold and the pass bound."""

    ac: float = 0.0
    mep: float = 0.0
    max_iters: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.ac <= 1.0:
            raise ContractError(f"ac must lie in [0, 1], got {self.ac}")
        if not 0.0 <= self.mep <= 1.0:
            raise ContractError(f"mep must lie in [0, 1], got {self.mep}")
        if check_integer("max_iters", self.max_iters) < 1:
            raise ContractError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class CorrectionResult:
    output: TokenSeq
    iterations_used: int
    per_iteration_tags: tuple[TagSeq, ...]


def select_tags(dist: TagDistribution, vocab: TagVocab, ac: float = 0.0, mep: float = 0.0) -> TagSeq:
    """Pick one tag per position of one sentence (see select_batch)."""
    if len(dist.starts) != 1:
        raise ContractError(f"select_tags takes one sentence, got {len(dist.starts)} stacked; use select_batch")
    return select_batch(dist, vocab, ac, mep)[0]


def select_batch(batch: TagDistribution, vocab: TagVocab, ac: float = 0.0, mep: float = 0.0) -> list[TagSeq]:
    """Pick one tag per position of every sentence in ``batch`` under the AC/MEP tweaks.

    KEEP gets ``ac`` added to its probability before the argmax (rows are not
    re-normalized; only the argmax matters).  A chosen non-KEEP tag whose raw
    probability is below ``mep`` demotes to KEEP, and if no position's error
    probability reaches ``mep`` the whole sentence stays untouched.  The START
    position only ever selects KEEP or APPEND.  Each sentence gets the tags it
    would get alone.  Every pick is one of the vocab's Tags and START's is one
    of START_KINDS, so the sequences skip TagSeq's per-tag check.
    """
    batch.check_fits(vocab)
    keep_idx = vocab.keep_index
    rows, starts = batch.rows, batch.starts
    scores = rows.copy()
    scores[:, keep_idx] += ac
    scores[starts] = np.where(vocab.start_position_mask(), scores[starts], -1.0)
    picks = scores.argmax(axis=1)
    picks[(picks != keep_idx) & (rows[np.arange(len(picks)), picks] < mep)] = keep_idx
    flat = [vocab.tags[i] for i in picks.tolist()]
    bounds = [*starts.tolist(), len(flat)]
    gated = (np.maximum.reduceat(batch.error_probs, starts) < mep).tolist()
    return [
        _tag_seq([KEEP] * (hi - lo) if gate else flat[lo:hi])
        for lo, hi, gate in zip(bounds, bounds[1:], gated)
    ]


def decode_iteratively(
    predict_batch: Callable[[list[TokenSeq]], TagDistribution],
    vocab: TagVocab,
    sentences: Sequence[Sequence[str]],
    hp: Hyperparams = Hyperparams(),
    lexicon: VerbLexicon | None = None,
) -> list[CorrectionResult]:
    """Predict, select, apply, repeat: the one decoding loop, one result per sentence.

    Decoding is a pure function of the sentence, so each distinct sentence
    is decoded once, in the order of its first appearance, and its result
    is given to every position that holds it.  The distinct sentences go in
    chunks of at most BATCH_ELEMENTS / len(vocab) rows as given (appends can
    lengthen them a little on later passes).  Each pass predicts every
    sentence of the chunk still active in one call, selects their tags in
    one step and applies them sentence by sentence.  A sentence leaves the
    active set as soon as a pass selects KEEP everywhere, else after
    ``hp.max_iters`` passes.  ``predict_batch`` maps sentences to their
    stacked distributions over ``vocab``: one tagger's, or an ensemble's
    average.
    """
    given = [tuple(tokens) for tokens in sentences]
    distinct = list(dict.fromkeys(given))
    cur = list(distinct)
    history: list[list[TagSeq]] = [[] for _ in cur]
    for active in _chunks(cur, max(1, BATCH_ELEMENTS // len(vocab))):
        for _ in range(hp.max_iters):
            batch = predict_batch([cur[i] for i in active])
            batch.check_fits(vocab, [len(cur[i]) for i in active], "predicted batch")
            still = []
            for i, tags in zip(active, select_batch(batch, vocab, hp.ac, hp.mep)):
                history[i].append(tags)
                if not tags.all_keep:
                    cur[i] = apply_tags(cur[i], tags, lexicon)
                    still.append(i)
            if not still:
                break
            active = still
    results = {
        tokens: CorrectionResult(out, len(tags), tuple(tags))
        for tokens, out, tags in zip(distinct, cur, history)
    }
    return [results[tokens] for tokens in given]


def _chunks(sentences: list[TokenSeq], max_rows: int) -> Iterator[list[int]]:
    """Indices of ``sentences`` in runs of at most ``max_rows`` rows (at least one sentence)."""
    chunk: list[int] = []
    rows = 0
    for i, tokens in enumerate(sentences):
        if chunk and rows + len(tokens) + 1 > max_rows:
            yield chunk
            chunk, rows = [], 0
        chunk.append(i)
        rows += len(tokens) + 1
    if chunk:
        yield chunk


def run_pipeline_batch(
    tagger: Tagger,
    sentences: Sequence[Sequence[str]],
    hp: Hyperparams = Hyperparams(),
    lexicon: VerbLexicon | None = None,
) -> list[CorrectionResult]:
    """Iteratively correct every sentence with one tagger (see decode_iteratively).

    Deterministic for a fixed tagger and input; each result is what
    run_pipeline gives for that sentence alone.
    """
    return decode_iteratively(tagger.predict_batch, tagger.vocab, sentences, hp, lexicon)


def run_pipeline(
    tagger: Tagger,
    tokens: Sequence[str],
    hp: Hyperparams = Hyperparams(),
    lexicon: VerbLexicon | None = None,
) -> CorrectionResult:
    """Iteratively correct one sentence with one tagger: a batch of one.

    The one decoder that calls ``tagger.predict``, not ``predict_batch``, so
    a wrapper that offers only ``predict`` (perfbench's recorder) decodes.
    """
    return decode_iteratively(lambda active: tagger.predict(active[0]), tagger.vocab, [tokens], hp, lexicon)[0]
