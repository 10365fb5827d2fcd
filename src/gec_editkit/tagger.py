"""Taggers: anything mapping a token sequence to per-position tag probabilities.

Two implementations ship here.  MatrixTagger serves distributions produced by
an external (neural) model from a matrix file; BaselineTagger is a count-based
model with additive smoothing that trains in seconds and exists so the whole
pipeline, ensembling included, can be exercised end to end at desk scale.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from typing import Iterable, Protocol, Sequence

import numpy as np

from .align import count_passes
from .errors import ContractError
from .spans import TokenSeq
from .transforms import VerbLexicon
from .vocab import TagVocab

# Rows must sum to 1; producers in this package stay within PRODUCER_SUM_TOL,
# while externally supplied matrices are accepted up to CONSTRUCT_SUM_TOL.
PRODUCER_SUM_TOL = 1e-6
CONSTRUCT_SUM_TOL = 1e-4

START_MARKER = "[START]"
PAD_MARKER = "[PAD]"


def sentence_bounds(lengths: Iterable[int]) -> list[int]:
    """Where each stacked sentence's rows start, then the row count: n tokens take n + 1 rows."""
    return list(accumulate((n + 1 for n in lengths), initial=0))


@dataclass(frozen=True, eq=False)
class TagDistribution:
    """Per-position probability rows over a tag vocab, plus error detection.

    The rows of one sentence or of several stacked: sentence i owns the rows
    from ``starts[i]`` up to the next start (or the end), START row first, so
    one sentence of n tokens has n + 1 rows.  ``error_probs[p]`` is the
    probability that position p needs an edit.  Construction checks shapes,
    that every value is finite and within [0, 1], and that every row sums to
    1; a row that does not is named by its position in its own sentence, so a
    stack fails with the message its sentence alone would.
    """

    vocab_id: str
    rows: np.ndarray
    error_probs: np.ndarray
    starts: np.ndarray = (0,)

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.float64)
        err = np.asarray(self.error_probs, dtype=np.float64)
        starts = np.array(self.starts, dtype=np.intp, ndmin=1)
        if starts.ndim != 1 or not starts.size:
            raise ContractError(f"starts must be a non-empty 1-D array, got shape {starts.shape}")
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ContractError(f"rows must be a 2-D matrix with at least the START row, got shape {rows.shape}")
        if err.shape != (rows.shape[0],):
            raise ContractError(
                f"error_probs length {err.shape} does not match {rows.shape[0]} positions"
            )
        if starts[0] != 0 or starts[-1] >= rows.shape[0] or (starts[1:] <= starts[:-1]).any():
            raise ContractError(f"sentence starts must rise from 0 and stay below {rows.shape[0]} rows")
        # min and max are NaN when any element is NaN, and infinite when any is.
        bounds = [float(err.min()), float(err.max())]
        if rows.size:
            bounds += [float(rows.min()), float(rows.max())]
        if not all(map(math.isfinite, bounds)):
            raise ContractError("probabilities must be finite")
        if rows.size and (bounds[2] < 0.0 or bounds[3] > 1.0):
            raise ContractError("row probabilities must lie in [0, 1]")
        if bounds[0] < 0.0 or bounds[1] > 1.0:
            raise ContractError("error probabilities must lie in [0, 1]")
        sums = rows.sum(axis=1)
        bad = np.abs(sums - 1.0) > CONSTRUCT_SUM_TOL
        if bad.any():
            row = int(np.argmax(bad))
            pos = row - int(starts[np.searchsorted(starts, row, side="right") - 1])
            raise ContractError(f"row {pos} sums to {sums[row]!r}, not 1")
        for name, value in (("rows", rows), ("error_probs", err), ("starts", starts)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def positions(self) -> int:
        return self.rows.shape[0]

    def check_fits(self, vocab: TagVocab, lengths: Sequence[int] | None = None, what: str = "distribution") -> None:
        """Refuse rows that are not ``vocab``'s predictions for sentences of ``lengths`` tokens.

        That is ``vocab``'s hash, ``len(vocab)`` columns and, given ``lengths``,
        their sentences laid out by sentence_bounds; ``what`` names the rows.
        """
        if self.vocab_id != vocab.sha256:
            raise ContractError(f"{what} was made for a different vocab ({self.vocab_id[:12]}...), expected {vocab.sha256[:12]}...")
        if self.rows.shape[1] != len(vocab):
            raise ContractError(f"{what} has rows of width {self.rows.shape[1]}, vocab size is {len(vocab)}")
        if lengths is None:
            return
        if len(self.starts) != len(lengths):
            raise ContractError(f"{what} stacks {len(self.starts)} sentences, not {len(lengths)}")
        bounds = sentence_bounds(lengths)
        if self.positions != bounds[-1] or self.starts.tolist() != bounds[:-1]:
            sizes = np.diff(self.starts, append=self.positions)
            i = int(np.argmax(sizes != np.diff(bounds)))
            raise ContractError(f"{what} has {sizes[i]} rows for {lengths[i]} tokens in sentence {i}, not tokens + 1")

    @classmethod
    def stack(cls, dists: Sequence["TagDistribution"]) -> "TagDistribution":
        """The rows of ``dists`` stacked in order, each input's sentences kept apart."""
        if not dists:
            raise ContractError("need at least one distribution")
        head = dists[0]
        for i, d in enumerate(dists[1:], start=1):
            if d.vocab_id != head.vocab_id:
                raise ContractError(f"distribution {i} uses vocab {d.vocab_id[:12]}..., distribution 0 uses {head.vocab_id[:12]}...")
        offsets = accumulate((d.positions for d in dists[:-1]), initial=0)
        starts = np.concatenate([d.starts + offset for d, offset in zip(dists, offsets)])
        rows = np.concatenate([d.rows for d in dists])
        return cls(head.vocab_id, rows, np.concatenate([d.error_probs for d in dists]), starts)


class Tagger(Protocol):
    """The pluggable prediction boundary used by the decoding pipeline.

    A tagger may also offer ``predict_batch(sentences) -> TagDistribution``,
    one call for many sentences stacked; predict_stack serves those that do
    not.
    """

    vocab: TagVocab

    def predict(self, tokens: Sequence[str]) -> TagDistribution: ...


def predict_stack(tagger: Tagger, sentences: Sequence[TokenSeq]) -> TagDistribution:
    """``tagger.predict_batch(sentences)``, or its ``predict`` results stacked."""
    batched = getattr(tagger, "predict_batch", None)
    if batched is not None:
        return batched(sentences)
    return TagDistribution.stack([tagger.predict(tokens) for tokens in sentences])


def keep_certain_distribution(vocab: TagVocab, n_tokens: int) -> TagDistribution:
    """All probability mass on KEEP at every position: the do-nothing prediction."""
    rows = np.zeros((n_tokens + 1, len(vocab)))
    rows[:, vocab.keep_index] = 1.0
    return TagDistribution(vocab.sha256, rows, np.zeros(n_tokens + 1))


def _context_keys(tokens: TokenSeq, width: int) -> list[tuple[str, ...]]:
    # Position p looks at positions p - width .. p + width of the sentinel
    # stream [START] + tokens; out-of-range slots pad so sentence edges keep
    # distinct contexts.  A window wider than the stream sees no more of it,
    # so cutting it there keeps contexts exactly as distinct, in less memory.
    width = min(width, len(tokens) + 1)
    pad = (PAD_MARKER,) * width
    stream = pad + (START_MARKER,) + tuple(tokens) + pad
    span = 2 * width + 1
    return [stream[p : p + span] for p in range(len(tokens) + 1)]


@dataclass(frozen=True)
class BaselineTagger:
    """Count-based tagger: P(tag | token window) with additive smoothing.

    Deterministic by construction; varying the window width or smoothing
    yields genuinely diverse ensemble members.
    """

    vocab: TagVocab
    context_width: int
    smoothing: float
    counts: dict[tuple[str, ...], dict[int, int]] = field(repr=False)

    def __post_init__(self) -> None:
        self.check_shape(self.context_width, self.smoothing)

    @staticmethod
    def check_shape(context_width: int, smoothing: float) -> None:
        """Refuse a window width or smoothing no BaselineTagger can have."""
        if context_width < 0:
            raise ContractError("context_width must be >= 0")
        if not (smoothing > 0.0 and math.isfinite(smoothing)):
            raise ContractError("smoothing must be positive and finite so unseen contexts stay normalized")

    def predict(self, tokens: Sequence[str]) -> TagDistribution:
        return self.predict_batch([tokens])

    def predict_batch(self, sentences: Sequence[Sequence[str]]) -> TagDistribution:
        # Every position's row starts at the smoothing value and gets its
        # context's seen counts scattered in; no dense per-context table is
        # kept, since at a 5000-tag vocab each row costs 40 KB.
        # The hits are gathered by C-level iteration: a miss finds an empty
        # dict, and row r repeats once per tag its context has seen.  Columns
        # are unique within a row, so each seen cell gets exactly one +=.
        keys = [key for tokens in sentences for key in _context_keys(tokens, self.context_width)]
        rows = np.full((len(keys), len(self.vocab)), self.smoothing)
        seen = list(map(self.counts.get, keys, repeat({})))
        sizes = np.fromiter(map(len, seen), dtype=np.intp, count=len(seen))
        hit_rows = np.repeat(np.arange(len(seen), dtype=np.intp), sizes)
        hit_cols = np.fromiter(chain.from_iterable(seen), dtype=np.intp, count=hit_rows.size)
        hit_counts = np.fromiter(chain.from_iterable(map(dict.values, seen)), dtype=np.float64, count=hit_rows.size)
        rows[hit_rows, hit_cols] += hit_counts
        rows /= rows.sum(axis=1, keepdims=True)
        err = np.clip(1.0 - rows[:, self.vocab.keep_index], 0.0, 1.0)
        return TagDistribution(self.vocab.sha256, rows, err, sentence_bounds(map(len, sentences))[:-1])


def train_baselines(
    pairs: Iterable[tuple[TokenSeq, TokenSeq]],
    vocab: TagVocab,
    shapes: Sequence[tuple[int, float]],
    lexicon: VerbLexicon | None = None,
) -> list[BaselineTagger]:
    """Fit one BaselineTagger per ``(context_width, smoothing)`` in ``shapes`` on the same pairs.

    Tags come from running the encoder to convergence on each pair (so the
    models also see the intermediate sentences they will encounter during
    iterative decoding); tags outside ``vocab`` count as UNKNOWN.  The passes
    come from align.count_passes: each distinct pair is encoded once for all
    models, and each distinct ``(sentence, tags)`` pass is added to every
    model's tally of ``(context, tag index)`` once, times its count.  The
    distinct passes are held in memory until they are tallied, so memory
    grows with the corpus's distinct passes, not with its length.  The nested
    counts are built from the tallies at the end, contexts and their tags in
    the order a pair-by-pair, pass-by-pass loop would first see them.
    """
    models = [BaselineTagger(vocab, context_width, smoothing, {}) for context_width, smoothing in shapes]
    tallies: list[Counter[tuple[tuple[str, ...], int]]] = [Counter() for _ in models]
    for (cur, tags), copies in count_passes(pairs, lexicon).items():
        indices = list(map(vocab.index_of, tags))
        for model, tally in zip(models, tallies):
            tally.update(list(zip(_context_keys(cur, model.context_width), indices)) * copies)
    for model, tally in zip(models, tallies):
        counts = model.counts
        for (key, idx), n in tally.items():
            counts.setdefault(key, {})[idx] = n
    return models


def train_baseline(
    pairs: Iterable[tuple[TokenSeq, TokenSeq]],
    vocab: TagVocab,
    context_width: int = 1,
    smoothing: float = 1.0,
    lexicon: VerbLexicon | None = None,
) -> BaselineTagger:
    """Fit a single BaselineTagger on parallel sentence pairs (see train_baselines)."""
    return train_baselines(pairs, vocab, [(context_width, smoothing)], lexicon)[0]


@dataclass(frozen=True)
class MatrixTagger:
    """Serves per-sentence distributions read from a matrix file.

    Lookup is by exact token sequence, so a sentence may have only one
    record.  Sentences absent from the file (for example intermediates
    produced mid-pipeline that the external model never scored) predict KEEP
    everywhere, which simply stops the iteration.
    """

    vocab: TagVocab
    table: dict[TokenSeq, TagDistribution]

    def predict(self, tokens: Sequence[str]) -> TagDistribution:
        hit = self.table.get(tuple(tokens))
        if hit is not None:
            return hit
        return keep_certain_distribution(self.vocab, len(tokens))

    @classmethod
    def from_records(cls, vocab: TagVocab, records: Iterable[tuple[TokenSeq, TagDistribution]]) -> "MatrixTagger":
        table: dict[TokenSeq, TagDistribution] = {}
        for tokens, dist in records:
            dist.check_fits(vocab, [len(tokens)], f"record for {' '.join(tokens)!r}")
            key = tuple(tokens)
            if key in table:
                raise ContractError(f"repeated record for {' '.join(key)!r}")
            table[key] = dist
        return cls(vocab, table)
