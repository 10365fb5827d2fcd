"""Taggers: anything mapping a token sequence to per-position tag probabilities.

Two implementations ship here.  MatrixTagger serves distributions produced by
an external (neural) model from a matrix file; BaselineTagger is a count-based
model with additive smoothing that trains in seconds and exists so the whole
pipeline, ensembling included, can be exercised end to end at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

import numpy as np

from .errors import ContractError
from .spans import TokenSeq
from .vocab import TagVocab

if TYPE_CHECKING:
    from .transforms import VerbLexicon

# Rows must sum to 1; producers in this package stay within PRODUCER_SUM_TOL,
# while externally supplied matrices are accepted up to CONSTRUCT_SUM_TOL.
PRODUCER_SUM_TOL = 1e-6
CONSTRUCT_SUM_TOL = 1e-4

START_MARKER = "[START]"
PAD_MARKER = "[PAD]"


def _checked(
    rows: np.ndarray, error_probs: np.ndarray, starts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` and ``error_probs`` as read-only float64 arrays, once they pass every check.

    ``starts``, when given, is the first row of each sentence stacked in
    ``rows``.  A row that does not sum to 1 is named by its position in its
    own sentence, so a stack fails with the message its sentence alone would.
    """
    rows = np.asarray(rows, dtype=np.float64)
    err = np.asarray(error_probs, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ContractError(f"rows must be a 2-D matrix with at least the START row, got shape {rows.shape}")
    if err.shape != (rows.shape[0],):
        raise ContractError(
            f"error_probs length {err.shape} does not match {rows.shape[0]} positions"
        )
    if starts is not None and (starts[0] != 0 or starts[-1] >= rows.shape[0] or (starts[1:] <= starts[:-1]).any()):
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
        pos = row if starts is None else row - int(starts[np.searchsorted(starts, row, side="right") - 1])
        raise ContractError(f"row {pos} sums to {sums[row]!r}, not 1")
    rows.flags.writeable = False
    err.flags.writeable = False
    return rows, err


@dataclass(frozen=True, eq=False)
class TagDistribution:
    """Per-position probability rows over a tag vocab, plus error detection.

    Row 0 is the START position; rows has shape (len(tokens) + 1, vocab size).
    ``error_probs[p]`` is the probability that position p needs an edit.
    """

    vocab_id: str
    rows: np.ndarray
    error_probs: np.ndarray

    def __post_init__(self) -> None:
        rows, err = _checked(self.rows, self.error_probs)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "error_probs", err)

    @property
    def positions(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True, eq=False)
class TagBatch:
    """The distributions of several sentences, rows stacked in one array.

    Sentence i owns the rows from ``starts[i]`` up to the next start (or the
    end), START row first.  Construction runs TagDistribution's checks, with
    the same tolerance and messages, once over the whole stack.
    """

    vocab_id: str
    rows: np.ndarray
    error_probs: np.ndarray
    starts: np.ndarray

    def __post_init__(self) -> None:
        starts = np.array(self.starts, dtype=np.intp, ndmin=1)
        if starts.ndim != 1 or not starts.size:
            raise ContractError(f"starts must be a non-empty 1-D array, got shape {starts.shape}")
        rows, err = _checked(self.rows, self.error_probs, starts)
        starts.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "error_probs", err)
        object.__setattr__(self, "starts", starts)

    @classmethod
    def stack(cls, dists: Sequence[TagDistribution]) -> "TagBatch":
        if not dists:
            raise ContractError("need at least one distribution")
        head = dists[0]
        for i, d in enumerate(dists[1:], start=1):
            if d.vocab_id != head.vocab_id:
                raise ContractError(f"distribution {i} uses vocab {d.vocab_id[:12]}..., distribution 0 uses {head.vocab_id[:12]}...")
        starts = list(accumulate((d.positions for d in dists[:-1]), initial=0))
        rows = np.concatenate([d.rows for d in dists])
        return cls(head.vocab_id, rows, np.concatenate([d.error_probs for d in dists]), starts)


class Tagger(Protocol):
    """The pluggable prediction boundary used by the decoding pipeline.

    A tagger may also offer ``predict_batch(sentences) -> TagBatch``, one
    call for many sentences; predict_stack serves those that do not.
    """

    vocab: TagVocab

    def predict(self, tokens: Sequence[str]) -> TagDistribution: ...


def predict_stack(tagger: Tagger, sentences: Sequence[TokenSeq]) -> TagBatch:
    """``tagger.predict_batch(sentences)``, or its ``predict`` results stacked."""
    batched = getattr(tagger, "predict_batch", None)
    if batched is not None:
        return batched(sentences)
    return TagBatch.stack([tagger.predict(tokens) for tokens in sentences])


def keep_certain_distribution(vocab: TagVocab, n_tokens: int) -> TagDistribution:
    """All probability mass on KEEP at every position: the do-nothing prediction."""
    rows = np.zeros((n_tokens + 1, len(vocab)))
    rows[:, vocab.keep_index] = 1.0
    return TagDistribution(vocab.sha256, rows, np.zeros(n_tokens + 1))


def _context_keys(tokens: TokenSeq, width: int) -> list[tuple[str, ...]]:
    # Position p looks at positions p - width .. p + width of the sentinel
    # stream [START] + tokens; out-of-range slots pad so sentence edges keep
    # distinct contexts.
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
        if self.context_width < 0:
            raise ContractError("context_width must be >= 0")
        if not self.smoothing > 0.0:
            raise ContractError("smoothing must be positive so unseen contexts stay normalized")

    def _rows(self, sentences: Sequence[Sequence[str]]) -> tuple[np.ndarray, np.ndarray]:
        # Every position's row starts at the smoothing value and gets its
        # context's seen counts scattered in; no dense per-context table is
        # kept, since at a 5000-tag vocab each row costs 40 KB.
        keys = [key for tokens in sentences for key in _context_keys(tokens, self.context_width)]
        rows = np.full((len(keys), len(self.vocab)), self.smoothing)
        hit_rows: list[int] = []
        hit_cols: list[int] = []
        hit_counts: list[int] = []
        for r, key in enumerate(keys):
            seen = self.counts.get(key)
            if seen:
                hit_rows.extend([r] * len(seen))
                hit_cols.extend(seen)
                hit_counts.extend(seen.values())
        rows[hit_rows, hit_cols] += hit_counts
        rows /= rows.sum(axis=1, keepdims=True)
        return rows, np.clip(1.0 - rows[:, self.vocab.keep_index], 0.0, 1.0)

    def predict(self, tokens: Sequence[str]) -> TagDistribution:
        return TagDistribution(self.vocab.sha256, *self._rows([tokens]))

    def predict_batch(self, sentences: Sequence[Sequence[str]]) -> TagBatch:
        starts = list(accumulate((len(tokens) + 1 for tokens in sentences[:-1]), initial=0))
        return TagBatch(self.vocab.sha256, *self._rows(sentences), starts)


def train_baseline(
    pairs: Iterable[tuple[TokenSeq, TokenSeq]],
    vocab: TagVocab,
    context_width: int = 1,
    smoothing: float = 1.0,
    lexicon: "VerbLexicon | None" = None,
) -> BaselineTagger:
    """Fit a BaselineTagger on parallel sentence pairs.

    Tags come from running the encoder to convergence on each pair (so the
    model also sees the intermediate sentences it will encounter during
    iterative decoding); tags outside ``vocab`` count as UNKNOWN.
    """
    from .align import encode_passes

    model = BaselineTagger(vocab, context_width, smoothing, {})
    counts = model.counts
    for source, target in pairs:
        for cur, tags in encode_passes(source, target, lexicon):
            for key, tag in zip(_context_keys(cur, context_width), tags):
                slot = counts.setdefault(key, {})
                idx = vocab.index_of(tag)
                slot[idx] = slot.get(idx, 0) + 1
    return model


@dataclass(frozen=True)
class MatrixTagger:
    """Serves per-sentence distributions read from a matrix file.

    Lookup is by exact token sequence.  Sentences absent from the file (for
    example intermediates produced mid-pipeline that the external model never
    scored) predict KEEP everywhere, which simply stops the iteration.
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
            if dist.vocab_id != vocab.sha256:
                raise ContractError(
                    f"record for {' '.join(tokens)!r} carries vocab {dist.vocab_id[:12]}..., "
                    f"expected {vocab.sha256[:12]}..."
                )
            table.setdefault(tuple(tokens), dist)
        return cls(vocab, table)
