"""Taggers: anything mapping a token sequence to per-position tag probabilities.

Two implementations ship here.  MatrixTagger serves distributions produced by
an external (neural) model from a matrix file; BaselineTagger is a count-based
model with additive smoothing that trains in seconds and exists so the whole
pipeline, ensembling included, can be exercised end to end at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        rows = np.asarray(self.rows, dtype=np.float64)
        err = np.asarray(self.error_probs, dtype=np.float64)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "error_probs", err)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ContractError(f"rows must be a 2-D matrix with at least the START row, got shape {rows.shape}")
        if err.shape != (rows.shape[0],):
            raise ContractError(
                f"error_probs length {err.shape} does not match {rows.shape[0]} positions"
            )
        if not np.all(np.isfinite(rows)) or not np.all(np.isfinite(err)):
            raise ContractError("probabilities must be finite")
        if rows.size and (rows.min() < 0.0 or rows.max() > 1.0):
            raise ContractError("row probabilities must lie in [0, 1]")
        if err.size and (err.min() < 0.0 or err.max() > 1.0):
            raise ContractError("error probabilities must lie in [0, 1]")
        sums = rows.sum(axis=1)
        bad = np.abs(sums - 1.0) > CONSTRUCT_SUM_TOL
        if bad.any():
            pos = int(np.argmax(bad))
            raise ContractError(f"row {pos} sums to {sums[pos]!r}, not 1")
        rows.flags.writeable = False
        err.flags.writeable = False

    @property
    def positions(self) -> int:
        return self.rows.shape[0]


class Tagger(Protocol):
    """The pluggable prediction boundary used by the decoding pipeline."""

    vocab: TagVocab

    def predict(self, tokens: Sequence[str]) -> TagDistribution: ...


def keep_certain_distribution(vocab: TagVocab, n_tokens: int) -> TagDistribution:
    """All probability mass on KEEP at every position: the do-nothing prediction."""
    rows = np.zeros((n_tokens + 1, len(vocab)))
    rows[:, vocab.keep_index] = 1.0
    return TagDistribution(vocab.sha256, rows, np.zeros(n_tokens + 1))


def _context_key(tokens: TokenSeq, position: int, width: int) -> tuple[str, ...]:
    # Position p looks at the sentinel stream [START] + tokens; out-of-range
    # slots pad so sentence edges keep distinct contexts.
    stream_len = len(tokens) + 1

    def at(p: int) -> str:
        if p < 0 or p >= stream_len:
            return PAD_MARKER
        return START_MARKER if p == 0 else tokens[p - 1]

    return tuple(at(position + d) for d in range(-width, width + 1))


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

    def predict(self, tokens: Sequence[str]) -> TagDistribution:
        toks = tuple(tokens)
        n_pos = len(toks) + 1
        rows = np.full((n_pos, len(self.vocab)), self.smoothing)
        for p in range(n_pos):
            seen = self.counts.get(_context_key(toks, p, self.context_width))
            if seen:
                for idx, count in seen.items():
                    rows[p, idx] += count
        rows /= rows.sum(axis=1, keepdims=True)
        error_probs = np.clip(1.0 - rows[:, self.vocab.keep_index], 0.0, 1.0)
        return TagDistribution(self.vocab.sha256, rows, error_probs)


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
            for p, tag in enumerate(tags):
                key = _context_key(cur, p, context_width)
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
