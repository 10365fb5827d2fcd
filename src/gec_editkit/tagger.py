"""Taggers: anything mapping a batch of token sequences to per-position tag probabilities.

Two implementations ship here.  MatrixTagger serves distributions produced by
an external (neural) model from a matrix file; BaselineTagger is a count-based
model with additive smoothing that trains in seconds and exists so the whole
pipeline, ensembling included, can be exercised end to end at desk scale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, islice, repeat
from types import MappingProxyType
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .align import count_passes
from .errors import ContractError, check_integer
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
        starts = np.array(self.starts, ndmin=1)
        if starts.ndim != 1 or not starts.size:
            raise ContractError(f"starts must be a non-empty 1-D array, got shape {starts.shape}")
        if starts.dtype.kind not in "iu":
            raise ContractError(f"starts must be integers, got {starts.dtype}")
        starts = starts.astype(np.intp, copy=False)
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
            raise ContractError(f"row {pos} sums to {float(sums[row])!r}, not 1")
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


class Tagger(Protocol):
    """The one prediction boundary between a tagger and the decoders.

    Every batch decoder calls ``predict_batch(sentences)``, which stacks the
    sentences' rows over ``vocab`` in one TagDistribution (sentence_bounds).
    ``predict(tokens)`` is the batch of one; only decode.run_pipeline calls it.
    """

    vocab: TagVocab

    def predict(self, tokens: Sequence[str]) -> TagDistribution: ...

    def predict_batch(self, sentences: Sequence[Sequence[str]]) -> TagDistribution: ...


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


def _batch_context_keys(sentences: Sequence[Sequence[str]], width: int) -> list[tuple[str, ...]]:
    """The _context_keys of every sentence, concatenated, built from one padded stream.

    The width is first cut to the longest sentence's length + 1, which cuts
    nothing _context_keys would not.  The sentences at least that cut width
    long stand end to end in one stream, each as [START] + tokens with
    ``width`` pads before and after, a gap shared by neighbours, so no window
    centred on a sentence reaches another.  One zip of the stream's shifted
    slices makes every window, and compress keeps those centred on a START or
    a token; the gaps' windows, dropped, are at most as many as those kept.
    A shorter sentence is keyed apart, by _context_keys at its own cut, so
    no window is ever wider than its sentence's own.
    """
    if not sentences:
        return []
    lengths = list(map(len, sentences))
    width = min(width, max(lengths) + 1)
    wide = [n + 1 >= width for n in lengths]
    streamed = list(compress(sentences, wide))
    pad = (PAD_MARKER,) * width
    stream = list(pad)
    for tokens in streamed:
        stream.append(START_MARKER)
        stream += tokens
        stream += pad
    gap = bytes(width)
    centred = b"".join(b"\x01" * (len(tokens) + 1) + gap for tokens in streamed)
    windows = zip(*[islice(stream, i, None) for i in range(2 * width + 1)])
    keys = list(compress(windows, centred))
    if len(streamed) == len(sentences):
        return keys
    streamed_keys = iter(keys)
    keys = []
    for tokens, n, in_stream in zip(sentences, lengths, wide):
        keys += islice(streamed_keys, n + 1) if in_stream else _context_keys(tokens, width)
    return keys


@dataclass(frozen=True, eq=False)
class BaselineTagger:
    """Count-based tagger: P(tag | token window) with additive smoothing.

    Deterministic by construction; varying the window width or smoothing
    yields genuinely diverse ensemble members.

    Its seen counts are one compressed sparse row table: row ``r`` holds
    context ``contexts[r]``, whose tag indices and counts are
    ``cols[indptr[r]:indptr[r + 1]]`` and ``counts[indptr[r]:indptr[r + 1]]``.
    Construction checks the table and keeps its own copies: ``contexts`` as a
    tuple, and read-only arrays, ``counts`` as float64.  So nothing it was
    made from can change what it predicts, and ``_ids``, each context's row,
    is derived from the copy.  Equality is identity; a copy, a replace or a
    pickle is made from the fields as they are.
    """

    vocab: TagVocab
    context_width: int
    smoothing: float
    contexts: Sequence[tuple[str, ...]] = field(repr=False)
    indptr: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    _ids: dict[tuple[str, ...], int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.check_shape(self.context_width, self.smoothing, len(self.vocab))
        contexts = tuple(self.contexts)
        ids = dict(zip(contexts, count()))
        if len(ids) != len(contexts):
            raise ContractError("a context has more than one row")
        indptr, cols, counts = np.asarray(self.indptr), np.asarray(self.cols), np.asarray(self.counts)
        if indptr.dtype.kind not in "iu" or cols.dtype.kind not in "iu" or counts.dtype.kind not in "iuf":
            dtypes = f"{indptr.dtype}, {cols.dtype} and {counts.dtype}"
            raise ContractError(f"indptr and cols must be integer arrays and counts numbers, got {dtypes}")
        # astype copies, so no array the tagger was made from is kept.
        indptr, cols, counts = indptr.astype(np.intp), cols.astype(np.intp), counts.astype(np.float64)
        if indptr.shape != (len(contexts) + 1,) or indptr[0] != 0 or (indptr[1:] < indptr[:-1]).any():
            raise ContractError(f"indptr must rise from 0 in {len(contexts) + 1} steps, one per context and one more")
        if cols.shape != (indptr[-1],) or counts.shape != (indptr[-1],):
            shapes = f"{cols.shape} and {counts.shape}"
            raise ContractError(f"cols and counts must hold indptr[-1] = {indptr[-1]} cells, got {shapes}")
        if cols.size and not (0 <= cols.min() and cols.max() < len(self.vocab)):
            raise ContractError(f"counts name tag indices outside the vocab's {len(self.vocab)} tags")
        # A row's columns rise, so each names a tag once; one += per cell relies on it.
        if (np.diff(cols) <= 0)[np.isin(np.arange(1, cols.size), indptr, invert=True)].any():
            raise ContractError("each row's tag indices must rise")
        # min is NaN when any count is NaN, so the comparison refuses it too.
        if counts.size and not (counts.min() > 0.0 and math.isfinite(counts.max())):
            raise ContractError("counts must be positive and finite")
        for array in (indptr, cols, counts):
            array.flags.writeable = False
        for name, value in zip(("contexts", "indptr", "cols", "counts", "_ids"), (contexts, indptr, cols, counts, ids)):
            object.__setattr__(self, name, value)

    @staticmethod
    def check_shape(context_width: int, smoothing: float, vocab_size: int) -> None:
        """Refuse a window width or smoothing no BaselineTagger over ``vocab_size`` tags can have.

        That includes a smoothing whose row sum over ``vocab_size`` tags,
        ``smoothing * vocab_size``, exceeds half the largest float: such a
        row overflows when it is normalised.
        """
        if check_integer("context_width", context_width) < 0:
            raise ContractError("context_width must be >= 0")
        if not (smoothing > 0.0 and math.isfinite(smoothing)):
            raise ContractError("smoothing must be positive and finite so unseen contexts stay normalized")
        if smoothing * vocab_size > sys.float_info.max / 2:
            raise ContractError(
                f"smoothing {smoothing!r} over a vocab of {vocab_size} tags overflows a row's sum; "
                "smoothing * vocab size must stay within half the largest float"
            )

    def predict(self, tokens: Sequence[str]) -> TagDistribution:
        return self.predict_batch([tokens])

    def predict_batch(self, sentences: Sequence[Sequence[str]]) -> TagDistribution:
        # Every position's row starts at the smoothing value and gets its
        # context's seen counts scattered in; no dense per-context table is
        # kept, since at a 5000-tag vocab each row costs 40 KB.
        # A hit's table row is ctx; its cells are cols/counts[indptr[ctx]:
        # indptr[ctx + 1]], gathered for all hits at once.  Columns are unique
        # within a table row, so each seen cell gets exactly one +=.
        keys = _batch_context_keys(sentences, self.context_width)
        rows = np.full((len(keys), len(self.vocab)), self.smoothing)
        ctx = np.fromiter(map(self._ids.get, keys, repeat(-1)), dtype=np.intp, count=len(keys))
        hits = np.flatnonzero(ctx >= 0)
        lo = self.indptr[ctx[hits]]
        sizes = self.indptr[ctx[hits] + 1] - lo
        # Cell k of the hits' concatenated table rows sits at k minus the
        # cells of the hits before its own, plus its own row's lo.
        at = np.arange(sizes.sum()) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
        rows[np.repeat(hits, sizes), self.cols[at]] += self.counts[at]
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
    models, and each distinct ``(sentence, tags)`` pass counts once, times
    its copies.

    Each model tallies ``(context, tag index)`` over the positions of all
    distinct passes in numpy (_tally), straight into the table it is made
    from: every context gets an id in one ``dict.setdefault`` pass, every
    position one ``int64`` code from its context and tag, weighted by its
    pass's copies, and equal codes are summed in integers.  The distinct
    passes and one model's contexts are held in memory until they are
    tallied, so memory grows with the corpus's distinct passes, not with its
    length.  Every shape is checked against ``vocab`` before any pair is
    encoded.
    """
    for context_width, smoothing in shapes:
        BaselineTagger.check_shape(context_width, smoothing, len(vocab))
    passes = count_passes(pairs, lexicon)
    sentences = [cur for cur, _ in passes]
    positions = [len(cur) + 1 for cur in sentences]
    indices = np.fromiter(
        map(vocab.index.get, chain.from_iterable(tags for _, tags in passes), repeat(vocab.unknown_index)),
        dtype=np.int64,
        count=sum(positions),
    )
    # Each position as often as its pass: a pass of n tokens has n + 1 positions.
    copies = np.repeat(np.fromiter(passes.values(), dtype=np.int64, count=len(passes)), positions)
    models = []
    for context_width, smoothing in shapes:
        table = _tally(_batch_context_keys(sentences, context_width), indices, copies, len(vocab))
        models.append(BaselineTagger(vocab, context_width, smoothing, *table))
    return models


def _tally(
    keys: list[tuple[str, ...]], tags: np.ndarray, copies: np.ndarray, width: int
) -> tuple[list[tuple[str, ...]], np.ndarray, np.ndarray, np.ndarray]:
    """The table ``(contexts, indptr, cols, counts)`` of ``copies`` summed over positions with ``keys`` and ``tags``.

    A context's id is the index of its first position, and each position's
    code ``id * width + tag`` is unique to its context and tag.  Sorted, equal
    codes stand together and their copies are summed as integers; the sorted
    distinct codes give the contexts in the order of their first position
    and each context's tags in ascending index order, a row per context.
    """
    ids: dict[tuple[str, ...], int] = {}
    codes = np.fromiter(map(ids.setdefault, keys, count()), dtype=np.int64, count=len(keys))
    codes *= width
    codes += tags
    order = np.argsort(codes)
    codes = codes[order]
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    ctx, cols = np.divmod(codes[starts], width)
    rows = np.flatnonzero(np.diff(ctx, prepend=-1))
    contexts = list(map(keys.__getitem__, ctx[rows].tolist()))
    return contexts, np.append(rows, ctx.size), cols, np.add.reduceat(copies[order], starts)


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
    everywhere, with error probability 0, which simply stops the iteration.
    Every record is checked against the vocab and its sentence when the
    tagger is made; ``model.table`` is a read-only view of a copy of the
    table, so no record can join it unchecked.
    """

    vocab: TagVocab
    table: Mapping[TokenSeq, TagDistribution]

    def __post_init__(self) -> None:
        table = dict(self.table)
        for tokens, dist in table.items():
            dist.check_fits(self.vocab, [len(tokens)], f"record for {' '.join(tokens)!r}")
        object.__setattr__(self, "table", MappingProxyType(table))

    def __reduce__(self):
        # A read-only mapping does not pickle or deep-copy; the tagger is remade from a plain dict.
        return type(self), (self.vocab, dict(self.table))

    def predict(self, tokens: Sequence[str]) -> TagDistribution:
        return self.predict_batch([tokens])

    def predict_batch(self, sentences: Sequence[Sequence[str]]) -> TagDistribution:
        bounds = sentence_bounds(map(len, sentences))
        rows = np.zeros((bounds[-1], len(self.vocab)))
        rows[:, self.vocab.keep_index] = 1.0
        err = np.zeros(bounds[-1])
        for tokens, lo, hi in zip(sentences, bounds, bounds[1:]):
            hit = self.table.get(tuple(tokens))
            if hit is not None:
                rows[lo:hi] = hit.rows
                err[lo:hi] = hit.error_probs
        return TagDistribution(self.vocab.sha256, rows, err, bounds[:-1])

    @classmethod
    def from_records(cls, vocab: TagVocab, records: Iterable[tuple[TokenSeq, TagDistribution]]) -> "MatrixTagger":
        table: dict[TokenSeq, TagDistribution] = {}
        for tokens, dist in records:
            key = tuple(tokens)
            if key in table:
                raise ContractError(f"repeated record for {' '.join(key)!r}")
            table[key] = dist
        return cls(vocab, table)
