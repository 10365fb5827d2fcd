"""Teacher-to-student dataset generation from monolingual text.

A corrector (single pipeline or ensemble) corrects raw sentences a chunk at
a time; only the pairs it actually changed are kept, capped at a pair limit.
Real-world text contains some share of errors, so the edited fraction is
itself a useful statistic and gets reported alongside the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import index
from typing import Callable, Iterable, Sequence

from .corpus import ParallelCorpus
from .errors import ContractError, EditKitError
from .spans import TokenSeq

# Corrects a list of sentences: one output sentence per source.
Corrector = Callable[[Sequence[TokenSeq]], Sequence[Sequence[str]]]


@dataclass(frozen=True)
class DistillStats:
    processed: int
    emitted: int
    failed: int

    @property
    def edited_fraction(self) -> float:
        return self.emitted / self.processed if self.processed else 0.0

    def summary(self) -> str:
        return (
            f"processed {self.processed} emitted {self.emitted} "
            f"failed {self.failed} edited_fraction {self.edited_fraction:.4f}"
        )


def _correct(corrector: Corrector, sources: list[TokenSeq]) -> list[TokenSeq] | None:
    """``corrector(sources)`` as tuples, or None when it rejects them with an EditKitError."""
    try:
        outputs = corrector(sources)
    except EditKitError:
        return None
    if len(outputs) != len(sources):
        raise ContractError(f"corrector gave {len(outputs)} outputs for {len(sources)} sources")
    return [tuple(output) for output in outputs]


def distill(
    corrector: Corrector,
    sentences: Iterable[Sequence[str]],
    limit: int,
) -> tuple[ParallelCorpus, DistillStats]:
    """Collect up to ``limit`` (input, corrected) pairs where output != input.

    ``corrector(sources)`` corrects a list of sentences in one call.  It gets
    them in chunks of ``limit`` minus the pairs kept so far: a sentence yields
    at most one pair, so no sentence past the one that reaches the limit is
    ever consumed or corrected.  When the corrector rejects a chunk with an
    ``EditKitError`` (bad input, a broken contract), the chunk is corrected
    again one sentence at a time, and each sentence rejected alone is counted
    as failed and skipped.  Any other exception is a bug and propagates, as
    does a corrector that returns a different number of sentences than it got.
    """
    try:
        if index(limit) < 1:
            raise ContractError(f"limit must be >= 1, got {limit}")
    except TypeError:
        raise ContractError(f"limit must be an integer, got {limit!r}") from None
    pairs: ParallelCorpus = []
    processed = failed = 0
    remaining = iter(sentences)
    while len(pairs) < limit:
        chunk = [tuple(sentence) for sentence in islice(remaining, limit - len(pairs))]
        if not chunk:
            break
        processed += len(chunk)
        outputs = _correct(corrector, chunk)
        if outputs is None:
            alone = [_correct(corrector, [source]) for source in chunk]
            outputs = [None if one is None else one[0] for one in alone]
        for source, output in zip(chunk, outputs):
            if output is None:
                failed += 1
            elif output != source:
                pairs.append((source, output))
    return pairs, DistillStats(processed, len(pairs), failed)
