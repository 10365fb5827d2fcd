"""Teacher-to-student dataset generation from monolingual text.

A corrector (single pipeline or ensemble) streams over raw sentences; only
the pairs it actually changed are kept, capped at a pair limit.  Real-world
text contains some share of errors, so the edited fraction is itself a useful
statistic and gets reported alongside the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .corpus import ParallelCorpus
from .errors import ContractError, EditKitError
from .spans import TokenSeq

Corrector = Callable[[TokenSeq], Sequence[str]]


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


def distill(
    corrector: Corrector,
    sentences: Iterable[Sequence[str]],
    limit: int,
) -> tuple[ParallelCorpus, DistillStats]:
    """Collect up to ``limit`` (input, corrected) pairs where output != input.

    A sentence the corrector rejects with an ``EditKitError`` (bad input, a
    broken contract) is counted as failed and skipped.  Any other exception
    is a bug and propagates.  Stops consuming once the limit is reached.
    """
    if limit < 1:
        raise ContractError(f"limit must be >= 1, got {limit}")
    pairs: ParallelCorpus = []
    processed = failed = 0
    for sentence in sentences:
        source = tuple(sentence)
        processed += 1
        try:
            output = tuple(corrector(source))
        except EditKitError:
            failed += 1
            continue
        if output != source:
            pairs.append((source, output))
            if len(pairs) >= limit:
                break
    return pairs, DistillStats(processed, len(pairs), failed)
