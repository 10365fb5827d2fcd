"""Seeded random search over the two inference tweaks.

Trial 0 is always (ac=0, mep=0), so the tuned system can never score below
the untuned one on the development data it searched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .align import extract_edits_batch
from .decode import Hyperparams
from .errors import ContractError, check_integer
from .score import ScoreReport, score_corpus
from .spans import EditSpan, TokenSeq

# Corrects a whole corpus under (ac, mep): one output sentence per source.
TweakedCorrector = Callable[[Sequence[TokenSeq], float, float], Sequence[Sequence[str]]]


@dataclass(frozen=True)
class TuneTrial:
    ac: float
    mep: float
    report: ScoreReport


@dataclass(frozen=True)
class TuneResult:
    best: Hyperparams
    report: ScoreReport
    trials: tuple[TuneTrial, ...]


def tune_hyperparams(
    correct_fn: TweakedCorrector,
    sources: Sequence[TokenSeq],
    gold: Sequence[Sequence[Sequence[EditSpan]]],
    trials: int,
    seed: int,
    base: Hyperparams = Hyperparams(),
) -> TuneResult:
    """Search (ac, mep) in [0,1]^2 for the best corpus F0.5.

    ``correct_fn(sources, ac, mep)`` corrects the whole corpus per trial, so a
    batched decoder serves all sources of a trial at once.

    ``trials`` counts total evaluations including the fixed (0, 0) baseline
    trial; the remaining trials sample uniformly with the given seed.  Ties
    resolve to the lower ac, then the lower mep, so results are reproducible
    bit for bit.
    """
    if check_integer("trials", trials) < 1:
        raise ContractError(f"trials must be >= 1, got {trials}")
    if len(sources) != len(gold):
        raise ContractError(f"{len(sources)} sources for {len(gold)} gold annotations")
    rng = random.Random(seed)
    candidates = [(0.0, 0.0)]
    for _ in range(trials - 1):
        candidates.append((rng.random(), rng.random()))

    evaluated: list[TuneTrial] = []
    best: TuneTrial | None = None
    # Trials mostly give the same corrections, so each distinct
    # (source, output) pair is aligned once for all of them.
    known: dict[tuple[TokenSeq, TokenSeq], list[EditSpan]] = {}
    for ac, mep in candidates:
        outputs = correct_fn(sources, ac, mep)
        if len(outputs) != len(sources):
            raise ContractError(f"corrector gave {len(outputs)} outputs for {len(sources)} sources")
        report = score_corpus(extract_edits_batch(sources, outputs, known), gold)
        trial = TuneTrial(ac, mep, report)
        evaluated.append(trial)
        if (
            best is None
            or trial.report.f_half > best.report.f_half
            or (trial.report.f_half == best.report.f_half and (trial.ac, trial.mep) < (best.ac, best.mep))
        ):
            best = trial
    assert best is not None
    return TuneResult(replace(base, ac=best.ac, mep=best.mep), best.report, tuple(evaluated))
