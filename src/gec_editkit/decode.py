"""Turn tag distributions into corrections.

select_tags applies the two inference tweaks before the per-position argmax:
extra confidence added to KEEP (trades recall for precision) and a minimum
error probability below which corrections are suppressed, both at sentence
level (gate on the max detection score) and at token level (demote weak
picks).  decode_iteratively repeats predict -> select -> apply, bounded by
max_iters, because some corrections only become expressible after others;
run_pipeline and the averaging ensemble both decode through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import ContractError
from .spans import TokenSeq
from .tags import KEEP, Tag, TagKind, TagSeq
from .tagger import TagDistribution, Tagger
from .transforms import InapplicableTransformError, apply_transform
from .vocab import TagVocab

if TYPE_CHECKING:
    from .transforms import VerbLexicon


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
        if self.max_iters < 1:
            raise ContractError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class CorrectionResult:
    output: TokenSeq
    iterations_used: int
    per_iteration_tags: tuple[TagSeq, ...]


def select_tags(dist: TagDistribution, vocab: TagVocab, ac: float = 0.0, mep: float = 0.0) -> TagSeq:
    """Pick one tag per position from ``dist`` under the AC/MEP tweaks.

    KEEP gets ``ac`` added to its probability before the argmax (rows are not
    re-normalized; only the argmax matters).  A chosen non-KEEP tag whose raw
    probability is below ``mep`` demotes to KEEP, and if no position's error
    probability reaches ``mep`` the whole sentence stays untouched.  The START
    position only ever selects KEEP or APPEND.
    """
    if dist.vocab_id != vocab.sha256:
        raise ContractError(
            f"distribution was made for vocab {dist.vocab_id[:12]}..., decoder has {vocab.sha256[:12]}..."
        )
    if dist.rows.shape[1] != len(vocab):
        raise ContractError(f"rows have width {dist.rows.shape[1]}, vocab size is {len(vocab)}")
    n_pos = dist.positions
    if float(dist.error_probs.max()) < mep:
        return TagSeq([KEEP] * n_pos)
    keep_idx = vocab.keep_index
    scores = dist.rows.copy()
    scores[:, keep_idx] += ac
    scores[0, ~vocab.start_position_mask()] = -1.0
    picks = scores.argmax(axis=1)
    raw = dist.rows[np.arange(n_pos), picks]
    picks[(picks != keep_idx) & (raw < mep)] = keep_idx
    return TagSeq([vocab.tags[i] for i in picks])


def apply_tags(
    tokens: Sequence[str],
    tags: Sequence[Tag],
    lexicon: "VerbLexicon | None" = None,
) -> TokenSeq:
    """Apply one tag per position ([START] + tokens) to the sentence.

    Transforms that turn out inapplicable fall back to KEEP, as does MERGE on
    the last token; a MERGE consumes the next token, whose own tag is ignored.
    UNKNOWN acts as KEEP.
    """
    toks = tuple(tokens)
    if len(tags) != len(toks) + 1:
        raise ContractError(f"{len(tags)} tags for {len(toks)} tokens (need tokens + 1)")
    out: list[str] = []
    start = tags[0]
    if start.kind is TagKind.APPEND:
        out.append(start.payload)
    elif start.kind is not TagKind.KEEP:
        raise ContractError(f"START position cannot carry {start.kind.value}")
    skip_next = False
    for i, token in enumerate(toks):
        if skip_next:
            skip_next = False
            continue
        tag = tags[i + 1]
        kind = tag.kind
        if kind in (TagKind.KEEP, TagKind.UNKNOWN):
            out.append(token)
        elif kind is TagKind.DELETE:
            pass
        elif kind is TagKind.APPEND:
            out.append(token)
            out.append(tag.payload)
        elif kind is TagKind.REPLACE:
            out.append(tag.payload)
        elif kind is TagKind.MERGE:
            if i + 1 < len(toks):
                out.append(token + toks[i + 1])
                skip_next = True
            else:
                out.append(token)
        else:
            next_token = toks[i + 1] if i + 1 < len(toks) else None
            try:
                out.extend(apply_transform(tag, token, next_token, lexicon))
            except InapplicableTransformError:
                out.append(token)
    return tuple(out)


def decode_iteratively(
    predict: Callable[[TokenSeq], TagDistribution],
    vocab: TagVocab,
    tokens: Sequence[str],
    hp: Hyperparams = Hyperparams(),
    lexicon: "VerbLexicon | None" = None,
) -> CorrectionResult:
    """Predict, select, apply, repeat: the one decoding loop.

    Stops as soon as a pass selects KEEP everywhere, else after
    ``hp.max_iters`` passes.  ``predict`` maps the current sentence to a
    distribution over ``vocab``: one tagger's, or an ensemble's average.
    """
    cur = tuple(tokens)
    history: list[TagSeq] = []
    for _ in range(hp.max_iters):
        tags = select_tags(predict(cur), vocab, hp.ac, hp.mep)
        history.append(tags)
        if tags.all_keep:
            break
        cur = apply_tags(cur, tags, lexicon)
    return CorrectionResult(cur, len(history), tuple(history))


def run_pipeline(
    tagger: Tagger,
    tokens: Sequence[str],
    hp: Hyperparams = Hyperparams(),
    lexicon: "VerbLexicon | None" = None,
) -> CorrectionResult:
    """Iteratively correct ``tokens`` with one tagger (see decode_iteratively).

    Deterministic for a fixed tagger and input.
    """
    return decode_iteratively(tagger.predict, tagger.vocab, tokens, hp, lexicon)
