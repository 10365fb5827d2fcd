"""Two ways to combine taggers: probability averaging and span voting.

Averaging needs every member to share one tag vocabulary and happens inside
the iterative decoding loop.  Span voting only needs each member's corrected
sentence, so members may differ in architecture and vocabulary size; an edit
is applied when at least ``n_min`` members propose the identical
(start, end, replacement) span.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .align import extract_edits, extract_edits_batch
from .decode import Hyperparams, decode_iteratively
from .errors import ContractError
from .spans import EditSpan, TokenSeq, apply_edits, edits_conflict
from .tagger import TagDistribution, Tagger, predict_stack
from .transforms import VerbLexicon

# vote_correct_batch votes this many distinct rows at a time.  With three
# members that is up to 384 pairs per alignment batch, enough for the
# batched kernel.  A chunk's edits and kernel arrays are held at once: on
# the 500 rows of three 24-40-token members that perfbench's long-align
# votes, the vote's peak heap (tracemalloc) rose by about 0.7 MB over
# voting row by row with 128 rows, and by about 1.3 MB with 256.
VOTE_ROWS = 128


def average_distributions(dists: Sequence[TagDistribution]) -> TagDistribution:
    """Element-wise mean of rows and error probabilities.

    Members must agree on vocabulary and shape (span voting is the mode that
    tolerates mixed vocabularies) and split their rows into the same
    sentences.  Each element is averaged as min + sum(sorted deviations)/k,
    which makes the result independent of member order and reproduces a
    k-copy ensemble's distribution exactly.  The members' values are sorted
    element by element with an odd-even transposition network (k rounds of
    elementwise np.minimum/np.maximum over neighbouring members), the
    smallest is subtracted from the rest, and those deviations are summed in
    ascending order.  Every element is averaged on its own, so the mean of
    stacked sentences is, sentence by sentence, the mean of their
    distributions.
    """
    if not dists:
        raise ContractError("need at least one distribution")
    head = dists[0]
    for i, d in enumerate(dists[1:], start=1):
        if d.vocab_id != head.vocab_id:
            raise ContractError(f"member {i} uses vocab {d.vocab_id[:12]}..., member 0 uses {head.vocab_id[:12]}...")
        if d.rows.shape != head.rows.shape:
            raise ContractError(f"member {i} has shape {d.rows.shape}, member 0 has {head.rows.shape}")
        if not np.array_equal(d.starts, head.starts):
            raise ContractError(f"member {i} splits its rows into other sentences than member 0")
    rows = _orderless_mean([d.rows for d in dists])
    err = _orderless_mean([d.error_probs for d in dists])
    return replace(head, rows=np.clip(rows, 0.0, 1.0), error_probs=np.clip(err, 0.0, 1.0))


def _orderless_mean(arrays: list[np.ndarray]) -> np.ndarray:
    k = len(arrays)
    ranked = list(arrays)
    for step in range(k):
        for i in range(step % 2, k - 1, 2):
            lo, hi = ranked[i], ranked[i + 1]
            ranked[i], ranked[i + 1] = np.minimum(lo, hi), np.maximum(lo, hi)
    base = ranked[0]
    total = base - base  # the smallest deviation: 0
    # For k > 1 the network replaced every entry with a new array, so the
    # deviations may overwrite them.
    for value in ranked[1:]:
        value -= base
        total += value
    total /= k
    total += base
    return total


@dataclass(frozen=True)
class VoteTally:
    """Vote counts per exact edit span across ensemble members."""

    votes: dict[EditSpan, int]

    def surviving(self, n_min: int) -> list[EditSpan]:
        """Edits with at least ``n_min`` votes, before conflict resolution; sorted."""
        picked = [e for e, v in self.votes.items() if v >= n_min]
        picked.sort(key=EditSpan.sort_key)
        return picked


def tally_votes(
    source: Sequence[str],
    model_outputs: Sequence[Sequence[str]],
    known: dict[tuple[TokenSeq, TokenSeq], list[EditSpan]] | None = None,
) -> VoteTally:
    """Each member's edits, one vote per member.

    Members with the same output are aligned once, in the order of their
    first appearance, so ``votes`` lists edits in the order a per-member
    loop would first meet them.  ``known`` maps ``(source, output)`` pairs
    to their edits already extracted (extract_edits_batch); other outputs
    are aligned here.
    """
    src = tuple(source)
    known = {} if known is None else known
    votes: dict[EditSpan, int] = {}
    for output, members in Counter(map(tuple, model_outputs)).items():
        edits = known.get((src, output))
        for edit in extract_edits(src, output) if edits is None else edits:
            votes[edit] = votes.get(edit, 0) + members
    return VoteTally(votes)


def _resolve_conflicts(candidates: list[tuple[EditSpan, int]]) -> list[EditSpan]:
    # Strongest first: more votes, then earlier start, then shorter span,
    # then lexicographically smaller replacement.
    ranked = sorted(
        candidates,
        key=lambda item: (-item[1], item[0].start, item[0].end - item[0].start, item[0].replacement),
    )
    kept: list[EditSpan] = []
    for edit, _ in ranked:
        if not any(edits_conflict(edit, other) for other in kept):
            kept.append(edit)
    kept.sort(key=EditSpan.sort_key)
    return kept


def majority_vote(
    source: Sequence[str],
    model_outputs: Sequence[Sequence[str]],
    n_min: int,
    known: dict[tuple[TokenSeq, TokenSeq], list[EditSpan]] | None = None,
) -> list[EditSpan]:
    """Edits proposed identically by at least ``n_min`` members.

    Surviving edits that still overlap each other (possible across members)
    are resolved deterministically in favor of the higher vote count.
    ``known`` is tally_votes's.
    """
    _check_quorum(n_min, len(model_outputs))
    tally = tally_votes(source, model_outputs, known)
    survivors = [(e, tally.votes[e]) for e in tally.surviving(n_min)]
    return _resolve_conflicts(survivors)


def _check_quorum(n_min: int, members: int) -> None:
    if not 1 <= n_min <= members:
        raise ContractError(f"n_min must lie in [1, {members}], got {n_min}")


def average_correct_batch(
    taggers: Sequence[Tagger],
    sentences: Sequence[Sequence[str]],
    hp: Hyperparams = Hyperparams(),
    lexicon: VerbLexicon | None = None,
) -> list[TokenSeq]:
    """Iterative pipeline over the member-averaged distribution each pass, per sentence."""
    if not taggers:
        raise ContractError("need at least one tagger")
    vocab = taggers[0].vocab
    for i, t in enumerate(taggers[1:], start=1):
        if t.vocab.sha256 != vocab.sha256:
            raise ContractError(f"member {i} uses a different tag vocabulary; averaging requires identical vocabs")

    def predict_batch(active: list[TokenSeq]) -> TagDistribution:
        return average_distributions([predict_stack(t, active) for t in taggers])

    return [r.output for r in decode_iteratively(predict_batch, vocab, sentences, hp, lexicon)]


def average_correct(
    taggers: Sequence[Tagger],
    tokens: Sequence[str],
    hp: Hyperparams = Hyperparams(),
    lexicon: VerbLexicon | None = None,
) -> TokenSeq:
    """Iterative pipeline over the member-averaged distribution: a batch of one."""
    return average_correct_batch(taggers, [tokens], hp, lexicon)[0]


def vote_correct(
    source: Sequence[str],
    model_outputs: Sequence[Sequence[str]],
    n_min: int,
    known: dict[tuple[TokenSeq, TokenSeq], list[EditSpan]] | None = None,
) -> TokenSeq:
    """Apply the quorum's surviving edits to the source in one shot (``known`` is tally_votes's)."""
    return apply_edits(source, majority_vote(source, model_outputs, n_min, known))


def vote_correct_batch(
    sources: Sequence[Sequence[str]],
    member_outputs: Sequence[Sequence[Sequence[str]]],
    n_min: int,
) -> list[TokenSeq]:
    """vote_correct of every source against its members' outputs: one sentence per source.

    ``member_outputs`` holds one output list per member, each as long as
    ``sources``.  Voting is a pure function of a source and its members'
    outputs, so each distinct row is voted once and its result given to
    every position that holds it.  The distinct rows are voted VOTE_ROWS at
    a time: the edits of all their distinct ``(source, output)`` pairs are
    extracted in one batch, and only that chunk's edits are held.
    """
    if not member_outputs:
        raise ContractError("need at least one member")
    for i, outputs in enumerate(member_outputs):
        if len(outputs) != len(sources):
            raise ContractError(f"member {i} has {len(outputs)} outputs for {len(sources)} sources")
    _check_quorum(n_min, len(member_outputs))
    rows = [
        (tuple(source), tuple(map(tuple, outputs)))
        for source, outputs in zip(sources, zip(*member_outputs))
    ]
    distinct = list(dict.fromkeys(rows))
    voted: dict[tuple[TokenSeq, tuple[TokenSeq, ...]], TokenSeq] = {}
    for start in range(0, len(distinct), VOTE_ROWS):
        chunk = distinct[start : start + VOTE_ROWS]
        pairs = [(source, output) for source, outputs in chunk for output in outputs]
        known: dict[tuple[TokenSeq, TokenSeq], list[EditSpan]] = {}
        extract_edits_batch([source for source, _ in pairs], [output for _, output in pairs], known)
        for source, outputs in chunk:
            voted[source, outputs] = vote_correct(source, outputs, n_min, known)
    return [voted[row] for row in rows]
