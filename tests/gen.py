"""Seeded random generators shared by the property-style tests."""

from __future__ import annotations

import random

import numpy as np

from gec_editkit import EditSpan, InapplicableTransformError, TagDistribution, TagVocab, VerbLexicon
from gec_editkit.tagger import sentence_bounds
from gec_editkit.tags import (
    MERGE,
    SPLIT_HYPHEN,
    Tag,
    TagKind,
    agreement_transform,
    append,
    case_transform,
    replace,
    verb_transform,
)
from gec_editkit.transforms import pluralize, singularize
from gec_editkit.vocab import MANDATORY_TAGS

WORDS = (
    "the", "a", "dog", "dogs", "cat", "he", "she", "go", "goes", "to",
    "school", "home", "and", "very", "big", "small", "runs", "walk",
)


def random_tokens(rng: random.Random, max_len: int = 30, min_len: int = 0) -> tuple[str, ...]:
    n = rng.randint(min_len, max_len)
    return tuple(rng.choice(WORDS) for _ in range(n))


def mutate(rng: random.Random, tokens: tuple[str, ...], density: float) -> tuple[str, ...]:
    """Random target: substitutions/deletions/insertions at roughly ``density``."""
    out: list[str] = []
    for tok in tokens:
        roll = rng.random()
        if roll < density / 3:
            pass  # delete
        elif roll < 2 * density / 3:
            out.append(rng.choice(WORDS))  # substitute
        else:
            out.append(tok)
        if rng.random() < density / 3:
            out.append(rng.choice(WORDS))  # insert after
    if rng.random() < density / 3:
        out.insert(0, rng.choice(WORDS))
    return tuple(out)


def random_pair(rng: random.Random, max_len: int = 30) -> tuple[tuple[str, ...], tuple[str, ...]]:
    source = random_tokens(rng, max_len=max_len)
    density = rng.random() * 0.5
    return source, mutate(rng, source, density)


NOUNS = ("dog", "box", "city", "child", "person", "knife", "glass", "wish", "tooth", "day")
HYPHENATED = ("well-known", "state-of-the-art", "e-mail", "self-aware", "up-to-date")


def transform_groups(lexicon: VerbLexicon) -> tuple[tuple[str, ...], ...]:
    """Transform-prone word groups: nouns in both numbers, every verb form of ``lexicon``, hyphenated tokens."""
    verbs = sorted(set(lexicon.forms.values()) | {base for base, _ in lexicon.forms})
    return NOUNS + tuple(pluralize(noun) for noun in NOUNS), tuple(verbs), HYPHENATED, WORDS


def _transform_word(rng: random.Random, groups: tuple[tuple[str, ...], ...]) -> str:
    word = rng.choice(rng.choice(groups))
    return word.capitalize() if rng.random() < 0.2 else word


def _transformed(rng: random.Random, token: str, lexicon: VerbLexicon) -> list[str]:
    """``token`` under one random case, number, verb-form or hyphen-split change (unchanged if none fits)."""
    roll = rng.randrange(4)
    if roll == 0:
        return [rng.choice((token.upper(), token.lower(), token[:1].upper() + token[1:]))]
    if roll == 1:
        try:
            return [rng.choice((pluralize, singularize))(token)]
        except InapplicableTransformError:
            return [token]
    if roll == 2:
        slots = lexicon.paradigm_slots(token)
        if slots:
            base, _ = rng.choice(slots)
            return [lexicon.inflect(base, rng.choice(lexicon.form_keys(base)))]
        return [token]
    pieces = token.split("-")
    return pieces if len(pieces) > 1 and all(pieces) else [token]


def transform_pair(
    rng: random.Random, groups: tuple[tuple[str, ...], ...], lexicon: VerbLexicon, max_len: int = 8
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A pair over ``groups`` (see transform_groups) whose edits lean on transforms and merges, mixed with plain edits."""
    source = tuple(_transform_word(rng, groups) for _ in range(rng.randint(0, max_len)))
    target: list[str] = []
    for tok in source:
        roll = rng.random()
        if roll < 0.5:
            target.extend(_transformed(rng, tok, lexicon))
        elif roll < 0.6 and target:
            target[-1] += tok  # merge with the previous token
        elif roll < 0.7:
            pass  # delete
        elif roll < 0.8:
            target.append(_transform_word(rng, groups))  # substitute
        else:
            target.append(tok)
        if rng.random() < 0.1:
            target.append(_transform_word(rng, groups))  # insert after
    return source, tuple(target)


def random_tag(rng: random.Random) -> Tag:
    kind = rng.choice(list(TagKind))
    if kind in (TagKind.APPEND, TagKind.REPLACE):
        ctor = append if kind is TagKind.APPEND else replace
        return ctor(rng.choice(WORDS))
    if kind is TagKind.TRANSFORM_CASE:
        return case_transform(rng.choice(("CAPITAL", "LOWER", "UPPER")))
    if kind is TagKind.TRANSFORM_AGREEMENT:
        return agreement_transform(rng.choice(("SINGULAR", "PLURAL")))
    if kind is TagKind.TRANSFORM_VERB:
        return verb_transform(rng.choice(("VB_VBZ", "VBZ_VB", "VBD_VBN", "VB_VBG")))
    return Tag(kind)


def random_vocab(rng: random.Random, extra: int = 12) -> TagVocab:
    tags = list(MANDATORY_TAGS)
    seen = set(tags)
    for candidate in (MERGE, SPLIT_HYPHEN):
        if rng.random() < 0.7:
            tags.append(candidate)
            seen.add(candidate)
    while len(tags) < len(MANDATORY_TAGS) + extra:
        tag = random_tag(rng)
        if tag not in seen:
            seen.add(tag)
            tags.append(tag)
    return TagVocab(tuple(tags))


def random_distribution(rng: random.Random, vocab: TagVocab, n_tokens: int) -> TagDistribution:
    npr = np.random.RandomState(rng.randrange(2**32))
    rows = npr.exponential(size=(n_tokens + 1, len(vocab)))
    rows /= rows.sum(axis=1, keepdims=True)
    error_probs = npr.uniform(size=n_tokens + 1)
    return TagDistribution(vocab.sha256, rows, error_probs)


def as_batch(dists: list[TagDistribution]) -> TagDistribution:
    """One-sentence distributions' rows in order, each still a sentence of its own, as predict_batch returns them."""
    rows = np.concatenate([d.rows for d in dists])
    error_probs = np.concatenate([d.error_probs for d in dists])
    return TagDistribution(dists[0].vocab_id, rows, error_probs, sentence_bounds(d.positions - 1 for d in dists)[:-1])


def random_edit_list(rng: random.Random, source_len: int) -> list[EditSpan]:
    """A sorted, non-overlapping random edit list over a source of given length."""
    edits: list[EditSpan] = []
    pos = 0
    while pos <= source_len:
        if rng.random() < 0.35:
            end = min(source_len, pos + rng.randint(0, 2))
            repl = tuple(rng.choice(WORDS) for _ in range(rng.randint(0, 2)))
            if repl or end > pos:
                edits.append(EditSpan(pos, end, repl))
                pos = end + 1
                continue
        pos += 1
    return edits
