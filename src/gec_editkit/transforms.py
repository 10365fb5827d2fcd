"""Applying edit tags: apply_tags and the token-general transforms.

apply_tags applies one tag per position to a sentence, for the decoder and
the encoder's passes alike, so this module owns what every tag does: MERGE,
the START rule and the fallback of an inapplicable transform to KEEP.  The
transforms (case, noun number, verb form, hyphen split) let frequent
corrections encode as one compact tag instead of a token-specific
replacement.  Noun number is rule-based (s/es/ies plus a small irregular
table); coverage gaps simply fall back to REPLACE tags upstream, which is
always correct.  Verb forms come from an explicit lexicon file so behavior
stays reproducible.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import read_lines
from .errors import ContractError, FormatError, InapplicableTransformError
from .spans import TokenSeq, validate_tokens
from .tags import (
    AGREEMENT_DIRECTIONS,
    CASE_VARIANTS,
    KEEP,
    START_KINDS,
    Tag,
    TagKind,
    agreement_transform,
    case_transform,
    is_form_key,
    verb_transform,
)

BASE_FORM_KEY = "VB"

_IRREGULAR_PLURAL = {
    "analysis": "analyses",
    "basis": "bases",
    "child": "children",
    "crisis": "crises",
    "criterion": "criteria",
    "datum": "data",
    "foot": "feet",
    "goose": "geese",
    "half": "halves",
    "index": "indices",
    "knife": "knives",
    "leaf": "leaves",
    "life": "lives",
    "louse": "lice",
    "man": "men",
    "matrix": "matrices",
    "medium": "media",
    "mouse": "mice",
    "ox": "oxen",
    "person": "people",
    "phenomenon": "phenomena",
    "shelf": "shelves",
    "thesis": "theses",
    "tooth": "teeth",
    "wife": "wives",
    "wolf": "wolves",
    "woman": "women",
}
_IRREGULAR_SINGULAR = {v: k for k, v in _IRREGULAR_PLURAL.items()}

_ES_ENDINGS = ("s", "x", "z", "ch", "sh")


def _match_case(template: str, word: str) -> str:
    if template.isupper() and len(template) > 1:
        return word.upper()
    if template[:1].isupper():
        return word[:1].upper() + word[1:]
    return word


def _apply_case(variant: str, token: str) -> str:
    if variant == "CAPITAL":
        return token[:1].upper() + token[1:]
    if variant == "LOWER":
        return token.lower()
    return token.upper()


def pluralize(token: str) -> str:
    """Rule-based plural; always produces something, correctness is rule-bound."""
    lower = token.lower()
    irregular = _IRREGULAR_PLURAL.get(lower)
    if irregular is not None:
        return _match_case(token, irregular)
    if lower.endswith(_ES_ENDINGS):
        return token + "es"
    if len(lower) >= 2 and lower.endswith("y") and lower[-2] not in "aeiou":
        return token[:-1] + "ies"
    return token + "s"


def singularize(token: str) -> str:
    """Rule-based singular; raises InapplicableTransformError when no rule fits."""
    lower = token.lower()
    irregular = _IRREGULAR_SINGULAR.get(lower)
    if irregular is not None:
        return _match_case(token, irregular)
    if lower.endswith("ies") and len(lower) > 4:
        return token[:-3] + "y"
    if lower.endswith("es") and lower[:-2].endswith(_ES_ENDINGS):
        return token[:-2]
    if lower.endswith("s") and not lower.endswith("ss") and len(lower) >= 2:
        return token[:-1]
    raise InapplicableTransformError(f"no singular rule applies to {token!r}")


@dataclass(frozen=True)
class VerbLexicon:
    """Verb paradigms: (base form, form key) -> inflected form.

    The base itself is addressable with the reserved key VB; file rows list
    the non-base forms.  Reverse lookups that hit two paradigms (e.g. a form
    shared by two bases) resolve to the lexicographically smallest base so
    everything downstream stays deterministic.
    """

    forms: dict[tuple[str, str], str]
    _by_form: dict[tuple[str, str], str] = field(init=False, repr=False)
    _keys_by_base: dict[str, tuple[str, ...]] = field(init=False, repr=False)
    _slots_by_form: dict[str, tuple[tuple[str, str], ...]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        by_form: dict[tuple[str, str], str] = {}
        keys_by_base: dict[str, set[str]] = {}
        for (base, key), form in self.forms.items():
            keys_by_base.setdefault(base, set()).add(key)
            rev = (form, key)
            if rev not in by_form or base < by_form[rev]:
                by_form[rev] = base
        for base in keys_by_base:
            keys_by_base[base].add(BASE_FORM_KEY)
            by_form.setdefault((base, BASE_FORM_KEY), base)
        slots: dict[str, list[tuple[str, str]]] = {}
        for (form, key), base in by_form.items():
            slots.setdefault(form, []).append((base, key))
        object.__setattr__(self, "_by_form", by_form)
        object.__setattr__(
            self, "_keys_by_base", {b: tuple(sorted(ks)) for b, ks in keys_by_base.items()}
        )
        object.__setattr__(
            self, "_slots_by_form", {f: tuple(sorted(ss)) for f, ss in slots.items()}
        )

    @classmethod
    def from_entries(cls, entries: Iterable[tuple[str, str, str]]) -> "VerbLexicon":
        forms: dict[tuple[str, str], str] = {}
        for base, key, form in entries:
            if not is_form_key(key):
                raise ContractError(f"bad form key {key!r}")
            validate_tokens((base, form))
            if key == BASE_FORM_KEY and form != base:
                raise ContractError(f"{BASE_FORM_KEY} entry for {base!r} must equal the base, got {form!r}")
            slot = (base, key)
            if slot in forms and forms[slot] != form:
                raise ContractError(f"duplicate lexicon entry for {slot}")
            forms[slot] = form
        return cls(forms)

    @classmethod
    def from_path(cls, path: str | Path) -> "VerbLexicon":
        """The lexicon of a ``base<TAB>form_key<TAB>inflected`` file; ``#`` starts a comment line."""
        with read_lines(path) as lines:
            return cls.from_entries(_lexicon_entry(line) for line in lines if line and not line.startswith("#"))

    @classmethod
    def bundled(cls) -> "VerbLexicon":
        """The small lexicon shipped with the package (a few hundred verbs)."""
        ref = importlib.resources.files("gec_editkit") / "resources" / "verb_forms.tsv"
        with importlib.resources.as_file(ref) as path:
            return cls.from_path(path)

    def inflect(self, base: str, key: str) -> str | None:
        if key == BASE_FORM_KEY:
            return base if base in self._keys_by_base else None
        return self.forms.get((base, key))

    def find_base(self, form: str, key: str) -> str | None:
        return self._by_form.get((form, key))

    def form_keys(self, base: str) -> tuple[str, ...]:
        return self._keys_by_base.get(base, ())

    def paradigm_slots(self, form: str) -> tuple[tuple[str, str], ...]:
        """All (base, key) pairs whose form equals ``form``, sorted."""
        return self._slots_by_form.get(form, ())


def _lexicon_entry(line: str) -> tuple[str, str, str]:
    parts = line.split("\t")
    if len(parts) != 3 or not all(parts):
        raise FormatError("expected base<TAB>form_key<TAB>inflected")
    base, key, form = parts
    return base, key, form


def _apply_verb(key_pair: str, token: str, lexicon: VerbLexicon | None) -> str:
    if lexicon is None:
        raise InapplicableTransformError("verb transform needs a lexicon")
    src_key, dst_key = key_pair.split("_")
    base = lexicon.find_base(token, src_key)
    if base is None:
        raise InapplicableTransformError(f"{token!r} is not a known {src_key} form")
    out = lexicon.inflect(base, dst_key)
    if out is None:
        raise InapplicableTransformError(f"no {dst_key} form of {base!r} in lexicon")
    return out


def apply_transform(tag: Tag, token: str, lexicon: VerbLexicon | None = None) -> tuple[str, ...]:
    """Rewrite ``token`` according to a transform tag.

    SPLIT_HYPHEN yields two or more tokens.  Raises InapplicableTransformError
    when the transform does not fit the token (apply_tags falls back to KEEP).
    """
    kind = tag.kind
    if kind is TagKind.TRANSFORM_CASE:
        return (_apply_case(tag.payload, token),)
    if kind is TagKind.TRANSFORM_AGREEMENT:
        if tag.payload == "PLURAL":
            return (pluralize(token),)
        return (singularize(token),)
    if kind is TagKind.TRANSFORM_VERB:
        return (_apply_verb(tag.payload, token, lexicon),)
    if kind is TagKind.SPLIT_HYPHEN:
        pieces = token.split("-")
        if len(pieces) < 2 or not all(pieces):
            raise InapplicableTransformError(f"{token!r} does not split on hyphens")
        return tuple(pieces)
    raise ContractError(f"not a transform tag: {tag}")


def apply_tags(tokens: Sequence[str], tags: Sequence[Tag], lexicon: VerbLexicon | None = None) -> TokenSeq:
    """Apply one tag per position ([START] + tokens) to the sentence.

    Transforms that turn out inapplicable fall back to KEEP, as does MERGE on
    the last token; a MERGE consumes the next token, whose own tag is ignored.
    UNKNOWN acts as KEEP.
    """
    toks = tuple(tokens)
    if len(tags) != len(toks) + 1:
        raise ContractError(f"{len(tags)} tags for {len(toks)} tokens (need tokens + 1)")
    start = tags[0]
    if start.kind not in START_KINDS:
        raise ContractError(f"START position cannot carry {start.kind.value}")
    out: list[str] = [start.payload] if start.kind is TagKind.APPEND else []
    skip_next = False
    for i, token in enumerate(toks):
        if skip_next:
            skip_next = False
            continue
        tag = tags[i + 1]
        if tag is KEEP:  # tags are interned: KEEP is the one tag of its kind
            out.append(token)
            continue
        kind = tag.kind
        if kind is TagKind.UNKNOWN:
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
            try:
                out.extend(apply_transform(tag, token, lexicon))
            except InapplicableTransformError:
                out.append(token)
    return tuple(out)


def detect_transform(
    src_token: str,
    tgt: tuple[str, ...],
    lexicon: VerbLexicon | None = None,
) -> Tag | None:
    """Find a transform tag whose application turns ``src_token`` into ``tgt``.

    Fixed priority: CASE > AGREEMENT > VERB > SPLIT_HYPHEN.  MERGE spans two
    source tokens and is out of detection range.  Returns None when nothing
    fits (callers use REPLACE instead).
    """
    if len(tgt) == 1:
        target = tgt[0]
        if target == src_token:
            return None
        for variant in CASE_VARIANTS:
            if _apply_case(variant, src_token) == target:
                return case_transform(variant)
        for direction in AGREEMENT_DIRECTIONS:
            try:
                done = pluralize(src_token) if direction == "PLURAL" else singularize(src_token)
            except InapplicableTransformError:
                continue
            if done == target:
                return agreement_transform(direction)
        if lexicon is not None:
            for base, src_key in lexicon.paradigm_slots(src_token):
                for dst_key in lexicon.form_keys(base):
                    if dst_key != src_key and lexicon.inflect(base, dst_key) == target:
                        return verb_transform(f"{src_key}_{dst_key}")
    elif len(tgt) >= 2:
        if "-" in src_token and tuple(src_token.split("-")) == tgt and all(tgt):
            return Tag(TagKind.SPLIT_HYPHEN)
    return None
