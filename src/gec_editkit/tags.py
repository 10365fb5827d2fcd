"""Edit tags and their canonical text syntax.

A tag is one per-token edit operation: keep, delete, append a token after
the current one, replace the current token, or a token-general transform
(case change, noun number, verb form, merge with the next token, split on
hyphens).  The canonical strings ($KEEP, $APPEND_the, ...) are what vocab
files and debug dumps contain.
"""

from __future__ import annotations

from enum import Enum

from .errors import TagParseError
from .spans import is_token

CASE_VARIANTS = ("CAPITAL", "LOWER", "UPPER")
AGREEMENT_DIRECTIONS = ("SINGULAR", "PLURAL")


class TagKind(Enum):
    KEEP = "KEEP"
    DELETE = "DELETE"
    APPEND = "APPEND"
    REPLACE = "REPLACE"
    TRANSFORM_CASE = "TRANSFORM_CASE"
    TRANSFORM_AGREEMENT = "TRANSFORM_AGREEMENT"
    TRANSFORM_VERB = "TRANSFORM_VERB"
    MERGE = "MERGE"
    SPLIT_HYPHEN = "SPLIT_HYPHEN"
    UNKNOWN = "UNKNOWN"

    # Members are singletons and compare by identity, so identity hashing
    # agrees with ==, and it runs in C where Enum.__hash__ is Python code.
    __hash__ = object.__hash__


# The kinds the START slot may carry (nothing precedes it).  A tuple: testing
# membership of an enum member is faster than in a frozenset, which hashes it.
START_KINDS = (TagKind.KEEP, TagKind.APPEND)

_PAYLOAD_FREE = frozenset({TagKind.KEEP, TagKind.DELETE, TagKind.MERGE, TagKind.SPLIT_HYPHEN, TagKind.UNKNOWN})


def is_form_key(text: object) -> bool:
    """Whether ``text`` is a verb form key such as VBZ: a token without "_"."""
    return is_token(text) and "_" not in text


def _check(kind: TagKind, payload: object) -> None:
    if kind in _PAYLOAD_FREE:
        if payload is not None:
            raise ValueError(f"{kind.value} tag takes no payload, got {payload!r}")
    elif kind in (TagKind.APPEND, TagKind.REPLACE):
        if not is_token(payload):
            raise ValueError(f"{kind.value} payload must be a non-empty whitespace-free token, got {payload!r}")
    elif kind is TagKind.TRANSFORM_CASE:
        if payload not in CASE_VARIANTS:
            raise ValueError(f"case variant must be one of {CASE_VARIANTS}, got {payload!r}")
    elif kind is TagKind.TRANSFORM_AGREEMENT:
        if payload not in AGREEMENT_DIRECTIONS:
            raise ValueError(f"agreement direction must be one of {AGREEMENT_DIRECTIONS}, got {payload!r}")
    elif kind is TagKind.TRANSFORM_VERB:  # two form keys joined by "_", such as VB_VBZ
        keys = payload.split("_") if isinstance(payload, str) else ()
        if len(keys) != 2 or not all(map(is_form_key, keys)):
            raise ValueError(f"verb payload must be a FROM_TO form-pair key of two non-empty parts, got {payload!r}")
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unhandled tag kind {kind!r}")


# Every tag made so far, by kind, then payload.  It holds one entry per
# distinct tag the process has met, which the distinct tokens of its corpora
# bound.
_INTERNED: dict[TagKind, dict[str | None, "Tag"]] = {kind: {} for kind in TagKind}


class Tag:
    """One edit operation.

    ``payload`` holds the appended/replacement token, the case variant, the
    agreement direction, or the verb form-pair key, depending on ``kind``.

    Tags are interned: ``Tag(kind, payload)`` checks a kind and payload the
    first time it meets them and returns that same object ever after, so
    equal tags are one object, and equality and hashing are identity, done
    in C.  The interned tag also carries its canonical string, ``text``,
    rendered once then, so format_tag and the vocab hash read it instead
    of rendering the tag again.  A tag is immutable, and copying or
    unpickling it gives it back.
    """

    __slots__ = ("kind", "payload", "text")
    kind: TagKind
    payload: str | None
    text: str

    def __new__(cls, kind: TagKind, payload: str | None = None) -> "Tag":
        try:
            return _INTERNED[kind][payload]
        except (KeyError, TypeError):  # new, or a kind or payload _check refuses
            _check(kind, payload)
        tag = object.__new__(cls)
        object.__setattr__(tag, "kind", kind)
        object.__setattr__(tag, "payload", payload)
        object.__setattr__(tag, "text", f"${kind.value}" if payload is None else f"${kind.value}_{payload}")
        return _INTERNED[kind].setdefault(payload, tag)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: tags are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: tags are immutable")

    def __reduce__(self) -> tuple[type, tuple[TagKind, str | None]]:
        return Tag, (self.kind, self.payload)

    def __repr__(self) -> str:
        return f"Tag(kind={self.kind!r}, payload={self.payload!r})"

    @property
    def is_keep(self) -> bool:
        return self.kind is TagKind.KEEP


KEEP = Tag(TagKind.KEEP)
DELETE = Tag(TagKind.DELETE)
MERGE = Tag(TagKind.MERGE)
SPLIT_HYPHEN = Tag(TagKind.SPLIT_HYPHEN)
UNKNOWN = Tag(TagKind.UNKNOWN)


def append(token: str) -> Tag:
    return Tag(TagKind.APPEND, token)


def replace(token: str) -> Tag:
    return Tag(TagKind.REPLACE, token)


def case_transform(variant: str) -> Tag:
    return Tag(TagKind.TRANSFORM_CASE, variant)


def agreement_transform(direction: str) -> Tag:
    return Tag(TagKind.TRANSFORM_AGREEMENT, direction)


def verb_transform(form_pair: str) -> Tag:
    return Tag(TagKind.TRANSFORM_VERB, form_pair)


def format_tag(tag: Tag) -> str:
    """The unique canonical string for ``tag`` (parse_tag inverse), rendered when it was interned."""
    return tag.text


_BARE = {f"${k.value}": Tag(k) for k in _PAYLOAD_FREE}
# No "$KIND_" prefix starts another, so at most one of these matches.
_PREFIXED = [(f"${k.value}_", k) for k in TagKind if k not in _PAYLOAD_FREE]


def parse_tag(text: str) -> Tag:
    """Parse a canonical tag string such as ``$REPLACE_goes``.

    Raises TagParseError naming the offending string when the input is not
    the canonical rendering of any tag.
    """
    if not text:
        raise TagParseError("empty tag string")
    bare = _BARE.get(text)
    if bare is not None:
        return bare
    for prefix, kind in _PREFIXED:
        if text.startswith(prefix):
            payload = text[len(prefix):]
            try:
                return Tag(kind, payload)
            except ValueError as exc:
                raise TagParseError(f"malformed tag {text!r}: {exc}") from None
    raise TagParseError(f"malformed tag {text!r}")


class TagSeq(tuple):
    """Tags aligned to [START] + tokens; index 0 is the sentinel START slot.

    START may only carry a tag of START_KINDS (KEEP or APPEND).
    """

    __slots__ = ()

    def __new__(cls, tags) -> "TagSeq":
        seq = super().__new__(cls, tags)
        if not seq:
            raise ValueError("a tag sequence has at least the START position")
        for tag in seq:
            if not isinstance(tag, Tag):
                raise TypeError(f"expected Tag, got {tag!r}")
        if seq[0].kind not in START_KINDS:
            raise ValueError(f"START position only carries KEEP or APPEND, got {format_tag(seq[0])}")
        return seq

    @property
    def all_keep(self) -> bool:
        return self.count(KEEP) == len(self)


def _tag_seq(tags) -> TagSeq:
    """TagSeq without the per-tag checks, for tags the caller built itself:
    interned Tags, with a START tag of START_KINDS by construction.  Only
    ``decode.select_batch`` (START masked to START_KINDS) and the encoder in
    ``align`` (KEEP and the tag constructors) call it."""
    return tuple.__new__(TagSeq, tags)
