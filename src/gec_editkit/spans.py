"""Token sequences, span edits, and simultaneous edit application."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ContractError, EditOverlapError, SpanRangeError

TokenSeq = tuple[str, ...]


def is_token(text: object) -> bool:
    """Whether ``text`` is a token: a non-empty str with no character for which str.isspace() holds."""
    return isinstance(text, str) and text.split() == [text]  # str.split() splits at exactly those characters


def validate_tokens(tokens: Iterable[str]) -> TokenSeq:
    """Check and freeze a token sequence.

    Every element must be a token (``is_token``); the sequence itself may be
    empty.  Tokenization is the caller's concern.

    Strings are all tokens exactly when joining them with spaces and splitting
    the result again gives them back: a whitespace character splits its
    element, and an empty element vanishes.  That one check runs in C; the
    per-element loop only runs to name the first bad element.
    """
    out = tuple(tokens)
    try:
        if tuple(" ".join(out).split()) == out:
            return out
    except TypeError:  # an element is not a str
        pass
    for tok in out:
        if not is_token(tok):
            if not isinstance(tok, str):
                raise ContractError(f"token must be str, got {tok!r}")
            raise ContractError(f"token contains whitespace: {tok!r}" if tok else "empty token")
    return out


@dataclass(frozen=True, slots=True)
class EditSpan:
    """Replace source tokens [start, end) with ``replacement``.

    start == end encodes a pure insertion (replacement must be non-empty);
    an empty replacement encodes a deletion.
    """

    start: int
    end: int
    replacement: TokenSeq = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "replacement", validate_tokens(self.replacement))
        if self.start < 0 or self.end < self.start:
            raise ContractError(f"invalid span [{self.start}, {self.end})")
        if self.start == self.end and not self.replacement:
            raise ContractError(f"empty edit at point {self.start}: an insertion needs replacement tokens")

    @property
    def is_insertion(self) -> bool:
        return self.start == self.end

    def sort_key(self) -> tuple[int, int]:
        return (self.start, self.end)


def edits_conflict(a: EditSpan, b: EditSpan) -> bool:
    """Whether two edits cannot apply together: they overlap, or both insert at one point."""
    lo, hi = (a, b) if a.sort_key() <= b.sort_key() else (b, a)
    return hi.start < lo.end or (a.is_insertion and b.is_insertion and a.start == b.start)


def _check_compatible(edits: Sequence[EditSpan]) -> list[EditSpan]:
    ordered = sorted(edits, key=EditSpan.sort_key)
    for prev, cur in zip(ordered, ordered[1:]):
        if edits_conflict(prev, cur):
            raise EditOverlapError(f"edits conflict (they overlap or insert at one point): {prev} and {cur}")
    return ordered


def apply_edits(source: Sequence[str], edits: Iterable[EditSpan]) -> TokenSeq:
    """Apply non-overlapping span edits to ``source`` as if simultaneously.

    The edit list may come in any order; any permutation of a valid list
    yields the same output.
    """
    src = tuple(source)
    ordered = _check_compatible(list(edits))
    for e in ordered:
        if e.end > len(src):
            raise SpanRangeError(f"edit {e} exceeds source length {len(src)}")
    out: list[str] = []
    cursor = 0
    for e in ordered:
        out.extend(src[cursor:e.start])
        out.extend(e.replacement)
        cursor = e.end
    out.extend(src[cursor:])
    return tuple(out)
