"""Token sequences, span edits, and simultaneous edit application."""

from __future__ import annotations

from itertools import islice
from operator import index
from typing import Iterable, NamedTuple, Sequence

from .errors import ContractError, EditOverlapError, SpanRangeError

TokenSeq = tuple[str, ...]

# Lines that are_tokens splits at once.
_CHECK_LINES = 64


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
    per-element loop only runs to name the first bad element.  A str is
    refused whole: iterating it would give its characters.
    """
    if isinstance(tokens, str):
        raise ContractError(f"expected a sequence of tokens, got the str {tokens!r}")
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


def are_tokens(pieces: Iterable[str], lines: Sequence[str]) -> bool:
    """Whether every one of ``pieces`` is a token, given that ``lines`` hold
    the pieces in order with whitespace between them (and perhaps around them).

    That holds exactly when splitting the lines at their whitespace gives the
    pieces back: every element of ``str.split()`` is a token, and tokens
    apart from each other by whitespace split apart again.  A reader that cut
    a whole file at single spaces, tabs and line ends checks all it cut this
    way, in C.  The lines are split _CHECK_LINES at a time, so the strings
    split off for the comparison stay few however long the file.
    """
    pieces = iter(pieces)
    for start in range(0, len(lines), _CHECK_LINES):
        words = "\n".join(lines[start : start + _CHECK_LINES]).split()
        if words != list(islice(pieces, len(words))):
            return False
    return next(pieces, None) is None


class EditSpan(NamedTuple("_EditSpanFields", [("start", int), ("end", int), ("replacement", TokenSeq)])):
    """Replace source tokens [start, end) with ``replacement``.

    start == end encodes a pure insertion (replacement must be non-empty);
    an empty replacement encodes a deletion.

    An immutable ``(start, end, replacement)`` tuple, hashed and compared in C.
    ``copy``, pickle (protocol 2 and up) and ``_make``/``_replace`` go through the checked constructor.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int, replacement: Iterable[str] = ()) -> EditSpan:
        replacement = validate_tokens(replacement)
        try:
            start, end = index(start), index(end)  # an int, bool or numpy integer, as a plain int
        except TypeError:
            raise ContractError(f"span bounds must be integers, got [{start!r}, {end!r})") from None
        return _span(start, end, replacement)

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> EditSpan:
        return cls(*iterable)

    @property
    def is_insertion(self) -> bool:
        return self.start == self.end

    def sort_key(self) -> tuple[int, int]:
        return (self.start, self.end)


def _span(start: int, end: int, replacement: TokenSeq) -> EditSpan:
    """EditSpan without the token and type checks, for int bounds and a
    replacement that validate_tokens returned: ``align`` and the M2 reader."""
    if start < 0 or end < start:
        raise ContractError(f"invalid span [{start}, {end})")
    if start == end and not replacement:
        raise ContractError(f"empty edit at point {start}: an insertion needs replacement tokens")
    return tuple.__new__(EditSpan, (start, end, replacement))


def edits_conflict(a: EditSpan, b: EditSpan) -> bool:
    """Whether two edits cannot apply together: they overlap, or both insert at one point."""
    return a.start < b.end and b.start < a.end or a.start == a.end == b.start == b.end


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
