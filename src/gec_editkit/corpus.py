"""Corpus file formats: plain text, parallel TSV, and the M2 subset.

Plain corpora are one sentence per line with single-space token separators.
Parallel corpora are ``source<TAB>target`` with the same tokenization.  The
M2 subset is the BEA-style interchange format: an ``S`` source line followed
by ``A`` annotator edit lines::

    S He go home
    A 1 2|||R:VERB|||goes|||REQUIRED|||-NONE-|||0

``-NONE-`` as replacement means deletion; ``A -1 -1|||noop|||...`` marks an
annotator who proposes no edits.  Edit types are carried through for
round-tripping but ignored by the scorer.

This module owns how every text file of the toolkit is read and written.
Inputs are UTF-8, read in text mode (so ``\r\n`` and ``\r`` end lines like
``\n``) through ``read_lines``, which also places every input error: a reader
parses its lines inside a ``read_lines`` block and raises its errors without a
position, and the block puts them at ``path:line`` of the line being parsed.
A byte that is not UTF-8 raises FormatError at the line that holds it.

The plain and TSV readers take a file whole: they read its text at once,
split it at line ends, tabs and spaces, and check every token with
``spans.are_tokens``, a few comparisons in C.  Only a file that fails a
check, or is not UTF-8 throughout, is parsed line by line
(``_split_tokens``, ``_tsv_pair``), to raise the fault a line-by-line reader
meets first, at its line.  The M2 and vocab readers parse line by line
throughout.

Outputs are written through ``write_lines``: to a temporary sibling, renamed
onto the target only on success, so a failed write leaves the target as it
was and nothing partial behind.  A new file gets the mode ``open(path, "w")``
would give it (0o666 less the umask).
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from .errors import ContractError, EditKitError, FormatError
from .spans import EditSpan, TokenSeq, _span, are_tokens, validate_tokens

Pair = tuple[TokenSeq, TokenSeq]
ParallelCorpus = list[Pair]

_NONE_FIELD = "-NONE-"
_REQUIRED_FIELD = "REQUIRED"
_NOOP_TYPE = "noop"
DEFAULT_EDIT_TYPE = "UNK"


@contextmanager
def atomic_output(path: str | Path) -> Iterator[Path]:
    """A new, empty sibling of ``path`` to write, renamed onto ``path`` on success.

    On any failure the temporary file is removed and ``path`` is left as it
    was, so a failed write leaves nothing partial behind.  The sibling is
    created with mode 0o666 less the umask, as ``open(path, "w")`` creates a
    new file, so the renamed target gets the usual mode.
    """
    final = Path(path)
    tmp = final.with_name(f"{final.name}.{os.urandom(8).hex()}.tmp")
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        yield tmp
        os.replace(tmp, final)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each of ``lines`` plus ``"\n"`` to ``path`` as UTF-8, atomically.

    ``lines`` may be a generator that validates as it goes: an error it
    raises leaves ``path`` as it was.
    """
    with atomic_output(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


class _Lines:
    """The lines of an open text file without "\n", numbering the current one.

    ``lineno`` is the number, from 1, of the line last returned; it is None
    before the first line and once the last has been read, but 1 once a file
    with no lines has been found empty (so a missing header sits at line 1).
    """

    def __init__(self, fh: TextIO):
        self._fh = fh
        self._numbered: Iterator[tuple[int, str]] = enumerate(fh, start=1)
        self.lineno: int | None = None
        self._ended = False

    def __iter__(self) -> "_Lines":
        return self

    def __next__(self) -> str:
        for self.lineno, line in self._numbered:
            return line.rstrip("\n")
        if not self._ended:
            self._ended = True
            self.lineno = None if self.lineno else 1
        raise StopIteration

    def read(self) -> list[str] | None:
        """Every line of the file at once, without "\n", before any line is read.

        Line ends are text mode's, so the lines are those iterating would
        give.  Iterating on walks the same lines again, numbered as if they
        had just been read one by one: a reader that finds a fault in the
        lines read at once parses them one by one to raise it at its line.
        A file that is not UTF-8 throughout gives None, and iterating reads
        it line by line from its start, so its lines and its undecodable
        byte fail in the order a reader going line by line meets them.
        """
        try:
            text = self._fh.read()
        except UnicodeDecodeError:
            self._fh.seek(0)
            return None
        lines = text.split("\n")
        if not lines[-1]:  # the end of the last line, or of an empty file
            lines.pop()
        self._numbered = enumerate(lines, start=1)
        return lines


@contextmanager
def read_lines(path: str | Path) -> Iterator[_Lines]:
    """The lines of a UTF-8 text file, for a ``with`` block that parses them.

    Lines end as in text mode.  An EditKitError raised in the block comes out
    as FormatError at ``path:line`` of the current line, at ``path:1`` once a
    file with no lines has been found empty, or at ``path`` alone once the
    last line of any other file has been read.  A byte that is not UTF-8
    raises FormatError naming the line that holds it.
    """
    with open(path, encoding="utf-8") as fh:
        lines = _Lines(fh)
        try:
            yield lines
        except UnicodeDecodeError as exc:
            message = f"not UTF-8: byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
            raise FormatError(message, path=str(path), line=_undecodable_line(path)) from None
        except EditKitError as exc:
            raise FormatError(str(exc), path=str(path), line=lines.lineno) from None


def _undecodable_line(path: str | Path) -> int | None:
    """The number of the first line holding a byte that is not UTF-8.

    Text mode decodes ahead in blocks, so the line being read when the decoder
    fails can lie well before the bad byte.  This rescans with each bad byte
    escaped to a lone surrogate, which strict UTF-8 never decodes to, keeping
    text mode's line ends and hence its line numbers.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return lineno
    return None


def _split_tokens(line: str) -> TokenSeq:
    return validate_tokens(line.split(" ")) if line else ()


def read_sentences(path: str | Path) -> list[TokenSeq]:
    with read_lines(path) as lines:
        rows = lines.read()
        if rows is not None:
            sentences = [tuple(row.split(" ")) if row else () for row in rows]
            if are_tokens(chain.from_iterable(sentences), rows):
                return sentences
        return [_split_tokens(line) for line in lines]


def write_sentences(path: str | Path, sentences: Iterable[Sequence[str]]) -> None:
    write_lines(path, (" ".join(validate_tokens(sent)) for sent in sentences))


def read_tsv_corpus(path: str | Path) -> ParallelCorpus:
    with read_lines(path) as lines:
        rows = lines.read()
        if rows is not None:
            sides = [row.split("\t") for row in rows]
            # Every line one tab, and no line that tab alone.
            if set(map(len, sides)) <= {2} and "\t" not in rows:
                pairs = [
                    (tuple(src.split(" ")) if src else (), tuple(tgt.split(" ")) if tgt else ()) for src, tgt in sides
                ]
                del sides  # the half lines, which the check has no use for
                if are_tokens(chain.from_iterable(chain.from_iterable(pairs)), rows):
                    return pairs
        return [_tsv_pair(line) for line in lines]


def _tsv_pair(line: str) -> Pair:
    parts = line.split("\t")
    if len(parts) != 2:
        raise FormatError(f"expected source<TAB>target, got {len(parts)} fields")
    source, target = _split_tokens(parts[0]), _split_tokens(parts[1])
    if not source and not target:
        raise FormatError("both sides empty")
    return source, target


def write_tsv_corpus(path: str | Path, pairs: Iterable[Pair]) -> None:
    write_lines(path, (_tsv_line(source, target) for source, target in pairs))


def _tsv_line(source: Sequence[str], target: Sequence[str]) -> str:
    src = validate_tokens(source)
    tgt = validate_tokens(target)
    if not src and not tgt:
        raise ContractError("refusing to write a pair with both sides empty")
    return " ".join(src) + "\t" + " ".join(tgt)


def filter_edit_free(pairs: Sequence[Pair]) -> ParallelCorpus:
    """Keep only pairs whose source and target differ (token-wise)."""
    return [(s, t) for s, t in pairs if s != t]


class M2Edit(NamedTuple):
    span: EditSpan
    type: str = DEFAULT_EDIT_TYPE


@dataclass(frozen=True)
class M2Block:
    """One M2 sentence: source tokens plus per-annotator edit lists.

    An annotator mapped to an empty tuple gave an explicit no-edit (noop)
    annotation; annotators absent from the mapping made no statement.
    """

    source: TokenSeq
    annotations: dict[int, tuple[M2Edit, ...]] = field(default_factory=dict)

    def gold_edit_lists(self) -> list[list[EditSpan]]:
        """Per-annotator edit spans ordered by annotator id.

        A block with no annotations counts as one annotator with no edits.
        """
        if not self.annotations:
            return [[]]
        return [[e.span for e in self.annotations[a]] for a in sorted(self.annotations)]


def read_m2(path: str | Path) -> list[M2Block]:
    """The blocks of an M2 file, each ``A`` line checked field by field.

    Gold files repeat the same spans, annotator ids and replacements many
    times, so each distinct field is parsed and checked once per file: a span
    field's bounds, an annotator field's id and a replacement field's tokens
    are kept once they have passed their checks, and a later line with the
    same field reuses them.  Checks that depend on the line's block (the span
    within the source, noop rules) run on every line.  Each edit is built
    with one ``tuple.__new__``, which is what ``M2Edit._make`` does after a
    Python-level call and a length check that two fields need not have.
    The file is read line by line, so no more of it is held than one block.
    """
    blocks: list[M2Block] = []
    source: TokenSeq | None = None
    annotations: dict[int, list[M2Edit]] = {}
    noop_seen: set[int] = set()
    # Fields that passed their checks, with what they parsed to.
    spans: dict[str, tuple[int, int]] = {}
    annotators: dict[str, int] = {}
    replacements: dict[str, TokenSeq] = {_NONE_FIELD: ()}

    def close() -> None:
        nonlocal source, annotations, noop_seen
        if source is not None:
            blocks.append(M2Block(source, {a: tuple(es) for a, es in annotations.items()}))
        source = None
        annotations = {}
        noop_seen = set()

    with read_lines(path) as lines:
        for line in lines:
            if line.startswith("A "):  # most lines: test it first
                if source is None:
                    raise FormatError("A line before any S line")
                fields = line[2:].split("|||")
                if len(fields) != 6:
                    raise FormatError(f"A line needs 6 |||-separated fields, got {len(fields)}")
                span_field, edit_type, replacement_field, required, none_field, annotator_field = fields
                if required != _REQUIRED_FIELD or none_field != _NONE_FIELD:
                    raise FormatError(f"fields 4-5 must be {_REQUIRED_FIELD}|||{_NONE_FIELD}")
                span = spans.get(span_field)
                if span is None:
                    span = spans[span_field] = _m2_span(span_field)
                start, end = span
                annotator = annotators.get(annotator_field)
                if annotator is None:
                    annotator = _m2_int(annotator_field, "annotator")
                    if annotator < 0:
                        raise FormatError(f"negative annotator id {annotator}")
                    annotators[annotator_field] = annotator
                if not edit_type:  # split at "|||", so it holds none
                    raise FormatError(f"bad edit type {edit_type!r}")
                if start == -1 and end == -1:
                    if edit_type != _NOOP_TYPE or replacement_field != _NONE_FIELD:
                        raise FormatError("a -1 -1 annotation must be noop|||-NONE-")
                    if annotations.get(annotator) or annotator in noop_seen:
                        raise FormatError(f"annotator {annotator} mixes noop with other annotations")
                    noop_seen.add(annotator)
                    annotations[annotator] = []
                    continue
                if edit_type == _NOOP_TYPE:
                    raise FormatError("noop must use the -1 -1 span")
                if not 0 <= start <= end <= len(source):
                    raise FormatError(f"span [{start}, {end}) outside source of length {len(source)}")
                replacement = replacements.get(replacement_field)
                if replacement is None:
                    replacement = replacements[replacement_field] = _m2_replacement(replacement_field)
                edit = tuple.__new__(M2Edit, (_span(start, end, replacement), edit_type))
                if annotator in noop_seen:
                    raise FormatError(f"annotator {annotator} mixes noop with other annotations")
                edits = annotations.get(annotator)
                if edits is None:
                    annotations[annotator] = [edit]
                else:
                    edits.append(edit)
                continue
            if not line.strip():
                close()
                continue
            if line == "S" or line.startswith("S "):
                close()
                source = _split_tokens(line[2:])
                continue
            raise FormatError(f"unrecognized line {line[:40]!r}")
    close()
    return blocks


def _m2_span(field: str) -> tuple[int, int]:
    """The ``(start, end)`` of an A line's span field, two ints as write_m2 writes them."""
    parts = field.split()
    if len(parts) != 2:
        raise FormatError(f"bad span {field!r}")
    return _m2_int(parts[0], "span start"), _m2_int(parts[1], "span end")


def _m2_replacement(field: str) -> TokenSeq:
    """The tokens of an A line's replacement field other than -NONE-."""
    replacement = _split_tokens(field)
    if _NONE_FIELD in replacement:
        raise FormatError(f"{_NONE_FIELD} marks a deletion on its own, not a token of {field!r}")
    return replacement


def _m2_int(field: str, name: str) -> int:
    """``field`` as an int, if written as write_m2 writes ints: ``str(n)`` exactly.

    int() alone would also take "+1", "1_0", " 1" and non-ASCII digits.
    """
    try:
        value = int(field)
    except ValueError:
        value = None
    if value is None or str(value) != field:
        raise FormatError(f"non-integer {name} {field!r}: expected a plain decimal such as 0 or -1")
    return value


def write_m2(path: str | Path, blocks: Iterable[M2Block]) -> None:
    """Write blocks in canonical order: annotators ascending, edits as stored."""
    write_lines(path, (line for block in blocks for line in _m2_lines(block)))


def _m2_lines(block: M2Block) -> Iterator[str]:
    tokens = validate_tokens(block.source)
    yield ("S " + " ".join(tokens)).rstrip()
    for annotator in sorted(block.annotations):
        edits = block.annotations[annotator]
        if not edits:
            yield f"A -1 -1|||{_NOOP_TYPE}|||{_NONE_FIELD}|||{_REQUIRED_FIELD}|||{_NONE_FIELD}|||{annotator}"
            continue
        for edit in edits:
            yield _format_a_line(edit, annotator, len(tokens))
    yield ""


def _format_a_line(edit: M2Edit, annotator: int, source_len: int) -> str:
    span = edit.span
    if span.end > source_len:
        raise ContractError(f"edit {span} exceeds source length {source_len}")
    # Text mode ends a line at "\r" as at "\n", so either would split the A line on reading.
    # A field that ends with "|" would make the "|||" after it start one
    # character early, inside the field, when the line is split on reading.
    if (not edit.type or edit.type == _NOOP_TYPE or "|||" in edit.type or edit.type.endswith("|")
            or "\n" in edit.type or "\r" in edit.type):
        raise ContractError(f"unwritable edit type {edit.type!r}")
    for tok in span.replacement:
        if "|||" in tok or tok == _NONE_FIELD:
            raise ContractError(f"replacement token {tok!r} cannot be written in M2")
    if span.replacement and span.replacement[-1].endswith("|"):
        raise ContractError(f"replacement token {span.replacement[-1]!r} cannot end an M2 replacement field")
    replacement = " ".join(span.replacement) if span.replacement else _NONE_FIELD
    return (
        f"A {span.start} {span.end}|||{edit.type}|||{replacement}"
        f"|||{_REQUIRED_FIELD}|||{_NONE_FIELD}|||{annotator}"
    )
