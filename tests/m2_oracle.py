"""The M2 reader as it was before it cached checked fields: the test oracle
for ``corpus.read_m2``.

It parses every ``A`` line field by field, with one ``_m2_int`` call per
integer and one ``_split_tokens`` call per replacement, and builds each edit
with ``M2Edit(...)``.  The shipped reader must give the same blocks, or fail
with the same ``FormatError`` message at the same line.
"""

from __future__ import annotations

from gec_editkit.corpus import M2Block, M2Edit, _split_tokens, read_lines
from gec_editkit.errors import FormatError
from gec_editkit.spans import _span

_NONE_FIELD = "-NONE-"
_REQUIRED_FIELD = "REQUIRED"
_NOOP_TYPE = "noop"


def read_m2(path):
    blocks = []
    source = None
    annotations = {}
    noop_seen = set()

    def close():
        nonlocal source, annotations, noop_seen
        if source is not None:
            blocks.append(M2Block(source, {a: tuple(es) for a, es in annotations.items()}))
        source = None
        annotations = {}
        noop_seen = set()

    with read_lines(path) as lines:
        for line in lines:
            if not line.strip():
                close()
                continue
            if line == "S" or line.startswith("S "):
                close()
                source = _split_tokens(line[2:])
                continue
            if line.startswith("A "):
                if source is None:
                    raise FormatError("A line before any S line")
                annotator, edit = _parse_a_line(line, len(source))
                if annotator in noop_seen or (edit is None and annotations.get(annotator)):
                    raise FormatError(f"annotator {annotator} mixes noop with other annotations")
                if edit is None:
                    noop_seen.add(annotator)
                    annotations.setdefault(annotator, [])
                else:
                    annotations.setdefault(annotator, []).append(edit)
                continue
            raise FormatError(f"unrecognized line {line[:40]!r}")
    close()
    return blocks


def _parse_a_line(line, source_len):
    fields = line[2:].split("|||")
    if len(fields) != 6:
        raise FormatError(f"A line needs 6 |||-separated fields, got {len(fields)}")
    span_field, edit_type, replacement_field, required, none_field, annotator_field = fields
    if required != _REQUIRED_FIELD or none_field != _NONE_FIELD:
        raise FormatError(f"fields 4-5 must be {_REQUIRED_FIELD}|||{_NONE_FIELD}")
    span_parts = span_field.split()
    if len(span_parts) != 2:
        raise FormatError(f"bad span {span_field!r}")
    start = _m2_int(span_parts[0], "span start")
    end = _m2_int(span_parts[1], "span end")
    annotator = _m2_int(annotator_field, "annotator")
    if annotator < 0:
        raise FormatError(f"negative annotator id {annotator}")
    if not edit_type or "|||" in edit_type:
        raise FormatError(f"bad edit type {edit_type!r}")
    if start == -1 and end == -1:
        if edit_type != _NOOP_TYPE or replacement_field != _NONE_FIELD:
            raise FormatError("a -1 -1 annotation must be noop|||-NONE-")
        return annotator, None
    if edit_type == _NOOP_TYPE:
        raise FormatError("noop must use the -1 -1 span")
    if not 0 <= start <= end <= source_len:
        raise FormatError(f"span [{start}, {end}) outside source of length {source_len}")
    replacement = () if replacement_field == _NONE_FIELD else _split_tokens(replacement_field)
    if _NONE_FIELD in replacement:
        raise FormatError(f"{_NONE_FIELD} marks a deletion on its own, not a token of {replacement_field!r}")
    return annotator, M2Edit(_span(start, end, replacement), edit_type)


def _m2_int(field, name):
    try:
        value = int(field)
    except ValueError:
        value = None
    if value is None or str(value) != field:
        raise FormatError(f"non-integer {name} {field!r}: expected a plain decimal such as 0 or -1")
    return value
