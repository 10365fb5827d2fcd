"""The matrix file: the interoperability boundary for external taggers.

UTF-8 JSON lines.  The first line is a header object::

    {"format": "gec-editkit/matrix-v1", "vocab_sha256": "<hex>", "vocab_size": N}

Every following line is one sentence record::

    {"tokens": [...], "rows": [[...], ...], "error_probs": [...]}

Rows include the START position first, so there are len(tokens) + 1 of them.
A sentence has at most one record.  A record is valid when ``tokens`` is a
list of tokens (``spans.is_token``), ``rows`` holds len(tokens) + 1 lists of
exactly ``vocab_size`` numbers, and ``error_probs`` holds one number per row.
Every number must be a JSON number or boolean (no strings, numeric or not,
and no null) within [0, 1], and each row must sum to 1 within
tagger.CONSTRUCT_SUM_TOL.  The reader checks the shape of ``rows`` and
``error_probs`` first, then packs each row into float64 with one C-level
struct call, which refuses any other value and keeps every double's bits
(``true`` and ``false`` read as 1 and 0).  Every numeric check is left to
TagDistribution, so those run vectorised and only once.  The writer leaves
its in-memory records to TagDistribution.check_fits, the one check of
vocab, width and layout that the decoder and MatrixTagger use too, so a bad
record raises ContractError, as does a second record for the same tokens,
which the reader would refuse.

The reader parses each line with orjson, which is strict JSON: ``NaN`` and
``Infinity`` literals, lone surrogates such as ``"\\ud800"`` and numbers
outside double range are not JSON and fail as ``invalid JSON``.  Integers
beyond 64 bits read as floats and so fail the [0, 1] check.  The writer uses
json.dumps, whose repr float serialization round-trips doubles exactly, and
orjson reads them back bit-identically, so a write/read cycle is lossless.
"""

from __future__ import annotations

import json
import struct
from itertools import chain, starmap
from pathlib import Path
from typing import Iterable

import numpy as np
import orjson

from .corpus import read_lines, write_lines
from .errors import ContractError, EditKitError, FormatError
from .spans import TokenSeq, validate_tokens
from .tagger import TagDistribution
from .vocab import TagVocab

MATRIX_FORMAT = "gec-editkit/matrix-v1"

MatrixRecord = tuple[TokenSeq, TagDistribution]

# The Python types orjson.loads gives JSON values, lists aside.
_JSON_TYPES = {dict: "object", str: "string", int: "number", float: "number", bool: "boolean", type(None): "null"}


def write_matrix_file(path: str | Path, vocab: TagVocab, records: Iterable[MatrixRecord]) -> None:
    """Write ``records`` as a v1 matrix file; a bad or repeated record leaves ``path`` untouched."""
    header = {"format": MATRIX_FORMAT, "vocab_sha256": vocab.sha256, "vocab_size": len(vocab)}
    written: set[TokenSeq] = set()
    write_lines(
        path,
        chain([json.dumps(header)], (_record_line(vocab, tokens, dist, written) for tokens, dist in records)),
    )


def _record_line(vocab: TagVocab, tokens: TokenSeq, dist: TagDistribution, written: set[TokenSeq]) -> str:
    dist.check_fits(vocab, [len(tokens)], f"record for {' '.join(tokens)!r}")
    key = tuple(tokens)
    if key in written:
        raise ContractError(f"repeated record for {' '.join(key)!r}")
    written.add(key)
    return json.dumps({"tokens": list(tokens), "rows": dist.rows.tolist(), "error_probs": dist.error_probs.tolist()})


def read_matrix_file(path: str | Path, vocab: TagVocab | None = None) -> list[MatrixRecord]:
    """The (tokens, distribution) records of a v1 matrix file, validated as read.

    When ``vocab`` is given, the file's vocab hash must match it.  Any
    malformed record, or a second record for the same tokens, raises
    FormatError naming the file and line.
    """
    with read_lines(path) as lines:
        first = next(lines, None)
        if first is None:
            raise FormatError("empty matrix file: missing header")
        vocab_id, vocab_size = _parse_header(first, vocab)
        records: dict[TokenSeq, TagDistribution] = {}
        for line in lines:
            if line.strip():
                tokens, dist = _parse_record(line, vocab_id, vocab_size)
                if tokens in records:
                    raise FormatError(f"repeated record for {' '.join(tokens)!r}")
                records[tokens] = dist
        return list(records.items())


def _parse_header(line: str, vocab: TagVocab | None) -> tuple[str, int]:
    header = _parse_json(line)
    if header.get("format") != MATRIX_FORMAT:
        raise FormatError(f"expected format {MATRIX_FORMAT!r}, got {header.get('format')!r}")
    vocab_id = header.get("vocab_sha256")
    vocab_size = header.get("vocab_size")
    if not isinstance(vocab_id, str) or type(vocab_size) is not int or vocab_size < 1:
        raise FormatError("header needs a vocab_sha256 string and positive vocab_size")
    if vocab is not None:
        if vocab.sha256 != vocab_id:
            raise FormatError(f"file was produced for vocab {vocab_id[:12]}..., expected {vocab.sha256[:12]}...")
        if len(vocab) != vocab_size:
            raise FormatError(f"header vocab_size {vocab_size} != vocab size {len(vocab)}")
    return vocab_id, vocab_size


def _parse_json(line: str) -> dict:
    try:
        obj = orjson.loads(line)
    except orjson.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object")
    return obj


def _parse_record(line: str, vocab_id: str, vocab_size: int) -> MatrixRecord:
    obj = _parse_json(line)
    missing = {"tokens", "rows", "error_probs"} - obj.keys()
    if missing:
        raise FormatError(f"record is missing {sorted(missing)}")
    if not isinstance(obj["tokens"], list):
        raise FormatError("bad tokens: expected a JSON list of strings")
    try:
        tokens = validate_tokens(obj["tokens"])
    except EditKitError as exc:
        raise FormatError(f"bad tokens: {exc}") from None
    n_rows = len(tokens) + 1
    rows = _float_array(obj["rows"], "rows", n_rows, vocab_size)
    return tokens, TagDistribution(vocab_id, rows, _float_array(obj["error_probs"], "error_probs", n_rows))


def _float_array(values: object, what: str, n_rows: int, width: int | None = None) -> np.ndarray:
    """``values`` as float64: ``n_rows`` numbers, or ``n_rows`` rows of ``width`` numbers.

    The shape is checked first, then struct's ``d`` code packs each row in C:
    floats bit for bit, ints rounded to the nearest double and booleans as 0
    and 1.  Anything else (a string, numeric or not, null, a list or a dict)
    raises struct.error.  The format is compiled only after every row has
    matched ``width``, so a forged header width such as 2**62 fails as a
    shape error and never reaches struct.Struct.
    """
    if width is None:
        shape, rows, width, items = (n_rows,), [values], n_rows, "numbers, one per row"
    else:
        shape, rows, items = (n_rows, width), values, "rows ([START] + tokens)"
    if type(values) is not list or len(values) != n_rows:
        raise FormatError(f"{what} must be a list of {n_rows} {items}, got {_size(values)}")
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != width:
            raise FormatError(f"row {i} of {what} must be a list of {width} numbers (vocab size), got {_size(row)}")
    pack = struct.Struct(f"={width}d").pack
    try:
        data = b"".join(starmap(pack, rows))
    except struct.error:
        raise FormatError(f"{what} must hold only numbers") from None
    return np.frombuffer(data, dtype=np.float64).reshape(shape)


def _size(value: object) -> str:
    """The length of ``value`` if it is a list, else its JSON type."""
    return str(len(value)) if type(value) is list else f"a JSON {_JSON_TYPES[type(value)]}"
