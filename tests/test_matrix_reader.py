"""The matrix reader's number conversion against the numpy oracle, and forged headers."""

import json
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gec_editkit import matrix_io, read_matrix_file
from gec_editkit.errors import FormatError

import matrix_oracle

SHIPPED = matrix_io._float_array
MIN_NORMAL = 2.2250738585072014e-308

zeros = st.one_of(
    st.sampled_from([0.0, -0.0, 0, False, 5e-324, MIN_NORMAL]),
    st.floats(min_value=0.0, max_value=1e-9, allow_subnormal=True),
)
ones = st.sampled_from([1.0, 1, True, 1.0 - 1e-9, 0.99999999999999989])
leaves = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    st.booleans(),
    st.none(),
    st.floats(min_value=0.0, max_value=1.0).map(str),
    st.integers(min_value=0, max_value=1).map(str),
    st.text(max_size=3),
)
wild = st.recursive(leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=2), inner, max_size=2),
), max_leaves=6)
numbers = st.one_of(zeros, ones, leaves)


def sometimes_wild(draw, value):
    """``value``, or now and then anything JSON can hold in its place."""
    return draw(wild) if draw(st.integers(0, 39)) == 0 else value


def reshaped(draw, items, extra):
    """``items`` with one now and then dropped or ``extra`` added, or a non-list in their place."""
    change = draw(st.integers(0, 39))
    if change == 0 and items:
        del items[draw(st.integers(0, len(items) - 1))]
    elif change == 1:
        items.insert(draw(st.integers(0, len(items))), extra)
    elif change == 2:
        return draw(leaves)
    return items


def one_hot_row(draw, width):
    hot = draw(st.integers(0, width - 1))
    return [sometimes_wild(draw, draw(ones if i == hot else zeros)) for i in range(width)]


@st.composite
def records(draw):
    """A header width and a record's values, mostly valid, sometimes not."""
    width = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 4))
    rows = [reshaped(draw, one_hot_row(draw, width), draw(zeros)) for _ in range(n_rows)]
    rows = reshaped(draw, rows, one_hot_row(draw, width))
    error_probs = [sometimes_wild(draw, draw(st.one_of(zeros, ones, st.floats(0.0, 1.0)))) for _ in range(n_rows)]
    error_probs = reshaped(draw, error_probs, draw(zeros))
    return width, ["a", "b", "c"][: n_rows - 1], rows, error_probs


def outcome(call, *args):
    try:
        return call(*args)
    except FormatError as exc:
        return exc


def assert_same_bits(got, want, what):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape, what
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), what


def read(path, float_array):
    with mock.patch.object(matrix_io, "_float_array", float_array):
        return outcome(read_matrix_file, path)


@settings(max_examples=300, deadline=None)
@given(records())
def test_reader_accepts_and_converts_exactly_as_numpy(tmp_path_factory, record):
    width, tokens, rows, error_probs = record
    path = tmp_path_factory.mktemp("m") / "m.jsonl"
    header = {"format": "gec-editkit/matrix-v1", "vocab_sha256": "x", "vocab_size": width}
    body = json.dumps({"tokens": tokens, "rows": rows, "error_probs": error_probs})
    path.write_text(json.dumps(header) + "\n" + body + "\n", encoding="utf-8")
    want = read(path, matrix_oracle.float_array)
    got = read(path, SHIPPED)
    if isinstance(want, FormatError):
        assert isinstance(got, FormatError), (want, got)
        assert got.line == 2 and str(got).startswith(f"{path}:2: ")
    else:
        assert not isinstance(got, FormatError), (got, want)
        ((want_tokens, want_dist),) = want
        ((got_tokens, got_dist),) = got
        assert got_tokens == want_tokens
        assert_same_bits(got_dist.rows, want_dist.rows, "rows")
        assert_same_bits(got_dist.error_probs, want_dist.error_probs, "error_probs")


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.one_of(
        st.lists(st.lists(numbers, min_size=1, max_size=4), min_size=1, max_size=4),
        st.lists(numbers, min_size=1, max_size=4),
        wild,
    ),
)
def test_conversion_refuses_and_rounds_as_numpy(n_rows, width, values):
    """The conversion alone, also of values that TagDistribution goes on to refuse."""
    values = orjson.loads(json.dumps(values))
    for args in ((values, "rows", n_rows, width), (values, "error_probs", n_rows)):
        got, want = outcome(SHIPPED, *args), outcome(matrix_oracle.float_array, *args)
        if isinstance(got, FormatError):
            # The oracle leaves the length of error_probs to TagDistribution.
            assert isinstance(want, FormatError) or (args[1] == "error_probs" and want.shape != (n_rows,)), got
        else:
            assert_same_bits(got, want, args[1])


def test_conversion_keeps_the_bits_numpy_gives():
    for value in (-0.0, 5e-324, MIN_NORMAL / 3, 2**53 + 1, 2**64 - 1, -(2**63), True, 1.5):
        for other in (0.5, 1, False):
            got = SHIPPED([[value, other]], "rows", 1, 2)
            assert_same_bits(got, matrix_oracle.float_array([[value, other]], "rows", 1, 2), (value, other))


def test_forged_header_width_fails_as_a_format_error(tmp_path):
    path = tmp_path / "forged.jsonl"
    header = {"format": "gec-editkit/matrix-v1", "vocab_sha256": "x", "vocab_size": 2**62}
    record = {"tokens": ["a"], "rows": [[1.0], [1.0]], "error_probs": [0.0, 0.0]}
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="numbers") as exc:
        read_matrix_file(path)
    assert exc.value.line == 2
