"""The compiled and pure-Python kernels must be interchangeable.

The compiled kernel is built with the package's own recipe,
``setup.py build_ext``, into a temporary directory (the ``compiled`` fixture
in ``conftest.py``), so the kernels are compared wherever a C compiler and
the interpreter headers exist.  Both are also checked against the plain DP in
``levenshtein_oracle``.
"""

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levenshtein_oracle
from gec_editkit import _levenshtein
from gec_editkit.align import alignment_backend


@st.composite
def id_pairs(draw):
    """Two id sequences of 0-200 ids over an alphabet of 1-8.

    Past 64 ids a column's bit vectors are wider than one machine word.
    """
    ids = st.integers(0, draw(st.integers(1, 8)) - 1)
    seq = st.integers(0, 200).flatmap(lambda k: st.lists(ids, min_size=k, max_size=k))
    return draw(seq), draw(seq)


@settings(max_examples=150, deadline=None)
@given(pair=id_pairs())
def test_kernel_equals_the_dp_oracle(kernel, pair):
    src, tgt = pair
    assert kernel.backtrace_ops(src, tgt) == levenshtein_oracle.backtrace_ops(src, tgt)


def random_ids(rng, max_len=40):
    return [rng.randrange(6) for _ in range(rng.randint(0, max_len))]


def test_op_constants_agree(compiled):
    assert (compiled.OP_MATCH, compiled.OP_SUBSTITUTE, compiled.OP_DELETE, compiled.OP_INSERT) == (
        _levenshtein.OP_MATCH,
        _levenshtein.OP_SUBSTITUTE,
        _levenshtein.OP_DELETE,
        _levenshtein.OP_INSERT,
    )


def test_backends_produce_identical_op_streams(compiled):
    rng = random.Random(424242)
    for _ in range(1500):
        src, tgt = random_ids(rng), random_ids(rng)
        assert compiled.backtrace_ops(src, tgt) == _levenshtein.backtrace_ops(src, tgt)


def test_backends_agree_on_edges(compiled):
    for src, tgt in [([], []), ([1], []), ([], [1]), ([1, 2, 3], [1, 2, 3]), ([1] * 50, [2] * 50)]:
        assert compiled.backtrace_ops(src, tgt) == _levenshtein.backtrace_ops(src, tgt)


@pytest.mark.parametrize(
    "src, tgt, error",
    [
        (["x"], [1], TypeError),
        ([1], [1.5], TypeError),
        (None, [1], TypeError),
        ([1], 7, TypeError),
        ([2**70], [1], OverflowError),
    ],
    ids=["str-id", "float-id", "none-source", "int-target", "huge-id"],
)
def test_compiled_kernel_rejects_bad_ids(compiled, src, tgt, error):
    with pytest.raises(error):
        compiled.backtrace_ops(src, tgt)


def test_compiled_kernel_checks_its_argument_count(compiled):
    with pytest.raises(TypeError):
        compiled.backtrace_ops([1])


def test_backend_follows_the_extension():
    try:
        importlib.import_module("gec_editkit._levenshtein_c")
    except ImportError:
        expected = "python"
    else:
        expected = "c"
    assert alignment_backend() == expected
