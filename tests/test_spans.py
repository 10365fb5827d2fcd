import copy
import dataclasses
import pickle
import random
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gec_editkit import ContractError, EditOverlapError, EditSpan, SpanRangeError, apply_edits
from gec_editkit.spans import edits_conflict, is_token, validate_tokens

from gen import random_edit_list, random_tokens


def test_single_substitution():
    assert apply_edits(("He", "go", "home"), [EditSpan(1, 2, ("goes",))]) == ("He", "goes", "home")


def test_single_insertion():
    assert apply_edits(("I", "like", "dog"), [EditSpan(2, 2, ("the",))]) == ("I", "like", "the", "dog")


def test_simultaneous_delete_and_replace():
    edits = [EditSpan(0, 1, ()), EditSpan(2, 3, ("d", "e"))]
    assert apply_edits(("a", "b", "c"), edits) == ("b", "d", "e")


def test_empty_edit_list_is_identity():
    rng = random.Random(7)
    for _ in range(50):
        src = random_tokens(rng, max_len=12)
        assert apply_edits(src, []) == src


def test_order_independence():
    rng = random.Random(13)
    for _ in range(200):
        src = random_tokens(rng, max_len=12)
        edits = random_edit_list(rng, len(src))
        expected = apply_edits(src, edits)
        shuffled = edits[:]
        rng.shuffle(shuffled)
        assert apply_edits(src, shuffled) == expected


def test_length_arithmetic():
    rng = random.Random(29)
    for _ in range(200):
        src = random_tokens(rng, max_len=12)
        edits = random_edit_list(rng, len(src))
        out = apply_edits(src, edits)
        delta = sum(len(e.replacement) - (e.end - e.start) for e in edits)
        assert len(out) == len(src) + delta


def test_overlapping_edits_rejected():
    with pytest.raises(EditOverlapError):
        apply_edits(("a", "b", "c"), [EditSpan(0, 2, ("x",)), EditSpan(1, 3, ("y",))])


def test_two_insertions_at_same_point_rejected():
    with pytest.raises(EditOverlapError):
        apply_edits(("a", "b"), [EditSpan(1, 1, ("x",)), EditSpan(1, 1, ("y",))])


def test_insertion_inside_span_rejected():
    with pytest.raises(EditOverlapError):
        apply_edits(("a", "b", "c"), [EditSpan(0, 2, ("x",)), EditSpan(1, 1, ("y",))])


SOURCE = ("a", "b", "c", "d")


@st.composite
def edits_in_source(draw):
    start = draw(st.integers(0, len(SOURCE)))
    end = draw(st.integers(start, len(SOURCE)))
    replacement = tuple(draw(st.lists(st.sampled_from(("x", "y")), min_size=int(start == end), max_size=2)))
    return EditSpan(start, end, replacement)


def claimed_slots(edit):
    """The token slots ``("token", k)`` and gap slots ``("gap", k)``, the gap before token k, that an edit claims.

    A span [s, e) with s < e claims the tokens s..e-1 and the gaps between
    them, s+1..e-1; an insertion at p claims the gap p alone.
    """
    if edit.start == edit.end:
        return {("gap", edit.start)}
    tokens = {("token", k) for k in range(edit.start, edit.end)}
    return tokens | {("gap", k) for k in range(edit.start + 1, edit.end)}


@given(edits_in_source(), edits_in_source())
def test_apply_edits_refuses_exactly_the_pairs_that_conflict(a, b):
    conflict = edits_conflict(a, b)
    assert edits_conflict(b, a) == conflict
    assert conflict == bool(claimed_slots(a) & claimed_slots(b))
    for pair in ([a, b], [b, a]):
        if conflict:
            with pytest.raises(EditOverlapError):
                apply_edits(SOURCE, pair)
        else:
            apply_edits(SOURCE, pair)


def test_insertion_at_span_boundaries_allowed():
    edits = [EditSpan(1, 1, ("x",)), EditSpan(1, 3, ("y",))]
    assert apply_edits(("a", "b", "c"), edits) == ("a", "x", "y")
    edits = [EditSpan(0, 1, ("y",)), EditSpan(1, 1, ("z",))]
    assert apply_edits(("a", "b"), edits) == ("y", "z", "b")


def test_out_of_bounds_rejected():
    with pytest.raises(SpanRangeError):
        apply_edits(("a",), [EditSpan(0, 2, ("x",))])


def test_edit_span_invariants():
    with pytest.raises(ContractError):
        EditSpan(2, 1, ("x",))
    with pytest.raises(ContractError):
        EditSpan(-1, 0, ("x",))
    with pytest.raises(ContractError):
        EditSpan(1, 1, ())  # empty insertion
    with pytest.raises(ContractError):
        EditSpan(0, 1, ("two words",))


def test_a_str_is_not_a_token_sequence():
    # Iterating a str gives its characters: "cat" would pass as ("c", "a", "t").
    for make in (validate_tokens, lambda text: EditSpan(0, 1, text)):
        with pytest.raises(ContractError, match="expected a sequence of tokens, got the str 'cat'"):
            make("cat")
    assert validate_tokens(["cat"]) == ("cat",)


@pytest.mark.parametrize("start, end", [(0.5, 1), (0, 1.0), (0, "1"), (None, 1), (0, np.float64(1))])
def test_span_bounds_must_be_integers(start, end):
    with pytest.raises(ContractError) as exc:
        EditSpan(start, end, ("x",))
    assert str(exc.value) == f"span bounds must be integers, got [{start!r}, {end!r})"


def test_integer_like_bounds_become_plain_ints():
    span = EditSpan(False, np.int64(2), ())
    assert span == EditSpan(0, 2) and type(span.start) is int and type(span.end) is int
    assert repr(span) == "EditSpan(start=0, end=2, replacement=())"


def test_a_span_is_the_tuple_of_its_fields():
    span = EditSpan(start=0, end=1, replacement=["x"])
    assert repr(span) == "EditSpan(start=0, end=1, replacement=('x',))"
    assert span == (0, 1, ("x",)) and hash(span) == hash((0, 1, ("x",)))
    assert tuple(span) == (0, 1, ("x",)) and len(span) == 3
    assert EditSpan(0, 1, ("x",)) < EditSpan(0, 1, ("y",)) < EditSpan(0, 2, ())
    assert not span.is_insertion and EditSpan(1, 1, ("x",)).is_insertion and span.sort_key() == (0, 1)
    with pytest.raises(AttributeError):
        span.start = 2
    with pytest.raises(TypeError):
        dataclasses.replace(span, start=1)
    # the namedtuple helpers go through the checks too
    assert span._replace(end=2) == EditSpan(0, 2, ("x",))
    with pytest.raises(ContractError, match=r"invalid span \[2, 1\)"):
        span._replace(start=2)
    with pytest.raises(ContractError, match="got the str"):
        EditSpan._make((0, 1, "xy"))


def test_spans_pickle_and_copy_through_the_checked_constructor():
    span = EditSpan(2, 2, ("a", "b"))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(span, protocol))
        assert back == span and type(back) is EditSpan
    assert copy.copy(span) == copy.deepcopy(span) == span
    # A span forged past the constructor does not survive a copy or a pickle.
    forged = tuple.__new__(EditSpan, (0.5, 1, ("x",)))
    with pytest.raises(ContractError):
        copy.copy(forged)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ContractError):
            pickle.loads(pickle.dumps(forged, protocol))


_SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


@given(st.text() | st.sampled_from(_SPACES) | st.tuples(st.text(), st.sampled_from(_SPACES), st.text()).map("".join))
def test_is_token_is_nonempty_and_free_of_isspace_characters(text):
    assert is_token(text) == (bool(text) and not any(ch.isspace() for ch in text))


def test_no_isspace_character_is_or_joins_a_token():
    for space in _SPACES:
        assert not any(map(is_token, (space, "a" + space + "b", space + "a", "a" + space))), hex(ord(space))
    assert is_token("a") and not is_token("") and not is_token(None) and not is_token(b"a")


def first_token_error(tokens):
    """The message for the first non-token in ``tokens``, checked one element at a time, or None."""
    for tok in tokens:
        if not isinstance(tok, str):
            return f"token must be str, got {tok!r}"
        if not is_token(tok):
            return f"token contains whitespace: {tok!r}" if tok else "empty token"
    return None


_ODD_ELEMENTS = ["\x1c", "\x85", "\u2028", "\u3000", "", "a b", "a\x1cb", "\u3000a", 7, None, b"a", ("a",)]


@given(st.lists(st.sampled_from(["a", "bc", "\u00e9"] + _ODD_ELEMENTS) | st.text(), max_size=6))
def test_validate_tokens_accepts_exactly_sequences_of_tokens(tokens):
    expected = first_token_error(tokens)
    if expected is None:
        assert all(map(is_token, tokens))
        assert validate_tokens(tokens) == validate_tokens(iter(tokens)) == tuple(tokens)
    else:
        with pytest.raises(ContractError) as exc:
            validate_tokens(tokens)
        assert str(exc.value) == expected


@pytest.mark.parametrize("bad", _ODD_ELEMENTS)
def test_validate_tokens_names_the_first_bad_element(bad):
    with pytest.raises(ContractError) as exc:
        validate_tokens(["a", bad, "b c", ""])
    assert str(exc.value) == first_token_error([bad])
