import copy
import pickle
import random

import pytest

from gec_editkit import Tag, TagKind, TagParseError, format_tag, parse_tag
from gec_editkit.tags import KEEP, TagSeq, append, case_transform, replace

from gen import random_tag


def test_parse_basic_tags():
    assert parse_tag("$KEEP") == Tag(TagKind.KEEP)
    assert parse_tag("$REPLACE_goes") == replace("goes")
    assert parse_tag("$APPEND_the") == append("the")
    assert parse_tag("$DELETE") == Tag(TagKind.DELETE)
    assert parse_tag("$TRANSFORM_CASE_CAPITAL") == case_transform("CAPITAL")
    assert parse_tag("$TRANSFORM_VERB_VB_VBZ") == Tag(TagKind.TRANSFORM_VERB, "VB_VBZ")
    assert parse_tag("$MERGE") == Tag(TagKind.MERGE)
    assert parse_tag("$SPLIT_HYPHEN") == Tag(TagKind.SPLIT_HYPHEN)
    assert parse_tag("$UNKNOWN") == Tag(TagKind.UNKNOWN)


def test_format_basic_tags():
    assert format_tag(Tag(TagKind.KEEP)) == "$KEEP"
    assert format_tag(case_transform("CAPITAL")) == "$TRANSFORM_CASE_CAPITAL"
    assert format_tag(Tag(TagKind.DELETE)) == "$DELETE"
    assert format_tag(replace("goes")) == "$REPLACE_goes"


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "KEEP",
        "$KEEPX",
        "$APPEND_",
        "$APPEND_two words",
        "$REPLACE_",
        "$TRANSFORM_CASE_TITLE",
        "$TRANSFORM_AGREEMENT_DUAL",
        "$TRANSFORM_VERB_VBZ",
        "$TRANSFORM_VERB_A_B_C",
        "$SOMETHING_ELSE",
        "$TRANSFORM_CASE_",
        "$TRANSFORM_VERB_VB_",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(TagParseError) as exc:
        parse_tag(bad)
    if bad:
        assert bad in str(exc.value) or "tag" in str(exc.value)


def test_parse_format_round_trip_over_generated_tags():
    rng = random.Random(20240811)
    for _ in range(500):
        tag = random_tag(rng)
        assert parse_tag(format_tag(tag)) == tag


def test_payload_with_underscore_round_trips():
    tag = append("co_op")
    assert parse_tag(format_tag(tag)) == tag


def test_a_payload_may_spell_another_kind_prefix():
    # "$APPEND_" is the only prefix "$APPEND_TRANSFORM_CASE_X" starts with
    tag = parse_tag("$APPEND_TRANSFORM_CASE_X")
    assert tag == append("TRANSFORM_CASE_X")
    assert format_tag(tag) == "$APPEND_TRANSFORM_CASE_X"


def test_payload_validation():
    with pytest.raises(ValueError):
        Tag(TagKind.APPEND, "")
    with pytest.raises(ValueError):
        Tag(TagKind.REPLACE, "two words")
    with pytest.raises(ValueError):
        Tag(TagKind.KEEP, "payload")
    with pytest.raises(ValueError):
        Tag(TagKind.TRANSFORM_CASE, "SHOUTING")


def test_tagseq_start_position_rule():
    assert TagSeq([KEEP, KEEP]).all_keep
    assert not TagSeq([append("the"), KEEP]).all_keep
    with pytest.raises(ValueError):
        TagSeq([replace("x"), KEEP])
    with pytest.raises(ValueError):
        TagSeq([])


def test_equal_tags_hash_equal():
    rng = random.Random(20261019)
    for _ in range(500):
        tag = random_tag(rng)
        for twin in (Tag(tag.kind, tag.payload), parse_tag(format_tag(tag))):
            assert twin == tag and hash(twin) == hash(tag)
    assert len({Tag(TagKind.KEEP), KEEP, parse_tag("$KEEP")}) == 1
    assert all(hash(kind) == hash(TagKind(kind.value)) for kind in TagKind)


def test_a_fresh_keep_tag_is_the_keep_object():
    fresh = [Tag(TagKind.KEEP) for _ in range(3)]
    assert all(tag is KEEP for tag in fresh)
    assert TagSeq(fresh).all_keep
    assert TagSeq([KEEP, *fresh]).all_keep
    assert not TagSeq([*fresh, Tag(TagKind.DELETE)]).all_keep


def test_tags_are_interned():
    rng = random.Random(20261020)
    for _ in range(500):
        tag = random_tag(rng)
        made = Tag(tag.kind, tag.payload)
        assert made is tag
        assert parse_tag(format_tag(made)) is made
        assert copy.copy(made) is made
        assert copy.deepcopy(made) is made
        assert copy.deepcopy([made, made]) == [made, made]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(made, protocol)) is made


def test_tags_are_immutable():
    tag = append("the")
    with pytest.raises(AttributeError):
        tag.payload = "a"
    with pytest.raises(AttributeError):
        tag.kind = TagKind.REPLACE
    with pytest.raises(AttributeError):
        del tag.payload
    assert (tag.kind, tag.payload) == (TagKind.APPEND, "the")
    assert repr(tag) == "Tag(kind=<TagKind.APPEND: 'APPEND'>, payload='the')"


@pytest.mark.parametrize(
    "kind, payload, message",
    [
        (TagKind.KEEP, "x", "KEEP tag takes no payload, got 'x'"),
        (TagKind.DELETE, ["x"], "DELETE tag takes no payload, got ['x']"),
        (TagKind.APPEND, "two words", "APPEND payload must be a non-empty whitespace-free token, got 'two words'"),
        (TagKind.REPLACE, ["x"], "REPLACE payload must be a non-empty whitespace-free token, got ['x']"),
        (TagKind.APPEND, None, "APPEND payload must be a non-empty whitespace-free token, got None"),
        (TagKind.TRANSFORM_CASE, "TITLE", "case variant must be one of ('CAPITAL', 'LOWER', 'UPPER'), got 'TITLE'"),
        (TagKind.TRANSFORM_CASE, {"CAPITAL": 1}, "case variant must be one of ('CAPITAL', 'LOWER', 'UPPER'), got {'CAPITAL': 1}"),
        (TagKind.TRANSFORM_AGREEMENT, ["PLURAL"], "agreement direction must be one of ('SINGULAR', 'PLURAL'), got ['PLURAL']"),
        (TagKind.TRANSFORM_VERB, "VB", "verb payload must be a FROM_TO form-pair key of two non-empty parts, got 'VB'"),
        (TagKind.TRANSFORM_VERB, ["VB_VBZ"], "verb payload must be a FROM_TO form-pair key of two non-empty parts, got ['VB_VBZ']"),
    ],
)
def test_bad_and_unhashable_payloads_are_refused_every_time(kind, payload, message):
    for _ in range(2):  # a refused payload is not interned
        with pytest.raises(ValueError) as exc:
            Tag(kind, payload)
        assert str(exc.value) == message
