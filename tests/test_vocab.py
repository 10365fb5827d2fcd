import random
import re

import numpy as np
import pytest

from gec_editkit import (
    ContractError,
    FormatError,
    TagVocab,
    build_vocab,
    format_tag,
    parse_tag,
    read_vocab_file,
    write_vocab_file,
)
from gec_editkit import vocab as vocab_module
from gec_editkit.tags import (
    DELETE,
    KEEP,
    MERGE,
    SPLIT_HYPHEN,
    UNKNOWN,
    TagKind,
    agreement_transform,
    append,
    case_transform,
    replace,
    verb_transform,
)
from gec_editkit.vocab import count_edit_tags

from gen import random_pair, random_tag


def test_the_vocab_hash_is_pinned():
    # The hash of the tags' canonical strings, one a line: matrix files made
    # with a vocab name it, so it must not move when tags are rendered
    # differently.
    tags = (
        KEEP, DELETE, UNKNOWN, append("the"), replace("goes"), case_transform("CAPITAL"),
        agreement_transform("PLURAL"), verb_transform("VB_VBZ"), MERGE, SPLIT_HYPHEN, append("co_op"),
    )
    assert TagVocab(tags).sha256 == "0e90d1cc2fb24d127164f8c76bd4f1c300fed7a479f21461a1e447c4de9187c1"


def test_empty_corpus_gives_mandatory_tags():
    vocab = build_vocab([], 5000)
    assert vocab.tags == (KEEP, DELETE, UNKNOWN)


def test_identical_pairs_give_mandatory_tags():
    pairs = [(("a", "b"), ("a", "b"))] * 5
    assert build_vocab(pairs, 5000).tags == (KEEP, DELETE, UNKNOWN)


def test_frequency_cap_and_tie_break():
    # counts: REPLACE(a) x3, APPEND(b) x2, REPLACE(c) x1
    pairs = []
    pairs += [(("x",), ("a",))] * 3
    pairs += [(("b0", "q"), ("b0", "b", "q"))] * 2
    pairs += [(("y",), ("c",))]
    vocab = build_vocab(pairs, 5)
    assert vocab.tags == (KEEP, DELETE, UNKNOWN, replace("a"), append("b"))


def test_tie_break_is_lexicographic():
    pairs = [(("x",), ("b",)), (("y",), ("a",))]
    vocab = build_vocab(pairs, 4)
    assert vocab.tags[3] == replace("a")  # $REPLACE_a < $REPLACE_b at equal counts


def test_multipass_counting_sees_deep_insertions():
    # all three appends need separate passes; multi-pass counting sees each
    counts = count_edit_tags([((), ("a", "b", "c"))])
    assert counts[append("a")] == 1
    assert counts[append("b")] == 1
    assert counts[append("c")] == 1


def test_size_cap_contract():
    with pytest.raises(ContractError):
        build_vocab([], 2)


@pytest.mark.parametrize("size_cap", [10.5, 10.0, "10", None])
def test_size_cap_must_be_an_integer(size_cap):
    # 10.5 used to fail inside numpy with "slice indices must be integers".
    pairs = [(("He", "go"), ("He", "goes"))]
    with pytest.raises(ContractError, match=f"^size_cap must be an integer, got {re.escape(repr(size_cap))}$"):
        build_vocab(pairs, size_cap)
    assert build_vocab(pairs, np.int64(10)).sha256 == build_vocab(pairs, 10).sha256


def test_vocab_invariants():
    with pytest.raises(ContractError):
        TagVocab((DELETE, KEEP, UNKNOWN))  # KEEP must sit at index 0
    with pytest.raises(ContractError):
        TagVocab((KEEP, DELETE))  # UNKNOWN missing
    with pytest.raises(ContractError):
        TagVocab((KEEP, DELETE, UNKNOWN, DELETE))  # duplicate


def test_start_position_mask_is_a_fixed_read_only_array():
    vocab = TagVocab((KEEP, DELETE, UNKNOWN, append("the"), replace("a")))
    mask = vocab.start_position_mask()
    assert mask.dtype == np.bool_
    assert mask.tolist() == [t.kind in (TagKind.KEEP, TagKind.APPEND) for t in vocab.tags]
    assert vocab.start_position_mask() is mask
    with pytest.raises(ValueError):
        mask[1] = True


def test_index_of_maps_oov_to_unknown():
    vocab = build_vocab([], 10)
    assert vocab.index_of(KEEP) == 0
    assert vocab.index_of(replace("nope")) == vocab.unknown_index


def test_vocab_hash_stability():
    rng = random.Random(9)
    pairs = [random_pair(rng, max_len=10) for _ in range(40)]
    a = build_vocab(pairs, 50)
    b = build_vocab(list(pairs), 50)
    assert a.sha256 == b.sha256
    assert a.tags == b.tags
    c = build_vocab(pairs, 5)
    assert len(c.tags) < len(a.tags)
    assert c.sha256 != a.sha256


def test_vocab_file_round_trip(tmp_path):
    rng = random.Random(10)
    tags = [KEEP, DELETE, UNKNOWN]
    seen = set(tags)
    while len(tags) < 40:
        t = random_tag(rng)
        if t not in seen:
            seen.add(t)
            tags.append(t)
    vocab = TagVocab(tuple(tags))
    path = tmp_path / "v.txt"
    write_vocab_file(path, vocab)
    back = read_vocab_file(path)
    assert back.tags == vocab.tags
    assert back.sha256 == vocab.sha256
    text = path.read_text(encoding="utf-8").splitlines()
    assert text[0] == "gec-editkit/vocab-v1"
    assert parse_tag(text[1]) == KEEP


def test_vocab_file_errors(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("wrong header\n$KEEP\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        read_vocab_file(path)
    assert exc.value.line == 1
    path.write_text("gec-editkit/vocab-v1\n$KEEP\nnot a tag\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        read_vocab_file(path)
    assert exc.value.line == 3
    path.write_text("gec-editkit/vocab-v1\n$DELETE\n$KEEP\n$UNKNOWN\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        read_vocab_file(path)
    assert str(exc.value) == f"{path}:2: vocab must start with $KEEP, got $DELETE"


def test_vocab_file_refuses_a_repeated_tag_at_its_line(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("gec-editkit/vocab-v1\n$KEEP\n$DELETE\n$APPEND_the\n$UNKNOWN\n$APPEND_the\n$KEEP\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        read_vocab_file(path)
    assert exc.value.line == 6
    assert str(exc.value) == f"{path}:6: duplicate tag $APPEND_the, first at line 4"
    path.write_text("gec-editkit/vocab-v1\n$KEEP\n$DELETE\n$UNKNOWN\n$KEEP\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        read_vocab_file(path)
    assert str(exc.value) == f"{path}:5: duplicate tag $KEEP, first at line 2"


def test_vocab_file_tag_check_lets_bugs_raise(tmp_path, monkeypatch):
    path = tmp_path / "v.txt"
    write_vocab_file(path, build_vocab([], 10))

    def broken(text):
        raise RuntimeError("bug")

    monkeypatch.setattr(vocab_module, "parse_tag", broken)
    with pytest.raises(RuntimeError, match="bug"):
        read_vocab_file(path)


def test_format_tag_listing_matches_index_order():
    pairs = [(("He", "go"), ("He", "goes"))]
    vocab = build_vocab(pairs, 10)
    listed = [format_tag(t) for t in vocab.tags]
    assert listed[:3] == ["$KEEP", "$DELETE", "$UNKNOWN"]
    for i, tag in enumerate(vocab.tags):
        assert vocab.index[tag] == i


@pytest.mark.parametrize("entry", ["$APPEND_the", None, 3])
def test_vocab_entries_must_be_tags(entry):
    # The decoder builds tag sequences from vocab entries without checking them again.
    with pytest.raises(ContractError, match=re.escape(f"vocab entries must be Tags, got {entry!r}")):
        TagVocab((KEEP, DELETE, UNKNOWN, entry))


def test_vocab_tags_are_frozen_as_a_tuple():
    tags = [KEEP, DELETE, UNKNOWN, append("the")]
    vocab = TagVocab(tags)
    tags[3] = "$APPEND_the"
    assert vocab.tags == (KEEP, DELETE, UNKNOWN, append("the"))
