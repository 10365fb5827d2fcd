import copy
import os
import pickle
import random
import stat
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gec_editkit import (
    ContractError,
    EditSpan,
    FormatError,
    M2Block,
    M2Edit,
    build_vocab,
    filter_edit_free,
    read_m2,
    read_matrix_file,
    read_sentences,
    read_tsv_corpus,
    read_vocab_file,
    write_m2,
    write_matrix_file,
    write_sentences,
    write_tsv_corpus,
    write_vocab_file,
)
from gec_editkit import corpus
from gec_editkit.corpus import read_lines
from gec_editkit.tags import DELETE, KEEP

import m2_oracle
from gen import random_distribution, random_pair, random_tokens


def test_text_round_trip(tmp_path):
    rng = random.Random(1)
    sentences = [random_tokens(rng, max_len=12) for _ in range(40)]
    path = tmp_path / "c.txt"
    write_sentences(path, sentences)
    assert read_sentences(path) == sentences


def test_text_empty_line_is_empty_sentence(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b\n\nc\n", encoding="utf-8")
    assert read_sentences(path) == [("a", "b"), (), ("c",)]


def test_text_rejects_double_space(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a  b\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        read_sentences(path)
    assert exc.value.line == 1


def test_tsv_round_trip(tmp_path):
    rng = random.Random(2)
    pairs = [random_pair(rng, max_len=10) for _ in range(50)]
    pairs = [(s, t) for s, t in pairs if s or t]
    path = tmp_path / "c.tsv"
    write_tsv_corpus(path, pairs)
    assert read_tsv_corpus(path) == pairs


def test_tsv_errors(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("only one field\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        read_tsv_corpus(path)
    assert exc.value.line == 1
    path.write_text("a\tb\n\t\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        read_tsv_corpus(path)
    assert exc.value.line == 2


def test_filter_edit_free():
    same = (("a", "b"), ("a", "b"))
    diff = (("a",), ("b",))
    assert filter_edit_free([same, diff, same, diff]) == [diff, diff]
    assert filter_edit_free([same, same]) == []
    assert filter_edit_free([]) == []
    # idempotent
    once = filter_edit_free([same, diff])
    assert filter_edit_free(once) == once


def test_m2_spec_example(tmp_path):
    path = tmp_path / "g.m2"
    path.write_text(
        "S He go home\nA 1 2|||R:VERB|||goes|||REQUIRED|||-NONE-|||0\n\n", encoding="utf-8"
    )
    blocks = read_m2(path)
    assert len(blocks) == 1
    assert blocks[0].source == ("He", "go", "home")
    assert blocks[0].gold_edit_lists() == [[EditSpan(1, 2, ("goes",))]]
    assert blocks[0].annotations[0][0].type == "R:VERB"


def test_m2_noop(tmp_path):
    path = tmp_path / "g.m2"
    path.write_text(
        "S He go home\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n\n", encoding="utf-8"
    )
    blocks = read_m2(path)
    assert blocks[0].gold_edit_lists() == [[]]


def test_m2_deletion_and_insertion(tmp_path):
    path = tmp_path / "g.m2"
    path.write_text(
        "S a b c\n"
        "A 1 2|||U:DET|||-NONE-|||REQUIRED|||-NONE-|||0\n"
        "A 3 3|||M:PUNCT|||. .|||REQUIRED|||-NONE-|||1\n\n",
        encoding="utf-8",
    )
    blocks = read_m2(path)
    assert blocks[0].gold_edit_lists() == [
        [EditSpan(1, 2, ())],
        [EditSpan(3, 3, (".", "."))],
    ]


def test_m2_multi_block_and_blank_separation(tmp_path):
    path = tmp_path / "g.m2"
    path.write_text(
        "S a b\nA 0 1|||R:X|||c|||REQUIRED|||-NONE-|||0\n\nS d\n\nS e f\n", encoding="utf-8"
    )
    blocks = read_m2(path)
    assert [b.source for b in blocks] == [("a", "b"), ("d",), ("e", "f")]
    assert blocks[1].gold_edit_lists() == [[]]


def test_m2_object_round_trip(tmp_path):
    rng = random.Random(3)
    blocks = []
    for _ in range(30):
        source = random_tokens(rng, max_len=8)
        annotations = {}
        for annotator in range(rng.randint(0, 3)):
            if rng.random() < 0.25:
                annotations[annotator] = ()
                continue
            edits = []
            pos = 0
            while pos <= len(source):
                if rng.random() < 0.4:
                    end = min(len(source), pos + rng.randint(0, 2))
                    repl = tuple(rng.choice("uvw") for _ in range(rng.randint(0, 2)))
                    if repl or end > pos:
                        edits.append(M2Edit(EditSpan(pos, end, repl), rng.choice(("R:X", "M:Y", "U:Z"))))
                        pos = end + 1
                        continue
                pos += 1
            annotations[annotator] = tuple(edits)
        blocks.append(M2Block(source, annotations))
    path = tmp_path / "g.m2"
    write_m2(path, blocks)
    assert read_m2(path) == blocks


@pytest.mark.parametrize(
    "line, needle",
    [
        ("A 1 2|||R:X|||y|||REQUIRED|||-NONE-|||0", "A line before any S"),
        ("S a b\nA 1|||R:X|||y|||REQUIRED|||-NONE-|||0", "bad span"),
        ("S a b\nA 1 2|||R:X|||y|||OPTIONAL|||-NONE-|||0", "fields 4-5"),
        ("S a b\nA 1 2|||R:X|||y|||REQUIRED|||-NONE-|||x", "non-integer"),
        ("S a b\nA 0 5|||R:X|||y|||REQUIRED|||-NONE-|||0", "outside source"),
        ("S a b\nA 1 1|||M:X|||-NONE-|||REQUIRED|||-NONE-|||0", "insertion"),
        ("S a b\nA -1 -1|||R:X|||-NONE-|||REQUIRED|||-NONE-|||0", "noop"),
        ("S a b\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
         "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0", "mixes noop"),
        ("S a b\nwhat is this", "unrecognized"),
        ("S a b\nA 1 2|||noop|||y|||REQUIRED|||-NONE-|||0", "noop"),
        ("S a b\nA 1 2|||R:X|||x -NONE-|||REQUIRED|||-NONE-|||0", "-NONE- marks a deletion on its own"),
        ("S a b\nA 0 1|||R:X|||-NONE- x|||REQUIRED|||-NONE-|||0", "-NONE- marks a deletion on its own"),
    ],
)
def test_m2_malformed_lines_are_positioned_errors(tmp_path, line, needle):
    path = tmp_path / "bad.m2"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        read_m2(path)
    assert needle.lower() in str(exc.value).lower()
    assert exc.value.line is not None
    assert str(path) in str(exc.value)


def test_m2_empty_insertion_keeps_its_message_and_place(tmp_path):
    path = tmp_path / "bad.m2"
    path.write_text("S a b\nA 1 1|||M:X|||-NONE-|||REQUIRED|||-NONE-|||0\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        read_m2(path)
    assert str(exc.value) == f"{path}:2: empty edit at point 1: an insertion needs replacement tokens"


@st.composite
def m2_blocks(draw):
    """A block of 0-8 tokens whose 0-3 annotators each give a noop or 1-3 edits inside the source."""
    source = tuple(draw(st.lists(st.sampled_from(("a", "b", "café")), max_size=8)))
    annotations = {}
    for annotator in draw(st.sets(st.integers(0, 5), max_size=3)):
        edits = []
        for _ in range(draw(st.integers(0, 3))):
            start = draw(st.integers(0, len(source)))
            end = draw(st.integers(start, len(source)))
            repl = draw(st.lists(st.sampled_from(("x", "y", "ё")), min_size=int(start == end), max_size=2))
            edits.append(M2Edit(EditSpan(start, end, repl), draw(st.sampled_from(("R:X", "M:Y", "UNK")))))
        annotations[annotator] = tuple(edits)
    return M2Block(source, annotations)


@settings(max_examples=100, deadline=None)
@given(blocks=st.lists(m2_blocks(), max_size=4))
def test_m2_write_read_round_trip_property(blocks):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.m2"
        write_m2(path, blocks)
        back = read_m2(path)
    assert back == blocks
    for block in back:
        for edit in (edit for edits in block.annotations.values() for edit in edits):
            assert type(edit) is M2Edit and type(edit.span) is EditSpan
            assert edit.span == EditSpan(*edit.span)


def test_m2_edits_are_tuples_that_pickle_and_copy():
    edit = M2Edit(EditSpan(0, 1, ("x",)), "R:X")
    assert edit == (EditSpan(0, 1, ("x",)), "R:X") and M2Edit(EditSpan(0, 1)).type == "UNK"
    assert repr(edit) == "M2Edit(span=EditSpan(start=0, end=1, replacement=('x',)), type='R:X')"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(edit, protocol))
        assert back == edit and type(back) is M2Edit and type(back.span) is EditSpan
    assert copy.copy(edit) == copy.deepcopy(edit) == edit
    with pytest.raises(AttributeError):
        edit.type = "M:Y"


@pytest.mark.parametrize("write, records", [
    (write_sentences, ["abc"]),
    (write_tsv_corpus, [("ab", ("c",))]),
    (write_tsv_corpus, [(("a",), "cd")]),
    (write_m2, [M2Block("abc", {})]),
])
def test_writers_refuse_a_str_for_a_token_sequence(tmp_path, write, records):
    # Iterating a str gives its characters: "abc" would go out as "a b c".
    path = tmp_path / "out"
    with pytest.raises(ContractError, match="expected a sequence of tokens, got the str"):
        write(path, records)
    assert not path.exists()


@pytest.mark.parametrize(
    "a_line, field",
    [
        ("A 1_0 1_1|||R:X|||y|||REQUIRED|||-NONE-|||0", "span start"),
        ("A +1 2|||R:X|||y|||REQUIRED|||-NONE-|||0", "span start"),
        ("A 01 2|||R:X|||y|||REQUIRED|||-NONE-|||0", "span start"),
        ("A 1 \u0662|||R:X|||y|||REQUIRED|||-NONE-|||0", "span end"),
        ("A -1 -01|||noop|||-NONE-|||REQUIRED|||-NONE-|||0", "span end"),
        ("A 1 2|||R:X|||y|||REQUIRED|||-NONE-|||0 ", "annotator"),
        ("A 1 2|||R:X|||y|||REQUIRED|||-NONE-|||-0", "annotator"),
    ],
)
def test_m2_numbers_must_be_written_as_write_m2_writes_them(tmp_path, a_line, field):
    path = tmp_path / "odd.m2"
    path.write_text("S " + " ".join("abcdefghijkl") + "\n" + a_line + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=f"non-integer {field} ") as exc:
        read_m2(path)
    assert exc.value.line == 2


def test_unicode_round_trips(tmp_path):
    pairs = [(("café", "ёж"), ("café", "ежи")), (("日本語",), ("中文",))]
    tsv = tmp_path / "u.tsv"
    write_tsv_corpus(tsv, pairs)
    assert read_tsv_corpus(tsv) == pairs
    m2 = tmp_path / "u.m2"
    blocks = [M2Block(("café", "ёж"), {0: (M2Edit(EditSpan(1, 2, ("ежи",)), "R:NOUN"),)})]
    write_m2(m2, blocks)
    assert read_m2(m2) == blocks


def test_m2_write_rejects_unwritable_content(tmp_path):
    path = tmp_path / "out.m2"
    bad_type = M2Block(("a",), {0: (M2Edit(EditSpan(0, 1, ("x",)), "has|||bars"),)})
    with pytest.raises(ContractError):
        write_m2(path, [bad_type])
    reserved = M2Block(("a",), {0: (M2Edit(EditSpan(0, 1, ("-NONE-",)), "R:X"),)})
    with pytest.raises(ContractError):
        write_m2(path, [reserved])
    out_of_range = M2Block(("a",), {0: (M2Edit(EditSpan(0, 5, ("x",)), "R:X"),)})
    with pytest.raises(ContractError):
        write_m2(path, [out_of_range])


@pytest.mark.parametrize("edit_type", ["R\rX", "R\r\nX", "\r", "R\nX"])
def test_m2_write_refuses_an_edit_type_that_would_end_its_line(tmp_path, edit_type):
    # Text mode ends a line at "\r" as at "\n", so such a type would be
    # written and then split the A line when the file is read back.
    path = tmp_path / "out.m2"
    path.write_text("untouched\n", encoding="utf-8")
    block = M2Block(("a",), {0: (M2Edit(EditSpan(0, 1, ("c",)), edit_type),)})
    with pytest.raises(ContractError, match="unwritable edit type"):
        write_m2(path, [block])
    assert path.read_text(encoding="utf-8") == "untouched\n"
    assert os.listdir(tmp_path) == ["out.m2"]


def test_m2_write_refuses_an_edit_type_that_ends_with_a_bar(tmp_path):
    # "R|" then "|||c" would read back as type "R" and replacement "|c".
    path = tmp_path / "out.m2"
    path.write_text("untouched\n", encoding="utf-8")
    block = M2Block(("a",), {0: (M2Edit(EditSpan(0, 1, ("c",)), "R|"),)})
    with pytest.raises(ContractError, match="unwritable edit type 'R\\|'"):
        write_m2(path, [block])
    assert path.read_text(encoding="utf-8") == "untouched\n"
    assert os.listdir(tmp_path) == ["out.m2"]


def test_m2_write_refuses_a_last_replacement_token_that_ends_with_a_bar(tmp_path):
    # "c|" then "|||REQUIRED" would read back as fields "c" and "|REQUIRED".
    # A bar ending an earlier token is followed by a space, and one at the
    # start of a token follows a full "|||", so both are written as they are.
    path = tmp_path / "out.m2"
    path.write_text("untouched\n", encoding="utf-8")
    block = M2Block(("a", "b"), {0: (M2Edit(EditSpan(0, 1, ("x|", "c|")), "R"),)})
    with pytest.raises(ContractError, match="replacement token 'c\\|'"):
        write_m2(path, [block])
    assert path.read_text(encoding="utf-8") == "untouched\n"
    assert os.listdir(tmp_path) == ["out.m2"]
    fine = [M2Block(("a", "b"), {0: (M2Edit(EditSpan(0, 1, ("x|", "|c")), "|R"),)})]
    write_m2(path, fine)
    assert read_m2(path) == fine


# Malformed values for each field of a generated A line.
_BAD_M2_FIELDS = {
    "span": ["-1 -1", "2 1", "0 9", "-1 0", "01 1", "+0 1", "0", "0 1 2", "0  1", "0\t1", "a b", "٠ 1", ""],
    "type": ["noop", "", "R X"],
    "replacement": ["x -NONE-", "", "x  y", " x", "-NONE- -NONE-", "-NONE-"],
    "required": ["OPTIONAL", ""],
    "none": ["NONE", "-NONE- "],
    "annotator": ["-1", "00", "+1", "x", "", "1 ", "-0"],
}


@st.composite
def m2_a_lines(draw, source_len):
    """An A line for a source of ``source_len`` tokens: an edit or a noop, now and then with one field malformed."""
    if draw(st.integers(0, 7)) == 0:  # mostly by an annotator of its own
        annotator = draw(st.sampled_from("33332"))
        fields = {"span": "-1 -1", "type": "noop", "replacement": "-NONE-"}
    else:
        annotator = draw(st.sampled_from("0122"))
        # Now and then a span that fits the longest source, not this one:
        # a field met in one block must still be checked against the next.
        last = draw(st.sampled_from([source_len] * 5 + [4]))
        start = draw(st.integers(0, last))
        end = draw(st.integers(start, last))
        fields = {
            "span": f"{start} {end}",
            "type": draw(st.sampled_from(["R:VERB", "M:DET", "UNK"])),
            "replacement": draw(st.sampled_from(["x", "x y", "ё"] * 3 + ["-NONE-"])),
        }
    fields.update(required="REQUIRED", none="-NONE-", annotator=annotator)
    if draw(st.integers(0, 9)) == 0:
        name = draw(st.sampled_from(sorted(_BAD_M2_FIELDS)))
        fields[name] = draw(st.sampled_from(_BAD_M2_FIELDS[name]))
    order = ("span", "type", "replacement", "required", "none", "annotator")
    return "A " + "|||".join(fields[name] for name in order)


@st.composite
def m2_files(draw):
    """The lines of an M2 file: 0-4 blocks of 0-6 A lines, and now and then a stray line anywhere."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        source_len = draw(st.integers(0, 4))
        lines.append(" ".join(["S", *"abcd"[:source_len]]))
        lines += draw(st.lists(m2_a_lines(source_len), max_size=6))
        lines.append(draw(st.sampled_from(["", "", "", " "])))
    if draw(st.integers(0, 7)) == 0:
        stray = draw(st.sampled_from(["A", "Sa b", "X y", "A 0 1|||R|||x", "A 0 1|||R|||x|||REQUIRED|||-NONE-|||0|||"]))
        lines.insert(draw(st.integers(0, len(lines))), stray)
    return lines


def _m2_outcome(reader, path):
    try:
        return reader(path)
    except Exception as exc:  # the same error, type and text, is part of the contract
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(lines=m2_files())
# A line with two faults: the first the oracle meets is the one reported.
@example(lines=["S a b", "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0", "A 1 1|||M|||-NONE-|||REQUIRED|||-NONE-|||0"])
def test_m2_reader_equals_the_field_by_field_oracle(tmp_path_factory, lines):
    # The same blocks, or the same FormatError text at the same line, as the
    # reader that parsed every field of every A line afresh.
    path = tmp_path_factory.getbasetemp() / "oracle.m2"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert _m2_outcome(read_m2, path) == _m2_outcome(m2_oracle.read_m2, path)


def test_m2_fields_met_before_are_checked_against_each_block(tmp_path):
    # The span "0 3" passed in the first block; the second block is shorter.
    path = tmp_path / "g.m2"
    path.write_text(
        "S a b c\nA 0 3|||R|||x|||REQUIRED|||-NONE-|||0\n\n"
        "S a b\nA 0 3|||R|||x|||REQUIRED|||-NONE-|||0\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError) as exc:
        read_m2(path)
    assert str(exc.value) == f"{path}:5: span [0, 3) outside source of length 2"
    path.write_text(
        "S a b\nA 0 1|||R|||x|||REQUIRED|||-NONE-|||1\n\n"
        "S a b\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||1\nA 0 1|||R|||x|||REQUIRED|||-NONE-|||1\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError) as exc:
        read_m2(path)
    assert str(exc.value) == f"{path}:6: annotator 1 mixes noop with other annotations"


# Pieces of text that put every line-level and token-level rule of the plain
# and TSV readers to work: line ends of each kind, tabs, whitespace that is
# not a separator (vertical tab, NEL, line separator), doubled and edge
# spaces, and bytes that are not UTF-8 (a stray byte and a cut-off sequence).
_TEXT_PIECES = [
    b"a", b"bc", b"\xc3\xa9", b" ", b"  ", b"\t", b"\n", b"\n\n", b"\r", b"\r\n",
    b"\x0b", b"\xc2\x85", b"\xe2\x80\xa8", b"\xff", b"\xe2\x82",
]


def _per_line(path, parse):
    """The reader as a loop over lines, each parsed alone: the form the whole-file readers replaced."""
    with read_lines(path) as lines:
        return [parse(line) for line in lines]


def _outcome(read, path):
    try:
        return read(path)
    except FormatError as exc:
        return type(exc), str(exc), exc.line


@st.composite
def corpus_texts(draw):
    """Bytes of any mix of _TEXT_PIECES, or lines of tokens, so the readers' whole-file path returns too."""
    if draw(st.booleans()):
        return b"".join(draw(st.lists(st.sampled_from(_TEXT_PIECES), max_size=30)))
    side = st.lists(st.sampled_from(["a", "bc", "é"]), max_size=3).map(" ".join)
    sep = draw(st.sampled_from(["\t", " "]))  # TSV lines or, mostly, plain ones
    lines = draw(st.lists(st.tuples(side, side, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8))
    text = "".join(src + sep + tgt + end for src, tgt, end in lines)
    return (text if draw(st.booleans()) else text.rstrip("\r\n")).encode()


@settings(max_examples=300, deadline=None)
@given(data=corpus_texts())
@example(data=b"a bc\n\na\tbc")
@example(data=b"a\t\t\n")
@example(data=b"\t\n")
# A fault met before the decoder reaches a bad byte fails first: a cut-off
# sequence at the end, or a bad byte a few blocks of text further on.
@example(data=b" \n\xe2\x82")
@example(data=b"a  b\n" + b"a b\n" * 3000 + b"\xff\n")
def test_whole_file_readers_equal_the_per_line_parse(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("read") / "f"
    path.write_bytes(data)
    assert _outcome(read_sentences, path) == _outcome(lambda p: _per_line(p, corpus._split_tokens), path)
    assert _outcome(read_tsv_corpus, path) == _outcome(lambda p: _per_line(p, corpus._tsv_pair), path)


def test_non_utf8_byte_is_reported_at_its_line(tmp_path):
    # Text mode decodes ahead in blocks, so the line being read when decoding
    # fails lies well before the bad byte; the reported line must hold it.
    path = tmp_path / "c.txt"
    lines = [b"a b"] * 3000
    lines[2000] = b"a \xff b"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(FormatError, match="not UTF-8: byte 0xff") as exc:
        read_sentences(path)
    assert (exc.value.path, exc.value.line) == (str(path), 2001)


def test_non_utf8_line_numbers_follow_text_mode_line_ends(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"a\rb\r\nc\n\xc3\nd\n")
    with pytest.raises(FormatError) as exc:
        read_sentences(path)
    assert exc.value.line == 4
    path.write_bytes(b"a\nb\n\xe2\x82")
    with pytest.raises(FormatError, match="byte 0xe2") as exc:
        read_sentences(path)
    assert exc.value.line == 3


@pytest.mark.parametrize("read", [read_vocab_file, read_matrix_file], ids=["vocab", "matrix"])
def test_an_empty_file_fails_at_its_first_line(tmp_path, read):
    path = tmp_path / "empty"
    path.write_text("", encoding="utf-8")
    with pytest.raises(FormatError, match="missing") as exc:
        read(path)
    assert str(exc.value).startswith(f"{path}:1: ")


def test_past_the_end_only_an_empty_file_has_a_line(tmp_path):
    path = tmp_path / "f"
    for text, where in [("", f"{path}:1"), ("a\n", str(path))]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError) as exc, read_lines(path) as lines:
            list(lines)
            assert next(lines, None) is None  # reading on past the end keeps the position
            raise FormatError("no records")
        assert str(exc.value) == f"{where}: no records"


_VOCAB = build_vocab([(("He", "go"), ("He", "goes"))], 100)


def _write_vocab_tags(path, tags):
    # A TagVocab refuses a bad tag when it is built, so a stand-in carries one.
    write_vocab_file(path, SimpleNamespace(tags=tuple(tags)))


_rng = random.Random(7)
# (writer, a good record, another good record, a bad record, what the bad record raises)
WRITERS = [
    pytest.param(write_sentences, ("a", "b"), ("c",), ("bad tok",), ContractError, id="sentences"),
    pytest.param(write_tsv_corpus, (("a",), ("b",)), (("c",), ("d",)), ((), ()), ContractError, id="tsv"),
    pytest.param(
        write_m2,
        M2Block(("a", "b"), {0: (M2Edit(EditSpan(0, 1, ("c",))),)}),
        M2Block(("d",), {0: ()}),
        M2Block(("a",), {0: (M2Edit(EditSpan(0, 1, ("x|||y",))),)}),
        ContractError,
        id="m2",
    ),
    pytest.param(_write_vocab_tags, KEEP, DELETE, "$KEEP", AttributeError, id="vocab"),
    pytest.param(
        lambda path, records: write_matrix_file(path, _VOCAB, records),
        (("a",), random_distribution(_rng, _VOCAB, 1)),
        (("b", "c"), random_distribution(_rng, _VOCAB, 2)),
        (("one",), random_distribution(_rng, _VOCAB, 2)),
        ContractError,
        id="matrix",
    ),
]


@pytest.mark.parametrize("write, good, other, bad, error", WRITERS)
def test_a_failed_write_leaves_nothing_behind(tmp_path, write, good, other, bad, error):
    path = tmp_path / "out"
    with pytest.raises(error):
        write(path, [good, bad])
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("write, good, other, bad, error", WRITERS)
def test_a_failed_write_keeps_the_old_target(tmp_path, write, good, other, bad, error):
    path = tmp_path / "out"
    write(path, [good, other])
    before = path.read_bytes()
    with pytest.raises(error):
        write(path, [good, bad])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("write, good, other, bad, error", WRITERS)
def test_a_written_file_gets_the_mode_open_gives(tmp_path, write, good, other, bad, error):
    path = tmp_path / "out"
    write(path, [good])
    plain = tmp_path / "plain"
    open(plain, "w").close()
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
