import re

import pytest

from gec_editkit import (
    ContractError,
    FormatError,
    InapplicableTransformError,
    Tag,
    TagKind,
    VerbLexicon,
    apply_transform,
    detect_transform,
)
from gec_editkit.tags import agreement_transform, case_transform, verb_transform
from gec_editkit.transforms import pluralize, singularize

# Independent oracle for the suffix rules: a hand-built inflection list.
HAND_INFLECTIONS = {
    "dog": "dogs",
    "cat": "cats",
    "box": "boxes",
    "church": "churches",
    "wish": "wishes",
    "glass": "glasses",
    "city": "cities",
    "lady": "ladies",
    "boy": "boys",
    "day": "days",
    "child": "children",
    "man": "men",
    "person": "people",
    "knife": "knives",
    "tooth": "teeth",
}


def test_case_transforms():
    assert apply_transform(case_transform("CAPITAL"), "he") == ("He",)
    assert apply_transform(case_transform("LOWER"), "HELLO") == ("hello",)
    assert apply_transform(case_transform("UPPER"), "usa") == ("USA",)
    assert apply_transform(case_transform("CAPITAL"), "He") == ("He",)


def test_pluralize_matches_hand_built_list():
    for singular, plural in HAND_INFLECTIONS.items():
        assert pluralize(singular) == plural


def test_singularize_inverts_hand_built_list():
    for singular, plural in HAND_INFLECTIONS.items():
        assert singularize(plural) == singular


def test_agreement_transform_examples():
    assert apply_transform(agreement_transform("PLURAL"), "dog") == ("dogs",)
    assert apply_transform(agreement_transform("SINGULAR"), "dogs") == ("dog",)
    assert apply_transform(agreement_transform("PLURAL"), "Dog") == ("Dogs",)
    assert apply_transform(agreement_transform("SINGULAR"), "Children") == ("Child",)


def test_singularize_inapplicable():
    with pytest.raises(InapplicableTransformError):
        singularize("dog")
    with pytest.raises(InapplicableTransformError):
        singularize("glass")


def test_split_hyphen():
    assert apply_transform(Tag(TagKind.SPLIT_HYPHEN), "well-known") == ("well", "known")
    assert apply_transform(Tag(TagKind.SPLIT_HYPHEN), "state-of-the-art") == ("state", "of", "the", "art")
    with pytest.raises(InapplicableTransformError):
        apply_transform(Tag(TagKind.SPLIT_HYPHEN), "plain")
    with pytest.raises(InapplicableTransformError):
        apply_transform(Tag(TagKind.SPLIT_HYPHEN), "-edge")


def test_merge():
    # MERGE spans two tokens, so only apply_tags applies it (test_decode.py)
    with pytest.raises(ContractError, match="not a transform tag"):
        apply_transform(Tag(TagKind.MERGE), "air")


def test_verb_transform_with_lexicon(lexicon):
    assert apply_transform(verb_transform("VB_VBZ"), "go", lexicon=lexicon) == ("goes",)
    assert apply_transform(verb_transform("VBZ_VB"), "goes", lexicon=lexicon) == ("go",)
    assert apply_transform(verb_transform("VBD_VBN"), "went", lexicon=lexicon) == ("gone",)
    with pytest.raises(InapplicableTransformError):
        apply_transform(verb_transform("VB_VBZ"), "notaverb", lexicon=lexicon)
    with pytest.raises(InapplicableTransformError):
        apply_transform(verb_transform("VB_VBZ"), "go", lexicon=None)


def test_detect_examples(lexicon):
    assert detect_transform("he", ("He",)) == case_transform("CAPITAL")
    assert detect_transform("dog", ("dogs",)) == agreement_transform("PLURAL")
    assert detect_transform("cat", ("house",)) is None
    assert detect_transform("went", ("gone",), lexicon) == verb_transform("VBD_VBN")
    assert detect_transform("well-known", ("well", "known")) == Tag(TagKind.SPLIT_HYPHEN)
    assert detect_transform("dog", ("dog",)) is None


def test_detect_priority_case_before_agreement():
    # "Dogs" -> "dogs" could be LOWER; case outranks agreement paths.
    assert detect_transform("Dogs", ("dogs",)) == case_transform("LOWER")


def test_detect_priority_agreement_before_verb(lexicon):
    # walk -> walks fits both the plural suffix rule and VB_VBZ.
    assert detect_transform("walk", ("walks",), lexicon) == agreement_transform("PLURAL")


def test_detect_apply_round_trip(lexicon):
    candidates = []
    for token in ("he", "USA", "Dog", "dogs", "child", "went", "goes", "try", "state-of-the-art"):
        for tag in (
            case_transform("CAPITAL"),
            case_transform("LOWER"),
            case_transform("UPPER"),
            agreement_transform("SINGULAR"),
            agreement_transform("PLURAL"),
            verb_transform("VB_VBZ"),
            verb_transform("VBZ_VBD"),
            verb_transform("VBD_VBN"),
            Tag(TagKind.SPLIT_HYPHEN),
        ):
            candidates.append((token, tag))
    checked = 0
    for token, tag in candidates:
        try:
            out = apply_transform(tag, token, lexicon=lexicon)
        except InapplicableTransformError:
            continue
        if out == (token,):
            continue  # no-op application, nothing to detect
        detected = detect_transform(token, out, lexicon)
        assert detected is not None, (token, tag, out)
        assert apply_transform(detected, token, lexicon=lexicon) == out
        checked += 1
    assert checked >= 15


def test_apply_transform_never_empty(lexicon):
    for token in ("a", "Dogs", "x-y", "went"):
        for tag in (
            case_transform("CAPITAL"),
            agreement_transform("PLURAL"),
            Tag(TagKind.SPLIT_HYPHEN),
            verb_transform("VBD_VBG"),
        ):
            try:
                out = apply_transform(tag, token, lexicon=lexicon)
            except InapplicableTransformError:
                continue
            assert len(out) >= 1


def test_lexicon_file_round_trip(tmp_path):
    path = tmp_path / "verbs.tsv"
    path.write_text("go\tVBZ\tgoes\ngo\tVBD\twent\n# comment\nsee\tVBZ\tsees\n", encoding="utf-8")
    lex = VerbLexicon.from_path(path)
    assert lex.inflect("go", "VBZ") == "goes"
    assert lex.inflect("go", "VB") == "go"
    assert lex.find_base("went", "VBD") == "go"
    assert lex.inflect("see", "VBD") is None


def test_lexicon_file_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("go\tVBZ\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        VerbLexicon.from_path(bad)
    assert exc.value.line == 1
    dup = tmp_path / "dup.tsv"
    dup.write_text("go\tVBZ\tgoes\ngo\tVBZ\tgoez\n", encoding="utf-8")
    with pytest.raises(FormatError):
        VerbLexicon.from_path(dup)


def test_lexicon_duplicate_is_reported_at_its_line(tmp_path):
    dup = tmp_path / "dup.tsv"
    dup.write_text("go\tVBZ\tgoes\nsee\tVBZ\tsees\ngo\tVBZ\tgoez\nbe\tVBZ\tis\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        VerbLexicon.from_path(dup)
    assert exc.value.line == 3
    assert str(exc.value).startswith(f"{dup}:3: duplicate lexicon entry")


@pytest.mark.parametrize("entry", ["go now\tVBZ\tgoes", "go\tVBZ\tgoes now", "go\tVBZ\tgo\u00a0es"])
def test_lexicon_file_refuses_whitespace_in_tokens(tmp_path, entry):
    path = tmp_path / "verbs.tsv"
    path.write_text(entry + "\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        VerbLexicon.from_path(path)
    assert exc.value.line == 1
    assert str(exc.value).startswith(f"{path}:1: token contains whitespace")


def test_lexicon_entries_refuse_whitespace_in_tokens():
    with pytest.raises(ContractError, match="whitespace"):
        VerbLexicon.from_entries([("go now", "VBZ", "goes")])
    with pytest.raises(ContractError, match="whitespace"):
        VerbLexicon.from_entries([("go", "VBZ", "goes now")])
    with pytest.raises(ContractError, match="empty token"):
        VerbLexicon.from_entries([("go", "VBZ", "")])


@pytest.mark.parametrize("key", ["V_Z", "V Z", "VB Z", ""])
def test_lexicon_entries_refuse_a_bad_form_key(key):
    with pytest.raises(ContractError, match=re.escape(f"bad form key {key!r}")):
        VerbLexicon.from_entries([("go", key, "went")])


def test_lexicon_file_refuses_a_bad_form_key_at_its_line(tmp_path):
    path = tmp_path / "verbs.tsv"
    path.write_text("go\tVBZ\tgoes\ngo\tV_Z\twent\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        VerbLexicon.from_path(path)
    assert exc.value.line == 2
    assert str(exc.value) == f"{path}:2: bad form key 'V_Z'"


def test_lexicon_reverse_lookup_prefers_smallest_base():
    lex = VerbLexicon.from_entries([("lie", "VBD", "lay"), ("lay", "VBD", "laid")])
    # "lay" is both a base and the VBD of "lie"; VB lookup resolves to the base.
    assert lex.find_base("lay", "VB") == "lay"
    assert lex.find_base("lay", "VBD") == "lie"


def test_bundled_lexicon_loads(lexicon):
    assert lexicon.inflect("walk", "VBZ") == "walks"
    assert len({base for base, _ in lexicon.forms}) >= 200
