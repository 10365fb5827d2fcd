import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levenshtein_oracle
from gec_editkit import (
    EditSpan,
    align,
    apply_edits,
    apply_tags,
    build_vocab,
    encode_tags,
    extract_edits,
    extract_edits_batch,
    format_tag,
    train_baseline,
)
from gec_editkit import _levenshtein
from gec_editkit._levenshtein import OP_DELETE, OP_INSERT, OP_MATCH, OP_SUBSTITUTE, backtrace_ops
from gec_editkit.align import _runs, _runs_batch
from gec_editkit.errors import ContractError
from gec_editkit.tags import KEEP, TagKind, TagSeq
from gec_editkit.vocab import count_edit_tags

from gen import random_pair, random_tokens, transform_groups, transform_pair
from train_oracle import encode_passes


def brute_force_min_cost(source, target):
    """Exhaustive minimal edit cost; independent of the DP kernel."""

    def go(i, j):
        if i == len(source) and j == len(target):
            return 0
        best = len(source) + len(target) + 1
        if i < len(source) and j < len(target):
            step = 0 if source[i] == target[j] else 1
            best = min(best, step + go(i + 1, j + 1))
        if i < len(source):
            best = min(best, 1 + go(i + 1, j))
        if j < len(target):
            best = min(best, 1 + go(i, j + 1))
        return best

    return go(0, 0)


def align_codes(source, target):
    """The kernel's op codes for two token sequences."""
    return backtrace_ops(source, target)


def op_cost(codes):
    return sum(1 for code in codes if code != OP_MATCH)


def replay(codes, source, target):
    """Reconstruct both sequences from the op codes."""
    src_out, tgt_out = [], []
    i = j = 0
    for code in codes:
        if code in (OP_MATCH, OP_SUBSTITUTE):
            src_out.append(source[i])
            tgt_out.append(target[j])
            i += 1
            j += 1
        elif code == OP_DELETE:
            src_out.append(source[i])
            i += 1
        else:
            assert code == OP_INSERT
            tgt_out.append(target[j])
            j += 1
    return tuple(src_out), tuple(tgt_out)


def test_align_identical():
    assert align_codes(("a", "b"), ("a", "b")) == bytes([OP_MATCH, OP_MATCH])


def test_align_substitution():
    codes = align_codes(("He", "go"), ("He", "goes"))
    assert codes == bytes([OP_MATCH, OP_SUBSTITUTE])
    assert brute_force_min_cost(("He", "go"), ("He", "goes")) == op_cost(codes) == 1


def test_align_empty_source():
    assert align_codes((), ("x",)) == bytes([OP_INSERT])


def test_align_matches_brute_force_cost_on_small_inputs():
    rng = random.Random(101)
    for _ in range(300):
        src = random_tokens(rng, max_len=5)
        tgt = random_tokens(rng, max_len=5)
        codes = align_codes(src, tgt)
        assert op_cost(codes) == brute_force_min_cost(src, tgt)
        assert replay(codes, src, tgt) == (src, tgt)


def test_align_is_deterministic():
    rng = random.Random(17)
    for _ in range(50):
        src, tgt = random_pair(rng, max_len=12)
        assert align_codes(src, tgt) == align_codes(src, tgt)


def test_extract_edits_examples():
    assert extract_edits(("a", "b"), ("a", "b")) == []
    assert extract_edits(("He", "go", "to", "school"), ("He", "goes", "to", "school")) == [
        EditSpan(1, 2, ("goes",))
    ]
    assert extract_edits(("I", "like", "dog"), ("I", "like", "the", "dog")) == [EditSpan(2, 2, ("the",))]


def test_extract_edits_round_trip_property():
    rng = random.Random(23)
    for _ in range(500):
        src, tgt = random_pair(rng, max_len=20)
        edits = extract_edits(src, tgt)
        assert apply_edits(src, edits) == tgt


def test_extract_edits_disjoint_sorted_no_identity():
    rng = random.Random(31)
    for _ in range(500):
        src, tgt = random_pair(rng, max_len=20)
        edits = extract_edits(src, tgt)
        for prev, cur in zip(edits, edits[1:]):
            # runs are maximal, so a MATCH always separates two edits
            assert prev.end < cur.start
        for e in edits:
            assert e.replacement != src[e.start:e.end]


def test_batch_extraction_aligns_each_distinct_pair_once(monkeypatch):
    rng = random.Random(8)
    pool = [random_pair(rng, max_len=10) for _ in range(5)]
    pairs = [rng.choice(pool) for _ in range(30)]
    sources = [list(s) if i % 3 else s for i, (s, _) in enumerate(pairs)]
    targets = [t for _, t in pairs]
    expected = [extract_edits(s, t) for s, t in pairs]
    reversed_expected = [extract_edits(t, s) for s, t in pairs[:3]]
    aligned = []
    real = align._runs_batch

    def counting(batch):
        aligned.extend(batch)
        return real(batch)

    monkeypatch.setattr(align, "_runs_batch", counting)
    known = {}
    assert extract_edits_batch(sources, targets, known) == expected
    assert aligned == list(dict.fromkeys(pairs))
    # a second call with the same known pairs aligns none of them again
    assert extract_edits_batch(targets[:3], sources[:3], known) == reversed_expected
    assert extract_edits_batch(sources, targets, known) == expected
    assert len(aligned) == len(set(pairs) | {(t, s) for s, t in pairs[:3]})


def untrimmed_oracle_runs(source, target):
    """_runs read off the oracle's op stream for the whole pair, suffix included."""
    codes = levenshtein_oracle.backtrace_ops(source, target)
    runs = []
    i = j = 0
    start = -1
    for k, code in enumerate(codes):
        if code == OP_MATCH:
            if start >= 0:
                runs.append((src_start, i, tgt_start, j, codes[start:k]))
                start = -1
        elif start < 0:
            start, src_start, tgt_start = k, i, j
        i += code != OP_INSERT
        j += code != OP_DELETE
    if start >= 0:
        runs.append((src_start, i, tgt_start, j, codes[start:]))
    return runs


@st.composite
def pairs_with_a_shared_suffix(draw):
    """Two token sequences of 0-40 tokens over 1-3 words, each followed by one shared suffix of 0-40."""
    words = st.sampled_from("abc"[: draw(st.integers(1, 3))])
    part = st.lists(words, max_size=40).map(tuple)
    suffix = draw(part)
    return draw(part) + suffix, draw(part) + suffix


@settings(max_examples=200, deadline=None)
@given(pair=pairs_with_a_shared_suffix())
def test_trimming_the_common_suffix_changes_no_alignment(pair):
    source, target = pair
    with mock.patch.object(align, "_runs", untrimmed_oracle_runs):
        expected = (untrimmed_oracle_runs(source, target), extract_edits(source, target), encode_tags(source, target))
    assert (_runs(source, target), extract_edits(source, target), encode_tags(source, target)) == expected


@st.composite
def pairs_one_a_suffix_of_the_other(draw):
    """A 0-40-token sequence over 1-3 words and it with 0-40 tokens put in front, either way round."""
    words = st.sampled_from("abc"[: draw(st.integers(1, 3))])
    part = st.lists(words, max_size=40).map(tuple)
    short = draw(part)
    pair = (draw(part) + short, short)
    return pair if draw(st.booleans()) else pair[::-1]


@settings(max_examples=200, deadline=None)
@given(pair=pairs_one_a_suffix_of_the_other())
def test_an_empty_side_after_the_trim_needs_no_kernel(pair):
    source, target = pair
    expected = untrimmed_oracle_runs(source, target)
    calls = []
    real = _levenshtein.backtrace_ops_batch

    def counting(pairs):
        calls.extend(pairs)
        return real(pairs)

    with mock.patch.object(_levenshtein, "backtrace_ops_batch", counting):
        assert _runs(source, target) == expected
    assert calls == []


def mixed_batch(rng, lexicon):
    """Pairs of every kind a corpus batch holds, repeats included.

    Edited pairs, transform-prone ones, identical ones, pairs with an empty
    side or one side a suffix of the other, pairs that share a suffix, and
    sources past 64 tokens.
    """
    groups = transform_groups(lexicon)
    pairs = []
    for k in range(420):
        source, target = random_pair(rng, max_len=40)
        kind = k % 7
        if kind == 1:
            target = source
        elif kind == 2:
            source, target = rng.choice([((), target), (source, ())])
        elif kind == 3:
            target = source[rng.randint(0, len(source)):]
        elif kind == 4:
            suffix = random_tokens(rng, max_len=20)
            source, target = source + suffix, target + suffix
        elif kind == 5:
            source = random_tokens(rng, max_len=90, min_len=65)
            target = source[:30] + random_tokens(rng, max_len=5) + source[30:]
        elif kind == 6:
            source, target = transform_pair(rng, groups, lexicon, max_len=20)
        pairs.append((source, target))
    pairs += rng.sample(pairs, 100)
    rng.shuffle(pairs)
    return pairs


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_batch_entry_equals_aligning_pair_by_pair(lexicon, seed):
    pairs = mixed_batch(random.Random(seed), lexicon)
    sources = [list(source) for source, _ in pairs]
    targets = [target for _, target in pairs]
    laned = []
    real = _levenshtein._align_lanes

    def counting(lanes):
        laned.append(len(lanes))
        return real(lanes)

    with mock.patch.object(_levenshtein, "_align_lanes", counting):
        # One pair at a time is below BATCH_MIN, so each goes to the per-pair kernel.
        runs = [_runs(source, target) for source, target in pairs]
        edits = [extract_edits(source, target) for source, target in pairs]
        tags = [encode_tags(source, target, lexicon) for source, target in pairs]
        assert laned == []
        assert runs == [untrimmed_oracle_runs(source, target) for source, target in pairs]
        assert list(_runs_batch(pairs)) == runs
        assert extract_edits_batch(sources, targets) == edits
        assert align.encode_tags_batch(zip(sources, targets), lexicon) == tags
    # The batches are large enough for the batch pass.
    assert len(laned) >= 3


class _Forgetful(dict):
    """A substitution memo that never remembers, so every substitution goes through detect_transform."""

    def __setitem__(self, key, value):
        pass


@pytest.mark.parametrize("with_lexicon", [False, True])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_batch_transform_memo_changes_no_tag(lexicon, with_lexicon, seed):
    lex = lexicon if with_lexicon else None
    pairs = mixed_batch(random.Random(seed), lexicon)
    detected = []
    real = align.detect_transform

    def counting(token, replacement, lexicon):
        detected.append((token, replacement))
        return real(token, replacement, lexicon)

    with mock.patch.object(align, "detect_transform", counting):
        tags = align.encode_tags_batch(pairs, lex)
        # Each distinct substitution is detected once in the whole batch.
        assert detected and len(detected) == len(set(detected))
        memoless = [align._tags(s, t, _runs(s, t), lex, _Forgetful()) for s, t in pairs]
    assert tags == memoless
    assert all(type(seq) is TagSeq and TagSeq(list(seq)) == seq for seq in tags)
    assert len(detected) > 2 * len(set(detected))
    transforms = {tag.kind for seq in tags for tag in seq} & {TagKind.TRANSFORM_CASE, TagKind.TRANSFORM_VERB}
    assert transforms == ({TagKind.TRANSFORM_CASE, TagKind.TRANSFORM_VERB} if with_lexicon else {TagKind.TRANSFORM_CASE})


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_extracted_span_passes_the_checked_constructor(lexicon, seed):
    pairs = mixed_batch(random.Random(seed), lexicon)
    edits = extract_edits_batch([source for source, _ in pairs], [target for _, target in pairs])
    for span in (span for spans in edits for span in spans):
        assert type(span) is EditSpan and type(span.start) is int and type(span.end) is int
        assert span == EditSpan(*span)


@pytest.mark.parametrize("source, target, message", [
    (("a",), ("b c",), "token contains whitespace: 'b c'"),
    (("a b", "x"), ("a b", "y"), "token contains whitespace: 'a b'"),  # the bad token is matched, not edited
    (("a",), ("", "b"), "empty token"),
])
def test_extraction_refuses_a_target_that_is_not_tokens(source, target, message):
    for extract in (extract_edits, lambda s, t: extract_edits_batch([s], [t])):
        with pytest.raises(ContractError) as exc:
            extract(source, target)
        assert str(exc.value) == message


def test_batch_extraction_refuses_unequal_lengths():
    with pytest.raises(ContractError, match="2 sources but 1 targets"):
        extract_edits_batch([("a", "b"), ("c",)], [("a", "x")])
    with pytest.raises(ContractError, match="0 sources but 1 targets"):
        extract_edits_batch([], [("a",)])


def test_the_common_prefix_is_aligned_not_trimmed():
    # Trimming the shared "a" too would change the edits: the backtrace meets
    # the prefix last, and here it matches the source's "a" to the second one.
    assert extract_edits(("a", "x"), ("a", "a", "y")) == [EditSpan(0, 0, ("a",)), EditSpan(1, 2, ("y",))]
    assert extract_edits(("x",), ("a", "y")) == [EditSpan(0, 1, ("a", "y"))]


def test_encode_identity_is_all_keep():
    tags = encode_tags(("a", "b"), ("a", "b"))
    assert tags.all_keep
    assert len(tags) == 3


def test_encode_substitution():
    tags = encode_tags(("He", "go"), ("He", "goes"))
    assert [format_tag(t) for t in tags] == ["$KEEP", "$KEEP", "$REPLACE_goes"]


def test_encode_two_pass_insertions():
    source, target = ("I", "cats"), ("I", "like", "black", "cats")
    tags = encode_tags(source, target)
    assert [format_tag(t) for t in tags] == ["$KEEP", "$APPEND_like", "$KEEP"]
    step2 = apply_tags(source, tags)
    assert step2 == ("I", "like", "cats")
    tags2 = encode_tags(step2, target)
    assert [format_tag(t) for t in tags2] == ["$KEEP", "$KEEP", "$APPEND_black", "$KEEP"]
    assert apply_tags(step2, tags2) == target


def test_encode_prefers_transforms(lexicon):
    tags = encode_tags(("he", "is"), ("He", "is"))
    assert format_tag(tags[1]) == "$TRANSFORM_CASE_CAPITAL"
    tags = encode_tags(("the", "dog", "run"), ("the", "dogs", "run"))
    assert format_tag(tags[2]) == "$TRANSFORM_AGREEMENT_PLURAL"
    tags = encode_tags(("she", "whispered"), ("she", "whispering"), lexicon)
    assert format_tag(tags[2]) == "$TRANSFORM_VERB_VBD_VBG"
    tags = encode_tags(("a", "well-known", "fact"), ("a", "well", "known", "fact"))
    assert format_tag(tags[2]) == "$SPLIT_HYPHEN"


def test_encode_progress_and_length():
    rng = random.Random(47)
    for _ in range(300):
        src, tgt = random_pair(rng, max_len=15)
        tags = encode_tags(src, tgt)
        assert len(tags) == len(src) + 1
        if src == tgt:
            assert tags.all_keep
        else:
            assert not tags.all_keep


def iterate_to_target(source, target, lexicon=None):
    cur = tuple(source)
    passes = 0
    while cur != tuple(target):
        tags = encode_tags(cur, target, lexicon)
        nxt = apply_tags(cur, tags, lexicon)
        passes += 1
        assert nxt != cur, f"stalled at {cur} toward {target}"
        cur = nxt
        assert passes <= len(target) + 1, f"no convergence for {source} -> {target}"
    return passes


def test_convergence_property(lexicon):
    rng = random.Random(59)
    for _ in range(400):
        src, tgt = random_pair(rng, max_len=15)
        iterate_to_target(src, tgt)
        # the all-KEEP fixed point happens exactly at equality
        assert encode_tags(tgt, tgt).all_keep
    # transform-prone pairs (case, number, verb form, hyphen splits, merges)
    # encoded with the bundled lexicon converge within the same bound
    groups = transform_groups(lexicon)
    for _ in range(400):
        src, tgt = transform_pair(rng, groups, lexicon)
        iterate_to_target(src, tgt, lexicon)
        assert encode_tags(tgt, tgt, lexicon).all_keep


def test_convergence_from_empty():
    assert iterate_to_target((), ("a", "b", "c", "d")) == 4


def test_multitoken_substitution_defers_to_later_passes():
    # one source token -> three target tokens
    passes = iterate_to_target(("abc",), ("x", "y", "z"))
    assert passes <= 4


def test_encode_passes_walk_from_source_to_target():
    rng = random.Random(61)
    for _ in range(300):
        src, tgt = random_pair(rng, max_len=15)
        passes = list(encode_passes(src, tgt))
        assert passes[0][0] == src
        for (prev, tags), (nxt, _) in zip(passes, passes[1:]):
            assert nxt == apply_tags(prev, tags)
        assert [tags.all_keep for _, tags in passes] == [False] * (len(passes) - 1) + [True]
        assert passes[-1][0] == tgt
        assert len(passes) <= len(tgt) + 2


def test_encode_passes_feed_vocab_and_baseline_alike():
    rng = random.Random(67)
    pairs = [random_pair(rng, max_len=12) for _ in range(80)]
    vocab = build_vocab(pairs, size_cap=100_000)
    counts = count_edit_tags(pairs)
    assert set(counts) <= set(vocab.tags)
    model = train_baseline(pairs, vocab, context_width=1)
    assert sum(sum(slot.values()) for slot in model.counts.values()) == sum(counts.values())
