import random

from gec_editkit import (
    EditSpan,
    OpKind,
    align_tokens,
    apply_edits,
    apply_tags,
    build_vocab,
    encode_tags,
    extract_edits,
    format_tag,
    train_baseline,
)
from gec_editkit.align import encode_passes
from gec_editkit.tags import KEEP
from gec_editkit.vocab import count_edit_tags

from gen import random_pair, random_tokens


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


def op_cost(ops):
    return sum(1 for op in ops if op.kind is not OpKind.MATCH)


def replay(ops, source, target):
    """Reconstruct both sequences from the op stream."""
    src_out, tgt_out = [], []
    for op in ops:
        if op.kind in (OpKind.MATCH, OpKind.SUBSTITUTE):
            src_out.append(source[op.src_index])
            tgt_out.append(target[op.tgt_index])
        elif op.kind is OpKind.DELETE:
            src_out.append(source[op.src_index])
        else:
            tgt_out.append(target[op.tgt_index])
    return tuple(src_out), tuple(tgt_out)


def test_align_identical():
    ops = align_tokens(("a", "b"), ("a", "b"))
    assert [op.kind for op in ops] == [OpKind.MATCH, OpKind.MATCH]


def test_align_substitution():
    ops = align_tokens(("He", "go"), ("He", "goes"))
    assert [op.kind for op in ops] == [OpKind.MATCH, OpKind.SUBSTITUTE]
    assert brute_force_min_cost(("He", "go"), ("He", "goes")) == op_cost(ops) == 1


def test_align_empty_source():
    ops = align_tokens((), ("x",))
    assert [op.kind for op in ops] == [OpKind.INSERT]


def test_align_matches_brute_force_cost_on_small_inputs():
    rng = random.Random(101)
    for _ in range(300):
        src = random_tokens(rng, max_len=5)
        tgt = random_tokens(rng, max_len=5)
        ops = align_tokens(src, tgt)
        assert op_cost(ops) == brute_force_min_cost(src, tgt)
        assert replay(ops, src, tgt) == (src, tgt)


def test_align_is_deterministic():
    rng = random.Random(17)
    for _ in range(50):
        src, tgt = random_pair(rng, max_len=12)
        assert align_tokens(src, tgt) == align_tokens(src, tgt)


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
            assert prev.end < cur.start or (prev.end == cur.start and prev.end - prev.start >= 0)
            assert prev.end <= cur.start
        for e in edits:
            assert e.replacement != src[e.start:e.end]


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


def test_convergence_property():
    rng = random.Random(59)
    for _ in range(400):
        src, tgt = random_pair(rng, max_len=15)
        iterate_to_target(src, tgt)
        # the all-KEEP fixed point happens exactly at equality
        assert encode_tags(tgt, tgt).all_keep


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
