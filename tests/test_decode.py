import random

import numpy as np
import pytest

from gec_editkit import (
    ContractError,
    Hyperparams,
    TagDistribution,
    apply_tags,
    build_vocab,
    run_pipeline,
    select_tags,
    train_baseline,
)
from gec_editkit.decode import select_batch
from gec_editkit.tags import KEEP, Tag, TagKind, TagSeq, append, parse_tag, replace

from gen import as_batch, random_distribution, random_tokens, random_vocab


def one_hot_dist(vocab, picks, error_probs=None):
    rows = np.zeros((len(picks), len(vocab)))
    for p, tag in enumerate(picks):
        rows[p, vocab.index[tag]] = 1.0
    if error_probs is None:
        error_probs = [0.0 if t == KEEP else 1.0 for t in picks]
    return TagDistribution(vocab.sha256, rows, error_probs)


@pytest.fixture
def vocab():
    pairs = [
        (("He", "go"), ("He", "goes")),
        (("I", "like", "dog"), ("I", "like", "the", "dog")),
        (("a", "a"), ("a",)),
    ]
    return build_vocab(pairs, 100)


def test_plain_argmax_with_no_tweaks(vocab):
    rng = random.Random(3)
    d = random_distribution(rng, vocab, 4)
    tags = select_tags(d, vocab, ac=0.0, mep=0.0)
    start_ok = [i for i, t in enumerate(vocab.tags) if t.kind in (TagKind.KEEP, TagKind.APPEND)]
    expected0 = max(start_ok, key=lambda i: (d.rows[0, i], -i))
    assert tags[0] == vocab.tags[expected0]
    for p in range(1, 5):
        assert tags[p] == vocab.tags[int(np.argmax(d.rows[p]))]


def test_ac_one_forces_all_keep(vocab):
    rng = random.Random(4)
    for _ in range(50):
        d = random_distribution(rng, vocab, rng.randint(0, 6))
        assert select_tags(d, vocab, ac=1.0, mep=0.0).all_keep


def test_ac_zero_equals_untweaked_path(vocab):
    rng = random.Random(5)
    for _ in range(100):
        d = random_distribution(rng, vocab, rng.randint(0, 6))
        assert select_tags(d, vocab, ac=0.0, mep=0.0) == select_tags(d, vocab)


def test_mep_demotes_low_probability_corrections(vocab):
    goes = replace("goes")
    rows = np.zeros((3, len(vocab)))
    rows[0, 0] = rows[1, 0] = 1.0
    rows[2, vocab.index[goes]] = 0.4
    rows[2, 0] = 0.35
    rows[2, vocab.unknown_index] = 0.25
    d = TagDistribution(vocab.sha256, rows, [0.0, 0.0, 0.6])
    assert select_tags(d, vocab, mep=0.0)[2] == goes
    assert select_tags(d, vocab, mep=0.5).all_keep  # 0.4 < 0.5 demotes


def test_mep_sentence_gate(vocab):
    goes = replace("goes")
    rows = np.zeros((2, len(vocab)))
    rows[0, 0] = 1.0
    rows[1, vocab.index[goes]] = 0.9
    rows[1, 0] = 0.1
    d = TagDistribution(vocab.sha256, rows, [0.0, 0.3])
    # token prob 0.9 >= mep, but max error prob 0.3 < mep gates the sentence
    assert select_tags(d, vocab, mep=0.4).all_keep
    assert select_tags(d, vocab, mep=0.2)[1] == goes


def test_mep_monotonicity(vocab):
    rng = random.Random(6)
    for _ in range(40):
        d = random_distribution(rng, vocab, rng.randint(0, 6))
        previous = None
        for step in range(21):
            mep = step / 20
            count = sum(1 for t in select_tags(d, vocab, mep=mep) if t != KEEP)
            if previous is not None:
                assert count <= previous
            previous = count


def test_start_position_restricted(vocab):
    rng = random.Random(7)
    for _ in range(100):
        d = random_distribution(rng, vocab, rng.randint(0, 4))
        start = select_tags(d, vocab)[0]
        assert start.kind in (TagKind.KEEP, TagKind.APPEND)


def test_vocab_mismatch_is_contract_error(vocab):
    rng = random.Random(8)
    other = random_vocab(rng)
    d = random_distribution(rng, other, 2)
    with pytest.raises(ContractError):
        select_tags(d, vocab)


def test_select_tags_refuses_stacked_sentences(vocab):
    rng = random.Random(11)
    stacked = as_batch([random_distribution(rng, vocab, 1), random_distribution(rng, vocab, 2)])
    assert stacked.rows.shape[0] == 5
    with pytest.raises(ContractError, match="select_batch"):
        select_tags(stacked, vocab)


def test_apply_tags_examples():
    assert apply_tags(("a", "b"), [KEEP, KEEP, KEEP]) == ("a", "b")
    assert apply_tags(("He", "go"), [KEEP, KEEP, replace("goes")]) == ("He", "goes")
    assert apply_tags(("cats",), [append("The"), KEEP]) == ("The", "cats")
    assert apply_tags(("a", "b"), [KEEP, Tag(TagKind.DELETE), KEEP]) == ("b",)
    assert apply_tags(("a",), [KEEP, append("b")]) == ("a", "b")


def test_apply_tags_transforms_and_fallbacks(lexicon):
    assert apply_tags(("he",), [KEEP, parse_tag("$TRANSFORM_CASE_CAPITAL")]) == ("He",)
    assert apply_tags(("go",), [KEEP, parse_tag("$TRANSFORM_VERB_VB_VBZ")], lexicon) == ("goes",)
    # inapplicable transform falls back to KEEP
    assert apply_tags(("xyz",), [KEEP, parse_tag("$TRANSFORM_VERB_VB_VBZ")], lexicon) == ("xyz",)
    assert apply_tags(("dog",), [KEEP, parse_tag("$TRANSFORM_AGREEMENT_SINGULAR")]) == ("dog",)
    # UNKNOWN acts as KEEP
    assert apply_tags(("a",), [KEEP, Tag(TagKind.UNKNOWN)]) == ("a",)


def test_apply_tags_merge():
    merge = Tag(TagKind.MERGE)
    assert apply_tags(("air", "port"), [KEEP, merge, KEEP]) == ("airport",)
    # the merged-away position's tag is ignored
    assert apply_tags(("air", "port"), [KEEP, merge, replace("harbor")]) == ("airport",)
    # merge at the last position falls back to KEEP
    assert apply_tags(("air",), [KEEP, merge]) == ("air",)


def test_apply_tags_length_contract():
    with pytest.raises(ContractError):
        apply_tags(("a", "b"), [KEEP, KEEP])


def test_pipeline_stops_on_clean_sentence(vocab):
    class KeepTagger:
        def __init__(self, vocab):
            self.vocab = vocab

        def predict(self, tokens):
            return one_hot_dist(self.vocab, [KEEP] * (len(tokens) + 1))

    res = run_pipeline(KeepTagger(vocab), ("He", "go"))
    assert res.output == ("He", "go")
    assert res.iterations_used == 1
    assert len(res.per_iteration_tags) == 1


def test_pipeline_with_oracle_reaches_target(oracle_tagger_factory):
    source, target = ("I", "cats"), ("I", "like", "black", "cats")
    tagger = oracle_tagger_factory(source, target)
    res = run_pipeline(tagger, source, Hyperparams(max_iters=4))
    assert res.output == target
    assert res.iterations_used == 3  # two edit passes, one all-KEEP pass
    assert res.per_iteration_tags[-1].all_keep


def test_pipeline_max_iters_truncates(oracle_tagger_factory):
    source, target = ("I", "cats"), ("I", "like", "black", "cats")
    tagger = oracle_tagger_factory(source, target)
    res = run_pipeline(tagger, source, Hyperparams(max_iters=1))
    assert res.iterations_used == 1
    assert res.output == ("I", "like", "cats")


def test_pipeline_fixed_point(vocab):
    # once an iteration applies zero edits the next one must as well
    rng = random.Random(9)
    pairs = [(("He", "go"), ("He", "goes")), (("a", "x"), ("a", "y"))]
    model = train_baseline(pairs, build_vocab(pairs, 50), context_width=1)
    for _ in range(20):
        sent = random_tokens(rng, max_len=6, min_len=1)
        res = run_pipeline(model, sent, Hyperparams(max_iters=6))
        if res.per_iteration_tags[-1].all_keep and res.iterations_used < 6:
            again = run_pipeline(model, res.output, Hyperparams(max_iters=1))
            assert again.output == res.output


def test_pipeline_stalled_edit_runs_to_max_iters(vocab):
    # a tagger that keeps proposing an inapplicable transform never makes
    # progress; the loop bound is the only stop
    singular = parse_tag("$TRANSFORM_AGREEMENT_SINGULAR")
    stall_vocab = build_vocab([(("dogs",), ("dog",))], 10)

    class StubbornTagger:
        vocab = stall_vocab

        def predict(self, tokens):
            return one_hot_dist(self.vocab, [KEEP] + [singular] * len(tokens))

    assert singular in stall_vocab.index
    res = run_pipeline(StubbornTagger(), ("dog",), Hyperparams(max_iters=4))
    assert res.output == ("dog",)
    assert res.iterations_used == 4
    assert not res.per_iteration_tags[-1].all_keep


def test_hyperparams_validation():
    with pytest.raises(ContractError):
        Hyperparams(ac=1.5)
    with pytest.raises(ContractError):
        Hyperparams(mep=-0.1)
    with pytest.raises(ContractError):
        Hyperparams(max_iters=0)
    for bad in (2.5, "3", None):
        with pytest.raises(ContractError, match="max_iters must be an integer"):
            Hyperparams(max_iters=bad)
    assert Hyperparams(max_iters=np.int64(2)).max_iters == 2


def test_tagseq_returned(vocab):
    rng = random.Random(10)
    d = random_distribution(rng, vocab, 3)
    assert isinstance(select_tags(d, vocab), TagSeq)


@pytest.mark.parametrize("ac, mep", [(0.0, 0.0), (0.3, 0.0), (0.0, 0.6), (1.0, 1.0)])
def test_selected_sequences_pass_the_checked_constructor(ac, mep):
    # select_batch builds its sequences without TagSeq's checks; each must be
    # one the checked constructor takes as it is, START restricted included.
    rng = random.Random(11)
    for _ in range(20):
        vocab = random_vocab(rng)
        dists = [random_distribution(rng, vocab, rng.randint(0, 6)) for _ in range(rng.randint(1, 5))]
        for seq in select_batch(as_batch(dists), vocab, ac, mep):
            assert type(seq) is TagSeq and TagSeq(list(seq)) == seq
