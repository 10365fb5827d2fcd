"""Batched decoding must decode each sentence exactly as it would alone.

The reference here is the one-sentence loop written out plainly: predict one
sentence, pick tags with a row-by-row selector, apply, repeat.  The batched
loop (decode_iteratively over chunks of a row budget, BaselineTagger's sparse
predict_batch, the averaged stack, select_batch) is checked against it.
"""

import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gec_editkit import (
    ContractError,
    CorrectionResult,
    Hyperparams,
    TagDistribution,
    TagVocab,
    apply_tags,
    average_correct_batch,
    average_distributions,
    build_vocab,
    run_pipeline_batch,
    train_baseline,
)
from gec_editkit import decode
from gec_editkit.decode import _chunks
from gec_editkit.tagger import MatrixTagger, sentence_bounds
from gec_editkit.tags import DELETE, KEEP, TagSeq, append
from gec_editkit.vocab import MANDATORY_TAGS

from deskdata import make_corpus
from gen import as_batch, random_distribution

TRAIN = make_corpus(300, seed=41)
VOCAB = build_vocab(TRAIN, 5000)
BASELINES = {
    (cw, sm): train_baseline(TRAIN, VOCAB, cw, sm) for cw in (0, 1, 2) for sm in (0.5, 1.0)
}
WORDS = sorted({tok for pair in TRAIN for side in pair for tok in side}) + ["zzz", "-"]


class RandomTagger:
    """A fixed random distribution per token tuple; a batch stacks them."""

    vocab = VOCAB

    def predict(self, tokens):
        seed = zlib.crc32(" ".join(tokens).encode("utf-8"))
        return random_distribution(random.Random(seed), self.vocab, len(tokens))

    def predict_batch(self, sentences):
        return as_batch([self.predict(tokens) for tokens in sentences])


def reference_select(dist, vocab, ac, mep):
    """select_tags for one sentence, position by position."""
    if float(dist.error_probs.max()) < mep:
        return TagSeq([KEEP] * dist.positions)
    picks = []
    for p, row in enumerate(dist.rows):
        scores = row.copy()
        scores[vocab.keep_index] += ac
        if p == 0:
            scores[~vocab.start_position_mask()] = -1.0
        pick = int(scores.argmax())
        if pick != vocab.keep_index and row[pick] < mep:
            pick = vocab.keep_index
        picks.append(vocab.tags[pick])
    return TagSeq(picks)


def reference_decode(predict, tokens, hp):
    cur = tuple(tokens)
    history = []
    for _ in range(hp.max_iters):
        tags = reference_select(predict(cur), VOCAB, hp.ac, hp.mep)
        history.append(tags)
        if tags.all_keep:
            break
        cur = apply_tags(cur, tags)
    return CorrectionResult(cur, len(history), tuple(history))


def chunk_budget(k, sentences):
    # k == 1: a one-row budget, so every chunk is one sentence; otherwise every
    # chunk but the last holds at least k sentences.
    rows = 1 if k == 1 else k * max(len(s) + 1 for s in sentences)
    return rows * len(VOCAB)


sentences_st = st.lists(st.lists(st.sampled_from(WORDS), max_size=8).map(tuple), min_size=1, max_size=30)
members_st = st.lists(
    st.one_of(st.sampled_from(sorted(BASELINES)).map(BASELINES.get), st.just(RandomTagger())),
    min_size=1,
    max_size=3,
)
hp_st = st.builds(
    Hyperparams,
    ac=st.floats(0.0, 1.0),
    mep=st.floats(0.0, 1.0),
    max_iters=st.integers(1, 4),
)


@pytest.mark.parametrize("k", [1, 7, 512])
@settings(max_examples=40, deadline=None)
@given(sentences=sentences_st, members=members_st, hp=hp_st)
def test_batched_decoding_equals_one_sentence_at_a_time(k, sentences, members, hp):
    member = members[0]

    def averaged(tokens):
        return average_distributions([m.predict(tokens) for m in members])

    expected_one = [reference_decode(member.predict, s, hp) for s in sentences]
    expected_avg = [reference_decode(averaged, s, hp).output for s in sentences]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decode, "BATCH_ELEMENTS", chunk_budget(k, sentences))
        assert run_pipeline_batch(member, sentences, hp) == expected_one
        assert average_correct_batch(members, sentences, hp) == expected_avg


@st.composite
def sentences_with_repeats(draw):
    """1-30 sentences drawn by index from a pool of 1-6, so most repeat."""
    pool = draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=8).map(tuple), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    return [pool[i] for i in picks]


class CountingTagger:
    """Wraps a tagger and counts the sentences it is asked to predict."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.predicted = 0

    def predict_batch(self, sentences):
        self.predicted += len(sentences)
        return self.inner.predict_batch(sentences)


@pytest.mark.parametrize("k", [1, 7, 512])
@settings(max_examples=40, deadline=None)
@given(sentences=sentences_with_repeats(), members=members_st, hp=hp_st)
def test_repeated_sentences_decode_once_as_they_would_alone(k, sentences, members, hp):
    member = CountingTagger(members[0])

    def averaged(tokens):
        return average_distributions([m.predict(tokens) for m in members])

    expected_one = [reference_decode(member.inner.predict, s, hp) for s in sentences]
    expected_avg = [reference_decode(averaged, s, hp).output for s in sentences]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decode, "BATCH_ELEMENTS", chunk_budget(k, sentences))
        assert run_pipeline_batch(member, sentences, hp) == expected_one
        assert average_correct_batch(members, sentences, hp) == expected_avg
    # one prediction per pass of each distinct sentence
    once = dict(zip(sentences, expected_one))
    assert member.predicted == sum(result.iterations_used for result in once.values())


@pytest.mark.parametrize("k", [1, 7, 512, None])
def test_desk_corpus_decodes_as_one_sentence_at_a_time(monkeypatch, k):
    sources = [s for s, _ in make_corpus(600, seed=42)]
    if k is not None:
        monkeypatch.setattr(decode, "BATCH_ELEMENTS", chunk_budget(k, sources))
    members = [BASELINES[(cw, 1.0)] for cw in (0, 1, 2)]
    for hp in (Hyperparams(), Hyperparams(ac=0.2, mep=0.3)):
        expected = [reference_decode(members[1].predict, s, hp) for s in sources]
        assert run_pipeline_batch(members[1], sources, hp) == expected

        def averaged(tokens):
            return average_distributions([m.predict(tokens) for m in members])

        expected = [reference_decode(averaged, s, hp).output for s in sources]
        assert average_correct_batch(members, sources, hp) == expected


def test_chunks_keep_order_and_the_row_budget():
    rng = random.Random(3)
    sentences = [("w",) * rng.randint(0, 9) for _ in range(200)]
    for max_rows in (1, 10, 37, 10_000):
        chunks = list(_chunks(sentences, max_rows))
        assert [i for chunk in chunks for i in chunk] == list(range(len(sentences)))
        for chunk in chunks:
            rows = sum(len(sentences[i]) + 1 for i in chunk)
            assert len(chunk) == 1 or rows <= max_rows
    assert len(list(_chunks(sentences, 10_000))) == 1


def test_default_budget_sizes_desk_and_wide_batches():
    # The budget gives a hundred or more short desk sentences per batch at a
    # narrow vocab, and one sentence at 5000 tags.
    sources = [s for s, _ in make_corpus(2000, seed=43)]
    narrow = list(_chunks(sources, decode.BATCH_ELEMENTS // len(VOCAB)))
    assert len(narrow[0]) >= 100
    wide = list(_chunks(sources, decode.BATCH_ELEMENTS // 5000))
    assert max(len(chunk) for chunk in wide) == 1


@pytest.mark.parametrize("cw", [0, 1, 2, 3])
@pytest.mark.parametrize("sm", [1.0, 0.3])
def test_baseline_predict_batch_equals_predict(cw, sm):
    model = train_baseline(TRAIN, VOCAB, cw, sm)
    rng = random.Random(cw)
    sentences = [s for s, _ in make_corpus(200, seed=44)]
    sentences += [tuple(rng.choice(WORDS) for _ in range(rng.randint(0, 7))) for _ in range(50)]
    batch = model.predict_batch(sentences)
    assert batch.starts.tolist() == list(np.cumsum([0] + [len(s) + 1 for s in sentences[:-1]]))
    bounds = [*batch.starts.tolist(), batch.rows.shape[0]]
    for sentence, lo, hi in zip(sentences, bounds, bounds[1:]):
        alone = model.predict(sentence)
        assert np.array_equal(batch.rows[lo:hi], alone.rows)
        assert np.array_equal(batch.error_probs[lo:hi], alone.error_probs)


WIDE = TagVocab(MANDATORY_TAGS + tuple(append(f"w{i}") for i in range(5000 - len(MANDATORY_TAGS))))


@settings(max_examples=40, deadline=None)
@given(
    pool=st.lists(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=5).map(tuple), min_size=1, max_size=4, unique=True
    ),
    data=st.data(),
)
def test_matrix_predict_batch_equals_its_predicts_stacked(pool, data):
    # The empty sentence is in every pool; hits are a drawn part of it, and
    # a batch of 1-8 draws from it repeats, mixing hits and misses.
    pool = [(), *pool]
    hits = data.draw(st.lists(st.sampled_from(pool), unique=True))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    model = MatrixTagger.from_records(WIDE, [(tokens, random_distribution(rng, WIDE, len(tokens))) for tokens in hits])
    sentences = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    batch = model.predict_batch(sentences)
    assert batch.starts.tolist() == sentence_bounds(map(len, sentences))[:-1]
    alone = [model.predict(tokens) for tokens in sentences]
    assert np.array_equal(batch.rows, np.concatenate([d.rows for d in alone]))
    assert np.array_equal(batch.error_probs, np.concatenate([d.error_probs for d in alone]))
    keep = np.zeros(len(WIDE))
    keep[WIDE.keep_index] = 1.0
    for tokens, d in zip(sentences, alone):
        record = model.table.get(tokens)
        if record is None:
            assert (d.rows == keep).all() and not d.error_probs.any()
        else:
            assert np.array_equal(d.rows, record.rows) and np.array_equal(d.error_probs, record.error_probs)


@pytest.mark.parametrize("corrupt", ["nan", "negative", "sum"])
def test_batch_check_fails_as_the_sentence_would_alone(corrupt):
    rng = random.Random(5)
    dists = [random_distribution(rng, VOCAB, n) for n in (2, 4, 3)]
    rows = [d.rows.copy() for d in dists]
    errs = [d.error_probs.copy() for d in dists]
    if corrupt == "nan":
        errs[1][3] = np.nan
    elif corrupt == "negative":
        rows[1][3, 0] = -0.25
    else:
        rows[1][3] *= 1.0 / rows[1][3].sum()
        rows[1][3, np.argmin(rows[1][3])] += 0.01
    with pytest.raises(ContractError) as alone:
        TagDistribution(VOCAB.sha256, rows[1], errs[1])
    with pytest.raises(ContractError) as stacked:
        TagDistribution(VOCAB.sha256, np.concatenate(rows), np.concatenate(errs), [0, 3, 8])
    assert str(stacked.value) == str(alone.value)
    if corrupt == "sum":
        assert str(alone.value).startswith("row 3 sums to ")


def test_batch_rejects_starts_that_do_not_split_its_rows():
    rng = random.Random(6)
    stack = as_batch([random_distribution(rng, VOCAB, n) for n in (2, 4)])
    for starts in ([1, 3], [0, 0], [0, 3, 2], [0, 9], []):
        with pytest.raises(ContractError):
            TagDistribution(VOCAB.sha256, stack.rows, stack.error_probs, starts)


def test_decoder_rejects_rows_that_do_not_fit_the_sentences():
    class ShortTagger:
        vocab = VOCAB

        def predict_batch(self, sentences):
            return as_batch([random_distribution(random.Random(0), VOCAB, len(tokens) + 1) for tokens in sentences])

    with pytest.raises(ContractError, match="tokens \\+ 1"):
        run_pipeline_batch(ShortTagger(), [("a", "b")])


@pytest.mark.parametrize("n_rows, starts", [(4, [0, 3]), (5, [0])], ids=["one-row-short", "two-sentences-one-start"])
def test_decoder_checks_the_layout_before_applying_any_tag(monkeypatch, n_rows, starts):
    # All mass on DELETE, so every tag selected from these rows would edit.
    rows = np.zeros((n_rows, len(VOCAB)))
    rows[:, VOCAB.index_of(DELETE)] = 1.0
    bad = TagDistribution(VOCAB.sha256, rows, np.ones(n_rows), starts)
    applied = []
    monkeypatch.setattr(decode, "apply_tags", lambda *args: applied.append(args))
    with pytest.raises(ContractError):
        decode.decode_iteratively(lambda active: bad, VOCAB, [("a", "b"), ("c",)])
    assert applied == []
