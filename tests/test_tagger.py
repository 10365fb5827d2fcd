import copy
import dataclasses
import json
import os
import pickle
import random
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gec_editkit import (
    ContractError,
    FormatError,
    TagDistribution,
    TagVocab,
    build_vocab,
    read_matrix_file,
    run_pipeline,
    run_pipeline_batch,
    VerbLexicon,
    train_baseline,
    train_baselines,
    write_matrix_file,
)
from gec_editkit import align as align_module
from gec_editkit import matrix_io
from gec_editkit import tagger as tagger_module
from gec_editkit.tagger import (
    PAD_MARKER,
    PRODUCER_SUM_TOL,
    START_MARKER,
    BaselineTagger,
    MatrixTagger,
    _batch_context_keys,
    _context_keys,
)
from gec_editkit.tags import append, replace
from gec_editkit.vocab import MANDATORY_TAGS, count_edit_tags

import train_oracle
from deskdata import make_corpus
from gen import as_batch, mutate, random_distribution, random_pair, random_vocab


@pytest.fixture
def small_vocab():
    pairs = [(("He", "go"), ("He", "goes")), (("I", "like", "dog"), ("I", "like", "the", "dog"))]
    return build_vocab(pairs, 100)


def test_distribution_invariants(small_vocab):
    rng = random.Random(5)
    for _ in range(50):
        d = random_distribution(rng, small_vocab, rng.randint(0, 8))
        assert d.rows.shape[0] == d.error_probs.shape[0]
        assert np.all(d.rows >= 0) and np.all(d.rows <= 1)
        np.testing.assert_allclose(d.rows.sum(axis=1), 1.0, atol=PRODUCER_SUM_TOL)


def test_distribution_rejects_bad_shapes(small_vocab):
    v = len(small_vocab)
    good_row = [1.0 / v] * v
    with pytest.raises(ContractError):
        TagDistribution(small_vocab.sha256, [good_row], [0.1, 0.2])
    with pytest.raises(ContractError):
        TagDistribution(small_vocab.sha256, [[0.9] + [0.3] * (v - 1)], [0.0])
    with pytest.raises(ContractError):
        TagDistribution(small_vocab.sha256, [[1.5] + [0.0] * (v - 1)], [0.0])


def test_distribution_refuses_non_integer_starts(small_vocab):
    # Two sentences, of 0 and 1 tokens: rows [0, 1) and [1, 3).
    rng = random.Random(88)
    batch = as_batch([random_distribution(rng, small_vocab, 0), random_distribution(rng, small_vocab, 1)])
    for starts in ((0, 1.7), [0.0, 1.0], [False, True], ["0", "1"]):
        with pytest.raises(ContractError, match="starts must be integers"):
            TagDistribution(small_vocab.sha256, batch.rows, batch.error_probs, starts)
    with pytest.raises(ContractError, match=r"^starts must be a non-empty 1-D array, got shape \(0,\)$"):
        TagDistribution(small_vocab.sha256, batch.rows, batch.error_probs, [])
    unsigned = TagDistribution(small_vocab.sha256, batch.rows, batch.error_probs, np.array([0, 1], dtype=np.uint8))
    assert unsigned.starts.dtype == np.intp and unsigned.starts.tolist() == [0, 1]


def test_untrained_baseline_predicts_uniform(small_vocab):
    model = BaselineTagger(small_vocab, context_width=1, smoothing=0.5, counts={})
    d = model.predict(("anything", "here"))
    np.testing.assert_allclose(d.rows, 1.0 / len(small_vocab))
    np.testing.assert_allclose(d.error_probs, 1.0 - 1.0 / len(small_vocab))


def test_baseline_learns_single_pair(small_vocab):
    model = train_baseline([(("He", "go"), ("He", "goes"))], small_vocab, context_width=1)
    d = model.predict(("He", "go"))
    picked = int(np.argmax(d.rows[2]))
    assert small_vocab.tags[picked] == replace("goes")


def test_baseline_probabilities_are_count_ratios(small_vocab):
    # Two conflicting pairs in the same context: counts 1 vs 1 plus smoothing.
    pairs = [(("a", "x"), ("a", "y")), (("a", "x"), ("a", "z"))]
    vocab = build_vocab(pairs, 100)
    model = train_baseline(pairs, vocab, context_width=0, smoothing=0.5)
    d = model.predict(("a", "x"))
    row = d.rows[2]
    y_idx = vocab.index_of(replace("y"))
    z_idx = vocab.index_of(replace("z"))
    total = 2 + 0.5 * len(vocab)
    assert row[y_idx] == pytest.approx(1.5 / total)
    assert row[z_idx] == pytest.approx(1.5 / total)
    assert row[vocab.keep_index] == pytest.approx(0.5 / total)


def per_hit_rows(model, sentences):
    """The reference: each seen count added to its cell one at a time, then normalised."""
    keys = [key for tokens in sentences for key in _context_keys(tokens, model.context_width)]
    expected = np.full((len(keys), len(model.vocab)), model.smoothing)
    for r, key in enumerate(keys):
        for col, count in model.counts.get(key, {}).items():
            expected[r, col] += count
    expected /= expected.sum(axis=1, keepdims=True)
    return keys, expected


def test_baseline_rows_equal_the_per_hit_loop():
    rng = random.Random(88)
    pairs = [random_pair(rng, max_len=10) for _ in range(60)]
    vocab = build_vocab(pairs, 100)
    unseen = ("zyx", "wvu")
    sentences = [src for src, _ in pairs[:20]] + [random_pair(rng, max_len=8)[0] for _ in range(10)] + [(), unseen]
    for width in (0, 1, 2):
        model = train_baseline(pairs, vocab, context_width=width, smoothing=0.3)
        keys, expected = per_hit_rows(model, sentences)
        # The batch mixes positions whose context was seen and ones whose was not.
        assert 0 < sum(key in model.counts for key in keys) < len(keys)
        assert np.array_equal(model.predict_batch(sentences).rows, expected)
        # A lone empty sentence, alone and in a batch of one.
        assert np.array_equal(model.predict_batch([()]).rows, per_hit_rows(model, [()])[1])
        untrained = BaselineTagger(vocab, width, 0.3, {})
        assert np.array_equal(untrained.predict_batch(sentences).rows, per_hit_rows(untrained, sentences)[1])
        assert np.array_equal(untrained.predict_batch([()]).rows, per_hit_rows(untrained, [()])[1])


def test_baseline_rows_equal_the_per_hit_loop_at_a_5000_tag_vocab():
    # Seen counts scattered over all 5000 columns, some contexts seen with many tags.
    rng = random.Random(89)
    vocab = TagVocab(MANDATORY_TAGS + tuple(append(f"w{i}") for i in range(5000 - len(MANDATORY_TAGS))))
    sentences = [random_pair(rng, max_len=9)[0] for _ in range(40)] + [(), ("zyx", "wvu")]
    for width in (0, 1, 2):
        seen = dict.fromkeys(key for tokens in sentences[::2] for key in _context_keys(tokens, width))
        counts = {key: {col: rng.randint(1, 9) for col in rng.sample(range(5000), rng.choice([1, 3, 200]))} for key in seen}
        model = BaselineTagger(vocab, width, 0.3, counts)
        keys, expected = per_hit_rows(model, sentences)
        assert 0 < sum(key in counts for key in keys) < len(keys)
        assert np.array_equal(model.predict_batch(sentences).rows, expected)


def test_baseline_refuses_counts_outside_its_vocab(small_vocab):
    for col in (-1, len(small_vocab)):
        with pytest.raises(ContractError, match=f"outside the vocab's {len(small_vocab)} tags"):
            BaselineTagger(small_vocab, 1, 1.0, {("a",): {0: 1, col: 2}})


def test_baseline_refuses_a_non_integer_context_width(small_vocab):
    with pytest.raises(ContractError, match="^context_width must be an integer, got 1.5$"):
        BaselineTagger(small_vocab, 1.5, 1.0, {})
    pairs = [(("He", "go"), ("He", "goes"))]
    with pytest.raises(ContractError, match="^context_width must be an integer, got '2'$"):
        train_baselines(pairs, small_vocab, [(1, 1.0), ("2", 1.0)])
    # A numpy integer is an integer.
    wide = BaselineTagger(small_vocab, np.int64(2), 1.0, {})
    assert np.array_equal(wide.predict(("He", "go")).rows, BaselineTagger(small_vocab, 2, 1.0, {}).predict(("He", "go")).rows)


def test_a_smoothing_that_overflows_a_row_sum_is_refused_before_encoding(small_vocab, monkeypatch):
    message = (
        f"smoothing 1e+308 over a vocab of {len(small_vocab)} tags overflows a row's sum; "
        "smoothing * vocab size must stay within half the largest float"
    )
    with pytest.raises(ContractError) as exc:
        BaselineTagger(small_vocab, 1, 1e308, {})
    assert str(exc.value) == message

    def no_encoding(*args, **kwargs):
        raise AssertionError("a pair was encoded")

    pairs = [(("He", "go"), ("He", "goes"))]
    with monkeypatch.context() as patched:
        patched.setattr(align_module, "encode_tags_batch", no_encoding)
        with pytest.raises(ContractError) as exc:
            train_baselines(pairs, small_vocab, [(1, 1.0), (2, 1e308)])
    assert str(exc.value) == message
    # The largest smoothing below the bound still predicts rows that sum to 1.
    largest = 0.99 * sys.float_info.max / 2 / len(small_vocab)
    rows = train_baseline(pairs, small_vocab, 1, largest).predict(("He", "go")).rows
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=PRODUCER_SUM_TOL)


def test_a_row_sum_error_prints_a_plain_float(small_vocab, tmp_path):
    rows = np.zeros((3, len(small_vocab)))
    rows[:, small_vocab.keep_index] = [1.0, 0.5, 1.0]
    with pytest.raises(ContractError) as exc:
        TagDistribution(small_vocab.sha256, rows, np.zeros(3))
    assert str(exc.value) == "row 1 sums to 0.5, not 1"
    path = tmp_path / "m.jsonl"
    header = {"format": matrix_io.MATRIX_FORMAT, "vocab_sha256": small_vocab.sha256, "vocab_size": len(small_vocab)}
    record = {"tokens": ["He", "go"], "rows": rows.tolist(), "error_probs": [0.0] * 3}
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        read_matrix_file(path, small_vocab)
    assert str(exc.value) == f"{path}:2: row 1 sums to 0.5, not 1"


def test_empty_corpus_gives_uniform_model(small_vocab):
    model = train_baseline([], small_vocab)
    d = model.predict(("He",))
    np.testing.assert_allclose(d.rows, 1.0 / len(small_vocab))


def test_context_width_zero_keys_on_current_token(small_vocab):
    model = train_baseline([(("He", "go"), ("He", "goes"))], small_vocab, context_width=0)
    keys = set(model.counts)
    assert all(len(k) == 1 for k in keys)
    assert ("go",) in keys


def _full_width_context_keys(tokens, width):
    # Every position's window at its full 2 * width + 1 slots, however long the sentence.
    pad = (PAD_MARKER,) * width
    stream = pad + (START_MARKER,) + tuple(tokens) + pad
    return [stream[p : p + 2 * width + 1] for p in range(len(tokens) + 1)]


def test_context_keys_stay_short_at_a_huge_width():
    keys = _context_keys(("a", "b", "c"), 10**5)
    assert max(map(len, keys)) <= 2 * 4 + 1


batch_tokens = st.sampled_from(["a", "b", "c", PAD_MARKER, START_MARKER])
batch_sentences = st.one_of(
    st.just(()),
    st.lists(batch_tokens, min_size=1, max_size=1),
    st.lists(batch_tokens, min_size=2, max_size=40),
).map(tuple)


@settings(max_examples=300, deadline=None)
@given(sentences=st.lists(batch_sentences, max_size=8), width=st.one_of(st.integers(0, 30), st.just(10**5)))
@example(sentences=[(), ("a",), ("a", "b", "c", "a", "b", "c")], width=3)
@example(sentences=[("a",) * 40, ()], width=10**5)
def test_batch_context_keys_equal_the_per_sentence_ones(sentences, width):
    keys = _batch_context_keys(sentences, width)
    assert keys == [key for tokens in sentences for key in _context_keys(tokens, width)]
    if sentences:
        assert max(map(len, keys)) <= 2 * (max(map(len, sentences)) + 1) + 1


def _peak_bytes(build):
    """Peak traced memory, in bytes, while ``build()`` runs and its result is alive."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("width", [30, 10**5])
def test_a_long_sentence_does_not_widen_the_batch_keys_of_short_ones(width):
    # One 120-token sentence sets the batch's cut width; the short sentences
    # must still be keyed at their own cut, with no wider window built or held
    # for them.  Keying each sentence apart is the yardstick.
    batch = [("b",) * 20] * 100 + [("a",) * 120] + [()] * 50 + [("c",)] * 50
    apart = _peak_bytes(lambda: [key for tokens in batch for key in _context_keys(tokens, width)])
    assert _peak_bytes(lambda: _batch_context_keys(batch, width)) <= 1.25 * apart


@pytest.mark.parametrize("width", [0, 1, 2, 3, 5, 8, 12, 30])
def test_context_keys_are_as_distinct_as_full_width_ones(width, monkeypatch):
    pairs = make_corpus(120, seed=9)
    vocab = build_vocab(pairs, 200)
    sentences = [s for s, _ in pairs] + [t for _, t in pairs] + [("zzz",) * 20, ()]
    cut = [k for s in sentences for k in _context_keys(s, width)]
    full = [k for s in sentences for k in _full_width_context_keys(s, width)]
    # One cut key per full-width key and back: the same contexts meet.
    assert len(set(zip(cut, full))) == len(set(cut)) == len(set(full))
    rows = train_baseline(pairs, vocab, width).predict_batch(sentences).rows
    batches = []

    def full_width_batch_keys(batch, w):
        batches.append(list(batch))
        return [k for s in batch for k in _full_width_context_keys(s, w)]

    monkeypatch.setattr(tagger_module, "_batch_context_keys", full_width_batch_keys)
    model = train_baseline(pairs, vocab, width)
    assert np.array_equal(model.predict_batch(sentences).rows, rows)
    # Full-width keys reached both training (its counts hold only them) and prediction.
    assert len(batches) == 2 and batches[1] == sentences
    assert model.counts and all(len(key) == 2 * width + 1 for key in model.counts)


def test_baseline_determinism(small_vocab):
    rng = random.Random(11)
    pairs = [random_pair(rng, max_len=8) for _ in range(30)]
    a = train_baseline(pairs, small_vocab, context_width=1, smoothing=0.25)
    b = train_baseline(pairs, small_vocab, context_width=1, smoothing=0.25)
    assert a.counts == b.counts
    for sent, _ in pairs[:5]:
        da, db = a.predict(sent), b.predict(sent)
        assert np.array_equal(da.rows, db.rows)
        assert np.array_equal(da.error_probs, db.error_probs)


def test_baseline_counts_are_a_read_only_view_of_what_it_predicts_from(small_vocab):
    pairs = [(("He", "go"), ("He", "goes")), (("I", "like", "dog"), ("I", "like", "the", "dog"))]
    trained = train_baseline(pairs, small_vocab, context_width=1)
    counts = {key: dict(tags) for key, tags in trained.counts.items()}
    model = BaselineTagger(small_vocab, 1, 1.0, counts)
    sentence = ("He", "go")
    rows = model.predict(sentence).rows
    key = next(iter(counts))
    with pytest.raises(TypeError):
        model.counts[key] = {0: 1}
    with pytest.raises(TypeError):
        model.counts[key][0] = 1
    # The context mapping it was made from is copied: dropping contexts from it changes nothing.
    counts.clear()
    assert model.counts == trained.counts and model == trained
    assert np.array_equal(model.predict(sentence).rows, rows)
    # A tagger remade from another's counts, by replace, a pickle or a deep copy, predicts the same.
    remade = [dataclasses.replace(model), copy.deepcopy(model)]
    remade += [pickle.loads(pickle.dumps(model, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in remade:
        assert back == model
        assert np.array_equal(back.predict(sentence).rows, rows)


@pytest.mark.parametrize("with_lexicon", [False, True])
@pytest.mark.parametrize("empty", [False, True])
def test_train_baselines_match_separate_trainings(with_lexicon, empty):
    lexicon = VerbLexicon.bundled() if with_lexicon else None
    # The verb pairs encode differently with the lexicon (VERB_FORM tags).
    corpus = make_corpus(80, seed=5) + [(("He", "go", "home"), ("He", "goes", "home")), (("She", "eat", "it"), ("She", "ate", "it"))]
    pairs = [] if empty else corpus
    vocab = build_vocab(corpus, 200, lexicon)
    shapes = [(0, 1.0), (1, 0.5), (2, 0.1), (1, 0.5)]
    models = train_baselines(iter(pairs), vocab, shapes, lexicon)
    assert [(m.context_width, m.smoothing) for m in models] == shapes
    for model, (cw, sm) in zip(models, shapes):
        assert model.counts == train_baseline(pairs, vocab, cw, sm, lexicon).counts
    assert bool(models[0].counts) != empty
    assert models[1].counts is not models[3].counts


@st.composite
def pair_lists_with_repeats(draw):
    """0-30 pairs drawn by index from a pool of 1-6, some sharing a target, so pairs and passes repeat."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pool = [random_pair(rng, max_len=8)]
    for _ in range(draw(st.integers(0, 5))):
        if rng.random() < 0.4:
            target = rng.choice(pool)[1]
            pool.append((mutate(rng, target, 0.5), target))
        else:
            pool.append(random_pair(rng, max_len=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=30))
    return [pool[i] for i in picks]


def nested_items(counts):
    """Contexts and each context's tags in dict order, with their counts."""
    return [(key, list(tags.items())) for key, tags in counts.items()]


@settings(max_examples=100, deadline=None)
@given(pairs=pair_lists_with_repeats(), with_lexicon=st.booleans())
def test_training_equals_the_pair_by_pair_loop(pairs, with_lexicon):
    lexicon = VerbLexicon.bundled() if with_lexicon else None
    widths = [0, 1, 2, 3]
    vocab = build_vocab(pairs[::2], 12, lexicon)  # some tags fall outside it, as UNKNOWN
    models = train_baselines(pairs, vocab, [(cw, 1.0) for cw in widths], lexicon)
    for model, expected in zip(models, train_oracle.train_counts(pairs, vocab, widths, lexicon)):
        assert nested_items(model.counts) == nested_items(expected)
    oracle_tags = train_oracle.count_edit_tags(pairs, lexicon)
    tags = count_edit_tags(pairs, lexicon)
    assert list(tags.items()) == list(oracle_tags.items())
    tripled = train_baselines(pairs * 3, vocab, [(cw, 1.0) for cw in widths], lexicon)
    for model, three in zip(models, tripled):
        assert nested_items(three.counts) == [
            (key, [(idx, 3 * n) for idx, n in items]) for key, items in nested_items(model.counts)
        ]
    assert count_edit_tags(pairs * 3, lexicon) == Counter({tag: 3 * n for tag, n in tags.items()})


def test_training_encodes_each_distinct_pair_once(monkeypatch):
    pairs = make_corpus(60, seed=9)
    vocab = build_vocab(pairs, 50)
    batches = []
    real = align_module.encode_tags_batch

    def counting(batch, lexicon=None):
        batches.append(list(batch))
        return real(batches[-1], lexicon)

    monkeypatch.setattr(align_module, "encode_tags_batch", counting)
    train_baselines(pairs * 2, vocab, [(1, 1.0)])
    # The first batch holds each distinct pair once, in first-seen order, and
    # the later ones only the passes after it: no pair is walked twice.
    distinct = list(dict.fromkeys(pairs))
    assert batches[0] == distinct
    passes = [list(train_oracle.encode_passes(source, target)) for source, target in distinct]
    assert sum(map(len, batches)) == sum(map(len, passes))


def test_baseline_rows_sum_to_one_tightly(small_vocab):
    rng = random.Random(12)
    pairs = [random_pair(rng, max_len=8) for _ in range(20)]
    model = train_baseline(pairs, small_vocab)
    for sent, _ in pairs:
        d = model.predict(sent)
        np.testing.assert_allclose(d.rows.sum(axis=1), 1.0, atol=PRODUCER_SUM_TOL)


def test_error_probs_are_one_minus_keep(small_vocab):
    rng = random.Random(13)
    pairs = [random_pair(rng, max_len=8) for _ in range(20)]
    model = train_baseline(pairs, small_vocab)
    d = model.predict(pairs[0][0])
    np.testing.assert_allclose(d.error_probs, 1.0 - d.rows[:, small_vocab.keep_index])


def test_matrix_tagger_miss_decodes_to_identity(small_vocab):
    model = MatrixTagger(small_vocab, {})
    res = run_pipeline(model, ("He", "go"))
    assert res.output == ("He", "go")
    assert res.iterations_used == 1
    batch = run_pipeline_batch(model, [("He", "go"), (), ("He", "go")])
    assert [(r.output, r.iterations_used) for r in batch] == [(("He", "go"), 1), ((), 1), (("He", "go"), 1)]


def test_matrix_round_trip(tmp_path):
    rng = random.Random(77)
    vocab = random_vocab(rng)
    records = []
    for _ in range(12):
        n = rng.randint(0, 6)
        tokens = tuple(f"w{rng.randrange(10)}" for _ in range(n))
        dist = random_distribution(rng, vocab, n)
        if tokens not in dict(records):  # a sentence has one record
            records.append((tokens, dist))
    path = tmp_path / "m.jsonl"
    write_matrix_file(path, vocab, records)
    back = read_matrix_file(path, vocab)
    assert len(back) == len(records)
    for (tok_a, d_a), (tok_b, d_b) in zip(records, back):
        assert tok_a == tok_b
        assert np.array_equal(d_a.rows, d_b.rows)
        assert np.array_equal(d_a.error_probs, d_b.error_probs)
        assert d_a.vocab_id == d_b.vocab_id


def test_matrix_tagger_serves_exact_rows(tmp_path, small_vocab):
    rng = random.Random(78)
    tokens = ("He", "go")
    dist = random_distribution(rng, small_vocab, 2)
    path = tmp_path / "m.jsonl"
    write_matrix_file(path, small_vocab, [(tokens, dist)])
    tagger = MatrixTagger.from_records(small_vocab, read_matrix_file(path, small_vocab))
    assert np.array_equal(tagger.predict(tokens).rows, dist.rows)
    # unseen sentence falls back to the do-nothing prediction: all mass on KEEP, no error
    fallback = tagger.predict(("new", "sentence"))
    keep = np.zeros((3, len(small_vocab)))
    keep[:, small_vocab.keep_index] = 1.0
    assert np.array_equal(fallback.rows, keep)
    assert np.array_equal(fallback.error_probs, np.zeros(3))


def test_matrix_errors_carry_line_numbers(tmp_path, small_vocab):
    v = len(small_vocab)
    header = (
        '{"format": "gec-editkit/matrix-v1", '
        f'"vocab_sha256": "{small_vocab.sha256}", "vocab_size": {v}}}'
    )
    uniform = [1.0 / v] * v

    def record(rows, error_probs, tokens='["a"]'):
        return (
            '{"tokens": ' + tokens + ', "rows": ' + json.dumps(rows)
            + ', "error_probs": ' + json.dumps(error_probs) + "}"
        )

    def row(*head):
        return list(head) + [0.0] * (v - len(head))

    cases = [
        (header + "\n" + record([uniform, uniform[:-1]], [0.0, 0.0]), 2, "row"),
        (header + "\n" + record([uniform, uniform], [0.0]), 2, "error_probs"),
        (header + "\n" + record([uniform], [0.0]), 2, "rows"),
        (header + "\nnot json", 2, "JSON"),
        ('{"format": "other"}' + "\n", 1, "format"),
        (header + "\n" + record([uniform, [0.5] * v], [0.0, 0.0]), 2, "sums"),
        (header + "\n" + record([uniform, uniform], [0.0, 0.0], tokens="5"), 2, "tokens"),
        (header + "\n" + record([uniform, uniform], [0.0, 0.0], tokens="[5]"), 2, "tokens"),
        (header + "\n" + record(5, [0.0, 0.0]), 2, "rows"),
        (header + "\n" + record({}, [0.0, 0.0]), 2, "rows"),
        (header + "\n" + record([], [0.0, 0.0]), 2, "rows"),
    ]
    # Bad probability values, in a row or in error_probs.  A numeric string
    # must fail although np.asarray(..., dtype=float64) would parse it.
    for bad in ("0.5", None, float("nan"), [0.5], -0.1, 1.5):
        cases.append((header + "\n" + record([uniform, row(bad, 0.5)], [0.0, 0.0]), 2, ""))
        cases.append((header + "\n" + record([uniform, uniform], [0.0, bad]), 2, ""))
    cases.append((header + "\n" + record([uniform, row(-0.1, 0.6, 0.5)], [0.0, 0.0]), 2, ""))
    cases.append((header + "\n" + record([[[x] for x in uniform]] * 2, [0.0, 0.0]), 2, ""))
    cases.append((header + "\n" + record([uniform, uniform], [[0.0], [0.0]]), 2, ""))
    # Not JSON, though Python's json module reads them: non-finite literals,
    # a number outside double range and a lone surrogate.
    for literal in ("NaN", "Infinity", "-Infinity", "1e400"):
        cases.append((header + "\n" + record([uniform, row("X", 0.5)], [0.0, 0.0]).replace('"X"', literal), 2, "JSON"))
        cases.append((header + "\n" + record([uniform, uniform], [0.0, "X"]).replace('"X"', literal), 2, "JSON"))
    cases.append((header + "\n" + record([uniform, uniform], [0.0, 0.0], tokens='["\\ud800"]'), 2, "JSON"))
    # An integer beyond 64 bits reads as a float and fails the range check.
    cases.append((header + "\n" + record([uniform, row("X", 0.5)], [0.0, 0.0]).replace('"X"', "1" * 24), 2, "[0, 1]"))
    cases.append((header + "\n" + record([uniform, uniform], [0.0, "X"]).replace('"X"', "1" * 24), 2, "[0, 1]"))
    for text, lineno, needle in cases:
        path = tmp_path / "bad.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            read_matrix_file(path, small_vocab)
        assert exc.value.line == lineno, text
        assert str(exc.value).startswith(f"{path}:{lineno}: ")
        assert needle.lower() in str(exc.value).lower()


def test_matrix_integer_rows_read_as_float(tmp_path, small_vocab):
    v = len(small_vocab)
    rows = [[1] + [0] * (v - 1), [0, 1] + [0] * (v - 2)]
    header = {"format": "gec-editkit/matrix-v1", "vocab_sha256": small_vocab.sha256, "vocab_size": v}
    record = {"tokens": ["a"], "rows": rows, "error_probs": [0, 1]}
    path = tmp_path / "ints.jsonl"
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    ((tokens, dist),) = read_matrix_file(path, small_vocab)
    assert tokens == ("a",)
    assert dist.rows.dtype == np.float64 and dist.error_probs.dtype == np.float64
    assert np.array_equal(dist.rows, np.array(rows, dtype=np.float64))
    assert np.array_equal(dist.error_probs, [0.0, 1.0])


def test_matrix_string_tokens_are_not_split_into_characters(tmp_path, small_vocab):
    v = len(small_vocab)
    header = {"format": "gec-editkit/matrix-v1", "vocab_sha256": small_vocab.sha256, "vocab_size": v}
    uniform = [1.0 / v] * v
    record = {"tokens": "ab", "rows": [uniform] * 3, "error_probs": [0.0] * 3}
    path = tmp_path / "str.jsonl"
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="tokens") as exc:
        read_matrix_file(path, small_vocab)
    assert exc.value.line == 2


def test_matrix_token_check_lets_bugs_raise(tmp_path, small_vocab, monkeypatch):
    rng = random.Random(82)
    path = tmp_path / "m.jsonl"
    write_matrix_file(path, small_vocab, [(("a",), random_distribution(rng, small_vocab, 1))])

    def broken(tokens):
        raise RuntimeError("bug")

    monkeypatch.setattr(matrix_io, "validate_tokens", broken)
    with pytest.raises(RuntimeError, match="bug"):
        read_matrix_file(path, small_vocab)


@st.composite
def matrix_records(draw):
    width = draw(st.integers(min_value=0, max_value=40))
    vocab = TagVocab(MANDATORY_TAGS + tuple(replace(f"w{i}") for i in range(width)))
    prob = st.floats(min_value=0.0, max_value=1.0)
    records = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        tokens = tuple(draw(st.lists(st.sampled_from(["a", "b", "ü", "日本"]), max_size=5)))
        if tokens in dict(records):  # a sentence has one record
            continue
        rows = np.array(draw(st.lists(
            st.lists(prob, min_size=len(vocab), max_size=len(vocab)),
            min_size=len(tokens) + 1, max_size=len(tokens) + 1,
        )))
        sums = rows.sum(axis=1, keepdims=True)
        rows = np.where(sums > 0, rows / np.where(sums > 0, sums, 1.0), np.eye(1, len(vocab)))
        error_probs = draw(st.lists(prob, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
        records.append((tokens, TagDistribution(vocab.sha256, rows, error_probs)))
    return vocab, records


@settings(max_examples=60, deadline=None)
@given(matrix_records())
def test_matrix_round_trip_property(tmp_path_factory, case):
    vocab, records = case
    path = tmp_path_factory.mktemp("matrix") / "m.jsonl"
    write_matrix_file(path, vocab, records)
    back = read_matrix_file(path, vocab)
    assert len(back) == len(records)
    for (tok_a, d_a), (tok_b, d_b) in zip(records, back):
        assert tok_a == tok_b
        assert d_b.rows.dtype == np.float64 and d_b.error_probs.dtype == np.float64
        assert np.array_equal(d_a.rows, d_b.rows)
        assert np.array_equal(d_a.error_probs, d_b.error_probs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True) | st.just(-0.0), min_size=1, max_size=8))
@example([5e-324, 1e-310, 2.2250738585072014e-308, 0.9999999999999999, -0.0, 1.0])
def test_matrix_numbers_read_bit_identically_to_json(tmp_path_factory, values):
    # Every finite double in [0, 1], subnormals included, comes back with the
    # bits Python's json module gives the same text.
    vocab = TagVocab(MANDATORY_TAGS)
    width = len(vocab)
    rows = [[x, 1.0 - x] + [0.0] * (width - 2) for x in [0.0] + values]
    header = {"format": "gec-editkit/matrix-v1", "vocab_sha256": vocab.sha256, "vocab_size": width}
    record = json.dumps({"tokens": ["a"] * len(values), "rows": rows, "error_probs": [0.0] + values})
    path = tmp_path_factory.mktemp("matrix") / "m.jsonl"
    path.write_text(json.dumps(header) + "\n" + record + "\n", encoding="utf-8")
    ((_, dist),) = read_matrix_file(path, vocab)
    expected = json.loads(record)
    assert np.array_equal(dist.rows.view(np.uint64), np.array(expected["rows"]).view(np.uint64))
    assert np.array_equal(dist.error_probs.view(np.uint64), np.array(expected["error_probs"]).view(np.uint64))


def test_matrix_header_refuses_a_boolean_vocab_size(tmp_path, small_vocab):
    # True is an int to Python; taken as vocab_size it would ask for 1-wide rows.
    header = {"format": "gec-editkit/matrix-v1", "vocab_sha256": small_vocab.sha256, "vocab_size": True}
    record = {"tokens": [], "rows": [[1.0]], "error_probs": [0.0]}
    path = tmp_path / "bool.jsonl"
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    for vocab in (None, small_vocab):
        with pytest.raises(FormatError, match="positive vocab_size") as exc:
            read_matrix_file(path, vocab)
        assert exc.value.line == 1


def test_matrix_vocab_mismatch(tmp_path, small_vocab):
    rng = random.Random(79)
    other = random_vocab(rng)
    path = tmp_path / "m.jsonl"
    write_matrix_file(path, other, [((), random_distribution(rng, other, 0))])
    with pytest.raises(FormatError) as exc:
        read_matrix_file(path, small_vocab)
    assert exc.value.line == 1


def test_matrix_write_rejects_foreign_records(tmp_path, small_vocab):
    rng = random.Random(80)
    other = random_vocab(rng)
    with pytest.raises(ContractError, match="different vocab"):
        write_matrix_file(tmp_path / "m.jsonl", small_vocab, [((), random_distribution(rng, other, 0))])
    short = random_distribution(rng, small_vocab, 3)
    with pytest.raises(ContractError, match="rows"):
        write_matrix_file(tmp_path / "m.jsonl", small_vocab, [(("one",), short)])


def test_matrix_write_refuses_a_record_of_stacked_sentences(tmp_path, small_vocab):
    # Two empty sentences stacked have the two rows one token needs.
    rng = random.Random(81)
    stacked = as_batch([random_distribution(rng, small_vocab, 0) for _ in range(2)])
    path = tmp_path / "m.jsonl"
    with pytest.raises(ContractError, match="stacks 2 sentences"):
        write_matrix_file(path, small_vocab, [(("one",), stacked)])
    assert not path.exists()


def test_matrix_tagger_refuses_a_record_of_stacked_sentences(small_vocab):
    rng = random.Random(82)
    stacked = as_batch([random_distribution(rng, small_vocab, 0) for _ in range(2)])
    with pytest.raises(ContractError, match="stacks 2 sentences"):
        MatrixTagger.from_records(small_vocab, [(("one",), stacked)])


def _narrow_distribution(vocab, n_tokens):
    # vocab's hash on rows one column narrower than vocab.
    width = len(vocab) - 1
    return TagDistribution(vocab.sha256, np.full((n_tokens + 1, width), 1.0 / width), np.zeros(n_tokens + 1))


def test_matrix_tagger_refuses_a_repeated_sentence(small_vocab):
    rng = random.Random(85)
    sentences = [("He", "go"), ("a",), ("He", "go")]
    records = [(tokens, random_distribution(rng, small_vocab, len(tokens))) for tokens in sentences]
    with pytest.raises(ContractError, match="repeated record for 'He go'"):
        MatrixTagger.from_records(small_vocab, records)


def test_matrix_writer_refuses_a_repeated_sentence_and_writes_nothing(tmp_path, small_vocab):
    rng = random.Random(87)
    sentences = [("He", "go"), ("a",), ("He", "go")]
    records = [(tokens, random_distribution(rng, small_vocab, len(tokens))) for tokens in sentences]
    with pytest.raises(ContractError, match="repeated record for 'He go'"):
        write_matrix_file(tmp_path / "m.jsonl", small_vocab, records)
    assert os.listdir(tmp_path) == []


def test_matrix_reader_refuses_a_repeated_sentence_at_its_line(tmp_path, small_vocab):
    rng = random.Random(86)
    path = tmp_path / "m.jsonl"
    records = [(tokens, random_distribution(rng, small_vocab, len(tokens))) for tokens in [("He", "go"), ("a",)]]
    write_matrix_file(path, small_vocab, records)
    header, *records = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([header, *records, records[0]]) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="repeated record for 'He go'") as exc:
        read_matrix_file(path, small_vocab)
    assert (exc.value.path, exc.value.line) == (str(path), 4)


def test_matrix_tagger_refuses_a_record_of_the_wrong_row_count(small_vocab):
    rng = random.Random(83)
    with pytest.raises(ContractError, match="record for 'He go' has 5 rows for 2 tokens"):
        MatrixTagger.from_records(small_vocab, [(("He", "go"), random_distribution(rng, small_vocab, 4))])


def test_matrix_tagger_refuses_a_record_of_the_wrong_width(small_vocab):
    rng = random.Random(84)
    good = (("a",), random_distribution(rng, small_vocab, 1))
    with pytest.raises(ContractError, match="record for 'He go' has rows of width"):
        MatrixTagger.from_records(small_vocab, [good, (("He", "go"), _narrow_distribution(small_vocab, 2))])
    # Made directly, too: predict_batch copies every record's rows as they are.
    with pytest.raises(ContractError, match="record for 'He go' has rows of width"):
        MatrixTagger(small_vocab, dict([good, (("He", "go"), _narrow_distribution(small_vocab, 2))]))


def test_matrix_table_is_a_read_only_view_of_the_checked_records(small_vocab):
    # A record added after the tagger is made would skip the fit check made at
    # construction, and a narrow one failed in predict with numpy's ValueError.
    rng = random.Random(86)
    records = {("a",): random_distribution(rng, small_vocab, 1)}
    model = MatrixTagger(small_vocab, records)
    with pytest.raises(TypeError):
        model.table[("He", "go")] = _narrow_distribution(small_vocab, 2)
    with pytest.raises(AttributeError):
        model.table.clear()
    # The table it was made from is copied: changing it changes nothing.
    records[("He", "go")] = _narrow_distribution(small_vocab, 2)
    assert list(model.table) == [("a",)]
    rows = model.predict_batch([("a",), ("He", "go")]).rows
    assert np.array_equal(rows[:2], model.table[("a",)].rows)
    # Remade by replace, a pickle or a deep copy, it serves the same records.
    remade = [dataclasses.replace(model), copy.deepcopy(model)]
    remade += [pickle.loads(pickle.dumps(model, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in remade:
        assert list(back.table) == [("a",)]
        assert np.array_equal(back.predict_batch([("a",), ("He", "go")]).rows, rows)
        with pytest.raises(TypeError):
            back.table[("b",)] = back.table[("a",)]


def test_matrix_write_refuses_a_record_of_the_wrong_width(tmp_path, small_vocab):
    path = tmp_path / "m.jsonl"
    with pytest.raises(ContractError, match="has rows of width"):
        write_matrix_file(path, small_vocab, [(("He", "go"), _narrow_distribution(small_vocab, 2))])
    assert list(tmp_path.iterdir()) == []


def test_matrix_write_failure_leaves_no_partial_file(tmp_path, small_vocab):
    rng = random.Random(82)
    good = (("a",), random_distribution(rng, small_vocab, 1))
    bad = (("one",), random_distribution(rng, small_vocab, 2))
    path = tmp_path / "m.jsonl"
    with pytest.raises(ContractError, match="3 rows for 1 tokens"):
        write_matrix_file(path, small_vocab, [good, bad])
    assert list(tmp_path.iterdir()) == []

    write_matrix_file(path, small_vocab, [good])
    before = path.read_bytes()
    with pytest.raises(ContractError):
        write_matrix_file(path, small_vocab, [good, bad])
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_unicode_tokens_round_trip(tmp_path, small_vocab):
    rng = random.Random(81)
    tokens = ("café", "naïve", "日本語", "ёж")
    dist = random_distribution(rng, small_vocab, len(tokens))
    path = tmp_path / "m.jsonl"
    write_matrix_file(path, small_vocab, [(tokens, dist)])
    (back_tokens, back), = read_matrix_file(path, small_vocab)
    assert back_tokens == tokens
    assert np.array_equal(back.rows, dist.rows)
