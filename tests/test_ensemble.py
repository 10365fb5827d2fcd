import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gec_editkit import (
    ContractError,
    EditSpan,
    Hyperparams,
    TagDistribution,
    apply_edits,
    average_correct,
    average_distributions,
    build_vocab,
    extract_edits,
    majority_vote,
    run_pipeline,
    tally_votes,
    train_baseline,
    vote_correct,
    vote_correct_batch,
)
from gec_editkit import ensemble
from gec_editkit.ensemble import _orderless_mean

from average_oracle import orderless_mean
from gen import mutate, random_distribution, random_tokens, random_vocab


@pytest.fixture
def vocab():
    pairs = [(("He", "go"), ("He", "goes")), (("I", "dog"), ("I", "like", "dog"))]
    return build_vocab(pairs, 100)


def test_average_of_one_is_itself(vocab):
    rng = random.Random(1)
    d = random_distribution(rng, vocab, 3)
    avg = average_distributions([d])
    assert np.array_equal(avg.rows, d.rows)
    assert np.array_equal(avg.error_probs, d.error_probs)


def test_average_of_identical_copies_is_exact(vocab):
    rng = random.Random(2)
    for k in (2, 3, 5, 7):
        d = random_distribution(rng, vocab, rng.randint(0, 5))
        avg = average_distributions([d] * k)
        assert np.array_equal(avg.rows, d.rows), f"k={k}"
        assert np.array_equal(avg.error_probs, d.error_probs)


def test_average_arithmetic():
    vocab = build_vocab([(("a",), ("b",))], 10)
    # pad rows to vocab size with zeros beyond the first two entries
    def dist(p0, p1):
        rows = np.zeros((1, len(vocab)))
        rows[0, 0], rows[0, 1] = p0, p1
        return TagDistribution(vocab.sha256, rows, [1.0 - p0])

    avg = average_distributions([dist(0.8, 0.2), dist(0.4, 0.6)])
    assert avg.rows[0, 0] == pytest.approx(0.6, abs=1e-12)
    assert avg.rows[0, 1] == pytest.approx(0.4, abs=1e-12)


def test_average_permutation_invariance(vocab):
    rng = random.Random(3)
    def single():
        return random_distribution(rng, vocab, 3)

    def stacked():
        return TagDistribution.stack([random_distribution(rng, vocab, n) for n in (0, 2, 1)])

    for make in [single] * 30 + [stacked] * 10:
        dists = [make() for _ in range(4)]
        base = average_distributions(dists)
        for _ in range(4):
            rng.shuffle(dists)
            again = average_distributions(dists)
            assert np.array_equal(base.rows, again.rows)
            assert np.array_equal(base.error_probs, again.error_probs)


def test_average_mismatch_names_offender(vocab):
    rng = random.Random(4)
    other = random_vocab(rng)
    good = random_distribution(rng, vocab, 2)
    bad = random_distribution(rng, other, 2)
    with pytest.raises(ContractError, match="member 1"):
        average_distributions([good, bad])
    short = random_distribution(rng, vocab, 1)
    with pytest.raises(ContractError, match="member 2"):
        average_distributions([good, good, short])
    # Same rows, split into two sentences instead of one.
    split = TagDistribution(vocab.sha256, good.rows, good.error_probs, [0, 1])
    with pytest.raises(ContractError, match="member 1"):
        average_distributions([good, split])


# Ties come from drawing every element from a small pool; +0.0 only, as
# signed zeros compare equal and neither mean promises which one it returns.
POOLS = st.lists(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-17, 1e-8, 0.1, 1 / 3, 0.5, 0.7, 1.0]) | st.floats(0.0, 1.0).map(abs),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 8),
    shape=st.tuples(st.integers(1, 40)) | st.tuples(st.integers(1, 4), st.integers(1, 5000)),
    pool=POOLS,
    seed=st.integers(0, 2**32 - 1),
)
def test_orderless_mean_equals_the_sort_based_oracle_bit_for_bit(k, shape, pool, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.choice(np.array(pool), size=shape) for _ in range(k)]
    for array in arrays:
        array.flags.writeable = False  # as in a TagDistribution: the mean must not write its inputs
    got = _orderless_mean(arrays)
    if got.size == 1 and k >= 8:
        # The oracle sums a one-element stack pairwise (see average_oracle);
        # its value for that element in any larger array is the exact one.
        want = orderless_mean([np.repeat(a, 2) for a in arrays])[:1].reshape(shape)
    else:
        want = orderless_mean(arrays)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_mean_of_a_sentence_does_not_depend_on_its_batch(vocab):
    # Eight members' error probabilities for an empty sentence; added
    # pairwise, their deviations give another float than added in order.
    probs = [0.2, 0.3, 0.3, 0.3, 0.5, 0.6, 0.6, 0.6]
    keep = np.zeros((1, len(vocab)))
    keep[0, vocab.keep_index] = 1.0
    empty = [TagDistribution(vocab.sha256, keep, [p]) for p in probs]
    other = TagDistribution(vocab.sha256, np.vstack([keep, keep]), [0.1, 0.2])
    alone = average_distributions(empty)
    stacked = average_distributions([TagDistribution.stack([d, other]) for d in empty])
    assert alone.error_probs.tolist() == stacked.error_probs[:1].tolist() == [0.42499999999999993]
    assert np.array_equal(alone.rows, stacked.rows[:1])


def test_tally_of_repeated_outputs_aligns_each_once(monkeypatch):
    rng = random.Random(12)
    aligned = []
    real = ensemble.extract_edits

    def counting(source, output):
        aligned.append(tuple(output))
        return real(source, output)

    for _ in range(60):
        source = random_tokens(rng, max_len=10)
        distinct = [mutate(rng, source, 0.4) for _ in range(rng.randint(1, 4))]
        # the same output as a list and as a tuple is one member output
        outputs = [rng.choice([list, tuple])(rng.choice(distinct)) for _ in range(rng.randint(1, 8))]
        votes: dict[EditSpan, int] = {}
        for output in outputs:
            for edit in extract_edits(source, output):
                votes[edit] = votes.get(edit, 0) + 1
        aligned.clear()
        with monkeypatch.context() as m:
            m.setattr(ensemble, "extract_edits", counting)
            tally = tally_votes(source, outputs)
        assert list(tally.votes.items()) == list(votes.items())
        assert aligned == list(dict.fromkeys(map(tuple, outputs)))


def test_batch_vote_votes_each_distinct_row_once(monkeypatch):
    rng = random.Random(5)
    pool = []
    for _ in range(4):
        source = random_tokens(rng, max_len=8)
        pool.append((source, [mutate(rng, source, 0.4) for _ in range(3)]))
    rows = [rng.choice(pool) for _ in range(25)]
    # a row given as lists is the same row
    sources = [list(source) if i % 2 else source for i, (source, _) in enumerate(rows)]
    member_outputs = [[outputs[m] for _, outputs in rows] for m in range(3)]
    expected = [vote_correct(source, outputs, 2) for source, outputs in rows]
    voted, aligned = [], []
    real = ensemble.vote_correct

    def counting(source, outputs, n_min, known=None):
        voted.append((source, outputs))
        return real(source, outputs, n_min, known)

    def unbatched(source, output):
        aligned.append((source, output))
        return extract_edits(source, output)

    monkeypatch.setattr(ensemble, "vote_correct", counting)
    monkeypatch.setattr(ensemble, "extract_edits", unbatched)
    assert vote_correct_batch(sources, member_outputs, 2) == expected
    assert voted == list(dict.fromkeys((source, tuple(outputs)) for source, outputs in rows))
    # every member output was aligned in the batch, none row by row
    assert aligned == []


def test_batch_vote_contracts():
    with pytest.raises(ContractError, match="member 1 has 1 outputs for 2 sources"):
        vote_correct_batch([("a",), ("b",)], [[("a",), ("b",)], [("a",)]], 1)
    with pytest.raises(ContractError, match="at least one member"):
        vote_correct_batch([("a",)], [], 1)
    with pytest.raises(ContractError, match="n_min"):
        vote_correct_batch([("a",)], [[("a",)]], 2)


@pytest.mark.parametrize("n_min", [0, 3, 7])
def test_batch_vote_checks_the_quorum_without_rows(n_min):
    with pytest.raises(ContractError, match=rf"n_min must lie in \[1, 2\], got {n_min}"):
        vote_correct_batch([], [[], []], n_min)


def test_tally_and_majority_vote_by_hand():
    # spans sit apart so each re-extracts as its own edit
    source = ("x", "y", "z", "w", "v")
    edit_a = EditSpan(0, 1, ("X",))
    edit_b = EditSpan(2, 3, ("Y",))
    edit_c = EditSpan(4, 5, ("Z",))
    outputs = [
        apply_edits(source, [edit_a, edit_b]),
        apply_edits(source, [edit_a]),
        apply_edits(source, [edit_a, edit_c]),
    ]
    tally = tally_votes(source, outputs)
    assert tally.votes == {edit_a: 3, edit_b: 1, edit_c: 1}
    assert majority_vote(source, outputs, 2) == [edit_a]
    assert vote_correct(source, outputs, 2) == apply_edits(source, [edit_a])
    assert sorted(majority_vote(source, outputs, 1), key=lambda e: e.start) == [edit_a, edit_b, edit_c]


def test_vote_unanimity_only_keeps_shared_edits():
    source = ("a", "b", "c")
    outputs = [("a", "X", "c"), ("a", "X", "c"), ("a", "X", "d")]
    assert majority_vote(source, outputs, 3) == []
    assert majority_vote(source, outputs, 2) == [EditSpan(1, 2, ("X",))]


def test_vote_identity_outputs_give_no_edits():
    source = ("a", "b")
    assert majority_vote(source, [source, source, source], 2) == []
    assert vote_correct(source, [source, source], 1) == source


def test_vote_conflict_resolution_prefers_votes_then_position():
    source = ("a", "b", "c")
    # two members propose a wide replacement, one proposes an overlapping narrow one
    wide, narrow = ("W",), ("N",)
    outputs = [
        apply_edits(source, [EditSpan(0, 2, wide)]),
        apply_edits(source, [EditSpan(0, 2, wide)]),
        apply_edits(source, [EditSpan(1, 3, narrow)]),
    ]
    assert majority_vote(source, outputs, 1) == [EditSpan(0, 2, wide)]


def test_vote_tie_breaks_deterministically():
    source = ("a", "b")
    out1 = apply_edits(source, [EditSpan(0, 2, ("P",))])
    out2 = apply_edits(source, [EditSpan(0, 2, ("Q",))])
    # one vote each, same span: smaller replacement wins
    assert majority_vote(source, [out1, out2], 1) == [EditSpan(0, 2, ("P",))]


def test_vote_tie_breaks_prefer_shorter_span():
    source = ("a", "b", "c")
    narrow = apply_edits(source, [EditSpan(0, 2, ("X",))])
    wide = apply_edits(source, [EditSpan(0, 3, ("X",))])
    assert majority_vote(source, [narrow, wide], 1) == [EditSpan(0, 2, ("X",))]


def test_vote_n_min_contract():
    with pytest.raises(ContractError):
        majority_vote(("a",), [("a",)], 0)
    with pytest.raises(ContractError):
        majority_vote(("a",), [("a",)], 2)


def test_quorum_subset_law():
    rng = random.Random(5)
    for _ in range(100):
        source = random_tokens(rng, max_len=10)
        outputs = [mutate(rng, source, rng.random() * 0.5) for _ in range(5)]
        tally = tally_votes(source, outputs)
        sets = [set(tally.surviving(k)) for k in range(1, 6)]
        for k in range(1, 5):
            assert sets[k] <= sets[k - 1]


def test_vote_permutation_invariance():
    rng = random.Random(6)
    for _ in range(50):
        source = random_tokens(rng, max_len=8)
        outputs = [mutate(rng, source, 0.4) for _ in range(4)]
        base = majority_vote(source, outputs, 2)
        for _ in range(3):
            rng.shuffle(outputs)
            assert majority_vote(source, outputs, 2) == base


def test_vote_never_invents_edits():
    rng = random.Random(7)
    for _ in range(100):
        source = random_tokens(rng, max_len=8)
        outputs = [mutate(rng, source, 0.4) for _ in range(3)]
        union = set()
        for out in outputs:
            union |= set(extract_edits(source, out))
        for n_min in (1, 2, 3):
            assert set(majority_vote(source, outputs, n_min)) <= union


def test_single_member_ensembles_match_plain_pipeline(vocab):
    pairs = [(("He", "go"), ("He", "goes")), (("I", "dog"), ("I", "like", "dog"))]
    model = train_baseline(pairs, vocab, context_width=1)
    hp = Hyperparams()
    for sentence in [("He", "go"), ("I", "dog"), ("He", "walks")]:
        single = run_pipeline(model, sentence, hp).output
        assert average_correct([model], sentence, hp) == single
        assert vote_correct(sentence, [single], 1) == single


def test_average_mode_requires_shared_vocab(vocab):
    rng = random.Random(8)
    pairs = [(("He", "go"), ("He", "goes"))]
    model_a = train_baseline(pairs, vocab, context_width=1)
    model_b = train_baseline(pairs, random_vocab(rng), context_width=1)
    with pytest.raises(ContractError):
        average_correct([model_a, model_b], ("He", "go"))
