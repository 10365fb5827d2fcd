"""The alignment kernel's per-pair and batched paths against the plain DP in ``levenshtein_oracle``."""

import random
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import levenshtein_oracle
from gec_editkit import _levenshtein


@st.composite
def id_pairs(draw):
    """Two id sequences of 0-200 ids over an alphabet of 1-8.

    Past 64 ids a column's bit vectors are wider than one machine word.
    """
    ids = st.integers(0, draw(st.integers(1, 8)) - 1)
    seq = st.integers(0, 200).flatmap(lambda k: st.lists(ids, min_size=k, max_size=k))
    return draw(seq), draw(seq)


@settings(max_examples=150, deadline=None)
@given(pair=id_pairs())
def test_kernel_equals_the_dp_oracle(pair):
    src, tgt = pair
    assert _levenshtein.backtrace_ops(src, tgt) == levenshtein_oracle.backtrace_ops(src, tgt)


@st.composite
def id_batches(draw):
    """0-300 pairs of 0-200 ids over an alphabet of 1-8, most of them at most 70 long.

    The sizes fall on both sides of BATCH_MIN and the sources on both sides
    of the 64-id word.  The ids come from a drawn seed: a batch of this many
    ids drawn one by one would outgrow hypothesis's example buffer.
    """
    size = draw(st.integers(0, 300))
    alphabet = draw(st.integers(1, 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def ids():
        length = rng.randint(0, 200) if rng.random() < 0.05 else rng.randint(0, 70)
        return [rng.randrange(alphabet) for _ in range(length)]

    return [(ids(), ids()) for _ in range(size)]


@settings(max_examples=25, deadline=None)
@given(pairs=id_batches())
def test_batch_kernel_equals_the_dp_oracle(pairs):
    assert _levenshtein.backtrace_ops_batch(pairs) == [levenshtein_oracle.backtrace_ops(s, t) for s, t in pairs]


def test_the_batch_pass_takes_sources_of_1_to_64_ids_from_batch_min_pairs(monkeypatch):
    rng = random.Random(64)
    laned = []
    real = _levenshtein._align_lanes

    def counting(pairs):
        laned.extend(pairs)
        return real(pairs)

    monkeypatch.setattr(_levenshtein, "_align_lanes", counting)
    short = [(random_ids(rng, 64), random_ids(rng, 70)) for _ in range(_levenshtein.BATCH_MIN)]
    short = [(src or [1], tgt) for src, tgt in short]
    others = [([], [1, 2]), ([rng.randrange(6) for _ in range(65)], [1, 2, 3])]
    for pairs, lanes in [(short[1:] + others, []), (short + others, short)]:
        laned.clear()
        assert _levenshtein.backtrace_ops_batch(pairs) == [_levenshtein.backtrace_ops(s, t) for s, t in pairs]
        assert sorted(laned) == sorted(lanes)


def test_batch_kernel_chunks_keep_every_pair_in_place(monkeypatch):
    # Chunks of at most 2**12 cells: a few 40-by-40 lanes each.
    monkeypatch.setattr(_levenshtein, "BATCH_CELLS", 2**12)
    rng = random.Random(12)
    pairs = [(random_ids(rng), random_ids(rng)) for _ in range(2 * _levenshtein.BATCH_MIN)]
    chunks = list(_levenshtein._chunks(*lengths(pairs), np.array([k for k, (src, _) in enumerate(pairs) if src])))
    assert len(chunks) > 2
    assert all(len(chunk) * max(len(pairs[k][0]) for k in chunk) * max(len(pairs[k][1]) for k in chunk) <= 2**12
               for chunk in chunks if len(chunk) > 1)
    assert _levenshtein.backtrace_ops_batch(pairs) == [_levenshtein.backtrace_ops(s, t) for s, t in pairs]


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 80), st.integers(0, 80)), max_size=400).map(
        lambda sizes: [(range(n), range(m)) for n, m in sizes]
    ),
    cells=st.sampled_from([1, 7, 2**8, 2**12, 2**16, _levenshtein.BATCH_CELLS]),
    seed=st.integers(0, 2**32 - 1),
)
# Two 8-by-16 lanes fill 256 cells exactly, so they share a chunk.
@example(pairs=[(range(8), range(16))] * 4, cells=2**8, seed=0)
def test_chunks_equal_the_greedy_planner(pairs, cells, seed):
    # Any subset of the pairs in any order may be the lanes, as long as each
    # lane comes once; ties in target length keep the lanes' order.
    lanes = [k for k in range(len(pairs)) if random.Random(seed + k).random() < 0.8]
    random.Random(seed).shuffle(lanes)
    with mock.patch.object(_levenshtein, "BATCH_CELLS", cells):
        got = list(_levenshtein._chunks(*lengths(pairs), np.array(lanes, dtype=np.intp)))
        assert got == list(levenshtein_oracle.chunks(pairs, lanes))


def test_batch_kernel_takes_lanes_with_empty_targets():
    rng = random.Random(0)
    for target in ([], [1]):
        pairs = [([rng.randrange(6) for _ in range(rng.randint(1, 64))], target) for _ in range(_levenshtein.BATCH_MIN)]
        assert _levenshtein.backtrace_ops_batch(pairs) == [_levenshtein.backtrace_ops(s, t) for s, t in pairs]


def test_batch_kernel_compares_ids_only_for_equality():
    rng = random.Random(5)
    words = ["a", "b", 2**70, -1, (1, 2), 0.5]

    def ids():
        return [rng.choice(words) for _ in range(rng.randint(0, 30))]

    pairs = [(ids(), ids()) for _ in range(2 * _levenshtein.BATCH_MIN)]
    assert _levenshtein.backtrace_ops_batch(pairs) == [_levenshtein.backtrace_ops(s, t) for s, t in pairs]


def lengths(pairs):
    """The pairs' source and target lengths, as the two arrays backtrace_ops_batch measures."""
    n = np.array([len(src) for src, _ in pairs], dtype=np.int64)
    m = np.array([len(tgt) for _, tgt in pairs], dtype=np.int64)
    return n, m


def random_ids(rng, max_len=40):
    return [rng.randrange(6) for _ in range(rng.randint(0, max_len))]
