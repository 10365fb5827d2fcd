import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gec_editkit import (
    ContractError,
    EditKitError,
    EditSpan,
    InputError,
    align,
    average_correct,
    average_correct_batch,
    build_vocab,
    distill,
    extract_edits,
    run_pipeline,
    run_pipeline_batch,
    score_corpus,
    train_baselines,
    tune_hyperparams,
    vote_correct,
    vote_correct_batch,
)
from gec_editkit.decode import Hyperparams
from gec_editkit.distill import DistillStats

from deskdata import make_corpus
from gen import random_tokens


def each(fix):
    """A corpus-level corrector that applies the one-sentence ``fix`` to each source."""
    return lambda sources: [fix(source) for source in sources]


def test_distill_identity_corrector_emits_nothing():
    rng = random.Random(1)
    sentences = [random_tokens(rng, max_len=8) for _ in range(30)]
    pairs, stats = distill(each(lambda s: s), sentences, limit=10)
    assert pairs == []
    assert stats.processed == 30
    assert stats.emitted == 0
    assert stats.edited_fraction == 0.0


def test_distill_limit_semantics():
    def fixer(tokens):
        return tokens[1:] if tokens and tokens[0] == "BAD" else tokens

    sentences = [("BAD", "a"), ("ok",), ("BAD", "b"), ("BAD", "c"), ("ok", "too"), ("BAD", "d")]
    sentences += [("BAD", str(i)) for i in range(10)]
    pairs, stats = distill(each(fixer), sentences, limit=5)
    assert len(pairs) == 5
    assert pairs[0] == (("BAD", "a"), ("a",))
    assert stats.emitted == 5
    # the fifth emit happens on the seventh sentence; nothing after is consumed
    assert stats.processed == 7


def test_distill_never_emits_edit_free_pairs():
    rng = random.Random(2)

    def flaky_fixer(tokens):
        if rng.random() < 0.5:
            return tokens
        return tuple(t.upper() for t in tokens)

    sentences = [random_tokens(rng, max_len=6, min_len=1) for _ in range(100)]
    pairs, _ = distill(each(flaky_fixer), sentences, limit=1000)
    for source, output in pairs:
        assert extract_edits(source, output) != []


def test_distill_counts_and_skips_failures():
    def brittle(tokens):
        if "boom" in tokens:
            raise InputError("nope")
        return tokens + ("!",)

    sentences = [("a",), ("boom",), ("b",), ("boom", "x")]
    pairs, stats = distill(each(brittle), sentences, limit=100)
    assert [s for s, _ in pairs] == [("a",), ("b",)]
    assert stats.failed == 2
    assert stats.processed == 4
    assert stats.emitted == 2


def test_distill_propagates_corrector_bugs():
    def buggy(tokens):
        if "boom" in tokens:
            raise RuntimeError("bug")
        return tokens + ("!",)

    with pytest.raises(RuntimeError, match="bug"):
        distill(each(buggy), [("a",), ("boom",), ("b",)], limit=100)


def test_distill_limit_contract():
    with pytest.raises(ContractError):
        distill(each(lambda s: s), [], limit=0)


def test_distill_edited_fraction_matches_recount():
    rng = random.Random(3)
    errorful = {i for i in rng.sample(range(100), 30)}

    def fixer(tokens):
        return tokens + ("FIX",) if tokens and tokens[0] in str_set else tokens

    sentences = []
    str_set = set()
    for i in range(100):
        head = f"s{i}"
        if i in errorful:
            str_set.add(head)
        sentences.append((head, "body"))
    pairs, stats = distill(each(fixer), sentences, limit=1000)
    recount = sum(1 for s in sentences if extract_edits(s, fixer(s)) != [])
    assert stats.emitted == recount == 30
    assert stats.edited_fraction == pytest.approx(0.30)


def test_distill_corrects_exactly_the_processed_sentences():
    seen = []

    def corrector(sources):
        seen.append(len(sources))
        return [s + ("!",) if s[0].startswith("e") else s for s in sources]

    sentences = [(f"e{i}" if i % 3 == 0 else f"k{i}",) for i in range(40)]
    pairs, stats = distill(corrector, sentences, limit=6)
    assert stats.emitted == 6
    # the sixth edited sentence is sentence 15; nothing after it reaches the corrector
    assert stats.processed == 16
    assert sum(seen) == stats.processed
    assert seen[0] == 6


def test_distill_rejected_chunk_reruns_per_sentence():
    calls = []

    def picky(sources):
        calls.append(len(sources))
        if len(sources) > 2 or any("boom" in s for s in sources):
            raise InputError("rejected")
        return [s + ("!",) for s in sources]

    sentences = [("a",), ("boom",), ("b",), ("c",), ("d",)]
    pairs, stats = distill(picky, sentences, limit=100)
    # the whole input is one chunk; alone, only ("boom",) fails
    assert calls == [5, 1, 1, 1, 1, 1]
    assert [s for s, _ in pairs] == [("a",), ("b",), ("c",), ("d",)]
    assert (stats.processed, stats.emitted, stats.failed) == (5, 4, 1)


@pytest.mark.parametrize("outputs", [[("a",)], [("a",), ("b",), ("c",), ("d",)]])
def test_distill_refuses_a_wrong_output_count(outputs):
    with pytest.raises(ContractError, match=f"corrector gave {len(outputs)} outputs for 3 sources"):
        distill(lambda sources: outputs, [("x",), ("y",), ("z",)], limit=10)


def _distill_one_by_one(fix, sentences, limit):
    """The per-sentence reference: correct, keep changed pairs, stop at the limit."""
    pairs, processed, failed = [], 0, 0
    for sentence in sentences:
        source = tuple(sentence)
        processed += 1
        try:
            output = tuple(fix(source))
        except EditKitError:
            failed += 1
            continue
        if output != source:
            pairs.append((source, output))
            if len(pairs) >= limit:
                break
    return pairs, DistillStats(processed, len(pairs), failed)


@settings(max_examples=200, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["keep", "edit", "fail"]), max_size=40),
    limit=st.integers(min_value=1, max_value=15),
)
def test_distill_matches_the_one_sentence_loop(kinds, limit):
    def fix(source):
        if source[1] == "fail":
            raise InputError("bad sentence")
        return source + ("!",) if source[1] == "edit" else source

    sentences = [(f"s{i}", kind) for i, kind in enumerate(kinds)]
    assert distill(each(fix), iter(sentences), limit) == _distill_one_by_one(fix, sentences, limit)


DESK = make_corpus(120, seed=17)
DESK_VOCAB = build_vocab(DESK, 100)
TEACHERS = train_baselines(DESK, DESK_VOCAB, [(0, 1.0), (1, 1.0), (2, 0.5)])
DESK_POOL = sorted({side for pair in DESK[:20] for side in pair})


@pytest.mark.parametrize("mode", ["average", "vote"])
@settings(max_examples=40, deadline=None)
@given(picks=st.lists(st.integers(0, len(DESK_POOL) - 1), max_size=40), limit=st.integers(1, 15))
def test_distill_of_repeated_sentences_matches_the_one_sentence_loop(mode, picks, limit):
    sentences = [DESK_POOL[i] for i in picks]
    if mode == "average":
        def correct(sources):
            return average_correct_batch(TEACHERS, sources)

        def fix(source):
            return average_correct(TEACHERS, source)
    else:
        def correct(sources):
            outputs = [[r.output for r in run_pipeline_batch(t, sources)] for t in TEACHERS]
            return vote_correct_batch(sources, outputs, 2)

        def fix(source):
            return vote_correct(source, [run_pipeline(t, source).output for t in TEACHERS], 2)

    pairs, stats = distill(correct, iter(sentences), limit)
    expected_pairs, expected_stats = _distill_one_by_one(fix, sentences, limit)
    assert pairs == expected_pairs
    assert stats.summary() == expected_stats.summary()


# --- tuning ---------------------------------------------------------------


def run_tune(correct_fn, sources, gold, trials, seed):
    return tune_hyperparams(correct_fn, sources, gold, trials=trials, seed=seed)


def test_tune_single_trial_returns_baseline_pair():
    result = run_tune(lambda sources, ac, mep: sources, [("a",)], [[[]]], trials=1, seed=0)
    assert (result.best.ac, result.best.mep) == (0.0, 0.0)
    assert len(result.trials) == 1


def test_tune_never_underperforms_untuned():
    # the corrector is perfect untweaked; any tweak can only demote true edits
    target = ("a", "B", "c")

    def corrector(sources, ac, mep):
        if ac > 0.5 or mep > 0.5:
            return sources
        return [target]

    gold_edits = [[[EditSpan(1, 2, ("B",))]]]
    result = run_tune(corrector, [("a", "b", "c")], gold_edits, trials=20, seed=11)
    baseline = result.trials[0]
    assert (baseline.ac, baseline.mep) == (0.0, 0.0)
    assert result.report.f_half >= baseline.report.f_half
    assert result.report.f_half == 1.0


def test_tune_finds_mep_that_removes_false_positives():
    # mep >= 0.5 removes two false positives and no true positives; the
    # spurious spans sit apart from the good one so they stay separate edits
    good = EditSpan(0, 1, ("X",))
    bad1, bad2 = EditSpan(2, 3, ("q",)), EditSpan(4, 4, ("r",))

    def corrector(sources, ac, mep):
        edits = [good] if mep >= 0.5 else [good, bad1, bad2]
        from gec_editkit import apply_edits

        return [apply_edits(tokens, edits) for tokens in sources]

    gold = [[[good]]]
    result = run_tune(corrector, [("a", "b", "c", "d", "e")], gold, trials=40, seed=5)
    assert result.best.mep >= 0.5
    assert result.report.f_half == 1.0


def test_tune_deterministic_for_fixed_seed():
    def corrector(sources, ac, mep):
        return [tokens if ac + mep > 1.0 else tokens + ("x",) for tokens in sources]

    sources = [("a",), ("b", "c")]
    gold = [[[EditSpan(1, 1, ("x",))]], [[]]]
    first = run_tune(corrector, sources, gold, trials=25, seed=99)
    second = run_tune(corrector, sources, gold, trials=25, seed=99)
    assert first == second
    third = run_tune(corrector, sources, gold, trials=25, seed=100)
    assert [t.ac for t in third.trials] != [t.ac for t in first.trials]


def test_tune_tie_breaks_to_lower_ac_then_mep():
    # every trial scores identically; the (0,0) baseline must win
    result = run_tune(lambda sources, ac, mep: sources, [("a", "b")], [[[]]], trials=15, seed=3)
    assert (result.best.ac, result.best.mep) == (0.0, 0.0)


def test_tune_respects_base_hyperparams():
    base = Hyperparams(max_iters=2)
    result = tune_hyperparams(lambda sources, ac, mep: sources, [("a",)], [[[]]], trials=2, seed=1, base=base)
    assert result.best.max_iters == 2


def test_tune_aligns_each_distinct_correction_once(monkeypatch):
    # Trials that correct alike share their alignments, and so do repeated
    # sources within a trial; the report is the one per-sentence edits give.
    sources = [("a", "b"), ("c",), ("a", "b"), ("d", "e", "f")]
    gold = [[[EditSpan(2, 2, ("x",))]], [[]], [[EditSpan(0, 1, ("y",))]], [[]]]

    def corrector(sources, ac, mep):
        return [tokens + ("x",) if ac < 0.5 else tokens[:1] for tokens in sources]

    expected, corrections = [], set()
    for trial in run_tune(corrector, sources, gold, trials=12, seed=4).trials:
        outputs = corrector(sources, trial.ac, trial.mep)
        expected.append(score_corpus([extract_edits(s, o) for s, o in zip(sources, outputs)], gold))
        corrections.update(zip(sources, outputs))
    aligned = []
    real = align._runs_batch

    def counting(pairs):
        aligned.extend(pairs)
        return real(pairs)

    monkeypatch.setattr(align, "_runs_batch", counting)
    result = run_tune(corrector, sources, gold, trials=12, seed=4)
    assert [trial.report for trial in result.trials] == expected
    assert sorted(aligned) == sorted(corrections)


@pytest.mark.parametrize("count", [2.5, 2.0, "3", None])
def test_trials_and_limit_must_be_integers(count):
    # Refused up front, as EditKitErrors: 2.5 reached range (TypeError) and
    # islice (ValueError), which distill's callers do not expect.
    with pytest.raises(ContractError, match=re.escape(f"trials must be an integer, got {count!r}")):
        tune_hyperparams(lambda sources, ac, mep: sources, [("a",)], [[[]]], trials=count, seed=1)
    with pytest.raises(ContractError, match=re.escape(f"limit must be an integer, got {count!r}")):
        distill(each(lambda s: s + ("!",)), [("a",), ("b",)], limit=count)


def test_trials_and_limit_take_any_integer_type():
    one = np.int64(1)
    assert len(tune_hyperparams(lambda sources, ac, mep: sources, [("a",)], [[[]]], trials=one, seed=1).trials) == 1
    pairs, stats = distill(each(lambda s: s + ("!",)), [("a",), ("b",)], limit=one)
    assert pairs == [(("a",), ("a", "!"))] and stats.processed == 1


def test_tune_contracts():
    with pytest.raises(ContractError):
        tune_hyperparams(lambda sources, ac, mep: sources, [("a",)], [[[]]], trials=0, seed=1)
    with pytest.raises(ContractError):
        tune_hyperparams(lambda sources, ac, mep: sources, [("a",)], [[[]], [[]]], trials=1, seed=1)
    with pytest.raises(ContractError):
        tune_hyperparams(lambda sources, ac, mep: sources[:1], [("a",), ("b",)], [[[]], [[]]], trials=1, seed=1)
