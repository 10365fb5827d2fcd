import random

import pytest

from gec_editkit import ContractError, EditSpan, InputError, distill, extract_edits, tune_hyperparams
from gec_editkit.decode import Hyperparams

from gen import random_tokens


def test_distill_identity_corrector_emits_nothing():
    rng = random.Random(1)
    sentences = [random_tokens(rng, max_len=8) for _ in range(30)]
    pairs, stats = distill(lambda s: s, sentences, limit=10)
    assert pairs == []
    assert stats.processed == 30
    assert stats.emitted == 0
    assert stats.edited_fraction == 0.0


def test_distill_limit_semantics():
    def fixer(tokens):
        return tokens[1:] if tokens and tokens[0] == "BAD" else tokens

    sentences = [("BAD", "a"), ("ok",), ("BAD", "b"), ("BAD", "c"), ("ok", "too"), ("BAD", "d")]
    sentences += [("BAD", str(i)) for i in range(10)]
    pairs, stats = distill(fixer, sentences, limit=5)
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
    pairs, _ = distill(flaky_fixer, sentences, limit=1000)
    for source, output in pairs:
        assert extract_edits(source, output) != []


def test_distill_counts_and_skips_failures():
    def brittle(tokens):
        if "boom" in tokens:
            raise InputError("nope")
        return tokens + ("!",)

    sentences = [("a",), ("boom",), ("b",), ("boom", "x")]
    pairs, stats = distill(brittle, sentences, limit=100)
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
        distill(buggy, [("a",), ("boom",), ("b",)], limit=100)


def test_distill_limit_contract():
    with pytest.raises(ContractError):
        distill(lambda s: s, [], limit=0)


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
    pairs, stats = distill(fixer, sentences, limit=1000)
    recount = sum(1 for s in sentences if extract_edits(s, fixer(s)) != [])
    assert stats.emitted == recount == 30
    assert stats.edited_fraction == pytest.approx(0.30)


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


def test_tune_contracts():
    with pytest.raises(ContractError):
        tune_hyperparams(lambda sources, ac, mep: sources, [("a",)], [[[]]], trials=0, seed=1)
    with pytest.raises(ContractError):
        tune_hyperparams(lambda sources, ac, mep: sources, [("a",)], [[[]], [[]]], trials=1, seed=1)
    with pytest.raises(ContractError):
        tune_hyperparams(lambda sources, ac, mep: sources[:1], [("a",), ("b",)], [[[]], [[]]], trials=1, seed=1)
