"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Random suites are seeded, so every run checks the same cases.
"""

import random

import numpy as np
import pytest

from gec_editkit import (
    EditSpan,
    FormatError,
    Hyperparams,
    apply_edits,
    apply_tags,
    average_correct,
    build_vocab,
    encode_tags,
    extract_edits,
    f_beta,
    filter_edit_free,
    majority_vote,
    read_m2,
    read_matrix_file,
    read_tsv_corpus,
    read_vocab_file,
    run_pipeline,
    run_pipeline_batch,
    score_corpus,
    score_sentence,
    select_tags,
    tally_votes,
    train_baseline,
    tune_hyperparams,
    vote_correct,
    write_m2,
    write_matrix_file,
    write_tsv_corpus,
    write_vocab_file,
)
from gec_editkit.cli import main
from gec_editkit.corpus import M2Block, M2Edit
from gec_editkit.score import ScoreReport
from gec_editkit.tags import KEEP

from deskdata import make_corpus
from gen import mutate, random_distribution, random_pair, random_tokens, random_vocab


def report(criterion: int, name: str) -> None:
    print(f"[criterion {criterion}] {name}: PASS")


# --- criterion 1: F-beta reproduction --------------------------------------
#
# Reference triples from the published evaluation of the system family this
# toolkit implements: every (P, R, F0.5) row printed at two-decimal
# precision across its training-stage, encoder, vocabulary-size, both
# ensembling, quorum-sweep, best-ensemble, and benchmark-comparison tables.
# Rows quoted there from other systems carry only one decimal, where
# recomputation from rounded P/R can move F by up to ~0.05, so they cannot
# meet the 0.01 tolerance and are not part of the reproduction set.  One
# quorum-sweep row is excluded as a printing error and pinned separately
# below.

PUBLISHED_TRIPLES = [
    # training stages, Base / Large
    (50.12, 34.04, 45.79), (53.77, 39.23, 50.06), (62.49, 32.26, 52.63),
    (52.11, 37.34, 48.29), (54.85, 42.54, 51.85), (65.76, 33.86, 55.33),
    # encoder comparison, Base / Large
    (57.21, 29.93, 48.39), (61.18, 31.26, 51.35),
    (64.22, 31.87, 53.38), (66.35, 32.77, 55.07),
    (62.49, 32.26, 52.63), (65.76, 33.86, 55.33),
    (63.16, 30.59, 52.07), (64.27, 35.17, 55.14),
    # tag vocabulary sizes
    (66.35, 32.77, 55.07), (65.76, 33.86, 55.33), (64.27, 35.17, 55.14),
    (65.46, 34.59, 55.55), (64.72, 36.04, 55.83), (64.12, 34.02, 54.48),
    # probability-averaging ensembles
    (53.44, 34.91, 48.31), (53.45, 34.3, 48.08), (54.78, 34.87, 49.17),
    (56.34, 33.76, 49.69), (50.12, 34.04, 45.79), (52.11, 37.34, 48.29),
    (54.83, 35.93, 49.61), (54.12, 39.77, 50.48), (53.83, 38.65, 49.91),
    (57.31, 37.41, 51.8), (54.30, 39.95, 50.66), (56.97, 38.52, 51.99),
    # averaging vs span voting across stages
    (54.3, 39.95, 50.66), (56.74, 38.53, 51.84), (58.08, 43.17, 54.33),
    (60.58, 41.92, 55.63), (68.45, 35.56, 57.76), (69.67, 34.51, 57.88),
    # quorum sweep (the 5-member, quorum-4 row is the pinned typo below)
    (44.49, 41.96, 43.96), (57.96, 41.79, 53.79), (67.54, 30.99, 54.65),
    (40.21, 41.68, 40.50), (55.02, 43.14, 52.15), (64.48, 37.49, 56.36),
    (71.71, 27.89, 54.57), (37.20, 40.88, 37.88), (51.77, 43.65, 49.92),
    (61.89, 41.43, 56.33), (73.12, 26.00, 53.67),
    # best single models combined by span voting
    (69.67, 34.51, 57.88), (70.13, 34.23, 57.97),
    (70.71, 33.78, 58.02), (70.32, 34.62, 58.30),
    # the implemented system's rows in the benchmark comparison
    (80.70, 53.39, 73.21), (80.55, 52.27, 72.69), (84.44, 54.42, 76.05),
]


def test_criterion_1_f_beta_reproduces_published_tables():
    assert len(PUBLISHED_TRIPLES) == 56
    for p, r, f in PUBLISHED_TRIPLES:
        assert f_beta(p, r, 0.5) == pytest.approx(f, abs=0.01), (p, r, f)
    # the three triples the criterion names explicitly
    assert f_beta(62.49, 32.26, 0.5) == pytest.approx(52.63, abs=0.01)
    assert f_beta(84.44, 54.42, 0.5) == pytest.approx(76.05, abs=0.01)
    assert f_beta(80.70, 53.39, 0.5) == pytest.approx(73.21, abs=0.01)
    report(1, "f_beta reproduces all 56 published two-decimal triples within 0.01")


def test_criterion_1_pinned_printing_error():
    # The 5-member quorum-4 row prints (P, R, F) = (56.43, 34.43, 56.43):
    # its P equals its F, and no P consistent with the neighbouring rows
    # yields that F from R = 34.43 except P ~= 67.16.  Pin the inconsistency
    # so a silently "fixed" table would be noticed.
    assert f_beta(56.43, 34.43, 0.5) == pytest.approx(50.04, abs=0.01)
    assert f_beta(67.16, 34.43, 0.5) == pytest.approx(56.43, abs=0.01)


# --- criterion 2: round-trip convergence ------------------------------------


def test_criterion_2_round_trip_convergence():
    rng = random.Random(987654321)
    for _ in range(10_000):
        source, target = random_pair(rng, max_len=30)
        assert apply_edits(source, extract_edits(source, target)) == target
        cur = source
        iterations = 0
        while cur != target:
            cur = apply_tags(cur, encode_tags(cur, target))
            iterations += 1
            assert iterations <= len(target) + 1, (source, target)
    report(2, "10,000 random pairs: edit round trip exact, encode/apply converges")


# --- criterion 3: quorum laws ------------------------------------------------


def test_criterion_3_quorum_laws():
    rng = random.Random(246813579)
    for _ in range(1_000):
        source = random_tokens(rng, max_len=12)
        outputs = [mutate(rng, source, rng.random() * 0.5) for _ in range(5)]
        tally = tally_votes(source, outputs)
        surviving = [set(tally.surviving(k)) for k in range(1, 6)]
        for k in range(4):
            assert surviving[k + 1] <= surviving[k]
        member_sets = [set(extract_edits(source, out)) for out in outputs]
        unanimous = set(majority_vote(source, outputs, 5))
        for member in member_sets:
            assert unanimous <= member
        shuffled = outputs[:]
        rng.shuffle(shuffled)
        assert majority_vote(source, shuffled, 3) == majority_vote(source, outputs, 3)
    report(3, "1,000 ensembles: quorum subset law, permutation invariance, unanimity")


# --- criteria 4-6 share the desk-scale corpus -------------------------------

DESK_SEED = 10


@pytest.fixture(scope="module")
def desk():
    pairs = make_corpus(200, seed=DESK_SEED)
    train, heldout = pairs[:150], pairs[150:]
    filtered = filter_edit_free(train)
    vocab = build_vocab(filtered, 5000)
    members = [
        train_baseline(filtered, vocab, context_width=0, smoothing=0.5),
        train_baseline(filtered, vocab, context_width=1, smoothing=0.5),
        train_baseline(filtered, vocab, context_width=2, smoothing=0.1),
    ]
    return train, heldout, vocab, members


def test_criterion_4_averaging_laws(desk):
    _, heldout, _, members = desk
    model = members[1]
    hp = Hyperparams()
    for source, _ in heldout[:30]:
        single = run_pipeline(model, source, hp).output
        for k in (1, 2, 3, 4):
            assert average_correct([model] * k, source, hp) == single
        assert vote_correct(source, [single], 1) == single
    report(4, "k-copy averaging and single-member modes equal the plain pipeline")


def test_criterion_5_inference_tweak_laws():
    rng = random.Random(135792468)
    vocab = random_vocab(rng, extra=14)
    for _ in range(1_000):
        tokens = random_tokens(rng, max_len=8)
        dist = random_distribution(rng, vocab, len(tokens))
        tags = select_tags(dist, vocab, ac=1.0, mep=0.0)
        assert tags.all_keep
        assert apply_tags(tokens, tags) == tokens
    for _ in range(150):
        dist = random_distribution(rng, vocab, rng.randint(0, 8))
        previous = None
        for step in range(21):
            count = sum(1 for t in select_tags(dist, vocab, mep=step / 20) if t != KEEP)
            if previous is not None:
                assert count <= previous
            previous = count
    report(5, "ac=1 forces identity on 1,000 distributions; mep is monotone on a 21-point grid")


def test_criterion_6_desk_scale_pipeline(desk):
    train, heldout, vocab, members = desk
    hp = Hyperparams()
    n_min = 2
    sources = [s for s, _ in heldout]
    gold = [[extract_edits(s, t)] for s, t in heldout]
    assert len(heldout) == 50

    member_scores = []
    member_outputs = []
    for model in members:
        outs = [run_pipeline(model, s, hp).output for s in sources]
        member_outputs.append(outs)
        rep = score_corpus([extract_edits(s, o) for s, o in zip(sources, outs)], gold)
        member_scores.append(rep.f_half)
    vote_outs = [
        vote_correct(s, [outs[i] for outs in member_outputs], n_min)
        for i, s in enumerate(sources)
    ]
    vote_f = score_corpus([extract_edits(s, o) for s, o in zip(sources, vote_outs)], gold).f_half
    mean_f = sum(member_scores) / len(member_scores)
    assert vote_f >= mean_f, (vote_f, member_scores)

    dev_sources = [s for s, _ in train[:60]]
    dev_gold = [[extract_edits(s, t)] for s, t in train[:60]]

    def correct(sources, ac, mep):
        return [r.output for r in run_pipeline_batch(members[1], sources, Hyperparams(ac=ac, mep=mep))]

    result = tune_hyperparams(correct, dev_sources, dev_gold, trials=20, seed=7)
    untuned_f = result.trials[0].report.f_half
    assert result.report.f_half >= untuned_f
    report(6, f"vote F0.5 {vote_f:.3f} >= member mean {mean_f:.3f}; tuned >= untuned")


# --- criterion 7: scorer oracle equivalence ---------------------------------


def oracle_score_corpus(hyp_corpus, gold_corpus):
    """Brute-force reimplementation: plain set comparison per annotator."""
    totals = [0, 0, 0]
    choices = []
    for hyp, gold in zip(hyp_corpus, gold_corpus):
        hyp_set = set(hyp)
        candidates = []
        for ann_id, edits in enumerate(gold if gold else [[]]):
            g = set(edits)
            tp = len(hyp_set & g)
            fp = len(hyp_set) - tp
            fn = len(g) - tp
            p = tp / (tp + fp) if tp + fp else 1.0
            r = tp / (tp + fn) if tp + fn else 1.0
            f = 1.25 * p * r / (0.25 * p + r) if p + r else 0.0
            candidates.append((f, -ann_id, tp, fp, fn, ann_id))
        f, _, tp, fp, fn, ann_id = max(candidates)
        totals[0] += tp
        totals[1] += fp
        totals[2] += fn
        choices.append(ann_id)
    return tuple(totals), choices


def build_scorer_cases():
    rng = random.Random(112358)
    cases = []
    # handcrafted: multi-annotator disagreement, noop, no-annotation, empties
    a, b, c = EditSpan(0, 1, ("x",)), EditSpan(2, 3, ("y",)), EditSpan(4, 4, ("z",))
    cases.append(([a], [[a], [b]]))
    cases.append(([b], [[a], [b]]))
    cases.append(([], [[]]))
    cases.append(([a], []))
    cases.append(([], [[a, b], []]))
    cases.append(([a, b, c], [[a], [a, b, c]]))
    while len(cases) < 100:
        hyp = set()
        for _ in range(rng.randint(0, 4)):
            start = rng.randint(0, 8)
            end = min(8, start + rng.randint(0, 2))
            repl = tuple(rng.choice("pqr") for _ in range(rng.randint(0, 2)))
            if repl or end > start:
                hyp.add(EditSpan(start, end, repl))
        gold = []
        for _ in range(rng.randint(0, 3)):
            ann = set()
            for _ in range(rng.randint(0, 4)):
                start = rng.randint(0, 8)
                end = min(8, start + rng.randint(0, 2))
                repl = tuple(rng.choice("pqr") for _ in range(rng.randint(0, 2)))
                if repl or end > start:
                    ann.add(EditSpan(start, end, repl))
            gold.append(sorted(ann, key=lambda e: (e.start, e.end, e.replacement)))
        cases.append((sorted(hyp, key=lambda e: (e.start, e.end, e.replacement)), gold))
    return cases


def test_criterion_7_scorer_matches_oracle():
    cases = build_scorer_cases()
    assert len(cases) == 100
    hyp_corpus = [hyp for hyp, _ in cases]
    gold_corpus = [gold for _, gold in cases]
    (tp, fp, fn), choices = oracle_score_corpus(hyp_corpus, gold_corpus)
    rep = score_corpus(hyp_corpus, gold_corpus)
    assert (rep.tp, rep.fp, rep.fn) == (tp, fp, fn)
    expected = ScoreReport.from_counts(tp, fp, fn)
    assert rep == expected
    for (hyp, gold), choice in zip(cases, choices):
        assert score_sentence(hyp, gold).annotator == choice
    report(7, "scorer matches the brute-force oracle exactly on 100 sentences")


# --- criterion 8: format fidelity --------------------------------------------


def test_criterion_8_format_fidelity(tmp_path, capsys):
    rng = random.Random(8080)

    # matrix round trip
    vocab = random_vocab(rng)
    records = []
    for _ in range(25):
        n = rng.randint(0, 8)
        tokens = tuple(f"t{rng.randrange(12)}" for _ in range(n))
        dist = random_distribution(rng, vocab, n)
        if tokens not in dict(records):  # a sentence has one record
            records.append((tokens, dist))
    mpath = tmp_path / "m.jsonl"
    write_matrix_file(mpath, vocab, records)
    back = read_matrix_file(mpath, vocab)
    for (ta, da), (tb, db) in zip(records, back):
        assert ta == tb
        assert np.array_equal(da.rows, db.rows)
        assert np.array_equal(da.error_probs, db.error_probs)

    # vocab round trip
    vpath = tmp_path / "v.txt"
    write_vocab_file(vpath, vocab)
    assert read_vocab_file(vpath).tags == vocab.tags

    # tsv round trip
    pairs = [random_pair(rng, max_len=10) for _ in range(60)]
    pairs = [(s, t) for s, t in pairs if s or t]
    tpath = tmp_path / "c.tsv"
    write_tsv_corpus(tpath, pairs)
    assert read_tsv_corpus(tpath) == pairs

    # m2 round trip
    blocks = []
    for _ in range(40):
        source = random_tokens(rng, max_len=8)
        annotations = {}
        for ann in range(rng.randint(0, 3)):
            if rng.random() < 0.2:
                annotations[ann] = ()
                continue
            edits, pos = [], 0
            while pos <= len(source):
                if rng.random() < 0.4:
                    end = min(len(source), pos + rng.randint(0, 2))
                    repl = tuple(rng.choice("uvw") for _ in range(rng.randint(0, 2)))
                    if repl or end > pos:
                        edits.append(M2Edit(EditSpan(pos, end, repl), rng.choice(("R:X", "M:Y"))))
                        pos = end + 1
                        continue
                pos += 1
            annotations[ann] = tuple(edits)
        blocks.append(M2Block(source, annotations))
    m2path = tmp_path / "g.m2"
    write_m2(m2path, blocks)
    assert read_m2(m2path) == blocks

    # malformed inputs: positioned library errors and nonzero CLI exits
    bad_matrix = tmp_path / "bad.jsonl"
    bad_matrix.write_text('{"format": "gec-editkit/matrix-v1", "vocab_sha256": "x", "vocab_size": 3}\nbroken\n')
    with pytest.raises(FormatError) as exc:
        read_matrix_file(bad_matrix)
    assert exc.value.line == 2

    bad_m2 = tmp_path / "bad.m2"
    bad_m2.write_text("S a b\nA 0 9|||R:X|||y|||REQUIRED|||-NONE-|||0\n")
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("a b\n")
    assert main(["score", "--hyp", str(hyp), "--gold", str(bad_m2)]) != 0
    assert ":2:" in capsys.readouterr().err

    bad_tsv = tmp_path / "bad.tsv"
    bad_tsv.write_text("no tab here\n")
    assert main(["filter", "--input", str(bad_tsv), "--output", str(tmp_path / "o.tsv")]) != 0

    bad_vocab = tmp_path / "badv.txt"
    bad_vocab.write_text("gec-editkit/vocab-v1\n$KEEP\njunk\n")
    assert main([
        "correct", "--input", str(hyp), "--output", str(tmp_path / "o.txt"),
        "--vocab", str(bad_vocab), "--tagger", "baseline=whatever.tsv",
    ]) != 0
    capsys.readouterr()
    report(8, "matrix/vocab/TSV/M2 round trips lossless; malformed inputs fail with positions")
