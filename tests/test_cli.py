import os
import subprocess
import sys
from pathlib import Path

import pytest

from gec_editkit import (
    extract_edits,
    format_tag,
    read_sentences,
    read_tsv_corpus,
    read_vocab_file,
    write_m2,
    write_sentences,
    write_matrix_file,
    write_tsv_corpus,
)
from gec_editkit import cli
from gec_editkit.cli import main
from gec_editkit.corpus import M2Block, M2Edit
from gec_editkit.tagger import MatrixTagger

from deskdata import make_corpus

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def workspace(tmp_path):
    pairs = make_corpus(120, seed=31)
    train, eval_pairs = pairs[:90], pairs[90:]
    train_tsv = tmp_path / "train.tsv"
    write_tsv_corpus(train_tsv, train)
    eval_txt = tmp_path / "eval.txt"
    write_sentences(eval_txt, [s for s, _ in eval_pairs])
    gold_m2 = tmp_path / "gold.m2"
    blocks = [
        M2Block(s, {0: tuple(M2Edit(e) for e in extract_edits(s, t))})
        for s, t in eval_pairs
    ]
    write_m2(gold_m2, blocks)
    targets_txt = tmp_path / "targets.txt"
    write_sentences(targets_txt, [t for _, t in eval_pairs])
    vocab_path = tmp_path / "vocab.txt"
    rc = main(["build-vocab", "--input", str(train_tsv), "--output", str(vocab_path), "--size", "500"])
    assert rc == 0
    return tmp_path, train_tsv, eval_txt, gold_m2, targets_txt, vocab_path, eval_pairs


def test_build_vocab_writes_readable_vocab(workspace):
    *_, vocab_path, _ = workspace
    vocab = read_vocab_file(vocab_path)
    assert len(vocab) >= 4


def test_correct_then_score(workspace, capsys):
    tmp_path, train_tsv, eval_txt, gold_m2, _, vocab_path, _ = workspace
    out = tmp_path / "corrected.txt"
    rc = main([
        "correct", "--input", str(eval_txt), "--output", str(out),
        "--vocab", str(vocab_path), "--tagger", f"baseline={train_tsv},cw=1,sm=0.5",
    ])
    assert rc == 0
    rc = main(["score", "--hyp", str(out), "--gold", str(gold_m2)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    parts = line.split()
    assert parts[0] == "TP" and parts[6] == "P" and parts[10] == "F0.5"
    assert float(parts[11]) > 50.0


def test_score_perfect_hypothesis(workspace, capsys):
    _, _, _, gold_m2, targets_txt, _, _ = workspace
    rc = main(["score", "--hyp", str(targets_txt), "--gold", str(gold_m2)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "P 100.00 R 100.00 F0.5 100.00" in out


def test_encode_apply_round_trip_single_pass(tmp_path):
    # substitution-only pairs converge in one pass
    pairs = [(("he", "go"), ("He", "goes")), (("a", "dog"), ("a", "cat"))]
    tsv = tmp_path / "p.tsv"
    write_tsv_corpus(tsv, pairs)
    tags_path = tmp_path / "tags.txt"
    assert main(["encode", "--input", str(tsv), "--output", str(tags_path)]) == 0
    src_txt = tmp_path / "src.txt"
    write_sentences(src_txt, [s for s, _ in pairs])
    out = tmp_path / "out.txt"
    assert main(["apply", "--source", str(src_txt), "--tags", str(tags_path), "--output", str(out)]) == 0
    assert read_sentences(out) == [t for _, t in pairs]


def test_ensemble_vote_unanimous_members(workspace):
    tmp_path, _, eval_txt, _, targets_txt, _, _ = workspace
    out = tmp_path / "vote.txt"
    rc = main([
        "ensemble", "--mode", "vote", "--source", str(eval_txt), "--output", str(out),
        "--member", str(targets_txt), "--member", str(targets_txt), "--member", str(targets_txt),
        "--n-min", "3",
    ])
    assert rc == 0
    assert out.read_bytes() == targets_txt.read_bytes()


@pytest.mark.parametrize("flag", ["--vocab", "--lexicon", "--ac", "--mep", "--max-iters"])
def test_vote_mode_refuses_flags_it_would_not_read(workspace, capsys, monkeypatch, flag):
    import gec_editkit.cli as cli

    tmp_path, _, eval_txt, _, targets_txt, vocab_path, _ = workspace

    def no_reading(*args, **kwargs):
        raise AssertionError("an input was read")

    for reader in ("read_sentences", "read_vocab_file", "_load_lexicon"):
        monkeypatch.setattr(cli, reader, no_reading)
    out = tmp_path / "vote.txt"
    value = {
        "--vocab": str(vocab_path),
        "--lexicon": str(tmp_path / "missing.tsv"),
        "--ac": "0.9",
        "--mep": "0.9",
        "--max-iters": "7",
    }[flag]
    rc = main([
        "ensemble", "--mode", "vote", "--source", str(eval_txt), "--output", str(out),
        "--member", str(targets_txt), "--member", str(targets_txt), flag, value,
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"error: {flag} is not read by --mode vote" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_ensemble_average_single_member_matches_correct(workspace):
    tmp_path, train_tsv, eval_txt, _, _, vocab_path, _ = workspace
    plain = tmp_path / "plain.txt"
    avg = tmp_path / "avg.txt"
    spec = f"baseline={train_tsv},cw=1,sm=0.5"
    assert main([
        "correct", "--input", str(eval_txt), "--output", str(plain),
        "--vocab", str(vocab_path), "--tagger", spec,
    ]) == 0
    assert main([
        "ensemble", "--mode", "average", "--source", str(eval_txt), "--output", str(avg),
        "--vocab", str(vocab_path), "--member", spec,
    ]) == 0
    assert plain.read_bytes() == avg.read_bytes()


def test_ensemble_average_requires_vocab(workspace):
    tmp_path, train_tsv, eval_txt, *_ = workspace
    rc = main([
        "ensemble", "--mode", "average", "--source", str(eval_txt),
        "--output", str(tmp_path / "x.txt"), "--member", f"baseline={train_tsv}",
    ])
    assert rc != 0


def test_tune_is_byte_reproducible(workspace, capsys):
    _, train_tsv, _, gold_m2, _, vocab_path, _ = workspace
    argv = [
        "tune", "--gold", str(gold_m2), "--vocab", str(vocab_path),
        "--tagger", f"baseline={train_tsv},cw=1", "--trials", "8", "--seed", "7",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("ac ")


def test_distill_emits_only_changed_pairs(workspace, capsys):
    tmp_path, train_tsv, eval_txt, _, _, vocab_path, _ = workspace
    out = tmp_path / "distilled.tsv"
    rc = main([
        "distill", "--input", str(eval_txt), "--output", str(out),
        "--vocab", str(vocab_path), "--member", f"baseline={train_tsv},cw=1",
        "--limit", "5",
    ])
    assert rc == 0
    stats_line = capsys.readouterr().out
    assert "processed" in stats_line and "edited_fraction" in stats_line
    pairs = read_tsv_corpus(out)
    assert 1 <= len(pairs) <= 5
    for s, t in pairs:
        assert s != t


@pytest.mark.parametrize("n_members, n_min", [(3, "5"), (3, "0"), (1, "2")])
def test_out_of_range_quorum_fails_before_any_sentence(workspace, capsys, n_members, n_min):
    tmp_path, train_tsv, eval_txt, _, targets_txt, vocab_path, _ = workspace
    out = tmp_path / "distilled.tsv"
    members = [x for cw in range(n_members) for x in ("--member", f"baseline={train_tsv},cw={cw}")]
    rc = main([
        "distill", "--input", str(eval_txt), "--output", str(out),
        "--vocab", str(vocab_path), *members, "--n-min", n_min, "--limit", "5",
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"n_min must lie in [1, {n_members}], got {n_min}" in captured.err
    assert captured.out == ""
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

    vote_members = [x for _ in range(n_members) for x in ("--member", str(targets_txt))]
    vote_out = tmp_path / "vote.txt"
    rc = main([
        "ensemble", "--mode", "vote", "--source", str(eval_txt), "--output", str(vote_out),
        *vote_members, "--n-min", n_min,
    ])
    assert rc == 1
    assert f"n_min must lie in [1, {n_members}], got {n_min}" in capsys.readouterr().err
    assert not vote_out.exists()


@pytest.mark.parametrize("command", ["ensemble", "distill"])
def test_average_mode_refuses_a_quorum(workspace, capsys, command):
    tmp_path, train_tsv, eval_txt, _, _, vocab_path, _ = workspace
    out = tmp_path / "out.txt"
    io_flags = ["--source", str(eval_txt)] if command == "ensemble" else ["--input", str(eval_txt), "--limit", "5"]
    rc = main([
        command, "--mode", "average", *io_flags, "--output", str(out), "--vocab", str(vocab_path),
        "--member", f"baseline={train_tsv}", "--n-min", "7",
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert "--n-min is the vote mode's quorum" in captured.err
    assert captured.out == ""
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_batched_commands_match_per_sentence_decoding(workspace, capsys):
    import gec_editkit as gk

    tmp_path, train_tsv, eval_txt, gold_m2, _, vocab_path, _ = workspace
    vocab = read_vocab_file(vocab_path)
    train = read_tsv_corpus(train_tsv)
    sentences = read_sentences(eval_txt)
    specs = [f"baseline={train_tsv},cw={cw},sm=0.5" for cw in (0, 1, 2)]
    models = [gk.train_baseline(train, vocab, cw, 0.5) for cw in (0, 1, 2)]
    hp_flags = ["--ac", "0.1", "--mep", "0.2", "--max-iters", "3"]
    hp = gk.Hyperparams(0.1, 0.2, 3)

    def expect(name, outputs):
        path = tmp_path / f"expected.{name}.txt"
        write_sentences(path, outputs)
        return path.read_bytes()

    out = tmp_path / "correct.txt"
    assert main([
        "correct", "--input", str(eval_txt), "--output", str(out), "--vocab", str(vocab_path),
        "--tagger", specs[1], *hp_flags,
    ]) == 0
    assert out.read_bytes() == expect("correct", [gk.run_pipeline(models[1], s, hp).output for s in sentences])

    out = tmp_path / "average.txt"
    members = [x for spec in specs for x in ("--member", spec)]
    assert main([
        "ensemble", "--mode", "average", "--source", str(eval_txt), "--output", str(out),
        "--vocab", str(vocab_path), *members, *hp_flags,
    ]) == 0
    assert out.read_bytes() == expect("average", [gk.average_correct(models, s, hp) for s in sentences])

    capsys.readouterr()
    assert main([
        "tune", "--gold", str(gold_m2), "--vocab", str(vocab_path), "--tagger", specs[1],
        "--trials", "8", "--seed", "7", "--max-iters", "3",
    ]) == 0
    blocks = gk.read_m2(gold_m2)

    def per_sentence(sources, ac, mep):
        return [gk.run_pipeline(models[1], s, gk.Hyperparams(ac, mep, 3)).output for s in sources]

    result = gk.tune_hyperparams(
        per_sentence, [b.source for b in blocks], [b.gold_edit_lists() for b in blocks], 8, 7, gk.Hyperparams(max_iters=3)
    )
    assert capsys.readouterr().out == f"ac {result.best.ac!r} mep {result.best.mep!r}\n{result.report.summary()}\n"

    correct_one = {
        "average": lambda s: gk.average_correct(models, s, hp),
        "vote": lambda s: gk.vote_correct(s, [gk.run_pipeline(m, s, hp).output for m in models], 2),
    }
    for mode, fix in correct_one.items():
        edited = [(s, fix(s)) for s in sentences if fix(s) != s]
        limit = len(edited) // 2
        assert limit >= 2
        # One sentence at a time, stopping at the sentence that reaches the limit.
        processed = sentences.index(edited[limit - 1][0]) + 1
        out = tmp_path / f"distill.{mode}.tsv"
        assert main([
            "distill", "--input", str(eval_txt), "--output", str(out), "--vocab", str(vocab_path),
            *members, "--mode", mode, "--limit", str(limit), *hp_flags,
        ]) == 0
        expected = tmp_path / f"expected.distill.{mode}.tsv"
        gk.write_tsv_corpus(expected, edited[:limit])
        assert out.read_bytes() == expected.read_bytes()
        assert capsys.readouterr().out == gk.DistillStats(processed, limit, 0).summary() + "\n"


def test_single_member_distill_modes_match_correct(workspace, capsys):
    tmp_path, train_tsv, eval_txt, _, _, vocab_path, _ = workspace
    spec = f"baseline={train_tsv},cw=1,sm=0.5"
    plain = tmp_path / "plain.txt"
    assert main([
        "correct", "--input", str(eval_txt), "--output", str(plain),
        "--vocab", str(vocab_path), "--tagger", spec,
    ]) == 0
    corrected = dict(zip(read_sentences(eval_txt), read_sentences(plain)))
    outputs = {}
    for mode in ("average", "vote"):
        outputs[mode] = tmp_path / f"distilled.{mode}.tsv"
        assert main([
            "distill", "--input", str(eval_txt), "--output", str(outputs[mode]),
            "--vocab", str(vocab_path), "--member", spec, "--mode", mode, "--limit", "100",
        ]) == 0
    assert "failed 0" in capsys.readouterr().out
    assert outputs["average"].read_bytes() == outputs["vote"].read_bytes()
    pairs = read_tsv_corpus(outputs["vote"])
    assert pairs
    for source, target in pairs:
        assert target == corrected[source]


def test_members_sharing_a_tsv_are_encoded_once(workspace, monkeypatch):
    import gec_editkit.align as align

    tmp_path, train_tsv, eval_txt, _, _, vocab_path, _ = workspace
    calls = [0]
    real = align._encode_batch

    def counting(pairs, lexicon=None):
        pairs = list(pairs)
        calls[0] += len(pairs)
        return real(pairs, lexicon)

    monkeypatch.setattr(align, "_encode_batch", counting)
    assert main([
        "correct", "--input", str(eval_txt), "--output", str(tmp_path / "one.txt"),
        "--vocab", str(vocab_path), "--tagger", f"baseline={train_tsv}",
    ]) == 0
    one_training = calls[0]
    assert one_training > 0

    # The same members on three copies of the TSV are trained separately.
    copies = []
    for i in range(3):
        copies.append(tmp_path / f"train{i}.tsv")
        copies[-1].write_bytes(train_tsv.read_bytes())
    commands = {
        "average": ["ensemble", "--mode", "average", "--source", str(eval_txt)],
        "distill": ["distill", "--mode", "vote", "--limit", "8", "--input", str(eval_txt)],
    }
    for name, command in commands.items():
        outputs = {}
        for shared in (True, False):
            paths = [train_tsv] * 3 if shared else copies
            members = [x for cw, path in enumerate(paths) for x in ("--member", f"baseline={path},cw={cw},sm=0.5")]
            outputs[shared] = tmp_path / f"{name}.{shared}.out"
            calls[0] = 0
            assert main([*command, "--output", str(outputs[shared]), "--vocab", str(vocab_path), *members]) == 0
            assert calls[0] == (one_training if shared else 3 * one_training)
        assert outputs[True].read_bytes() == outputs[False].read_bytes()


@pytest.mark.parametrize("command, flag, message", [
    ("distill", "--limit", "limit must be >= 1, got 0"),
    ("tune", "--trials", "trials must be >= 1, got 0"),
    ("correct", "--max-iters", "max_iters must be >= 1, got 0"),
    ("tune", "--max-iters", "max_iters must be >= 1, got 0"),
    ("ensemble", "--max-iters", "max_iters must be >= 1, got 0"),
])
def test_bad_counts_fail_before_any_input_is_read(workspace, capsys, monkeypatch, command, flag, message):
    import gec_editkit.cli as cli

    tmp_path, train_tsv, eval_txt, gold_m2, _, vocab_path, _ = workspace

    def no_reading(*args, **kwargs):
        raise AssertionError("an input was read")

    for reader in ("read_tsv_corpus", "read_vocab_file", "read_sentences", "read_m2"):
        monkeypatch.setattr(cli, reader, no_reading)
    out = tmp_path / "distilled.tsv"
    io_flags = {
        "distill": ["--input", str(eval_txt), "--output", str(out), "--member", f"baseline={train_tsv}"],
        # A flag given twice takes its last value, so --trials 0 still wins.
        "tune": ["--gold", str(gold_m2), "--tagger", f"baseline={train_tsv}", "--trials", "1"],
        "correct": ["--input", str(eval_txt), "--output", str(out), "--tagger", f"baseline={train_tsv}"],
        "ensemble": ["--mode", "average", "--source", str(eval_txt), "--output", str(out),
                     "--member", f"baseline={train_tsv}"],
    }[command]
    rc = main([command, *io_flags, "--vocab", str(vocab_path), flag, "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_module_runs_the_cli(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    tsv = tmp_path / "t.tsv"
    write_tsv_corpus(tsv, [(("he", "go"), ("he", "goes"))])
    vocab_path = tmp_path / "v.txt"
    module = [sys.executable, "-m", "gec_editkit.cli"]
    done = subprocess.run(
        [*module, "build-vocab", "--input", str(tsv), "--output", str(vocab_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "$REPLACE_goes" in [format_tag(t) for t in read_vocab_file(vocab_path).tags]
    done = subprocess.run([*module, "--bogus"], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "usage:" in done.stderr


def test_filter_drops_identical_pairs(tmp_path):
    tsv = tmp_path / "in.tsv"
    write_tsv_corpus(tsv, [(("a",), ("a",)), (("a",), ("b",)), (("c", "d"), ("c", "d"))])
    out = tmp_path / "out.tsv"
    assert main(["filter", "--input", str(tsv), "--output", str(out)]) == 0
    assert read_tsv_corpus(out) == [(("a",), ("b",))]


def test_missing_file_fails_cleanly(tmp_path, capsys):
    rc = main(["filter", "--input", str(tmp_path / "nope.tsv"), "--output", str(tmp_path / "o.tsv")])
    assert rc != 0
    assert "error:" in capsys.readouterr().err


def test_malformed_m2_reports_position(workspace, capsys, tmp_path):
    _, _, _, _, targets_txt, _, _ = workspace
    bad = tmp_path / "bad.m2"
    bad.write_text("S a b\nA zero 2|||R:X|||y|||REQUIRED|||-NONE-|||0\n", encoding="utf-8")
    rc = main(["score", "--hyp", str(targets_txt), "--gold", str(bad)])
    assert rc != 0
    err = capsys.readouterr().err
    assert "error:" in err and ":2:" in err


def test_malformed_tags_leave_no_partial_output(tmp_path, capsys):
    src = tmp_path / "src.txt"
    write_sentences(src, [("a",), ("b",)])
    tags = tmp_path / "tags.txt"
    tags.write_text("$KEEP $KEEP\n$KEEP NONSENSE\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    rc = main(["apply", "--source", str(src), "--tags", str(tags), "--output", str(out)])
    assert rc != 0
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


@pytest.mark.parametrize("second_line, message", [
    ("$KEEP $BOGUS_x", "malformed tag '$BOGUS_x'"),
    ("$KEEP", "1 tags for 1 tokens (need tokens + 1)"),
], ids=["malformed-tag", "tag-count"])
def test_bad_tag_lines_are_reported_at_their_line(tmp_path, capsys, second_line, message):
    src = tmp_path / "src.txt"
    write_sentences(src, [("a",), ("b",)])
    tags = tmp_path / "tags.txt"
    tags.write_text(f"$KEEP $KEEP\n{second_line}\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    rc = main(["apply", "--source", str(src), "--tags", str(tags), "--output", str(out)])
    assert rc == 1
    assert f"error: {tags}:2: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_count_mismatches_name_both_files(workspace, capsys):
    tmp_path, _, eval_txt, gold_m2, targets_txt, _, eval_pairs = workspace
    short = tmp_path / "short.txt"
    write_sentences(short, [t for _, t in eval_pairs[:-1]])
    assert main(["score", "--hyp", str(short), "--gold", str(gold_m2)]) == 1
    err = capsys.readouterr().err
    assert str(short) in err and str(gold_m2) in err

    tags = tmp_path / "tags.txt"
    tags.write_text("$KEEP\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["apply", "--source", str(eval_txt), "--tags", str(tags), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(eval_txt) in err and str(tags) in err
    assert not out.exists()


def test_bad_tagger_spec_fails(workspace, capsys):
    tmp_path, train_tsv, eval_txt, _, _, vocab_path, _ = workspace

    def run(spec):
        return main([
            "correct", "--input", str(eval_txt), "--output", str(tmp_path / "o.txt"),
            "--vocab", str(vocab_path), "--tagger", spec,
        ])

    assert run("nonsense") != 0
    assert "tagger spec" in capsys.readouterr().err
    assert run(f"baseline={train_tsv},xx=3") != 0
    assert "unknown baseline option" in capsys.readouterr().err
    assert run(f"baseline={train_tsv},cw=abc") != 0
    assert "bad numeric option" in capsys.readouterr().err


@pytest.mark.parametrize("bad, message", [
    ("nonsense", "tagger spec"),
    ("baseline={},cw=-1", "context_width must be >= 0"),
    ("baseline={},sm=0", "smoothing must be positive"),
])
def test_a_bad_member_spec_fails_before_any_member_is_trained(workspace, capsys, monkeypatch, bad, message):
    import gec_editkit.cli as cli

    tmp_path, train_tsv, eval_txt, _, _, vocab_path, _ = workspace

    def no_training(*args, **kwargs):
        raise AssertionError("a member was trained")

    monkeypatch.setattr(cli, "train_baselines", no_training)
    members = ["--member", f"baseline={train_tsv}", "--member", f"baseline={train_tsv},cw=2", "--member", bad.format(train_tsv)]
    out = tmp_path / "distilled.tsv"
    rc = main(["distill", "--input", str(eval_txt), "--output", str(out), "--vocab", str(vocab_path), *members, "--limit", "5"])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sm", ["inf", "nan"])
def test_a_non_finite_smoothing_is_refused_before_training(workspace, sm):
    # Run as a process so stderr holds everything the command prints,
    # warnings included: an inf smoothing once trained and then failed in
    # predict with a numpy RuntimeWarning.
    tmp_path, train_tsv, eval_txt, _, _, vocab_path, _ = workspace
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = tmp_path / "o.txt"
    done = subprocess.run(
        [sys.executable, "-m", "gec_editkit.cli", "correct", "--input", str(eval_txt), "--output", str(out),
         "--vocab", str(vocab_path), "--tagger", f"baseline={train_tsv},sm={sm}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr == "error: smoothing must be positive and finite so unseen contexts stay normalized\n"
    assert done.stdout == ""
    assert not out.exists()


def test_a_smoothing_that_overflows_a_row_sum_is_refused_before_training(workspace):
    # Run as a process so stderr holds everything the command prints: sm=1e308
    # once trained and then failed in predict with a numpy RuntimeWarning and
    # a row that summed to 0.
    tmp_path, train_tsv, eval_txt, _, _, vocab_path, _ = workspace
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = tmp_path / "o.txt"
    done = subprocess.run(
        [sys.executable, "-m", "gec_editkit.cli", "correct", "--input", str(eval_txt), "--output", str(out),
         "--vocab", str(vocab_path), "--tagger", f"baseline={train_tsv},sm=1e308"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    size = len(read_vocab_file(vocab_path))
    assert done.returncode == 1
    assert done.stderr == (
        f"error: smoothing 1e+308 over a vocab of {size} tags overflows a row's sum; "
        "smoothing * vocab size must stay within half the largest float\n"
    )
    assert done.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("spec", ["baseline={},cw=0,cw=1", "baseline={},sm=0.5,cw=1,sm=0.5"])
def test_a_repeated_spec_option_is_refused(workspace, capsys, monkeypatch, spec):
    import gec_editkit.cli as cli

    tmp_path, train_tsv, eval_txt, _, _, vocab_path, _ = workspace

    def no_training(*args, **kwargs):
        raise AssertionError("a member was trained")

    monkeypatch.setattr(cli, "train_baselines", no_training)
    spec = spec.format(train_tsv)
    out = tmp_path / "o.txt"
    rc = main(["correct", "--input", str(eval_txt), "--output", str(out), "--vocab", str(vocab_path), "--tagger", spec])
    assert rc == 1
    err = capsys.readouterr().err
    assert "given twice" in err and repr(spec) in err
    assert not out.exists()


def test_matrix_file_tagger_through_cli(workspace):
    # Simulate an external model: dump a tagger's rows for the input
    # sentences (plus their one-pass corrections, so a second pass can fire)
    # and correct from the file alone.
    import gec_editkit as gk

    tmp_path, train_tsv, eval_txt, _, _, vocab_path, _ = workspace
    vocab = read_vocab_file(vocab_path)
    model = gk.train_baseline(read_tsv_corpus(train_tsv), vocab, context_width=1, smoothing=0.5)
    sentences = read_sentences(eval_txt)
    records = {}
    for sent in sentences:
        records.setdefault(sent, model.predict(sent))
        one_pass = gk.run_pipeline(model, sent, gk.Hyperparams(max_iters=1)).output
        records.setdefault(one_pass, model.predict(one_pass))
    matrix_path = tmp_path / "external.jsonl"
    gk.write_matrix_file(matrix_path, vocab, list(records.items()))

    out = tmp_path / "matrix_corrected.txt"
    rc = main([
        "correct", "--input", str(eval_txt), "--output", str(out),
        "--vocab", str(vocab_path), "--tagger", f"matrix={matrix_path}",
    ])
    assert rc == 0
    expected = [gk.run_pipeline(model, s, gk.Hyperparams(max_iters=2)).output for s in sentences]
    assert read_sentences(out) == expected


def test_matrix_file_with_a_repeated_sentence_fails_at_its_line(workspace, capsys):
    tmp_path, _, eval_txt, _, _, vocab_path, _ = workspace
    vocab = read_vocab_file(vocab_path)
    sentence = read_sentences(eval_txt)[0]
    matrix_path = tmp_path / "external.jsonl"
    write_matrix_file(matrix_path, vocab, [(sentence, MatrixTagger(vocab, {}).predict(sentence))])
    header, record = matrix_path.read_text(encoding="utf-8").splitlines()
    matrix_path.write_text("\n".join([header, record, record]) + "\n", encoding="utf-8")

    out = tmp_path / "matrix_corrected.txt"
    rc = main([
        "correct", "--input", str(eval_txt), "--output", str(out),
        "--vocab", str(vocab_path), "--tagger", f"matrix={matrix_path}",
    ])
    assert rc == 1
    assert f"{matrix_path}:3: repeated record for" in capsys.readouterr().err
    assert not out.exists()


def test_lexicon_flag_enables_verb_tags(tmp_path):
    lex = tmp_path / "verbs.tsv"
    lex.write_text("go\tVBZ\tgoes\n", encoding="utf-8")
    tsv = tmp_path / "p.tsv"
    write_tsv_corpus(tsv, [(("they", "go"), ("they", "goes"))])
    tags_out = tmp_path / "tags.txt"
    assert main(["encode", "--input", str(tsv), "--output", str(tags_out), "--lexicon", str(lex)]) == 0
    assert "$TRANSFORM_VERB_VB_VBZ" in tags_out.read_text(encoding="utf-8")
    assert main(["encode", "--input", str(tsv), "--output", str(tags_out)]) == 0
    assert "$REPLACE_goes" in tags_out.read_text(encoding="utf-8")


def test_atomic_output_cleans_up_on_failure(tmp_path):
    from gec_editkit.corpus import atomic_output as _atomic_output

    target = tmp_path / "out.txt"
    with pytest.raises(RuntimeError):
        with _atomic_output(str(target)) as tmp:
            tmp.write_text("partial")
            raise RuntimeError("boom")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0


# A valid argument list for each subcommand, every option given once.
_VALID_ARGS = {
    "build-vocab": ["--input", "i", "--output", "o", "--size", "9", "--lexicon", "l"],
    "encode": ["--input", "i", "--output", "o"],
    "apply": ["--source", "s", "--tags", "t", "--output", "o"],
    "correct": ["--input", "i", "--output", "o", "--vocab", "v", "--tagger", "baseline=t", "--ac", "0.5"],
    "ensemble": ["--mode", "vote", "--source", "s", "--output", "o", "--member", "a", "--member", "b", "--n-min", "1"],
    "score": ["--hyp", "h", "--gold", "g"],
    "tune": ["--gold", "g", "--vocab", "v", "--tagger", "t", "--trials", "2", "--max-iters", "3"],
    "distill": ["--input", "i", "--output", "o", "--vocab", "v", "--member", "m", "--limit", "3", "--mode", "average"],
    "filter": ["--input", "i", "--output", "o"],
}


def test_the_valid_args_cover_every_subcommand():
    assert list(_VALID_ARGS) == list(cli.SUBCOMMANDS)


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["frobnicate"], ["--nope"],
    *([name, *extra] for name in _VALID_ARGS for extra in (
        [],  # every required argument missing
        ["--help"],
        _VALID_ARGS[name],
        [*_VALID_ARGS[name], "--mode", "neither"],  # a bad choice, or an option the command lacks
        [*_VALID_ARGS[name], "stray"],  # an argument left over, which the top-level parser reports
        [*_VALID_ARGS[name][:-1], "x"],  # a bad value for the last option given
    )),
], ids=lambda argv: "_".join(argv) or "no-args")
def test_the_per_command_parser_parses_and_fails_as_the_full_one(argv, capsys, monkeypatch):
    # main builds the named subcommand's parser alone.  What it parses, and
    # every help text, usage, error and exit code, must be the full parser's.
    ran = []
    for name in [name for name in vars(cli) if name.startswith("cmd_")]:
        monkeypatch.setattr(cli, name, lambda args: ran.append(vars(args)) or 0)
    built = []
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or full_parser(command))

    def outcome(parse):
        try:
            result = parse()
        except SystemExit as exc:
            result = exc.code
        return result, *capsys.readouterr()

    got = outcome(lambda: cli.main(argv) or ran.pop())
    want = outcome(lambda: vars(full_parser().parse_args(argv)))
    assert got == want
    assert built == [argv[0] if argv and argv[0] in cli.SUBCOMMANDS else None]
