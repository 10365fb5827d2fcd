"""The CLI runs each command with the cyclic garbage collector paused.

That is safe only while a command's data holds no reference cycle, so that
reference counting frees all of it.  These tests run every subcommand, a
command that fails on a bad input and a distill run whose sentences fail one
by one, each with the collector disabled, and then ask the collector what
was left: nothing may be.  A failure names the leaked objects' types.
"""

import gc
from collections import Counter

import pytest

from gec_editkit import (
    extract_edits,
    read_vocab_file,
    train_baseline,
    write_m2,
    write_matrix_file,
    write_sentences,
    write_tsv_corpus,
)
from gec_editkit import cli
from gec_editkit.corpus import M2Block, M2Edit
from gec_editkit.errors import InputError

from deskdata import make_corpus


def _cyclic_garbage(run):
    """``run()``'s result, with what it left for the cyclic collector: (objects found, counts by type)."""
    gc.collect()
    gc.disable()
    try:
        result = run()
        # Saved, not freed, so the failure message can name them.
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        kinds = Counter(f"{type(obj).__module__}.{type(obj).__qualname__}" for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return result, found, kinds


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """A small desk corpus and every file the subcommands read."""
    root = tmp_path_factory.mktemp("desk")
    pairs = make_corpus(80, seed=3)
    train, dev = pairs[:60], pairs[60:]
    files = {name: root / name for name in (
        "train.tsv", "sources.txt", "dev.txt", "gold.m2", "vocab.txt", "tags.txt", "matrix.jsonl", "mono.txt",
    )}
    write_tsv_corpus(files["train.tsv"], train)
    write_sentences(files["sources.txt"], [source for source, _ in train])
    write_sentences(files["dev.txt"], [source for source, _ in dev])
    write_sentences(files["mono.txt"], [source for source, _ in pairs])
    write_m2(files["gold.m2"], [M2Block(s, {0: tuple(map(M2Edit, extract_edits(s, t)))}) for s, t in dev])
    assert cli.main(["build-vocab", "--input", str(files["train.tsv"]), "--output", str(files["vocab.txt"])]) == 0
    assert cli.main(["encode", "--input", str(files["train.tsv"]), "--output", str(files["tags.txt"])]) == 0
    vocab = read_vocab_file(files["vocab.txt"])
    model = train_baseline(train, vocab)
    write_matrix_file(files["matrix.jsonl"], vocab, [(s, model.predict(s)) for s, _ in dev])
    for k in range(3):
        files[f"member{k}.txt"] = root / f"member{k}.txt"
        cmd = ["correct", "--input", str(files["dev.txt"]), "--output", str(files[f"member{k}.txt"]),
               "--vocab", str(files["vocab.txt"]), "--tagger", f"baseline={files['train.tsv']},cw={k}"]
        assert cli.main(cmd) == 0
    (root / "bad.tsv").write_text("a b\tc\nno tab here\n", encoding="utf-8")
    (root / "bad.m2").write_text("S a b\nA 0 1|||R|||c|||REQUIRED|||-NONE-|||+0\n", encoding="utf-8")
    (root / "latin1.txt").write_bytes(b"a b\ncaf\xe9\n")
    files.update(root=root, bad_tsv=root / "bad.tsv", bad_m2=root / "bad.m2", latin1=root / "latin1.txt")
    return files


def _commands(f):
    out = f["root"]
    baseline = f"baseline={f['train.tsv']}"
    members = [arg for k in range(3) for arg in ("--member", f"{baseline},cw={k}")]
    return {
        "build-vocab": ["build-vocab", "--input", f["train.tsv"], "--output", out / "v.txt"],
        "encode": ["encode", "--input", f["train.tsv"], "--output", out / "t.txt"],
        "apply": ["apply", "--source", f["sources.txt"], "--tags", f["tags.txt"], "--output", out / "a.txt"],
        "correct-baseline": ["correct", "--input", f["dev.txt"], "--output", out / "c.txt",
                             "--vocab", f["vocab.txt"], "--tagger", f"{baseline},cw=1"],
        "correct-matrix": ["correct", "--input", f["dev.txt"], "--output", out / "m.txt",
                           "--vocab", f["vocab.txt"], "--tagger", f"matrix={f['matrix.jsonl']}"],
        "ensemble-average": ["ensemble", "--mode", "average", "--source", f["dev.txt"], "--output", out / "avg.txt",
                             "--vocab", f["vocab.txt"], *members, "--member", f"matrix={f['matrix.jsonl']}"],
        "ensemble-vote": ["ensemble", "--mode", "vote", "--source", f["dev.txt"], "--output", out / "vote.txt",
                          *[arg for k in range(3) for arg in ("--member", f[f"member{k}.txt"])]],
        "score": ["score", "--hyp", f["member0.txt"], "--gold", f["gold.m2"]],
        "tune": ["tune", "--gold", f["gold.m2"], "--vocab", f["vocab.txt"], "--tagger", f"{baseline},cw=1",
                 "--trials", "3"],
        "distill-vote": ["distill", "--input", f["mono.txt"], "--output", out / "dv.tsv", "--vocab", f["vocab.txt"],
                         *members, "--limit", "30"],
        "distill-average": ["distill", "--input", f["mono.txt"], "--output", out / "da.tsv",
                            "--vocab", f["vocab.txt"], *members, "--mode", "average", "--limit", "30"],
        "filter": ["filter", "--input", f["train.tsv"], "--output", out / "f.tsv"],
    }


COMMANDS = (
    "build-vocab", "encode", "apply", "correct-baseline", "correct-matrix", "ensemble-average",
    "ensemble-vote", "score", "tune", "distill-vote", "distill-average", "filter",
)


def _run(argv):
    return cli.main([str(arg) for arg in argv])


def test_every_subcommand_is_covered(desk):
    commands = _commands(desk)
    assert set(commands) == set(COMMANDS)
    funcs = {cli.build_parser().parse_args([str(arg) for arg in argv]).func for argv in commands.values()}
    assert funcs == {value for name, value in vars(cli).items() if name.startswith("cmd_")}


@pytest.mark.parametrize("name", COMMANDS)
def test_a_command_leaves_no_cyclic_garbage(desk, name, capsys):
    code, found, kinds = _cyclic_garbage(lambda: _run(_commands(desk)[name]))
    assert code == 0, capsys.readouterr().err
    assert found == 0, f"{name} left {found} objects in reference cycles: {kinds.most_common(8)}"


@pytest.mark.parametrize("name", ["bad-tsv", "bad-m2", "not-utf8", "missing-file", "bad-spec", "length-mismatch"])
def test_a_failed_command_leaves_no_cyclic_garbage(desk, name, capsys):
    out = desk["root"]
    argv = {
        "bad-tsv": ["build-vocab", "--input", desk["bad_tsv"], "--output", out / "never.txt"],
        "bad-m2": ["score", "--hyp", desk["member0.txt"], "--gold", desk["bad_m2"]],
        "not-utf8": ["correct", "--input", desk["latin1"], "--output", out / "never.txt",
                     "--vocab", desk["vocab.txt"], "--tagger", f"baseline={desk['train.tsv']}"],
        "missing-file": ["filter", "--input", out / "absent.tsv", "--output", out / "never.tsv"],
        "bad-spec": ["correct", "--input", desk["dev.txt"], "--output", out / "never.txt",
                     "--vocab", desk["vocab.txt"], "--tagger", f"baseline={desk['train.tsv']},cw=-1"],
        "length-mismatch": ["ensemble", "--mode", "vote", "--source", desk["dev.txt"], "--output", out / "never.txt",
                            "--member", desk["sources.txt"]],
    }[name]
    code, found, kinds = _cyclic_garbage(lambda: _run(argv))
    assert code == 1 and capsys.readouterr().err.startswith("error: ")
    assert not (out / "never.txt").exists() and not (out / "never.tsv").exists()
    assert found == 0, f"{name} left {found} objects in reference cycles: {kinds.most_common(8)}"


def test_a_distill_whose_sentences_fail_one_by_one_leaves_no_cyclic_garbage(desk, monkeypatch, capsys):
    # Every chunk holding a refused sentence fails and is retried sentence by
    # sentence, so each refused sentence raises twice: garbage kept by a
    # caught error would grow with the corpus.
    refused = set(_sentences(desk["mono.txt"])[::4])
    real = cli.run_pipeline_batch

    def refusing(tagger, sentences, hp, lexicon):
        for tokens in sentences:
            if tuple(tokens) in refused:
                raise InputError(f"refused {' '.join(tokens)!r}")
        return real(tagger, sentences, hp, lexicon)

    monkeypatch.setattr(cli, "run_pipeline_batch", refusing)
    code, found, kinds = _cyclic_garbage(lambda: _run(_commands(desk)["distill-vote"]))
    assert code == 0
    failed = int(capsys.readouterr().out.split("failed ")[1].split()[0])
    assert failed >= 5
    assert found == 0, f"distill left {found} objects in reference cycles: {kinds.most_common(8)}"


def _sentences(path):
    return [tuple(line.split()) for line in path.read_text(encoding="utf-8").splitlines()]


def test_parsing_alone_leaves_cyclic_garbage_for_main_to_free(desk):
    # The parser's graph is cyclic; the commands above leave nothing because
    # main collects it before the command runs.
    argv = [str(arg) for arg in _commands(desk)["filter"]]
    _, found, _ = _cyclic_garbage(lambda: cli.build_parser().parse_args(argv))
    assert found > 0


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", ["ok", "error", "crash"])
def test_main_leaves_the_collector_as_it_found_it(desk, monkeypatch, enabled, outcome, capsys):
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        if outcome == "crash":
            raise RuntimeError("a bug")
        if outcome == "error":
            raise InputError("bad input")
        return 0

    monkeypatch.setattr(cli, "cmd_filter", command)
    argv = [str(arg) for arg in _commands(desk)["filter"]]
    was = gc.isenabled()
    try:
        if not enabled:
            gc.disable()
        if outcome == "crash":
            with pytest.raises(RuntimeError):
                cli.main(argv)
        else:
            assert cli.main(argv) == (0 if outcome == "ok" else 1)
        assert seen == [False]
        assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()
