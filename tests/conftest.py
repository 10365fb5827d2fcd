from __future__ import annotations

import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from gec_editkit import TagDistribution, TagVocab, VerbLexicon, _levenshtein, build_vocab, encode_tags
from gec_editkit.tagger import Tagger

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def lexicon() -> VerbLexicon:
    return VerbLexicon.bundled()


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    compiler = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    include = sysconfig.get_paths()["include"]
    if shutil.which(shlex.split(compiler)[0]) is None or not Path(include, "Python.h").is_file():
        pytest.skip("no C compiler or no Python.h to build the compiled kernel")
    out = tmp_path_factory.mktemp("kernel")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "-b", str(out), "-t", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    built = out / "gec_editkit" / ("_levenshtein_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    # The extension is optional, so a failed compile still exits 0: look for the file.
    if not built.is_file():
        pytest.fail(f"setup.py build_ext did not build the kernel:\n{build.stdout}\n{build.stderr}")
    spec = importlib.util.spec_from_file_location("gec_editkit._levenshtein_c", built)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session", params=["python", "c"])
def kernel(request):
    """Each alignment kernel: the pure-Python one, and the compiled one where it builds."""
    return _levenshtein if request.param == "python" else request.getfixturevalue("compiled")


class OracleTagger:
    """Predicts, with certainty, the encoder's tags toward a fixed target."""

    def __init__(self, target: tuple[str, ...], vocab: TagVocab, lexicon: VerbLexicon | None = None):
        self.target = tuple(target)
        self.vocab = vocab
        self.lexicon = lexicon

    def predict(self, tokens) -> TagDistribution:
        tags = encode_tags(tokens, self.target, self.lexicon)
        rows = np.zeros((len(tags), len(self.vocab)))
        for p, tag in enumerate(tags):
            rows[p, self.vocab.index_of(tag)] = 1.0
        error_probs = 1.0 - rows[:, self.vocab.keep_index]
        return TagDistribution(self.vocab.sha256, rows, error_probs)


@pytest.fixture
def oracle_tagger_factory():
    def factory(source, target, lexicon=None) -> Tagger:
        vocab = build_vocab([(source, target)], 5000, lexicon)
        return OracleTagger(tuple(target), vocab, lexicon)

    return factory
