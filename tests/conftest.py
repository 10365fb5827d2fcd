from __future__ import annotations

import numpy as np
import pytest

from gec_editkit import TagDistribution, TagVocab, VerbLexicon, build_vocab, encode_tags
from gec_editkit.tagger import Tagger, sentence_bounds


@pytest.fixture(scope="session")
def lexicon() -> VerbLexicon:
    return VerbLexicon.bundled()


class OracleTagger:
    """Predicts, with certainty, the encoder's tags toward a fixed target."""

    def __init__(self, target: tuple[str, ...], vocab: TagVocab, lexicon: VerbLexicon | None = None):
        self.target = tuple(target)
        self.vocab = vocab
        self.lexicon = lexicon

    def predict(self, tokens) -> TagDistribution:
        return self.predict_batch([tokens])

    def predict_batch(self, sentences) -> TagDistribution:
        tags = [tag for tokens in sentences for tag in encode_tags(tokens, self.target, self.lexicon)]
        rows = np.zeros((len(tags), len(self.vocab)))
        for p, tag in enumerate(tags):
            rows[p, self.vocab.index_of(tag)] = 1.0
        error_probs = 1.0 - rows[:, self.vocab.keep_index]
        return TagDistribution(self.vocab.sha256, rows, error_probs, sentence_bounds(map(len, sentences))[:-1])


@pytest.fixture
def oracle_tagger_factory():
    def factory(source, target, lexicon=None) -> Tagger:
        vocab = build_vocab([(source, target)], 5000, lexicon)
        return OracleTagger(tuple(target), vocab, lexicon)

    return factory
