"""Edit-tag grammatical error correction toolkit.

Corrections are encoded as per-token edit tags ($KEEP, $DELETE, $APPEND_t,
$REPLACE_t, and token-general transforms), decoded by an iterative
predict/select/apply pipeline, combined across models by probability
averaging or quorum span voting, and evaluated with span-level F0.5.
Neural models stay outside the package: they communicate through matrix
files of tag probabilities, and a count-based baseline tagger makes the
whole system runnable end to end at desk scale.
"""

from .align import encode_tags, encode_tags_batch, extract_edits, extract_edits_batch
from .corpus import (
    M2Block,
    M2Edit,
    ParallelCorpus,
    filter_edit_free,
    read_m2,
    read_sentences,
    read_tsv_corpus,
    write_m2,
    write_sentences,
    write_tsv_corpus,
)
from .decode import CorrectionResult, Hyperparams, apply_tags, run_pipeline, run_pipeline_batch, select_tags
from .distill import DistillStats, distill
from .ensemble import (
    VoteTally,
    average_correct,
    average_correct_batch,
    average_distributions,
    majority_vote,
    tally_votes,
    vote_correct,
    vote_correct_batch,
)
from .errors import (
    ContractError,
    EditKitError,
    EditOverlapError,
    FormatError,
    InapplicableTransformError,
    InputError,
    SpanRangeError,
    TagParseError,
)
from .matrix_io import read_matrix_file, write_matrix_file
from .score import ScoreReport, SentenceScore, f_beta, score_corpus, score_sentence
from .spans import EditSpan, TokenSeq, apply_edits, validate_tokens
from .tagger import BaselineTagger, MatrixTagger, TagDistribution, Tagger, train_baseline, train_baselines
from .tags import Tag, TagKind, TagSeq, format_tag, parse_tag
from .transforms import VerbLexicon, apply_transform, detect_transform
from .tune import TuneResult, tune_hyperparams
from .vocab import TagVocab, build_vocab, read_vocab_file, write_vocab_file

__version__ = "0.1.0"

__all__ = [
    "BaselineTagger",
    "ContractError",
    "CorrectionResult",
    "DistillStats",
    "EditKitError",
    "EditOverlapError",
    "EditSpan",
    "FormatError",
    "Hyperparams",
    "InapplicableTransformError",
    "InputError",
    "M2Block",
    "M2Edit",
    "MatrixTagger",
    "ParallelCorpus",
    "ScoreReport",
    "SentenceScore",
    "SpanRangeError",
    "Tag",
    "TagDistribution",
    "TagKind",
    "TagParseError",
    "TagSeq",
    "TagVocab",
    "Tagger",
    "TokenSeq",
    "TuneResult",
    "VerbLexicon",
    "VoteTally",
    "apply_edits",
    "apply_tags",
    "apply_transform",
    "average_correct",
    "average_correct_batch",
    "average_distributions",
    "build_vocab",
    "detect_transform",
    "distill",
    "encode_tags",
    "encode_tags_batch",
    "extract_edits",
    "extract_edits_batch",
    "f_beta",
    "filter_edit_free",
    "format_tag",
    "majority_vote",
    "parse_tag",
    "read_m2",
    "read_matrix_file",
    "read_sentences",
    "read_tsv_corpus",
    "read_vocab_file",
    "run_pipeline",
    "run_pipeline_batch",
    "score_corpus",
    "score_sentence",
    "select_tags",
    "tally_votes",
    "train_baseline",
    "train_baselines",
    "tune_hyperparams",
    "validate_tokens",
    "vote_correct",
    "vote_correct_batch",
    "write_m2",
    "write_matrix_file",
    "write_sentences",
    "write_tsv_corpus",
    "write_vocab_file",
]
