"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces each traced public function with a wrapper in
every ``gec_editkit`` module that holds it (the CLI included), and each
traced method on its class.  A wrapper records a span (calls, total time,
self time, i.e. total minus traced children) and the layer's counters, then
returns exactly what the wrapped function returned.  Private names are never
wrapped.  ``uninstall()`` puts the originals back.
"""

from __future__ import annotations

import functools
import os
import sys
from importlib import import_module
from time import perf_counter

from gec_editkit import tagger
from gec_editkit.errors import InapplicableTransformError

# (home module, public function) pairs, with the span name each records.
# Modules go by name: the package re-exports ``distill`` the function under
# the name of its module.
FUNCTIONS = [
    ("_levenshtein", "backtrace_ops", "levenshtein.backtrace_ops"),
    ("align", "extract_edits", "align.extract_edits"),
    ("align", "encode_tags", "align.encode_tags"),
    ("transforms", "apply_transform", "transforms.apply_transform"),
    ("vocab", "build_vocab", "vocab.build_vocab"),
    ("vocab", "read_vocab_file", "vocab.read_vocab_file"),
    ("tagger", "train_baseline", "tagger.train_baseline"),
    ("decode", "select_tags", "decode.select_tags"),
    ("decode", "apply_tags", "decode.apply_tags"),
    ("decode", "run_pipeline", "decode.run_pipeline"),
    ("ensemble", "average_distributions", "ensemble.average_distributions"),
    ("ensemble", "average_correct", "ensemble.average_correct"),
    ("ensemble", "tally_votes", "ensemble.tally_votes"),
    ("ensemble", "majority_vote", "ensemble.majority_vote"),
    ("matrix_io", "read_matrix_file", "matrix_io.read_matrix_file"),
    ("corpus", "read_sentences", "corpus.read"),
    ("corpus", "read_tsv_corpus", "corpus.read"),
    ("corpus", "read_m2", "corpus.read"),
    ("corpus", "write_sentences", "corpus.write"),
    ("corpus", "write_tsv_corpus", "corpus.write"),
    ("score", "score_corpus", "score.score_corpus"),
    ("tune", "tune_hyperparams", "tune.tune_hyperparams"),
    ("distill", "distill", "distill.distill"),
]

METHODS = [
    (tagger.BaselineTagger, "predict", "tagger.predict"),
    (tagger.MatrixTagger, "predict", "tagger.predict"),
    (tagger.TagDistribution, "__post_init__", "tagger.TagDistribution"),
]

DECODERS = ("decode.run_pipeline", "ensemble.average_correct")
ENCODERS = ("vocab.build_vocab", "tagger.train_baseline")

COUNTERS = (
    "levenshtein.cells", "encode.pairs", "encode.passes", "decode.sentences", "decode.passes",
    "decode.changing", "transforms.fallbacks", "train.pairs", "predict.repeats", "matrix.calls",
    "matrix.misses", "ensemble.conflicts_dropped", "matrix.rows", "matrix.bytes", "tune.trials",
    "distill.processed", "distill.emitted", "distill.failed",
)


class Tracer:
    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget all spans and counters (start of a round)."""
        # span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list[float]] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.commands: dict[str, list[float]] = {}
        # Open spans, innermost last: [name, seconds in traced children,
        # a value a child hands up to it (majority_vote keeps its tally)].
        self._stack: list[list] = []
        self._predicted: dict[int, tuple[object, set]] = {}

    # -- spans -------------------------------------------------------------

    def command(self, name: str, run):
        """Run one CLI command as a root span; return what ``run`` returns."""
        self._predicted = {}
        frame = [name, 0.0, None]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return run()
        finally:
            took = perf_counter() - start
            self._stack.pop()
            slot = self.commands.setdefault(name, [0.0, 0.0])
            slot[0] += took
            slot[1] += took - frame[1]

    def _span(self, name: str, fn, args, kwargs, before=None, after=None):
        if before is not None:
            before(self, args, kwargs)
        frame = [name, 0.0, None]
        stack = self._stack
        parent = stack[-1] if stack else None
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except InapplicableTransformError:
            if name == "transforms.apply_transform" and parent is not None and parent[0] == "decode.apply_tags":
                self.counters["transforms.fallbacks"] += 1
            raise
        finally:
            took = perf_counter() - start
            stack.pop()
            if parent is not None:
                parent[1] += took
            slot = self.spans.get(name)
            if slot is None:
                slot = self.spans[name] = [0, 0.0, 0.0]
            slot[0] += 1
            slot[1] += took
            slot[2] += took - frame[1]
        if after is not None:
            after(self, args, kwargs, result, parent, frame)
        return result

    def _wrap(self, fn, name: str):
        before, after = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._span(name, fn, args, kwargs, before, after)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "gec_editkit"]
        functions = list(FUNCTIONS)
        if "gec_editkit._levenshtein_cy" in sys.modules:
            functions.append(("_levenshtein_cy", "backtrace_ops", "levenshtein.backtrace_ops"))
        for home, attr, name in functions:
            original = getattr(import_module(f"gec_editkit.{home}"), attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and not key.startswith("_"):
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


# -- counters recorded at the layer boundaries --------------------------------


def _cells(tr, args, kwargs, result, parent, frame):
    tr.counters["levenshtein.cells"] += (len(args[0]) + 1) * (len(args[1]) + 1)


def _encode(tr, args, kwargs, result, parent, frame):
    if parent is not None and parent[0] in ENCODERS:
        tr.counters["encode.passes"] += 1


def _encoder_pairs(tr, args, kwargs):
    tr.counters["encode.pairs"] += len(args[0])


def _train(tr, args, kwargs):
    _encoder_pairs(tr, args, kwargs)
    tr.counters["train.pairs"] += len(args[0])


def _decoded(tr, args, kwargs, result, parent, frame):
    tr.counters["decode.sentences"] += 1


def _select(tr, args, kwargs, result, parent, frame):
    if parent is not None and parent[0] in DECODERS:
        tr.counters["decode.passes"] += 1


def _apply(tr, args, kwargs, result, parent, frame):
    if parent is not None and parent[0] in DECODERS:
        tr.counters["decode.changing"] += 1


def _predict(tr, args, kwargs):
    model, tokens = args[0], tuple(args[1])
    seen = tr._predicted.setdefault(id(model), (model, set()))[1]
    if tokens in seen:
        tr.counters["predict.repeats"] += 1
    else:
        seen.add(tokens)
    if isinstance(model, tagger.MatrixTagger):
        tr.counters["matrix.calls"] += 1
        if tokens not in model.table:
            tr.counters["matrix.misses"] += 1


def _tally(tr, args, kwargs, result, parent, frame):
    if parent is not None and parent[0] == "ensemble.majority_vote":
        parent[2] = result


def _majority(tr, args, kwargs, result, parent, frame):
    tally = frame[2]
    n_min = args[2] if len(args) > 2 else kwargs["n_min"]
    if tally is not None:
        tr.counters["ensemble.conflicts_dropped"] += len(tally.surviving(n_min)) - len(result)


def _matrix(tr, args, kwargs, result, parent, frame):
    tr.counters["matrix.rows"] += sum(dist.positions for _, dist in result)
    tr.counters["matrix.bytes"] += os.path.getsize(args[0])


def _trials(tr, args, kwargs):
    tr.counters["tune.trials"] += args[3] if len(args) > 3 else kwargs["trials"]


def _distilled(tr, args, kwargs, result, parent, frame):
    stats = result[1]
    tr.counters["distill.processed"] += stats.processed
    tr.counters["distill.emitted"] += stats.emitted
    tr.counters["distill.failed"] += stats.failed


HOOKS = {
    "levenshtein.backtrace_ops": (None, _cells),
    "align.encode_tags": (None, _encode),
    "vocab.build_vocab": (_encoder_pairs, None),
    "tagger.train_baseline": (_train, None),
    "decode.run_pipeline": (None, _decoded),
    "ensemble.average_correct": (None, _decoded),
    "decode.select_tags": (None, _select),
    "decode.apply_tags": (None, _apply),
    "tagger.predict": (_predict, None),
    "ensemble.tally_votes": (None, _tally),
    "ensemble.majority_vote": (None, _majority),
    "matrix_io.read_matrix_file": (None, _matrix),
    "tune.tune_hyperparams": (_trials, None),
    "distill.distill": (None, _distilled),
}
