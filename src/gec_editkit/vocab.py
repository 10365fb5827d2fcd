"""Tag vocabularies: frequency-based construction and the vocab file format."""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .align import count_passes
from .corpus import read_lines, write_lines
from .errors import ContractError, FormatError, check_integer
from .spans import TokenSeq
from .tags import DELETE, KEEP, START_KINDS, UNKNOWN, Tag, parse_tag
from .transforms import VerbLexicon

VOCAB_FILE_HEADER = "gec-editkit/vocab-v1"

MANDATORY_TAGS = (KEEP, DELETE, UNKNOWN)


@dataclass(frozen=True)
class TagVocab:
    """Bidirectional tag <-> index map of bounded size.

    KEEP sits at index 0 (so argmax ties favor no-edit); DELETE and UNKNOWN
    are always present.  The content hash identifies the vocab in matrix
    files and guards tagger/decoder agreement.
    """

    tags: tuple[Tag, ...]
    index: dict[Tag, int] = field(init=False, repr=False, compare=False)
    sha256: str = field(init=False, compare=False)
    unknown_index: int = field(init=False, repr=False, compare=False)
    _start_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Frozen as a tuple of Tags: decode.select_batch builds tag sequences
        # from these entries without checking them again.
        object.__setattr__(self, "tags", tuple(self.tags))
        for tag in self.tags:
            if not isinstance(tag, Tag):
                raise ContractError(f"vocab entries must be Tags, got {tag!r}")
        if not self.tags or self.tags[0] != KEEP:
            raise ContractError("vocab must start with $KEEP at index 0")
        index = {tag: i for i, tag in enumerate(self.tags)}
        if len(index) != len(self.tags):
            raise ContractError("vocab contains duplicate tags")
        for must in MANDATORY_TAGS:
            if must not in index:
                raise ContractError(f"vocab is missing mandatory tag {must.text}")
        digest = hashlib.sha256("\n".join([t.text for t in self.tags]).encode("utf-8"))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "unknown_index", index[UNKNOWN])
        object.__setattr__(self, "sha256", digest.hexdigest())
        start_mask = np.array([t.kind in START_KINDS for t in self.tags])
        start_mask.flags.writeable = False
        object.__setattr__(self, "_start_mask", start_mask)

    def __len__(self) -> int:
        return len(self.tags)

    def __contains__(self, tag: Tag) -> bool:
        return tag in self.index

    @property
    def keep_index(self) -> int:
        return 0

    def index_of(self, tag: Tag) -> int:
        """Index of ``tag``, mapping out-of-vocabulary tags to UNKNOWN."""
        return self.index.get(tag, self.unknown_index)

    def start_position_mask(self) -> np.ndarray:
        """Read-only bool array, True for indices selectable at START (START_KINDS)."""
        return self._start_mask


def count_edit_tags(
    pairs: Iterable[tuple[TokenSeq, TokenSeq]],
    lexicon: VerbLexicon | None = None,
) -> Counter[Tag]:
    """Tag frequencies over all encoding passes run to convergence per pair.

    Multi-pass counting makes appends that hide behind other edits (deep
    insertions) show up in the counts.  Each distinct pass is counted once,
    times its count (align.count_passes).
    """
    counts: Counter[Tag] = Counter()
    for (_, tags), copies in count_passes(pairs, lexicon).items():
        counts.update(tags * copies)
    return counts


def build_vocab(
    pairs: Sequence[tuple[TokenSeq, TokenSeq]],
    size_cap: int,
    lexicon: VerbLexicon | None = None,
) -> TagVocab:
    """Vocabulary of the most frequent edit tags, capped at ``size_cap``.

    Mandatory tags (KEEP, DELETE, UNKNOWN) are always included; remaining
    slots go to the highest-frequency tags, ties broken lexicographically by
    formatted tag so the result is stable across platforms.
    """
    if check_integer("size_cap", size_cap) < len(MANDATORY_TAGS):
        raise ContractError(f"size_cap must be at least {len(MANDATORY_TAGS)}, got {size_cap}")
    counts = count_edit_tags(pairs, lexicon)
    candidates = [
        (-count, tag.text, tag)
        for tag, count in counts.items()
        if tag not in MANDATORY_TAGS
    ]
    candidates.sort(key=lambda item: item[:2])
    picked = [tag for _, _, tag in candidates[: size_cap - len(MANDATORY_TAGS)]]
    return TagVocab(MANDATORY_TAGS + tuple(picked))


def write_vocab_file(path: str | Path, vocab: TagVocab) -> None:
    write_lines(path, [VOCAB_FILE_HEADER, *(t.text for t in vocab.tags)])


def read_vocab_file(path: str | Path) -> TagVocab:
    """Read a vocab file, refusing a first tag other than $KEEP or a repeated tag at its line."""
    with read_lines(path) as lines:
        if next(lines, None) != VOCAB_FILE_HEADER:
            raise FormatError(f"missing vocab header {VOCAB_FILE_HEADER!r}")
        first_line: dict[Tag, int] = {}
        for line in lines:
            tag = parse_tag(line)
            if not first_line and tag is not KEEP:
                raise FormatError(f"vocab must start with $KEEP, got {line}")
            seen = first_line.setdefault(tag, lines.lineno)
            if seen != lines.lineno:
                raise FormatError(f"duplicate tag {line}, first at line {seen}")
        return TagVocab(tuple(first_line))
