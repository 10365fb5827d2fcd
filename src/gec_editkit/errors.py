"""Exception types shared across the toolkit, and its one integer check."""

from __future__ import annotations

from operator import index


class EditKitError(Exception):
    """Base class for all errors raised by gec_editkit."""


class TagParseError(EditKitError, ValueError):
    """A tag string does not follow the canonical tag syntax."""


class ContractError(EditKitError, ValueError):
    """A caller violated an operation's precondition."""


class EditOverlapError(ContractError):
    """Two edit spans overlap (or are insertions at the same point)."""


class SpanRangeError(ContractError):
    """An edit span points outside the source sentence."""


class InapplicableTransformError(EditKitError):
    """A transform tag cannot be applied to the given token."""


class FormatError(EditKitError, ValueError):
    """A file does not conform to its declared format.

    Carries the offending path and 1-based line number so batch tools can
    report the exact position.  Readers raise it with the message alone and
    ``corpus.read_lines`` adds the position.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(prefix + message)


class InputError(EditKitError, ValueError):
    """Inputs are individually well-formed but mutually inconsistent."""


def check_integer(name: str, value: object) -> int:
    """``value`` as a plain int, or a ContractError naming ``name``.

    An int, a bool or a numpy integer is an integer (``operator.index``); a
    float or a str is not, whatever its value.  Range checks stay with the
    callers.
    """
    try:
        return index(value)
    except TypeError:
        raise ContractError(f"{name} must be an integer, got {value!r}") from None
