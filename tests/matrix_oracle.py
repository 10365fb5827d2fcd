"""numpy's reading of a matrix record's numbers: the test oracle for ``matrix_io._float_array``.

``np.array`` finds the dtype by visiting every value, then converts them in
a second pass; the record is accepted when that dtype is boolean, integer or
float.  ``float_array`` takes the arguments ``_float_array`` takes, so it can
be put in its place: it checks the shape of ``rows`` as the reader once did
and leaves that of ``error_probs`` to TagDistribution.
"""

from __future__ import annotations

import numpy as np

from gec_editkit.errors import FormatError


def float_array(values: object, what: str, n_rows: int, width: int | None = None) -> np.ndarray:
    arr = number_array(values, what)
    if width is not None and arr.shape != (n_rows, width):
        raise FormatError(f"rows have shape {arr.shape}, expected {(n_rows, width)} ([START] + tokens by vocab size)")
    return arr


def number_array(values: object, what: str) -> np.ndarray:
    """``values`` as a float64 array, refusing anything but JSON numbers and booleans.

    No dtype is passed to np.array: with dtype=float64 numpy would parse a
    numeric string such as "0.5" instead of refusing it.  Strings come back
    with kind "U", null and objects with kind "O", and nested lists of uneven
    length or depth raise ValueError.
    """
    try:
        arr = np.array(values)
    except ValueError:
        raise FormatError(f"{what} must be a rectangular array of numbers") from None
    if arr.dtype.kind not in "biuf":
        raise FormatError(f"{what} must hold only numbers")
    return arr.astype(np.float64, copy=False)
