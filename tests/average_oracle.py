"""The sort-based exact mean: the test oracle for ``ensemble._orderless_mean``.

It stacks the k member arrays, subtracts their elementwise minimum, sorts
the deviations along the member axis and sums them, giving
min + sum(sorted deviations)/k for every element.

One quirk of its numpy reduction: for a stack of one element per member
(shape ``(k, 1)`` or ``(k, 1, 1)``) and k >= 8, ``sum(axis=0)`` adds the
deviations pairwise, where for any larger array it adds them in ascending
order.  Only there does it depend on the shape of the array an element
sits in.
"""

from __future__ import annotations

import numpy as np


def orderless_mean(arrays: list[np.ndarray]) -> np.ndarray:
    stack = np.stack(arrays)
    base = stack.min(axis=0)
    stack -= base
    stack.sort(axis=0)
    return base + stack.sum(axis=0) / len(arrays)
