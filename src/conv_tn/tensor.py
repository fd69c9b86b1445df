"""The types every module shares, and the comparison the harnesses use.

Every numeric value in this package lives in a ``numpy.float64`` array,
but for the kept-row indices that ``crs`` puts in a narrowed pattern's
slot.  An array from outside is converted and its shape checked once,
where it enters an op (``ops.run_op``, ``crs.masked_weight_vjp``); the
rewrites and the contraction engine below trust what they are given.
"""

from __future__ import annotations

import numpy as np

Tensor = np.ndarray


class ShapeMismatch(ValueError):
    """Raised when an operation receives tensors of incompatible shape."""


class Unsupported(ValueError):
    """Raised when an operation is asked for a case it deliberately excludes."""


def max_rel_err(result: Tensor, reference: Tensor) -> float:
    """Largest absolute deviation scaled by the reference magnitude.

    Zero reference tensors fall back to the absolute deviation so exact
    zeros stay comparable.
    """
    result = np.asarray(result, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if result.shape != reference.shape:
        raise ShapeMismatch(f"max_rel_err: {result.shape} vs {reference.shape}")
    if result.size == 0:
        return 0.0
    denom = max(float(np.max(np.abs(reference))), 1.0e-300)
    return float(np.max(np.abs(result - reference))) / denom
