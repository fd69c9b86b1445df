"""Binary index patterns: convolution's index structure as a dense tensor.

For one spatial dimension with input size ``I``, kernel size ``K``, stride
``S``, padding ``P``, and dilation ``D``, the pattern is the ``I x O x K``
zero/one tensor with ``table[i, o, k] == 1`` iff ``i == k*D + o*S - P`` lands
inside the input.  Contracting it against inputs and kernels reproduces
convolution and everything adjoint to it.  Because each (o, k) pair names
at most one input position, and at stride 1 each (i, k) pair at most one
output position, the rewrites in :mod:`conv_tn.simplify` replace the table
by strided reads and writes for every hyper-parameter tuple: a window view
reads an axis ``i`` as ``(k, o)``, or at stride 1 an axis ``o`` as
``(k, i)``.  A gather copies its operand only when a gathered dimension
needs padding.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import Tensor


class InvalidHyperParams(ValueError):
    """Hyper-parameters describe no valid convolution."""


def check_int(name: str, value, least: int) -> None:
    """Raise :class:`InvalidHyperParams` unless ``value`` is an integer of at least ``least``.

    A bool, a float or a string is refused even when it would convert.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidHyperParams(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidHyperParams(f"{name} must be >= {least}, got {value}")


class PatternKind(enum.Enum):
    DENSE = "dense"
    DOWN_SAMPLING = "down_sampling"
    GENERAL = "general"


@dataclass(frozen=True)
class DimSpec:
    """Hyper-parameters of one spatial dimension."""

    input_size: int
    kernel_size: int
    stride: int = 1
    padding: int = 0
    dilation: int = 1

    def __post_init__(self):
        for name in ("input_size", "kernel_size", "stride", "padding", "dilation"):
            check_int(name, getattr(self, name), 0 if name == "padding" else 1)
        if self.input_size + 2 * self.padding - self.span < 0:
            raise InvalidHyperParams(
                f"kernel span {self.span} exceeds padded input "
                f"{self.input_size + 2 * self.padding}"
            )

    @property
    def span(self) -> int:
        """Extent of the dilated kernel: K + (K-1)(D-1)."""
        return self.kernel_size + (self.kernel_size - 1) * (self.dilation - 1)


def output_size(dim: DimSpec) -> int:
    return 1 + (dim.input_size + 2 * dim.padding - dim.span) // dim.stride


def classify(dim: DimSpec) -> PatternKind:
    if (
        dim.kernel_size == dim.stride
        and dim.padding == 0
        and dim.dilation == 1
        and dim.input_size % dim.kernel_size == 0
    ):
        return PatternKind.DENSE
    if (
        dim.stride > dim.kernel_size
        and dim.padding == 0
        and dim.dilation == 1
        and dim.input_size % dim.stride == 0
    ):
        return PatternKind.DOWN_SAMPLING
    return PatternKind.GENERAL


@dataclass(frozen=True, eq=False)
class IndexPattern:
    dim: DimSpec
    output_size: int
    kind: PatternKind
    table: Tensor
    ik: Tensor  # the table averaged over its output leg, I x K
    ok: Tensor  # the table averaged over its input leg, O x K

    @property
    def nnz(self) -> int:
        return int(self.table.sum())

    def triples(self) -> list[tuple[int, int, int]]:
        """Nonzero coordinates as (input, output, kernel) triples, row-major order."""
        return [tuple(int(v) for v in iok) for iok in np.argwhere(self.table)]


@lru_cache(maxsize=256)
def pattern(dim: DimSpec) -> IndexPattern:
    """The dense pattern tensor for ``dim``, cached per hyper-parameter tuple.

    The cache keeps the 256 most recently used patterns.  An (i, k) pair
    meets at most one o and an (o, k) pair at most one i, so an averaged
    entry is ``1/O`` or ``1/I`` where the table holds a one, as ``table.mean``
    gives.  The three tables share one block, allocated with the pattern, so
    no long-lived array is left later between an op's large transient ones;
    all are read-only since callers share them.
    """
    i_size, o_size, k_size = dim.input_size, output_size(dim), dim.kernel_size
    n = i_size * o_size * k_size
    block = np.zeros(n + (i_size + o_size) * k_size, dtype=np.float64)
    table = block[:n].reshape(i_size, o_size, k_size)
    ik = block[n : n + i_size * k_size].reshape(i_size, k_size)
    ok = block[n + i_size * k_size :].reshape(o_size, k_size)
    for o in range(o_size):
        for k in range(k_size):
            i = k * dim.dilation + o * dim.stride - dim.padding
            if 0 <= i < i_size:
                table[i, o, k] = 1.0
                ik[i, k] = 1.0 / o_size
                ok[o, k] = 1.0 / i_size
    for view in (table, ik, ok):
        view.flags.writeable = False
    return IndexPattern(dim, o_size, classify(dim), table, ik, ok)

