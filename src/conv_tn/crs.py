"""Randomized weight-gradient estimation by subsampling contraction indices.

The weight VJP sums over the batch, the input channels, and the input
spatial locations.  Dropping a random subset of channel or spatial indices
and rescaling the survivors by the inverse keep probability gives an
unbiased estimate at a fraction of the cost: this is the tensor dropout
(column-row sampling) of the paper.  Channels are sampled per group (the
same channel subset in every group), spatial axes by keeping the input's
rows on that axis.  The axes are named ``c_in`` and ``i1`` ... ``i<nd>``,
one per spatial dimension.

The ``weight_vjp`` network then runs at the narrowed shapes as every op
runs, with simplify on, and the pattern of each unmasked dimension is
gathered.  A masked dimension of stride 1 has no pattern left: ``v_y`` is
read through its output leg at the kept rows only, by one index take that
turns its axis ``o`` into ``(k, i)`` (``o == i + P - k*D``), so the GEMM
sums over the kept rows and costs the kept fraction of the exact one.  A
masked dimension of stride > 1 keeps its table narrowed to the kept rows,
the pattern of no ``DimSpec``, which stays dense.  The plan cache is keyed
by shapes, so a fresh mask with the same kept counts reuses the plan.

``masked_weight_vjp`` is the deterministic core: it takes explicit boolean
masks so tests can enumerate every outcome.  ``crs_weight_vjp`` draws the
masks from a seeded generator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .ops import ConvSpec, Network, _prepare, build_network
from .pattern import output_size, pattern
from .tensor import ShapeMismatch, Tensor, Unsupported

_SPATIAL_AXIS = re.compile(r"i([1-9][0-9]*)")


class InvalidProbability(ValueError):
    """A keep probability is outside (0, 1] or refers to an unknown axis."""


def _dimension(axis: str) -> int | None:
    """The 0-based spatial dimension that the axis ``i<d>`` names, None for any other axis."""
    match = _SPATIAL_AXIS.fullmatch(axis) if isinstance(axis, str) else None
    return int(match[1]) - 1 if match else None


@dataclass(frozen=True)
class CrsConfig:
    """Keep probabilities per axis plus the seed for mask draws."""

    keep_probs: dict[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        for axis, p in self.keep_probs.items():
            if axis != "c_in" and _dimension(axis) is None:
                raise InvalidProbability(f"unknown axis {axis!r}, pick c_in or i<d> for d >= 1")
            if not (0.0 < float(p) <= 1.0):
                raise InvalidProbability(f"keep probability for {axis!r} must be in (0, 1], got {p}")


class CrsEstimate(NamedTuple):
    weight: Tensor
    kept_fraction: dict[str, float]


def axis_size(conv: ConvSpec, axis: str) -> int:
    if axis == "c_in":
        return conv.c_in // conv.groups
    index = _dimension(axis)
    if index is None:
        raise Unsupported(f"unknown subsampling axis {axis!r}")
    if index >= conv.nd:
        raise Unsupported(f"axis {axis!r} does not exist on a {conv.nd}d convolution")
    return conv.dims[index].input_size


def masked_weight_vjp(
    conv: ConvSpec,
    x: Tensor,
    v_y: Tensor,
    masks: dict[str, np.ndarray],
    keep_probs: dict[str, float],
) -> Tensor:
    """Weight VJP restricted to the masked indices, rescaled to be unbiased.

    ``masks[axis]`` is a boolean keep vector over that axis; entries of the
    estimate that depend only on dropped channels are exactly zero.  An
    all-false mask on any axis yields the zero estimate.
    """
    x = np.asarray(x, dtype=np.float64)
    v_y = np.asarray(v_y, dtype=np.float64)
    cig = conv.c_in // conv.groups
    if x.shape != (conv.batch, conv.c_in, *conv.input_sizes):
        raise ShapeMismatch(f"input has shape {x.shape}")
    if v_y.shape != (conv.batch, conv.c_out, *conv.out_sizes):
        raise ShapeMismatch(f"output vector has shape {v_y.shape}")

    scale = 1.0
    checked: dict[str, np.ndarray] = {}
    for axis, mask in masks.items():
        p = keep_probs.get(axis)
        if p is None:
            raise InvalidProbability(f"no keep probability for masked axis {axis!r}")
        if not (0.0 < float(p) <= 1.0):
            raise InvalidProbability(f"keep probability for {axis!r} must be in (0, 1], got {p}")
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != (axis_size(conv, axis),):
            raise ShapeMismatch(
                f"mask for {axis!r} must be boolean of length {axis_size(conv, axis)}"
            )
        checked[axis] = mask
        scale /= float(p)

    out_shape = (conv.c_out, cig, *conv.kernel_sizes)
    spatial = {d: checked[f"i{d + 1}"] for d in range(conv.nd) if f"i{d + 1}" in checked}
    for d, mask in spatial.items():
        x = np.compress(mask, x, axis=2 + d)
    c_mask = checked.get("c_in")
    if c_mask is not None:
        kept = int(c_mask.sum())
        xg = x.reshape(conv.batch, conv.groups, cig, *x.shape[2:])
        x = np.compress(c_mask, xg, axis=2).reshape(conv.batch, conv.groups * kept, *x.shape[2:])

    if x.size == 0:
        return np.zeros(out_shape)

    windowed = tuple(d for d in spatial if conv.dims[d].stride == 1)
    tables = [
        np.compress(spatial[d], pattern(dim).table, axis=0) if d in spatial else pattern(dim).table
        for d, dim in enumerate(conv.dims)
        if d not in windowed
    ]
    operands = [x, *tables, _window(v_y, conv, {d: spatial[d] for d in windowed})]
    shapes = tuple(a.shape for a in operands)

    def make_net() -> Network:
        # weight_vjp's network at the masked shapes, where v_y's o_d is (k_d, i_d) and
        # dimension d has no table for each windowed d; a narrowed table has no role
        net = build_network(conv, "weight_vjp")
        lhs, out = net.equation.split(" -> ")
        terms = lhs.split(", ")
        for d in windowed:
            terms[-1] = re.sub(rf"\bo{d + 1}\b", f"k{d + 1} i{d + 1}", terms[-1])
        keep = [p for p in range(len(terms)) if p - 1 not in windowed]  # the tables are at 1 + d
        return replace(
            net,
            equation=", ".join(terms[p] for p in keep) + " -> " + out,
            operands=[np.broadcast_to(0.0, shape) for shape in shapes],
            roles={keep.index(p): dim for p, dim in net.roles.items() if p - 1 not in spatial},
            sources=tuple(None if p - 1 in spatial else net.sources[p] for p in keep),
        )

    # the key holds shapes, never a mask: a fresh mask with the same kept counts reuses the plan
    prep = _prepare(("crs_weight_vjp", conv, shapes, tuple(spatial)), make_net, True)
    est = prep.run(operands) * scale
    if c_mask is not None:
        full = np.zeros(out_shape)
        full[:, c_mask] = est
        return full
    return est


def _window(v_y: np.ndarray, conv: ConvSpec, masks: dict[int, np.ndarray]) -> np.ndarray:
    """``v_y`` with each axis ``o_d`` of ``masks`` read as ``(k_d, i_d)`` over the rows ``i`` that
    ``masks[d]`` keeps.

    At stride 1 the kernel tap ``k`` of input row ``i`` meets ``o == i + P - k*D``,
    so entry ``[k, j]`` is ``v_y[i + P - k*D]`` at the ``j``-th kept ``i``, or
    zero where that falls outside ``[0, O)``: one index take per axis, which
    reads a clipped index there and then zeroes those taps.
    """
    for d in sorted(masks, reverse=True):  # each take widens its axis, so later axes go first
        dim, axis = conv.dims[d], 2 + d
        taps = dim.padding - dim.dilation * np.arange(dim.kernel_size)[:, None]
        o = np.flatnonzero(masks[d]) + taps
        v_y = np.take(v_y, o, axis=axis, mode="clip")
        v_y[(slice(None),) * axis + ((o < 0) | (o >= output_size(dim)),)] = 0.0
    return v_y


def crs_weight_vjp(
    conv: ConvSpec, x: Tensor, v_y: Tensor, config: CrsConfig
) -> CrsEstimate:
    """Draw Bernoulli keep masks from ``config.seed`` and estimate the weight VJP."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    masks: dict[str, np.ndarray] = {}
    kept: dict[str, float] = {}
    for axis in sorted(config.keep_probs):
        p = float(config.keep_probs[axis])
        size = axis_size(conv, axis)
        mask = rng.random(size) < p
        masks[axis] = mask
        kept[axis] = float(mask.mean())
    estimate = masked_weight_vjp(conv, x, v_y, masks, config.keep_probs)
    return CrsEstimate(estimate, kept)


def normalized_error(exact: Tensor, estimate: Tensor) -> float:
    """Relative euclidean error ``||exact - estimate|| / ||exact||``."""
    exact = np.asarray(exact, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if exact.shape != estimate.shape:
        raise ShapeMismatch(f"shapes differ: {exact.shape} vs {estimate.shape}")
    denom = float(np.linalg.norm(exact.ravel()))
    if denom == 0.0:
        raise ZeroDivisionError("reference gradient is identically zero")
    return float(np.linalg.norm((exact - estimate).ravel())) / denom
