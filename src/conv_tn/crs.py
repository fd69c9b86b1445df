"""Randomized weight-gradient estimation by subsampling contraction indices.

The weight VJP sums over the batch, the input channels, and the input
spatial locations.  Dropping a random subset of channel or spatial indices
and rescaling the survivors by the inverse keep probability gives an
unbiased estimate at a fraction of the cost.  Channels are sampled per
group (the same channel subset in every group), spatial axes are sampled
by narrowing the input together with the matching pattern rows.  The axes
are named ``c_in`` and ``i1`` ... ``i<nd>``, one per spatial dimension.
The ``weight_vjp`` network then runs at the narrowed shapes as every op
runs, with simplify on: the pattern of each unmasked dimension is gathered,
and a narrowed table, the pattern of no ``DimSpec``, stays dense.

``masked_weight_vjp`` is the deterministic core: it takes explicit boolean
masks so tests can enumerate every outcome.  ``crs_weight_vjp`` draws the
masks from a seeded generator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ops import ConvSpec, Network, _prepare, build_network
from .pattern import pattern
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
    tables = [np.asarray(pattern(d).table) for d in conv.dims]
    for spatial in range(conv.nd):
        mask = checked.get(f"i{spatial + 1}")
        if mask is None:
            continue
        x = np.compress(mask, x, axis=2 + spatial)
        tables[spatial] = np.compress(mask, tables[spatial], axis=0)
    c_mask = checked.get("c_in")
    if c_mask is not None:
        kept = int(c_mask.sum())
        xg = x.reshape(conv.batch, conv.groups, cig, *x.shape[2:])
        x = np.compress(c_mask, xg, axis=2).reshape(conv.batch, conv.groups * kept, *x.shape[2:])

    if x.size == 0:
        return np.zeros(out_shape)

    operands = [x, *tables, v_y]
    shapes = tuple(a.shape for a in operands)
    masked = tuple(1 + d for d in range(conv.nd) if f"i{d + 1}" in checked)  # table positions

    def make_net() -> Network:
        # weight_vjp's network at the masked shapes; a masked table has no role and stays dense
        net = build_network(conv, "weight_vjp")
        net.operands = [np.broadcast_to(0.0, shape) for shape in shapes]
        net.roles = {p: d for p, d in net.roles.items() if p not in masked}
        net.sources = tuple(None if p in masked else s for p, s in enumerate(net.sources))
        return net

    prep = _prepare(("crs_weight_vjp", conv, shapes, masked), make_net, True)
    est = prep.run(operands) * scale
    if c_mask is not None:
        full = np.zeros(out_shape)
        full[:, c_mask] = est
        return full
    return est


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
