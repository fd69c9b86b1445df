"""Randomized weight-gradient estimation by subsampling contraction indices.

The weight VJP sums over the batch, the input channels, and the input
spatial locations.  Dropping a random subset of channel or spatial indices
and rescaling the survivors by the inverse keep probability gives an
unbiased estimate at a fraction of the cost: this is the tensor dropout
(column-row sampling) of the paper.  Channels are sampled per group (the
same channel subset in every group), spatial axes by keeping the input's
rows on that axis.  The axes are named ``c_in`` and ``i1`` ... ``i<nd>``,
one per spatial dimension.

The estimate runs ``weight_vjp``'s own network as every op runs, with
simplify on, at ``x``'s kept rows and channels.  The plan cache is keyed by
shapes, so a fresh mask with the same kept counts reuses the plan.  An
unmasked dimension's pattern is gathered (im2col), as in the exact VJP.  A
masked one is narrowed to the kept rows, whose indices its slot holds:

* at stride 1, ``v_y``'s axis ``o`` is taken as ``(k, i)`` at those rows
  (``o == i + P - k*D``), so the GEMM costs the kept fraction of the exact
  one;
* at stride > 1, the kept rows are put in their places in the gather's
  zeroed buffer, which is then gathered and cut like the exact VJP, at its
  cost.

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
from .pattern import output_size
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
        for axis in self.keep_probs:
            if axis != "c_in" and _dimension(axis) is None:
                raise InvalidProbability(f"unknown axis {axis!r}, pick c_in or i<d> for d >= 1")
            _keep_prob(self.keep_probs, axis)


def _keep_prob(keep_probs: dict, axis: str) -> float:
    """``keep_probs[axis]``, which must be given and lie in (0, 1]."""
    p = keep_probs.get(axis)
    if p is None:
        raise InvalidProbability(f"no keep probability for masked axis {axis!r}")
    if not (0.0 < float(p) <= 1.0):
        raise InvalidProbability(f"keep probability for {axis!r} must be in (0, 1], got {p}")
    return float(p)


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

    scale, c_mask = 1.0, None
    rows = [None] * conv.nd  # the kept rows of each masked dimension, put in its pattern's slot
    for axis, mask in masks.items():
        scale /= _keep_prob(keep_probs, axis)
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != (axis_size(conv, axis),):
            raise ShapeMismatch(f"mask for {axis!r} must be boolean of length {axis_size(conv, axis)}")
        if axis == "c_in":  # the same channels of every group
            x, c_mask = np.compress(np.tile(mask, conv.groups), x, axis=1), mask
        else:
            d = _dimension(axis)
            x, rows[d] = np.compress(mask, x, axis=2 + d), np.flatnonzero(mask)

    out_shape = (conv.c_out, cig, *conv.kernel_sizes)
    if x.size == 0:
        return np.zeros(out_shape)

    def make_net() -> Network:
        # weight_vjp's network at x's shape: a masked dimension's pattern is narrowed to x's rows
        tables = [(x.shape[2 + d], output_size(dim), dim.kernel_size) for d, dim in enumerate(conv.dims)]
        zeros = [np.broadcast_to(0.0, shape) for shape in (x.shape, *tables, v_y.shape)]
        return replace(build_network(conv, "weight_vjp"), operands=zeros)

    # the key holds shapes, never a mask: a fresh mask with the same kept counts reuses the plan;
    # every pattern is gathered, so its slot holds no table
    prep = _prepare(("crs_weight_vjp", conv, x.shape), make_net, True)
    est = prep.run([x, *rows, v_y]) * scale
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
    masks = {
        axis: rng.random(axis_size(conv, axis)) < float(config.keep_probs[axis])
        for axis in sorted(config.keep_probs)
    }
    estimate = masked_weight_vjp(conv, x, v_y, masks, config.keep_probs)
    return CrsEstimate(estimate, {axis: float(mask.mean()) for axis, mask in masks.items()})


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
