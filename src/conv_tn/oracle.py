"""Independent reference implementations used to arbitrate correctness.

Everything here is deliberately naive: explicit loops, explicit bounds
checks for zero padding, and dense matrices.  Each reference is written
once, over tuples of spatial indices, for any number of spatial
dimensions.  This module never calls the einsum engine or the operation
builders, so agreement between the two routes is evidence, not
tautology.  Keep it that way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .pattern import output_size
from .tensor import ShapeMismatch, Tensor, Unsupported

if TYPE_CHECKING:
    from .ops import ConvSpec


def _spatial(spec: "ConvSpec") -> tuple[tuple[int, ...], tuple[int, ...]]:
    ins = tuple(d.input_size for d in spec.dims)
    outs = tuple(output_size(d) for d in spec.dims)
    return ins, outs


def _taps(spec: "ConvSpec"):
    """Each output position with the ``(kernel offset, input position)`` pairs
    whose input lands inside, all as index tuples, both in row-major order.

    Padding is implicit: a pair whose input coordinate falls outside the
    input in any dimension is left out.
    """
    dims = spec.dims
    offsets = list(itertools.product(*(range(d.kernel_size) for d in dims)))
    for o in itertools.product(*(range(output_size(d)) for d in dims)):
        pairs = []
        for k in offsets:
            i = tuple(kk * d.dilation + oo * d.stride - d.padding for kk, oo, d in zip(k, o, dims))
            if all(0 <= ii < d.input_size for ii, d in zip(i, dims)):
                pairs.append((k, i))
        yield o, pairs


def direct_conv(spec: "ConvSpec", x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Convolution by definition: loops over every output entry."""
    ins, outs = _spatial(spec)
    g = spec.groups
    cig, cog = spec.c_in // g, spec.c_out // g
    if x.shape != (spec.batch, spec.c_in, *ins):
        raise ShapeMismatch(f"input {x.shape}, expected {(spec.batch, spec.c_in, *ins)}")
    if w.shape != (spec.c_out, cig, *tuple(d.kernel_size for d in spec.dims)):
        raise ShapeMismatch(f"kernel {w.shape} does not match {spec}")

    y = np.zeros((spec.batch, spec.c_out, *outs), dtype=np.float64)
    for o, taps in _taps(spec):
        for n, co in itertools.product(range(spec.batch), range(spec.c_out)):
            xs = x[n, co // cog * cig : (co // cog + 1) * cig]
            acc = 0.0
            for k, i in taps:
                acc += float(np.dot(xs[(slice(None), *i)], w[(co, slice(None), *k)]))
            y[(n, co, *o)] = acc
    if b is not None:
        if b.shape != (spec.c_out,):
            raise ShapeMismatch(f"bias {b.shape}, expected {(spec.c_out,)}")
        y += b.reshape((1, spec.c_out) + (1,) * len(spec.dims))
    return y


def direct_unfold(spec: "ConvSpec", x: Tensor) -> Tensor:
    """im2col by definition: gather every kernel window into a column."""
    ins, outs = _spatial(spec)
    if x.shape != (spec.batch, spec.c_in, *ins):
        raise ShapeMismatch(f"input {x.shape}, expected {(spec.batch, spec.c_in, *ins)}")
    ks = tuple(d.kernel_size for d in spec.dims)
    kp = int(np.prod(ks))
    u = np.zeros((spec.batch, spec.c_in * kp, int(np.prod(outs))))
    for o, taps in _taps(spec):
        col = np.ravel_multi_index(o, outs)
        for k, i in taps:
            # the rows (channel, kernel offset) of every channel at once
            u[:, np.ravel_multi_index(k, ks) :: kp, col] = x[(slice(None), slice(None), *i)]
    return u


def direct_transpose_unfold(spec: "ConvSpec", y: Tensor) -> Tensor:
    """Unfolded input of the transpose convolution, accumulated entrywise.

    Row layout is (channel, kernel...) and the column runs over the input
    locations of the associated convolution.
    """
    ins, outs = _spatial(spec)
    if y.shape != (spec.batch, spec.c_out, *outs):
        raise ShapeMismatch(f"output {y.shape}, expected {(spec.batch, spec.c_out, *outs)}")
    ks = tuple(d.kernel_size for d in spec.dims)
    kp = int(np.prod(ks))
    t = np.zeros((spec.batch, spec.c_out * kp, int(np.prod(ins))))
    for o, taps in _taps(spec):
        for k, i in taps:
            row = np.ravel_multi_index(k, ks)
            t[:, row::kp, np.ravel_multi_index(i, ins)] += y[(slice(None), slice(None), *o)]
    return t


def toeplitz(spec: "ConvSpec", w: Tensor) -> Tensor:
    """The convolution as one dense matrix mapping flat input to flat output.

    Ungrouped convolutions only.
    """
    if spec.groups != 1:
        raise Unsupported("toeplitz matrix is only assembled for groups == 1")
    ins, outs = _spatial(spec)
    a = np.zeros((spec.c_out, int(np.prod(outs)), spec.c_in, int(np.prod(ins))))
    for o, taps in _taps(spec):
        row = np.ravel_multi_index(o, outs)
        for k, i in taps:
            a[:, row, :, np.ravel_multi_index(i, ins)] += w[(slice(None), slice(None), *k)]
    return a.reshape(spec.c_out * int(np.prod(outs)), spec.c_in * int(np.prod(ins)))


@dataclass
class GgnOracle:
    full: Tensor
    diagonal: Tensor
    gram: Tensor
    per_sample_diagonal: Tensor


def ggn_explicit(spec: "ConvSpec", x: Tensor, s_y: Tensor) -> GgnOracle:
    """Generalized Gauss-Newton pieces from an explicitly assembled Jacobian.

    The output-to-weight Jacobian is built column by column (each column is
    the convolution's response to a one-hot kernel), so this stays honest
    but only scales to a few hundred weights.
    """
    ins, outs = _spatial(spec)
    g = spec.groups
    cig, cog = spec.c_in // g, spec.c_out // g
    ks = tuple(d.kernel_size for d in spec.dims)
    w_dim = spec.c_out * cig * int(np.prod(ks))
    if w_dim > 512:
        raise Unsupported(f"explicit jacobian with {w_dim} weight columns is off-scale")
    n_out = spec.c_out * int(np.prod(outs))
    if s_y.shape[1:] != (spec.batch, spec.c_out, *outs):
        raise ShapeMismatch(
            f"curvature stack {s_y.shape}, expected (c, {spec.batch}, {spec.c_out}, ...)"
        )
    n_cols = s_y.shape[0]

    # the jacobian's rows are (co, output position), its columns (co, ci, kernel offset)
    jac = np.zeros((spec.batch, spec.c_out, int(np.prod(outs)), spec.c_out, cig, int(np.prod(ks))))
    for o, taps in _taps(spec):
        row = np.ravel_multi_index(o, outs)
        for k, i in taps:
            col = np.ravel_multi_index(k, ks)
            for co in range(spec.c_out):
                gg = co // cog
                jac[:, co, row, co, :, col] = x[(slice(None), slice(gg * cig, (gg + 1) * cig), *i)]
    jac = jac.reshape(spec.batch, n_out, w_dim)

    # columns of the weight-space curvature stack, laid out (c, n) row-major
    s_w = np.zeros((w_dim, n_cols * spec.batch))
    for n in range(spec.batch):
        s_n = s_y[:, n].reshape(n_cols, n_out)
        m_n = jac[n].T @ s_n.T
        for c in range(n_cols):
            s_w[:, c * spec.batch + n] = m_n[:, c]

    full = s_w @ s_w.T
    gram = s_w.T @ s_w
    diag = np.diag(full).reshape(spec.c_out, cig, *ks)
    per_sample = np.zeros((spec.batch, spec.c_out, cig, *ks))
    for n in range(spec.batch):
        cols = s_w[:, [c * spec.batch + n for c in range(n_cols)]]
        per_sample[n] = (cols**2).sum(axis=1).reshape(spec.c_out, cig, *ks)
    return GgnOracle(full, diag, gram, per_sample)

