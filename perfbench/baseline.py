"""im2col baseline: the convolution ops in plain numpy, without index patterns.

Gather ops read every kernel window of the zero-padded input through one
``sliding_window_view`` and contract it with ``tensordot`` (or a batched
``matmul`` where the batch axis survives), one group at a time.  Scatter ops
write back with one strided slice-add per kernel offset.  The curvature ops
are the usual compositions of those two.

The module reads only a layer's hyper-parameters (``batch``, ``groups``,
``c_in``, ``c_out`` and per dimension ``input_size``, ``kernel_size``,
``stride``, ``padding``, ``dilation``).  It imports nothing from ``conv_tn``,
so agreement with the engine is evidence, not tautology.  ``unfold_kernel``
(the dense Toeplitz matrix) is not covered.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def out_size(d) -> int:
    span = (d.kernel_size - 1) * d.dilation + 1
    return (d.input_size + 2 * d.padding - span) // d.stride + 1


def _kernel_sizes(conv) -> tuple[int, ...]:
    return tuple(d.kernel_size for d in conv.dims)


def _padded_sizes(conv) -> tuple[int, ...]:
    return tuple(d.input_size + 2 * d.padding for d in conv.dims)


def _crop(conv) -> tuple[slice, ...]:
    return tuple(slice(d.padding, d.padding + d.input_size) for d in conv.dims)


def _offsets(conv):
    """Per kernel offset ``k``, the strided slices of the padded input it reads."""
    for k in itertools.product(*(range(d.kernel_size) for d in conv.dims)):
        yield k, tuple(
            slice(kk * d.dilation, kk * d.dilation + d.stride * (out_size(d) - 1) + 1, d.stride)
            for kk, d in zip(k, conv.dims)
        )


def windows(conv, x: np.ndarray) -> np.ndarray:
    """View ``(n, c, *I)`` as ``(n, c, *K, *O)``: every kernel window, x itself is not copied."""
    nd = len(conv.dims)
    pad = [(0, 0), (0, 0)] + [(d.padding, d.padding) for d in conv.dims]
    spans = [(d.kernel_size - 1) * d.dilation + 1 for d in conv.dims]
    v = sliding_window_view(np.pad(x, pad), spans, axis=tuple(range(2, 2 + nd)))
    v = v[
        (slice(None), slice(None))
        + tuple(slice(None, None, d.stride) for d in conv.dims)
        + tuple(slice(None, None, d.dilation) for d in conv.dims)
    ]
    return v.transpose(0, 1, *range(2 + nd, 2 + 2 * nd), *range(2, 2 + nd))


def fold(conv, cols: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`windows`: ``(n, c, *K, *O)`` summed into ``(n, c, *I)``."""
    n, c = cols.shape[:2]
    padded = np.zeros((n, c, *_padded_sizes(conv)))
    lead = (slice(None), slice(None))
    for k, target in _offsets(conv):
        padded[lead + target] += cols[lead + k]
    return np.ascontiguousarray(padded[lead + _crop(conv)])


def _transpose_cols(conv, y: np.ndarray) -> np.ndarray:
    """``(n, c, *K, *I)``: every output entry scattered to the inputs it touches."""
    nd = len(conv.dims)
    n, c = y.shape[:2]
    padded = np.zeros((n, c, *_kernel_sizes(conv), *_padded_sizes(conv)))
    lead = (slice(None), slice(None))
    for k, target in _offsets(conv):
        padded[lead + k + target] += y
    return np.ascontiguousarray(padded[lead + (slice(None),) * nd + _crop(conv)])


def _prod_outs(conv) -> int:
    return math.prod(out_size(d) for d in conv.dims)


def _grouped_cols(conv, x: np.ndarray) -> np.ndarray:
    """im2col rows per group: ``(n, g, c_in/g * prod K, prod O)``."""
    return windows(conv, x).reshape(conv.batch, conv.groups, -1, _prod_outs(conv))


def _grouped_transpose_rows(conv, y: np.ndarray) -> np.ndarray:
    """Transpose-convolution im2col rows per group: ``(n, g, c_out/g * prod K, prod I)``."""
    ins = math.prod(d.input_size for d in conv.dims)
    return _transpose_cols(conv, y).reshape(y.shape[0], conv.groups, -1, ins)


def _grouped_out(conv, y: np.ndarray) -> np.ndarray:
    """``(n, c_out, *O)`` as ``(n, g, c_out/g, prod O)``."""
    return y.reshape(y.shape[0], conv.groups, conv.c_out // conv.groups, -1)


def _weight_shape(conv) -> tuple[int, ...]:
    return (conv.c_out, conv.c_in // conv.groups, *_kernel_sizes(conv))


def conv_forward(conv, x, w):
    nd = len(conv.dims)
    g, cig, cog = conv.groups, conv.c_in // conv.groups, conv.c_out // conv.groups
    win = windows(conv, x)
    blocks = []
    for gg in range(g):
        y = np.tensordot(
            win[:, gg * cig : (gg + 1) * cig],
            w[gg * cog : (gg + 1) * cog],
            axes=(range(1, 2 + nd), range(1, 2 + nd)),
        )
        blocks.append(np.moveaxis(y, -1, 1))
    return np.concatenate(blocks, axis=1)


def unfold_input(conv, x):
    return windows(conv, x).reshape(conv.batch, -1, _prod_outs(conv))


def _weight_grad(conv, cols, v_y):
    """Sum over n and O of output vectors times im2col rows, per group."""
    v = _grouped_out(conv, v_y)
    blocks = [
        np.tensordot(v[:, gg], cols[:, gg], axes=([0, 2], [0, 2])) for gg in range(conv.groups)
    ]
    return np.concatenate(blocks).reshape(_weight_shape(conv))


def _per_sample_grads(conv, cols, v_y):
    """``(n, g, c_out/g, c_in/g * prod K)``: one weight gradient per sample."""
    return np.matmul(_grouped_out(conv, v_y), cols.transpose(0, 1, 3, 2))


def weight_vjp(conv, x, v_y):
    return _weight_grad(conv, _grouped_cols(conv, x), v_y)


def per_sample_weight_vjp(conv, x, v_y):
    grads = _per_sample_grads(conv, _grouped_cols(conv, x), v_y)
    return grads.reshape(conv.batch, *_weight_shape(conv))


def input_vjp(conv, w, v_y):
    nd = len(conv.dims)
    g, cog = conv.groups, conv.c_out // conv.groups
    blocks = []
    for gg in range(g):
        vg = v_y[:, gg * cog : (gg + 1) * cog]
        cols = np.tensordot(vg, w[gg * cog : (gg + 1) * cog], axes=([1], [0]))
        blocks.append(np.moveaxis(cols, tuple(range(1, 1 + nd)), tuple(range(-nd, 0))))
    return fold(conv, np.concatenate(blocks, axis=1))


def fold_output(conv, y_like):
    nd = len(conv.dims)
    n, c = y_like.shape[:2]
    outs = y_like.shape[2:]
    cols = np.broadcast_to(
        y_like.reshape(n, c, *(1,) * nd, *outs), (n, c, *_kernel_sizes(conv), *outs)
    )
    return fold(conv, cols)


def im2col_vjp(conv, v_u):
    outs = tuple(out_size(d) for d in conv.dims)
    return fold(conv, v_u.reshape(conv.batch, conv.c_in, *_kernel_sizes(conv), *outs))


def transpose_unfold(conv, y):
    rows = _grouped_transpose_rows(conv, y)
    return rows.reshape(y.shape[0], -1, rows.shape[-1])


def _group_gram(rows: np.ndarray, batch: int) -> np.ndarray:
    """``rows`` is ``(n, g, r, m)``: per group the ``r x r`` sum over n and m, over n."""
    flat = rows.transpose(1, 2, 0, 3).reshape(rows.shape[1], rows.shape[2], -1)
    return flat @ flat.transpose(0, 2, 1) / batch


def kfac_expand_factor(conv, x):
    return _group_gram(_grouped_cols(conv, x), conv.batch)


def kfac_reduce_factor(conv, x):
    return _group_gram(_grouped_cols(conv, x).mean(axis=3, keepdims=True), conv.batch)


def kfac_expand_transpose(conv, y):
    return _group_gram(_grouped_transpose_rows(conv, y), conv.batch)


def kfac_reduce_transpose(conv, y):
    rows = _grouped_transpose_rows(conv, y)
    return _group_gram(rows.mean(axis=3, keepdims=True), conv.batch)


def _ggn_columns(conv, x, s):
    """Weight-space curvature columns ``(c, n, W)``: per-sample VJPs of every s column."""
    cols = _grouped_cols(conv, x)
    per = [_per_sample_grads(conv, cols, s[c]) for c in range(s.shape[0])]
    return np.stack(per).reshape(s.shape[0], conv.batch, -1)


def ggn_gram(conv, x, s):
    v = _ggn_columns(conv, x, s).reshape(s.shape[0] * conv.batch, -1)
    return v @ v.T


def ggn_diagonal(conv, x, s):
    return (_ggn_columns(conv, x, s) ** 2).sum(axis=(0, 1)).reshape(_weight_shape(conv))


def per_sample_ggn_diagonal(conv, x, s):
    v = _ggn_columns(conv, x, s)
    return (v**2).sum(axis=0).reshape(conv.batch, *_weight_shape(conv))


def hesscale_weight_diag(conv, x, d_y):
    return _weight_grad(conv, _grouped_cols(conv, x) ** 2, d_y)


def per_sample_hesscale_weight_diag(conv, x, d_y):
    grads = _per_sample_grads(conv, _grouped_cols(conv, x) ** 2, d_y)
    return grads.reshape(conv.batch, *_weight_shape(conv))


def hesscale_input_diag(conv, w, d_y):
    return input_vjp(conv, w**2, d_y)


def masked_weight_vjp(conv, x, v_y, masks: dict, keep_probs: dict):
    """Weight gradient of ``x`` with the dropped entries zeroed, over the keep probabilities.

    ``masks`` maps ``c_in`` (the same channels in every group), ``i1`` or ``i2``
    to a boolean keep vector.
    """
    x = np.array(x)
    scale = 1.0
    for axis, mask in masks.items():
        scale /= keep_probs[axis]
        index = [slice(None)] * x.ndim
        if axis == "c_in":
            index[1] = ~np.tile(mask, conv.groups)
        else:
            index[2 + ("i1", "i2").index(axis)] = ~mask
        x[tuple(index)] = 0.0
    return weight_vjp(conv, x, v_y) * scale


# op -> (function, names of the arrays it takes, as ``ops.input_shapes`` names them)
OPS = {
    "conv_forward": (conv_forward, ("x", "w")),
    "weight_jvp": (conv_forward, ("x", "v_w")),
    "input_jvp": (conv_forward, ("v_x", "w")),
    "unfold_input": (unfold_input, ("x",)),
    "im2col_jvp": (unfold_input, ("v_x",)),
    "weight_vjp": (weight_vjp, ("x", "v_y")),
    "per_sample_weight_vjp": (per_sample_weight_vjp, ("x", "v_y")),
    "input_vjp": (input_vjp, ("w", "v_y")),
    "fold_output": (fold_output, ("y_like",)),
    "im2col_vjp": (im2col_vjp, ("v_u",)),
    "transpose_unfold": (transpose_unfold, ("y",)),
    "kfac_expand_factor": (kfac_expand_factor, ("x",)),
    "kfac_reduce_factor": (kfac_reduce_factor, ("x",)),
    "kfac_expand_transpose": (kfac_expand_transpose, ("y",)),
    "kfac_reduce_transpose": (kfac_reduce_transpose, ("y",)),
    "ggn_gram": (ggn_gram, ("x", "s")),
    "ggn_diagonal": (ggn_diagonal, ("x", "s")),
    "per_sample_ggn_diagonal": (per_sample_ggn_diagonal, ("x", "s")),
    "hesscale_weight_diag": (hesscale_weight_diag, ("x", "d_y")),
    "per_sample_hesscale_weight_diag": (per_sample_hesscale_weight_diag, ("x", "d_y")),
    "hesscale_input_diag": (hesscale_input_diag, ("w", "d_y")),
}


def run(conv, op: str, arrays: dict) -> np.ndarray:
    """Baseline value of ``op``; raises ``KeyError`` for an op it does not cover."""
    fn, names = OPS[op]
    return fn(conv, *(arrays[name] for name in names))
