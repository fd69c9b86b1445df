"""Convolution operations expressed as tensor-network contractions.

Every operation here builds one einsum network: the data tensors plus one
binary index pattern per spatial dimension, contracted in a single call.
Autodiff products (VJPs, JVPs), im2col/col2im views, Kronecker-factored
curvature factors, Gauss-Newton diagonals and Gram matrices, and the
diagonal Hessian approximations all reuse the same handful of index names,
so the equations below read like the formulas they implement.

Equations use per-group channel counts: ``c_in``/``c_out`` inside a term
mean channels per group, and the grouped axis ``(g c_out)`` is the full
channel dimension.  Scale factors (1/N and the averaged-pattern factors)
are applied here; the engine itself never scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import einsum
from .pattern import (
    DimSpec,
    InvalidHyperParams,
    averaged_pattern,
    input_size_from_output,
    output_size,
    pattern,
)
from .simplify import RewriteStep, SimplifyResult, simplify_structure
from .tensor import ShapeMismatch, Tensor, Unsupported


@dataclass(frozen=True)
class ConvSpec:
    """A convolution layer: batch, channel, group, and spatial hyper-parameters."""

    batch: int
    groups: int
    c_in: int
    c_out: int
    dims: tuple[DimSpec, ...]
    has_bias: bool = False

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        if self.batch < 1:
            raise InvalidHyperParams(f"batch must be >= 1, got {self.batch}")
        if self.groups < 1:
            raise InvalidHyperParams(f"groups must be >= 1, got {self.groups}")
        if self.c_in % self.groups or self.c_out % self.groups:
            raise InvalidHyperParams(
                f"channels ({self.c_in}, {self.c_out}) must divide into {self.groups} groups"
            )
        if len(self.dims) not in (1, 2):
            raise InvalidHyperParams("only 1d and 2d convolutions are supported")

    @property
    def nd(self) -> int:
        return len(self.dims)

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return tuple(d.input_size for d in self.dims)

    @property
    def out_sizes(self) -> tuple[int, ...]:
        return tuple(output_size(d) for d in self.dims)

    @property
    def kernel_sizes(self) -> tuple[int, ...]:
        return tuple(d.kernel_size for d in self.dims)


class WeightVjp(NamedTuple):
    weight: Tensor
    bias: Tensor | None


@dataclass
class Network:
    """One ready-to-contract tensor network."""

    op: str
    equation: str
    operands: list[Tensor]
    roles: dict[int, DimSpec]
    seeds: dict[str, int]
    scale: float | None = None


@dataclass
class OpCosts:
    equation: str
    base: einsum.CostReport
    simplified: einsum.CostReport
    rewrites: tuple[RewriteStep, ...]


OP_NAMES = (
    "conv_forward",
    "unfold_input",
    "unfold_kernel",
    "fold_output",
    "transpose_unfold",
    "weight_vjp",
    "per_sample_weight_vjp",
    "input_vjp",
    "weight_jvp",
    "input_jvp",
    "im2col_jvp",
    "im2col_vjp",
    "kfac_expand_factor",
    "kfac_reduce_factor",
    "kfac_expand_transpose",
    "kfac_reduce_transpose",
    "ggn_gram",
    "ggn_diagonal",
    "per_sample_ggn_diagonal",
    "hesscale_weight_diag",
    "per_sample_hesscale_weight_diag",
    "hesscale_input_diag",
)

_OP_INPUTS = {
    "conv_forward": ("x", "w"),
    "unfold_input": ("x",),
    "unfold_kernel": ("w",),
    "fold_output": ("y_like",),
    "transpose_unfold": ("y",),
    "weight_vjp": ("x", "v_y"),
    "per_sample_weight_vjp": ("x", "v_y"),
    "input_vjp": ("w", "v_y"),
    "weight_jvp": ("x", "v_w"),
    "input_jvp": ("v_x", "w"),
    "im2col_jvp": ("v_x",),
    "im2col_vjp": ("v_u",),
    "kfac_expand_factor": ("x",),
    "kfac_reduce_factor": ("x",),
    "kfac_expand_transpose": ("y",),
    "kfac_reduce_transpose": ("y",),
    "ggn_gram": ("x", "s"),
    "ggn_diagonal": ("x", "s"),
    "per_sample_ggn_diagonal": ("x", "s"),
    "hesscale_weight_diag": ("x", "d_y"),
    "per_sample_hesscale_weight_diag": ("x", "d_y"),
    "hesscale_input_diag": ("w", "d_y"),
}


def input_shapes(conv: ConvSpec, op: str, columns: int = 2) -> dict[str, tuple[int, ...]]:
    """Canonical shapes of the arrays ``op`` consumes."""
    ins, outs, ks = conv.input_sizes, conv.out_sizes, conv.kernel_sizes
    cig = conv.c_in // conv.groups
    all_shapes = {
        "x": (conv.batch, conv.c_in, *ins),
        "v_x": (conv.batch, conv.c_in, *ins),
        "w": (conv.c_out, cig, *ks),
        "v_w": (conv.c_out, cig, *ks),
        "y": (conv.batch, conv.c_out, *outs),
        "v_y": (conv.batch, conv.c_out, *outs),
        "d_y": (conv.batch, conv.c_out, *outs),
        "y_like": (conv.batch, conv.c_in, *outs),
        "v_u": (conv.batch, conv.c_in * math.prod(ks), math.prod(outs)),
        "s": (columns, conv.batch, conv.c_out, *outs),
    }
    if op not in _OP_INPUTS:
        raise Unsupported(f"unknown operation {op!r}")
    return {name: all_shapes[name] for name in _OP_INPUTS[op]}


def _transpose_padding(conv: ConvSpec, output_padding) -> tuple[int, ...]:
    derived = tuple(
        d.input_size + 2 * d.padding - d.span - d.stride * (output_size(d) - 1)
        for d in conv.dims
    )
    if output_padding is None:
        return derived
    if isinstance(output_padding, int):
        output_padding = (output_padding,) * conv.nd
    given = tuple(int(a) for a in output_padding)
    if len(given) != conv.nd:
        raise InvalidHyperParams(
            f"output_padding needs {conv.nd} entries, got {len(given)}"
        )
    for d, a in zip(conv.dims, given):
        rebuilt = input_size_from_output(
            output_size(d), d.kernel_size, d.stride, d.padding, d.dilation, a
        )
        if rebuilt != d.input_size:
            raise InvalidHyperParams(
                f"output_padding {a} reconstructs input {rebuilt}, spec says {d.input_size}"
            )
    return given


def build_network(
    conv: ConvSpec,
    op: str,
    arrays: dict[str, Tensor] | None = None,
    *,
    output_padding=None,
    columns: int = 2,
) -> Network:
    """Assemble the tensor network for ``op`` over ``conv``.

    Missing arrays default to zeros of the canonical shape, which is enough
    for planning and cost queries.
    """
    arrays = dict(arrays or {})
    if "s" in arrays:
        columns = int(np.asarray(arrays["s"]).shape[0])
    shapes = input_shapes(conv, op, columns=columns)

    def get(name: str) -> Tensor:
        a = arrays.get(name)
        if a is None:
            return np.zeros(shapes[name])
        a = np.asarray(a, dtype=np.float64)
        if tuple(a.shape) != shapes[name]:
            raise ShapeMismatch(f"{op}: {name} has shape {a.shape}, expected {shapes[name]}")
        return a

    nd = conv.nd
    pats = [pattern(d) for d in conv.dims]

    def sp(base: str, sfx: str = "") -> str:
        return " ".join(f"{base}{d}{sfx}" for d in range(1, nd + 1))

    def grp(*names: str) -> str:
        return "(" + " ".join(names) + ")" if len(names) > 1 else names[0]

    def pat_terms(isfx: str = "", osfx: str = "", ksfx: str = "") -> list[str]:
        return [f"i{d}{isfx} o{d}{osfx} k{d}{ksfx}" for d in range(1, nd + 1)]

    ivars = [f"i{d}" for d in range(1, nd + 1)]
    ovars = [f"o{d}" for d in range(1, nd + 1)]
    kvars = [f"k{d}" for d in range(1, nd + 1)]
    kvars_ = [f"k{d}_" for d in range(1, nd + 1)]

    terms: list[str] = []
    operands: list[Tensor] = []
    roles: dict[int, DimSpec] = {}

    def push(term: str, array: Tensor, role: DimSpec | None = None) -> None:
        terms.append(term)
        operands.append(array)
        if role is not None:
            roles[len(operands) - 1] = role

    def push_patterns(isfx="", osfx="", ksfx="") -> None:
        for t, p in zip(pat_terms(isfx, osfx, ksfx), pats):
            push(t, p.table, p.dim)

    scale: float | None = None
    x_term = f"n (g c_in) {sp('i')}"
    w_term = f"(g c_out) c_in {sp('k')}"
    y_term = f"n (g c_out) {sp('o')}"

    if op in ("conv_forward", "weight_jvp", "input_jvp"):
        data = {"conv_forward": ("x", "w"), "weight_jvp": ("x", "v_w"), "input_jvp": ("v_x", "w")}
        x_name, w_name = data[op]
        push(x_term, get(x_name))
        push_patterns()
        push(w_term, get(w_name))
        out = y_term
    elif op in ("unfold_input", "im2col_jvp"):
        push(f"n c_in {sp('i')}", get("x" if op == "unfold_input" else "v_x"))
        push_patterns()
        out = f"n {grp('c_in', *kvars)} {grp(*ovars)}"
    elif op == "unfold_kernel":
        if conv.groups != 1:
            raise Unsupported("unfold_kernel is only defined for groups == 1")
        push_patterns()
        push(f"c_out c_in {sp('k')}", get("w"))
        out = f"{grp('c_out', *ovars)} {grp('c_in', *ivars)}"
    elif op == "fold_output":
        push(f"n c {sp('o')}", get("y_like"))
        push_patterns()
        out = f"n c {sp('i')}"
    elif op == "transpose_unfold":
        push(y_term, get("y"))
        push_patterns()
        out = f"n {grp('g', 'c_out', *kvars)} {grp(*ivars)}"
    elif op in ("weight_vjp", "per_sample_weight_vjp"):
        push(x_term, get("x"))
        push_patterns()
        push(y_term, get("v_y"))
        out = f"(g c_out) c_in {sp('k')}"
        if op == "per_sample_weight_vjp":
            out = "n " + out
    elif op == "input_vjp":
        push(w_term, get("w"))
        push_patterns()
        push(y_term, get("v_y"))
        out = f"n (g c_in) {sp('i')}"
    elif op == "im2col_vjp":
        push_patterns()
        push(f"n {grp('c_in', *kvars)} {grp(*ovars)}", get("v_u"))
        out = f"n c_in {sp('i')}"
    elif op == "kfac_expand_factor":
        x = get("x")
        push(x_term, x)
        push_patterns()
        push(f"n (g c_in_) {sp('i', '_')}", x)
        push_patterns(isfx="_", osfx="", ksfx="_")
        out = f"g {grp('c_in', *kvars)} {grp('c_in_', *kvars_)}"
        scale = 1.0 / conv.batch
    elif op == "kfac_reduce_factor":
        x = get("x")
        avgs = [averaged_pattern(d) for d in conv.dims]
        push(x_term, x)
        for d in range(1, nd + 1):
            push(f"i{d} k{d}", avgs[d - 1])
        push(f"n (g c_in_) {sp('i', '_')}", x)
        for d in range(1, nd + 1):
            push(f"i{d}_ k{d}_", avgs[d - 1])
        out = f"g {grp('c_in', *kvars)} {grp('c_in_', *kvars_)}"
        scale = 1.0 / conv.batch
    elif op in ("kfac_expand_transpose", "kfac_reduce_transpose"):
        _transpose_padding(conv, output_padding)
        y = get("y")
        push(y_term, y)
        if op == "kfac_expand_transpose":
            push_patterns()
        else:
            for d in range(1, nd + 1):
                push(f"o{d} k{d}", pats[d - 1].table.mean(axis=0))
        push(f"n (g c_out_) {sp('o', '_')}", y)
        if op == "kfac_expand_transpose":
            push_patterns(isfx="", osfx="_", ksfx="_")
        else:
            for d in range(1, nd + 1):
                push(f"o{d}_ k{d}_", pats[d - 1].table.mean(axis=0))
        out = f"g {grp('c_out', *kvars)} {grp('c_out_', *kvars_)}"
        scale = 1.0 / conv.batch
    elif op == "ggn_gram":
        x, s = get("x"), get("s")
        push(x_term, x)
        push_patterns()
        push(f"c n (g c_out) {sp('o')}", s)
        push(f"n_ (g c_in) {sp('i', '_')}", x)
        push_patterns(isfx="_", osfx="_", ksfx="")
        push(f"c_ n_ (g c_out) {sp('o', '_')}", s)
        out = "(c n) (c_ n_)"
    elif op in ("ggn_diagonal", "per_sample_ggn_diagonal"):
        x, s = get("x"), get("s")
        push(x_term, x)
        push_patterns()
        push(f"c n (g c_out) {sp('o')}", s)
        push(f"n (g c_in) {sp('i', '_')}", x)
        push_patterns(isfx="_", osfx="_", ksfx="")
        push(f"c n (g c_out) {sp('o', '_')}", s)
        out = f"(g c_out) c_in {sp('k')}"
        if op == "per_sample_ggn_diagonal":
            out = "n " + out
    elif op in ("hesscale_weight_diag", "per_sample_hesscale_weight_diag"):
        x, d_y = get("x"), get("d_y")
        push(x_term, x)
        push_patterns()
        push(y_term, d_y)
        push(f"n (g c_in) {sp('i', '_')}", x)
        push_patterns(isfx="_", osfx="", ksfx="")
        out = f"(g c_out) c_in {sp('k')}"
        if op == "per_sample_hesscale_weight_diag":
            out = "n " + out
    elif op == "hesscale_input_diag":
        w, d_y = get("w"), get("d_y")
        push(w_term, w)
        push_patterns()
        push(y_term, d_y)
        push(f"(g c_out) c_in {sp('k', '_')}", w)
        push_patterns(isfx="", osfx="", ksfx="_")
        out = f"n (g c_in) {sp('i')}"
    else:
        raise Unsupported(f"unknown operation {op!r}")

    equation = ", ".join(terms) + " -> " + out
    seeds = {"g": conv.groups} if "(g " in equation else {}
    return Network(op, equation, operands, roles, seeds, scale)


_PREP_CACHE: dict = {}


def _prepare(net: Network, use_simplify: bool):
    """Parse, rewrite and plan ``net``, cached on everything that decides the result.

    The rewrites depend on the patterns' hyper-parameters, not only on their
    shapes, so the key holds the roles' ``DimSpec``s.  The cache is emptied
    once it holds 4096 entries.
    """
    key = (
        net.op,
        net.equation,
        tuple(tuple(a.shape) for a in net.operands),
        tuple(sorted(net.seeds.items())),
        tuple(sorted(net.roles.items())),
        use_simplify,
    )
    hit = _PREP_CACHE.get(key)
    if hit is None:
        spec = einsum.parse(net.equation, [a.shape for a in net.operands], sizes=net.seeds)
        sim: SimplifyResult | None = None
        if use_simplify:
            sim = simplify_structure(spec, net.roles)
        plan_ = einsum.plan(sim.spec if sim is not None else spec)
        if len(_PREP_CACHE) >= 4096:
            _PREP_CACHE.clear()
        hit = (spec, sim, plan_)
        _PREP_CACHE[key] = hit
    return hit


def execute(net: Network, use_simplify: bool = False) -> Tensor:
    """Contract ``net``, after the pattern rewrites when ``use_simplify`` is set."""
    spec, sim, plan_ = _prepare(net, use_simplify)
    if sim is None:
        out = einsum.contract(spec, net.operands, plan_)
    else:
        out = einsum.contract(sim.spec, sim.apply(net.operands), plan_)
        if sim.fold is not None:
            out = sim.fold.apply(out)
    if net.scale is not None:
        out = out * net.scale
    return out


def run_op(
    conv: ConvSpec,
    op: str,
    arrays: dict[str, Tensor],
    *,
    simplify: bool = False,
    output_padding=None,
) -> Tensor:
    """Generic entry point: build the network for ``op`` and contract it."""
    net = build_network(conv, op, arrays, output_padding=output_padding)
    return execute(net, simplify)


def op_cost(
    conv: ConvSpec, op: str, *, columns: int = 2, output_padding=None
) -> OpCosts:
    """Cost reports for ``op`` with and without pattern rewrites."""
    net = build_network(conv, op, None, output_padding=output_padding, columns=columns)
    _, _, base_plan = _prepare(net, False)
    _, sim, sim_plan = _prepare(net, True)
    return OpCosts(
        net.equation,
        einsum.cost_report(base_plan),
        einsum.cost_report(sim_plan),
        sim.steps if sim is not None else (),
    )


def _bias_reshape(conv: ConvSpec, b: Tensor) -> Tensor:
    return b.reshape((1, conv.c_out) + (1,) * conv.nd)


def conv_forward(
    conv: ConvSpec, x: Tensor, w: Tensor, b: Tensor | None = None, *, simplify: bool = False
) -> Tensor:
    y = run_op(conv, "conv_forward", {"x": x, "w": w}, simplify=simplify)
    if conv.has_bias:
        if b is None:
            raise ShapeMismatch("spec declares a bias but none was passed")
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (conv.c_out,):
            raise ShapeMismatch(f"bias has shape {b.shape}, expected {(conv.c_out,)}")
        y = y + _bias_reshape(conv, b)
    elif b is not None:
        raise Unsupported("spec declares no bias")
    return y


def unfold_input(conv: ConvSpec, x: Tensor, *, simplify: bool = False) -> Tensor:
    return run_op(conv, "unfold_input", {"x": x}, simplify=simplify)


def unfold_kernel(conv: ConvSpec, w: Tensor, *, simplify: bool = False) -> Tensor:
    return run_op(conv, "unfold_kernel", {"w": w}, simplify=simplify)


def fold_output(conv: ConvSpec, y_like: Tensor, *, simplify: bool = False) -> Tensor:
    return run_op(conv, "fold_output", {"y_like": y_like}, simplify=simplify)


def transpose_unfold(conv: ConvSpec, y: Tensor, *, simplify: bool = False) -> Tensor:
    return run_op(conv, "transpose_unfold", {"y": y}, simplify=simplify)


def weight_vjp(
    conv: ConvSpec, x: Tensor, v_y: Tensor, *, simplify: bool = False
) -> WeightVjp:
    vw = run_op(conv, "weight_vjp", {"x": x, "v_y": v_y}, simplify=simplify)
    vb = None
    if conv.has_bias:
        v_y = np.asarray(v_y, dtype=np.float64)
        vb = v_y.sum(axis=(0, *range(2, 2 + conv.nd)))
    return WeightVjp(vw, vb)


def per_sample_weight_vjp(
    conv: ConvSpec, x: Tensor, v_y: Tensor, *, simplify: bool = False
) -> Tensor:
    return run_op(conv, "per_sample_weight_vjp", {"x": x, "v_y": v_y}, simplify=simplify)


def input_vjp(conv: ConvSpec, w: Tensor, v_y: Tensor, *, simplify: bool = False) -> Tensor:
    return run_op(conv, "input_vjp", {"w": w, "v_y": v_y}, simplify=simplify)


def weight_jvp(conv: ConvSpec, x: Tensor, v_w: Tensor, *, simplify: bool = False) -> Tensor:
    return run_op(conv, "weight_jvp", {"x": x, "v_w": v_w}, simplify=simplify)


def input_jvp(conv: ConvSpec, v_x: Tensor, w: Tensor, *, simplify: bool = False) -> Tensor:
    return run_op(conv, "input_jvp", {"v_x": v_x, "w": w}, simplify=simplify)


def im2col_jvp(conv: ConvSpec, v_x: Tensor, *, simplify: bool = False) -> Tensor:
    return run_op(conv, "im2col_jvp", {"v_x": v_x}, simplify=simplify)


def im2col_vjp(conv: ConvSpec, v_u: Tensor, *, simplify: bool = False) -> Tensor:
    return run_op(conv, "im2col_vjp", {"v_u": v_u}, simplify=simplify)


def kfac_expand_factor(conv: ConvSpec, x: Tensor, *, simplify: bool = False) -> Tensor:
    return run_op(conv, "kfac_expand_factor", {"x": x}, simplify=simplify)


def kfac_reduce_factor(conv: ConvSpec, x: Tensor, *, simplify: bool = False) -> Tensor:
    return run_op(conv, "kfac_reduce_factor", {"x": x}, simplify=simplify)


def kfac_expand_transpose(
    conv: ConvSpec, y: Tensor, output_padding=None, *, simplify: bool = False
) -> Tensor:
    return run_op(
        conv, "kfac_expand_transpose", {"y": y}, simplify=simplify, output_padding=output_padding
    )


def kfac_reduce_transpose(
    conv: ConvSpec, y: Tensor, output_padding=None, *, simplify: bool = False
) -> Tensor:
    return run_op(
        conv, "kfac_reduce_transpose", {"y": y}, simplify=simplify, output_padding=output_padding
    )


def ggn_gram(conv: ConvSpec, x: Tensor, s: Tensor, *, simplify: bool = False) -> Tensor:
    return run_op(conv, "ggn_gram", {"x": x, "s": s}, simplify=simplify)


def ggn_diagonal(
    conv: ConvSpec, x: Tensor, s: Tensor, *, per_sample: bool = False, simplify: bool = False
) -> Tensor:
    op = "per_sample_ggn_diagonal" if per_sample else "ggn_diagonal"
    return run_op(conv, op, {"x": x, "s": s}, simplify=simplify)


def hesscale_weight_diag(
    conv: ConvSpec, x: Tensor, d_y: Tensor, *, per_sample: bool = False, simplify: bool = False
) -> Tensor:
    op = "per_sample_hesscale_weight_diag" if per_sample else "hesscale_weight_diag"
    return run_op(conv, op, {"x": x, "d_y": d_y}, simplify=simplify)


def hesscale_input_diag(
    conv: ConvSpec, w: Tensor, d_y: Tensor, *, simplify: bool = False
) -> Tensor:
    return run_op(conv, "hesscale_input_diag", {"w": w, "d_y": d_y}, simplify=simplify)
