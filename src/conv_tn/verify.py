"""Cross-checking harness used by the CLI and the test suite.

Every operation is run twice: once through the tensor-network engine and
once through a plain loop-based reference, then compared at a pinned
tolerance.  The references here are deliberately naive compositions of the
primitives in ``oracle`` (its taps, unfold, Toeplitz matrix, explicit
Jacobian).  None reads the index-pattern builder: each walks the kernel
windows that ``oracle`` computes from the hyper-parameters, so a wrong
pattern table shows as a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .oracle import (
    _taps,
    direct_conv,
    direct_transpose_unfold,
    direct_unfold,
    ggn_explicit,
    toeplitz,
)
from .ops import ConvSpec, WeightVjp
from .pattern import DimSpec
from .tensor import Tensor, Unsupported, max_rel_err


def oracle_fold_output(conv: ConvSpec, y_like: Tensor) -> Tensor:
    out = np.zeros((conv.batch, conv.c_in, *conv.input_sizes))
    for o, taps in _taps(conv):
        for _, i in taps:
            out[(slice(None), slice(None), *i)] += y_like[(slice(None), slice(None), *o)]
    return out


def oracle_weight_vjp(conv: ConvSpec, x: Tensor, v_y: Tensor) -> WeightVjp:
    cig = conv.c_in // conv.groups
    cog = conv.c_out // conv.groups
    vw = np.zeros((conv.c_out, cig, *conv.kernel_sizes))
    for o, taps in _taps(conv):
        for k, i in taps:
            for g in range(conv.groups):
                xs = x[(slice(None), slice(g * cig, (g + 1) * cig), *i)]
                vs = v_y[(slice(None), slice(g * cog, (g + 1) * cog), *o)]
                vw[(slice(g * cog, (g + 1) * cog), slice(None), *k)] += vs.T @ xs
    bias = v_y.sum(axis=(0, *range(2, 2 + conv.nd))) if conv.has_bias else None
    return WeightVjp(vw, bias)


def oracle_per_sample_weight_vjp(conv: ConvSpec, x: Tensor, v_y: Tensor) -> Tensor:
    cig = conv.c_in // conv.groups
    cog = conv.c_out // conv.groups
    out = np.zeros((conv.batch, conv.c_out, cig, *conv.kernel_sizes))
    for o, taps in _taps(conv):
        for k, i in taps:
            for g in range(conv.groups):
                xs = x[(slice(None), slice(g * cig, (g + 1) * cig), *i)]
                vs = v_y[(slice(None), slice(g * cog, (g + 1) * cog), *o)]
                out[(slice(None), slice(g * cog, (g + 1) * cog), slice(None), *k)] += (
                    vs[:, :, None] * xs[:, None, :]
                )
    return out


def oracle_input_vjp(conv: ConvSpec, w: Tensor, v_y: Tensor) -> Tensor:
    cig = conv.c_in // conv.groups
    cog = conv.c_out // conv.groups
    out = np.zeros((conv.batch, conv.c_in, *conv.input_sizes))
    for o, taps in _taps(conv):
        for k, i in taps:
            for g in range(conv.groups):
                vs = v_y[(slice(None), slice(g * cog, (g + 1) * cog), *o)]
                ws = w[(slice(g * cog, (g + 1) * cog), slice(None), *k)]
                out[(slice(None), slice(g * cig, (g + 1) * cig), *i)] += vs @ ws
    return out


def oracle_im2col_vjp(conv: ConvSpec, v_u: Tensor) -> Tensor:
    kp = math.prod(conv.kernel_sizes)
    out = np.zeros((conv.batch, conv.c_in, *conv.input_sizes))
    for o, taps in _taps(conv):
        oflat = np.ravel_multi_index(o, conv.out_sizes)
        for k, i in taps:
            kflat = np.ravel_multi_index(k, conv.kernel_sizes)
            out[(slice(None), slice(None), *i)] += v_u[:, kflat::kp, oflat]
    return out


def _averaged_unfold(conv: ConvSpec, a: Tensor, legs: str) -> Tensor:
    """``a`` summed onto kernel offsets, one row per sample: ``legs`` ``"ik"`` reads ``a``
    at each tap's input position and averages over the output positions, ``"ok"`` reads
    it at the tap's output position and averages over the input positions."""
    out = np.zeros((conv.batch, a.shape[1], *conv.kernel_sizes))
    for o, taps in _taps(conv):
        for k, i in taps:
            at = i if legs == "ik" else o
            out[(slice(None), slice(None), *k)] += a[(slice(None), slice(None), *at)]
    sizes = conv.out_sizes if legs == "ik" else conv.input_sizes
    return out.reshape(conv.batch, -1) / math.prod(sizes)


def _gram_per_group(rows: Tensor, groups: int, batch: int) -> Tensor:
    """Average of per-sample self-products, one block per group of rows."""
    per_group = rows.shape[1] // groups
    out = np.zeros((groups, per_group, per_group))
    for g in range(groups):
        block = rows[:, g * per_group : (g + 1) * per_group]
        for n in range(batch):
            sample = block[n]
            if sample.ndim == 1:
                out[g] += np.outer(sample, sample)
            else:
                out[g] += sample @ sample.T
    return out / batch


def oracle_kfac_expand(conv: ConvSpec, x: Tensor) -> Tensor:
    return _gram_per_group(direct_unfold(conv, x), conv.groups, conv.batch)


def oracle_kfac_reduce(conv: ConvSpec, x: Tensor) -> Tensor:
    return _gram_per_group(_averaged_unfold(conv, x, "ik"), conv.groups, conv.batch)


def oracle_kfac_expand_transpose(conv: ConvSpec, y: Tensor) -> Tensor:
    return _gram_per_group(direct_transpose_unfold(conv, y), conv.groups, conv.batch)


def oracle_kfac_reduce_transpose(conv: ConvSpec, y: Tensor) -> Tensor:
    return _gram_per_group(_averaged_unfold(conv, y, "ok"), conv.groups, conv.batch)


def oracle_hesscale_weight(
    conv: ConvSpec, x: Tensor, d_y: Tensor, per_sample: bool = False
) -> Tensor:
    cig = conv.c_in // conv.groups
    cog = conv.c_out // conv.groups
    kp = math.prod(conv.kernel_sizes)
    op = math.prod(conv.out_sizes)
    u2 = direct_unfold(conv, x) ** 2
    d = d_y.reshape(conv.batch, conv.c_out, op)
    lead = (conv.batch,) if per_sample else ()
    out = np.zeros((*lead, conv.c_out, cig, *conv.kernel_sizes))
    for g in range(conv.groups):
        dg = d[:, g * cog : (g + 1) * cog]
        ug = u2[:, g * cig * kp : (g + 1) * cig * kp]
        if per_sample:
            block = np.einsum("nco,nro->ncr", dg, ug)
            out[:, g * cog : (g + 1) * cog] = block.reshape(
                conv.batch, cog, cig, *conv.kernel_sizes
            )
        else:
            block = np.einsum("nco,nro->cr", dg, ug)
            out[g * cog : (g + 1) * cog] = block.reshape(cog, cig, *conv.kernel_sizes)
    return out


def oracle_hesscale_input(conv: ConvSpec, w: Tensor, d_y: Tensor) -> Tensor:
    cig = conv.c_in // conv.groups
    cog = conv.c_out // conv.groups
    op = math.prod(conv.out_sizes)
    out = np.zeros((conv.batch, conv.c_in, *conv.input_sizes))
    sub = ConvSpec(conv.batch, 1, cig, cog, conv.dims)
    for g in range(conv.groups):
        a2 = toeplitz(sub, w[g * cog : (g + 1) * cog]) ** 2
        dg = d_y[:, g * cog : (g + 1) * cog].reshape(conv.batch, cog * op)
        out[:, g * cig : (g + 1) * cig] = (dg @ a2).reshape(
            conv.batch, cig, *conv.input_sizes
        )
    return out


def _ggn(part: str):
    return lambda conv, a: getattr(ggn_explicit(conv, a["x"], a["s"]), part)


# One loop-based reference per operation, keyed like ``ops.OP_NAMES``.
ORACLES = {
    "conv_forward": lambda conv, a: direct_conv(conv, a["x"], a["w"], a.get("b")),
    "unfold_input": lambda conv, a: direct_unfold(conv, a["x"]),
    "unfold_kernel": lambda conv, a: toeplitz(conv, a["w"]),
    "fold_output": lambda conv, a: oracle_fold_output(conv, a["y_like"]),
    "transpose_unfold": lambda conv, a: direct_transpose_unfold(conv, a["y"]),
    "weight_vjp": lambda conv, a: oracle_weight_vjp(conv, a["x"], a["v_y"]),
    "per_sample_weight_vjp": lambda conv, a: oracle_per_sample_weight_vjp(conv, a["x"], a["v_y"]),
    "input_vjp": lambda conv, a: oracle_input_vjp(conv, a["w"], a["v_y"]),
    "weight_jvp": lambda conv, a: direct_conv(conv, a["x"], a["v_w"]),
    "input_jvp": lambda conv, a: direct_conv(conv, a["v_x"], a["w"]),
    "im2col_jvp": lambda conv, a: direct_unfold(conv, a["v_x"]),
    "im2col_vjp": lambda conv, a: oracle_im2col_vjp(conv, a["v_u"]),
    "kfac_expand_factor": lambda conv, a: oracle_kfac_expand(conv, a["x"]),
    "kfac_reduce_factor": lambda conv, a: oracle_kfac_reduce(conv, a["x"]),
    "kfac_expand_transpose": lambda conv, a: oracle_kfac_expand_transpose(conv, a["y"]),
    "kfac_reduce_transpose": lambda conv, a: oracle_kfac_reduce_transpose(conv, a["y"]),
    "ggn_gram": _ggn("gram"),
    "ggn_diagonal": _ggn("diagonal"),
    "per_sample_ggn_diagonal": _ggn("per_sample_diagonal"),
    "hesscale_weight_diag": lambda conv, a: oracle_hesscale_weight(conv, a["x"], a["d_y"]),
    "per_sample_hesscale_weight_diag": lambda conv, a: oracle_hesscale_weight(
        conv, a["x"], a["d_y"], per_sample=True
    ),
    "hesscale_input_diag": lambda conv, a: oracle_hesscale_input(conv, a["w"], a["d_y"]),
}


def oracle_run(conv: ConvSpec, op: str, arrays: dict):
    """Loop-based reference value for ``op`` on ``arrays``."""
    if op not in ORACLES:
        raise ValueError(f"no reference for operation {op!r}")
    return ORACLES[op](conv, arrays)


def tn_run(conv: ConvSpec, op: str, arrays: dict, *, simplify: bool = False):
    """Tensor-network value for ``op`` on ``arrays``, in the order ``make_inputs`` gives them."""
    return getattr(ops, op)(conv, *arrays.values(), simplify=simplify)


def make_inputs(
    conv: ConvSpec, op: str, rng: np.random.Generator, columns: int = 2
) -> dict:
    arrays = {
        name: rng.standard_normal(shape)
        for name, shape in ops.input_shapes(conv, op, columns=columns).items()
    }
    if op == "conv_forward" and conv.has_bias:
        arrays["b"] = rng.standard_normal(conv.c_out)
    return arrays


def compare(result, reference) -> float:
    """Worst relative error between a result and its reference."""
    if isinstance(reference, WeightVjp):
        err = max_rel_err(result.weight, reference.weight)
        if reference.bias is not None:
            err = max(err, max_rel_err(result.bias, reference.bias))
        return err
    return max_rel_err(result, reference)


@dataclass
class OpReport:
    op: str
    cases: int
    failures: int
    worst_rel_err: float
    skipped: int = 0


@dataclass
class VerifyReport:
    reports: list[OpReport]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(r.failures == 0 for r in self.reports)

    @property
    def total_cases(self) -> int:
        return sum(r.cases for r in self.reports)

    @property
    def skipped(self) -> int:
        return sum(r.skipped for r in self.reports)

    def lines(self) -> list[str]:
        out = []
        for r in self.reports:
            status = "ok" if r.failures == 0 else f"FAIL ({r.failures})"
            out.append(
                f"{r.op:32s} cases={r.cases:4d} skipped={r.skipped:<4d}"
                f" worst_rel_err={r.worst_rel_err:.3e} {status}"
            )
        return out


def run_verification(
    specs,
    op_names=None,
    *,
    simplify: bool = False,
    tol: float = 1e-12,
    seed: int = 0,
) -> VerifyReport:
    """Compare engine and reference on every (layer, operation) pair.

    A pair that the engine or its reference refuses with ``Unsupported``
    (grouped ``unfold_kernel``, an explicit GGN Jacobian too large to
    build) is counted as skipped.
    """
    rng = np.random.default_rng(seed)
    names = tuple(op_names) if op_names else ops.OP_NAMES
    reports = {name: OpReport(name, 0, 0, 0.0) for name in names}
    for conv in specs:
        for name in names:
            report = reports[name]
            arrays = make_inputs(conv, name, rng)
            try:
                want = oracle_run(conv, name, arrays)
                got = tn_run(conv, name, arrays, simplify=simplify)
            except Unsupported:
                report.skipped += 1
                continue
            err = compare(got, want)
            report.cases += 1
            if not np.isfinite(err) or err > tol:
                report.failures += 1
            report.worst_rel_err = max(report.worst_rel_err, err)
    return VerifyReport(list(reports.values()), tol)


def default_grid(count: int = 200, seed: int = 20240613) -> list[ConvSpec]:
    """Random layer sample spanning strides, padding, dilation, and groups."""
    rng = np.random.default_rng(seed)
    specs: list[ConvSpec] = []
    while len(specs) < count:
        nd = int(rng.integers(1, 3))
        dims = []
        for _ in range(nd):
            i = int(rng.integers(1, 10))
            k = int(rng.integers(1, 5))
            s = int(rng.integers(1, 4))
            p = int(rng.integers(0, 3))
            dil = int(rng.integers(1, 3))
            if k + (k - 1) * (dil - 1) > i + 2 * p:
                break
            dims.append(DimSpec(i, k, s, p, dil))
        if len(dims) != nd:
            continue
        g = int(rng.integers(1, 3))
        c_in = int(rng.choice([2, 4]))
        c_out = int(rng.choice([2, 4]))
        n = int(rng.choice([1, 3]))
        bias = bool(rng.integers(2))
        specs.append(ConvSpec(n, g, c_in, c_out, tuple(dims), bias))
    return specs
