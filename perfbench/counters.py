"""Deterministic per-network counters, from the engine's public planning API.

For every (layer, op, simplify) tuple a workload runs, the network is built
from shapes alone (``ops.build_network`` without arrays), parsed, rewritten
when simplify is on, and planned, exactly as ``ops.run_op`` would.  The
counters repeat bit for bit from run to run.  ``op_cost`` is queried for the
same tuple so a test can hold the two routes to the same planned FLOPs.

FLOPs here are the engine's multiply-adds: a pairwise step costs the product
of the sizes of the union of its operands' indices.  The ``exact_flops``
counter is the minimum of that cost over all binary contraction trees, from
the engine's exact planner ``einsum._plan_optimal`` (``einsum.plan`` uses it
up to six operands and a greedy heuristic above), so a plan above it is a
suboptimal (greedy) one.
"""

from __future__ import annotations

import math

from conv_tn import einsum, ops
from conv_tn.pattern import pattern
from conv_tn.simplify import simplify_structure

# Ops that are one im2col GEMM; their useful work is that GEMM's multiply-adds.
GEMM_OPS = frozenset(
    ("conv_forward", "weight_jvp", "input_jvp", "weight_vjp", "per_sample_weight_vjp", "input_vjp")
)
ELEMENT_BYTES = 8


def bytes_computed(spec: einsum.EinsumSpec, plan: einsum.ContractionPlan) -> int:
    """Bytes every planned step reads and writes, from plan shapes (not measured)."""
    sizes = [math.prod(spec.sizes[i] for i in idx) for idx in spec.operand_indices]
    if not plan.steps:
        return ELEMENT_BYTES * (sizes[0] + math.prod(spec.output_shape()))
    total = 0
    for step in plan.steps:
        total += sizes[step.left] + sizes[step.right] + step.size
        sizes.append(step.size)
    return ELEMENT_BYTES * total


def useful_macs(conv: ops.ConvSpec) -> int:
    """Multiply-adds of the im2col GEMM: batch x c_out x c_in/g x prod K x prod O."""
    return (
        conv.batch * conv.c_out * (conv.c_in // conv.groups)
        * math.prod(conv.kernel_sizes) * math.prod(conv.out_sizes)
    )


def network_counters(conv: ops.ConvSpec, op: str, simplify: bool, columns: int) -> dict:
    net = ops.build_network(conv, op, None, columns=columns)
    spec = einsum.parse(net.equation, [a.shape for a in net.operands], sizes=net.seeds)
    kinds: list[str] = []
    if simplify:
        sim = simplify_structure(spec, net.roles)
        spec = sim.spec
        kinds = [step.kind.value for step in sim.steps]
    plan = einsum.plan(spec)
    cost = ops.op_cost(conv, op, columns=columns)
    return {
        "operands": len(spec.operand_terms),
        "planned_flops": plan.flops,
        "op_cost_flops": (cost.simplified if simplify else cost.base).flops,
        "base_flops": cost.base.flops,
        "exact_flops": einsum._plan_optimal(spec).flops if len(spec.operand_terms) > 1 else 0,
        "max_intermediate": plan.max_intermediate,
        "bytes_computed": bytes_computed(spec, plan),
        "useful_macs": useful_macs(conv) if op in GEMM_OPS else 0,
        "dense_reshape": kinds.count("dense_reshape"),
        "downsample_narrow": kinds.count("downsample_narrow"),
    }


def for_workload(work) -> list[dict]:
    """One row per (layer, op, simplify) network of ``work``; CRS calls are not networks."""
    rows = []
    for name, conv, op, simplify in work.tuples():
        if op in ops.OP_NAMES:
            row = {"layer": name, "op": op, "simplify": simplify}
            row.update(network_counters(conv, op, simplify, work.columns))
            rows.append(row)
    return rows


def table_bytes(work) -> int:
    """Bytes of the distinct index-pattern tables the workload's layers need."""
    dims = {d for _, conv, _ in work.layers for d in conv.dims}
    return sum(pattern(d).table.nbytes for d in dims)


def totals(rows: list[dict]) -> dict:
    gemm = [r for r in rows if r["useful_macs"]]
    simplified = [r for r in rows if r["simplify"]]
    return {
        "planned_flops": sum(r["planned_flops"] for r in rows),
        "op_cost_flops": sum(r["op_cost_flops"] for r in rows),
        "max_intermediate": max(r["max_intermediate"] for r in rows),
        "greedy_networks": sum(r["planned_flops"] > r["exact_flops"] for r in rows),
        "bytes_computed": sum(r["bytes_computed"] for r in rows),
        "planned_over_useful": (
            sum(r["planned_flops"] for r in gemm) / sum(r["useful_macs"] for r in gemm)
            if gemm else 0.0
        ),
        "dense_reshape": sum(r["dense_reshape"] for r in rows),
        "downsample_narrow": sum(r["downsample_narrow"] for r in rows),
        "flop_ratio": (
            sum(r["planned_flops"] for r in simplified) / sum(r["base_flops"] for r in simplified)
            if simplified else 1.0
        ),
    }
