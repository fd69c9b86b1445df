"""Mirrored networks: one half contracted once, then its Gram or square."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from conv_tn import einsum, ops
from conv_tn.cli import load_layers
from conv_tn.ops import OP_NAMES, ConvSpec, op_cost, run_op
from conv_tn.pattern import DimSpec
from conv_tn.simplify import simplify_structure
from conv_tn.tensor import Unsupported
from conv_tn.verify import compare, default_grid, make_inputs, oracle_run

CURVATURE = (
    "kfac_expand_factor",
    "kfac_reduce_factor",
    "kfac_expand_transpose",
    "kfac_reduce_transpose",
    "ggn_gram",
    "ggn_diagonal",
    "per_sample_ggn_diagonal",
)
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"

# 1d to 3d, each ungrouped and grouped
LAYERS = (
    ConvSpec(2, 1, 2, 3, (DimSpec(6, 3, 1, 1, 2),)),
    ConvSpec(2, 2, 4, 2, (DimSpec(7, 2, 2, 1),)),
    ConvSpec(2, 1, 2, 3, (DimSpec(5, 2, 1, 1), DimSpec(4, 2, 2))),
    ConvSpec(3, 2, 2, 4, (DimSpec(5, 3, 2, 1), DimSpec(4, 2))),
    ConvSpec(2, 1, 1, 2, (DimSpec(3, 2), DimSpec(4, 2, 2, 1), DimSpec(3, 1))),
    ConvSpec(2, 2, 2, 2, (DimSpec(4, 2, 1, 1), DimSpec(3, 2), DimSpec(3, 2, 1, 0, 2))),
)


def _mirrored(conv, op, arrays, simplify):
    """``op``'s value through its Gram evaluation, chosen or not; None if its entry declares none."""
    prep = ops._planned(conv, op, ops._columns(op, arrays), simplify)
    mirror = ops._mirror(prep.net, prep.spec, prep.net.roles if simplify else {})
    if mirror is None:
        return None
    prep = prep._replace(sim=mirror[0], gram=mirror[1])
    return prep.run(ops._operands(op, *ops._program(prep.net, prep.sim.kept), arrays))


@pytest.mark.parametrize("simplify", [False, True])
@pytest.mark.parametrize("conv", LAYERS)
def test_mirror_fires_on_exactly_the_curvature_ops(conv, simplify):
    rng = np.random.default_rng(11)
    for op in OP_NAMES:
        if op == "unfold_kernel" and conv.groups != 1:
            continue
        arrays = make_inputs(conv, op, rng)
        got = _mirrored(conv, op, arrays, simplify)
        assert (got is not None) == (op in CURVATURE), op
        if got is not None:
            assert compare(got, oracle_run(conv, op, arrays)) <= 1e-12, op
        else:
            costs = op_cost(conv, op)
            assert costs.mirrored is None and costs.mirrored_base is None, op


def _spec(net):
    return einsum.parse(net.equation, [a.shape for a in net.operands], sizes=net.seeds)


def test_a_network_runs_as_a_gram_only_when_its_table_entry_declares_one():
    # both halves hold x, and one renaming fixes exactly the indices they share
    x = np.random.default_rng(2).standard_normal((3, 3))
    same = ops.Network("a b, a b ->", [x, x], {}, {}, sources=("x", "x"))
    prep = ops._prepare(("same",), lambda: same, False)
    assert prep.gram is None
    assert np.isclose(prep.run([x, x]), np.sum(x * x))
    conv = ConvSpec(2, 1, 2, 3, (DimSpec(5, 2), DimSpec(4, 2, 1, 1)))
    for op in OP_NAMES:
        if op != "unfold_kernel":
            assert ops.build_network(conv, op).gram == (op in CURVATURE), op


@pytest.mark.parametrize("op", ["ggn_gram", "ggn_diagonal", "per_sample_ggn_diagonal", "kfac_expand_factor"])
def test_four_dimensional_curvature_without_rewrites(op):
    # the full GGN networks have 4 + 2 * 4 = 12 operands, which the planner refuses
    conv = ConvSpec(2, 1, 2, 2, (DimSpec(4, 2),) * 4)
    net = ops.build_network(conv, op)
    if op.startswith("ggn"):
        with pytest.raises(Unsupported):
            einsum.plan(_spec(net))
    prep = ops._planned(conv, op, 2, False)
    assert prep.gram is not None
    assert len(prep.sim.spec.operand_terms) == len(net.operands) // 2
    arrays = make_inputs(conv, op, np.random.default_rng(3))
    assert compare(run_op(conv, op, arrays), oracle_run(conv, op, arrays)) <= 1e-12


def test_nine_dimensional_ggn_without_rewrites_is_refused():
    # neither the full network (22 operands) nor its half (2 + 9 = 11) fits the planner
    conv = ConvSpec(1, 1, 1, 1, (DimSpec(2, 1),) * 9)
    arrays = make_inputs(conv, "ggn_diagonal", np.random.default_rng(4))
    assert 2 + conv.nd > einsum.MAX_OPERANDS
    with pytest.raises(Unsupported):
        run_op(conv, "ggn_diagonal", arrays)


def _curvature_layers():
    layers = dict(load_layers(None))
    for name in ("fixtures_all_ops", "medium_curvature", "realistic_first_order"):
        for layer, conv in load_layers(str(WORKLOADS / f"{name}.json")):
            layers.setdefault(f"{name}/{layer}", conv)
    return layers


def _check_chosen_evaluation(name, conv):
    # the full network is planned here even where _prepare skips it
    for op in CURVATURE:
        for simplify in (False, True):
            prep = ops._planned(conv, op, 2, simplify)
            full = simplify_structure(prep.spec, prep.net.roles if simplify else {}).plan.flops
            chosen = prep.sim.plan.flops + (prep.gram.plan.flops if prep.gram else 0)
            assert chosen <= full, (name, op, simplify)
            flops, _ = op_cost(conv, op).ran(simplify)
            assert flops == chosen, (name, op, simplify)


def test_chosen_evaluation_never_plans_more_than_the_full_network():
    for name, conv in _curvature_layers().items():
        _check_chosen_evaluation(name, conv)


# Layers of verify's default grid (25 layers, seed 0) on which _surely_cheaper
# skips a full network that plans fewer FLOPs than the mirror that runs: the
# rule is a heuristic, and these are its known counterexamples.
SURELY_CHEAPER_MISSES = {
    1: "kfac_reduce_transpose, both modes: 540 FLOPs mirrored against 345 full",
    10: "kfac_reduce_factor, both modes: 276 against 236",
    12: "ggn_gram, simplify on: 320 against 204",
    18: "ggn_gram, ggn_diagonal and per_sample_ggn_diagonal, simplify on: 48 and 32 against 20",
}


@pytest.mark.parametrize(
    "index, conv",
    [
        pytest.param(i, conv, marks=pytest.mark.xfail(strict=True, reason=f"{conv}: {SURELY_CHEAPER_MISSES[i]}"))
        if i in SURELY_CHEAPER_MISSES
        else (i, conv)
        for i, conv in enumerate(default_grid(count=25, seed=0))
    ],
)
def test_chosen_evaluation_never_plans_more_than_the_full_network_on_the_default_grid(index, conv):
    _check_chosen_evaluation(f"default grid layer {index}", conv)


def test_kfac_expand_transpose_is_the_gram_of_transpose_unfold():
    conv = ConvSpec(2, 1, 2, 3, (DimSpec(5, 2, 1, 1), DimSpec(7, 2, 2, 1)))
    arrays = make_inputs(conv, "kfac_expand_transpose", np.random.default_rng(5))
    prep = ops._planned(conv, "kfac_expand_transpose", 2, True)
    assert prep.gram is not None
    # the half is transpose_unfold: its stride-1 pattern is gathered through the
    # output leg, its stride-2 one folded away, and V is (g, c_out k, n i)
    assert [s.kind.value for s in prep.sim.steps] == ["gather", "fold"]
    assert prep.gram.spec.operand_indices[0][:2] == ("g", "c_out")
    unfolded = ops.transpose_unfold(conv, arrays["y"], simplify=True)
    n_i = conv.batch * math.prod(conv.input_sizes)
    cols = unfolded.reshape(conv.batch, conv.c_out * math.prod(conv.kernel_sizes), -1)
    rows = cols.transpose(1, 0, 2).reshape(-1, n_i)
    want = rows @ rows.T / conv.batch
    got = run_op(conv, "kfac_expand_transpose", arrays, simplify=True)
    assert compare(got.reshape(want.shape), want) <= 1e-12
    # V is counted as transpose_unfold's result, not as the contraction its fold writes from
    cost = op_cost(conv, "kfac_expand_transpose").mirrored
    assert cost.max_intermediate == max(prep.sim.plan.max_intermediate, unfolded.size)
    assert prep.sim.plan.max_intermediate < unfolded.size


@pytest.mark.parametrize("simplify", [False, True])
def test_run_op_applies_the_batch_mean_once(simplify):
    # the 1/N scale sits in the cached network: a cold and a warm call each apply it once
    conv = ConvSpec(3, 1, 2, 3, (DimSpec(5, 2), DimSpec(4, 2, 1, 1)))
    rng = np.random.default_rng(6)
    for op in OP_NAMES:
        if not ops._OPS[op].batch_mean:
            continue
        arrays = make_inputs(conv, op, rng)
        ops._PREP_CACHE.clear()
        cold = run_op(conv, op, arrays, simplify=simplify)
        warm = run_op(conv, op, arrays, simplify=simplify)
        prep = ops._planned(conv, op, 2, simplify)
        assert prep.net.scale == 1 / 3, op
        unscaled = prep._replace(net=dataclasses.replace(prep.net, scale=None))
        once = unscaled.run(ops._operands(op, prep.operands, prep.args, arrays)) * (1 / 3)
        assert np.array_equal(cold, once) and np.array_equal(warm, once), op
        assert compare(warm, oracle_run(conv, op, arrays)) <= 1e-12, op
