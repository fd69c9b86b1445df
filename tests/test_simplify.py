"""Structural rewrites that shrink pattern contractions."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from conv_tn import einsum, ops
from conv_tn.cli import load_layers
from conv_tn.ops import OP_NAMES, ConvSpec, build_network, input_shapes, op_cost, run_op
from conv_tn.pattern import DimSpec, output_size, pattern
from conv_tn.simplify import RewriteKind, simplify_structure
from conv_tn.tensor import ShapeMismatch, Unsupported, max_rel_err
from conv_tn.verify import compare, make_inputs, oracle_run

DENSE = ConvSpec(2, 1, 2, 3, (DimSpec(8, 2, 2),))
DOWN = ConvSpec(2, 1, 2, 3, (DimSpec(8, 1, 2),))
MIXED = ConvSpec(2, 1, 2, 3, (DimSpec(8, 2, 2), DimSpec(5, 2)))
GENERAL = ConvSpec(2, 1, 2, 3, (DimSpec(5, 2),))
PADDED = ConvSpec(2, 1, 2, 4, (DimSpec(6, 3, 1, 1), DimSpec(5, 3, 2, 2)))
DILATED = ConvSpec(2, 1, 2, 2, (DimSpec(9, 3, 2, 1, 2), DimSpec(7, 2, 1, 0, 3)))
GROUPED = ConvSpec(2, 2, 4, 6, (DimSpec(6, 3, 1, 1), DimSpec(5, 2, 2)))
# stride 3 does not divide the padded input minus the span: a dangling pixel
DANGLING = ConvSpec(3, 1, 2, 2, (DimSpec(9, 2, 3, 1, 2),))
LAYERS = (DENSE, DOWN, MIXED, GENERAL, PADDED, DILATED, GROUPED, DANGLING)

# One pattern against one data operand: the input leg is gathered from the
# operand, or lands in the output with the kernel leg summed, kept in the
# output, or carried by the data operand; or the input and output legs both
# land in the output and the operand carries the kernel leg (the Toeplitz
# matrix of unfold_kernel).  At stride 1 a kept kernel leg makes the output
# leg a gather (the third equation); the others fold.
PATTERN_EQUATIONS = (
    ("i o k, i -> o k", "i"),
    ("i o k, o -> i", "o"),
    ("i o k, o -> k i", "o"),
    ("i o k, o k -> i", "o k"),
    ("i o k, k -> o i", "k"),
    ("i o k, c k -> c o i", "c k"),
)


# Patterns the rewrites must leave in place: the pattern's term is not three
# bare indices; its input leg has two other holders; a diagonal fold whose
# output leg also sits on the data; a fold whose kernel leg is both carried
# by the data and kept in the output.
REFUSED_EQUATIONS = (
    ("i (o k), i -> o k", "i"),
    ("i o k, i, i -> o k", "i", "i"),
    ("i o k, o k -> o i", "o k"),
    ("i o k, o k -> i k", "o k"),
)


def _sizes(dim, legs):
    known = {"i": dim.input_size, "o": output_size(dim), "k": dim.kernel_size, "c": 3}
    return tuple(known[leg] for leg in legs.split())


def assert_rewrites_exact_and_cheaper(dim, seed=0):
    """Per equation: values equal the unsimplified contraction, no pattern is
    left, and planned FLOPs fall.  A refused pattern stays, with the values."""
    rng = np.random.default_rng(seed)
    for equation, legs in PATTERN_EQUATIONS:
        data = rng.standard_normal(_sizes(dim, legs))
        spec = einsum.parse(equation, [pattern(dim).table.shape, data.shape])
        operands = [pattern(dim).table, data]
        before = einsum.contract(spec, operands, einsum.plan(spec))
        result = simplify_structure(spec, {0: dim})
        after = einsum.contract(result.spec, result.apply(operands), einsum.plan(result.spec))
        if result.fold is not None:
            after = result.fold.apply(after)
        assert after.shape == before.shape, equation
        assert max_rel_err(after, before) <= 1e-12, equation
        assert 0 not in result.kept, equation
        through_o = legs == "o" and "k" in equation.split("->")[1].split() and dim.stride == 1
        kind = RewriteKind.GATHER if legs == "i" or through_o else RewriteKind.FOLD
        assert [s.kind for s in result.steps] == [kind], equation
        assert result.plan == einsum.plan(result.spec), equation
        assert result.plan.flops < einsum.plan(spec).flops, equation
    for equation, *legs in REFUSED_EQUATIONS:
        table = pattern(dim).table
        operands = [table.reshape(len(table), -1) if "(" in equation else table]
        operands += [rng.standard_normal(_sizes(dim, leg)) for leg in legs]
        spec = einsum.parse(equation, [a.shape for a in operands], sizes={"o": output_size(dim)})
        result = simplify_structure(spec, {0: dim})
        assert result.steps == () and 0 in result.kept and result.spec == spec, equation
        dense = einsum.contract(spec, operands, einsum.plan(spec))
        after = einsum.contract(result.spec, result.apply(operands), result.plan)
        assert max_rel_err(after, dense) <= 1e-12, equation


def test_dense_rewrite_preserves_values():
    assert_rewrites_exact_and_cheaper(DimSpec(4, 2, 2))


def test_downsample_rewrite_is_a_gather_or_fold():
    assert_rewrites_exact_and_cheaper(DimSpec(8, 1, 2), seed=1)


def test_general_pattern_rewritten():
    # the last dimension pads wider than its input: kernel offsets 0, 1, 3
    # and 4 of its only output read nothing but padding
    dims = (
        DimSpec(5, 2), DimSpec(6, 3, 1, 1), DimSpec(9, 3, 2, 1, 2), DimSpec(9, 2, 3, 1, 2),
        DimSpec(1, 5, 1, 2),
    )
    for dim in dims:
        assert_rewrites_exact_and_cheaper(dim, seed=2)


def dense_pattern_spec():
    dim = DimSpec(4, 2, 2)
    spec = einsum.parse("i o k, i -> o k", [(4, 2, 2), (4,)])
    rng = np.random.default_rng(0)
    operands = [pattern(dim).table, rng.standard_normal(4)]
    return spec, operands, {0: dim}


def test_simplify_structure_reusable():
    spec, operands, roles = dense_pattern_spec()
    result = simplify_structure(spec, roles)
    first = einsum.contract(result.spec, result.apply(operands), einsum.plan(result.spec))
    other = [operands[0], np.arange(4.0)]
    second = einsum.contract(result.spec, result.apply(other), einsum.plan(result.spec))
    assert np.allclose(first, einsum.contract(spec, operands, einsum.plan(spec)), atol=1e-12)
    assert np.allclose(second, einsum.contract(spec, other, einsum.plan(spec)), atol=1e-12)


@pytest.mark.parametrize("conv", LAYERS)
@pytest.mark.parametrize("op", OP_NAMES)
def test_rewrites_preserve_op_values(conv, op):
    rng = np.random.default_rng(42)
    arrays = {k: rng.standard_normal(v) for k, v in input_shapes(conv, op).items()}
    if op == "unfold_kernel" and conv.groups != 1:
        for simplify in (False, True):
            with pytest.raises(Unsupported):
                run_op(conv, op, arrays, simplify=simplify)
        return
    plain = run_op(conv, op, arrays, simplify=False)
    fancy = run_op(conv, op, arrays, simplify=True)
    assert fancy.shape == plain.shape
    assert max_rel_err(fancy, plain) <= 1e-12
    if op == "unfold_kernel":  # each Toeplitz entry is one weight, copied or summed with zeros
        assert np.array_equal(fancy, plain)


@pytest.mark.parametrize("conv", LAYERS)
def test_each_network_is_planned_once(conv, monkeypatch):
    # the rewrites hand their plan through: it is the one einsum.plan makes
    # for the rewritten spec, and no other plan is searched for
    calls = []
    plan = einsum.plan
    monkeypatch.setattr(einsum, "plan", lambda spec: calls.append(spec) or plan(spec))
    for op in OP_NAMES:
        if op == "unfold_kernel" and conv.groups != 1:
            continue
        net = build_network(conv, op)
        spec = einsum.parse(net.equation, [a.shape for a in net.operands], sizes=net.seeds)
        calls.clear()
        sim = simplify_structure(spec, net.roles)
        assert len(calls) == 1, op
        assert sim.plan == plan(sim.spec), op


_GROUPED_3D = ConvSpec(2, 2, 2, 2, (DimSpec(4, 2, 1, 1), DimSpec(3, 2), DimSpec(3, 2, 1, 0, 2)))
_PLAIN_3D = ConvSpec(2, 1, 1, 2, (DimSpec(3, 2), DimSpec(4, 2, 2, 1), DimSpec(3, 1)))


def test_no_roles_remove_nothing_and_plan_the_network_as_it_is():
    # an unsimplified call runs through simplify_structure with no roles
    for conv in [c for _, c in load_layers(None)] + [_PLAIN_3D, _GROUPED_3D]:
        for op in OP_NAMES:
            if op == "unfold_kernel" and conv.groups != 1:
                continue
            net = build_network(conv, op)
            spec = einsum.parse(net.equation, [a.shape for a in net.operands], sizes=net.seeds)
            sim = simplify_structure(spec, {})
            assert sim.steps == () and sim.gathers == {} and sim.fold is None, op
            assert sim.kept == tuple(range(len(net.operands))), op
            assert sim.spec == spec and sim.plan == einsum.plan(spec), op


# A digest, per op, of its rewrite kinds and simplified plan on every layer of
# LAYERS, as the planner and rewrites made them before the diagonal fold
# existed: that rewrite fires for unfold_kernel alone and changes no other plan.
# The digests were taken again, unchanged plans, when a plan's inputs became
# its operands' flat shapes alone.  Those of transpose_unfold, input_vjp and
# hesscale_input_diag were taken again when a stride-1 pattern whose input leg
# lands in the output became a gather through its output leg: their stride-1
# dimensions no longer fold.  Those of conv_forward, weight_jvp and input_jvp
# were taken again when an expanding last step came to be made in the output's
# order, broadcasting a one-sided batch index, or else (GEMMs too small to
# broadcast) in the order any step takes: on DOWN that step expands and now
# takes the default order, where it was sorted by the output's.
PLAN_DIGESTS = {
    "conv_forward": "3ab2b83ee0084781",
    "unfold_input": "32112824e9e724b6",
    "fold_output": "ee318c2ec9f4a2c4",
    "transpose_unfold": "5698510054041c0b",
    "weight_vjp": "86f5d61799099e45",
    "per_sample_weight_vjp": "d2b7755eb350d6b1",
    "input_vjp": "08a77a802410cf66",
    "weight_jvp": "3ab2b83ee0084781",
    "input_jvp": "3ab2b83ee0084781",
    "im2col_jvp": "32112824e9e724b6",
    "im2col_vjp": "0e4333d1d0619cae",
    "kfac_expand_factor": "7fc8c568abb39721",
    "kfac_reduce_factor": "3ebda9d14826151a",
    "kfac_expand_transpose": "e36b6c986291bdce",
    "kfac_reduce_transpose": "d65015850e847383",
    "ggn_gram": "1463cfefe2dd4a07",
    "ggn_diagonal": "cf96413b35fb8683",
    "per_sample_ggn_diagonal": "47fe493e0450877d",
    "hesscale_weight_diag": "86f5d61799099e45",
    "per_sample_hesscale_weight_diag": "d2b7755eb350d6b1",
    "hesscale_input_diag": "08a77a802410cf66",
}


def test_other_ops_keep_their_rewrites_and_plans():
    assert set(PLAN_DIGESTS) == set(OP_NAMES) - {"unfold_kernel"}
    for op, digest in PLAN_DIGESTS.items():
        h = hashlib.sha256()
        for conv in LAYERS:
            costs = op_cost(conv, op)
            h.update(repr(([s.kind.value for s in costs.rewrites], costs.simplified)).encode())
        assert h.hexdigest()[:16] == digest, op


# Each HesScale op, its first-order op, and the array it squares.
HESSCALE = (
    ("hesscale_weight_diag", "weight_vjp", "x"),
    ("per_sample_hesscale_weight_diag", "per_sample_weight_vjp", "x"),
    ("hesscale_input_diag", "input_vjp", "w"),
)


@pytest.mark.parametrize("conv", LAYERS)
def test_hesscale_is_the_first_order_op_on_the_squared_array(conv):
    rng = np.random.default_rng(7)
    for op, first_order, name in HESSCALE:
        arrays = {k: rng.standard_normal(v) for k, v in input_shapes(conv, op).items()}
        a = arrays[name]
        for simplify in (False, True):
            got = run_op(conv, op, arrays, simplify=simplify)
            want = run_op(conv, first_order, {name: a * a, "v_y": arrays["d_y"]}, simplify=simplify)
            assert np.array_equal(got, want), (op, simplify)
            with pytest.raises(ShapeMismatch, match=f"{op}: {name} has shape"):
                run_op(conv, op, dict(arrays, **{name: a[..., :-1]}), simplify=simplify)


def test_dense_strictly_cheaper():
    costs = op_cost(DENSE, "conv_forward")
    assert costs.rewrites
    assert costs.simplified.flops < costs.base.flops


def test_downsample_strictly_cheaper():
    costs = op_cost(DOWN, "conv_forward")
    assert costs.simplified.flops < costs.base.flops


def test_general_strictly_cheaper():
    costs = op_cost(GENERAL, "conv_forward")
    assert [s.kind for s in costs.rewrites] == [RewriteKind.GATHER]
    assert costs.simplified.flops < costs.base.flops


# The realistic first-order layer set: ResNet 3x3, ResNet 7x7/s2 stem,
# ConvNeXt 4x4/s4 patchify, ResNet 1x1/s2 shortcut, MobileNet depthwise 3x3
# and a dilated temporal convolution.
REALISTIC = (
    ConvSpec(8, 1, 32, 32, (DimSpec(32, 3, 1, 1), DimSpec(32, 3, 1, 1))),
    ConvSpec(2, 1, 3, 32, (DimSpec(64, 7, 2, 3), DimSpec(64, 7, 2, 3))),
    ConvSpec(4, 1, 3, 64, (DimSpec(64, 4, 4), DimSpec(64, 4, 4))),
    ConvSpec(8, 1, 32, 64, (DimSpec(32, 1, 2), DimSpec(32, 1, 2))),
    ConvSpec(8, 32, 32, 32, (DimSpec(32, 3, 1, 1), DimSpec(32, 3, 1, 1))),
    ConvSpec(8, 1, 32, 32, (DimSpec(512, 3, 1, 4, 4),)),
)
GEMM_OPS = (
    "conv_forward", "weight_jvp", "input_jvp", "weight_vjp", "per_sample_weight_vjp", "input_vjp",
    "hesscale_weight_diag", "per_sample_hesscale_weight_diag", "hesscale_input_diag",
)
MOVE_OPS = ("unfold_input", "im2col_jvp", "fold_output", "im2col_vjp", "transpose_unfold")


@pytest.mark.parametrize("conv", REALISTIC)
def test_realistic_plans_are_the_im2col_gemm(conv):
    gemm = (
        conv.batch * conv.c_out * (conv.c_in // conv.groups)
        * math.prod(conv.kernel_sizes) * math.prod(conv.out_sizes)
    )
    # unfold_kernel is defined for groups == 1 only
    for op in GEMM_OPS + MOVE_OPS + (("unfold_kernel",) if conv.groups == 1 else ()):
        costs = op_cost(conv, op)
        assert len(costs.rewrites) == conv.nd, op  # every pattern operand is gone
        assert costs.simplified.flops == (gemm if op in GEMM_OPS else 0), op


def test_hesscale_input_diag_plans_as_input_vjp_on_a_resnet50_layer():
    # batch 32, 64 -> 64 channels, 56 x 56, 3 x 3 with padding 1; planning is shape-only
    conv = ConvSpec(32, 1, 64, 64, (DimSpec(56, 3, 1, 1),) * 2)
    hess, vjp = op_cost(conv, "hesscale_input_diag"), op_cost(conv, "input_vjp")
    for got, want in ((hess.base, vjp.base), (hess.simplified, vjp.simplified)):
        assert (got.flops, got.max_intermediate) == (want.flops, want.max_intermediate)
    assert len(hess.rewrites) == conv.nd


def test_unfold_kernel_reports_its_toeplitz_size_without_allocating_it():
    # the same ResNet-50 layer: the Toeplitz matrix has (64 * 56 * 56)^2 = 200,704^2
    # entries (322 GB); the simplified plan holds only the weight
    conv = ConvSpec(32, 1, 64, 64, (DimSpec(56, 3, 1, 1),) * 2)
    tracemalloc.start()
    try:
        costs = op_cost(conv, "unfold_kernel")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert costs.output_elements == 200_704**2
    assert [s.kind for s in costs.rewrites] == [RewriteKind.FOLD] * conv.nd
    assert costs.simplified.flops == 0
    assert costs.simplified.max_intermediate == 64 * 64 * 3 * 3  # the weight


@pytest.mark.parametrize("op", ["conv_forward", "weight_vjp"])
@pytest.mark.parametrize(
    "conv",
    [
        ConvSpec(2, 1, 3, 4, (DimSpec(6, 3, 1, 1), DimSpec(5, 3, 1, 1))),  # padded 3x3
        ConvSpec(2, 1, 3, 4, (DimSpec(12, 3, 1, 0, 2),)),  # 1d, dilation 2 > stride 1
    ],
)
def test_gather_layouts_read_memory_in_order(conv, op):
    # the plan fixes layouts from index orders; this pins them, not their timing
    net = build_network(conv, op)
    spec = einsum.parse(net.equation, [a.shape for a in net.operands], sizes=net.seeds)
    sim = simplify_structure(spec, net.roles)
    assert set(sim.gathers) == {0}
    x_idx, other_idx = sim.spec.operand_indices
    for d in range(1, conv.nd + 1):
        assert x_idx.index(f"k{d}") < x_idx.index(f"o{d}")  # the term lists k before o
    (step,) = einsum.plan(sim.spec).steps
    layouts = {step.left: step.lhs, step.right: step.rhs}
    # the gathered operand is copied with its output legs innermost, also
    # where the GEMM then reads it swapped (weight_vjp contracts them)
    x_layout = layouts[0]
    assert x_layout.perm is not None
    out_legs = tuple(f"o{d + 1}" for d in range(conv.nd))
    assert tuple(x_idx[a] for a in x_layout.perm)[-conv.nd :] == out_legs
    if op == "conv_forward":
        # the C-contiguous weight already lies as the GEMM reads it: no copy
        w_layout = layouts[1]
        assert w_layout.perm is None and not w_layout.presum
        w = np.arange(float(math.prod(sim.spec.sizes[i] for i in other_idx)))
        view = w_layout.apply(w.reshape([sim.spec.sizes[i] for i in other_idx]))
        assert np.shares_memory(view, w)


@pytest.mark.parametrize(
    "dims, accumulating",
    [
        ((DimSpec(8, 1, 2), DimSpec(8, 1, 2)), []),  # a 1x1 stride-2 shortcut
        ((DimSpec(16, 4, 4), DimSpec(16, 4, 4)), []),  # a 4x4 stride-4 patchify
        ((DimSpec(9, 2, 3, 1),), []),  # the kernel spans less than one stride
        ((DimSpec(11, 2, 3, 0, 2),), []),  # dilated, still inside one stride
        ((DimSpec(11, 2, 2, 0, 2),), [True]),  # dilation 2 reaches the next stride
        ((DimSpec(8, 3, 2, 1), DimSpec(8, 1, 2)), [True, False]),  # overlapping, then not
    ],
)
def test_folds_whose_kernel_spans_less_than_a_stride_assign(dims, accumulating):
    # no two (o, k) pairs reach one i, so such folds join the final assignment stage
    conv = ConvSpec(2, 1, 3, 2, dims)
    rng = np.random.default_rng(8)
    for op in ("fold_output", "im2col_vjp", "input_vjp"):
        net = build_network(conv, op)
        spec = einsum.parse(net.equation, [a.shape for a in net.operands], sizes=net.seeds)
        fold = simplify_structure(spec, net.roles).fold
        assert [s.accumulate for s in fold.stages] == (accumulating or [False]), op
        arrays = {k: rng.standard_normal(v) for k, v in input_shapes(conv, op).items()}
        got = run_op(conv, op, arrays, simplify=True)
        assert max_rel_err(got, run_op(conv, op, arrays)) <= 1e-12, op


@pytest.mark.parametrize("conv", LAYERS)
def test_bare_reshapes_are_made_where_the_array_enters_or_is_produced(conv):
    # a layout that only reshapes costs no call of its own; each array is read once
    for op in OP_NAMES:
        if op == "unfold_kernel" and conv.groups != 1:
            continue
        for simplify in (False, True):
            plan = simplify_structure(*_parsed(conv, op, simplify)).plan
            layouts = [layout for step in plan.program for layout in step[2:4]] + [plan.finish]
            for layout in layouts:
                assert layout is None or layout.presum or layout.perm is not None or layout.swapped
            read = {s.left: s.lhs for s in plan.steps} | {s.right: s.rhs for s in plan.steps}
            for a, (flat, shape) in enumerate(zip(plan.inputs, plan.entry)):
                layout = read.get(a, plan.output)
                bare = not (layout.presum or layout.perm is not None or layout.swapped)
                assert shape == (layout.shape if bare else flat), (op, a)


def _parsed(conv, op, simplify):
    net = build_network(conv, op)
    spec = einsum.parse(net.equation, [a.shape for a in net.operands], sizes=net.seeds)
    return spec, net.roles if simplify else {}


# Stride-1 layers whose padding is 0, below the kernel's reach (K-1)*D, at it
# and beyond it (K=1 with P=2 and K=2 with P=2 read y from an offset, with no
# padded copy), in 1d to 3d, grouped and depthwise, dilation 1 to 3.
STRIDE_ONE = (
    ConvSpec(2, 1, 3, 2, (DimSpec(9, 3, 1, 0, 2),)),
    ConvSpec(2, 1, 2, 3, (DimSpec(5, 1, 1, 2),)),
    ConvSpec(2, 1, 2, 3, (DimSpec(5, 2, 1, 2),)),
    ConvSpec(2, 2, 4, 6, (DimSpec(7, 3, 1, 1, 3), DimSpec(6, 3, 1, 4, 2))),
    ConvSpec(2, 3, 3, 6, (DimSpec(6, 3, 1, 2), DimSpec(5, 2, 1, 0, 3))),
    ConvSpec(2, 1, 2, 2, (DimSpec(4, 2, 1, 2), DimSpec(5, 3, 1, 1, 2), DimSpec(3, 1, 1, 2))),
)
# the ops where a stride-1 pattern's output leg is read as a (k, i) window
THROUGH_OUTPUT = ("input_vjp", "hesscale_input_diag", "transpose_unfold", "kfac_expand_transpose")


def _sim(conv, op):
    return ops._planned(conv, op, 2, True).sim


@pytest.mark.parametrize("conv", STRIDE_ONE)
@pytest.mark.parametrize("op", THROUGH_OUTPUT)
def test_stride_one_output_legs_are_gathered_and_match_the_oracle(conv, op):
    arrays = make_inputs(conv, op, np.random.default_rng(13))
    assert compare(run_op(conv, op, arrays, simplify=True), oracle_run(conv, op, arrays)) <= 1e-12
    prep = ops._planned(conv, op, 2, True)
    sim = prep.sim
    if op != "kfac_expand_transpose" or prep.gram is not None:  # the Gram's half is transpose_unfold
        assert [s.kind for s in sim.steps] == [RewriteKind.GATHER] * conv.nd, op
        assert sim.fold is None, op


@pytest.mark.parametrize("op", ["input_vjp", "hesscale_input_diag"])
def test_a_stride_one_input_vjp_is_one_gemm_over_one_gather_per_dimension(op):
    # the flipped-kernel direct convolution: no fold, and the (k, i) window of
    # v_y (d_y) is the one gathered operand, with one GEMM
    for conv in STRIDE_ONE:
        sim = _sim(conv, op)
        assert sim.fold is None
        assert [s.kind for s in sim.steps] == [RewriteKind.GATHER] * conv.nd
        ((pos, gather),) = sim.gathers.items()
        view = sim.spec.operand_indices[sim.kept.index(pos)]
        for d in range(1, conv.nd + 1):
            assert view.index(f"k{d}") + 1 == view.index(f"i{d}")
        # the kernel leg walks the output leg backwards, D entries a step
        assert sum(st < 0 for st in gather.strides) == conv.nd
        assert len(sim.plan.steps) == 1


def test_mixed_strides_gather_one_dimension_and_fold_the_other():
    conv = ConvSpec(2, 1, 3, 4, (DimSpec(7, 3, 1, 1), DimSpec(8, 3, 2, 1)))
    for op in ("input_vjp", "hesscale_input_diag", "transpose_unfold"):
        sim = _sim(conv, op)
        assert [s.kind for s in sim.steps] == [RewriteKind.GATHER, RewriteKind.FOLD], op
        assert {"k1", "i1"} <= set(sim.spec.operand_indices[-1]) and "o2" in sim.spec.operand_indices[-1], op
        arrays = make_inputs(conv, op, np.random.default_rng(14))
        assert compare(run_op(conv, op, arrays, simplify=True), oracle_run(conv, op, arrays)) <= 1e-12, op


def test_folds_that_would_sum_the_kernel_over_the_view_alone_stay_folds():
    # fold_output carries k nowhere and im2col_vjp carries it on the same operand as o
    for conv in STRIDE_ONE:
        for op in ("fold_output", "im2col_vjp"):
            sim = _sim(conv, op)
            assert [s.kind for s in sim.steps] == [RewriteKind.FOLD] * conv.nd, op


def test_convnext_dw_input_vjp_plans_no_more_flops_with_rewrites():
    conv = dict(load_layers(None))["convnext_dw"]
    costs = op_cost(conv, "input_vjp")
    assert [s.kind for s in costs.rewrites] == [RewriteKind.GATHER] * conv.nd
    assert costs.simplified.flops <= costs.base.flops


# stride-1 dimensions whose input leg is narrowed to kept rows: 1d-3d,
# dilation 1-3, P below, at and beyond (K-1)*D
NARROWED = (
    (DimSpec(7, 3, 1, 0, 2),),
    (DimSpec(8, 3, 1, 2, 1),),
    (DimSpec(6, 2, 1, 4, 3),),
    (DimSpec(6, 3, 1, 1), DimSpec(5, 2, 1, 2, 2)),
    (DimSpec(4, 2, 1, 1), DimSpec(5, 3, 1, 2, 1), DimSpec(6, 2, 1, 4, 3)),
)


@pytest.mark.parametrize("dims", NARROWED)
@pytest.mark.parametrize("case", ["random", "only ends"])
def test_a_narrowed_pattern_takes_the_output_leg_at_the_kept_rows(dims, case):
    # x keeps some rows i, each pattern's slot holds their indices, and v_y's o
    # becomes (k, i): v_y[..., kept + P - k*D], zero where that is outside [0, O)
    rng = np.random.default_rng(len(dims))
    nd = len(dims)
    rows = []
    for dim in dims:
        keep = np.isin(np.arange(dim.input_size), (0, dim.input_size - 1))
        if case == "random":
            keep = rng.random(dim.input_size) < 0.5
            keep[dim.input_size // 2] = True
        rows.append(np.flatnonzero(keep))
    i, o, k = (" ".join(f"{leg}{d}" for d in range(1, nd + 1)) for leg in "iok")
    patterns = [f"i{d} o{d} k{d}" for d in range(1, nd + 1)]
    equation = f"n c {i}, {', '.join(patterns)}, n c {o} -> c {k}"
    x = rng.standard_normal((2, 3, *(len(r) for r in rows)))
    v_y = rng.standard_normal((2, 3, *(output_size(d) for d in dims)))
    tables = [(len(r), output_size(d), d.kernel_size) for r, d in zip(rows, dims)]
    spec = einsum.parse(equation, [x.shape, *tables, v_y.shape])
    result = simplify_structure(spec, {1 + d: dim for d, dim in enumerate(dims)})
    assert [s.kind for s in result.steps] == [RewriteKind.GATHER] * nd
    assert result.kept == (0, nd + 1)
    taken = [f"{leg}{d}" for d in range(1, nd + 1) for leg in "ki"]
    assert result.spec.operand_terms[1] == ("n", "c", *taken)
    window = result.apply([x, *rows, v_y])[1]
    want = np.zeros(window.shape)
    for at in np.ndindex(*window.shape[2:]):
        taps = [r[j] + d.padding - kk * d.dilation for r, d, kk, j in zip(rows, dims, at[::2], at[1::2])]
        if all(0 <= t < output_size(d) for t, d in zip(taps, dims)):
            want[(..., *at)] = v_y[(..., *taps)]
    assert np.array_equal(window, want)


# stride > 1 dimensions whose input leg is narrowed to kept rows, padded or
# not; the last has an unnarrowed dimension between two narrowed ones
NARROWED_STRIDED = (
    (DimSpec(9, 3, 2, 1, 2),),
    (DimSpec(8, 4, 4),),
    (DimSpec(7, 2, 2, 1), DimSpec(6, 1, 2)),
    (DimSpec(5, 3, 2, 1), DimSpec(4, 2), DimSpec(7, 3, 3, 2)),
)


@pytest.mark.parametrize("dims", NARROWED_STRIDED)
def test_a_narrowed_strided_pattern_gathers_the_kept_rows_in_place(dims):
    # x keeps some rows of each strided dimension, and each such pattern's slot
    # holds their indices: the window is the exact one of x with dropped rows zero
    rng = np.random.default_rng(len(dims))
    nd = len(dims)
    masks = [rng.random(d.input_size) < (0.5 if d.stride > 1 else 2) for d in dims]
    for m, d in zip(masks, dims):
        m[[0, -1]] = d.stride == 1, True  # narrowed, and not empty, where strided
    rows = [np.flatnonzero(m) if d.stride > 1 else None for m, d in zip(masks, dims)]
    full = rng.standard_normal((2, 3, *(d.input_size for d in dims)))
    kept = full[np.ix_(range(2), range(3), *(np.flatnonzero(m) for m in masks))]
    zeroed = full * np.einsum(",".join("abc"[:nd]) + "->" + "abc"[:nd], *masks)
    i, o, k = (" ".join(f"{leg}{d}" for d in range(1, nd + 1)) for leg in "iok")
    equation = f"n c {i}, {', '.join(f'i{d} o{d} k{d}' for d in range(1, nd + 1))} -> n c {k} {o}"
    windows = []
    for x, slots in ((kept, rows), (zeroed, [None] * nd)):
        tables = [(x.shape[2 + d], output_size(dim), dim.kernel_size) for d, dim in enumerate(dims)]
        spec = einsum.parse(equation, [x.shape, *tables])
        result = simplify_structure(spec, {1 + d: dim for d, dim in enumerate(dims)})
        assert [s.kind for s in result.steps] == [RewriteKind.GATHER] * nd and result.kept == (0,)
        scattered = [s for _, s in result.gathers[0].scatter]
        assert scattered == [1 + d for d, r in enumerate(slots) if r is not None]
        windows.append(result.apply([x, *slots])[0])
    assert np.array_equal(*windows)


# The exact fold grid's dimensions: a kernel shorter than, as long as and
# longer than its stride; no padding, padding inside the span (K-1)*D and
# padding at or beyond it; dilation; and a 5-tap kernel at stride 2 whose
# middle offsets share one output range, as 7x7 / S2 / P3 does.
FOLD_DIMS = (
    DimSpec(9, 2, 3, 1),  # K < S, P = (K-1)*D
    DimSpec(8, 2, 2),  # K = S, P = 0
    DimSpec(9, 3, 2, 1),  # K > S, 0 < P < (K-1)*D
    DimSpec(6, 3, 2, 3),  # P > (K-1)*D
    DimSpec(11, 3, 2, 2, 2),  # D > 1
    DimSpec(10, 5, 2, 2),  # runs of several offsets
    DimSpec(7, 3, 1, 1),  # stride 1: gathered, not folded, where it can be
)
FOLD_OPS = ("transpose_unfold", "unfold_kernel", "fold_output", "im2col_vjp", "input_vjp")


def _fold_grid(seed=0, count=14):
    """1d-3d layers that cycle through ``FOLD_DIMS`` in every dimension, every
    other one grouped, with batch and channels drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    for j in range(count):
        dims = tuple(FOLD_DIMS[(j + 3 * a) % len(FOLD_DIMS)] for a in range(1 + j % 3))
        groups = 1 + j % 2
        yield ConvSpec(
            int(rng.integers(1, 3)), groups, groups * int(rng.integers(1, 3)),
            groups * int(rng.integers(1, 3)), dims,
        )


@pytest.mark.parametrize("budget", [None, 1])
def test_folds_equal_the_oracle_exactly(monkeypatch, budget):
    # integer-valued inputs make every sum exact: a fold entry written twice,
    # or missed, changes the result.  With a 1-byte budget every network that
    # may be cut is, and every blocked stage writes one row per block.
    monkeypatch.setattr(ops, "_PREP_CACHE", {})
    if budget is not None:
        monkeypatch.setattr(ops, "_SLICE_BYTES", budget)
    rng = np.random.default_rng(24)
    for conv in _fold_grid():
        for op in FOLD_OPS:
            if op == "unfold_kernel" and conv.groups != 1:
                continue
            shapes = input_shapes(conv, op)
            arrays = {k: rng.integers(-3, 4, s).astype(float) for k, s in shapes.items()}
            got = run_op(conv, op, arrays, simplify=True)
            assert np.array_equal(got, oracle_run(conv, op, arrays)), (conv, op)
            fold = ops._PREP_CACHE[(op, conv, 2, True)].sim.fold
            if op == "transpose_unfold" and fold is not None and budget is not None:
                # one row per block (n g c_out, and k where the leg is gathered),
                # where there is more than one write
                [stage], runs = fold.stages, _fold_runs(conv)
                assert len(stage.writes) == runs * (stage.shape[0] if runs > 1 else 1), conv


def _fold_runs(conv):
    """The writes of one block of ``conv``'s ``transpose_unfold``: a view per
    combination of runs of offsets that reach the same outputs, over the
    dimensions of stride > 1 (the others are gathered)."""
    return math.prod(len(set(_ranges(d)) - {None}) for d in conv.dims if d.stride > 1)


def _ranges(d):
    # per offset, the outputs o whose position o*S + k*D - P lies inside the input
    for k in range(d.kernel_size):
        shift = k * d.dilation - d.padding
        o = [o for o in range(output_size(d)) if 0 <= o * d.stride + shift < d.input_size]
        yield (o[0], o[-1] + 1) if o else None


def _stage_writes(conv, op):
    net = build_network(conv, op)
    spec = einsum.parse(net.equation, [a.shape for a in net.operands], sizes=net.seeds)
    return [len(s.writes) for s in simplify_structure(spec, net.roles).fold.stages]


def test_an_assignment_writes_one_view_per_run_of_offsets():
    # one offset per write would give K per dimension: 16, 49 and 9 * 9 below
    patchify = ConvSpec(2, 1, 3, 4, (DimSpec(16, 4, 4),) * 2)
    for op in ("transpose_unfold", "fold_output", "im2col_vjp", "input_vjp", "unfold_kernel"):
        assert _stage_writes(patchify, op) == [1], op
    stem = ConvSpec(1, 1, 1, 2, (DimSpec(16, 7, 2, 3),) * 2)  # 7x7 / S2 / P3, 200 KB out
    assert _stage_writes(stem, "transpose_unfold") == [16] == [_fold_runs(stem)]
    layers = [c for _, c in load_layers(None) if c.groups == 1]
    unpadded = [c for c in layers if not any(d.padding for d in c.dims)]
    assert len(unpadded) == 11
    for conv in unpadded:
        assert _stage_writes(conv, "unfold_kernel") == [1], conv
    # overlapping views add one offset at a time, one stage per dimension
    overlapping = ConvSpec(2, 1, 3, 4, (DimSpec(9, 3, 2, 1), DimSpec(11, 3, 2, 2, 2)))
    for op in ("fold_output", "im2col_vjp", "input_vjp"):
        assert _stage_writes(overlapping, op) == [3, 3], op


def test_a_blocked_fold_writes_views_of_its_output_only(monkeypatch):
    # 16 rows (n c_out) of 401 KB: over the 640 KB budget, so each of the 16
    # runs' views is written one row at a time, and z is read in place
    monkeypatch.setattr(ops, "_PREP_CACHE", {})
    conv = ConvSpec(2, 1, 3, 8, (DimSpec(32, 7, 2, 3),) * 2)
    assert _stage_writes(conv, "transpose_unfold") == [16 * 16]
    y = np.random.default_rng(0).standard_normal(input_shapes(conv, "transpose_unfold")["y"])
    run_op(conv, "transpose_unfold", {"y": y}, simplify=True)  # planned, and not counted below
    tracemalloc.start()
    try:
        out = run_op(conv, "transpose_unfold", {"y": y}, simplify=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes > ops._SLICE_BYTES
    assert peak <= 1.05 * out.nbytes
