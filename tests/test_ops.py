"""Convolution operations built on einsum networks."""

import dataclasses
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conv_tn import crs, einsum, ops
from conv_tn.cli import load_layers
from conv_tn.oracle import direct_conv, direct_unfold, toeplitz
from conv_tn.ops import (
    OP_NAMES,
    ConvSpec,
    WeightVjp,
    conv_forward,
    fold_output,
    ggn_diagonal,
    hesscale_weight_diag,
    input_jvp,
    input_shapes,
    input_vjp,
    op_cost,
    per_sample_ggn_diagonal,
    per_sample_hesscale_weight_diag,
    per_sample_weight_vjp,
    run_op,
    transpose_unfold,
    unfold_input,
    unfold_kernel,
    weight_jvp,
    weight_vjp,
)
from conv_tn.pattern import DimSpec, InvalidHyperParams, output_size, pattern
from conv_tn.simplify import SimplifyResult
from conv_tn.tensor import ShapeMismatch, Unsupported
from conv_tn.verify import compare, make_inputs, oracle_run


@pytest.fixture
def small():
    return ConvSpec(2, 1, 2, 3, (DimSpec(4, 2, 1, 1), DimSpec(3, 2)))


def make(conv, seed=0):
    rng = np.random.default_rng(seed)
    shapes = input_shapes(conv, "conv_forward")
    x = rng.standard_normal(shapes["x"])
    w = rng.standard_normal(shapes["w"])
    return x, w


def test_convspec_validation():
    with pytest.raises(InvalidHyperParams):
        ConvSpec(0, 1, 1, 1, (DimSpec(3, 2),))
    with pytest.raises(InvalidHyperParams):
        ConvSpec(1, 2, 3, 2, (DimSpec(3, 2),))  # c_in not divisible by groups
    with pytest.raises(InvalidHyperParams):
        ConvSpec(1, 2, 2, 3, (DimSpec(3, 2),))  # c_out not divisible
    with pytest.raises(InvalidHyperParams):
        ConvSpec(1, 1, 1, 1, ())
    # hyper-parameters are integers, and a layer has at least one channel
    for bad in ((1.5, 1, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0), (1, True, 1, 1), (1, 1, "2", 1)):
        with pytest.raises(InvalidHyperParams):
            ConvSpec(*bad, (DimSpec(3, 2),))
    with pytest.raises(InvalidHyperParams):
        ConvSpec(1, 1, 1, 1, (DimSpec(3, 2),), has_bias="false")
    assert ConvSpec(np.int64(2), 1, 1, 1, (DimSpec(3, 2),) * 4).nd == 4


def test_pointwise_kernel_scales(small):
    conv = ConvSpec(1, 1, 1, 1, (DimSpec(2, 1), DimSpec(2, 1)))
    x = np.arange(4.0).reshape(1, 1, 2, 2)
    w = np.full((1, 1, 1, 1), 2.0)
    assert np.allclose(conv_forward(conv, x, w), 2.0 * x)


def test_zero_kernel_bias_broadcast():
    conv = ConvSpec(1, 1, 1, 2, (DimSpec(3, 2),), has_bias=True)
    y = conv_forward(conv, np.zeros((1, 1, 3)), np.zeros((2, 1, 2)), np.array([3.0, -1.0]))
    assert np.allclose(y[0, 0], 3.0)
    assert np.allclose(y[0, 1], -1.0)


def test_bias_error_paths():
    with_bias = ConvSpec(1, 1, 1, 1, (DimSpec(3, 2),), has_bias=True)
    without = ConvSpec(1, 1, 1, 1, (DimSpec(3, 2),))
    x, w = np.zeros((1, 1, 3)), np.zeros((1, 1, 2))
    with pytest.raises(ShapeMismatch):
        conv_forward(with_bias, x, w)
    with pytest.raises(ShapeMismatch):
        conv_forward(with_bias, x, w, np.zeros(4))
    with pytest.raises(Unsupported):
        conv_forward(without, x, w, np.zeros(1))


def test_operand_shape_checked(small):
    x, w = make(small)
    with pytest.raises(ShapeMismatch):
        conv_forward(small, x[:, :, :2], w)
    with pytest.raises(ShapeMismatch):
        weight_vjp(small, x, np.zeros((2, 3, 1, 1)))


@pytest.mark.parametrize("simplify", [False, True])
def test_warm_calls_check_every_array_shape(simplify):
    # a plain array, a squared one (x^2) and one the rewrites gather (x, with simplify on)
    conv = ConvSpec(2, 1, 2, 3, (DimSpec(6, 3, 1, 1), DimSpec(5, 2, 2)))
    rng = np.random.default_rng(9)
    for op, name in (("conv_forward", "w"), ("hesscale_weight_diag", "x"), ("conv_forward", "x")):
        arrays = {k: rng.standard_normal(v) for k, v in input_shapes(conv, op).items()}
        bad = dict(arrays, **{name: arrays[name][..., :-1]})
        ops._PREP_CACHE.clear()
        for _ in ("cold", "warm"):
            with pytest.raises(ShapeMismatch, match=rf"^{op}: {name} has shape"):
                run_op(conv, op, bad, simplify=simplify)
            assert len(ops._PREP_CACHE) == 1, op  # the next call is warm
        [prep] = ops._PREP_CACHE.values()
        gathered = {n for pos, n, *_ in prep.args if pos in prep.sim.gathers}
        assert (name in gathered) == (simplify and name == "x"), (op, name)
        assert compare(run_op(conv, op, arrays, simplify=simplify), oracle_run(conv, op, arrays)) <= 1e-12


@pytest.mark.parametrize("simplify", [False, True])
def test_results_never_alias_the_callers_arrays(simplify):
    # a 1x1, stride-1, unpadded layer gathers its input as a plain reshape
    # view: unfold_input and im2col_jvp must still hand back a fresh array
    rng = np.random.default_rng(12)
    for name, conv in load_layers(None):
        for op in OP_NAMES:
            if op == "unfold_kernel" and conv.groups != 1:
                continue
            arrays = {k: rng.standard_normal(v) for k, v in input_shapes(conv, op).items()}
            out = run_op(conv, op, arrays, simplify=simplify)
            for key, a in arrays.items():
                assert not np.shares_memory(out, a), (name, op, key)


# conv_tn's named Python frames in one warm run_op on the layer below (a
# comprehension or generator is not counted, so Python 3.11 and 3.12 agree)
WARM_FRAMES = {
    ("conv_forward", False): 14,
    ("conv_forward", True): 11,
    ("input_vjp", False): 14,
    ("input_vjp", True): 12,
    ("kfac_expand_factor", False): 16,
    ("kfac_expand_factor", True): 13,
    ("hesscale_weight_diag", False): 14,
    ("hesscale_weight_diag", True): 11,
}


def test_warm_calls_stay_within_their_frame_budget():
    conv = ConvSpec(2, 1, 2, 3, (DimSpec(6, 3, 1, 1), DimSpec(5, 2, 2)))
    root = str(Path(ops.__file__).parent)
    rng = np.random.default_rng(10)
    for (op, simplify), budget in WARM_FRAMES.items():
        arrays = make_inputs(conv, op, rng)
        run_op(conv, op, arrays, simplify=simplify)
        frames = []

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(root) and not code.co_name.startswith("<"):
                frames.append(code.co_name)

        sys.setprofile(profile)
        try:
            run_op(conv, op, arrays, simplify=simplify)
        finally:
            sys.setprofile(None)
        assert len(frames) <= budget, (op, simplify, frames)


def test_conv_equals_kernel_matrix_times_unfold(small):
    x, w = make(small)
    u = unfold_input(small, x)
    mat = w.reshape(small.c_out, -1)
    y = conv_forward(small, x, w)
    for n in range(small.batch):
        assert np.allclose(mat @ u[n], y[n].reshape(small.c_out, -1), atol=1e-12)


def test_unfold_matches_oracle(small):
    x, _ = make(small)
    assert np.allclose(unfold_input(small, x), direct_unfold(small, x), atol=1e-12)


def test_unfold_kernel_matches_toeplitz(small):
    _, w = make(small)
    uk = unfold_kernel(small, w)
    o_total = int(np.prod(small.out_sizes))
    i_total = int(np.prod(small.input_sizes))
    assert uk.shape == (small.c_out * o_total, small.c_in * i_total)
    assert np.allclose(uk, toeplitz(small, w), atol=1e-12)


def test_unfold_kernel_rejects_groups():
    conv = ConvSpec(1, 2, 2, 2, (DimSpec(3, 2),))
    with pytest.raises(Unsupported):
        unfold_kernel(conv, np.zeros((2, 1, 2)))


def test_fold_is_adjoint_of_pattern_scatter(small):
    # fold maps per-location channel maps back to input positions; pairing
    # it against an unfold of matching content must agree entrywise
    rng = np.random.default_rng(5)
    y_like = rng.standard_normal(input_shapes(small, "fold_output")["y_like"])
    x_probe = rng.standard_normal(input_shapes(small, "conv_forward")["x"])
    folded = fold_output(small, y_like)
    assert folded.shape == x_probe.shape
    # adjoint identity: <fold(Y), X> == <Y, unfold-style gather of X>
    single = ConvSpec(small.batch, 1, small.c_in, small.c_in, small.dims)
    lhs = float((folded * x_probe).sum())
    u = direct_unfold(small, x_probe)
    k_total = int(np.prod(small.kernel_sizes))
    gathered = u.reshape(small.batch, small.c_in, k_total, -1).sum(axis=2)
    rhs = float((y_like.reshape(small.batch, small.c_in, -1) * gathered).sum())
    assert np.isclose(lhs, rhs, atol=1e-10)


def test_weight_vjp_sums_per_sample(small):
    rng = np.random.default_rng(11)
    x, _ = make(small)
    v_y = rng.standard_normal(input_shapes(small, "weight_vjp")["v_y"])
    total = weight_vjp(small, x, v_y)
    per = per_sample_weight_vjp(small, x, v_y)
    assert total.bias is None
    assert np.allclose(per.sum(axis=0), total.weight, atol=1e-12)


def test_weight_vjp_bias_term():
    conv = ConvSpec(2, 1, 1, 2, (DimSpec(3, 2),), has_bias=True)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 1, 3))
    v_y = rng.standard_normal((2, 2, 2))
    out = weight_vjp(conv, x, v_y)
    assert np.allclose(out.bias, v_y.sum(axis=(0, 2)), atol=1e-12)


def test_jvps_are_convolutions(small):
    # the map is bilinear, so each directional derivative is itself the
    # forward map with one argument replaced by the direction
    rng = np.random.default_rng(9)
    x, w = make(small)
    v_x = rng.standard_normal(x.shape)
    v_w = rng.standard_normal(w.shape)
    assert np.allclose(weight_jvp(small, x, v_w), direct_conv(small, x, v_w), atol=1e-12)
    assert np.allclose(input_jvp(small, v_x, w), direct_conv(small, v_x, w), atol=1e-12)


def test_input_vjp_adjoint_identity(small):
    rng = np.random.default_rng(13)
    x, w = make(small)
    v_y = rng.standard_normal(input_shapes(small, "input_vjp")["v_y"])
    back = input_vjp(small, w, v_y)
    lhs = float((back * x).sum())
    rhs = float((v_y * direct_conv(small, x, w)).sum())
    assert np.isclose(lhs, rhs, atol=1e-10)


def test_transpose_unfold_shape():
    conv = ConvSpec(1, 1, 1, 1, (DimSpec(4, 1, 2),))
    y = np.arange(2.0).reshape(1, 1, 2)
    base = transpose_unfold(conv, y)
    assert base.shape == (1, 1, 4)
    assert np.array_equal(base[0, 0], [0.0, 0.0, 1.0, 0.0])


def test_run_op_rejects_unknown(small):
    with pytest.raises(Unsupported):
        run_op(small, "no_such_op", {})
    with pytest.raises(Unsupported):
        input_shapes(small, "no_such_op")
    for nd in (0, -1):
        with pytest.raises(Unsupported):
            ops._expanded("conv_forward", nd)


def test_input_shapes_cover_all_ops(small):
    for op in OP_NAMES:
        shapes = input_shapes(small, op)
        assert shapes, op
        assert all(isinstance(v, tuple) for v in shapes.values())


def test_op_cost_reports(small):
    costs = op_cost(small, "conv_forward")
    assert costs.base.flops >= costs.simplified.flops >= 0
    assert "->" in costs.equation


def test_simplify_flag_is_equivalent(small):
    x, w = make(small)
    a = conv_forward(small, x, w)
    b = conv_forward(small, x, w, simplify=True)
    assert np.allclose(a, b, atol=1e-12)


# Pairs of 1d layers whose patterns have equal shapes (I x O x K) but differ
# in stride, padding or dilation, so only the DimSpecs tell them apart.
COLLIDING = (
    (DimSpec(8, 2, stride=4), DimSpec(8, 2, stride=5, padding=1)),
    (DimSpec(8, 3, padding=1), DimSpec(8, 3, padding=2, dilation=2)),
)


def _check_against_oracle(conv, op, seed):
    rng = np.random.default_rng(seed)
    arrays = make_inputs(conv, op, rng)
    got = run_op(conv, op, arrays, simplify=True)
    want = oracle_run(conv, op, arrays)
    assert compare(got, want.weight if isinstance(want, WeightVjp) else want) <= 1e-12


@pytest.mark.parametrize("pair", COLLIDING)
@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_prepare_cache_tells_shape_equal_layers_apart(pair, order):
    ops._PREP_CACHE.clear()
    for which in order:
        conv = ConvSpec(2, 1, 2, 3, (pair[which],))
        _check_against_oracle(conv, "conv_forward", seed=which)


@st.composite
def colliding_layers(draw):
    """Two layers equal but for stride, padding and dilation, with equal pattern shapes."""
    op = draw(st.sampled_from(OP_NAMES))
    dims_a, dims_b = [], []
    for _ in range(draw(st.integers(1, 3))):
        size, kernel = draw(st.integers(2, 7)), draw(st.integers(1, 3))
        options = [
            DimSpec(size, kernel, s, p, d)
            for s, p, d in itertools.product((1, 2, 3), (0, 1, 2), (1, 2))
            if kernel + (kernel - 1) * (d - 1) <= size + 2 * p
        ]
        assume(options)
        a = draw(st.sampled_from(options))
        dims_a.append(a)
        dims_b.append(draw(st.sampled_from([o for o in options if output_size(o) == output_size(a)])))
    groups = 1 if op == "unfold_kernel" else draw(st.sampled_from((1, 2)))
    batch = draw(st.integers(1, 2))
    return op, ConvSpec(batch, groups, 2, 2, dims_a), ConvSpec(batch, groups, 2, 2, dims_b)


@given(colliding_layers())
@settings(max_examples=60, deadline=None)
def test_shape_colliding_layers_match_oracle_in_both_orders(case):
    op, conv_a, conv_b = case
    for first, second in ((conv_a, conv_b), (conv_b, conv_a)):
        ops._PREP_CACHE.clear()
        _check_against_oracle(first, op, seed=0)
        _check_against_oracle(second, op, seed=1)


# Equations at one grouped layer, 2 groups of 2 -> 3 channels, in 1d and 2d
# (unfold_kernel, defined for one group only, at the same layer ungrouped).
# They pin the table's expansion to the networks the ops have always built.
EQUATIONS = {
    1: {
        "conv_forward": "n (g c_in) i1, i1 o1 k1, (g c_out) c_in k1 -> n (g c_out) o1",
        "unfold_input": "n c_in i1, i1 o1 k1 -> n (c_in k1) o1",
        "unfold_kernel": "i1 o1 k1, c_out c_in k1 -> (c_out o1) (c_in i1)",
        "fold_output": "n c o1, i1 o1 k1 -> n c i1",
        "transpose_unfold": "n (g c_out) o1, i1 o1 k1 -> n (g c_out k1) i1",
        "weight_vjp": "n (g c_in) i1, i1 o1 k1, n (g c_out) o1 -> (g c_out) c_in k1",
        "per_sample_weight_vjp":
            "n (g c_in) i1, i1 o1 k1, n (g c_out) o1 -> n (g c_out) c_in k1",
        "input_vjp": "(g c_out) c_in k1, i1 o1 k1, n (g c_out) o1 -> n (g c_in) i1",
        "weight_jvp": "n (g c_in) i1, i1 o1 k1, (g c_out) c_in k1 -> n (g c_out) o1",
        "input_jvp": "n (g c_in) i1, i1 o1 k1, (g c_out) c_in k1 -> n (g c_out) o1",
        "im2col_jvp": "n c_in i1, i1 o1 k1 -> n (c_in k1) o1",
        "im2col_vjp": "i1 o1 k1, n (c_in k1) o1 -> n c_in i1",
        "kfac_expand_factor":
            "n (g c_in) i1, i1 o1 k1, n (g c_in_) i1_, i1_ o1 k1_ -> g (c_in k1) (c_in_ k1_)",
        "kfac_reduce_factor":
            "n (g c_in) i1, i1 k1, n (g c_in_) i1_, i1_ k1_ -> g (c_in k1) (c_in_ k1_)",
        "kfac_expand_transpose": "n (g c_out) o1, i1 o1 k1, n (g c_out_) o1_, i1 o1_ k1_"
            " -> g (c_out k1) (c_out_ k1_)",
        "kfac_reduce_transpose":
            "n (g c_out) o1, o1 k1, n (g c_out_) o1_, o1_ k1_ -> g (c_out k1) (c_out_ k1_)",
        "ggn_gram": "n (g c_in) i1, i1 o1 k1, c n (g c_out) o1, n_ (g c_in) i1_, i1_ o1_ k1,"
            " c_ n_ (g c_out) o1_ -> (c n) (c_ n_)",
        "ggn_diagonal": "n (g c_in) i1, i1 o1 k1, c n (g c_out) o1, n (g c_in) i1_, i1_ o1_ k1,"
            " c n (g c_out) o1_ -> (g c_out) c_in k1",
        "per_sample_ggn_diagonal": "n (g c_in) i1, i1 o1 k1, c n (g c_out) o1, n (g c_in) i1_,"
            " i1_ o1_ k1, c n (g c_out) o1_ -> n (g c_out) c_in k1",
        "hesscale_weight_diag": "n (g c_in) i1, i1 o1 k1, n (g c_out) o1 -> (g c_out) c_in k1",
        "per_sample_hesscale_weight_diag":
            "n (g c_in) i1, i1 o1 k1, n (g c_out) o1 -> n (g c_out) c_in k1",
        "hesscale_input_diag": "(g c_out) c_in k1, i1 o1 k1, n (g c_out) o1 -> n (g c_in) i1",
    },
    2: {
        "conv_forward": "n (g c_in) i1 i2, i1 o1 k1, i2 o2 k2, (g c_out) c_in k1 k2"
            " -> n (g c_out) o1 o2",
        "unfold_input": "n c_in i1 i2, i1 o1 k1, i2 o2 k2 -> n (c_in k1 k2) (o1 o2)",
        "unfold_kernel": "i1 o1 k1, i2 o2 k2, c_out c_in k1 k2 -> (c_out o1 o2) (c_in i1 i2)",
        "fold_output": "n c o1 o2, i1 o1 k1, i2 o2 k2 -> n c i1 i2",
        "transpose_unfold": "n (g c_out) o1 o2, i1 o1 k1, i2 o2 k2 -> n (g c_out k1 k2) (i1 i2)",
        "weight_vjp": "n (g c_in) i1 i2, i1 o1 k1, i2 o2 k2, n (g c_out) o1 o2"
            " -> (g c_out) c_in k1 k2",
        "per_sample_weight_vjp": "n (g c_in) i1 i2, i1 o1 k1, i2 o2 k2, n (g c_out) o1 o2"
            " -> n (g c_out) c_in k1 k2",
        "input_vjp": "(g c_out) c_in k1 k2, i1 o1 k1, i2 o2 k2, n (g c_out) o1 o2"
            " -> n (g c_in) i1 i2",
        "weight_jvp": "n (g c_in) i1 i2, i1 o1 k1, i2 o2 k2, (g c_out) c_in k1 k2"
            " -> n (g c_out) o1 o2",
        "input_jvp": "n (g c_in) i1 i2, i1 o1 k1, i2 o2 k2, (g c_out) c_in k1 k2"
            " -> n (g c_out) o1 o2",
        "im2col_jvp": "n c_in i1 i2, i1 o1 k1, i2 o2 k2 -> n (c_in k1 k2) (o1 o2)",
        "im2col_vjp": "i1 o1 k1, i2 o2 k2, n (c_in k1 k2) (o1 o2) -> n c_in i1 i2",
        "kfac_expand_factor": "n (g c_in) i1 i2, i1 o1 k1, i2 o2 k2, n (g c_in_) i1_ i2_,"
            " i1_ o1 k1_, i2_ o2 k2_ -> g (c_in k1 k2) (c_in_ k1_ k2_)",
        "kfac_reduce_factor": "n (g c_in) i1 i2, i1 k1, i2 k2, n (g c_in_) i1_ i2_, i1_ k1_,"
            " i2_ k2_ -> g (c_in k1 k2) (c_in_ k1_ k2_)",
        "kfac_expand_transpose": "n (g c_out) o1 o2, i1 o1 k1, i2 o2 k2, n (g c_out_) o1_ o2_,"
            " i1 o1_ k1_, i2 o2_ k2_ -> g (c_out k1 k2) (c_out_ k1_ k2_)",
        "kfac_reduce_transpose": "n (g c_out) o1 o2, o1 k1, o2 k2, n (g c_out_) o1_ o2_,"
            " o1_ k1_, o2_ k2_ -> g (c_out k1 k2) (c_out_ k1_ k2_)",
        "ggn_gram": "n (g c_in) i1 i2, i1 o1 k1, i2 o2 k2, c n (g c_out) o1 o2,"
            " n_ (g c_in) i1_ i2_, i1_ o1_ k1, i2_ o2_ k2, c_ n_ (g c_out) o1_ o2_"
            " -> (c n) (c_ n_)",
        "ggn_diagonal": "n (g c_in) i1 i2, i1 o1 k1, i2 o2 k2, c n (g c_out) o1 o2,"
            " n (g c_in) i1_ i2_, i1_ o1_ k1, i2_ o2_ k2, c n (g c_out) o1_ o2_"
            " -> (g c_out) c_in k1 k2",
        "per_sample_ggn_diagonal": "n (g c_in) i1 i2, i1 o1 k1, i2 o2 k2, c n (g c_out) o1 o2,"
            " n (g c_in) i1_ i2_, i1_ o1_ k1, i2_ o2_ k2, c n (g c_out) o1_ o2_"
            " -> n (g c_out) c_in k1 k2",
        "hesscale_weight_diag": "n (g c_in) i1 i2, i1 o1 k1, i2 o2 k2, n (g c_out) o1 o2"
            " -> (g c_out) c_in k1 k2",
        "per_sample_hesscale_weight_diag": "n (g c_in) i1 i2, i1 o1 k1, i2 o2 k2,"
            " n (g c_out) o1 o2 -> n (g c_out) c_in k1 k2",
        "hesscale_input_diag": "(g c_out) c_in k1 k2, i1 o1 k1, i2 o2 k2, n (g c_out) o1 o2"
            " -> n (g c_in) i1 i2",
    },
}
# the HesScale terms read the square of their array
SQUARED = {
    "hesscale_weight_diag": "x^2", "per_sample_hesscale_weight_diag": "x^2",
    "hesscale_input_diag": "w^2",
}


@pytest.mark.parametrize("nd", [1, 2])
def test_table_expands_to_the_pinned_equations(nd):
    conv = ConvSpec(2, 2, 4, 6, (DimSpec(6, 3, 1, 1), DimSpec(5, 2, 2))[:nd])
    assert tuple(EQUATIONS[nd]) == OP_NAMES
    for op, equation in EQUATIONS[nd].items():
        if op == "unfold_kernel":
            with pytest.raises(Unsupported):
                ops.build_network(conv, op)
            layer = dataclasses.replace(conv, groups=1)
        else:
            layer = conv
        net = ops.build_network(layer, op)
        assert net.equation == equation, op
        assert net.seeds == ({"g": layer.groups} if "(g " in equation else {}), op
        assert net.scale == (1.0 / conv.batch if op.startswith("kfac") else None), op
        squared = [s for s in net.sources if isinstance(s, str) and s.endswith("^2")]
        assert squared == ([SQUARED[op]] if op in SQUARED else []), op


def test_built_network_contracts_to_run_op(small):
    rng = np.random.default_rng(3)
    for op in OP_NAMES:
        arrays = make_inputs(small, op, rng)
        net = ops.build_network(small, op, arrays)
        assert set(net.roles.values()) <= set(small.dims), op
        for pos, dim in net.roles.items():
            assert net.operands[pos] is pattern(dim).table, op
        spec = einsum.parse(net.equation, [a.shape for a in net.operands], sizes=net.seeds)
        got = einsum.contract(spec, net.operands, einsum.plan(spec))
        if net.scale is not None:
            got = got * net.scale
        assert compare(got, run_op(small, op, arrays)) <= 1e-12, op


@pytest.mark.parametrize("op", ["ggn_gram", "ggn_diagonal", "per_sample_ggn_diagonal"])
def test_ops_take_exactly_their_arrays(small, op):
    arrays = make_inputs(small, op, np.random.default_rng(4))
    x, s = arrays["x"], arrays["s"]
    wrong = ({"x": x}, {"x": x, "s": None}, {"x": x, "s": s, "w": x}, {"x": x, "S": s})
    for given_arrays in wrong:
        for simplify in (False, True):
            with pytest.raises(TypeError, match=r"takes the arrays \(x, s\)"):
                run_op(small, op, given_arrays, simplify=simplify)
        with pytest.raises(TypeError, match=r"takes the arrays \(x, s\)"):
            ops.build_network(small, op, given_arrays)
    with pytest.raises(ShapeMismatch):
        run_op(small, op, {"x": x, "s": 3.0})
    assert run_op(small, op, arrays).any()
    net = ops.build_network(small, op, None, columns=3)
    assert net.operands[net.sources.index("s")].shape == input_shapes(small, op, 3)["s"]


def test_planning_allocates_no_operand_data():
    # x alone is 64 x 64 x 112 x 112 doubles (411 MB); the GGN stack is 8 times that
    conv = ConvSpec(64, 1, 64, 64, (DimSpec(112, 3, 1, 1), DimSpec(112, 3, 1, 1)))
    assert math.prod(input_shapes(conv, "conv_forward")["x"]) * 8 >= 256 << 20
    ops._PREP_CACHE.clear()
    tracemalloc.start()
    try:
        for op in OP_NAMES:
            ops.build_network(conv, op, None, columns=8)
            ops.op_cost(conv, op, columns=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak


def test_simplified_first_order_ops_build_no_pattern_table():
    conv = ConvSpec(2, 1, 2, 3, (DimSpec(9, 3, 2, 1), DimSpec(7, 2, 3, 2)))
    first_order = (
        "unfold_input", "im2col_jvp", "fold_output", "im2col_vjp", "transpose_unfold",
        "conv_forward", "weight_jvp", "input_jvp", "weight_vjp", "per_sample_weight_vjp",
        "input_vjp",
    )
    rng = np.random.default_rng(4)
    inputs = {op: make_inputs(conv, op, rng) for op in first_order}
    ops._PREP_CACHE.clear()
    pattern.cache_clear()
    results = {op: run_op(conv, op, inputs[op], simplify=True) for op in first_order}
    assert pattern.cache_info().misses == 0
    for op in first_order:
        want = oracle_run(conv, op, inputs[op])
        assert compare(results[op], want.weight if isinstance(want, WeightVjp) else want) <= 1e-12


def test_plain_wrappers_take_the_arrays_in_table_order(small):
    x, w = make(small)
    with pytest.raises(TypeError):
        input_jvp(small, x)
    assert input_jvp.__name__ == "input_jvp"
    assert np.allclose(input_jvp(small, x, w), direct_conv(small, x, w), atol=1e-12)
    rng = np.random.default_rng(5)
    for fn, names in (
        (ggn_diagonal, ("x", "s")),
        (per_sample_ggn_diagonal, ("x", "s")),
        (hesscale_weight_diag, ("x", "d_y")),
        (per_sample_hesscale_weight_diag, ("x", "d_y")),
    ):
        arrays = make_inputs(small, fn.__name__, rng)
        assert tuple(arrays) == names, fn.__name__
        got = fn(small, *arrays.values())
        assert np.array_equal(got, run_op(small, fn.__name__, arrays)), fn.__name__
        with pytest.raises(TypeError):
            fn(small, arrays["x"])
        with pytest.raises(TypeError):
            fn(small, *arrays.values(), per_sample=True)


@pytest.mark.parametrize("simplify", [False, True])
def test_calls_reach_the_attributes_a_tracer_rebinds(simplify, monkeypatch):
    # a span tracer wraps these module and class attributes; a call that
    # bypasses one of them would go missing from its trace
    for owner, name in ((ops, "run_op"), (ops, "build_network"), (ops, "pattern"),
                        (einsum, "parse"), (crs, "crs_weight_vjp")):
        assert callable(getattr(owner, name)), name
    calls: dict[str, int] = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((einsum, "contract"), (einsum, "plan"), (ops, "simplify_structure"),
                        (SimplifyResult, "apply")):
        counting(owner, name)
    conv = ConvSpec(2, 1, 2, 3, (DimSpec(6, 3, 1, 1), DimSpec(5, 2, 2)))
    rng = np.random.default_rng(8)
    for op in ("conv_forward", "input_vjp", "kfac_expand_factor", "ggn_diagonal"):
        arrays = make_inputs(conv, op, rng)
        ops._PREP_CACHE.clear()
        calls.clear()
        cold = run_op(conv, op, arrays, simplify=simplify)
        assert calls.keys() == {"contract", "plan", "simplify_structure", "apply"}, (op, calls)
        calls.clear()
        warm = run_op(conv, op, arrays, simplify=simplify)
        assert calls.keys() == {"contract", "apply"}, (op, calls)
        assert np.array_equal(cold, warm), op
