"""Networks cut over the batch index: slices, their results and their memory."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from conv_tn import ops
from conv_tn.cli import load_layers, main
from conv_tn.crs import masked_weight_vjp
from conv_tn.ops import OP_NAMES, ConvSpec, op_cost, run_op
from conv_tn.pattern import DimSpec
from conv_tn.verify import compare, make_inputs, oracle_run

# batch 7, so that slices of two leave a short last slice of one
LAYERS = (
    ConvSpec(7, 1, 3, 4, (DimSpec(9, 3, 2, 1, 2),)),
    ConvSpec(7, 2, 4, 6, (DimSpec(6, 3, 1, 1), DimSpec(5, 2, 2))),
    ConvSpec(7, 1, 2, 3, (DimSpec(4, 2, 1, 1), DimSpec(3, 2), DimSpec(5, 3, 2, 2))),
    ConvSpec(7, 3, 3, 3, (DimSpec(8, 3, 1, 1), DimSpec(7, 3, 1, 1))),
)
# n in the output, n summed, a gather through the output leg where the stride
# is 1 and a fold where it is not, and a fold alone
OPS = (
    "conv_forward", "per_sample_weight_vjp", "weight_vjp", "input_vjp", "hesscale_weight_diag",
    "hesscale_input_diag", "fold_output",
)


@pytest.fixture(autouse=True)
def own_cache(monkeypatch):
    # networks planned under a patched slice constant stay out of the shared cache
    monkeypatch.setattr(ops, "_PREP_CACHE", {})


def _prep(op, conv):
    ops._PREP_CACHE.clear()
    run_op(conv, op, make_inputs(conv, op, np.random.default_rng(0)), simplify=True)
    [prep] = ops._PREP_CACHE.values()
    return prep


def _cut_to(monkeypatch, op, conv, samples):
    """Set the slice constant so that ``op`` on ``conv`` runs in slices of ``samples``."""
    monkeypatch.setattr(ops, "_SLICE_BYTES", 1 << 60)
    per_sample = 8 * ops._copied(_prep(op, conv).sim) // conv.batch
    monkeypatch.setattr(ops, "_SLICE_BYTES", samples * per_sample)
    ops._PREP_CACHE.clear()


@pytest.mark.parametrize("samples", [1, 2, 3])
@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("conv", LAYERS)
def test_sliced_results_match_the_whole_batch(monkeypatch, conv, op, samples):
    arrays = make_inputs(conv, op, np.random.default_rng(3))
    whole = run_op(conv, op, arrays, simplify=True)
    assert _prep(op, conv).cut is None  # small layers run whole
    _cut_to(monkeypatch, op, conv, samples)
    got = run_op(conv, op, arrays, simplify=True)
    [prep] = ops._PREP_CACHE.values()
    assert prep.cut.legs == {"n": samples} and prep.tiles is None
    assert len(prep.slices) == math.ceil(conv.batch / samples)
    # a short last slice runs its own plan, planned at its own size
    tails = [tail for *_, tail in prep.slices if tail is not None]
    assert len(tails) == (conv.batch % samples > 0)
    for tail in tails:
        assert tail.spec.sizes["n"] == conv.batch % samples
    assert prep.sim.spec.sizes["n"] == samples
    assert compare(got, whole) <= 1e-12
    ref = oracle_run(conv, op, arrays)
    assert compare(got, getattr(ref, "weight", ref)) <= 1e-12
    if "n" in prep.spec.output_indices:
        # each slice lands in the output as the whole batch's plan puts it
        assert np.array_equal(got, whole)
    again = run_op(conv, op, arrays, simplify=True)  # a warm call zeroes its buffers afresh
    assert np.array_equal(again, got)


@pytest.mark.parametrize("conv", LAYERS)
def test_sliced_crs_matches_the_whole_batch(monkeypatch, conv):
    arrays = make_inputs(conv, "weight_vjp", np.random.default_rng(4))
    masks = {"c_in": np.arange(conv.c_in // conv.groups) % 2 == 0}
    keep = {"c_in": 0.5}
    whole = masked_weight_vjp(conv, arrays["x"], arrays["v_y"], masks, keep)
    monkeypatch.setattr(ops, "_SLICE_BYTES", 1)
    ops._PREP_CACHE.clear()
    got = masked_weight_vjp(conv, arrays["x"], arrays["v_y"], masks, keep)
    [prep] = ops._PREP_CACHE.values()
    assert prep.cut.legs["n"] == 1 and len(prep.slices) == conv.batch
    assert compare(got, whole) <= 1e-12


def test_what_stays_whole(monkeypatch):
    # with every copy over the constant: neither a GEMM step nor a fold stage
    # that adds shifted slices (fold_output has one), a mirrored form and a dense
    # pattern table (simplify off) stay whole; CRS runs weight_vjp's network, so
    # it is cut whichever dimension is masked.
    # Every cut network is also tiled past one sample but one with a fold,
    # which is never tiled
    monkeypatch.setattr(ops, "_SLICE_BYTES", 1)
    conv = LAYERS[1]
    cut = {}
    for op in OP_NAMES:
        if op == "unfold_kernel":
            continue
        for simplify in (False, True):
            prep = ops._planned(conv, op, 2, simplify)
            cut[op, simplify] = prep.cut is not None
            assert not (cut[op, simplify] and prep.gram is not None), op
            assert (prep.tiles is not None) == (cut[op, simplify] and prep.sim.fold is None), op
    assert {op for op, simplify in cut if ops._planned(conv, op, 2, simplify).sim.fold} == {
        "fold_output", "input_vjp", "hesscale_input_diag", "im2col_vjp", "transpose_unfold"
    }
    assert not any(c for (op, simplify), c in cut.items() if not simplify)
    # nor is a window whose first spatial leg has one row
    one_row = ConvSpec(2, 1, 3, 4, (DimSpec(3, 3), DimSpec(9, 3, 1, 1)))
    prep = ops._planned(one_row, "conv_forward", 2, True)
    assert prep.cut.legs == {"n": 1} and prep.tiles is None
    stepless = ("unfold_input", "transpose_unfold", "im2col_jvp", "im2col_vjp")
    mirrored = {op for op in OP_NAMES if op.startswith(("kfac", "ggn"))} | {"per_sample_ggn_diagonal"}
    assert {op for (op, simplify), c in cut.items() if c} == (
        set(OP_NAMES) - set(stepless) - mirrored - {"unfold_kernel"}
    )
    x, v_y = make_inputs(conv, "weight_vjp", np.random.default_rng(5)).values()
    ops._PREP_CACHE.clear()
    masked_weight_vjp(conv, x, v_y, {"i1": np.arange(6) % 2 == 0}, {"i1": 0.5})
    [prep] = ops._PREP_CACHE.values()
    assert prep.cut is not None and prep.tiles is not None
    ops._PREP_CACHE.clear()
    masked_weight_vjp(conv, x, v_y, {"i2": np.arange(5) % 2 == 0}, {"i2": 0.5})
    [prep] = ops._PREP_CACHE.values()
    exact = ops._planned(conv, "weight_vjp", 2, True)
    assert prep.cut == exact.cut is not None and prep.tiles is not None


def test_no_bundled_network_is_cut():
    for name, conv in load_layers(None):
        for op in OP_NAMES:
            if op == "unfold_kernel" and conv.groups != 1:
                continue
            costs = op_cost(conv, op)
            assert costs.sliced is None and costs.sliced_base is None, (name, op)
            for simplify in (False, True):
                assert ops._planned(conv, op, 2, simplify).slices == ops._WHOLE, (name, op)


# realistic_first_order's resnet_3x3 and mobilenet_dw
RESNET_3X3 = ConvSpec(8, 1, 32, 32, (DimSpec(32, 3, 1, 1), DimSpec(32, 3, 1, 1)))
MOBILENET_DW = ConvSpec(8, 32, 32, 32, (DimSpec(32, 3, 1, 1), DimSpec(32, 3, 1, 1)))
# the window's first spatial leg: i1 where it is read through the output leg
TILED_LEG = {"input_vjp": "i1", "hesscale_input_diag": "i1"}


def _window_bytes(conv, samples):
    return 8 * samples * conv.c_in * math.prod(conv.kernel_sizes) * math.prod(conv.out_sizes)


def test_sliced_forward_peaks_below_the_whole_batch_window_tensor():
    conv = RESNET_3X3
    arrays = make_inputs(conv, "conv_forward", np.random.default_rng(6))
    run_op(conv, "conv_forward", arrays, simplify=True)  # plans outside the trace
    assert ops._planned(conv, "conv_forward", 2, True).cut.legs["n"] == 1
    tracemalloc.start()
    try:
        run_op(conv, "conv_forward", arrays, simplify=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one sample's windows, a padded buffer and the output
    assert peak < _window_bytes(conv, conv.batch) / 2, peak


def test_tiled_forward_peaks_below_one_sample_window_tensor():
    conv = RESNET_3X3
    arrays = make_inputs(conv, "conv_forward", np.random.default_rng(6))
    y = run_op(conv, "conv_forward", arrays, simplify=True)  # plans outside the trace
    assert ops._planned(conv, "conv_forward", 2, True).cut.legs == {"n": 1, "o1": 8}
    tracemalloc.start()
    try:
        run_op(conv, "conv_forward", arrays, simplify=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # past the output it returns: a padded buffer, one tile's windows and its result
    assert peak - y.nbytes < _window_bytes(conv, 1), (peak, y.nbytes)


@pytest.mark.parametrize("op", ["conv_forward", "weight_jvp", "input_jvp", "weight_vjp",
                                "per_sample_weight_vjp", "input_vjp"])
@pytest.mark.parametrize("conv", [RESNET_3X3, MOBILENET_DW])
def test_every_tile_copies_under_the_constant(conv, op):
    prep = ops._planned(conv, op, 2, True)
    leg = TILED_LEG.get(op, "o1")
    assert prep.cut.legs == {"n": 1, leg: 8}
    assert len(prep.slices) == conv.batch and len(prep.tiles) == 4
    for *_, tile in prep.tiles:
        assert tile.spec.sizes[leg] == 8
        assert 8 * ops._copied(tile) <= ops._SLICE_BYTES
    assert prep.cut.copied_bytes == 8 * ops._copied(prep.tiles[0][2]) <= ops._SLICE_BYTES
    assert 8 * ops._copied(prep.sim) > ops._SLICE_BYTES  # one sample alone copies more


# 1d to 3d, grouped and depthwise, padding, dilation 1 to 3, stride 2 on the
# tiled leg (a window through the input leg there; input_vjp folds), and batch 1
TILED_LAYERS = (
    ConvSpec(1, 1, 3, 4, (DimSpec(11, 3, 1, 1),)),
    ConvSpec(2, 1, 3, 2, (DimSpec(15, 3, 2, 2, 2),)),
    ConvSpec(2, 2, 4, 6, (DimSpec(9, 3, 1, 3, 3), DimSpec(6, 2, 1))),
    ConvSpec(3, 3, 3, 3, (DimSpec(8, 3, 1, 1), DimSpec(7, 3, 1, 1))),
    ConvSpec(2, 1, 2, 3, (DimSpec(7, 3, 1, 2, 2), DimSpec(4, 2, 1), DimSpec(5, 3, 1, 1))),
)
TILED_OPS = ("conv_forward", "weight_vjp", "per_sample_weight_vjp", "input_vjp", "hesscale_input_diag")


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("op", TILED_OPS)
@pytest.mark.parametrize("conv", TILED_LAYERS)
def test_tiled_results_match_the_oracle(monkeypatch, conv, op, rows):
    arrays = make_inputs(conv, op, np.random.default_rng(7))
    leg = TILED_LEG.get(op, "o1")
    size = (conv.input_sizes if leg == "i1" else conv.out_sizes)[0]
    # one sample's copy holds the leg, so the constant of that many rows' share tiles by rows
    per_sample = 8 * ops._copied(_prep(op, conv).sim) // conv.batch
    monkeypatch.setattr(ops, "_SLICE_BYTES", rows * per_sample // size)
    ops._PREP_CACHE.clear()
    got = run_op(conv, op, arrays, simplify=True)
    [prep] = ops._PREP_CACHE.values()
    ref = oracle_run(conv, op, arrays)
    assert compare(got, getattr(ref, "weight", ref)) <= 1e-12
    if prep.sim.fold is not None:  # stride 2 on i1: input_vjp folds, and a fold is never tiled
        assert prep.tiles is None and conv.dims[0].stride == 2 and leg == "i1"
        return
    assert prep.cut.legs == ({"n": 1} if conv.batch > 1 else {}) | {leg: rows}
    assert len(prep.tiles) == math.ceil(size / rows)
    # a short last tile runs its own plan, planned at its own size
    assert [tile.spec.sizes[leg] for *_, tile in prep.tiles] == [
        min(rows, size - lo) for lo in range(0, size, rows)
    ]
    again = run_op(conv, op, arrays, simplify=True)  # a warm call zeroes its buffers afresh
    assert np.array_equal(again, got)


def test_op_cost_reports_the_whole_batch_and_the_slices():
    conv = RESNET_3X3
    costs = op_cost(conv, "conv_forward")
    assert costs.sliced_base is None  # simplify off contracts dense pattern tables
    # one sample per slice, 8 of the 32 output rows per tile, and a tile's windows
    assert costs.sliced == ops.SliceCost({"n": 1, "o1": 8}, 8 * conv.c_in * 9 * 8 * conv.out_sizes[1])
    # the plan that runs is one sample's, in four tiles
    prep = ops._planned(conv, "conv_forward", 2, True)
    assert costs.simplified.flops == conv.batch * prep.sim.plan.flops
    assert prep.sim.plan.flops == sum(tile.plan.flops for *_, tile in prep.tiles)
    assert costs.ran(True) == (costs.simplified.flops, costs.simplified.max_intermediate)


def test_flops_prints_the_slices(tmp_path, capsys):
    layer = {"name": "resnet_3x3", "batch": 8, "groups": 1, "c_in": 32, "c_out": 32,
             "dims": [{"i": 32, "k": 3, "p": 1}, {"i": 32, "k": 3, "p": 1}]}
    path = tmp_path / "layers.json"
    path.write_text(json.dumps([layer]))
    assert main(["flops", "--config", str(path), "--op", "weight_vjp", "--op", "unfold_input"]) == 0
    rows = {row["op"]: row for row in json.loads(capsys.readouterr().out)}
    assert rows["weight_vjp"]["sliced"] == {
        "unsimplified": None,
        "simplified": {"legs": {"n": 1, "o1": 8}, "copied_bytes": 8 * 32 * 9 * 8 * 32},
    }
    assert rows["unfold_input"]["sliced"] == {"unsimplified": None, "simplified": None}
