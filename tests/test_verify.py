"""Verification harness internals."""

import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from conv_tn import ops, verify
from conv_tn.cli import load_layers
from conv_tn.ops import OP_NAMES, ConvSpec, input_shapes
from conv_tn.pattern import DimSpec, IndexPattern, classify, output_size, pattern
from conv_tn.verify import (
    compare,
    default_grid,
    make_inputs,
    oracle_run,
    run_verification,
    tn_run,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


def test_default_grid_produces_valid_specs():
    specs = default_grid(count=60, seed=7)
    assert len(specs) == 60
    dims_seen = {conv.nd for conv in specs}
    assert dims_seen == {1, 2}
    assert any(conv.groups == 2 for conv in specs)
    assert any(conv.has_bias for conv in specs)


def test_default_grid_deterministic():
    a = default_grid(count=10, seed=3)
    b = default_grid(count=10, seed=3)
    assert a == b


def test_make_inputs_shapes():
    conv = ConvSpec(2, 1, 2, 3, (DimSpec(4, 2),))
    rng = np.random.default_rng(0)
    for op in OP_NAMES:
        arrays = make_inputs(conv, op, rng)
        for name, shape in input_shapes(conv, op).items():
            assert arrays[name].shape == shape, (op, name)


# Small layers over one to three spatial dimensions: grouped, strided, padded, dilated.
# In the last four, GEMMs read swapped operands that have unit axes: depthwise
# (one channel per group), c_out = 1 with 1x1 kernels and batch 1, and a single
# output pixel in 2d and in 1d.
LAYERS = (
    ConvSpec(2, 2, 4, 4, (DimSpec(5, 2, 2, 1), DimSpec(4, 2)), has_bias=True),
    ConvSpec(2, 2, 4, 2, (DimSpec(5, 2, 2, 1), DimSpec(6, 2, 1, 0, 2), DimSpec(3, 2, 1, 1))),
    ConvSpec(1, 1, 2, 3, (DimSpec(4, 3, 1, 2), DimSpec(3, 1, 2), DimSpec(5, 2, 3, 1, 2)), True),
    ConvSpec(3, 1, 1, 2, (DimSpec(4, 2, 2), DimSpec(2, 2), DimSpec(6, 3, 2, 1, 2))),
    ConvSpec(2, 3, 3, 3, (DimSpec(5, 3, 1, 1), DimSpec(4, 2))),
    ConvSpec(1, 1, 3, 1, (DimSpec(4, 1), DimSpec(3, 1, 2))),
    ConvSpec(2, 1, 2, 3, (DimSpec(3, 3), DimSpec(4, 4))),
    ConvSpec(1, 2, 2, 2, (DimSpec(3, 3),)),
)


def test_engine_matches_oracle_everywhere():
    rng = np.random.default_rng(1)
    for conv, op, simplify in itertools.product(LAYERS, OP_NAMES, (False, True)):
        if op == "unfold_kernel" and conv.groups != 1:
            continue  # undefined for grouped kernels
        arrays = make_inputs(conv, op, rng)
        got = tn_run(conv, op, arrays, simplify=simplify)
        want = oracle_run(conv, op, arrays)
        err = compare(want, got)
        assert err <= 1e-12, (conv, op, simplify, err)


@pytest.mark.parametrize("simplify", [False, True])
def test_four_dimensional_layer_matches_references(simplify):
    # the unsimplified GGN networks have 4 + 2 * 4 = 12 operands, more than
    # einsum.MAX_OPERANDS; they run as their 6-operand halves, and simplified
    # they have 4
    dims = (DimSpec(3, 2), DimSpec(4, 2, 2), DimSpec(3, 1), DimSpec(4, 2, 1, 1))
    report = run_verification([ConvSpec(2, 1, 2, 2, dims)], simplify=simplify)
    assert report.passed
    assert report.skipped == 0


@pytest.mark.parametrize("simplify", [False, True])
def test_benchmark_layers_match_references(simplify):
    # the bundled layers, as the benchmark's fixtures_all_ops workload lists them
    specs = [conv for _, conv in load_layers(str(WORKLOADS / "fixtures_all_ops.json"))]
    report = run_verification(specs, simplify=simplify, tol=1e-12)
    assert report.passed, report.lines()
    assert all(r.cases for r in report.reports), report.lines()


def test_unit_third_dimension_gives_the_two_dimensional_result():
    # a third dimension of size 1 with a 1-wide kernel changes no number
    flat = ConvSpec(2, 2, 4, 2, (DimSpec(5, 3, 2, 1), DimSpec(4, 2, 1, 0, 2)), has_bias=True)
    rng = np.random.default_rng(2)
    for op in OP_NAMES:
        conv = dataclasses.replace(flat, groups=1) if op == "unfold_kernel" else flat
        deep = dataclasses.replace(conv, dims=conv.dims + (DimSpec(1, 1),))
        arrays = make_inputs(conv, op, rng)
        # every array but the unfolded v_u (and the bias) gains a trailing unit axis
        lifted = {k: a if k in ("v_u", "b") else a[..., None] for k, a in arrays.items()}
        for run in (oracle_run, tn_run):
            want, got = run(conv, op, arrays), run(deep, op, lifted)
            if not isinstance(want, tuple):
                want, got = (want,), (got,)
            for w, g in zip(want, got):
                assert np.array_equal(g.reshape(w.shape), w), (op, run.__name__)


def test_every_op_has_one_oracle():
    # an op added to the table without a reference fails here
    assert set(verify.ORACLES) == set(OP_NAMES)


def test_refused_cases_are_counted_as_skipped():
    grouped = ConvSpec(1, 2, 2, 2, (DimSpec(3, 2),))
    report = run_verification([grouped], ("unfold_kernel", "conv_forward"))
    assert report.passed
    assert [(r.op, r.cases, r.skipped) for r in report.reports] == [
        ("unfold_kernel", 0, 1), ("conv_forward", 1, 0)
    ]
    assert report.skipped == 1
    assert "skipped=1" in report.lines()[0]


def _pattern_without_dilation(dim):
    """A pattern of the right shape with ones where ``i == k + o*S - P``: dilation ignored."""
    o_size = output_size(dim)
    i, o, k = np.ogrid[: dim.input_size, :o_size, : dim.kernel_size]
    table = (i == k + o * dim.stride - dim.padding).astype(np.float64)
    return IndexPattern(dim, o_size, classify(dim), table, table.mean(axis=1), table.mean(axis=0))


# the ops whose references once walked the pattern's own nonzero entries, and
# the KFAC-reduce ops, whose references once read its averaged tables
PATTERN_FREE_REFERENCES = (
    "fold_output", "weight_vjp", "per_sample_weight_vjp", "input_vjp", "im2col_vjp",
    "kfac_reduce_factor", "kfac_reduce_transpose",
)


def test_references_catch_a_pattern_that_ignores_dilation(monkeypatch):
    # the builder is swapped in every module that holds it; the references
    # do not read it, so the wrong tables the unsimplified engine contracts
    # are failures, not a mistake both sides share
    for name, module in list(sys.modules.items()):
        if name.startswith("conv_tn") and getattr(module, "pattern", None) is pattern:
            monkeypatch.setattr(module, "pattern", _pattern_without_dilation)
    monkeypatch.setattr(ops, "_PREP_CACHE", {})
    dilated = [
        ConvSpec(2, 1, 2, 3, (DimSpec(7, 3, 1, 1, 2),)),
        ConvSpec(1, 2, 2, 2, (DimSpec(6, 2, 2, 0, 3), DimSpec(5, 2, 1, 1, 2))),
    ]
    report = run_verification(dilated, PATTERN_FREE_REFERENCES, simplify=False)
    failed = [r.op for r in report.reports if r.failures == r.cases == 2]
    assert failed == list(PATTERN_FREE_REFERENCES)
