"""Verification harness internals."""

import numpy as np

from conv_tn import verify
from conv_tn.ops import OP_NAMES, ConvSpec, input_shapes
from conv_tn.pattern import DimSpec
from conv_tn.verify import (
    compare,
    default_grid,
    make_inputs,
    oracle_run,
    run_verification,
    tn_run,
)


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


def test_engine_matches_oracle_everywhere():
    conv = ConvSpec(2, 2, 4, 4, (DimSpec(5, 2, 2, 1), DimSpec(4, 2)), has_bias=True)
    rng = np.random.default_rng(1)
    for op in OP_NAMES:
        if op == "unfold_kernel":
            continue  # undefined for grouped kernels
        arrays = make_inputs(conv, op, rng)
        got = tn_run(conv, op, arrays)
        want = oracle_run(conv, op, arrays)
        err = compare(want, got)
        assert err <= 1e-12, (op, err)


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
