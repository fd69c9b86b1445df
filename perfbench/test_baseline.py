"""The im2col baseline against the loop oracles on every bundled fixture layer."""

import ast
from pathlib import Path

import numpy as np
import pytest

import baseline
from conv_tn import crs, ops, verify
from conv_tn.cli import load_layers
from conv_tn.tensor import Unsupported

FIXTURES = load_layers(None)


@pytest.mark.parametrize("name,conv", FIXTURES, ids=[name for name, _ in FIXTURES])
def test_baseline_matches_oracle(name, conv):
    rng = np.random.default_rng(0)
    checked = 0
    for op in baseline.OPS:
        arrays = {k: rng.standard_normal(s) for k, s in ops.input_shapes(conv, op).items()}
        try:
            ref = verify.oracle_run(conv, op, arrays)
        except Unsupported:
            continue
        ref = ref.weight if isinstance(ref, ops.WeightVjp) else ref
        got = baseline.run(conv, op, arrays)
        assert verify.compare(got, ref) <= 1e-12, op
        checked += 1
    assert checked >= len(baseline.OPS) - 3


@pytest.mark.parametrize("name,conv", FIXTURES[:6], ids=[name for name, _ in FIXTURES[:6]])
def test_masked_weight_vjp_matches_crs(name, conv):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((conv.batch, conv.c_in, *conv.input_sizes))
    v_y = rng.standard_normal((conv.batch, conv.c_out, *conv.out_sizes))
    keep = {"c_in": 0.5, "i1": 0.5}
    masks = {
        "c_in": rng.random(conv.c_in // conv.groups) < 0.5,
        "i1": rng.random(conv.input_sizes[0]) < 0.5,
    }
    want = crs.masked_weight_vjp(conv, x, v_y, masks, keep)
    assert verify.compare(baseline.masked_weight_vjp(conv, x, v_y, masks, keep), want) <= 1e-12


def test_baseline_imports_no_engine_module():
    tree = ast.parse((Path(__file__).parent / "baseline.py").read_text())
    nodes = list(ast.walk(tree))
    imported = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in nodes if isinstance(n, ast.ImportFrom)}
    assert not any(name and name.startswith(("conv_tn", ".")) for name in imported)
