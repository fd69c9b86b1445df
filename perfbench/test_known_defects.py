"""Engine defects the benchmark found, kept as strict expected failures.

When a fix lands the test starts passing, strict mode turns that into a
failure, and the marker (and the entry in ``workload.KNOWN_DEFECTS``) can go.
"""

import dataclasses

import numpy as np
import pytest

import baseline
import workload
from conv_tn import crs, ops, verify
from conv_tn.ops import ConvSpec
from conv_tn.pattern import DimSpec


@pytest.mark.xfail(strict=True, reason="crs plan cache is keyed without the group count")
def test_crs_after_same_shape_dense_layer():
    dims = (DimSpec(8, 3, 1, 1), DimSpec(8, 3, 1, 1))
    dense = ConvSpec(2, 1, 4, 4, dims)
    depthwise = ConvSpec(2, 4, 4, 4, dims)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 4, 8, 8))
    v_y = rng.standard_normal((2, 4, 8, 8))
    crs.crs_weight_vjp(dense, x, v_y, workload.CRS_CONFIG)
    got = crs.crs_weight_vjp(depthwise, x, v_y, workload.CRS_CONFIG).weight
    want = baseline.masked_weight_vjp(
        depthwise, x, v_y, workload.crs_masks(depthwise), workload.CRS_CONFIG.keep_probs
    )
    assert got.shape == want.shape
    assert verify.compare(got, want) <= 1e-12


def test_check_names_the_defect_and_fails_other_wrong_results():
    work = workload.load("realistic_first_order")
    name, conv, _ = next(layer for layer in work.layers if layer[1].groups > 1)
    rng = np.random.default_rng(0)
    arrays = {k: rng.standard_normal(s) for k, s in ops.input_shapes(conv, "weight_vjp").items()}
    case = workload.Case(name, conv, workload.CRS_OP, True, arrays)
    dense_gradient = case.baseline(dataclasses.replace(conv, groups=1))
    verdict = workload.check(work, [case, case], [dense_gradient, workload.perturbed(case.baseline())])
    assert list(verdict.known) == [0]
    assert verdict.known[0].startswith("crs-plan-cache-ignores-groups: ")
    assert len(verdict.mismatches) == 1
