"""Randomized channel and pixel subsampling of the weight gradient."""

import dataclasses
import itertools

import numpy as np
import pytest

from conv_tn import ops, simplify
from conv_tn.crs import (
    CrsConfig,
    InvalidProbability,
    axis_size,
    crs_weight_vjp,
    masked_weight_vjp,
    normalized_error,
)
from conv_tn.ops import ConvSpec, input_shapes, op_cost, weight_vjp
from conv_tn.pattern import DimSpec, output_size
from conv_tn.simplify import Gather, RewriteKind
from conv_tn.tensor import ShapeMismatch, Unsupported
from conv_tn.verify import compare

# 1d to 3d, each ungrouped and grouped
LAYERS = (
    ConvSpec(2, 1, 2, 3, (DimSpec(6, 3, 1, 1, 2),)),
    ConvSpec(2, 2, 4, 2, (DimSpec(7, 2, 2, 1),)),
    ConvSpec(2, 1, 2, 3, (DimSpec(5, 2, 1, 1), DimSpec(4, 2, 2))),
    ConvSpec(3, 2, 4, 4, (DimSpec(5, 3, 2, 1), DimSpec(4, 2))),
    ConvSpec(2, 1, 2, 2, (DimSpec(3, 2), DimSpec(4, 2, 2, 1), DimSpec(3, 1))),
    ConvSpec(2, 2, 4, 2, (DimSpec(4, 2, 1, 1), DimSpec(3, 2), DimSpec(3, 2, 1, 0, 2))),
)


@pytest.fixture
def conv():
    return ConvSpec(2, 1, 2, 3, (DimSpec(4, 2), DimSpec(4, 2)))


def data(conv, seed=0):
    rng = np.random.default_rng(seed)
    shapes = input_shapes(conv, "weight_vjp")
    return rng.standard_normal(shapes["x"]), rng.standard_normal(shapes["v_y"])


def test_config_validation():
    CrsConfig({"c_in": 0.5, "i1": 1.0, "i3": 0.5, "i12": 0.5}, seed=0)
    with pytest.raises(InvalidProbability):
        CrsConfig({"c_in": 0.0}, seed=0)
    with pytest.raises(InvalidProbability):
        CrsConfig({"i1": 1.5}, seed=0)
    for axis in ("pixels", "i0", "i01", "i", "i1 ", "I1", 1):
        with pytest.raises(InvalidProbability):
            CrsConfig({axis: 0.5}, seed=0)


def test_axis_size(conv):
    assert axis_size(conv, "c_in") == 2
    assert axis_size(conv, "i1") == 4
    assert axis_size(conv, "i2") == 4
    grouped = ConvSpec(1, 2, 4, 2, (DimSpec(3, 2),))
    assert axis_size(grouped, "c_in") == 2
    with pytest.raises(Unsupported):
        axis_size(grouped, "i2")
    with pytest.raises(Unsupported):
        axis_size(conv, "i3")
    with pytest.raises(Unsupported):
        axis_size(conv, "bogus")
    volume = ConvSpec(1, 1, 1, 1, (DimSpec(3, 2), DimSpec(4, 2), DimSpec(5, 2)))
    assert [axis_size(volume, f"i{d}") for d in (1, 2, 3)] == [3, 4, 5]


def test_keep_everything_is_exact(conv):
    x, v_y = data(conv)
    exact = weight_vjp(conv, x, v_y).weight
    axes = ("c_in", "i1", "i2")
    est = crs_weight_vjp(conv, x, v_y, CrsConfig({a: 1.0 for a in axes}, seed=3))
    assert est.kept_fraction == {a: 1.0 for a in axes}
    assert np.allclose(est.weight, exact, atol=1e-12)


def test_same_seed_same_estimate(conv):
    x, v_y = data(conv)
    cfg = CrsConfig({"c_in": 0.5, "i1": 0.7}, seed=11)
    a = crs_weight_vjp(conv, x, v_y, cfg)
    b = crs_weight_vjp(conv, x, v_y, cfg)
    assert np.array_equal(a.weight, b.weight)
    assert a.kept_fraction == b.kept_fraction


def test_explicit_mask_zeroes_dropped_rows(conv):
    x, v_y = data(conv)
    masks = {"c_in": np.array([True, False])}
    est = masked_weight_vjp(conv, x, v_y, masks, {"c_in": 0.5})
    exact = weight_vjp(conv, x, v_y).weight
    assert np.allclose(est[:, 0], 2.0 * exact[:, 0], atol=1e-12)
    assert np.allclose(est[:, 1], 0.0)


def test_channel_enumeration_is_unbiased(conv):
    x, v_y = data(conv, seed=5)
    exact = weight_vjp(conv, x, v_y).weight
    p = 0.5
    mean = np.zeros_like(exact)
    for bits in itertools.product([False, True], repeat=2):
        mask = np.array(bits)
        prob = (p ** mask.sum()) * ((1 - p) ** (~mask).sum())
        est = masked_weight_vjp(conv, x, v_y, {"c_in": mask}, {"c_in": p})
        mean += prob * est
    assert np.allclose(mean, exact, atol=1e-12)


def test_pixel_enumeration_is_unbiased():
    for conv, axis in (
        (ConvSpec(1, 1, 1, 2, (DimSpec(3, 2),)), "i1"),
        (ConvSpec(2, 2, 2, 2, (DimSpec(3, 2), DimSpec(4, 2, 2), DimSpec(3, 2, 1, 1))), "i3"),
        # dilation 2 and padding 3 > (K-1)*D: rows at both ends meet taps outside [0, O)
        (ConvSpec(2, 1, 2, 2, (DimSpec(6, 2, 1, 3, 2),)), "i1"),
    ):
        x, v_y = data(conv, seed=6)
        exact = weight_vjp(conv, x, v_y).weight
        p = 0.4
        mean = np.zeros_like(exact)
        for bits in itertools.product([False, True], repeat=axis_size(conv, axis)):
            mask = np.array(bits)
            prob = (p ** mask.sum()) * ((1 - p) ** (~mask).sum())
            est = masked_weight_vjp(conv, x, v_y, {axis: mask}, {axis: p})
            mean += prob * est
        assert np.allclose(mean, exact, atol=1e-12), axis


def test_empty_mask_gives_zero(conv):
    x, v_y = data(conv)
    masks = {"i1": np.zeros(4, dtype=bool)}
    est = masked_weight_vjp(conv, x, v_y, masks, {"i1": 0.5})
    assert np.array_equal(est, np.zeros_like(est))


def test_grouped_channel_masking():
    conv = ConvSpec(2, 2, 4, 4, (DimSpec(4, 2),))
    x, v_y = data(conv, seed=9)
    exact = weight_vjp(conv, x, v_y).weight
    # keep every per-group channel: must reproduce the exact gradient
    est = masked_weight_vjp(conv, x, v_y, {"c_in": np.ones(2, bool)}, {"c_in": 1.0})
    assert np.allclose(est, exact, atol=1e-12)


def test_mask_error_paths(conv):
    x, v_y = data(conv)
    with pytest.raises(ShapeMismatch):
        masked_weight_vjp(conv, x, v_y, {"c_in": np.ones(3, bool)}, {"c_in": 0.5})
    with pytest.raises(InvalidProbability):
        masked_weight_vjp(conv, x, v_y, {"c_in": np.ones(2, bool)}, {"c_in": 0.0})
    with pytest.raises(InvalidProbability):
        masked_weight_vjp(conv, x, v_y, {"c_in": np.ones(2, bool)}, {})
    with pytest.raises(Unsupported):
        masked_weight_vjp(conv, x, v_y, {"bogus": np.ones(2, bool)}, {"bogus": 0.5})
    with pytest.raises(ShapeMismatch):
        masked_weight_vjp(conv, x[:, :, :2], v_y, {}, {})


def test_normalized_error():
    exact = np.array([3.0, 4.0])
    assert normalized_error(exact, exact) == 0.0
    assert normalized_error(exact, np.zeros(2)) == pytest.approx(1.0)
    with pytest.raises(ZeroDivisionError):
        normalized_error(np.zeros(2), exact)
    with pytest.raises(ShapeMismatch):
        normalized_error(exact, np.zeros(3))


def test_kept_fraction_reports_mask_mean(conv):
    x, v_y = data(conv)
    cfg = CrsConfig({"i1": 0.5}, seed=21)
    est = crs_weight_vjp(conv, x, v_y, cfg)
    frac = est.kept_fraction["i1"]
    assert frac in {0.0, 0.25, 0.5, 0.75, 1.0}


def test_depthwise_after_same_shape_dense_layer():
    # the two layers share equation and operand shapes; only the groups differ
    dims = (DimSpec(8, 3, 1, 1), DimSpec(8, 3, 1, 1))
    dense = ConvSpec(2, 1, 4, 4, dims)
    depthwise = ConvSpec(2, 4, 4, 4, dims)
    x, v_y = data(dense, seed=12)
    mask = np.array([True, False, True, True, False, True, False, True])
    masked_x = x * mask[:, None]
    for conv in (dense, depthwise):
        est = masked_weight_vjp(conv, x, v_y, {"i1": mask}, {"i1": 0.5})
        exact = weight_vjp(conv, masked_x, v_y).weight / 0.5
        assert est.shape == exact.shape
        assert np.allclose(est, exact, rtol=1e-12, atol=1e-12)


def _crs_entry():
    """The call entry of the one CRS call since the cache was cleared."""
    [prep] = [p for key, p in ops._PREP_CACHE.items() if key[0] == "crs_weight_vjp"]
    return prep


def _arrays(obj):
    """Every numpy array reachable from ``obj`` through containers and dataclasses."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        yield from _arrays(list(obj.items()))
    elif isinstance(obj, slice):
        yield from _arrays((obj.start, obj.stop, obj.step))
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        yield from _arrays([getattr(obj, f.name) for f in dataclasses.fields(obj)])


def test_plan_cache_keeps_no_operand_data():
    # a cached plan holds zero placeholders of the operands' shapes and no
    # pattern table, since every pattern is gathered, and a masked one reads
    # the kept rows a call puts in its slot; so it keeps no caller's array, no
    # masked copy of one, no mask and no index array alive; nor does its key
    conv = ConvSpec(2, 1, 2, 3, (DimSpec(6, 3, 1, 1), DimSpec(5, 2, 2)))
    rng = np.random.default_rng(0)
    shapes = input_shapes(conv, "weight_vjp")
    x, v_y = (rng.standard_normal(shapes[k]) for k in ("x", "v_y"))
    ops._PREP_CACHE.clear()
    masks = {"c_in": np.array([True, False]), "i1": np.array([1, 0, 1, 1, 0, 1], dtype=bool)}
    masked_weight_vjp(conv, x, v_y, masks, {"c_in": 0.5, "i1": 0.5})
    masks["i2"] = np.array([0, 1, 1, 0, 1], dtype=bool)  # a stride-2 dimension too
    masked_weight_vjp(conv, x, v_y, masks, {"c_in": 0.5, "i1": 0.5, "i2": 0.6})
    weight_vjp(conv, x, v_y, simplify=True)
    keys = set(ops._PREP_CACHE)
    assert len([key for key in keys if key[0] in ("crs_weight_vjp", "weight_vjp")]) == 3
    # other masks that keep as many rows and channels reuse the plans
    masks = {"c_in": np.array([False, True]), "i1": np.array([0, 1, 1, 0, 1, 1], dtype=bool)}
    masked_weight_vjp(conv, x, v_y, masks, {"c_in": 0.5, "i1": 0.5})
    masks["i2"] = np.array([1, 1, 0, 0, 1], dtype=bool)
    masked_weight_vjp(conv, x, v_y, masks, {"c_in": 0.5, "i1": 0.5, "i2": 0.6})
    assert set(ops._PREP_CACHE) == keys
    # call, program and parse entries alike
    for key, entry in ops._PREP_CACHE.items():
        if isinstance(entry, ops._Prepared):
            assert all(not any(a.strides) for a in entry.net.operands)
        assert not list(_arrays(key))
        for a in _arrays(entry):
            assert a.dtype == np.float64 and (not any(a.strides) or not a.flags.writeable)


def _zeroed(conv, x, masks):
    """``x`` with every dropped channel (in each group) and dropped position set to zero."""
    cig = conv.c_in // conv.groups
    xg = x.reshape(conv.batch, conv.groups, cig, *conv.input_sizes).copy()
    for axis, mask in masks.items():
        where = [1] * xg.ndim
        axis_at = 2 if axis == "c_in" else 2 + int(axis[1:])
        where[axis_at] = mask.size
        xg *= mask.reshape(where)
    return xg.reshape(x.shape)


@pytest.mark.parametrize("conv", LAYERS)
def test_estimate_is_the_exact_vjp_of_the_zero_masked_input(conv):
    x, v_y = data(conv, seed=13)
    rng = np.random.default_rng(14)
    axes = ("c_in", *(f"i{d + 1}" for d in range(conv.nd)))
    for count in range(1, len(axes) + 1):
        for chosen in itertools.combinations(axes, count):
            masks = {}
            for axis in chosen:
                mask = rng.random(axis_size(conv, axis)) < 0.6
                mask[rng.integers(mask.size)] = True  # keep one index, so a network runs
                masks[axis] = mask
            keep = {axis: 0.4 + 0.1 * j for j, axis in enumerate(chosen)}
            exact = weight_vjp(conv, _zeroed(conv, x, masks), v_y).weight
            exact /= np.prod(list(keep.values()))
            ops._PREP_CACHE.clear()
            est = masked_weight_vjp(conv, x, v_y, masks, keep)
            assert compare(est, exact) <= 1e-12, chosen
            prep = _crs_entry()
            _assert_is_weight_vjps_network(conv, masks, prep)


def _assert_is_weight_vjps_network(conv, masks, prep):
    """``prep`` runs ``weight_vjp``'s network with every pattern gathered: a masked
    dimension that drops rows is narrowed, and ``v_y`` is taken at its kept rows
    where its stride is 1, while ``x``'s kept rows are put in place where it is not."""
    exact = ops.build_network(conv, "weight_vjp")
    assert (prep.net.equation, prep.net.roles, prep.net.sources) == (
        exact.equation, exact.roles, exact.sources
    )
    narrowed = [1 + d for d in range(conv.nd) if not masks.get(f"i{d + 1}", np.ones(1, bool)).all()]
    taken = [p for p in narrowed if conv.dims[p - 1].stride == 1]
    sim = prep.sim
    assert [s.kind for s in sim.steps] == [RewriteKind.GATHER] * conv.nd
    assert sim.kept == (0, conv.nd + 1) and sim.fold is None and prep.gram is None
    take, gather = sim.gathers.get(conv.nd + 1), sim.gathers.get(0)
    if taken:
        assert sorted(rows for _, rows, _ in take.axes) == taken
    else:
        assert take is None
    assert isinstance(gather, Gather) == (len(taken) < conv.nd)
    if gather is not None:
        assert [rows for _, rows in gather.scatter] == [p for p in narrowed if p not in taken]


# Stride-1 layers, whose masked dimensions read v_y through a window take:
# 1d-3d, grouped and depthwise, dilation 1-3, P below, at and beyond (K-1)*D;
# the last mixes them with a stride-2 dimension, whose kept rows x puts in place.
WINDOWED = (
    ConvSpec(2, 1, 2, 3, (DimSpec(7, 3, 1, 0, 2),)),
    ConvSpec(2, 2, 4, 2, (DimSpec(8, 3, 1, 2, 1),)),
    ConvSpec(2, 3, 3, 3, (DimSpec(6, 2, 1, 4, 3),)),
    ConvSpec(2, 1, 2, 2, (DimSpec(6, 3, 1, 1), DimSpec(5, 2, 1, 2, 2))),
    ConvSpec(2, 2, 2, 4, (DimSpec(5, 2, 1, 3, 1), DimSpec(8, 3, 1, 0, 3))),
    ConvSpec(1, 1, 2, 2, (DimSpec(4, 2, 1, 1), DimSpec(5, 3, 1, 2, 1), DimSpec(6, 2, 1, 4, 3))),
    ConvSpec(2, 2, 4, 2, (DimSpec(5, 2, 1, 0, 1), DimSpec(5, 2, 2, 1), DimSpec(5, 3, 1, 3, 2))),
)


def _spatial_mask(rng, size: int, case: str) -> np.ndarray:
    """A keep mask that drops the first, the last or both end rows, keeps only the
    ends (the taps that meet no output), or is random; it keeps at least one row."""
    if case == "only ends":
        return np.isin(np.arange(size), (0, size - 1))
    mask = rng.random(size) < 0.5
    mask[size // 2] = True
    if case in ("drop first", "drop ends"):
        mask[0] = False
    if case in ("drop last", "drop ends"):
        mask[-1] = False
    return mask


@pytest.mark.parametrize("conv", WINDOWED)
def test_windowed_dimensions_give_the_exact_vjp_of_the_zero_masked_input(conv):
    x, v_y = data(conv, seed=15)
    rng = np.random.default_rng(16)
    axes = [f"i{d + 1}" for d in range(conv.nd)]
    for chosen in [(a,) for a in axes] + [tuple(axes), ("c_in", *axes)]:
        for case in ("random", "drop first", "drop last", "drop ends", "only ends"):
            masks = {a: _spatial_mask(rng, axis_size(conv, a), case) for a in chosen if a != "c_in"}
            if "c_in" in chosen:
                masks["c_in"] = np.arange(axis_size(conv, "c_in")) % 2 == 0
            keep = {axis: 0.3 + 0.2 * j for j, axis in enumerate(chosen)}
            exact = weight_vjp(conv, _zeroed(conv, x, masks), v_y).weight
            exact /= np.prod(list(keep.values()))
            est = masked_weight_vjp(conv, x, v_y, masks, keep)
            assert compare(est, exact) <= 1e-12, (chosen, case)
        # an all-false mask on any axis gives the zero estimate
        masks = {a: np.full(axis_size(conv, a), a != chosen[0]) for a in chosen}
        est = masked_weight_vjp(conv, x, v_y, masks, {a: 0.5 for a in chosen})
        assert est.shape == (conv.c_out, conv.c_in // conv.groups, *conv.kernel_sizes)
        assert not est.any(), chosen


def _planned_flops(prep) -> int:
    """The FLOPs a prepared network plans, summed over its slices of the batch."""
    return sum((tail or prep.sim).plan.flops for _, _, tail in prep.slices)


# the realistic benchmark layers at their sizes: stride 1, then stride > 1
REALISTIC_WINDOWED = (
    ConvSpec(8, 1, 32, 32, (DimSpec(32, 3, 1, 1), DimSpec(32, 3, 1, 1))),  # resnet_3x3
    ConvSpec(8, 32, 32, 32, (DimSpec(32, 3, 1, 1), DimSpec(32, 3, 1, 1))),  # mobilenet_dw
    ConvSpec(8, 1, 32, 32, (DimSpec(512, 3, 1, 4, 4),)),  # tcn_dilated
)
REALISTIC_STRIDED = (
    ConvSpec(2, 1, 3, 32, (DimSpec(64, 7, 2, 3), DimSpec(64, 7, 2, 3))),  # resnet_stem
    ConvSpec(4, 1, 3, 64, (DimSpec(64, 4, 4), DimSpec(64, 4, 4))),  # convnext_patchify
    ConvSpec(8, 1, 32, 64, (DimSpec(32, 1, 2), DimSpec(32, 1, 2))),  # resnet_shortcut
)


def _half_mask(conv, axis: str, seed: int) -> np.ndarray:
    size = axis_size(conv, axis)
    mask = np.zeros(size, dtype=bool)
    mask[np.random.default_rng(seed).permutation(size)[: size // 2]] = True
    return mask


@pytest.mark.parametrize("conv", REALISTIC_WINDOWED)
def test_windowed_dimension_plans_the_kept_fraction(conv):
    # at keep 0.5 a stride-1 masked dimension reads v_y at the kept rows, and the
    # network plans at most 0.55x the exact weight_vjp's FLOPs over all its slices
    x, v_y = (np.zeros(s) for s in input_shapes(conv, "weight_vjp").values())
    ops._PREP_CACHE.clear()
    masks = {"i1": _half_mask(conv, "i1", 18)}
    masked_weight_vjp(conv, x, v_y, masks, {"i1": 0.5})
    prep = _crs_entry()
    _assert_is_weight_vjps_network(conv, masks, prep)
    assert all(isinstance(prep.net.sources[p], str) for p in prep.sim.kept)
    exact = op_cost(conv, "weight_vjp").simplified.flops
    assert _planned_flops(prep) <= 0.55 * exact


def test_a_take_builds_its_index_once_per_call(monkeypatch):
    # the kept rows hold no n: the slices of one size share the (K, I') index
    conv = REALISTIC_WINDOWED[2]  # tcn_dilated, cut into slices over n
    x, v_y = (np.zeros(s) for s in input_shapes(conv, "weight_vjp").values())
    masks, keep = {"i1": _half_mask(conv, "i1", 18)}, {"i1": 0.5}
    ops._PREP_CACHE.clear()
    masked_weight_vjp(conv, x, v_y, masks, keep)
    prep = _crs_entry()
    sizes = 1 + sum(tail is not None for _, _, tail in prep.slices)
    assert len(prep.slices) > sizes
    built = []
    monkeypatch.setattr(simplify, "output_size", lambda d: built.append(d) or output_size(d))
    masked_weight_vjp(conv, x, v_y, masks, keep)
    assert len(built) == sizes


@pytest.mark.parametrize("conv", REALISTIC_STRIDED)
def test_strided_dimension_plans_the_exact_vjp(conv):
    # a stride > 1 masked dimension puts the kept rows of x in place in the
    # gather's zeroed buffer, so its network is gathered, planned and cut as
    # the exact weight_vjp's, at its FLOPs
    x, v_y = (np.zeros(s) for s in input_shapes(conv, "weight_vjp").values())
    ops._PREP_CACHE.clear()
    masks = {"i1": _half_mask(conv, "i1", 19)}
    masked_weight_vjp(conv, x, v_y, masks, {"i1": 0.5})
    prep = _crs_entry()
    _assert_is_weight_vjps_network(conv, masks, prep)
    exact = ops._planned(conv, "weight_vjp", 2, True)
    assert prep.sim.plan == exact.sim.plan and prep.cut == exact.cut
    assert _planned_flops(prep) == _planned_flops(exact)
