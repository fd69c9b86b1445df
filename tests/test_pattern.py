"""Index-pattern construction, classification, and transformations."""

import itertools

import numpy as np
import pytest

from conv_tn import ops
from conv_tn.pattern import (
    DimSpec,
    IndexPattern,
    InvalidHyperParams,
    PatternKind,
    classify,
    output_size,
    pattern,
)


class BoundaryPixels(ValueError):
    """The stride leaves dangling input pixels, so the identity cannot hold."""


def boundary_pixel_free(dim: DimSpec) -> bool:
    """True when the stride divides the padded input exactly (no dangling pixels)."""
    return (dim.input_size + 2 * dim.padding - dim.span) % dim.stride == 0


def kernel_output_swap(p: IndexPattern) -> IndexPattern:
    """Exchange the kernel and output legs of a boundary-pixel-free pattern.

    The swapped pattern belongs to the hyper-parameters (I, O, D, P, S):
    kernel size and output size trade places, and so do stride and
    dilation.  Its table is the (i, k, o) transposition of the original.
    """
    if not boundary_pixel_free(p.dim):
        raise BoundaryPixels(
            f"{p.dim} has dangling pixels; kernel/output legs are not exchangeable"
        )
    swapped = DimSpec(
        input_size=p.dim.input_size,
        kernel_size=p.output_size,
        stride=p.dim.dilation,
        padding=p.dim.padding,
        dilation=p.dim.stride,
    )
    return pattern(swapped)


def valid_dims(max_i=8, max_k=4, max_s=3, max_p=2, max_d=2):
    """Every constructible DimSpec in the small exhaustive grid."""
    for i, k, s, p, d in itertools.product(
        range(1, max_i + 1),
        range(1, max_k + 1),
        range(1, max_s + 1),
        range(0, max_p + 1),
        range(1, max_d + 1),
    ):
        span = k + (k - 1) * (d - 1)
        if span > i + 2 * p:
            continue
        yield DimSpec(i, k, s, p, d)


def test_dimspec_validation():
    with pytest.raises(InvalidHyperParams):
        DimSpec(0, 1)
    with pytest.raises(InvalidHyperParams):
        DimSpec(3, 0)
    with pytest.raises(InvalidHyperParams):
        DimSpec(3, 2, 0)
    with pytest.raises(InvalidHyperParams):
        DimSpec(3, 2, 1, -1)
    with pytest.raises(InvalidHyperParams):
        DimSpec(3, 2, 1, 0, 0)
    with pytest.raises(InvalidHyperParams):
        DimSpec(2, 4)  # kernel span exceeds padded input
    for bad in ((3.5, 2), (3, 2.0), (3, 2, True), (3, 2, 1, "1"), (3, 2, 1, 0, None)):
        with pytest.raises(InvalidHyperParams, match="must be an integer"):
            DimSpec(*bad)
    assert DimSpec(np.int64(3), 2).input_size == 3


def test_output_size_values():
    assert output_size(DimSpec(28, 5)) == 24
    assert output_size(DimSpec(4, 2, 2)) == 2
    assert output_size(DimSpec(1, 1)) == 1


def test_pattern_rule_exhaustive():
    for dim in valid_dims():
        pat = pattern(dim)
        o_size = output_size(dim)
        assert pat.table.shape == (dim.input_size, o_size, dim.kernel_size)
        for i in range(dim.input_size):
            for o in range(o_size):
                for k in range(dim.kernel_size):
                    expected = float(i == k * dim.dilation + o * dim.stride - dim.padding)
                    assert pat.table[i, o, k] == expected, (dim, i, o, k)


def test_pattern_sparsity_bound():
    for dim in valid_dims():
        pat = pattern(dim)
        o_size = output_size(dim)
        assert pat.nnz <= o_size * dim.kernel_size
        if dim.padding == 0 and boundary_pixel_free(dim):
            assert pat.nnz == o_size * dim.kernel_size, dim
        # each (o, k) column holds at most one contributing input element
        assert (pat.table.sum(axis=0) <= 1).all()


def test_pattern_frozen_examples():
    pat = pattern(DimSpec(3, 2))
    assert set(pat.triples()) == {(0, 0, 0), (1, 0, 1), (1, 1, 0), (2, 1, 1)}
    assert pat.nnz == 4

    point = pattern(DimSpec(2, 1))
    assert np.array_equal(point.table[:, :, 0], np.eye(2))

    down = pattern(DimSpec(4, 1, 2))
    assert down.kind is PatternKind.DOWN_SAMPLING
    assert sorted(t[0] for t in down.triples()) == [0, 2]


def test_pattern_tables_cached_and_frozen():
    a = pattern(DimSpec(5, 3))
    b = pattern(DimSpec(5, 3))
    assert a is b
    with pytest.raises(ValueError):
        a.table[0, 0, 0] = 5.0


def test_classify():
    assert classify(DimSpec(4, 2, 2)) is PatternKind.DENSE
    assert classify(DimSpec(4, 1, 2)) is PatternKind.DOWN_SAMPLING
    assert classify(DimSpec(3, 2)) is PatternKind.GENERAL
    assert classify(DimSpec(5, 2, 2)) is PatternKind.GENERAL  # 5 % 2 != 0
    assert classify(DimSpec(6, 2, 2, 1)) is PatternKind.GENERAL  # padding
    assert classify(DimSpec(8, 2, 2, 0, 2)) is PatternKind.GENERAL  # dilation
    assert classify(DimSpec(9, 1, 2)) is PatternKind.GENERAL  # 9 % 2 != 0


def test_averaged_pattern():
    single = pattern(DimSpec(2, 2)).ik
    assert np.array_equal(single, np.eye(2))
    avg = pattern(DimSpec(3, 2)).ik
    assert np.allclose(avg, [[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
    assert np.allclose(pattern(DimSpec(3, 2)).ok, [[1 / 3, 1 / 3], [1 / 3, 1 / 3]])


def test_averaged_pattern_mass():
    for dim in valid_dims(max_i=6):
        pat = pattern(dim)
        avg = pat.ik
        o_size = output_size(dim)
        assert np.allclose(avg.sum(), pat.nnz / o_size)
        assert (avg.sum(axis=1) <= dim.kernel_size / o_size + 1e-12).all()
        assert np.allclose(pat.ok.sum(), pat.nnz / dim.input_size)


def test_averaged_tables_are_computed_once_and_read_only():
    dim = DimSpec(7, 3, 2, 1)
    for legs, axis in (("ik", 1), ("ok", 0)):
        first = getattr(pattern(dim), legs)
        assert getattr(pattern(dim), legs) is first
        assert ops._table(legs, dim) is first
        assert not first.flags.writeable
        assert first.base is pattern(dim).table.base  # one block per pattern
        assert np.array_equal(first, pattern(dim).table.mean(axis=axis))
        with pytest.raises(ValueError):
            first[0, 0] = 1.0


def test_swap_self_dual_example():
    pat = pattern(DimSpec(3, 2))
    swapped = kernel_output_swap(pat)
    assert np.array_equal(swapped.table, np.transpose(pat.table, (0, 2, 1)))


def test_swap_involution_exhaustive():
    for dim in valid_dims():
        if not boundary_pixel_free(dim):
            continue
        pat = pattern(dim)
        swapped = kernel_output_swap(pat)
        assert np.array_equal(swapped.table, np.transpose(pat.table, (0, 2, 1))), dim
        back = kernel_output_swap(swapped)
        assert back.dim == pat.dim
        assert np.array_equal(back.table, pat.table)


def test_swap_boundary_pixels_raises():
    with pytest.raises(BoundaryPixels):
        kernel_output_swap(pattern(DimSpec(5, 2, 2)))


def test_subsample_checks_exhaustive():
    for dim in valid_dims():
        # strided pattern == unit-stride pattern sub-sampled along the output leg
        unit = pattern(DimSpec(dim.input_size, dim.kernel_size, 1, dim.padding, dim.dilation))
        assert np.array_equal(unit.table[:, :: dim.stride, :], pattern(dim).table), dim
        # dilated pattern == undilated span-kernel pattern sub-sampled along the kernel leg
        span = pattern(DimSpec(dim.input_size, dim.span, dim.stride, dim.padding, 1))
        assert np.array_equal(span.table[:, :, :: dim.dilation], pattern(dim).table), dim


def test_transpose_as_conv_identity():
    # undilated unit-stride pattern equals the flipped-kernel pattern of the
    # transposed convolution, exhaustively on the small grid
    checked = 0
    for i in range(1, 9):
        for k in range(1, 5):
            for p in range(0, k):
                if k > i + 2 * p:
                    continue
                dim = DimSpec(i, k, 1, p, 1)
                o = output_size(dim)
                table = pattern(dim).table
                flipped = pattern(DimSpec(o, k, 1, k - p - 1, 1)).table
                for ii in range(i):
                    for oo in range(o):
                        for kk in range(k):
                            assert table[ii, oo, kk] == flipped[oo, ii, k - 1 - kk]
                checked += 1
    assert checked > 20


def test_boundary_pixel_free():
    assert boundary_pixel_free(DimSpec(4, 2, 2))
    assert not boundary_pixel_free(DimSpec(5, 2, 2))
    assert boundary_pixel_free(DimSpec(3, 2, 1))
