"""Reference implementations used to validate the engine."""

from typing import Callable

import numpy as np
import pytest

from conv_tn.oracle import (
    direct_conv,
    direct_transpose_unfold,
    direct_unfold,
    ggn_explicit,
    toeplitz,
)
from conv_tn.ops import ConvSpec
from conv_tn.pattern import DimSpec
from conv_tn.tensor import ShapeMismatch, Tensor, Unsupported
from conv_tn.verify import oracle_kfac_expand


def finite_difference_vjp(f: Callable[[Tensor], float], t: Tensor, h: float = 1e-6) -> Tensor:
    """Central-difference gradient of a scalar function, entry by entry."""
    grad = np.zeros_like(t, dtype=np.float64)
    flat = grad.reshape(-1)
    base = np.array(t, dtype=np.float64)
    for j in range(base.size):
        probe = base.reshape(-1)
        old = probe[j]
        probe[j] = old + h
        up = f(base)
        probe[j] = old - h
        down = f(base)
        probe[j] = old
        flat[j] = (up - down) / (2.0 * h)
    return grad


def sym_eig_min(m: Tensor) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got {m.shape}")
    return float(np.linalg.eigvalsh(m)[0])


def spec_1d(i=3, k=2, s=1, p=0, d=1, c_in=1, c_out=1, n=1, groups=1, bias=False):
    return ConvSpec(n, groups, c_in, c_out, (DimSpec(i, k, s, p, d),), has_bias=bias)


def spec_2d(i=(3, 3), k=(2, 2), c_in=1, c_out=1, n=1):
    dims = tuple(DimSpec(ii, kk) for ii, kk in zip(i, k))
    return ConvSpec(n, 1, c_in, c_out, dims)


def test_direct_conv_1d_values():
    spec = spec_1d()
    x = np.array([[[1.0, 2.0, 3.0]]])
    w = np.array([[[1.0, 1.0]]])
    y = direct_conv(spec, x, w)
    assert np.array_equal(y, [[[3.0, 5.0]]])


def test_direct_conv_pointwise_scales():
    spec = spec_2d(i=(2, 2), k=(1, 1))
    x = np.arange(4.0).reshape(1, 1, 2, 2)
    w = np.full((1, 1, 1, 1), 2.0)
    assert np.array_equal(direct_conv(spec, x, w), 2.0 * x)


def test_direct_conv_bias_broadcast():
    spec = ConvSpec(1, 1, 1, 2, (DimSpec(3, 2), DimSpec(3, 2)), has_bias=True)
    x = np.zeros((1, 1, 3, 3))
    w = np.zeros((2, 1, 2, 2))
    y = direct_conv(spec, x, w, np.array([1.5, -2.0]))
    assert np.allclose(y[0, 0], 1.5)
    assert np.allclose(y[0, 1], -2.0)


def test_direct_conv_shape_errors():
    spec = spec_1d()
    with pytest.raises(ShapeMismatch):
        direct_conv(spec, np.zeros((1, 1, 4)), np.zeros((1, 1, 2)))
    with pytest.raises(ShapeMismatch):
        direct_conv(spec, np.zeros((1, 1, 3)), np.zeros((1, 1, 3)))


def test_direct_unfold_first_column():
    spec = spec_2d()
    x = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
    u = direct_unfold(spec, x)
    assert u.shape == (1, 4, 4)
    assert np.array_equal(u[0, :, 0], [1.0, 2.0, 4.0, 5.0])


def test_direct_unfold_1d_toeplitz_rows():
    spec = spec_1d()
    w = np.array([[[3.0, 7.0]]])
    t = toeplitz(spec, w)
    assert np.array_equal(t, [[3.0, 7.0, 0.0], [0.0, 3.0, 7.0]])


def test_toeplitz_matches_direct_conv():
    rng = np.random.default_rng(3)
    spec = ConvSpec(2, 1, 2, 3, (DimSpec(4, 2, 1, 1), DimSpec(3, 2)))
    x = rng.standard_normal((2, 2, 4, 3))
    w = rng.standard_normal((3, 2, 2, 2))
    t = toeplitz(spec, w)
    y = direct_conv(spec, x, w)
    for n in range(2):
        flat = t @ x[n].reshape(-1)
        assert np.allclose(flat, y[n].reshape(-1), atol=1e-12)


def test_toeplitz_rejects_groups():
    spec = ConvSpec(1, 2, 2, 2, (DimSpec(3, 2),))
    with pytest.raises(Unsupported):
        toeplitz(spec, np.zeros((2, 1, 2)))


def test_transpose_unfold_accumulates():
    # stride 2 with kernel 1 leaves gaps: the scattered rows interleave zeros
    spec = spec_1d(i=4, k=1, s=2)
    y = np.array([[[5.0, 9.0]]])
    u = direct_transpose_unfold(spec, y)
    assert u.shape == (1, 1, 4)
    assert np.array_equal(u[0, 0], [5.0, 0.0, 9.0, 0.0])


def test_finite_difference_gradient():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((2, 3))
    grad = finite_difference_vjp(lambda a: float((a**2).sum() / 2.0), t)
    assert np.allclose(grad, t, atol=1e-6)


def test_ggn_explicit_consistency():
    rng = np.random.default_rng(7)
    spec = ConvSpec(2, 1, 2, 2, (DimSpec(3, 2),))
    x = rng.standard_normal((2, 2, 3))
    s_y = rng.standard_normal((3, 2, 2, 2))
    g = ggn_explicit(spec, x, s_y)
    assert np.allclose(g.full, g.full.T, atol=1e-12)
    assert sym_eig_min(g.full + g.full.T) >= -1e-10 * abs(np.trace(g.full))
    assert np.allclose(np.diag(g.full), g.diagonal.reshape(-1), atol=1e-12)
    assert np.allclose(g.per_sample_diagonal.sum(axis=0), g.diagonal, atol=1e-12)
    # the gram matrix shares its nonzero spectrum with the full matrix
    ev_full = np.sort(np.linalg.eigvalsh(g.full))[::-1]
    ev_gram = np.sort(np.linalg.eigvalsh(g.gram))[::-1]
    m = min(len(ev_full), len(ev_gram))
    assert np.allclose(ev_full[:m], ev_gram[:m], atol=1e-10)


def test_ggn_explicit_rejects_oversized():
    spec = ConvSpec(1, 1, 8, 16, (DimSpec(8, 3), DimSpec(8, 3)))
    with pytest.raises(Unsupported):
        ggn_explicit(spec, np.zeros((1, 8, 8, 8)), np.zeros((1, 1, 16, 6, 6)))


def test_sym_eig_min():
    assert sym_eig_min(np.diag([2.0, 3.0])) == pytest.approx(2.0)
    with pytest.raises(ShapeMismatch):
        sym_eig_min(np.zeros((2, 3)))


def test_kfac_expand_all_ones():
    spec = ConvSpec(1, 1, 1, 1, (DimSpec(2, 2, 1, 1), DimSpec(2, 2, 1, 1)))
    x = np.ones((1, 1, 2, 2))
    omega = oracle_kfac_expand(spec, x)
    # one factor per group; with padding the corner windows see a single one,
    # so the factor is symmetric but not all ones
    assert omega.shape == (1, 4, 4)
    assert np.allclose(omega[0], omega[0].T)

    tight = ConvSpec(1, 1, 1, 1, (DimSpec(2, 2), DimSpec(2, 2)))
    omega = oracle_kfac_expand(tight, np.ones((1, 1, 2, 2)))
    assert np.array_equal(omega[0], np.ones((4, 4)))
