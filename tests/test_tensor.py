"""The shared comparison helper."""

import numpy as np
import pytest

from conv_tn.tensor import ShapeMismatch, max_rel_err


def test_max_rel_err_zero_reference():
    # guarded against division by zero; exact zeros compare clean
    assert max_rel_err(np.zeros((3,)), np.zeros((3,))) == 0.0


def test_max_rel_err_scales_by_reference():
    assert max_rel_err(np.array([1.0, 2.5]), np.array([1.0, 2.0])) == 0.25


def test_max_rel_err_shape_checked():
    with pytest.raises(ShapeMismatch):
        max_rel_err(np.zeros((2, 2)), np.zeros((2, 3)))
