import numpy as np
import pytest

from gradcheck import assert_gradients_match
from reference_ops import tanh
from motionrefine.errors import DimensionError
from motionrefine.tensor import Tensor, backward, tensor_sum
from motionrefine.transforms import dct, dct_basis, idct


def test_row_zero_is_constant():
    for size in (2, 5, 8, 32):
        basis = dct_basis(size)
        assert np.allclose(basis.matrix[0], 1.0 / np.sqrt(size), atol=1e-15)


def test_orthonormality_spot_sizes():
    for size in (2, 3, 7, 16, 64, 128):
        m = dct_basis(size).matrix
        assert np.abs(m @ m.T - np.eye(size)).max() < 1e-12


def test_constant_row_is_dc_only():
    c = 3.7
    out = dct(Tensor(np.full((2, 8), c)), dct_basis(8))
    expected = np.zeros((2, 8))
    expected[:, 0] = c * np.sqrt(8)
    assert np.abs(out.data - expected).max() < 1e-12


def test_zero_maps_to_zero_both_ways():
    basis = dct_basis(6)
    assert np.array_equal(dct(Tensor(np.zeros((3, 6))), basis).data, np.zeros((3, 6)))
    assert np.array_equal(idct(Tensor(np.zeros((3, 6))), basis).data, np.zeros((3, 6)))


def test_dc_coefficient_inverts_to_constant():
    basis = dct_basis(5)
    coeffs = np.zeros((1, 5))
    coeffs[0, 0] = 2.0 * np.sqrt(5)
    out = idct(Tensor(coeffs), basis)
    assert np.abs(out.data - 2.0).max() < 1e-12


def test_round_trip_random():
    rng = np.random.default_rng(0)
    basis = dct_basis(10)
    x = rng.normal(size=(3, 10))
    back = idct(dct(Tensor(x), basis), basis)
    assert np.abs(back.data - x).max() < 1e-10


def test_linearity():
    rng = np.random.default_rng(1)
    basis = dct_basis(12)
    x, y = rng.normal(size=(4, 12)), rng.normal(size=(4, 12))
    a, b = 1.7, -0.3
    left = dct(Tensor(a * x + b * y), basis).data
    right = a * dct(Tensor(x), basis).data + b * dct(Tensor(y), basis).data
    assert np.abs(left - right).max() < 1e-10


def test_parseval():
    rng = np.random.default_rng(2)
    basis = dct_basis(16)
    x = rng.normal(size=(5, 16))
    coeffs = dct(Tensor(x), basis).data
    assert np.abs(np.linalg.norm(x, axis=1) - np.linalg.norm(coeffs, axis=1)).max() < 1e-10


def test_size_mismatch():
    with pytest.raises(DimensionError):
        dct(Tensor(np.zeros((2, 5))), dct_basis(6))
    with pytest.raises(DimensionError):
        idct(Tensor(np.zeros((2, 5))), dct_basis(6))


def test_gradient_is_transposed_basis():
    # d(sum(dct(x)))/dx equals a matrix product with the basis; checked two ways
    basis = dct_basis(7)
    x = Tensor(np.random.default_rng(3).normal(size=(2, 7)), requires_grad=True)
    backward(tensor_sum(dct(x, basis)))
    expected = np.ones((2, 7)) @ basis.matrix
    assert np.abs(x.grad - expected).max() < 1e-12


def test_gradcheck_through_both_transforms():
    basis = dct_basis(5)
    x = Tensor(np.random.default_rng(4).normal(size=(3, 5)), requires_grad=True)
    assert_gradients_match(
        lambda: tensor_sum(tanh(idct(dct(x, basis), basis))), [x])
