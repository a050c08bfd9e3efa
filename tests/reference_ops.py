"""Tape ops that only the tests use: the separate ops the fused nodes replace.

``conv1d`` does the arithmetic of ``sliding_windows`` followed by
``transpose``, ``reshape``, ``matmul``, ``transpose`` and ``add``, and
``graph_block`` that of ``matmul``, ``batchnorm``, ``tanh``, ``dropout``
and ``add``; the tests compose these ops as the bitwise reference.
"""
import numpy as np

from motionrefine.errors import DimensionError
from motionrefine.tensor import (
    Mode,
    Tensor,
    _accum,
    _dropout_active,
    _dropout_draw,
    _result,
    as_tensor,
    mul,
)


def sliding_windows(a, width: int) -> Tensor:
    """Unfold the trailing axis into overlapping windows.

    (..., T) -> (..., T - width + 1, width), stride 1, no padding.
    """
    a = as_tensor(a)
    if width < 1:
        raise DimensionError(f"window width must be positive, got {width}")
    length = a.shape[-1]
    if length < width:
        raise DimensionError(f"temporal length {length} is shorter than window width {width}")
    data = np.lib.stride_tricks.sliding_window_view(a.data, width, axis=-1).copy()
    out = _result(data, (a,), "windows")
    if out.requires_grad:
        steps = length - width + 1
        def _bw(grad):
            g = np.zeros_like(a.data)
            for offset in range(width):
                g[..., offset:offset + steps] += grad[..., :, offset]
            _accum(a, g)
        out._backward = _bw
    return out


def dropout(inputs, rate: float, rng: np.random.Generator | None, mode: Mode) -> Tensor:
    """Inverted dropout: train-time zeroing with 1/(1-rate) rescale, eval identity."""
    inputs = as_tensor(inputs)
    if not _dropout_active(rate, rng, mode):
        return inputs
    _, keep = _dropout_draw(inputs.shape, rate, rng)
    return mul(inputs, Tensor(keep / (1.0 - rate)))
