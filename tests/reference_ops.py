"""Ops that only the tests use: the separate tape ops the fused nodes replace,
the per-tensor Adam recurrence ``trainer.adam_step`` matches bit for bit, and
the pose-space round trip per stage that ``refinement.refine`` skips.

``conv1d_relu`` does the arithmetic of ``relu`` on ``conv1d``, the
composed ``sliding_windows``, ``transpose``, ``reshape``, ``matmul``,
``transpose`` and ``add`` ops, and ``graph_blocks`` (a module: an entry
block, residual pairs and an optional output conv) that of one ``matmul``,
``batchnorm``, ``tanh`` and ``dropout`` chain per block, an ``add`` per
residual pair and two ``matmul``s for the output conv; the tests compose
these ops as the bitwise reference (``conv1d``, ``composed_block``,
``composed_module``).  The train-mode ``batchnorm`` and ``dropout`` share
no arithmetic with ``tensor``: they compute their batch statistics,
affine step, gradients and keep mask (``rng.random(shape) >= rate``)
themselves, so a drift in the fused ops shows against them.  The
``value_windows`` node, motion attention's summary, does the arithmetic
of a ``take`` and a ``matmul`` per summary frame and one ``concat``,
composed here as ``value_windows``, and ``conv1d_relu``'s window copy (``tensor._unfold``) gives the bits of one
copy of numpy's ``sliding_window_view`` (``unfold``).  Batch norm's
channels are the last axis; in eval mode, which the model runs only off
the tape, ``batchnorm`` is an untracked numpy expression in the order of
``graph_blocks``' eval epilogue: one per-channel scale and shift from the
running statistics.  Eval records and
predictions made before that map replaced the textbook
``gamma * (x - mean) / std + beta`` differ from today's in the last bits.
``tensor_mean`` composes ``tensor_sum`` and ``mul``.
"""
import numpy as np

from motionrefine.errors import DimensionError
from motionrefine.refinement import DROPOUT, glm_forward, pad_query
from motionrefine.tensor import (
    BN_EPS,
    Mode,
    RunningStats,
    Tensor,
    _accum,
    _check_affine,
    _dropout_active,
    _result,
    add,
    as_tensor,
    concat,
    matmul,
    mul,
    reshape,
    tensor_sum,
    transpose,
)
from motionrefine.transforms import dct, idct


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


def unfold(x: np.ndarray, width: int) -> np.ndarray:
    """``tensor._unfold`` as one copy of numpy's ``sliding_window_view``:
    (B, C_in, T) -> a new (B, T - width + 1, C_in * width) array."""
    batch, chans_in, length = x.shape
    steps = length - width + 1
    windows = np.empty((batch, steps, chans_in, width))
    view = np.lib.stride_tricks.sliding_window_view(x, width, axis=-1)
    windows[...] = view.transpose(0, 2, 1, 3)
    return windows.reshape(batch, steps, chans_in * width)


def value_windows(history, weights) -> Tensor:
    """Motion attention's summary as separate tape ops: value window i is
    ``history[..., i:i + window]``, so summary frame t is the ``take`` of the
    frames ``history[..., t:t + count]`` times the weights as a column, and
    one ``concat`` joins the frames."""
    history, weights = as_tensor(history), as_tensor(weights)
    batch, count = weights.shape
    column = reshape(weights, (batch, count, 1))
    return concat([matmul(history[:, :, t:t + count], column)
                   for t in range(history.shape[-1] - count + 1)], axis=2)


def conv1d(inputs, kernels, bias) -> Tensor:
    """Valid cross-correlation along the trailing axis as separate tape ops:
    (batch, channels_in, T) inputs, (channels_out, channels_in, width)
    kernels and a (channels_out,) bias give (batch, channels_out, T - width + 1)."""
    batch, chans_in, length = inputs.shape
    chans_out, _, width = kernels.shape
    steps = length - width + 1
    win = reshape(transpose(sliding_windows(inputs, width), (0, 2, 1, 3)),
                  (batch, steps, chans_in * width))
    kmat = transpose(reshape(kernels, (chans_out, chans_in * width)), (1, 0))
    return add(transpose(matmul(win, kmat), (0, 2, 1)), reshape(bias, (1, chans_out, 1)))


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = _result(np.maximum(a.data, 0.0), (a,), "relu")
    if out.requires_grad:
        def _bw(grad):
            # subgradient at exactly 0 is 0
            _accum(a, grad * (a.data > 0.0))
        out._backward = _bw
    return out


def dropout(inputs, rate: float, mode: Mode) -> Tensor:
    """Inverted dropout drawing ``mode.rng``: train-time zeroing with 1/(1-rate)
    rescale, eval identity."""
    inputs = as_tensor(inputs)
    if not _dropout_active(rate, mode):
        return inputs
    keep = mode.rng.random(inputs.shape) >= rate
    return mul(inputs, Tensor(keep / (1.0 - rate)))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)
    out = _result(data, (a,), "tanh")
    if out.requires_grad:
        def _bw(grad):
            _accum(a, grad * (1.0 - data * data))
        out._backward = _bw
    return out


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in axes:
            count *= a.shape[ax % a.ndim]
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def batchnorm(inputs, gamma, beta, stats: RunningStats, mode: Mode) -> Tensor:
    """Normalize per channel (the last axis) over every other axis, then
    apply the affine pair.

    Train mode computes its own batch statistics and folds them into
    ``stats`` with the momentum ``BN_MOMENTUM`` (unbiased variance, like the
    usual convention), with the ops of ``graph_blocks``' train-mode forward
    in their order; the op is one tape node with the closed-form gradient,
    its ops in the order of the fused backward's.  Eval mode is the
    fixed map from the running statistics as ``graph_blocks``' eval epilogue
    computes it, one per-channel scale and shift
    (``scale = gamma / sqrt(var + eps)``, ``shift = beta - mean * scale``,
    then ``x * scale + shift``), off the tape like the model's eval mode.
    It agrees with the textbook ``gamma * (x - mean) / std + beta`` to
    within rounding, so eval outputs from before this map differ in the
    last bits.
    """
    inputs = as_tensor(inputs)
    gamma = as_tensor(gamma)
    beta = as_tensor(beta)
    _check_affine(gamma, beta, inputs.shape[-1])
    if not mode.training:
        scale = gamma.data / np.sqrt(stats.var + BN_EPS)
        return Tensor(inputs.data * scale + (beta.data - stats.mean * scale))
    x = inputs.data.copy()
    pooled = tuple(range(x.ndim - 1))
    n = x.size // x.shape[-1]
    mean = x.sum(axis=pooled) * (1.0 / n)
    centered = x - mean
    var = (centered * centered).sum(axis=pooled) * (1.0 / n)
    std = np.sqrt(var + BN_EPS)
    stats.update(mean, var * (n / (n - 1)) if n > 1 else var)
    normalized = centered / std
    out = _result(gamma.data * normalized + beta.data, (inputs, gamma, beta), "batchnorm")
    if out.requires_grad:
        def _bw(grad):
            # gamma/std * (g - mean(g) - normalized * mean(g * normalized))
            dbeta = grad.sum(axis=pooled)
            dgamma = (grad * normalized).sum(axis=pooled)
            _accum(gamma, dgamma)
            _accum(beta, dbeta)
            if inputs.requires_grad:
                dx = normalized * (dgamma * (-1.0 / n)) + grad - dbeta * (1.0 / n)
                dx *= gamma.data / std
                _accum(inputs, dx)
        out._backward = _bw
    return out


def composed_block(g, layer, mode: Mode, dropout_rate: float = DROPOUT) -> Tensor:
    """A graph block as separate tape ops."""
    h = matmul(matmul(layer.adjacency, g), layer.weights)
    h = batchnorm(h, layer.gamma, layer.beta, layer.stats, mode)
    return dropout(tanh(h), dropout_rate, mode)


def composed_module(g, glm, mode: Mode, block=composed_block) -> Tensor:
    """``refinement.glm_forward`` as separate tape ops: ``block(x, layer,
    mode, rate)`` per block, an ``add`` per residual pair and two ``matmul``s
    for the output conv, where ``glm.output_gc`` is not None."""
    h = block(g, glm.blocks[0], mode, glm.dropout)
    for pair in range((len(glm.blocks) - 1) // 2):
        inner = block(h, glm.blocks[1 + 2 * pair], mode, glm.dropout)
        h = add(block(inner, glm.blocks[2 + 2 * pair], mode, glm.dropout), h)
    if glm.output_gc is None:
        return h
    return matmul(matmul(glm.output_gc.adjacency, h), glm.output_gc.weights)


def adam_step_reference(params: dict[str, Tensor], state, lr: float,
                        beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """The per-tensor Adam recurrence: ``state`` holds ``m`` and ``v`` maps of
    arrays and a ``step`` count, and every parameter and moment is rebound to
    a new array.  A missing gradient counts as zero."""
    state.step += 1
    t = state.step
    correct1 = 1.0 - beta1 ** t
    correct2 = 1.0 - beta2 ** t
    for name, p in params.items():
        grad = p.grad
        if grad is None:
            grad = np.zeros_like(p.data)
        m = state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * grad
        v = state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * grad * grad
        p.data = p.data - lr * (m / correct1) / (np.sqrt(v / correct2) + eps)


def refine_round_trip(query, summary, params, basis, mode: Mode) -> list[Tensor]:
    """``refinement.refine`` with a round trip through pose space per stage.

    Each stage converts the summary and the prediction to coefficients, adds
    its module's output, and converts both halves back (the last stage's
    summary excepted).  The basis is orthonormal, so this agrees with
    ``refine`` to within rounding.
    """
    window = basis.size
    x = pad_query(query, window - query.shape[-1])
    s = as_tensor(summary)
    stage_outputs = []
    for n, glm in enumerate(params.stages, start=1):
        x_freq = dct(x, basis)
        g = concat([dct(s, basis), x_freq], axis=-1)
        g = add(glm_forward(g, glm, mode), g)
        if n < len(params.stages):
            s = idct(g[..., :window], basis)
        x = idct(g[..., window:], basis)
        stage_outputs.append(x)
    return stage_outputs
