"""Dense float64 arrays with reverse-mode automatic differentiation.

Every operation on tracked tensors records its inputs and a backward
closure on the result, so the operation graph doubles as the gradient
tape: inputs always precede their consumers (topological order by
construction).  ``backward`` on a scalar walks that graph once in
reverse, hands each node's closure the node's gradient and returns the
gradients of the leaves (the tracked tensors no op produced, such as
parameters), which also keep them in ``.grad``.

A closure holds its operand tensors and the arrays it needs (the output
array where ``sqrt`` and ``div`` need it), never the tensor it
belongs to, so a graph holds no reference cycle: reference counting
frees it with its last tensor, swept or not.  The fused nodes keep less:
``conv1d_relu``, the window encoder's rectified conv layer, holds only its
operands and its output and unfolds its input again in the backward;
``value_windows``, motion attention's score-weighted sum of every value
window of a history, holds only its operands; ``graph_blocks``, a whole
graph learning module (entry block and residual pairs, each a
``GraphBlock``, and an optional ``GraphConv`` output conv),
holds its operands, the entry block's batch statistics and each pair
block's normalized activations, and recomputes the entry block's
normalized activations, ``adjacency @ x``, the tanh output and every
block's and pair's output there.  Only train mode records it: eval mode,
whose batch norm is one per-channel scale and shift from the running
statistics, runs only under ``no_grad`` or on untracked operands.  The node
builds each ``(adjacency @ x) @ weights`` a chunk of windows at a time through one
cache-sized workspace (``_graph_product``).  The sweep drops each
closure, its edges and the node's gradient as soon as the closure has
run, so the arrays a node saved and the gradients already consumed are
released during the sweep.  A
closure never writes into the gradient it receives, which may be shared
with other operands.  A graph can be walked only once; rebuilding the
forward pass resets the tape.

The fused nodes take one layout, batch first: ``conv1d_relu`` a (B, C, T)
input, ``value_windows`` a (B, P, T) history and ``graph_blocks`` a
(B, P, C) input.  A single window is a batch of
one; a 2-D input raises ``DimensionError``.

Tensors are immutable once created: no op writes into an operand's
``.data`` (optimizers mutate parameter ``data`` between steps, never
mid-graph).  So ``take`` returns a view of its operand's array, not a
copy.  All math is 64-bit.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DimensionError, StateError, TapeError

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording for eval-time forwards."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag}, op={self._op})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims: bool = False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, *axes)



def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _result(data, parents, op: str) -> Tensor:
    """Wrap an op result, keeping graph edges only when tracking is on.

    Untracked inputs are dropped from the parent tuple so a tensor with
    requires_grad=False never appears as a differentiable input.
    """
    out = Tensor(data)
    if _grad_enabled:
        tracked = tuple(p for p in parents if p.requires_grad)
        if tracked:
            out.requires_grad = True
            out._parents = tracked
            out._op = op
    return out


def _accum(t: Tensor, g: np.ndarray):
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _broadcast_data(a: Tensor, b: Tensor, op: str):
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_data(a, b, "add")
    out = _result(a.data + b.data, (a, b), "add")
    if out.requires_grad:
        def _bw(grad):
            if a.requires_grad:
                _accum(a, _unbroadcast(grad, a.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(grad, b.shape))
        out._backward = _bw
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_data(a, b, "sub")
    out = _result(a.data - b.data, (a, b), "sub")
    if out.requires_grad:
        def _bw(grad):
            if a.requires_grad:
                _accum(a, _unbroadcast(grad, a.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(-grad, b.shape))
        out._backward = _bw
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_data(a, b, "mul")
    out = _result(a.data * b.data, (a, b), "mul")
    if out.requires_grad:
        def _bw(grad):
            if a.requires_grad:
                _accum(a, _unbroadcast(grad * b.data, a.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(grad * a.data, b.shape))
        out._backward = _bw
    return out


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_data(a, b, "div")
    data = a.data / b.data
    out = _result(data, (a, b), "div")
    if out.requires_grad:
        def _bw(grad):
            if a.requires_grad:
                _accum(a, _unbroadcast(grad / b.data, a.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(-grad * data / b.data, b.shape))
        out._backward = _bw
    return out


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs 2-D (or batched) operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = _result(a.data @ b.data, (a, b), "matmul")
    if out.requires_grad:
        def _bw(grad):
            grad_a, grad_b = _matmul_grads(a.data, b.data, grad,
                                           a.requires_grad, b.requires_grad)
            _accum(a, grad_a)
            _accum(b, grad_b)
        out._backward = _bw
    return out


def _matmul_grads(a: np.ndarray, b: np.ndarray, g: np.ndarray, need_a: bool, need_b: bool,
                  out_a: np.ndarray | None = None, out_b: np.ndarray | None = None):
    """Gradients of ``a @ b`` for the upstream gradient ``g``, None where not needed.

    ``out_a`` and ``out_b``, where given, are spent buffers of the GEMM's
    full (unsummed) shape that receive it instead of a new array.
    """
    grad_a = grad_b = None
    if need_a:
        grad_a = _unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2), out=out_a), a.shape)
    if need_b:
        if b.ndim == 2:
            # a weight shared by every batch entry: one GEMM over the
            # flattened batch, never a (batch, K, N) stack to sum away
            k, n = b.shape
            grad_b = np.matmul(a.reshape(-1, k).T, g.reshape(-1, n), out=out_b)
        else:
            grad_b = _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g, out=out_b), b.shape)
    return grad_a, grad_b


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    data = np.sqrt(a.data)
    out = _result(data, (a,), "sqrt")
    if out.requires_grad:
        def _bw(grad):
            positive = data > 0.0
            denom = np.where(positive, data, 1.0)
            # subgradient pinned to 0 at the origin to keep training finite
            _accum(a, np.where(positive, 0.5 * grad / denom, 0.0))
        out._backward = _bw
    return out


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = _result(a.data.sum(axis=axis, keepdims=keepdims), (a,), "sum")
    if out.requires_grad:
        def _bw(grad):
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(ax % a.ndim for ax in axes):
                    grad = np.expand_dims(grad, ax)
            _accum(a, np.broadcast_to(grad, a.shape).copy())
        out._backward = _bw
    return out


def reshape(a, *shape) -> Tensor:
    a = as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out = _result(a.data.reshape(shape), (a,), "reshape")
    if out.requires_grad:
        def _bw(grad):
            _accum(a, grad.reshape(a.shape))
        out._backward = _bw
    return out


def transpose(a, *axes) -> Tensor:
    a = as_tensor(a)
    if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes = tuple(axes[0])
    if not axes:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(ax % a.ndim for ax in axes)
    out = _result(np.transpose(a.data, axes), (a,), "transpose")
    if out.requires_grad:
        inverse = tuple(np.argsort(axes))
        def _bw(grad):
            _accum(a, np.transpose(grad, inverse))
        out._backward = _bw
    return out


def _check_basic_index(key):
    items = key if isinstance(key, tuple) else (key,)
    for item in items:
        if not (item is None or item is Ellipsis or isinstance(item, (int, slice))):
            raise DimensionError("only basic indexing (ints, slices) is differentiable here")


def take(a, key) -> Tensor:
    a = as_tensor(a)
    _check_basic_index(key)
    out = _result(a.data[key], (a,), "take")
    if out.requires_grad:
        def _bw(grad):
            g = np.zeros_like(a.data)
            g[key] = grad
            _accum(a, g)
        out._backward = _bw
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise DimensionError("concat of zero tensors")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = _result(data, tuple(tensors), "concat")
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        def _bw(grad):
            offset = 0
            index = [slice(None)] * grad.ndim
            for t, size in zip(tensors, sizes):
                index[axis] = slice(offset, offset + size)
                _accum(t, grad[tuple(index)])
                offset += size
        out._backward = _bw
    return out


def value_windows(history, weights) -> Tensor:
    """The weighted sum of every value window of a history, as one tape node:
    motion attention's summary.

    history: (batch, P, frames)
    weights: (batch, count), count <= frames
    returns  (batch, P, window), window = frames - count + 1

    Value window i is ``history[..., i:i + window]``, so summary frame t is
    ``history[..., t:t + count] @ weights``, row by row.  The arithmetic is
    that of the composed form, a ``take`` and a ``matmul`` per frame and
    one ``concat`` (``value_windows`` in ``tests/reference_ops.py``): the
    same per-frame GEMM on the same views, and the weights' gradient summed
    over t from 0 upward, the order in which the sweep reached the composed
    nodes.  So outputs and gradients are bit-identical to theirs.  The
    history's gradient is built only when the history is tracked.
    """
    history, weights = as_tensor(history), as_tensor(weights)
    if history.ndim != 3 or weights.ndim != 2 or weights.shape[0] != history.shape[0]:
        raise DimensionError(f"value windows need a (batch, P, frames) history and (batch, "
                             f"count) weights, got {history.shape} and {weights.shape}")
    batch, _, frames = history.shape
    count = weights.shape[1]
    window = frames - count + 1
    if window < 1:
        raise DimensionError(f"{count} weights for a history of {frames} frames")
    h = history.data
    column = weights.data.reshape(batch, count, 1)
    data = np.concatenate([h[:, :, t:t + count] @ column for t in range(window)], axis=2)
    out = _result(data, (history, weights), "value_windows")
    if out.requires_grad:
        def _bw(grad):
            if weights.requires_grad:
                grad_w = functools.reduce(np.add, (
                    np.matmul(np.swapaxes(h[:, :, t:t + count], -1, -2), grad[:, :, t:t + 1])
                    for t in range(window)))
                _accum(weights, grad_w.reshape(batch, count))
            if history.requires_grad:
                row = np.swapaxes(column, -1, -2)
                g = np.zeros_like(h)
                for t in range(window):
                    g[:, :, t:t + count] += np.matmul(grad[:, :, t:t + 1], row)
                _accum(history, g)
        out._backward = _bw
    return out


def conv1d_relu(inputs, kernels, bias) -> Tensor:
    """Rectified valid cross-correlation along the trailing (temporal) axis,
    ``relu(conv(x))``, as one tape node: the window encoder's layer.

    inputs:  (batch, channels_in, T)
    kernels: (channels_out, channels_in, width)
    bias:    (channels_out,)
    returns  (batch, channels_out, T - width + 1)

    The arithmetic is that of the composed ``conv1d`` and ``relu`` test ops
    (in ``tests/reference_ops.py``; ``conv1d`` composes ``sliding_windows``,
    ``transpose``, ``reshape``, ``matmul``, ``transpose`` and ``add``: the
    same GEMMs, the same fold order), so outputs and gradients are
    bit-identical to theirs.  The windowed copy of the input is built once
    and freed after the GEMM, and the rectifier runs in place, so the node
    keeps only its operand tensors and its output, never the
    pre-activation: the rectifier's subgradient, 1 where the output is
    positive and 0 elsewhere (at an exact-zero pre-activation too), is read
    off the output.  The backward unfolds the input again for the kernel
    gradient, then writes the windows' gradient over that unfold and folds
    it back onto the input.
    """
    inputs, kernels, bias = as_tensor(inputs), as_tensor(kernels), as_tensor(bias)
    if kernels.ndim != 3:
        raise DimensionError(f"kernels must be (out, in, width), got {kernels.shape}")
    x = inputs.data
    if x.ndim != 3:
        raise DimensionError(f"conv input must be (batch, channels, T), got {inputs.shape}")
    batch, chans_in, length = x.shape
    chans_out, k_in, width = kernels.shape
    if k_in != chans_in:
        raise DimensionError(f"conv channel mismatch: input {chans_in}, kernels expect {k_in}")
    if length < width:
        raise DimensionError(f"temporal length {length} is shorter than kernel width {width}")
    if bias.shape != (chans_out,):
        raise DimensionError(f"bias must be ({chans_out},), got {bias.shape}")
    steps = length - width + 1
    kmat = kernels.data.reshape(chans_out, chans_in * width).T    # (C_in*W, C_out)
    bshape = (1, chans_out, 1)
    data = np.transpose(_unfold(x, width) @ kmat, (0, 2, 1)) + bias.data.reshape(bshape)
    np.maximum(data, 0.0, out=data)
    out = _result(data, (inputs, kernels, bias), "conv1d_relu")
    if out.requires_grad:
        def _bw(grad):
            grad = grad * (data > 0.0)
            _accum(bias, _unbroadcast(grad, bshape).reshape(chans_out))
            grad = np.transpose(grad, (0, 2, 1))                  # (B, steps, C_out)
            win = _unfold(x, width)
            if kernels.requires_grad:
                _, grad_kmat = _matmul_grads(win, kmat, grad, False, True)
                _accum(kernels, np.ascontiguousarray(grad_kmat.T.reshape(kernels.shape)))
            if inputs.requires_grad:
                # the spent unfold takes the GEMM's input gradient, which
                # sliding_windows' fold order then adds back up
                grad_win, _ = _matmul_grads(win, kmat, grad, True, False, out_a=win)
                grad_win = grad_win.reshape(batch, steps, chans_in, width).transpose(0, 2, 1, 3)
                g = np.zeros_like(x)
                for offset in range(width):
                    g[..., offset:offset + steps] += grad_win[..., offset]
                _accum(inputs, g)
        out._backward = _bw
    return out


def _unfold(x: np.ndarray, width: int) -> np.ndarray:
    """(B, C_in, T) -> a new (B, T - width + 1, C_in * width) array of its
    windows, one slice copy of the input per kernel offset."""
    batch, chans_in, length = x.shape
    steps = length - width + 1
    windows = np.empty((batch, steps, chans_in, width))
    frames = x.transpose(0, 2, 1)
    for offset in range(width):
        windows[..., offset] = frames[:, offset:offset + steps]
    return windows.reshape(batch, steps, chans_in * width)


@dataclass
class Mode:
    """Forward-pass context: training vs eval (run only off the tape) plus the noise source."""

    training: bool
    rng: np.random.Generator | None = None

    @classmethod
    def train(cls, rng: np.random.Generator) -> "Mode":
        return cls(True, rng)

    @classmethod
    def eval(cls) -> "Mode":
        return cls(False, None)


BN_MOMENTUM = 0.1
BN_EPS = 1e-5


@dataclass
class RunningStats:
    """Exponential running mean/variance for batch normalization."""

    mean: np.ndarray | None = None
    var: np.ndarray | None = None

    @property
    def initialized(self) -> bool:
        return self.mean is not None

    def update(self, batch_mean: np.ndarray, batch_var: np.ndarray):
        if self.mean is None:
            self.mean = np.zeros_like(batch_mean)
            self.var = np.ones_like(batch_var)
        self.mean = (1.0 - BN_MOMENTUM) * self.mean + BN_MOMENTUM * batch_mean
        self.var = (1.0 - BN_MOMENTUM) * self.var + BN_MOMENTUM * batch_var


def _check_affine(gamma: Tensor, beta: Tensor, channels: int):
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise DimensionError(
            f"gamma/beta must be ({channels},), got {gamma.shape} and {beta.shape}")


def _batchnorm_forward(x: np.ndarray, stats: RunningStats):
    """Train-mode batch normalization of ``x`` over its last (channel) axis, in place.

    ``x`` is left holding the normalized activations, and the batch
    statistics are folded into ``stats`` (unbiased variance).  Returns the
    per-channel mean and std, from which ``_block_normalized`` rebuilds the
    normalized activations with the same ``subtract`` and ``divide``; the
    affine step is ``_block_tanh``'s.
    """
    pooled = tuple(range(x.ndim - 1))
    n = x.size // x.shape[-1]
    mu = x.sum(axis=pooled) * (1.0 / n)
    centered = np.subtract(x, mu, out=x)
    var = np.multiply(centered, centered).sum(axis=pooled) * (1.0 / n)
    std = np.sqrt(var + BN_EPS)
    stats.update(mu, var * (n / (n - 1)) if n > 1 else var)
    np.divide(x, std, out=x)
    return mu, std


def _batchnorm_backward(g: np.ndarray, normalized: np.ndarray, gamma: np.ndarray,
                        std: np.ndarray, need_input: bool, spare: np.ndarray | None = None):
    """Closed-form train-mode batch-norm gradients ``(dgamma, dbeta, dx)`` for upstream ``g``.

    ``dx`` is None unless ``need_input``; it is written over ``normalized``,
    which the forward pass left to this one backward call.  ``spare``, a
    spent buffer of ``g``'s shape, takes the product ``g * normalized``.
    """
    pooled = tuple(range(g.ndim - 1))
    dbeta = g.sum(axis=pooled)
    dgamma = np.multiply(g, normalized, out=spare).sum(axis=pooled)
    if not need_input:
        return dgamma, dbeta, None
    # gamma/std * (g - mean(g) - normalized * mean(g * normalized))
    n = g.size // g.shape[-1]
    dx = np.multiply(normalized, dgamma * (-1.0 / n), out=normalized)
    dx += g
    dx -= dbeta * (1.0 / n)
    dx *= gamma / std
    return dgamma, dbeta, dx


def _dropout_active(rate: float, rng: np.random.Generator | None, mode: Mode) -> bool:
    """Validate an inverted-dropout call; False where it is the identity (eval or rate 0)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
    if not mode.training or rate == 0.0:
        return False
    if rng is None:
        raise ConfigurationError("train-mode dropout needs an rng")
    return True


# The one workspace a graph product streams its chunks of ``adjacency @ x``
# through: half of a 2 MiB-per-core L2, so a chunk's product and output stay
# in cache while the next GEMM and the epilogue read them.
_WORKSPACE_BYTES = 1 << 20


def _graph_product(adjacency: np.ndarray, x: np.ndarray, weights: np.ndarray,
                   out: np.ndarray | None = None, epilogue=None) -> np.ndarray:
    """``(adjacency @ x) @ weights`` over a (B, P, C_in) ``x``, a chunk of windows at a time.

    Each chunk's ``adjacency @ x`` goes into one workspace of at most the
    batch and about ``_WORKSPACE_BYTES``, never into a full-size array, and
    ``epilogue``, where given, runs in place on each output chunk while it
    is still in cache.  numpy runs a batched GEMM as one GEMM per window, so
    the values are bitwise those of the whole-batch expression.  The output
    is ``out`` where given, which may be ``x`` itself when C_in == C_out
    (each chunk of x is in the workspace before its rows are overwritten),
    else a new array.
    """
    if out is None:
        out = np.empty(x.shape[:-1] + weights.shape[-1:])
    chunk = min(len(x), max(1, _WORKSPACE_BYTES // x[0].nbytes))
    workspace = np.empty((chunk,) + x.shape[1:])
    for start in range(0, len(x), chunk):
        part = out[start:start + chunk]
        mixed = np.matmul(adjacency, x[start:start + chunk], out=workspace[:len(part)])
        np.matmul(mixed, weights, out=part)
        if epilogue is not None:
            epilogue(part)
    return out


def _graph_conv_backward(grad: np.ndarray, g: np.ndarray, need_g: bool, adjacency: Tensor,
                         weights: Tensor, mixed_out: np.ndarray | None = None,
                         grad_g_out: np.ndarray | None = None):
    """Gradients of ``(adjacency @ g) @ weights`` for upstream ``grad``, run
    as the GEMMs of the two composed ``matmul`` ops, in their order.

    The weights' and the adjacency's are accumulated; g's is returned, or
    None unless ``need_g``.  ``adjacency @ g`` is recomputed (the forward's
    GEMM on the same arrays, so bit-identical) into ``mixed_out`` where
    given; once the weight gradient is taken it is spent and takes
    ``grad_mixed``.  ``grad_g_out``, a spent buffer of g's shape, takes g's
    gradient.
    """
    mixed = np.matmul(adjacency.data, g, out=mixed_out)
    _, grad_weights = _matmul_grads(mixed, weights.data, grad, False, weights.requires_grad)
    _accum(weights, grad_weights)
    if not (adjacency.requires_grad or need_g):
        return None
    grad_mixed, _ = _matmul_grads(mixed, weights.data, grad, True, False, out_a=mixed)
    grad_adjacency, grad_g = _matmul_grads(adjacency.data, g, grad_mixed,
                                           adjacency.requires_grad, need_g, out_b=grad_g_out)
    _accum(adjacency, grad_adjacency)
    return grad_g


class _BlockTape(NamedTuple):
    """What a block keeps for its backward besides its operands.

    A module's entry block keeps no ``normalized`` (None): its input is
    narrow, so ``_block_normalized`` rebuilds them from the batch mean and
    std.
    """

    normalized: np.ndarray | None   # the batch-norm input, normalized per channel
    mean: np.ndarray                # the per-channel batch mean it was centred by
    std: np.ndarray                 # the per-channel std it was divided by
    keep: np.ndarray | None         # the dropout keep mask, one bit per value


class GraphBlock(NamedTuple):
    """A graph block's parameters:
    ``dropout(tanh(batchnorm(adjacency @ x @ weights)))``, batch norm with
    the affine pair ``gamma``, ``beta`` and its running statistics."""

    adjacency: Tensor               # (P, P)
    weights: Tensor                 # (C_in, C_out)
    gamma: Tensor                   # (C_out,)
    beta: Tensor                    # (C_out,)
    stats: RunningStats


class GraphConv(NamedTuple):
    """A bare graph convolution's parameters: ``adjacency @ x @ weights``."""

    adjacency: Tensor               # (P, P)
    weights: Tensor                 # (C_in, C_out)


def _block_forward(x: np.ndarray, block: GraphBlock, mode: Mode, rate: float, tracked: bool,
                   overwrite: bool):
    """``dropout(tanh(batchnorm(adjacency @ x @ weights)))`` on the array ``x``.

    Returns the output and, where ``tracked`` (train mode only), the block's
    ``_BlockTape`` (else None: nothing outlives the call).  The product
    streams through ``_graph_product``'s workspace.  In eval mode, which
    runs only off the tape, each chunk of it takes batch norm's one eval
    map, a per-channel scale and shift computed once per call from the
    running statistics (``scale = gamma / sqrt(var + eps)``,
    ``shift = beta - mean * scale``), and the tanh while still in cache, and
    where ``overwrite`` (x is the caller's to spend) and C_in == C_out the
    output is written over x; else it is a new array.  In train mode batch
    norm needs the whole product: it is normalized in place, the dropout
    draw is packed into the keep mask at once, and ``_block_output``, the
    backward's own rebuild, makes the output from that tape, over the
    normalized activations where they are off the tape.
    """
    adjacency, weights, gamma, beta, stats = block
    dropping = _dropout_active(rate, mode.rng, mode)
    if not mode.training:
        if not stats.initialized:
            raise StateError("eval-mode batchnorm before any training batch")
        scale = gamma.data / np.sqrt(stats.var + BN_EPS)
        shift = beta.data - stats.mean * scale

        def epilogue(part):
            part *= scale
            part += shift
            np.tanh(part, out=part)
        out = x if overwrite and x.shape[-1] == weights.shape[-1] else None
        return _graph_product(adjacency.data, x, weights.data, out, epilogue), None
    normalized = _graph_product(adjacency.data, x, weights.data)
    mean, std = _batchnorm_forward(normalized, stats)
    keep = np.packbits(mode.rng.random(normalized.shape) >= rate) if dropping else None
    tape = _BlockTape(normalized, mean, std, keep)
    out = _block_output(block, tape, rate, out=None if tracked else normalized)
    return out, tape if tracked else None


def _block_normalized(x: np.ndarray, block: GraphBlock, tape: _BlockTape) -> np.ndarray:
    """The block's normalized activations rebuilt bitwise from its input
    ``x``: the forward's product on the same arrays, then
    ``_batchnorm_forward``'s ``subtract`` and ``divide`` in place."""
    normalized = _graph_product(block.adjacency.data, x, block.weights.data)
    np.subtract(normalized, tape.mean, out=normalized)
    return np.divide(normalized, tape.std, out=normalized)


def _block_tanh(tape: _BlockTape, gamma: Tensor, beta: Tensor,
                out: np.ndarray | None = None) -> np.ndarray:
    """The block's tanh output: batch norm's affine step (channels are the
    last axis), then the tanh, into ``out`` where given (``tape.normalized``
    itself may take it)."""
    t = np.multiply(gamma.data, tape.normalized, out=out)
    t += beta.data
    return np.tanh(t, out=t)


def _block_output(block: GraphBlock, tape: _BlockTape, rate: float,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The block's train-mode output, into ``out`` where given: its tanh
    output times the keep mask and the scale.  The forward makes it so, and
    the backward rebuilds it so, bitwise."""
    out = _block_tanh(tape, block.gamma, block.beta, out)
    if tape.keep is not None:
        out *= np.unpackbits(tape.keep, count=out.size).reshape(out.shape)
        out *= 1.0 / (1.0 - rate)
    return out


def _block_backward(grad_out: np.ndarray, x, need_x: bool, block: GraphBlock,
                    tape: _BlockTape, rate: float, overwrite: bool):
    """Accumulate a block's parameter gradients for upstream ``grad_out``.

    ``x`` is the block's input array, or a function that rebuilds it into a
    given spent buffer (None: a new array); a pair's second block passes the
    first block's ``_block_output``, which runs once batch norm's backward
    is done with tanh's slope, so the input and the slope are never both
    live.  x's gradient is returned, or None unless ``need_x``.  Where
    ``overwrite``, ``grad_out`` is the caller's to spend and takes the
    gradient at the batch-norm output.  The backward writes its other
    full-size gradients over the buffers it has finished with,
    ``tape.normalized`` among them, so it runs once per tape.
    """
    adjacency, weights, gamma, beta, _stats = block
    slope = _block_tanh(tape, gamma, beta)       # tanh's slope 1 - t*t
    np.multiply(slope, slope, out=slope)
    np.subtract(1.0, slope, out=slope)
    # gradient at the batch-norm output: the dropout mask, then the slope
    out = grad_out if overwrite else None
    if tape.keep is None:
        grad = np.multiply(grad_out, slope, out=out)
    else:
        mask = np.unpackbits(tape.keep, count=slope.size).reshape(slope.shape)
        grad = np.multiply(grad_out, mask, out=out)
        del mask
        grad *= 1.0 / (1.0 - rate)
        grad *= slope
    need_mixed = adjacency.requires_grad or need_x
    # the spent slope takes the batch-norm backward's product
    dgamma, dbeta, dx = _batchnorm_backward(
        grad, tape.normalized, gamma.data, tape.std, need_mixed or weights.requires_grad, slope)
    _accum(gamma, dgamma)
    _accum(beta, dbeta)
    if dx is None:
        return None
    if callable(x):
        x = x(out=slope if weights.shape[0] == weights.shape[1] else None)
    del slope
    # the spent grad takes adjacency @ x where it has x's shape, and dx,
    # once spent, x's gradient
    spent = grad if grad.shape == x.shape else None
    del grad
    return _graph_conv_backward(dx, x, need_x, adjacency, weights, mixed_out=spent,
                                grad_g_out=dx if dx.shape == x.shape else None)


def _check_layers(shape: tuple, blocks: list[GraphBlock], output: GraphConv | None):
    """Raise ``DimensionError`` unless the input of ``shape`` has a window,
    every layer takes its predecessor's output (that input for the entry
    block), every block's gamma and beta have its output width and every
    residual pair returns its input's width."""
    if len(shape) != 3 or not shape[0]:
        raise DimensionError(f"graph layers need a (B, P, C) input of B >= 1 windows, "
                             f"got shape {shape}")
    layers = list(blocks) + ([output] if output is not None else [])
    channels = shape[-1]
    for k, layer in enumerate(layers):
        adjacency, weights = layer[:2]
        if k < len(blocks):
            _check_affine(layer.gamma, layer.beta, weights.shape[-1])
        if channels != weights.shape[0]:
            raise DimensionError(f"graph conv expects {weights.shape[0]} channels, got {channels}")
        if shape[-2] != adjacency.shape[0]:
            raise DimensionError(f"graph conv expects {adjacency.shape[0]} joints-coords rows, "
                                 f"got {shape[-2]}")
        if k % 2:           # a pair's first block (or the output conv)
            pair_input = channels
        channels = weights.shape[-1]
        if k and k % 2 == 0 and channels != pair_input:
            raise DimensionError(f"a residual pair's output width {channels} must be its "
                                 f"input's, {pair_input}")


def graph_blocks(h, blocks: list[GraphBlock], mode: Mode, rate: float,
                 output: GraphConv | None = None) -> Tensor:
    """A graph learning module as one tape node: an entry block, residual
    pairs of blocks and, where given, a bare output conv.

    ``blocks`` lists the entry block, then each pair's two, so the pair
    count is ``(len(blocks) - 1) / 2``.  A block is
    ``dropout(tanh(batchnorm(adjacency @ x @ weights)))`` on its
    predecessor's output ``x`` (h for the entry block), with x (B, P, C_in),
    adjacency (P, P), weights (C_in, C_out), batch norm over the last
    (channel) axis and dropout drawing ``mode.rng``.  A pair adds its input
    to its second block's output, and ``output``, where given, is a bare
    graph conv on the last pair's sum (the entry block's output at 0 pairs).
    Every layer's shape, gamma and beta included, is checked before any
    running statistic moves, so an input that is not (B, P, C) with B >= 1
    raises ``DimensionError`` with the statistics untouched.  Eval mode runs only
    off the tape: with a tracked operand and grad enabled it raises
    ``TapeError`` before any block runs, so run it under ``no_grad``.  The
    arithmetic, its order and the dropout draws are those of the composed
    ``matmul``, ``batchnorm``, ``tanh``, ``dropout`` and ``add`` ops (test
    ops, in ``tests/reference_ops.py``), so values, running statistics and gradients
    (a pair input's two contributions included) are bit-identical to
    theirs.  On the tape (train mode) the node keeps, besides its operands,
    the entry block's batch mean and std, each pair block's normalized
    activations and, under dropout, each block's keep mask packed to one bit
    per value, but no block's output.  The backward recomputes the rest with
    the forward's own ops on the same arrays, so bit-identically: a train-mode
    block's output is ``_block_output`` of its tape both when the forward makes
    it and when the backward rebuilds it.  First, in
    forward order, it rebuilds the input of every pair but the first and of
    the output conv: the entry block's output (its normalized activations
    from h's narrow product, the mean and the std, then ``gamma *
    normalized + beta``, ``np.tanh``, the mask and the scale), dropped once
    the first pair's sum exists, and each pair's sum (its input plus its
    second block's output).  Then, walking back, each block's backward
    recomputes ``adjacency @ x`` (the same GEMM) for the weight gradient and
    tanh's slope, rebuilds a pair's inner output into that slope's buffer
    once batch norm's backward is done with it, and releases the block's
    tape; the first pair rebuilds the entry block's normalized activations
    and output again, and the entry block's backward reuses those
    normalized activations.  So at the module backward's peak (a later
    pair's second block) the live full-size buffers besides the tape are
    the pair's input, its upstream gradient, the slope (then the inner
    output) and the gradient at the batch-norm output.  Off the tape (under
    ``no_grad`` or with no tracked input) nothing is kept, so a block's
    input is the only array of its pair that lives on across its forward.
    Each product streams through ``_graph_product``'s workspace.  In eval
    mode a pair's second block whose C_in == C_out writes its output over
    its input, an array this call made, so ``h`` is never written.
    """
    h = as_tensor(h)
    if len(blocks) % 2 == 0:
        raise ConfigurationError(f"{len(blocks)} blocks are not an entry block and residual pairs")
    _check_layers(h.shape, blocks, output)
    operands = (h,) + tuple(t for block in blocks for t in block[:4]) + tuple(output or ())
    tracked = _grad_enabled and any(t.requires_grad for t in operands)
    if tracked and not mode.training:
        raise TapeError("eval mode runs off the tape: call it under no_grad")
    x, tape = _block_forward(h.data, blocks[0], mode, rate, tracked, False)
    tapes = [tape and tape._replace(normalized=None)]
    for first, second in zip(blocks[1::2], blocks[2::2]):
        # x lives on for the add; the inner output is this call's to spend
        y, tape = _block_forward(x, first, mode, rate, tracked, False)
        tapes.append(tape)
        y, tape = _block_forward(y, second, mode, rate, tracked, True)
        tapes.append(tape)
        y += x
        x = y
    if output is not None:
        x = _graph_product(output.adjacency.data, x, output.weights.data)
    out = _result(x, operands, "graph_blocks")
    if out.requires_grad:
        # whether block k's input (k == len(blocks): the output conv's) needs a
        # gradient: h or an earlier block is tracked
        need = [any(t.requires_grad for t in operands[:1 + 4 * k])
                for k in range(len(blocks) + 1)]
        def entry_tape():
            return tapes[0]._replace(normalized=_block_normalized(h.data, blocks[0], tapes[0]))

        def _bw(grad):
            # the input of each pair but the first, then the output conv's
            inputs = []
            if output is not None or len(blocks) > 3:
                # the entry block's output, over its rebuilt normalized
                # activations, which no one else holds once the first sum exists
                tape = entry_tape()
                x = _block_output(blocks[0], tape, rate, out=tape.normalized)
                del tape
                for k in range(2, len(blocks) if output is not None else len(blocks) - 2, 2):
                    inputs.append(_block_output(blocks[k], tapes[k], rate))
                    inputs[-1] += x
                    x = inputs[-1]
                if not inputs:      # no pair: the output conv takes the entry block's output
                    inputs.append(x)
                del x
            if output is not None:
                x = inputs.pop()    # spent once adjacency's gradient is taken: g's takes it
                grad = _graph_conv_backward(grad, x, need[-1], *output, grad_g_out=x)
                del x
                if grad is None:
                    return
            entry = None
            for k in range(len(blocks) - 1, 0, -2):     # each pair's second block
                upstream = grad
                inner = functools.partial(_block_output, blocks[k - 1], tapes[k - 1], rate)
                grad = _block_backward(grad, inner, need[k], blocks[k], tapes[k], rate,
                                       overwrite=False)
                tapes[k] = None
                if grad is None:
                    return
                if k > 2:
                    pair_input = inputs.pop()
                else:
                    entry = entry_tape()
                    pair_input = _block_output(blocks[0], entry, rate)
                grad = _block_backward(grad, pair_input, need[k - 1], blocks[k - 1],
                                       tapes[k - 1], rate, overwrite=True)
                tapes[k - 1] = None
                if grad is None:
                    return
                # the pair input's two contributions, summed as the composed
                # ops sum them: the add's first
                grad += upstream
                del upstream, pair_input        # neither outlives its pair
            if entry is None:
                entry = entry_tape()
            # grad is this closure's own unless it is the one it received
            _accum(h, _block_backward(grad, h.data, need[0], blocks[0], entry, rate,
                                      overwrite=len(blocks) > 1 or output is not None))
        out._backward = _bw
    return out


def backward(loss: Tensor) -> dict:
    """Reverse-mode sweep from a scalar loss.

    Returns a map from every reachable leaf (a tracked tensor that no op
    produced) to its gradient; leaves keep it in ``.grad`` as well.  Each
    intermediate result's closure is called with the result's gradient and
    then dropped with the node's edges and gradient, so intermediates are
    absent from the map and what they saved is freed during the sweep.  A
    second sweep over the same graph raises; rebuild the forward pass
    instead.
    """
    if not isinstance(loss, Tensor):
        raise TapeError("backward expects a Tensor")
    if loss.size != 1:
        raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise TapeError("loss is detached from the tape (requires_grad is False)")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    # an op's result loses its closure when swept
    if any(node._backward is None and node._op != "leaf" for node in topo):
        raise TapeError("this graph was already consumed by backward; rebuild the forward pass")

    loss.grad = np.ones_like(loss.data)
    leaves = []
    while topo:  # popping releases each node once its consumers have run
        node = topo.pop()
        if node._backward is None:
            leaves.append(node)
            continue
        node._backward(node.grad)
        node.grad = node._backward = None
        node._parents = ()
    return {leaf: leaf.grad for leaf in reversed(leaves) if leaf.grad is not None}


def zero_grads(tensors):
    for t in tensors:
        t.grad = None
