"""Motion attention: summarize an arbitrary-length history into a fixed window.

The last ``query_len`` observed frames form the query; every dense
sub-window of the history forms a key (first ``query_len`` frames) and a
value (the full ``query_len + future_len`` frames, kept in pose space).
Two small rectified conv nets embed query and keys, raw scores are plain
dot products (nonnegative by construction) and the summary is the
score-normalized convex combination of the value windows.  A history whose
scores are all zero takes uniform weights instead, each row of a batch on
its own.  The key net runs once over the whole key span: its convs are
valid-only with stride 1, so each output column is one key window's code.
A caller that already holds the codes of every key window of the history
(``encode_span`` over its key span) passes them in, and the key net does
not run.  Every layer takes a leading batch axis, (batch, pose_dim,
frames) histories and (batch, latent_dim, count) codes; a single history is
a batch of one, and a 2-D input raises ``DimensionError``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .tensor import Tensor, as_tensor, conv1d_relu, matmul, reshape, tensor_sum, value_windows


def poses_to_channels(poses: np.ndarray) -> np.ndarray:
    """(..., frames, joints, 3) poses -> a (..., joints*3, frames) channel view,
    channel p = joint*3 + axis."""
    return poses.reshape(poses.shape[:-2] + (-1,)).swapaxes(-1, -2)


def channels_to_poses(channels):
    """(..., joints*3, frames) channels -> (..., frames, joints, 3) poses, for an
    array or a Tensor alike."""
    *lead, dims, frames = channels.shape
    if dims % 3 != 0:
        raise DimensionError(f"channel count {dims} is not a multiple of 3")
    axes = tuple(range(len(lead))) + (len(lead) + 1, len(lead))
    return channels.transpose(axes).reshape(tuple(lead) + (frames, dims // 3, 3))


def kernel_widths(query_len: int) -> tuple[int, int]:
    """Two conv widths whose combined receptive field equals the query length."""
    if query_len < 1:
        raise ConfigurationError(f"query_len must be positive, got {query_len}")
    first = query_len // 2 + 1
    return first, query_len - first + 1


@dataclass
class ConvLayer:
    kernels: Tensor            # (channels_out, channels_in, width)
    bias: Tensor               # (channels_out,)

    @property
    def width(self) -> int:
        return self.kernels.shape[2]


@dataclass
class WindowEncoder:
    """Two rectified conv layers collapsing one query-length window to a code."""

    first: ConvLayer
    second: ConvLayer

    @property
    def receptive_field(self) -> int:
        return self.first.width + self.second.width - 1

    @property
    def latent_dim(self) -> int:
        return self.second.kernels.shape[0]


@dataclass
class AttentionParams:
    query_net: WindowEncoder
    key_net: WindowEncoder


@dataclass
class MotionSummary:
    values: Tensor             # (batch, joints*3, query_len + future_len)
    attention_weights: Tensor  # (batch, window_count), simplex rows
    used_fallback: bool = False


def _init_conv(rng: np.random.Generator, channels_out: int, channels_in: int,
               width: int) -> ConvLayer:
    bound = 1.0 / np.sqrt(channels_in * width)
    kernels = Tensor(rng.uniform(-bound, bound, (channels_out, channels_in, width)),
                     requires_grad=True)
    return ConvLayer(kernels, Tensor(np.zeros(channels_out), requires_grad=True))


def init_attention_params(pose_dim: int, query_len: int, latent_dim: int,
                          rng: np.random.Generator) -> AttentionParams:
    w1, w2 = kernel_widths(query_len)
    query_net, key_net = (WindowEncoder(_init_conv(rng, latent_dim, pose_dim, w1),
                                        _init_conv(rng, latent_dim, latent_dim, w2))
                          for _ in range(2))
    return AttentionParams(query_net, key_net)


def encode_span(net: WindowEncoder, span) -> Tensor:
    """(batch, pose_dim, frames) span -> (batch, latent_dim, frames - query_len + 1) codes.

    Both conv layers are valid-only with stride 1, so output column i is the
    code of the query-length window that starts at frame i.  Each layer is
    one ``conv1d_relu`` tape node, which keeps its input and its rectified
    output, not the pre-activation.
    """
    hidden = conv1d_relu(span, net.first.kernels, net.first.bias)
    return conv1d_relu(hidden, net.second.kernels, net.second.bias)


def encode(net: WindowEncoder, window) -> Tensor:
    """(batch, pose_dim, query_len) window -> (batch, latent_dim) code."""
    window = as_tensor(window)
    if window.shape[-1] != net.receptive_field:
        raise DimensionError(
            f"window has {window.shape[-1]} frames, encoder expects {net.receptive_field}")
    out = encode_span(net, window)
    return reshape(out, out.shape[:-1])


def summarize_history(history, params: AttentionParams, query_len: int,
                      future_len: int, key_codes=None) -> MotionSummary:
    """Attention core over a batch of channel-major histories.

    history: (batch, pose_dim, frames) with frames >= query_len + future_len.
    key_codes, when given, are the codes of every key window of this
    history, shaped (batch, latent_dim, count) with count = frames -
    query_len - future_len + 1, and the key net does not run.  A row whose
    scores sum to zero weighs its windows uniformly, and ``used_fallback``
    says if any row did.
    """
    history = as_tensor(history)
    if history.ndim != 3:
        raise DimensionError(f"history must be (batch, pose_dim, frames), got {history.shape}")
    batch, _, frames = history.shape
    window = query_len + future_len
    count = frames - window + 1
    if count < 1:
        raise DimensionError(
            f"history too short: {frames} frames < query+future window {window}")

    query = history[:, :, frames - query_len:]
    query_code = encode(params.query_net, query)                      # (B, d)
    latent = params.key_net.latent_dim

    if key_codes is None:
        codes = encode_span(params.key_net, history[:, :, :count + query_len - 1])
    else:
        codes = as_tensor(key_codes)
        if codes.shape != (batch, latent, count):
            raise DimensionError(f"key codes {codes.shape} are not this history's "
                                 f"{(batch, latent, count)} codes")

    scores = reshape(matmul(reshape(query_code, (batch, 1, latent)), codes), (batch, count))
    denom = tensor_sum(scores, axis=1, keepdims=True)                 # (B, 1)
    # rectifiers can zero every score of a row; the other rows keep their gradient
    zero_rows = denom.data == 0.0
    weights = scores / (denom + Tensor(zero_rows)) + Tensor(zero_rows / count)

    summary = value_windows(history, weights)                         # (B, P, L+F)
    return MotionSummary(summary, weights, bool(zero_rows.any()))
