"""Multi-stage motion refinement with graph-convolution stacks.

The summary and the padded query are converted into frequency coefficients
once and concatenated channel-wise.  Each stage adds a graph learning
module's output to that coefficient tensor (a residual update), and only the
prediction half is converted back to pose space, as the stage's output: the
basis is orthonormal, so the coefficients carry from stage to stage without
a round trip through pose space; ``refine`` returns the list of stage
outputs.  The graph convolution is adjacency @ input @ weights with both
factors learnable; a block follows it with batch normalization, tanh and
dropout.  A module is an entry block, residual pairs of blocks (each adding
its input to its output) and a bare graph convolution restoring the
coefficient channel count, stored as the ``tensor.GraphBlock`` and
``tensor.GraphConv`` parameters that ``tensor.graph_blocks`` takes as they
are.  That op runs the module as one tape node, checks every layer's shape
before any running statistic moves, keeps no block's or pair's output and
rebuilds them in its backward.  ``graph_learning_block`` (one block, the
same op) and ``graph_conv`` (two ``matmul`` ops) are the lone layers, off
the model's path.

The final convolution's weight matrix starts at zero, so a freshly
initialized model is exactly the repeat-last-pose baseline (only the
weight factor is zeroed; zeroing the adjacency too would kill both
gradients and freeze the layer permanently).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .tensor import (
    GraphBlock,
    GraphConv,
    Mode,
    RunningStats,
    Tensor,
    add,
    as_tensor,
    concat,
    graph_blocks,
    matmul,
)
from .transforms import DctBasis, dct, idct

DROPOUT = 0.3  # the graph blocks' dropout rate wherever none is given


@dataclass
class GlmParams:
    """One graph learning module: entry block, residual pairs, output conv."""

    blocks: list[GraphBlock]
    output_gc: GraphConv
    dropout: float

    @property
    def in_channels(self) -> int:
        return self.blocks[0].weights.shape[0]


@dataclass
class RefinementParams:
    stages: list[GlmParams]


def pad_query(query, future_len: int) -> Tensor:
    """Append the last observed pose ``future_len`` times along the time axis."""
    query = as_tensor(query)
    if future_len < 0:
        raise ConfigurationError("future_len must be nonnegative")
    if future_len == 0:
        return query
    last = query[..., -1:]
    return concat([query] + [last] * future_len, axis=-1)


def graph_conv(g, layer: GraphConv) -> Tensor:
    """adjacency @ g @ weights over (..., pose_dim, channels) inputs.  Kept
    only because ``bench/`` times it: no model path calls it (ROADMAP item 2)."""
    return matmul(matmul(layer.adjacency, g), layer.weights)


def graph_learning_block(g, layer: GraphBlock, mode: Mode,
                         dropout_rate: float = DROPOUT) -> Tensor:
    """Graph conv, batch norm over channels, tanh and dropout: one tape node
    in train mode; eval mode runs only under ``no_grad`` (else ``TapeError``).
    Kept only because ``bench/`` times it: no model path calls it (ROADMAP item 2)."""
    return graph_blocks(g, [layer], mode, dropout_rate)


def glm_forward(g, params: GlmParams, mode: Mode) -> Tensor:
    """Entry block, residual block pairs, then the bare output conv: one tape
    node, which rebuilds every block's and pair's output in its backward."""
    return graph_blocks(g, params.blocks, mode, params.dropout, output=params.output_gc)


def refine(query, summary, params: RefinementParams, basis: DctBasis,
           mode: Mode) -> list[Tensor]:
    """Run every refinement stage and return each stage's prediction, the
    last one the model's.

    query: (batch, pose_dim, query_len); summary: (batch, pose_dim, window)
    where window == basis.size.  The [summary; padded query] coefficients
    are one residual chain through the stages; each stage's output is the
    idct of its prediction half, and the summary half never leaves
    frequency space.
    """
    query = as_tensor(query)
    summary = as_tensor(summary)
    window = basis.size
    if summary.shape[-1] != window:
        raise ConfigurationError(
            f"summary window {summary.shape[-1]} != basis size {window}")
    future_len = window - query.shape[-1]
    if future_len < 0:
        raise ConfigurationError(
            f"query length {query.shape[-1]} exceeds window {window}")
    if not params.stages:
        raise ConfigurationError("refinement needs at least one stage")
    for glm in params.stages:
        if glm.in_channels != 2 * window:
            raise ConfigurationError(
                f"stage expects {glm.in_channels} channels, "
                f"configuration needs {2 * window}")

    g = concat([dct(summary, basis), dct(pad_query(query, future_len), basis)], axis=-1)
    stage_outputs: list[Tensor] = []
    for glm in params.stages:
        g = add(glm_forward(g, glm, mode), g)
        stage_outputs.append(idct(g[..., window:], basis))
    return stage_outputs


def _uniform(rng: np.random.Generator, shape: tuple, fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


def _init_block(rng: np.random.Generator, pose_dim: int, channels_in: int,
                channels_out: int) -> GraphBlock:
    return GraphBlock(_uniform(rng, (pose_dim, pose_dim), pose_dim),
                      _uniform(rng, (channels_in, channels_out), channels_in),
                      gamma=Tensor(np.ones(channels_out), requires_grad=True),
                      beta=Tensor(np.zeros(channels_out), requires_grad=True),
                      stats=RunningStats())


def init_refinement_params(pose_dim: int, window: int, stages: int, pair_count: int,
                           latent_dim: int, rng: np.random.Generator,
                           dropout: float = DROPOUT) -> RefinementParams:
    if stages < 1:
        raise ConfigurationError("need at least one refinement stage")
    if pair_count < 0:
        raise ConfigurationError("pair count must be nonnegative")
    channels = 2 * window      # [summary; prediction] coefficients
    built = []
    for _ in range(stages):
        blocks = [_init_block(rng, pose_dim, channels, latent_dim)]
        for _ in range(2 * pair_count):
            blocks.append(_init_block(rng, pose_dim, latent_dim, latent_dim))
        output_gc = GraphConv(_uniform(rng, (pose_dim, pose_dim), pose_dim),
                              Tensor(np.zeros((latent_dim, channels)), requires_grad=True))
        built.append(GlmParams(blocks, output_gc, dropout))
    return RefinementParams(built)
