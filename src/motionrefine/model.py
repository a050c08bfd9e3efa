"""Model configuration, parameter container and the end-to-end forward pass."""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .attention import (
    AttentionParams,
    init_attention_params,
    kernel_widths,
    summarize_history,
)
from .errors import ConfigurationError, FormatError
from .refinement import (
    DROPOUT,
    RefinementParams,
    init_refinement_params,
    pad_query,
    refine,
)
from .tensor import Mode, RunningStats, Tensor, as_tensor
from .transforms import DctBasis

ATTENTION_MODES = ("attention", "copy")


@dataclass
class ModelConfig:
    joints: int
    history_len: int = 50
    query_len: int = 10
    future_len: int = 10
    stages: int = 3
    glb_pairs: int = 2        # blocks per module: 1 entry + 2*glb_pairs
    latent_dim: int = 256
    dropout: float = DROPOUT
    attention_mode: str = "attention"

    def __post_init__(self):
        if self.joints < 1:
            raise ConfigurationError("joints must be positive")
        if self.query_len < 1 or self.future_len < 1:
            raise ConfigurationError("query_len and future_len must be >= 1")
        if self.history_len < self.query_len + self.future_len:
            raise ConfigurationError(
                f"history_len {self.history_len} shorter than one "
                f"query+future window {self.query_len + self.future_len}")
        if self.stages < 1:
            raise ConfigurationError("stages must be >= 1")
        if self.glb_pairs < 0:
            raise ConfigurationError("glb_pairs must be >= 0")
        if self.latent_dim < 1:
            raise ConfigurationError("latent_dim must be >= 1")
        if self.attention_mode not in ATTENTION_MODES:
            raise ConfigurationError(
                f"attention_mode must be one of {ATTENTION_MODES}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigurationError("dropout must be in [0, 1)")

    @property
    def pose_dim(self) -> int:
        return self.joints * 3

    @property
    def window(self) -> int:
        return self.query_len + self.future_len


@dataclass
class ModelParams:
    attention: AttentionParams | None
    refinement: RefinementParams


def init_model_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    attention = None
    if config.attention_mode == "attention":
        attention = init_attention_params(
            config.pose_dim, config.query_len, config.latent_dim, rng)
    refinement = init_refinement_params(
        config.pose_dim, config.window, config.stages, config.glb_pairs,
        config.latent_dim, rng, dropout=config.dropout)
    return ModelParams(attention, refinement)


def named_parameters(params: ModelParams) -> dict[str, Tensor]:
    """Stable name -> learnable tensor map (insertion order is update order)."""
    table: dict[str, Tensor] = {}
    if params.attention is not None:
        for net_name, net in (("query", params.attention.query_net),
                              ("key", params.attention.key_net)):
            for layer_name, layer in (("conv1", net.first), ("conv2", net.second)):
                table[f"attention.{net_name}.{layer_name}.kernels"] = layer.kernels
                table[f"attention.{net_name}.{layer_name}.bias"] = layer.bias
    for s, glm in enumerate(params.refinement.stages):
        for b, block in enumerate(glm.blocks):
            prefix = f"refine.stage{s}.block{b}"
            table[f"{prefix}.adjacency"] = block.adjacency
            table[f"{prefix}.weights"] = block.weights
            table[f"{prefix}.gamma"] = block.gamma
            table[f"{prefix}.beta"] = block.beta
        table[f"refine.stage{s}.output.adjacency"] = glm.output_gc.adjacency
        table[f"refine.stage{s}.output.weights"] = glm.output_gc.weights
    return table


def named_running_stats(params: ModelParams) -> dict[str, RunningStats]:
    table: dict[str, RunningStats] = {}
    for s, glm in enumerate(params.refinement.stages):
        for b, block in enumerate(glm.blocks):
            table[f"refine.stage{s}.block{b}"] = block.stats
    return table


def count_parameters(config: ModelConfig) -> int:
    """The number of values ``init_model_params(config)`` learns, from the config alone."""
    p, d, c = config.pose_dim, config.latent_dim, 2 * config.window
    w1, w2 = kernel_widths(config.query_len)
    attention = (2 * (d * p * w1 + d * d * w2 + 2 * d)  # query and key nets, two convs each
                 if config.attention_mode == "attention" else 0)
    # a stage's entry block, 2 * glb_pairs (d, d) blocks and bare output conv,
    # each with a (p, p) adjacency; the blocks also have a norm's gamma and beta
    weights = (c * d + 2 * d) + 2 * config.glb_pairs * (d * d + 2 * d) + d * c
    return attention + config.stages * (weights + (2 + 2 * config.glb_pairs) * p * p)


@dataclass
class ModelOutput:
    prediction: Tensor
    stage_outputs: list[Tensor]


def model_forward(params: ModelParams, histories, config: ModelConfig,
                  basis: DctBasis, mode: Mode, key_codes=None) -> ModelOutput:
    """Summarize the history, then refine the padded query stage by stage.

    histories: (batch, pose_dim, frames), a single history as a batch of
    one (a 2-D input raises ``DimensionError``); any frame count >=
    query_len + future_len works, not just the training length.
    key_codes: the key net's codes of every key window of these histories,
    (batch, latent_dim, frames - query_len - future_len + 1) as
    ``encode_span`` gives them, so the key net does not run.
    In copy mode the summary is simply the padded query.
    """
    histories = as_tensor(histories)
    if basis.size != config.window:
        raise ConfigurationError(
            f"basis size {basis.size} != query+future window {config.window}")
    query = histories[..., -config.query_len:]
    if config.attention_mode == "attention":
        summary = summarize_history(histories, params.attention, config.query_len,
                                    config.future_len, key_codes=key_codes).values
    else:
        summary = pad_query(query, config.future_len)
    stage_outputs = refine(query, summary, params.refinement, basis, mode)
    return ModelOutput(stage_outputs[-1], stage_outputs)


# JSON types a config field of each annotated type accepts (a bool is no number)
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}


def fits_field(value, type_name: str) -> bool:
    """Whether a JSON value fits a config field annotated ``type_name``."""
    return (isinstance(value, bool) == (type_name == "bool")
            and isinstance(value, _JSON_TYPES[type_name]))


def config_from_dict(cls, payload, what: str):
    """Build the config dataclass ``cls`` from a JSON object read from a file.

    Raises FormatError, naming ``what``, for a payload that is not an
    object, a missing or unknown key, a value of the wrong JSON type, or a
    value ``cls`` itself rejects.
    """
    if not isinstance(payload, dict):
        raise FormatError(f"{what} is not a JSON object")
    names = [f.name for f in fields(cls)]
    missing = [name for name in names if name not in payload]
    unknown = sorted(set(payload) - set(names))
    problems = ([f"lacks key(s) {', '.join(missing)}"] if missing else []) + \
        ([f"has unknown key(s) {', '.join(unknown)}"] if unknown else [])
    if problems:
        raise FormatError(f"{what} {' and '.join(problems)}")
    for f in fields(cls):
        value = payload[f.name]
        if not fits_field(value, f.type):
            raise FormatError(f"{what}: {f.name} must be {f.type}, got {value!r}")
    try:
        return cls(**payload)
    except ConfigurationError as bad:
        raise FormatError(f"{what}: {bad}") from None
