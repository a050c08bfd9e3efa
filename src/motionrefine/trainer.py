"""Optimization loop, evaluation protocol, autoregressive driver, checkpoints.

Training is deterministic under a fixed seed: one generator drives
parameter init, epoch shuffling and dropout in that order, and its state
travels inside checkpoints, so save/load mid-run reproduces the
uninterrupted run bit for bit.

``AdamState`` makes every parameter's ``data`` a view of one flat vector and
holds Adam's moments as two more, so ``adam_step`` updates every parameter
with a few whole-vector ops per segment of the vector.  A caller that
rebinds a parameter's ``data`` is gathered back into the vector by the next
step.  Checkpoints keep one named array per parameter and moment, so their
format does not depend on the flat layout.

Checkpoint format "MCKPT1": magic ``MCKPT001``, u32 header length, JSON
header (format version, configs, epoch, optimizer step, rng state, embedded
skeleton, array index, payload hash), then all arrays as little-endian
float64 in index order.  Files are written as version 2.  A version-1 file
loads only if the five model-config fields version 2 dropped hold their old
defaults (``FORMAT1_MODEL_FIELDS``); one that set them otherwise must be retrained.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .attention import WindowEncoder, channels_to_poses, encode_span, poses_to_channels
from .data import SequenceDataset, TrainingWindow, extract_windows
from .errors import ConfigurationError, DataError, DimensionError, FormatError
from .kinematics import (
    PoseSequence,
    Skeleton,
    mpjpe_per_frame,
    skeleton_from_text,
    skeleton_to_text,
)
from .losses import LossConfig, LossWeights, build_loss_weights, loss_total
from .model import (
    ModelConfig,
    ModelParams,
    config_from_dict,
    count_parameters,
    init_model_params,
    model_forward,
    named_parameters,
    named_running_stats,
)
from .tensor import Mode, Tensor, backward, no_grad, zero_grads
from .transforms import dct_basis

CKPT_MAGIC = b"MCKPT001"


def _count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _array_index(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(entry, dict) and isinstance(entry.get("name"), str)
        and isinstance(entry.get("shape"), list) and all(map(_count, entry["shape"]))
        for entry in value)


# each required header field -> the type or the validator its JSON value must pass
CKPT_HEADER_FIELDS = {
    "version": lambda value: _count(value) and value in (1, 2),
    "payload_sha256": str, "arrays": _array_index, "model_config": dict, "loss_config": dict,
    "optimizer_config": dict, "skeleton": str, "adam_step": _count, "rng_state": dict,
    "epoch": _count, "replay_settings": dict, "config_hash": str,
}

# model_config fields version 2 dropped -> the one value a version-1 file may hold
FORMAT1_MODEL_FIELDS = {"use_summary": True, "supervise_stages": False,
                        "attention_bias": True, "bn_eps": 1e-5, "bn_momentum": 0.1}


@dataclass
class OptimizerConfig:
    lr: float = 0.005
    lr_decay: float = 0.97
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        for name in ("lr", "eps"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigurationError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1), got {getattr(self, name)}")


# the most values one whole-vector op of the Adam step covers, unless one
# leading-axis row of a parameter holds more: consecutive small parameters
# share a segment, and a larger parameter is updated a block of rows at a time
_SEGMENT = 1 << 16


def _segments(shapes: list[tuple]) -> list[tuple[int, int, list[tuple]]]:
    """Cut the flat layout of parameters of these shapes into ``(start, stop,
    members)`` segments of at most ``_SEGMENT`` values.  A member ``(index,
    rows, shape)`` is parameter ``index``'s values ``[rows]``, of that shape:
    a segment holds whole consecutive parameters (``rows`` is ``...``), or
    one block of leading-axis rows of a parameter larger than a segment."""
    segments, offset, grouping = [], 0, False
    for index, shape in enumerate(shapes):
        size = math.prod(shape)
        if size > _SEGMENT:
            row = size // shape[0]
            step = max(1, _SEGMENT // row)
            for r0 in range(0, shape[0], step):
                r1 = min(r0 + step, shape[0])
                segments.append((offset + r0 * row, offset + r1 * row,
                                 [(index, slice(r0, r1), (r1 - r0,) + shape[1:])]))
            grouping = False
        else:
            if not grouping or segments[-1][1] - segments[-1][0] + size > _SEGMENT:
                segments.append((offset, offset, []))
                grouping = True
            start, stop, members = segments[-1]
            members.append((index, ..., shape))
            segments[-1] = (start, stop + size, members)
        offset += size
    return segments


class AdamState:
    """The parameters and Adam's two moments, each in one flat float64 vector.

    Construction copies every parameter into its view of ``flat_p`` and makes
    that view the tensor's ``data``; ``m`` and ``v`` map each name to its
    views of ``flat_m`` and ``flat_v``.  So ``adam_step`` updates every
    parameter with a few whole-vector ops per segment.  Values written in
    place (``tensor.data[...] = ...``) keep a tensor bound.
    """

    def __init__(self, params: dict[str, Tensor]):
        shapes = [t.data.shape for t in params.values()]
        total = sum(math.prod(shape) for shape in shapes)
        self.flat_p = np.empty(total)
        self.flat_m = np.zeros(total)
        self.flat_v = np.zeros(total)
        self._views, self.m, self.v = {}, {}, {}
        offset = 0
        for (name, tensor), shape in zip(params.items(), shapes):
            span = slice(offset, offset + math.prod(shape))
            view = self._views[name] = self.flat_p[span].reshape(shape)
            view[...] = tensor.data
            tensor.data = view
            self.m[name] = self.flat_m[span].reshape(shape)
            self.v[name] = self.flat_v[span].reshape(shape)
            offset = span.stop
        segments = _segments(shapes)
        self._segments = [(members, self.flat_p[start:stop], self.flat_m[start:stop],
                           self.flat_v[start:stop]) for start, stop, members in segments]
        self._scratch = max((stop - start for start, stop, _ in segments), default=0)
        self.step = 0


def lr_schedule(epoch: int, initial_lr: float, decay: float) -> float:
    if epoch < 0:
        raise ConfigurationError("epoch must be nonnegative")
    return initial_lr * decay ** epoch


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float,
              beta1: float = OptimizerConfig.beta1, beta2: float = OptimizerConfig.beta2,
              eps: float = OptimizerConfig.eps):
    """One in-place update of every parameter ``state`` holds; a missing
    gradient counts as zero.

    A parameter whose ``data`` was rebound since is first copied back into
    its view of the flat vector.  Each segment's gradients are gathered into
    one buffer, unless the segment is one C-contiguous gradient (block),
    which is read in place.  The update runs in place with the per-tensor
    recurrence's arithmetic, in its order:
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + ((1 - b2) g) g`` and
    ``p -= lr (m / c1) / (sqrt(v / c2) + eps)``.
    """
    grads = []
    for name, view in state._views.items():
        p = params[name]
        if p.data is not view:
            if np.shape(p.data) != view.shape:
                raise DimensionError(f"parameter {name} of shape {np.shape(p.data)} does "
                                     f"not match its optimizer state of shape {view.shape}")
            view[...] = p.data
            p.data = view
        grad = p.grad
        if grad is not None and grad.shape != view.shape:
            raise DimensionError(
                f"gradient shape {grad.shape} does not match parameter "
                f"{name} of shape {view.shape}")
        grads.append(grad)
    state.step += 1
    t = state.step
    correct1 = 1.0 - beta1 ** t
    correct2 = 1.0 - beta2 ** t
    buffers = np.empty((3, state._scratch))
    for members, p, m, v in state._segments:
        n = p.size
        delta, root = buffers[1, :n], buffers[2, :n]
        pieces = [np.broadcast_to(0.0, shape) if grads[i] is None else grads[i][rows]
                  for i, rows, shape in members]
        if len(pieces) == 1 and pieces[0].flags.c_contiguous:
            g = pieces[0].reshape(-1)       # read in place
        else:                               # gathered, in C order
            g = np.concatenate(pieces, axis=None, out=buffers[0, :n])
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=delta)
        m += delta
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=delta)
        delta *= g
        v += delta
        np.divide(m, correct1, out=delta)
        delta *= lr
        np.divide(v, correct2, out=root)
        np.sqrt(root, out=root)
        root += eps
        delta /= root
        p -= delta


@dataclass
class TrainSettings:
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    val_fraction: float = 0.2
    window_stride: int = 1

    def __post_init__(self):
        for name, low in (("epochs", 0), ("batch_size", 1), ("seed", 0), ("window_stride", 1)):
            if getattr(self, name) < low:
                raise ConfigurationError(
                    f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigurationError(
                f"val_fraction must be in [0, 1), got {self.val_fraction}")

    def replay_fields(self) -> dict:
        """The settings that must match for a resumed run to replay exactly."""
        return {"batch_size": self.batch_size, "seed": self.seed,
                "val_fraction": self.val_fraction, "window_stride": self.window_stride}


@dataclass
class TrainResult:
    params: ModelParams
    adam: AdamState
    rng: np.random.Generator
    metrics: list[dict]
    epochs_run: int
    settings: TrainSettings


def _window_batches(windows: list[TrainingWindow], order, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield [windows[i] for i in order[start:start + batch_size]]


def _window_mean(batch_means: list[float], counts: list[int]) -> float:
    """The mean over windows of batch means; the largest batch weighs exactly 1,
    so batches of equal size give ``np.mean``'s bits."""
    return float(np.average(batch_means, weights=np.divide(counts, max(counts))))


def _forward_batch(params, config, basis, batch, mode, key_codes=None):
    histories = np.stack([w.history for w in batch])
    targets = np.stack([w.target for w in batch])
    truth = np.concatenate([histories[:, -config.query_len:], targets], axis=1)
    out = model_forward(params, Tensor(poses_to_channels(histories)), config, basis, mode,
                        key_codes=key_codes)
    return out, truth


def _shared_key_codes(key_net: WindowEncoder, batch: list[TrainingWindow],
                      config: ModelConfig) -> np.ndarray:
    """The batch's (B, latent, count) key codes from one key-net pass.

    A window's key span is its first ``count + query_len - 1`` history frames.
    Consecutive windows of one sequence whose starts step by 1 to ``count``
    frames form a run whose spans overlap or abut, so each run's frames go
    once onto one timeline, runs end to end.  Window k's codes are columns
    ``[offset_k, offset_k + count)`` of the timeline's codes.  Where two runs
    meet, the timeline also encodes the ``query_len - 1`` key windows that
    straddle the junction, whose codes no window takes.
    """
    count = batch[0].history.shape[0] - config.window + 1
    span = count + config.query_len - 1
    pieces, offsets, frames, previous = [], [], 0, None
    for w in batch:
        sequence, start = w.source
        step = start - previous[1] if previous and previous[0] == sequence else 0
        if 1 <= step <= count:          # the run goes on: its span grows by step frames
            pieces.append(w.history[span - step:span])
            offsets.append(offsets[-1] + step)
        else:                           # a new run starts
            step = span
            pieces.append(w.history[:span])
            offsets.append(frames)
        frames += step
        previous = w.source
    codes = encode_span(key_net, poses_to_channels(np.concatenate(pieces)[None])).data[0]
    return np.stack([codes[:, offset:offset + count] for offset in offsets])


def window_errors(windows: list[TrainingWindow], params: ModelParams, config: ModelConfig,
                  batch_size: int = 64, loss_config: LossConfig | None = None,
                  loss_weights: LossWeights | None = None
                  ) -> tuple[np.ndarray, float | None]:
    """Eval-mode future MPJPE of every window after every stage, in one no_grad pass.

    Returns ``(errors, mean_loss)``.  ``errors[n, w, f]`` is window w's error
    at future frame f + 1 after stage n, where stage 0 is the repeat-last-pose
    baseline and stage ``config.stages`` the final prediction; each stage's
    (windows, future_len) slab is contiguous.  With a loss config,
    ``mean_loss`` is the final prediction's objective averaged over windows,
    otherwise None.

    The key net runs once per batch (``_shared_key_codes``): windows of one
    sequence at stride 1 share all but one frame of their key spans, so the
    batch's distinct frames are encoded once and each window takes its
    columns of the codes; a junction between runs costs ``query_len - 1`` key
    windows that no window takes.  The codes equal the per-window pass's to
    the last bit at the reference config; where a small model's GEMMs pick
    another BLAS kernel for the longer call, they differ by a few ULPs.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    basis = dct_basis(config.window)
    future = config.future_len
    errors = np.empty((config.stages + 1, len(windows), future))
    losses, counts = [], []

    def score(start: int, batch: list[TrainingWindow]):
        """Fill the batch's rows of ``errors``; its arrays die with the call,
        before the next batch's forward."""
        rows = slice(start, start + len(batch))
        key_codes = (_shared_key_codes(params.attention.key_net, batch, config)
                     if config.attention_mode == "attention" else None)
        out, truth = _forward_batch(params, config, basis, batch, Mode.eval(), key_codes)
        targets = truth[:, -future:]
        last_pose = truth[:, config.query_len - 1:config.query_len]
        errors[0, rows] = mpjpe_per_frame(np.repeat(last_pose, future, axis=1), targets)
        for n, stage in enumerate(out.stage_outputs, start=1):
            errors[n, rows] = mpjpe_per_frame(channels_to_poses(stage.data[..., -future:]),
                                              targets)
        if loss_config is not None:
            losses.append(float(loss_total(channels_to_poses(out.prediction), Tensor(truth),
                                           loss_weights, loss_config, future).data))
            counts.append(len(batch))

    with no_grad():
        for start in range(0, len(windows), batch_size):
            score(start, windows[start:start + batch_size])
    return errors, (_window_mean(losses, counts) if loss_config is not None else None)


def dataset_mpjpe(windows: list[TrainingWindow], params: ModelParams,
                  config: ModelConfig, batch_size: int = 64) -> float:
    """Eval-mode MPJPE of the final prediction over all future frames and windows."""
    return float(window_errors(windows, params, config, batch_size)[0][-1].mean())


def split_windows(dataset: SequenceDataset, model_config: ModelConfig,
                  settings: TrainSettings) -> tuple[list[TrainingWindow], list[TrainingWindow]]:
    """The training and validation windows: the last ``val_fraction`` of the
    sequences validate.  Raises ConfigurationError when no training window fits."""
    n_val = int(len(dataset.sequences) * settings.val_fraction)
    n_train = len(dataset.sequences) - n_val
    train_set = SequenceDataset(dataset.skeleton, dataset.sequences[:n_train])
    val_set = SequenceDataset(dataset.skeleton, dataset.sequences[n_train:])
    train_windows = extract_windows(train_set, model_config.history_len,
                                    model_config.future_len, settings.window_stride)
    if not train_windows:
        raise ConfigurationError("dataset yields no training windows")
    val_windows = extract_windows(val_set, model_config.history_len,
                                  model_config.future_len, settings.window_stride)
    return train_windows, val_windows


def train(dataset: SequenceDataset, model_config: ModelConfig, loss_config: LossConfig,
          optimizer_config: OptimizerConfig | None = None,
          settings: TrainSettings | None = None, resume=None, on_epoch=None) -> TrainResult:
    """Shuffled mini-batch training with the per-epoch decayed Adam schedule.

    ``on_epoch``, when given, is called with each epoch's metrics record, and
    a true return ends training after that epoch.  Writes no files:
    ``save_checkpoint`` stores the returned state.
    """
    opt = optimizer_config or OptimizerConfig()
    settings = settings or TrainSettings()
    skeleton = dataset.skeleton
    if model_config.joints != skeleton.joint_count:
        raise ConfigurationError(
            f"model expects {model_config.joints} joints, "
            f"dataset skeleton has {skeleton.joint_count}")

    train_windows, val_windows = split_windows(dataset, model_config, settings)
    basis = dct_basis(model_config.window)
    weights = build_loss_weights(skeleton, model_config.query_len,
                                 model_config.future_len, loss_config)

    if resume is not None:
        _check_resume_compat(resume, model_config, loss_config, opt, settings)
        params, adam, rng = resume.params, resume.adam, resume.rng
        start_epoch = resume.epoch
    else:
        rng = np.random.default_rng(settings.seed)
        params = init_model_params(model_config, rng)
        adam = AdamState(named_parameters(params))
        start_epoch = 0

    named = named_parameters(params)
    metrics: list[dict] = []
    epochs_run = start_epoch
    # a diverging run ends in the non-finite loss check below, not in a
    # stream of numpy overflow warnings before it
    with np.errstate(all="ignore"):
        for epoch in range(start_epoch, settings.epochs):
            lr = lr_schedule(epoch, opt.lr, opt.lr_decay)
            order = rng.permutation(len(train_windows))
            batch_losses, counts = [], []
            for batch_index, batch in enumerate(_window_batches(train_windows, order,
                                                                settings.batch_size)):
                out, truth = _forward_batch(params, model_config, basis, batch,
                                            Mode.train(rng))
                loss = loss_total(channels_to_poses(out.prediction), Tensor(truth), weights,
                                  loss_config, model_config.future_len)
                if not np.isfinite(loss.data):
                    sources = [w.source for w in batch]
                    raise DataError(
                        f"non-finite loss at epoch {epoch}, batch {batch_index} "
                        f"(windows {sources})")
                backward(loss)
                adam_step(named, adam, lr, opt.beta1, opt.beta2, opt.eps)
                zero_grads(named.values())
                batch_losses.append(float(loss.data))
                counts.append(len(batch))

            record = {"epoch": epoch, "lr": lr,
                      "train_loss": _window_mean(batch_losses, counts),
                      "train_mpjpe": dataset_mpjpe(train_windows, params, model_config)}
            if val_windows:
                record["val_mpjpe"] = dataset_mpjpe(val_windows, params, model_config)
            metrics.append(record)
            epochs_run = epoch + 1
            if on_epoch is not None and on_epoch(record):
                break
    return TrainResult(params, adam, rng, metrics, epochs_run, settings)


def prediction_bytes(config: ModelConfig, history_frames: int, horizon: int) -> int:
    """The memory ``predict_autoregressive`` needs, in bytes, beyond one pass's.

    Each pass appends ``future_len`` frames to the channel history and, in
    attention mode, their key codes to the cache, and copies each into a new
    array while the old one lives: 16 bytes per channel (and latent row) and
    frame, up to the end of the last pass, plus the float64 output poses.
    One forward pass's working memory, which does not grow with the horizon,
    is not counted: at the reference config a horizon-10 call from a 50-frame
    history peaks at 0.54 MiB against a figure of 0.30 MiB (tracemalloc).
    """
    frames = history_frames + math.ceil(horizon / config.future_len) * config.future_len
    rows = config.pose_dim + (config.latent_dim if config.attention_mode == "attention" else 0)
    return 16 * rows * frames + 24 * horizon * config.joints


def predict_autoregressive(history: PoseSequence, params: ModelParams,
                           config: ModelConfig, horizon: int) -> PoseSequence:
    """Repeatedly refine and append the predicted future until ``horizon`` frames.

    Eval mode throughout: batch-norm running statistics stay frozen, so
    repeated calls are bit-identical.  The history runs as a batch of one,
    (1, pose_dim, frames).  In attention mode the call keeps the (1,
    latent_dim, count) key codes of the history so far: each pass encodes
    only the future_len key windows the last pass's frames added and appends
    them.
    """
    if horizon < 0:
        raise ConfigurationError("horizon must be nonnegative")
    if horizon == 0:
        return PoseSequence(np.zeros((0, history.joints, 3)), history.frame_rate)
    if history.frames < config.window:
        raise DimensionError(
            f"history of {history.frames} frames is shorter than one "
            f"query+future window {config.window}")
    basis = dct_basis(config.window)
    channels = np.ascontiguousarray(poses_to_channels(history.coords[None]))
    codes = None
    with no_grad():
        for _ in range(math.ceil(horizon / config.future_len)):
            if config.attention_mode == "attention":
                # the key span ends future_len frames before the history does
                known = 0 if codes is None else codes.shape[-1]
                end = channels.shape[-1] - config.future_len
                fresh = encode_span(params.attention.key_net, channels[..., known:end]).data
                codes = fresh if codes is None else np.concatenate([codes, fresh], axis=-1)
            out = model_forward(params, Tensor(channels), config, basis, Mode.eval(),
                                key_codes=codes)
            future = out.prediction.data[..., -config.future_len:]
            channels = np.concatenate([channels, future], axis=-1)
    return PoseSequence(channels_to_poses(channels[0, :, history.frames:history.frames + horizon]),
                        history.frame_rate)


def frames_from_milliseconds(frames_ms, frame_rate: float, future_len: int) -> list[int]:
    """Map millisecond marks to 1-based future frame indices, exactly."""
    indices = []
    for ms in frames_ms:
        exact = ms * frame_rate / 1000.0
        if not math.isfinite(exact):
            raise ConfigurationError(f"{ms} ms is not a finite time at {frame_rate} fps")
        index = round(exact)
        if abs(exact - index) > 1e-9:
            raise ConfigurationError(
                f"{ms} ms is not an integral frame at {frame_rate} fps")
        if not 1 <= index <= future_len:
            raise ConfigurationError(
                f"{ms} ms maps to future frame {index}, outside [1, {future_len}]")
        indices.append(int(index))
    return indices


def evaluate(dataset: SequenceDataset, params: ModelParams, config: ModelConfig,
             frames_ms, stride: int = 1, per_stage: bool = False,
             loss_config: LossConfig | None = None, batch_size: int = 64) -> dict:
    """Per-frame MPJPE table over all evaluation windows, optionally per action.

    With ``per_stage`` the table gains one row per refinement stage plus the
    repeat-last-pose baseline as stage 0.  With a loss config the record also
    carries the mean training objective over the windows.
    """
    rates = {seq.frame_rate for seq in dataset.sequences}
    if len(rates) != 1:
        raise ConfigurationError(f"sequences disagree on frame rate: {sorted(rates)}")
    frame_rate = rates.pop()
    indices = frames_from_milliseconds(frames_ms, frame_rate, config.future_len)
    windows = extract_windows(dataset, config.history_len, config.future_len, stride)
    if not windows:
        raise ConfigurationError("dataset yields no evaluation windows")
    weights = (build_loss_weights(dataset.skeleton, config.query_len,
                                  config.future_len, loss_config)
               if loss_config is not None else None)
    errors, mean_loss = window_errors(windows, params, config, batch_size,
                                      loss_config, weights)
    final = errors[-1]              # (windows, future frame)
    record = {
        "frames_ms": list(frames_ms),
        "frame_indices": indices,
        "window_count": len(windows),
        "mpjpe": [float(final[:, i - 1].mean()) for i in indices],
    }
    if dataset.labels is not None:
        per_action = {}
        window_labels = [dataset.labels[w.source[0]] for w in windows]
        for label in sorted(set(window_labels)):
            mask = np.array([wl == label for wl in window_labels])
            per_action[label] = {
                "count": int(mask.sum()),
                "mpjpe": [float(final[mask, i - 1].mean()) for i in indices],
            }
        record["per_action"] = per_action
    if per_stage:
        record["stage_mpjpe"] = [
            [float(stage[:, i - 1].mean()) for i in indices] for stage in errors]
        record["stage_overall"] = [float(stage.mean()) for stage in errors]
    if loss_config is not None:
        record["mean_loss"] = mean_loss
    return record


# -- checkpoint container ---------------------------------------------------

@dataclass
class Checkpoint:
    params: ModelParams
    adam: AdamState
    rng: np.random.Generator
    epoch: int
    model_config: ModelConfig
    loss_config: LossConfig
    optimizer_config: OptimizerConfig
    replay_settings: dict
    skeleton: Skeleton
    config_hash: str


def _config_hash(model_config, loss_config, optimizer_config) -> str:
    canon = json.dumps({"model": asdict(model_config),
                        "loss": asdict(loss_config),
                        "optimizer": asdict(optimizer_config)}, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _state_arrays(params: ModelParams, adam: AdamState) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    named = named_parameters(params)
    for name, tensor in named.items():
        arrays[f"param.{name}"] = tensor.data
    for name, stats in named_running_stats(params).items():
        if stats.initialized:
            arrays[f"stats.{name}.mean"] = stats.mean
            arrays[f"stats.{name}.var"] = stats.var
    for name in named:
        arrays[f"adam.m.{name}"] = adam.m[name]
        arrays[f"adam.v.{name}"] = adam.v[name]
    return arrays


def save_checkpoint(path, params: ModelParams, adam: AdamState,
                    rng: np.random.Generator, epoch: int, model_config: ModelConfig,
                    loss_config: LossConfig, optimizer_config: OptimizerConfig,
                    replay_settings: dict, skeleton: Skeleton):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = _state_arrays(params, adam)
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                       for a in arrays.values())
    header = {
        "version": 2,
        "epoch": epoch,
        "adam_step": adam.step,
        "rng_state": rng.bit_generator.state,
        "model_config": asdict(model_config),
        "loss_config": asdict(loss_config),
        "optimizer_config": asdict(optimizer_config),
        "replay_settings": replay_settings,
        "skeleton": skeleton_to_text(skeleton),
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()],
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "config_hash": _config_hash(model_config, loss_config, optimizer_config),
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload)


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if len(raw) < len(CKPT_MAGIC) + 4 or raw[:len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise FormatError(f"{path}: not an MCKPT1 checkpoint")
    (header_len,) = struct.unpack("<I", raw[8:12])
    if len(raw) < 12 + header_len:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12:12 + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as bad:  # not UTF-8, not JSON, nested too deep
        raise FormatError(f"{path}: header is not UTF-8 JSON: {bad}") from None
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    missing = [field for field in CKPT_HEADER_FIELDS if field not in header]
    if missing:
        raise FormatError(f"{path}: header lacks field(s) {', '.join(missing)}")
    mistyped = [field for field, rule in CKPT_HEADER_FIELDS.items()
                if not (isinstance(header[field], rule) if isinstance(rule, type)
                        else rule(header[field]))]
    if mistyped:
        raise FormatError(
            f"{path}: header field(s) {', '.join(mistyped)} have a wrong type or value")
    payload = memoryview(raw)[12 + header_len:]
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise FormatError(f"{path}: payload hash mismatch, file is corrupt")

    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        chunk = payload[offset:offset + 8 * count]
        if len(chunk) != 8 * count:
            raise FormatError(f"{path}: truncated payload at {entry['name']}")
        try:
            arrays[entry["name"]] = np.frombuffer(chunk, dtype="<f8").reshape(shape)
        except ValueError as bad:  # an empty array whose other dimensions overflow
            raise FormatError(f"{path}: array {entry['name']}: {bad}") from None
        offset += 8 * count
    if offset != len(payload):
        raise FormatError(f"{path}: {len(payload) - offset} trailing payload bytes")

    if header["version"] == 1:
        for key, old in FORMAT1_MODEL_FIELDS.items():
            value = header["model_config"].pop(key, None)
            if type(value) is not type(old) or value != old:
                raise FormatError(f"{path}: model_config: version-1 field {key} is "
                                  f"{value!r}, not {old!r}; the model must be retrained")
    model_config, loss_config, optimizer_config = (
        config_from_dict(cls, header[field], f"{path}: {field}")
        for cls, field in ((ModelConfig, "model_config"), (LossConfig, "loss_config"),
                           (OptimizerConfig, "optimizer_config")))
    skeleton = skeleton_from_text(header["skeleton"], source=str(path))
    # the file's own parameter arrays must back every parameter the config builds,
    # so a load allocates no more than the file holds
    needed = count_parameters(model_config)
    stored = sum(a.size for name, a in arrays.items() if name.startswith("param."))
    if stored != needed:
        raise FormatError(f"{path}: model_config has {needed} parameters, "
                          f"the payload stores {stored}")

    # rebuild the parameter structure from the config, then load values by name
    params = init_model_params(model_config, np.random.default_rng(0))
    named = named_parameters(params)
    adam = AdamState(named)

    def array(key: str, shape: tuple) -> np.ndarray:
        if key not in arrays:
            raise FormatError(f"{path}: missing array {key}")
        if arrays[key].shape != shape:
            raise FormatError(f"{path}: array {key} has shape {arrays[key].shape}, "
                              f"expected {shape}")
        return arrays[key]

    def finite(key: str, shape: tuple) -> np.ndarray:
        # eval batch norm divides by sqrt(var + eps): a non-finite value or a
        # negative variance would turn every output into NaN or inf
        values = array(key, shape)
        if not np.isfinite(values).all():
            raise FormatError(f"{path}: array {key} holds a non-finite value")
        if key.endswith(".var") and (values < 0).any():
            raise FormatError(f"{path}: array {key} holds a negative variance")
        return values

    for name, tensor in named.items():
        shape = tensor.data.shape
        tensor.data[...] = finite(f"param.{name}", shape)
        adam.m[name][...] = array(f"adam.m.{name}", shape)
        adam.v[name][...] = array(f"adam.v.{name}", shape)
    # the arrays are read-only views of the file's bytes: parameters and moments
    # were copied into the flat vectors above, and only the running statistics
    # are copied here, so nothing keeps the bytes alive
    for name, stats in named_running_stats(params).items():
        mean_key = f"stats.{name}.mean"
        if mean_key in arrays:
            channels = named[f"{name}.gamma"].shape
            stats.mean = finite(mean_key, channels).copy()
            stats.var = finite(f"stats.{name}.var", channels).copy()
    adam.step = header["adam_step"]
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = header["rng_state"]
    except (KeyError, TypeError, ValueError, OverflowError) as bad:
        raise FormatError(f"{path}: rng_state is not a generator state: {bad}") from None
    # a version-1 hash also covers the dropped fields
    config_hash = (header["config_hash"] if header["version"] == 2 else
                   _config_hash(model_config, loss_config, optimizer_config))
    return Checkpoint(params, adam, rng, header["epoch"], model_config, loss_config,
                      optimizer_config, header["replay_settings"], skeleton, config_hash)


def _check_resume_compat(resume: Checkpoint, model_config, loss_config,
                         optimizer_config, settings: TrainSettings):
    if _config_hash(model_config, loss_config, optimizer_config) != resume.config_hash:
        raise ConfigurationError(
            "resume checkpoint was trained under a different configuration")
    if settings.replay_fields() != resume.replay_settings:
        raise ConfigurationError(
            f"resume settings {settings.replay_fields()} differ from "
            f"checkpoint settings {resume.replay_settings}")
