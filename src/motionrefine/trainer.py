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
float64 in index order.  Files are written as version 3.  An older file
loads only if each field a later format dropped holds the value the code now
fixes (``DROPPED_FIELDS``); one that set such a field otherwise must be retrained.
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
from .data import WINDOW_STRIDE, SequenceDataset, window_index
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
from .tensor import BN_EPS, BN_MOMENTUM, Mode, Tensor, backward, no_grad, zero_grads
from .transforms import dct_basis

CKPT_MAGIC = b"MCKPT001"
CKPT_VERSION = 3
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's, at Kingma & Ba's values (arXiv:1412.6980)
EVAL_BATCH_SIZE = 64  # windows per no_grad forward when evaluating


def _count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _array_index(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(entry, dict) and isinstance(entry.get("name"), str)
        and isinstance(entry.get("shape"), list) and all(map(_count, entry["shape"]))
        for entry in value)


# each required header field -> the type or the validator its JSON value must pass
CKPT_HEADER_FIELDS = {
    "version": lambda value: _count(value) and 1 <= value <= CKPT_VERSION,
    "payload_sha256": str, "arrays": _array_index, "model_config": dict, "loss_config": dict,
    "optimizer_config": dict, "skeleton": str, "adam_step": _count, "rng_state": dict,
    "epoch": _count, "replay_settings": dict, "config_hash": str,
}

# format that dropped them -> header object -> field -> the one value an older file may hold
DROPPED_FIELDS = {
    2: {"model_config": {"use_summary": True, "supervise_stages": False,
                         "attention_bias": True, "bn_eps": BN_EPS, "bn_momentum": BN_MOMENTUM}},
    3: {"optimizer_config": {"beta1": BETA1, "beta2": BETA2, "eps": EPS},
        "replay_settings": {"window_stride": 1}},
}


@dataclass
class OptimizerConfig:
    lr: float = 0.005
    lr_decay: float = 0.97

    def __post_init__(self):
        if not 0.0 < self.lr < math.inf:
            raise ConfigurationError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigurationError(f"lr_decay must be in (0, 1], got {self.lr_decay}")


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


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float):
    """One in-place Adam update, at ``BETA1``, ``BETA2`` and ``EPS``, of every
    parameter ``state`` holds; a missing gradient counts as zero.

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
    correct1 = 1.0 - BETA1 ** t
    correct2 = 1.0 - BETA2 ** t
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
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=delta)
        m += delta
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=delta)
        delta *= g
        v += delta
        np.divide(m, correct1, out=delta)
        delta *= lr
        np.divide(v, correct2, out=root)
        np.sqrt(root, out=root)
        root += EPS
        delta /= root
        p -= delta


@dataclass
class TrainSettings:
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    val_fraction: float = 0.2

    def __post_init__(self):
        for name, low in (("epochs", 0), ("batch_size", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigurationError(
                    f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigurationError(
                f"val_fraction must be in [0, 1), got {self.val_fraction}")

    def replay_fields(self) -> dict:
        """The settings that must match for a resumed run to replay exactly."""
        return {"batch_size": self.batch_size, "seed": self.seed,
                "val_fraction": self.val_fraction}


@dataclass
class TrainResult:
    params: ModelParams
    adam: AdamState
    rng: np.random.Generator
    metrics: list[dict]
    epochs_run: int
    settings: TrainSettings


def _window_mean(batch_means: list[float], counts: list[int]) -> float:
    """The mean over windows of batch means; the largest batch weighs exactly 1,
    so batches of equal size give ``np.mean``'s bits."""
    return float(np.average(batch_means, weights=np.divide(counts, max(counts))))


def _forward_batch(params, config, basis, dataset, windows, mode, key_codes=None):
    sequence, start = windows
    spans = [(dataset.sequences[s].coords, t) for s, t in zip(sequence.tolist(), start.tolist())]
    histories = np.stack([coords[t:t + config.history_len] for coords, t in spans])
    first = config.history_len - config.query_len     # the truth's first frame
    truth = np.stack([coords[t + first:t + first + config.window] for coords, t in spans])
    out = model_forward(params, Tensor(poses_to_channels(histories)), config, basis, mode,
                        key_codes=key_codes)
    return out, truth


def _shared_key_codes(key_net: WindowEncoder, dataset: SequenceDataset, windows,
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
    sequence, start = windows
    count = config.history_len - config.window + 1
    span = count + config.query_len - 1
    step = np.diff(start)
    opens = np.concatenate(([True], (np.diff(sequence) != 0) | (step < 1) | (step > count)))
    first = np.flatnonzero(opens)                   # each run's first and last window
    last = np.append(first[1:], len(start)) - 1
    frames = start[last] + span - start[first]      # each run's length on the timeline
    offsets = (np.cumsum(frames) - frames - start[first])[np.cumsum(opens) - 1] + start
    timeline = np.concatenate([dataset.sequences[s].coords[a:b + span] for s, a, b in zip(
        sequence[first].tolist(), start[first].tolist(), start[last].tolist())])
    codes = encode_span(key_net, poses_to_channels(timeline[None])).data[0]
    return np.stack([codes[:, offset:offset + count] for offset in offsets.tolist()])


def window_errors(dataset: SequenceDataset, windows, params: ModelParams, config: ModelConfig,
                  batch_size: int = EVAL_BATCH_SIZE, loss_config: LossConfig | None = None,
                  loss_weights: LossWeights | None = None
                  ) -> tuple[np.ndarray, float | None]:
    """Eval-mode future MPJPE of every window after every stage, in one no_grad pass.

    ``windows`` is ``data.window_index``'s ``(sequence, start)`` pair over
    ``dataset``; an empty one is a ConfigurationError.  Returns ``(errors,
    mean_loss)``.  ``errors[n, w, f]`` is window w's error at future frame f +
    1 after stage n, where stage 0 is the repeat-last-pose baseline and stage
    ``config.stages`` the final prediction; each stage's (windows, future_len)
    slab is contiguous.  With a loss config, ``mean_loss`` is the final
    prediction's objective averaged over windows, otherwise None.

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
    total = len(windows[0])
    if not total:
        raise ConfigurationError("no windows to score")
    basis = dct_basis(config.window)
    future = config.future_len
    errors = np.empty((config.stages + 1, total, future))
    losses, counts = [], []

    def score(rows: slice):
        """Fill the batch's rows of ``errors``; its arrays die with the call,
        before the next batch's forward."""
        batch = tuple(index[rows] for index in windows)
        key_codes = (_shared_key_codes(params.attention.key_net, dataset, batch, config)
                     if config.attention_mode == "attention" else None)
        out, truth = _forward_batch(params, config, basis, dataset, batch, Mode.eval(),
                                    key_codes)
        targets = truth[:, -future:]
        last_pose = truth[:, config.query_len - 1:config.query_len]
        errors[0, rows] = mpjpe_per_frame(np.repeat(last_pose, future, axis=1), targets)
        for n, stage in enumerate(out.stage_outputs, start=1):
            errors[n, rows] = mpjpe_per_frame(channels_to_poses(stage.data[..., -future:]),
                                              targets)
        if loss_config is not None:
            losses.append(float(loss_total(channels_to_poses(out.prediction), Tensor(truth),
                                           loss_weights, loss_config, future).data))
            counts.append(len(truth))

    with no_grad():
        for first in range(0, total, batch_size):
            score(slice(first, first + batch_size))
    return errors, (_window_mean(losses, counts) if loss_config is not None else None)


def dataset_mpjpe(dataset: SequenceDataset, windows, params: ModelParams,
                  config: ModelConfig, batch_size: int = EVAL_BATCH_SIZE) -> float:
    """Eval-mode MPJPE of the final prediction over all future frames and windows."""
    return float(window_errors(dataset, windows, params, config, batch_size)[0][-1].mean())


def split_windows(dataset: SequenceDataset, model_config: ModelConfig,
                  settings: TrainSettings) -> tuple[tuple, tuple]:
    """The training and validation ``window_index`` pairs: the last ``val_fraction``
    of the sequences validate.  Raises ConfigurationError when no window trains."""
    n_val = int(len(dataset.sequences) * settings.val_fraction)
    sequence, start = window_index(dataset, model_config.history_len, model_config.future_len)
    trains = sequence < len(dataset.sequences) - n_val
    if not trains.any():
        raise ConfigurationError("dataset yields no training windows")
    return (sequence[trains], start[trains]), (sequence[~trains], start[~trains])


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
            order = rng.permutation(len(train_windows[0]))
            batch_losses, counts = [], []
            for batch_index, first in enumerate(range(0, len(order), settings.batch_size)):
                rows = order[first:first + settings.batch_size]
                batch = tuple(index[rows] for index in train_windows)
                out, truth = _forward_batch(params, model_config, basis, dataset, batch,
                                            Mode.train(rng))
                loss = loss_total(channels_to_poses(out.prediction), Tensor(truth), weights,
                                  loss_config, model_config.future_len)
                if not np.isfinite(loss.data):
                    raise DataError(
                        f"non-finite loss at epoch {epoch}, batch {batch_index} (windows "
                        f"{list(zip(batch[0].tolist(), batch[1].tolist()))})")
                backward(loss)
                adam_step(named, adam, lr)
                zero_grads(named.values())
                batch_losses.append(float(loss.data))
                counts.append(len(rows))

            record = {"epoch": epoch, "lr": lr,
                      "train_loss": _window_mean(batch_losses, counts),
                      "train_mpjpe": dataset_mpjpe(dataset, train_windows, params, model_config)}
            if len(val_windows[0]):
                record["val_mpjpe"] = dataset_mpjpe(dataset, val_windows, params, model_config)
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
             frames_ms, stride: int = WINDOW_STRIDE, per_stage: bool = False,
             loss_config: LossConfig | None = None, batch_size: int = EVAL_BATCH_SIZE) -> dict:
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
    windows = window_index(dataset, config.history_len, config.future_len, stride)
    weights = (build_loss_weights(dataset.skeleton, config.query_len,
                                  config.future_len, loss_config)
               if loss_config is not None else None)
    errors, mean_loss = window_errors(dataset, windows, params, config, batch_size,
                                      loss_config, weights)
    final = errors[-1]              # (windows, future frame)
    record = {
        "frames_ms": list(frames_ms),
        "frame_indices": indices,
        "window_count": len(windows[0]),
        "mpjpe": [float(final[:, i - 1].mean()) for i in indices],
    }
    if dataset.labels is not None:
        per_action = {}
        window_labels = np.asarray(dataset.labels, dtype=object)[windows[0]]
        for label in sorted(set(window_labels.tolist())):
            mask = window_labels == label
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
        "version": CKPT_VERSION,
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

    version = header["version"]
    for dropped_by, objects in DROPPED_FIELDS.items():
        if version >= dropped_by:
            continue
        for field, olds in objects.items():
            for key, old in olds.items():
                value = header[field].pop(key, None)
                if type(value) is not type(old) or value != old:
                    raise FormatError(f"{path}: {field}: version-{version} field {key} is "
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
    # an older file's hash also covers the fields a later format dropped
    config_hash = (header["config_hash"] if version == CKPT_VERSION else
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
