"""Training objectives: kinematics-weighted position loss plus velocity loss.

The position loss scales each per-joint Euclidean error by a fixed
weight table.  Weights factor into a spatial part (outer joints on long
chains weigh more, via the log of the cumulative bone length) and a
temporal part (early predicted frames weigh more), combined
multiplicatively and normalized so the table sums to
joints * window_frames.

The temporal ramp has two forms.  ``zero_final`` follows the raw ramp,
which gives the very last predicted frame weight 0; ``unit_final`` (the
default) shifts the future branch up by one so the final frame keeps
weight 1, matching the reconstruction branch.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .kinematics import Skeleton
from .tensor import Tensor, as_tensor, mul, sqrt, sub, tensor_sum

TEMPORAL_FORMS = ("unit_final", "zero_final")


@dataclass
class LossConfig:
    use_st: bool = True
    use_st_weights: bool = True
    use_velocity: bool = True
    reconstruct_query: bool = True
    spatial_floor: float = 0.1
    temporal_form: str = "unit_final"

    def __post_init__(self):
        if self.temporal_form not in TEMPORAL_FORMS:
            raise ConfigurationError(
                f"temporal_form must be one of {TEMPORAL_FORMS}, got {self.temporal_form!r}")
        if not 0.0 < self.spatial_floor < np.inf:  # also rejects nan
            raise ConfigurationError(
                f"spatial_floor must be finite and positive, got {self.spatial_floor}")
        if not (self.use_st or self.use_velocity):
            raise ConfigurationError("all loss components disabled")


def spatial_factors(skeleton: Skeleton, floor: float = LossConfig.spatial_floor) -> np.ndarray:
    """Per-joint factor (pos/bones) * ln(cumulative bone length), floored.

    The chain root sits at position 0 and takes the floor value; joints on
    several chains follow the first chain that lists them.
    """
    if floor <= 0:
        raise ConfigurationError("spatial floor must be positive")
    factors: dict[int, float] = {}
    for chain in skeleton.chains:
        factors.setdefault(chain.joint_indices[0], floor)
        reach = 0.0
        for position, (joint, bone) in enumerate(
                zip(chain.joint_indices[1:], chain.bone_lengths), start=1):
            reach += bone
            if joint in factors:
                continue
            raw = (position / chain.bone_count) * np.log(reach)
            if raw <= 0:
                warnings.warn(
                    f"joint {joint}: cumulative bone length {reach} gives non-positive "
                    f"log factor; clamping to floor {floor}", stacklevel=2)
            factors[joint] = max(raw, floor)
    return np.array([factors[joint] for joint in range(skeleton.joint_count)],
                    dtype=np.float64)


def temporal_factors(query_len: int, future_len: int,
                     form: str = LossConfig.temporal_form) -> np.ndarray:
    """Weight 1 on reconstructed frames, a decreasing ramp on future frames."""
    if query_len < 1 or future_len < 1:
        raise ConfigurationError("query_len and future_len must be >= 1")
    if form not in TEMPORAL_FORMS:
        raise ConfigurationError(f"unknown temporal form {form!r}")
    t = np.ones(query_len + future_len, dtype=np.float64)
    frame = np.arange(query_len + 1, query_len + future_len + 1, dtype=np.float64)
    ramp = future_len - frame + query_len
    if form == "unit_final":
        ramp += 1.0
    t[query_len:] = ramp
    return t


def assemble_lambda(spatial: np.ndarray, temporal: np.ndarray) -> np.ndarray:
    """The (frames, joints) table of the factors' product, rescaled to sum to joints * frames."""
    spatial = np.asarray(spatial, dtype=np.float64)
    temporal = np.asarray(temporal, dtype=np.float64)
    if spatial.ndim != 1 or temporal.ndim != 1:
        raise DimensionError("factors must be 1-D")
    if (spatial < 0).any() or (temporal < 0).any():
        raise ConfigurationError("factors must be nonnegative")
    outer = temporal[:, None] * spatial[None, :]
    total = outer.sum()
    if total <= 0:
        raise ConfigurationError("all-zero weight product")
    return outer * (outer.size / total)


def build_loss_weights(skeleton: Skeleton, query_len: int, future_len: int,
                       config: LossConfig) -> np.ndarray | None:
    """The (frames, joints) weight table for the supervised window, or None
    where ``use_st_weights`` is off: the one reader of the weighting settings.

    With query reconstruction off only the future branch of the temporal
    ramp survives and the table renormalizes over the shorter window.
    """
    if not config.use_st_weights:
        return None
    spatial = spatial_factors(skeleton, config.spatial_floor)
    temporal = temporal_factors(query_len, future_len, config.temporal_form)
    if not config.reconstruct_query:
        temporal = temporal[query_len:]
    return assemble_lambda(spatial, temporal)


def _joint_distance(pred: Tensor, truth: Tensor) -> Tensor:
    diff = sub(pred, truth)
    return sqrt(tensor_sum(mul(diff, diff), axis=-1))


def _check_pose_shapes(pred: Tensor, truth: Tensor, op: str):
    if pred.shape != truth.shape:
        raise DimensionError(f"{op}: shapes {pred.shape} vs {truth.shape}")
    if pred.ndim < 3 or pred.shape[-1] != 3:
        raise DimensionError(f"{op}: expected (..., frames, joints, 3), got {pred.shape}")


def loss_st(pred, truth, weights: np.ndarray | None = None) -> Tensor:
    """Mean weighted per-joint Euclidean error over frames (and batch)."""
    pred, truth = as_tensor(pred), as_tensor(truth)
    _check_pose_shapes(pred, truth, "loss_st")
    distance = _joint_distance(pred, truth)  # (..., frames, joints)
    if weights is not None:
        if weights.shape != pred.shape[-3:-1]:
            raise DimensionError(
                f"weight table {weights.shape} does not cover window {pred.shape[-3:-1]}")
        distance = mul(distance, Tensor(weights))
    return mul(tensor_sum(distance), 1.0 / distance.size)


def loss_velocity(pred, truth) -> Tensor:
    """Mean per-joint error of frame-to-frame displacements."""
    pred, truth = as_tensor(pred), as_tensor(truth)
    _check_pose_shapes(pred, truth, "loss_velocity")
    if pred.shape[-3] < 2:
        raise DimensionError("velocity loss needs at least two frames")
    vel_pred = sub(pred[..., 1:, :, :], pred[..., :-1, :, :])
    vel_truth = sub(truth[..., 1:, :, :], truth[..., :-1, :, :])
    distance = _joint_distance(vel_pred, vel_truth)
    return mul(tensor_sum(distance), 1.0 / distance.size)


def loss_total(pred, truth, weights: np.ndarray | None, config: LossConfig,
               future_len: int) -> Tensor:
    """Sum of the enabled components over the supervised window.

    ``pred`` and ``truth`` always cover the full reconstruction+future
    window; with query reconstruction off both losses see only the last
    ``future_len`` frames (denominators renormalize automatically).
    ``weights`` is ``build_loss_weights``' table (or None), used as given.
    """
    pred, truth = as_tensor(pred), as_tensor(truth)
    _check_pose_shapes(pred, truth, "loss_total")
    if not config.reconstruct_query:
        pred = pred[..., -future_len:, :, :]
        truth = truth[..., -future_len:, :, :]
    total = None
    if config.use_st:
        total = loss_st(pred, truth, weights)
    if config.use_velocity:
        vel = loss_velocity(pred, truth)
        total = vel if total is None else total + vel
    if total is None:
        raise ConfigurationError("all loss components disabled")
    return total
