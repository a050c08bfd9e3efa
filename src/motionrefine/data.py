"""Pose-sequence persistence, window extraction and synthetic motion.

Binary sequence format "MSEQ1":

    8 bytes   magic b"MSEQ0001"
    u32       joint count
    u32       frame count
    u32       frame rate in millihertz
    u32       skeleton name length, then that many UTF-8 bytes
    f32 * frames*joints*3, little endian, frame-major, joint, then xyz

Storage is 32-bit on purpose (half the size); loading upcasts to 64-bit,
so a write/read round-trip is exact at 32-bit precision.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, FormatError, SkeletonError
from .kinematics import PoseSequence, Skeleton, load_skeleton

MAGIC = b"MSEQ0001"
SYNTH_KINDS = ("sinusoid", "lissajous", "piecewise-constant-velocity")
WINDOW_STRIDE = 1  # frames between consecutive windows' starts, unless a caller sets another


@dataclass
class SequenceDataset:
    skeleton: Skeleton
    sequences: list[PoseSequence]
    labels: list[str] | None = None

    def __post_init__(self):
        for i, seq in enumerate(self.sequences):
            if seq.joints != self.skeleton.joint_count:
                raise SkeletonError(
                    f"sequence {i} has {seq.joints} joints, "
                    f"skeleton has {self.skeleton.joint_count}")
        if self.labels is not None and len(self.labels) != len(self.sequences):
            raise ConfigurationError("one label per sequence required")


@dataclass(frozen=True)
class TrainingWindow:
    """A (history, target) pair whose arrays view its sequence's ``coords``."""

    history: np.ndarray   # (history_len, joints, 3)
    target: np.ndarray    # (future_len, joints, 3)
    source: tuple[int, int]  # (sequence index, start frame)


def frame_rate_millihertz(frame_rate: float, error: type[Exception] = DataError) -> int:
    """The frame rate as the u32 millihertz count an MSEQ1 header stores.

    Raises ``error`` unless the rate is a whole number of millihertz in [1, 2**32 - 1].
    """
    rate_mhz = frame_rate * 1000.0
    whole = int(round(rate_mhz)) if np.isfinite(rate_mhz) else 0
    if not 1 <= whole < 2 ** 32 or abs(rate_mhz - whole) > 1e-6:
        raise error(f"frame rate {frame_rate} is not a whole number of millihertz "
                    f"in [1, {2 ** 32 - 1}]")
    return whole


def mseq_bytes(seq: PoseSequence, skeleton_name: str,
               error: type[Exception] = DataError) -> bytes:
    """The whole MSEQ1 file of ``seq``.

    Raises ``error`` unless the frame rate is a whole number of millihertz and
    every coordinate is finite in float32.
    """
    rate_mhz = frame_rate_millihertz(seq.frame_rate, error)
    with np.errstate(over="ignore"):
        single = seq.coords.astype("<f4")
    bad = ~np.isfinite(single)
    if bad.any():
        frame = int(np.argwhere(bad)[0][0])
        raise error(f"coordinate at frame {frame} is beyond the float32 range of an MSEQ1 file")
    name = skeleton_name.encode("utf-8")
    return (MAGIC + struct.pack("<IIII", seq.joints, seq.frames, rate_mhz, len(name)) + name
            + single.tobytes())


def mseq_size(joints: int, frames: int, skeleton_name: str) -> int:
    """The byte count of the MSEQ1 file ``mseq_bytes`` builds for such a sequence."""
    return len(MAGIC) + 16 + len(skeleton_name.encode("utf-8")) + 12 * joints * frames


def save_sequence(path, seq: PoseSequence, skeleton_name: str):
    Path(path).write_bytes(mseq_bytes(seq, skeleton_name))


def load_sequence(path) -> tuple[str, PoseSequence]:
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) or blob[:len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic, not an MSEQ1 file")
    offset = len(MAGIC)

    def pull(count):
        nonlocal offset
        if offset + count > len(blob):
            raise FormatError(f"{path}: truncated file")
        piece = blob[offset:offset + count]
        offset += count
        return piece

    joints, frames, rate_mhz = struct.unpack("<III", pull(12))
    (name_len,) = struct.unpack("<I", pull(4))
    try:
        name = pull(name_len).decode("utf-8")
    except UnicodeDecodeError as bad:
        raise FormatError(f"{path}: skeleton name is not UTF-8: {bad}") from None
    payload = pull(frames * joints * 3 * 4)
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes")
    coords = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    try:
        return name, PoseSequence(coords.reshape(frames, joints, 3), rate_mhz / 1000.0)
    except DataError as bad:
        raise DataError(f"{path}: {bad}") from None


def load_dataset(directory) -> SequenceDataset:
    """Load skeleton.mskel (or the unique *.mskel) plus every *.mseq in a directory.

    The text before the last underscore of each file name becomes the
    sequence's action label.
    """
    directory = Path(directory)
    skeleton_files = sorted(directory.glob("*.mskel"))
    if not skeleton_files:
        raise FormatError(f"{directory}: no .mskel skeleton file")
    if len(skeleton_files) > 1:
        raise FormatError(f"{directory}: multiple skeleton files: {skeleton_files}")
    skeleton = load_skeleton(skeleton_files[0])
    sequences, labels = [], []
    for seq_path in sorted(directory.glob("*.mseq")):
        name, seq = load_sequence(seq_path)
        if seq.joints != skeleton.joint_count:
            raise SkeletonError(
                f"{seq_path}: sequence has {seq.joints} joints, "
                f"skeleton {skeleton_files[0].stem} has {skeleton.joint_count}")
        sequences.append(seq)
        stem = seq_path.stem
        labels.append(stem.rsplit("_", 1)[0] if "_" in stem else stem)
    if not sequences:
        raise FormatError(f"{directory}: no .mseq sequence files")
    return SequenceDataset(skeleton, sequences, labels)


def window_index(dataset: SequenceDataset, history_len: int, future_len: int,
                 stride: int = WINDOW_STRIDE) -> tuple[np.ndarray, np.ndarray]:
    """Every contiguous (history, target) window at the given stride, in order,
    as two int64 arrays: each window's sequence index and start frame."""
    if stride < 1:
        raise ConfigurationError(f"stride must be >= 1, got {stride}")
    if history_len < 1 or future_len < 1:
        raise ConfigurationError("history_len and future_len must be >= 1")
    span = history_len + future_len
    # a slice step, unlike arange's, stays an integer at any stride
    starts = [np.arange(max(seq.frames - span + 1, 0), dtype=np.int64)[::stride]
              for seq in dataset.sequences]
    sequence = np.repeat(np.arange(len(starts), dtype=np.int64), [len(s) for s in starts])
    return sequence, np.concatenate([np.empty(0, np.int64), *starts])


def extract_windows(dataset: SequenceDataset, history_len: int, future_len: int,
                    stride: int = WINDOW_STRIDE) -> list[TrainingWindow]:
    """``window_index``'s windows as ``TrainingWindow``s, whose arrays view the
    sequences' memory: the per-window form of the index, for callers outside training."""
    sequence, start = window_index(dataset, history_len, future_len, stride)
    coords, span = [seq.coords for seq in dataset.sequences], history_len + future_len
    return [TrainingWindow(coords[s][t:t + history_len], coords[s][t + history_len:t + span],
                           (s, t)) for s, t in zip(sequence.tolist(), start.tolist())]


@dataclass(frozen=True)
class SynthSpec:
    kind: str = "sinusoid"
    amplitude: float = 100.0
    period: float = 16.0     # frames per oscillation cycle
    frames: int = 100
    seed: int = 0
    frame_rate: float = 25.0

    def __post_init__(self):
        if self.kind not in SYNTH_KINDS:
            raise ConfigurationError(f"unknown synthetic kind {self.kind!r}")
        if self.frames < 1:
            raise ConfigurationError(f"frames must be >= 1, got {self.frames}")
        if not (np.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ConfigurationError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not (np.isfinite(self.period) and self.period > 0):
            raise ConfigurationError(f"period must be finite and > 0, got {self.period}")
        # the piecewise kind draws one velocity per period, so a period below
        # one frame would draw more velocities than there are frames
        if self.kind == "piecewise-constant-velocity" and self.period < 1.0:
            raise ConfigurationError(
                f"a piecewise-constant-velocity period must be >= 1 frame, got {self.period}")
        frame_rate_millihertz(self.frame_rate, ConfigurationError)
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


def rest_pose(skeleton: Skeleton) -> np.ndarray:
    """Chains laid out radially in the xz-plane at their bone lengths."""
    coords = np.zeros((skeleton.joint_count, 3))
    spokes = max(len(skeleton.chains), 1)
    for c, chain in enumerate(skeleton.chains):
        angle = 2.0 * np.pi * c / spokes
        direction = np.array([np.cos(angle), 0.0, np.sin(angle)])
        reach = 0.0
        for position, joint in enumerate(chain.joint_indices):
            if position > 0:
                reach += chain.bone_lengths[position - 1]
            if joint != 0:
                coords[joint] = direction * reach
    return coords


def gen_synthetic(skeleton: Skeleton, spec: SynthSpec) -> PoseSequence:
    """Deterministic articulated motion around a radial rest pose.

    Every chain oscillates about the static root; displacement amplitude
    grows toward the chain tip.  The sinusoid kind repeats exactly every
    ``period`` frames.  Settings whose motion overflows float64 (a huge
    amplitude or bone length, a tiny period) raise ConfigurationError.
    """
    with np.errstate(all="ignore"):
        coords = _synthetic_coords(skeleton, spec)
    if not np.isfinite(coords).all():
        bones = max((b for chain in skeleton.chains for b in chain.bone_lengths), default=0.0)
        raise ConfigurationError(
            f"synthetic motion overflows at amplitude {spec.amplitude}, period {spec.period} "
            f"and bone lengths up to {bones}")
    return PoseSequence(coords, spec.frame_rate)


def _synthetic_coords(skeleton: Skeleton, spec: SynthSpec) -> np.ndarray:
    rng = np.random.default_rng(spec.seed)
    base = rest_pose(skeleton)
    joints = skeleton.joint_count
    t = np.arange(spec.frames, dtype=np.float64)

    # per-joint motion profile: amplitude share, phase and direction
    share = np.zeros(joints)
    for chain in skeleton.chains:
        for position, joint in enumerate(chain.joint_indices):
            if position > 0:
                share[joint] = position / chain.bone_count
    phase = rng.uniform(0.0, 2.0 * np.pi, joints)
    direction = rng.normal(size=(joints, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    second = rng.normal(size=(joints, 3))
    second -= (second * direction).sum(axis=1, keepdims=True) * direction
    second /= np.linalg.norm(second, axis=1, keepdims=True)

    omega = 2.0 * np.pi / spec.period
    # phase computed on t mod period so periodic frames match bit for bit
    cycle = np.mod(t, spec.period)
    if spec.kind == "sinusoid":
        wave = np.sin(omega * cycle[:, None] + phase[None, :])      # (T, J)
        offsets = spec.amplitude * share[None, :, None] * wave[:, :, None] * direction[None]
    elif spec.kind == "lissajous":
        wave_a = np.sin(omega * cycle[:, None] + phase[None, :])
        wave_b = np.sin(2.0 * omega * cycle[:, None] + 2.0 * phase[None, :])
        offsets = 0.5 * spec.amplitude * share[None, :, None] * (
            wave_a[:, :, None] * direction[None] + wave_b[:, :, None] * second[None])
    else:  # piecewise-constant-velocity
        segments = int(np.ceil(spec.frames / spec.period))
        speed = spec.amplitude / spec.period
        velocity = rng.normal(scale=speed, size=(segments, joints, 3)) * share[None, :, None]
        seg_index = np.minimum((t // spec.period).astype(int), segments - 1)
        offsets = np.cumsum(velocity[seg_index], axis=0)
        offsets -= offsets[0]
    return base[None, :, :] + offsets
