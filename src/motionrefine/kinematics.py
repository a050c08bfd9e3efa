"""Skeleton description, pose sequences and geometric evaluation metrics.

A skeleton is a set of kinematic chains (root-outward ordered joint
paths with per-bone lengths).  Chains drive the spatial loss weighting
and the synthetic-motion generators; pose sequences carry raw 3D joint
coordinates in the skeleton's units (millimeters by default).

Skeleton file format ("MSKEL1", plain text, one record per line):

    MSKEL1
    joint_count: 4
    units: millimeters
    joint_names: root, hip, knee, foot
    chain: 0 1 2 3 | 100.0 200.0 150.0

Joint names may not contain commas or newlines.  Bone lengths are
serialized with ``repr`` so parse/serialize round-trips are lossless.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, FormatError, SkeletonError

UNITS = ("millimeters", "meters")
SYNTH_BONE_LENGTH = 100.0  # each bone of a synthetic skeleton unless one is given


@dataclass(frozen=True)
class KinematicChain:
    joint_indices: tuple[int, ...]
    bone_lengths: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "joint_indices", tuple(int(i) for i in self.joint_indices))
        object.__setattr__(self, "bone_lengths", tuple(float(b) for b in self.bone_lengths))
        if len(self.bone_lengths) != len(self.joint_indices) - 1:
            raise ConfigurationError(
                f"chain with {len(self.joint_indices)} joints needs "
                f"{len(self.joint_indices) - 1} bone lengths, got {len(self.bone_lengths)}")
        if not all(0.0 < b < np.inf for b in self.bone_lengths):  # also rejects nan
            raise ConfigurationError("bone lengths must be positive and finite")

    @property
    def bone_count(self) -> int:
        return len(self.bone_lengths)


@dataclass(frozen=True)
class Skeleton:
    joint_count: int
    joint_names: tuple[str, ...]
    chains: tuple[KinematicChain, ...]
    units: str = "millimeters"

    def __post_init__(self):
        object.__setattr__(self, "joint_names", tuple(self.joint_names))
        object.__setattr__(self, "chains", tuple(self.chains))
        if self.units not in UNITS:
            raise ConfigurationError(f"unknown units {self.units!r}, expected one of {UNITS}")
        if len(self.joint_names) != self.joint_count:
            raise ConfigurationError(
                f"{self.joint_count} joints but {len(self.joint_names)} names")
        for name in self.joint_names:
            if "," in name or "\n" in name or not name.strip():
                raise ConfigurationError(f"invalid joint name {name!r}")
        covered = set()
        for chain in self.chains:
            for j in chain.joint_indices:
                if not 0 <= j < self.joint_count:
                    raise ConfigurationError(f"chain joint index {j} out of range")
                covered.add(j)
        missing = set(range(self.joint_count)) - covered
        if missing:
            raise ConfigurationError(f"joints {sorted(missing)} appear in no chain")

    @property
    def name(self) -> str:
        return f"skeleton-{self.joint_count}j-{len(self.chains)}c"


@dataclass
class PoseSequence:
    """Time-ordered 3D joint positions, shape (frames, joints, 3)."""

    coords: np.ndarray
    frame_rate: float = 25.0

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 3 or coords.shape[-1] != 3:
            raise DataError(f"coords must be (frames, joints, 3), got {coords.shape}")
        bad = ~np.isfinite(coords)
        if bad.any():
            frame = int(np.argwhere(bad)[0][0])
            raise DataError(f"non-finite coordinate at frame {frame}")
        if not 0 < self.frame_rate < np.inf:  # also rejects nan
            raise DataError(f"frame rate must be positive and finite, got {self.frame_rate}")
        self.coords = coords

    @property
    def frames(self) -> int:
        return self.coords.shape[0]

    @property
    def joints(self) -> int:
        return self.coords.shape[1]


def mpjpe_per_frame(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Mean over joints of the Euclidean joint error, one value per frame."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise SkeletonError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return np.linalg.norm(pred - truth, axis=-1).mean(axis=-1)


def default_humanoid_skeleton() -> Skeleton:
    """A 22-joint humanoid with a five-chain decomposition.

    Chains run root-outward: pelvis up the spine to the head top, pelvis
    down each leg, and thorax out each arm.  Bone lengths are generic
    adult proportions in millimeters.  This is a working fixture for
    experiments, not a measurement of any particular capture setup;
    shared joints (pelvis, thorax) take their loss weighting from the
    first chain that lists them.
    """
    names = ("pelvis", "spine", "thorax", "neck", "head",
             "lhip", "lknee", "lankle", "lfoot",
             "rhip", "rknee", "rankle", "rfoot",
             "lshoulder", "lelbow", "lwrist", "lhand",
             "rshoulder", "relbow", "rwrist", "rhand", "headtop")
    chains = (
        KinematicChain((0, 1, 2, 3, 4, 21), (130.0, 150.0, 120.0, 110.0, 120.0)),
        KinematicChain((0, 5, 6, 7, 8), (110.0, 440.0, 440.0, 150.0)),
        KinematicChain((0, 9, 10, 11, 12), (110.0, 440.0, 440.0, 150.0)),
        KinematicChain((2, 13, 14, 15, 16), (160.0, 280.0, 250.0, 90.0)),
        KinematicChain((2, 17, 18, 19, 20), (160.0, 280.0, 250.0, 90.0)),
    )
    return Skeleton(22, names, chains, "millimeters")


def synthetic_skeleton(chain_count: int, joints_per_chain: int,
                       bone_length: float = SYNTH_BONE_LENGTH,
                       units: str = "millimeters") -> Skeleton:
    """Star-shaped skeleton: one shared root, ``chain_count`` straight chains."""
    if chain_count < 1:
        raise ConfigurationError("need at least one chain")
    if joints_per_chain < 2:
        raise ConfigurationError("a chain needs at least two joints (one bone)")
    if not (np.isfinite(bone_length) and bone_length > 0):
        raise ConfigurationError(f"bone length must be finite and positive, got {bone_length}")
    names = ["root"]
    chains = []
    next_joint = 1
    for c in range(chain_count):
        indices = [0]
        for i in range(joints_per_chain - 1):
            names.append(f"c{c}_j{i + 1}")
            indices.append(next_joint)
            next_joint += 1
        chains.append(KinematicChain(tuple(indices), (bone_length,) * (joints_per_chain - 1)))
    return Skeleton(next_joint, tuple(names), tuple(chains), units)


def skeleton_to_text(skeleton: Skeleton) -> str:
    lines = ["MSKEL1", f"joint_count: {skeleton.joint_count}", f"units: {skeleton.units}",
             "joint_names: " + ", ".join(skeleton.joint_names)]
    for chain in skeleton.chains:
        joints = " ".join(str(i) for i in chain.joint_indices)
        bones = " ".join(repr(b) for b in chain.bone_lengths)
        lines.append(f"chain: {joints} | {bones}")
    return "\n".join(lines) + "\n"


def save_skeleton(skeleton: Skeleton, path):
    Path(path).write_text(skeleton_to_text(skeleton), encoding="utf-8")


def skeleton_from_text(text: str, source: str = "<text>") -> Skeleton:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "MSKEL1":
        raise FormatError(f"{source}: not an MSKEL1 skeleton file")
    fields: dict[str, str] = {}
    chains: list[tuple] = []  # (joint indices, bone lengths) per chain line
    for line in lines[1:]:
        if ":" not in line:
            raise FormatError(f"{source}: malformed line {line!r}")
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "chain":
            joints_part, sep, bones_part = value.partition("|")
            if not sep:
                raise FormatError(f"{source}: chain line missing '|': {line!r}")
            try:
                indices = tuple(int(tok) for tok in joints_part.split())
                bones = tuple(float(tok) for tok in bones_part.split())
            except ValueError:
                raise FormatError(f"{source}: chain line has a non-numeric token: "
                                  f"{line!r}") from None
            chains.append((indices, bones))
        else:
            fields[key] = value
    try:
        joint_count = int(fields["joint_count"])
        units = fields["units"]
        names = tuple(name.strip() for name in fields["joint_names"].split(","))
    except KeyError as missing:
        raise FormatError(f"{source}: missing field {missing}") from None
    except ValueError:
        raise FormatError(
            f"{source}: joint_count {fields['joint_count']!r} is not an integer") from None
    try:
        return Skeleton(joint_count, names, tuple(KinematicChain(*c) for c in chains), units)
    except ConfigurationError as bad:
        raise FormatError(f"{source}: {bad}") from None


def load_skeleton(path) -> Skeleton:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as bad:
        raise FormatError(f"{path}: not UTF-8 text: {bad}") from None
    return skeleton_from_text(text, source=str(path))
