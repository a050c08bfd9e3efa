import struct

import numpy as np
import pytest

from motionrefine.data import (
    MAGIC,
    SequenceDataset,
    SynthSpec,
    extract_windows,
    gen_synthetic,
    load_dataset,
    load_sequence,
    rest_pose,
    save_sequence,
)
from motionrefine.errors import ConfigurationError, DataError, FormatError, SkeletonError
from motionrefine.kinematics import PoseSequence, save_skeleton, synthetic_skeleton


@pytest.fixture
def skeleton():
    return synthetic_skeleton(2, 3, 100.0)


class TestSequenceFile:
    def test_round_trip_exact_at_storage_precision(self, tmp_path, skeleton):
        rng = np.random.default_rng(0)
        coords = rng.normal(scale=200.0, size=(7, skeleton.joint_count, 3))
        seq = PoseSequence(coords, frame_rate=25.0)
        path = tmp_path / "seq.mseq"
        save_sequence(path, seq, skeleton.name)
        name, loaded = load_sequence(path)
        assert name == skeleton.name
        assert loaded.frame_rate == 25.0
        assert np.array_equal(loaded.coords, coords.astype(np.float32).astype(np.float64))

    def test_f32_representable_coordinates_round_trip_bit_identical(self, tmp_path, skeleton):
        coords = np.random.default_rng(1).normal(size=(4, skeleton.joint_count, 3))
        coords = coords.astype(np.float32).astype(np.float64)
        path = tmp_path / "seq.mseq"
        save_sequence(path, PoseSequence(coords), skeleton.name)
        _, loaded = load_sequence(path)
        assert np.array_equal(loaded.coords, coords)

    def test_truncated_file_is_a_format_error(self, tmp_path, skeleton):
        path = tmp_path / "seq.mseq"
        save_sequence(path, PoseSequence(np.zeros((3, skeleton.joint_count, 3))),
                      skeleton.name)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_sequence(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "seq.mseq"
        path.write_bytes(b"NOTASEQ!" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            load_sequence(path)

    def test_nan_payload_names_frame(self, tmp_path):
        path = tmp_path / "seq.mseq"
        name = b"skel"
        header = MAGIC + struct.pack("<III", 1, 2, 25000) + struct.pack("<I", 4) + name
        frames = np.zeros((2, 1, 3), dtype="<f4")
        frames[1, 0, 1] = np.nan
        path.write_bytes(header + frames.tobytes())
        with pytest.raises(DataError, match="frame 1"):
            load_sequence(path)

    def test_non_integral_frame_rate_rejected(self, tmp_path, skeleton):
        seq = PoseSequence(np.zeros((2, skeleton.joint_count, 3)),
                           frame_rate=25.0000007)
        with pytest.raises(DataError, match="millihertz"):
            save_sequence(tmp_path / "x.mseq", seq, skeleton.name)

    def test_coordinates_beyond_float32_rejected_before_the_file_opens(self, tmp_path,
                                                                       skeleton):
        coords = np.zeros((3, skeleton.joint_count, 3))
        coords[2, 1, 0] = 1e39
        path = tmp_path / "x.mseq"
        with pytest.raises(DataError, match="frame 2 is beyond the float32 range"):
            save_sequence(path, PoseSequence(coords, frame_rate=25.0), skeleton.name)
        assert not path.exists()


class TestExtractWindows:
    def make_dataset(self, frames, skeleton):
        seq = PoseSequence(np.arange(frames * skeleton.joint_count * 3, dtype=float)
                           .reshape(frames, skeleton.joint_count, 3))
        return SequenceDataset(skeleton, [seq])

    def test_exact_fit_gives_one_window(self, skeleton):
        ds = self.make_dataset(15, skeleton)
        assert len(extract_windows(ds, 10, 5, 1)) == 1

    def test_two_extra_frames_give_three_windows(self, skeleton):
        ds = self.make_dataset(17, skeleton)
        windows = extract_windows(ds, 10, 5, 1)
        assert len(windows) == 3
        assert [w.source for w in windows] == [(0, 0), (0, 1), (0, 2)]

    def test_short_sequence_gives_none(self, skeleton):
        ds = self.make_dataset(14, skeleton)
        assert extract_windows(ds, 10, 5, 1) == []

    def test_history_and_target_are_adjacent(self, skeleton):
        ds = self.make_dataset(20, skeleton)
        for w in extract_windows(ds, 10, 5, 2):
            seq = ds.sequences[w.source[0]].coords
            start = w.source[1]
            assert np.array_equal(w.history, seq[start:start + 10])
            assert np.array_equal(w.target, seq[start + 10:start + 15])

    def test_windows_view_the_sequence(self, skeleton):
        ds = self.make_dataset(20, skeleton)
        coords = ds.sequences[0].coords
        for w in extract_windows(ds, 10, 5, 1):
            assert np.shares_memory(w.history, coords)
            assert np.shares_memory(w.target, coords)

    @pytest.mark.parametrize("seed", range(8))
    def test_window_bounds_property(self, seed, skeleton):
        rng = np.random.default_rng(seed)
        frames = int(rng.integers(1, 40))
        history = int(rng.integers(1, 20))
        future = int(rng.integers(1, 10))
        stride = int(rng.integers(1, 6))
        ds = self.make_dataset(frames, skeleton)
        windows = extract_windows(ds, history, future, stride)
        span = history + future
        expected = max(0, (frames - span) // stride + 1) if frames >= span else 0
        assert len(windows) == expected
        for w in windows:
            assert 0 <= w.source[1] and w.source[1] + span <= frames

    def test_bad_stride(self, skeleton):
        with pytest.raises(ConfigurationError):
            extract_windows(self.make_dataset(20, skeleton), 10, 5, 0)


class TestSyntheticMotion:
    def test_zero_amplitude_is_static(self, skeleton):
        seq = gen_synthetic(skeleton, SynthSpec(amplitude=0.0, frames=10))
        assert np.array_equal(seq.coords, np.broadcast_to(seq.coords[0], seq.coords.shape))

    def test_sinusoid_exactly_periodic(self, skeleton):
        seq = gen_synthetic(skeleton, SynthSpec(kind="sinusoid", period=12.0, frames=40,
                                                amplitude=150.0, seed=3))
        assert np.abs(seq.coords[:28] - seq.coords[12:]).max() < 1e-12

    def test_same_seed_bit_identical(self, skeleton):
        spec = SynthSpec(kind="lissajous", seed=9, frames=30)
        a = gen_synthetic(skeleton, spec)
        b = gen_synthetic(skeleton, spec)
        assert np.array_equal(a.coords, b.coords)

    def test_piecewise_kind_runs_and_root_is_static(self, skeleton):
        seq = gen_synthetic(skeleton, SynthSpec(kind="piecewise-constant-velocity",
                                                frames=25, seed=4))
        assert np.array_equal(seq.coords[:, 0], np.broadcast_to(seq.coords[0, 0], (25, 3)))

    def test_unknown_kind(self, skeleton):
        with pytest.raises(ConfigurationError):
            gen_synthetic(skeleton, SynthSpec(kind="brownian"))

    @pytest.mark.parametrize("bone_length, spec", [
        (1e308, SynthSpec(frames=5)), (100.0, SynthSpec(period=1e-320, frames=5)),
        (100.0, SynthSpec(kind="piecewise-constant-velocity", amplitude=1e308, period=1.0,
                          frames=5))])
    def test_overflowing_motion_is_a_configuration_error(self, recwarn, bone_length, spec):
        with pytest.raises(ConfigurationError, match="synthetic motion overflows"):
            gen_synthetic(synthetic_skeleton(2, 3, bone_length), spec)
        assert len(recwarn) == 0

    def test_rest_pose_respects_bone_lengths(self, skeleton):
        pose = rest_pose(skeleton)
        for chain in skeleton.chains:
            for i in range(1, len(chain.joint_indices)):
                a = pose[chain.joint_indices[i - 1]]
                b = pose[chain.joint_indices[i]]
                assert abs(np.linalg.norm(b - a) - chain.bone_lengths[i - 1]) < 1e-9


class TestLoadDataset:
    def test_directory_round_trip_with_labels(self, tmp_path, skeleton):
        save_skeleton(skeleton, tmp_path / "skeleton.mskel")
        for i in range(3):
            seq = gen_synthetic(skeleton, SynthSpec(seed=i, frames=20))
            save_sequence(tmp_path / f"walk_{i:03d}.mseq", seq, skeleton.name)
        ds = load_dataset(tmp_path)
        assert len(ds.sequences) == 3
        assert ds.labels == ["walk"] * 3
        assert ds.skeleton == skeleton

    def test_joint_mismatch_is_skeleton_error(self, tmp_path, skeleton):
        save_skeleton(skeleton, tmp_path / "skeleton.mskel")
        other = PoseSequence(np.zeros((5, skeleton.joint_count + 1, 3)))
        save_sequence(tmp_path / "bad_000.mseq", other, "other")
        with pytest.raises(SkeletonError):
            load_dataset(tmp_path)

    def test_missing_skeleton(self, tmp_path):
        with pytest.raises(FormatError, match="mskel"):
            load_dataset(tmp_path)
