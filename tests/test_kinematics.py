import numpy as np
import pytest

from motionrefine.errors import ConfigurationError, DataError, FormatError, SkeletonError
from motionrefine.kinematics import (
    KinematicChain,
    PoseSequence,
    Skeleton,
    default_humanoid_skeleton,
    load_skeleton,
    mpjpe_per_frame,
    save_skeleton,
    skeleton_from_text,
    skeleton_to_text,
    synthetic_skeleton,
)


@pytest.fixture
def simple_skeleton():
    return synthetic_skeleton(2, 3, 100.0)


class TestMpjpe:
    def test_equal_sequences_are_zero(self):
        coords = np.random.default_rng(0).normal(size=(4, 3, 3))
        assert mpjpe_per_frame(coords, coords.copy()).tolist() == [0.0] * 4

    def test_single_displaced_joint(self):
        truth = np.zeros((1, 2, 3))
        pred = truth.copy()
        pred[0, 0] = (3.0, 4.0, 0.0)  # length-5 offset, averaged over 2 joints
        err = mpjpe_per_frame(pred, truth)
        assert abs(err[0] - 2.5) < 1e-12

    def test_against_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=(5, 4, 3))
        truth = rng.normal(size=(5, 4, 3))
        fast = mpjpe_per_frame(pred, truth)
        for f in range(5):
            total = 0.0
            for j in range(4):
                d = 0.0
                for c in range(3):
                    d += (pred[f, j, c] - truth[f, j, c]) ** 2
                total += d ** 0.5
            assert abs(fast[f] - total / 4) < 1e-12

    def test_joint_count_mismatch(self):
        with pytest.raises(SkeletonError):
            mpjpe_per_frame(np.zeros((1, 2, 3)), np.zeros((1, 3, 3)))

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        pred = rng.normal(size=(3, 5, 3))
        truth = rng.normal(size=(3, 5, 3))
        shift = rng.normal(size=3)
        base = mpjpe_per_frame(pred, truth)
        moved = mpjpe_per_frame(pred + shift, truth + shift)
        assert np.abs(base - moved).max() < 1e-9

    def test_scaling_linearity(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=(3, 5, 3))
        truth = rng.normal(size=(3, 5, 3))
        assert np.allclose(mpjpe_per_frame(3.0 * pred, 3.0 * truth),
                           3.0 * mpjpe_per_frame(pred, truth))

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(4)
        pred = rng.normal(size=(2, 3, 3))
        truth = pred.copy()
        truth[1, 2, 0] += 1e-6
        errors = mpjpe_per_frame(pred, truth)
        assert errors[0] == 0.0 and errors[1] > 0.0


class TestSyntheticSkeleton:
    def test_single_chain(self):
        skel = synthetic_skeleton(1, 3)
        assert skel.joint_count == 3
        assert len(skel.chains) == 1 and skel.chains[0].bone_count == 2

    def test_two_chains_share_root(self):
        skel = synthetic_skeleton(2, 2)
        assert skel.joint_count == 3
        assert all(ch.joint_indices[0] == 0 for ch in skel.chains)

    def test_five_by_four(self):
        assert synthetic_skeleton(5, 4).joint_count == 16

    def test_deterministic(self):
        assert synthetic_skeleton(3, 4) == synthetic_skeleton(3, 4)

    def test_zero_chains(self):
        with pytest.raises(ConfigurationError):
            synthetic_skeleton(0, 3)

    def test_every_joint_on_a_chain(self, simple_skeleton):
        listed = {j for chain in simple_skeleton.chains for j in chain.joint_indices}
        assert listed == set(range(simple_skeleton.joint_count))


class TestHumanoidFixture:
    def test_has_22_joints_and_five_chains(self):
        skel = default_humanoid_skeleton()
        assert skel.joint_count == 22
        assert len(skel.chains) == 5
        assert skel.units == "millimeters"

    def test_round_trips_through_file(self, tmp_path):
        skel = default_humanoid_skeleton()
        save_skeleton(skel, tmp_path / "humanoid.mskel")
        assert load_skeleton(tmp_path / "humanoid.mskel") == skel


class TestSkeletonValidation:
    def test_chain_bone_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            KinematicChain((0, 1, 2), (100.0,))

    def test_negative_bone(self):
        with pytest.raises(ConfigurationError):
            KinematicChain((0, 1), (-5.0,))

    def test_uncovered_joint(self):
        with pytest.raises(ConfigurationError, match="no chain"):
            Skeleton(3, ("a", "b", "c"), (KinematicChain((0, 1), (10.0,)),))

    def test_bad_units(self):
        with pytest.raises(ConfigurationError):
            Skeleton(2, ("a", "b"), (KinematicChain((0, 1), (10.0,)),), units="furlongs")


class TestPoseSequence:
    def test_non_finite_rejected_with_frame(self):
        coords = np.zeros((4, 2, 3))
        coords[2, 1, 0] = np.nan
        with pytest.raises(DataError, match="frame 2"):
            PoseSequence(coords)

    @pytest.mark.parametrize("rate", [0.0, -25.0, np.nan, np.inf])
    def test_frame_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(DataError, match="frame rate"):
            PoseSequence(np.zeros((4, 2, 3)), rate)

    def test_empty_sequence_is_allowed(self):
        seq = PoseSequence(np.zeros((0, 3, 3)))
        assert seq.frames == 0 and seq.joints == 3


class TestSkeletonFile:
    def test_round_trip_is_lossless(self, tmp_path, simple_skeleton):
        path = tmp_path / "skel.mskel"
        save_skeleton(simple_skeleton, path)
        assert load_skeleton(path) == simple_skeleton

    def test_round_trip_awkward_bone_lengths(self, tmp_path):
        skel = Skeleton(3, ("root", "mid", "tip"),
                        (KinematicChain((0, 1, 2), (0.1, 123.45678901234567)),))
        path = tmp_path / "skel.mskel"
        save_skeleton(skel, path)
        loaded = load_skeleton(path)
        assert loaded.chains[0].bone_lengths == skel.chains[0].bone_lengths

    def test_text_round_trip(self, simple_skeleton):
        assert skeleton_from_text(skeleton_to_text(simple_skeleton)) == simple_skeleton

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mskel"
        path.write_text("NOTSKEL\n")
        with pytest.raises(FormatError):
            load_skeleton(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.mskel"
        path.write_text("MSKEL1\njoint_count: 2\nunits: millimeters\n")
        with pytest.raises(FormatError):
            load_skeleton(path)
