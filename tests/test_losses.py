import numpy as np
import pytest

from gradcheck import assert_gradients_match
from motionrefine.errors import ConfigurationError, DimensionError
from motionrefine.kinematics import (
    KinematicChain,
    Skeleton,
    default_humanoid_skeleton,
    synthetic_skeleton,
)
from motionrefine.losses import (
    LossConfig,
    assemble_lambda,
    build_loss_weights,
    loss_st,
    loss_total,
    loss_velocity,
    spatial_factors,
    temporal_factors,
)
from motionrefine.tensor import Tensor, backward


def two_bone_skeleton(bone=100.0):
    return Skeleton(3, ("root", "mid", "tip"),
                    (KinematicChain((0, 1, 2), (bone, bone)),))


class TestSpatialFactors:
    def test_tip_of_two_bone_chain(self):
        factors = spatial_factors(two_bone_skeleton())
        # (2/2) * ln(200); oracle value frozen below
        assert abs(factors[2] - 5.298317366548036) < 1e-12
        assert abs(factors[1] - 0.5 * np.log(100.0)) < 1e-12

    def test_root_gets_floor(self):
        factors = spatial_factors(two_bone_skeleton(), floor=0.1)
        assert factors[0] == 0.1

    def test_longer_bones_strictly_increase_factors(self):
        small = spatial_factors(two_bone_skeleton(100.0))
        big = spatial_factors(two_bone_skeleton(200.0))
        assert (big[1:] > small[1:]).all()

    def test_three_bone_chain_factors(self):
        skel = Skeleton(4, ("a", "b", "c", "d"),
                        (KinematicChain((0, 1, 2, 3), (100.0, 200.0, 150.0)),))
        factors = spatial_factors(skel)
        # cumulative lengths 100, 300 and 450 at positions 1, 2 and 3 of 3 bones
        assert factors[1] == (1 / 3) * np.log(100.0)
        assert factors[2] == (2 / 3) * np.log(300.0)
        assert factors[3] == np.log(450.0)

    def test_humanoid_shared_joints_take_first_chain(self):
        factors = spatial_factors(default_humanoid_skeleton(), floor=0.1)
        assert factors[0] == 0.1                           # pelvis: root of the spine chain
        assert factors[2] == (2 / 5) * np.log(280.0)       # thorax: spine chain, not the arms

    def test_subunit_cumulative_length_clamps_with_diagnostic(self):
        skel = Skeleton(2, ("root", "tip"), (KinematicChain((0, 1), (0.5,)),))
        with pytest.warns(UserWarning, match="clamping"):
            factors = spatial_factors(skel, floor=0.1)
        assert factors[1] == 0.1


class TestTemporalFactors:
    def test_zero_final_form(self):
        assert np.array_equal(temporal_factors(2, 2, "zero_final"), [1, 1, 1, 0])

    def test_unit_final_form(self):
        assert np.array_equal(temporal_factors(2, 2, "unit_final"), [1, 1, 2, 1])

    def test_single_future_frame(self):
        assert np.array_equal(temporal_factors(3, 1, "zero_final"), [1, 1, 1, 0])
        assert np.array_equal(temporal_factors(3, 1, "unit_final"), [1, 1, 1, 1])

    def test_unknown_form(self):
        with pytest.raises(ConfigurationError):
            temporal_factors(2, 2, "linear")


class TestAssembleLambda:
    def test_uniform_factors_give_all_ones(self):
        w = assemble_lambda(np.full(4, 3.0), np.full(6, 0.5))
        assert np.allclose(w, 1.0, atol=1e-12)

    def test_sum_equals_joint_frame_product(self):
        rng = np.random.default_rng(0)
        spatial = rng.uniform(0.1, 5.0, 7)
        temporal = rng.uniform(0.1, 3.0, 9)
        w = assemble_lambda(spatial, temporal)
        assert abs(w.sum() - 63.0) < 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        spatial = rng.uniform(0.1, 5.0, 4)
        temporal = rng.uniform(0.1, 3.0, 5)
        assert np.allclose(assemble_lambda(spatial, temporal),
                           assemble_lambda(10.0 * spatial, temporal), atol=1e-12)

    def test_all_zero_product(self):
        with pytest.raises(ConfigurationError):
            assemble_lambda(np.zeros(3), np.ones(4))


class TestLossSt:
    def test_zero_when_equal(self):
        x = np.random.default_rng(2).normal(size=(4, 3, 3))
        assert float(loss_st(Tensor(x), Tensor(x.copy())).data) == 0.0

    def test_single_joint_offset(self):
        truth = np.zeros((1, 1, 3))
        pred = np.array([[[3.0, 4.0, 0.0]]])
        assert abs(float(loss_st(Tensor(pred), Tensor(truth)).data) - 5.0) < 1e-12

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        frames, joints = 4, 3
        pred = rng.normal(size=(frames, joints, 3))
        truth = rng.normal(size=(frames, joints, 3))
        weights = build_loss_weights(synthetic_skeleton(1, joints), 2, 2, LossConfig())
        got = float(loss_st(Tensor(pred), Tensor(truth), weights).data)
        total = 0.0
        for f in range(frames):
            for j in range(joints):
                d = 0.0
                for c in range(3):
                    d += (pred[f, j, c] - truth[f, j, c]) ** 2
                total += weights[f, j] * d ** 0.5
        assert abs(got - total / (frames * joints)) < 1e-12

    def test_uniform_weights_reduce_to_plain_l2(self):
        rng = np.random.default_rng(4)
        pred = rng.normal(size=(5, 4, 3))
        truth = rng.normal(size=(5, 4, 3))
        uniform = assemble_lambda(np.ones(4), np.ones(5))
        weighted = float(loss_st(Tensor(pred), Tensor(truth), uniform).data)
        plain = float(loss_st(Tensor(pred), Tensor(truth)).data)
        assert abs(weighted - plain) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            loss_st(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((3, 2, 3))))


class TestLossVelocity:
    def test_zero_when_equal(self):
        x = np.random.default_rng(5).normal(size=(4, 2, 3))
        assert float(loss_velocity(Tensor(x), Tensor(x.copy())).data) == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        pred = rng.normal(size=(6, 3, 3))
        truth = rng.normal(size=(6, 3, 3))
        base = float(loss_velocity(Tensor(pred), Tensor(truth)).data)
        shifted = float(loss_velocity(Tensor(pred + 17.0), Tensor(truth)).data)
        assert abs(base - shifted) < 1e-12

    def test_two_frame_unit_motion(self):
        truth = np.zeros((2, 1, 3))
        truth[1, 0, 0] = 1.0
        pred = np.zeros((2, 1, 3))
        assert abs(float(loss_velocity(Tensor(pred), Tensor(truth)).data) - 1.0) < 1e-12

    def test_single_frame_rejected(self):
        with pytest.raises(DimensionError):
            loss_velocity(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 2, 3))))


class TestLossTotal:
    @pytest.fixture
    def toy(self):
        rng = np.random.default_rng(7)
        skeleton = synthetic_skeleton(2, 2)
        query_len, future_len = 2, 3
        pred = rng.normal(size=(5, 3, 3))
        truth = rng.normal(size=(5, 3, 3))
        return skeleton, query_len, future_len, pred, truth

    def test_zero_for_equal_inputs_all_configs(self, toy):
        skeleton, L, F, pred, _ = toy
        for config in (LossConfig(),
                       LossConfig(use_st_weights=False),
                       LossConfig(use_velocity=False),
                       LossConfig(reconstruct_query=False)):
            w = build_loss_weights(skeleton, L, F, config)
            value = float(loss_total(Tensor(pred), Tensor(pred.copy()),
                                     w, config, F).data)
            assert value == 0.0

    def test_additivity(self, toy):
        skeleton, L, F, pred, truth = toy
        config = LossConfig()
        w = build_loss_weights(skeleton, L, F, config)
        total = float(loss_total(Tensor(pred), Tensor(truth), w, config, F).data)
        parts = float(loss_st(Tensor(pred), Tensor(truth), w).data) + \
            float(loss_velocity(Tensor(pred), Tensor(truth)).data)
        assert abs(total - parts) < 1e-12

    def test_uses_the_table_it_is_given(self, toy):
        # build_loss_weights alone reads use_st_weights: a given table weighs
        skeleton, L, F, pred, truth = toy
        w = build_loss_weights(skeleton, L, F, LossConfig())
        flag_off = float(loss_total(Tensor(pred), Tensor(truth), w,
                                    LossConfig(use_st_weights=False), F).data)
        assert flag_off == float(loss_total(Tensor(pred), Tensor(truth), w,
                                            LossConfig(), F).data)
        assert build_loss_weights(skeleton, L, F, LossConfig(use_st_weights=False)) is None

    def test_future_only_matches_restricted_oracle(self, toy):
        skeleton, L, F, pred, truth = toy
        config = LossConfig(reconstruct_query=False)
        w = build_loss_weights(skeleton, L, F, config)
        got = float(loss_total(Tensor(pred), Tensor(truth), w, config, F).data)
        tail_pred, tail_truth = pred[-F:], truth[-F:]
        expect = float(loss_st(Tensor(tail_pred), Tensor(tail_truth), w).data) + \
            float(loss_velocity(Tensor(tail_pred), Tensor(tail_truth)).data)
        assert abs(got - expect) < 1e-12
        assert abs(w.sum() - skeleton.joint_count * F) < 1e-9

    def test_all_components_disabled(self, toy):
        skeleton, L, F, pred, truth = toy
        with pytest.raises(ConfigurationError):
            LossConfig(use_st=False, use_velocity=False)

    def test_gradient_matches_oracle(self, toy):
        skeleton, L, F, pred, truth = toy
        config = LossConfig()
        w = build_loss_weights(skeleton, L, F, config)
        pred_t = Tensor(pred, requires_grad=True)
        assert_gradients_match(
            lambda: loss_total(pred_t, Tensor(truth), w, config, F), [pred_t])

    def test_sqrt_subgradient_is_zero_where_poses_coincide(self, toy):
        skeleton, L, F, pred, _ = toy
        config = LossConfig()
        w = build_loss_weights(skeleton, L, F, config)
        pred_t = Tensor(pred, requires_grad=True)
        backward(loss_total(pred_t, Tensor(pred.copy()), w, config, F))
        assert np.array_equal(pred_t.grad, np.zeros_like(pred))
        # one joint off in one frame: finite everywhere, 0 away from its distances
        truth = pred.copy()
        truth[1, 2] += 5.0
        pred_t = Tensor(pred, requires_grad=True)
        backward(loss_total(pred_t, Tensor(truth), w, config, F))
        assert np.isfinite(pred_t.grad).all()
        assert np.array_equal(pred_t.grad[:, :2], np.zeros_like(pred[:, :2]))
        assert np.abs(pred_t.grad[1, 2]).max() > 0.0


class TestNormalizationInvariant:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_skeletons_and_windows(self, seed):
        rng = np.random.default_rng(seed)
        chains = int(rng.integers(1, 5))
        per_chain = int(rng.integers(2, 6))
        bone = float(rng.uniform(20.0, 400.0))
        skeleton = synthetic_skeleton(chains, per_chain, bone)
        L, F = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        form = "unit_final" if rng.random() < 0.5 else "zero_final"
        w = assemble_lambda(spatial_factors(skeleton),
                            temporal_factors(L, F, form))
        expected = skeleton.joint_count * (L + F)
        assert abs(w.sum() - expected) < 1e-9
        assert (w >= 0).all()
