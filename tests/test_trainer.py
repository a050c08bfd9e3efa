import dataclasses
import hashlib
import json
import struct
import tracemalloc
import types

import numpy as np
import pytest

from reference_ops import adam_step_reference
from motionrefine.data import (
    SYNTH_KINDS,
    SequenceDataset,
    SynthSpec,
    extract_windows,
    gen_synthetic,
)
from motionrefine.errors import ConfigurationError, DataError, DimensionError, FormatError
from motionrefine.kinematics import (
    PoseSequence,
    default_humanoid_skeleton,
    mpjpe_per_frame,
    synthetic_skeleton,
)
from motionrefine.losses import LossConfig, build_loss_weights
from motionrefine.model import (
    ModelConfig,
    init_model_params,
    model_forward,
    named_parameters,
    named_running_stats,
)
from motionrefine.tensor import Mode, Tensor, no_grad
from motionrefine.transforms import dct_basis
from motionrefine import attention as attention_module
from motionrefine import trainer as trainer_module
from motionrefine.attention import poses_to_channels
from motionrefine.trainer import (
    CKPT_HEADER_FIELDS,
    AdamState,
    OptimizerConfig,
    TrainSettings,
    adam_step,
    dataset_mpjpe,
    evaluate,
    frames_from_milliseconds,
    load_checkpoint,
    lr_schedule,
    predict_autoregressive,
    prediction_bytes,
    save_checkpoint,
    train,
    window_errors,
)


def tiny_dataset(seed_base=0, count=4, frames=40):
    skeleton = synthetic_skeleton(1, 3, 100.0)
    seqs = [gen_synthetic(skeleton, SynthSpec(kind="sinusoid", period=12.0,
                                              frames=frames, seed=seed_base + s))
            for s in range(count)]
    return SequenceDataset(skeleton, seqs, labels=["sinusoid"] * count)


def tiny_config(**overrides):
    base = dict(joints=3, history_len=14, query_len=4, future_len=4,
                stages=2, glb_pairs=1, latent_dim=12)
    base.update(overrides)
    return ModelConfig(**base)


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        params = {"p": p}
        state = AdamState(params)
        p.grad = np.zeros(2)
        adam_step(params, state, lr=0.01)
        assert np.array_equal(p.data, [1.5, -2.0])

    def test_first_step_moves_by_learning_rate(self):
        # hand-evaluated recurrence at t=1 with unit gradient:
        # m_hat = 1, v_hat = 1, step = -lr / (1 + eps)
        p = Tensor(np.array([0.3]), requires_grad=True)
        params = {"p": p}
        state = AdamState(params)
        p.grad = np.ones(1)
        adam_step(params, state, lr=0.005)
        assert abs(p.data[0] - (0.3 - 0.005 / (1.0 + 1e-8))) < 1e-15

    def test_missing_gradient_counts_as_zero(self):
        p = Tensor(np.array([4.0]), requires_grad=True)
        params = {"p": p}
        adam_step(params, AdamState(params), lr=0.1)
        assert p.data[0] == 4.0

    def test_shape_mismatch_is_rejected(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        params = {"p": p}
        state = AdamState(params)
        p.grad = np.zeros(4)
        with pytest.raises(DimensionError):
            adam_step(params, state, lr=0.1)


# parameter shapes -> the flat step must match the per-tensor recurrence bit for bit
FLAT_ADAM_CASES = {
    "mixed_with_scalar_and_empty": [(3, 4), (), (0,), (2, 0, 3), (5,), (1, 1, 7), (6, 2)],
    "larger_than_a_segment": [(7,), (150_000,), (3, 3), (400, 300)],
    "one_tensor": [(4, 5)],
}


def _twin_tables(shapes, rng):
    """Equal parameter tables for the flat step and for the reference, and the
    reference's zeroed state."""
    values = {f"p{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
    tables = [{name: Tensor(value.copy(), requires_grad=True) for name, value in values.items()}
              for _ in range(2)]
    state = types.SimpleNamespace(m={name: np.zeros_like(v) for name, v in values.items()},
                                  v={name: np.zeros_like(v) for name, v in values.items()},
                                  step=0)
    return tables, state


def _set_twin_grads(tables, rng, missing=0.3):
    """The same gradient on both twins: missing with probability ``missing``,
    and Fortran-ordered (so not C-contiguous) for half the matrices."""
    flat, ref = tables
    for name in flat:
        grad = None
        if rng.random() >= missing:
            grad = np.asarray(rng.normal(size=flat[name].shape))
            if grad.ndim > 1 and rng.random() < 0.5:
                grad = np.asfortranarray(grad)
        flat[name].grad = ref[name].grad = grad


def _assert_twins_equal(tables, state, ref_state):
    flat, ref = tables
    assert state.step == ref_state.step
    for name in flat:
        assert np.array_equal(flat[name].data, ref[name].data), name
        assert np.array_equal(state.m[name], ref_state.m[name]), name
        assert np.array_equal(state.v[name], ref_state.v[name]), name


class TestFlatAdam:
    @pytest.mark.parametrize("case", list(FLAT_ADAM_CASES))
    def test_equals_per_tensor_recurrence_bitwise(self, case):
        rng = np.random.default_rng(60)
        tables, ref_state = _twin_tables(FLAT_ADAM_CASES[case], rng)
        state = AdamState(tables[0])
        for _ in range(5):
            _set_twin_grads(tables, rng)
            adam_step(tables[0], state, 0.01)
            adam_step_reference(tables[1], ref_state, 0.01, trainer_module.BETA1,
                                trainer_module.BETA2, trainer_module.EPS)
        _assert_twins_equal(tables, state, ref_state)

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_per_tensor_recurrence_across_segment_edges(self, seed, monkeypatch):
        # segments of 8 values: runs of small parameters split at every edge, each
        # parameter of more than 8 values is updated in blocks of leading-axis
        # rows, and a row of more than 8 values is a block of its own
        monkeypatch.setattr(trainer_module, "_SEGMENT", 8)
        rng = np.random.default_rng(61 + seed)
        shapes = [tuple(rng.integers(0, 6, size=rng.integers(0, 4))) for _ in range(12)]
        tables, ref_state = _twin_tables(shapes, rng)
        state = AdamState(tables[0])
        assert len(state._segments) > 2
        for _ in range(5):
            _set_twin_grads(tables, rng)
            adam_step(tables[0], state, lr=0.005)
            adam_step_reference(tables[1], ref_state, lr=0.005)
        _assert_twins_equal(tables, state, ref_state)

    def test_parameters_and_moments_are_views_of_the_flat_vectors(self):
        rng = np.random.default_rng(62)
        values = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=()), "c": rng.normal(size=5)}
        params = {name: Tensor(value.copy(), requires_grad=True) for name, value in values.items()}
        state = AdamState(params)
        for name, p in params.items():
            assert np.array_equal(p.data, values[name])
            assert np.shares_memory(p.data, state.flat_p)
            assert np.shares_memory(state.m[name], state.flat_m)
            assert np.shares_memory(state.v[name], state.flat_v)

    def test_a_rebound_parameter_is_gathered_back(self):
        rng = np.random.default_rng(63)
        tables, ref_state = _twin_tables([(4, 3), (6,), (2, 2)], rng)
        state = AdamState(tables[0])
        assigned = rng.uniform(-1.0, 1.0, (6,))
        for table in tables:                # as a caller seeding weights assigns them
            table["p1"].data = assigned.copy()
        for _ in range(2):
            _set_twin_grads(tables, rng, missing=0.0)
            adam_step(tables[0], state, lr=0.01)
            adam_step_reference(tables[1], ref_state, lr=0.01)
        assert np.shares_memory(tables[0]["p1"].data, state.flat_p)
        _assert_twins_equal(tables, state, ref_state)

    def test_a_rebound_parameter_of_another_shape_is_rejected(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        state = AdamState({"p": p})
        p.data = np.zeros(4)
        with pytest.raises(DimensionError, match="optimizer state"):
            adam_step({"p": p}, state, lr=0.1)
        assert state.step == 0

    def test_shape_mismatch_moves_no_value(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        params = {"a": a, "b": b}
        state = AdamState(params)
        a.grad, b.grad = np.ones(2), np.ones(4)
        with pytest.raises(DimensionError):
            adam_step(params, state, lr=0.1)
        assert state.step == 0
        assert np.array_equal(state.flat_p, np.ones(5))
        assert not state.flat_m.any() and not state.flat_v.any()

    def test_empty_parameter_table(self):
        state = AdamState({})
        adam_step({}, state, lr=0.1)
        assert state.step == 1 and state.flat_p.size == 0

    def test_save_load_save_writes_identical_bytes(self, tmp_path):
        ds, cfg = tiny_dataset(), tiny_config()
        settings = TrainSettings(epochs=1, batch_size=4, seed=8, val_fraction=0.0)
        result = train(ds, cfg, LossConfig(), OptimizerConfig(), settings)
        first, second = tmp_path / "first.mckpt", tmp_path / "second.mckpt"
        save_checkpoint(first, result.params, result.adam, result.rng, result.epochs_run,
                        cfg, LossConfig(), OptimizerConfig(), settings.replay_fields(),
                        ds.skeleton)
        loaded = load_checkpoint(first)
        for name, tensor in named_parameters(loaded.params).items():
            assert np.shares_memory(tensor.data, loaded.adam.flat_p), name
        save_checkpoint(second, loaded.params, loaded.adam, loaded.rng, loaded.epoch,
                        cfg, LossConfig(), OptimizerConfig(), settings.replay_fields(),
                        ds.skeleton)
        assert first.read_bytes() == second.read_bytes()


def _owners(value, found: dict):
    """Every array that owns the memory of an array reachable from ``value``."""
    if isinstance(value, np.ndarray):
        while value.base is not None:
            value = value.base
        found[id(value)] = value
    elif isinstance(value, dict):
        for item in value.values():
            _owners(item, found)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _owners(item, found)
    return found


class TestAdamMemory:
    def test_reference_step_makes_no_full_size_temporary(self):
        # 1,793,096 parameters: one full-size float64 temporary is 14.3 MB
        config = ModelConfig(joints=22, history_len=50, query_len=10, future_len=10,
                             stages=3, glb_pairs=2, latent_dim=256)
        rng = np.random.default_rng(64)
        named = named_parameters(init_model_params(config, rng))
        state = AdamState(named)
        total = sum(t.data.size for t in named.values())
        # the state holds the three flat vectors and views of them, nothing more
        held = _owners(vars(state), {}).values()
        assert sorted(a.size for a in held) == [total] * 3
        # and no segment, so no scratch row, is larger than a segment's bound
        assert max(p.size for _, p, _, _ in state._segments) <= trainer_module._SEGMENT
        for tensor in named.values():
            # the convolution kernels' gradients are transposed views, as in training
            grad = rng.normal(size=tensor.shape[::-1])
            tensor.grad = grad.T if tensor.ndim == 3 else grad.reshape(tensor.shape)
        assert not all(t.grad.flags.c_contiguous for t in named.values())
        tracemalloc.start()
        try:
            adam_step(named, state, lr=0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, peak


class TestCheckpointMemory:
    def test_reference_load_reads_each_array_once(self, tmp_path, monkeypatch):
        # a 43.1 MB reference-config checkpoint, a 14.3 MB model and its 43.0 MB
        # of flat vectors: about 96 MiB when the payload is held once
        config = ModelConfig(joints=22, history_len=50, query_len=10, future_len=10,
                             stages=3, glb_pairs=2, latent_dim=256)
        rng = np.random.default_rng(65)
        params = init_model_params(config, rng)
        histories = rng.normal(size=(2, config.pose_dim, config.history_len))
        with no_grad():  # initialize the running statistics
            model_forward(params, Tensor(histories), config, dct_basis(config.window),
                          Mode.train(rng))
        path = tmp_path / "reference.mckpt"
        save_checkpoint(path, params, AdamState(named_parameters(params)), rng, 0, config,
                        LossConfig(), OptimizerConfig(), {}, default_humanoid_skeleton())
        del params
        files = []
        read_bytes = trainer_module.Path.read_bytes
        monkeypatch.setattr(trainer_module.Path, "read_bytes",
                            lambda self: files.append(read_bytes(self)) or files[-1])
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 110 * 2 ** 20, peak / 2 ** 20
        raw = np.frombuffer(files[0], dtype=np.uint8)
        stats = named_running_stats(loaded.params)
        assert stats and all(s.mean is not None for s in stats.values())
        for s in stats.values():
            for array in (s.mean, s.var):
                assert array.flags.writeable and not np.shares_memory(array, raw)


class TestLrSchedule:
    def test_epoch_zero_is_initial(self):
        assert lr_schedule(0, 0.005, 0.97) == 0.005

    def test_one_decay_step(self):
        assert abs(lr_schedule(1, 0.005, 0.97) - 0.00485) < 1e-12

    def test_alternate_decay_branch(self):
        assert abs(lr_schedule(2, 0.005, 0.98) - 0.005 * 0.98 ** 2) < 1e-15


class TestTrainLoop:
    def test_zero_epochs_returns_initialization(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        settings = TrainSettings(epochs=0, batch_size=4, seed=3, val_fraction=0.0)
        result = train(ds, cfg, LossConfig(), OptimizerConfig(), settings)
        fresh = init_model_params(cfg, np.random.default_rng(3))
        got = named_parameters(result.params)
        expect = named_parameters(fresh)
        assert all(np.array_equal(got[k].data, expect[k].data) for k in got)

    def test_same_seed_gives_identical_metrics(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        runs = []
        for _ in range(2):
            settings = TrainSettings(epochs=3, batch_size=4, seed=1, val_fraction=0.25)
            runs.append(train(ds, cfg, LossConfig(), OptimizerConfig(), settings).metrics)
        assert runs[0] == runs[1]

    def test_loss_decreases_on_short_run(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        settings = TrainSettings(epochs=8, batch_size=4, seed=0, val_fraction=0.0)
        metrics = train(ds, cfg, LossConfig(), OptimizerConfig(), settings).metrics
        assert metrics[-1]["train_loss"] < metrics[0]["train_loss"]

    def test_joint_mismatch_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(ConfigurationError):
            train(ds, tiny_config(joints=5), LossConfig())

    def test_no_windows_rejected(self):
        ds = tiny_dataset(frames=10)
        with pytest.raises(ConfigurationError, match="no training windows"):
            train(ds, tiny_config(), LossConfig(),
                  settings=TrainSettings(epochs=1, val_fraction=0.0))

    def test_non_finite_loss_aborts_with_batch_id(self, monkeypatch):
        ds = tiny_dataset()
        cfg = tiny_config()

        def poisoned(*args, **kwargs):
            return Tensor(np.nan, requires_grad=True)
        monkeypatch.setattr(trainer_module, "loss_total", poisoned)
        with pytest.raises(DataError, match=r"epoch 0, batch 0"):
            train(ds, cfg, LossConfig(),
                  settings=TrainSettings(epochs=1, batch_size=4, val_fraction=0.0))

    def test_train_loss_weighs_every_window_once(self, monkeypatch, overfit_fixture):
        dataset, config = overfit_fixture
        logged = []
        real = trainer_module.loss_total

        def logging(poses, truth, *args):
            loss = real(poses, truth, *args)
            logged.append((float(loss.data), truth.shape[0]))
            return loss
        monkeypatch.setattr(trainer_module, "loss_total", logging)
        # 168 windows in batches of 5: the last batch holds 3
        settings = TrainSettings(epochs=1, batch_size=5, seed=2, val_fraction=0.0)
        record = train(dataset, config, LossConfig(), OptimizerConfig(), settings).metrics[0]
        losses, counts = map(np.array, zip(*logged))
        assert counts.sum() == 168 and counts[-1] == 3
        expected = np.sum(losses * counts) / counts.sum()
        assert abs(record["train_loss"] - expected) <= 1e-12 * abs(expected)


class TestAutoregressive:
    @pytest.fixture
    def warm_model(self):
        """Params with batch-norm stats initialized by one training-mode pass."""
        cfg = tiny_config(future_len=10, history_len=20, query_len=4)
        params = init_model_params(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        history = rng.normal(size=(1, cfg.pose_dim, cfg.history_len))
        model_forward(params, Tensor(history), cfg, dct_basis(cfg.window), Mode.train(rng))
        return cfg, params

    def test_horizon_equal_to_future_len_is_single_pass(self, warm_model, monkeypatch):
        cfg, params = warm_model
        calls = self._count_forwards(monkeypatch)
        out = predict_autoregressive(self._history(cfg), params, cfg, 10)
        assert out.frames == 10 and calls["n"] == 1

    def test_horizon_25_takes_three_passes_and_truncates(self, warm_model, monkeypatch):
        cfg, params = warm_model
        calls = self._count_forwards(monkeypatch)
        out = predict_autoregressive(self._history(cfg), params, cfg, 25)
        assert out.frames == 25 and calls["n"] == 3

    def test_repeated_calls_bit_identical(self, warm_model):
        cfg, params = warm_model
        one = predict_autoregressive(self._history(cfg), params, cfg, 17)
        two = predict_autoregressive(self._history(cfg), params, cfg, 17)
        assert np.array_equal(one.coords, two.coords)

    def test_zero_horizon_is_valid_empty(self, warm_model):
        cfg, params = warm_model
        out = predict_autoregressive(self._history(cfg), params, cfg, 0)
        assert out.frames == 0

    def test_non_finite_prediction_raises_data_error(self, warm_model):
        cfg, params = warm_model
        params.refinement.stages[-1].output_gc.weights.data[:] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            predict_autoregressive(self._history(cfg), params, cfg, 15)

    def test_short_history_rejected(self, warm_model):
        cfg, params = warm_model
        short = PoseSequence(np.zeros((cfg.window - 1, cfg.joints, 3)))
        with pytest.raises(DimensionError):
            predict_autoregressive(short, params, cfg, 5)

    def test_each_pass_runs_a_batch_of_one(self, warm_model, monkeypatch):
        cfg, params = warm_model
        shapes = []
        real = trainer_module.model_forward

        def recording(params, histories, *args, **kwargs):
            shapes.append((histories.shape, kwargs["key_codes"].shape))
            return real(params, histories, *args, **kwargs)
        monkeypatch.setattr(trainer_module, "model_forward", recording)
        predict_autoregressive(self._history(cfg), params, cfg, 20)
        # 20 - 4 - 10 + 1 = 7 key windows, then 10 more
        assert shapes == [((1, cfg.pose_dim, 20), (1, cfg.latent_dim, 7)),
                          ((1, cfg.pose_dim, 30), (1, cfg.latent_dim, 17))]

    @pytest.mark.parametrize("mode", ["attention", "copy"])
    def test_unbatched_history_raises_before_any_statistic_moves(self, mode):
        # one history is a batch of one: a 2-D (pose_dim, frames) one is no layout
        cfg = tiny_config(future_len=10, history_len=20, query_len=4, attention_mode=mode)
        params = init_model_params(cfg, np.random.default_rng(0))
        history = np.random.default_rng(1).normal(size=(cfg.pose_dim, cfg.history_len))
        with pytest.raises(DimensionError):
            model_forward(params, Tensor(history), cfg, dct_basis(cfg.window),
                          Mode.train(np.random.default_rng(2)))
        assert not any(stats.initialized for stats in named_running_stats(params).values())

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_empty_batch_raises_before_any_statistic_moves(self, training):
        # a batch of no windows has no batch statistics to normalize by
        cfg = tiny_config(future_len=10, history_len=20, query_len=4)
        params = init_model_params(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        basis = dct_basis(cfg.window)
        with no_grad():     # running statistics for eval mode
            model_forward(params, Tensor(rng.normal(size=(2, cfg.pose_dim, cfg.history_len))),
                          cfg, basis, Mode.train(np.random.default_rng(2)))
        before = {name: (stats.mean.copy(), stats.var.copy())
                  for name, stats in named_running_stats(params).items()}
        mode = Mode.train(np.random.default_rng(3)) if training else Mode.eval()
        with no_grad(), pytest.raises(DimensionError, match="B >= 1"):
            model_forward(params, Tensor(np.zeros((0, cfg.pose_dim, cfg.history_len))), cfg,
                          basis, mode)
        after = named_running_stats(params)
        assert all(np.array_equal(after[name].mean, mean) and np.array_equal(after[name].var, var)
                   for name, (mean, var) in before.items())

    @staticmethod
    def _history(cfg):
        rng = np.random.default_rng(2)
        return PoseSequence(rng.normal(size=(cfg.history_len, cfg.joints, 3)))

    @staticmethod
    def _count_forwards(monkeypatch):
        calls = {"n": 0}
        real = trainer_module.model_forward

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(trainer_module, "model_forward", counting)
        return calls


class TestKeyCodeCache:
    """predict_autoregressive keeps the key codes of its history from pass to pass."""

    @staticmethod
    def _model(config):
        rng = np.random.default_rng(21)
        params = init_model_params(config, rng)
        # a fresh model repeats the last pose whatever its summary; random output
        # weights make every predicted frame depend on the attention
        for glm in params.refinement.stages:
            glm.output_gc.weights.data = rng.uniform(-1.0, 1.0, glm.output_gc.weights.shape)
        warmup = rng.normal(size=(4, config.pose_dim, config.history_len))
        model_forward(params, Tensor(warmup), config, dct_basis(config.window), Mode.train(rng))
        return params

    @staticmethod
    def _uncached_passes(history, params, config, horizon):
        channels = np.ascontiguousarray(poses_to_channels(history.coords[None]))
        with no_grad():
            while channels.shape[-1] < history.frames + horizon:
                out = model_forward(params, Tensor(channels), config, dct_basis(config.window),
                                    Mode.eval())
                future = out.prediction.data[..., -config.future_len:]
                channels = np.concatenate([channels, future], axis=-1)
        return channels[0, :, history.frames:history.frames + horizon]

    @pytest.mark.parametrize("frames", [20, 300])
    @pytest.mark.parametrize("mode", ["attention", "copy"])
    def test_matches_uncached_passes(self, frames, mode):
        config = tiny_config(history_len=20, query_len=10, future_len=10, latent_dim=16,
                             attention_mode=mode)
        params = self._model(config)
        rng = np.random.default_rng(frames)
        history = PoseSequence(10.0 * rng.normal(size=(frames, config.joints, 3)))
        cached = predict_autoregressive(history, params, config, 25)
        expected = self._uncached_passes(history, params, config, 25)
        assert cached.frames == 25
        assert np.abs(poses_to_channels(cached.coords) - expected).max() < 1e-9

    def test_reference_config_encodes_each_key_window_once(self, monkeypatch):
        config = ModelConfig(joints=22)
        params = self._model(config)
        encoded = {"windows": 0}
        real = attention_module.encode_span

        def counting(net, span):
            codes = real(net, span)
            if net is params.attention.key_net:
                encoded["windows"] += codes.shape[-1]
            return codes
        for module in (attention_module, trainer_module):
            monkeypatch.setattr(module, "encode_span", counting)
        history = PoseSequence(np.random.default_rng(3).normal(size=(50, 22, 3)))
        predict_autoregressive(history, params, config, 200)
        # 31 windows in the first pass, then future_len new ones in each of 19
        # more; re-encoding every pass would take 31 + 41 + ... + 221 = 2520
        assert encoded["windows"] == 31 + 19 * 10

    def test_each_pass_takes_the_encoder_or_concatenate_output(self, monkeypatch):
        # a prediction's bits depend on the codes' memory layout: the first
        # pass takes encode_span's own output, each later one np.concatenate's
        config = tiny_config(history_len=20, query_len=10, future_len=10, latent_dim=16)
        params = self._model(config)
        encoded, passed = [], []
        real_encode, real_forward = trainer_module.encode_span, trainer_module.model_forward

        def encoding(net, span):
            encoded.append(real_encode(net, span))
            return encoded[-1]

        def forward(*args, key_codes):
            passed.append(key_codes)
            return real_forward(*args, key_codes=key_codes)
        monkeypatch.setattr(trainer_module, "encode_span", encoding)
        monkeypatch.setattr(trainer_module, "model_forward", forward)
        history = PoseSequence(np.random.default_rng(4).normal(size=(30, config.joints, 3)))
        predict_autoregressive(history, params, config, 30)
        assert [codes.shape for codes in passed] == [(1, 16, 11), (1, 16, 21), (1, 16, 31)]
        assert passed[0] is encoded[0].data
        for earlier, fresh, codes in zip(passed, encoded[1:], passed[1:]):
            expected = np.concatenate([earlier, fresh.data], axis=-1)
            assert codes.strides == expected.strides and np.array_equal(codes, expected)

    @pytest.mark.parametrize("horizon", [800, 1600])
    def test_reference_peak_stays_within_prediction_bytes(self, horizon):
        # 4.4 and 7.9 MiB against figures of 4.6 and 8.9 MiB (tracemalloc,
        # numpy 64-bit); the history, the key codes and the output grow
        config = ModelConfig(joints=22)
        params = self._model(config)
        history = PoseSequence(np.random.default_rng(3).normal(size=(50, 22, 3)))
        tracemalloc.start()
        try:
            predict_autoregressive(history, params, config, horizon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= prediction_bytes(config, history.frames, horizon)


class TestEvaluate:
    def test_millisecond_mapping_at_25fps(self):
        assert frames_from_milliseconds([80, 400, 1000], 25.0, 25) == [2, 10, 25]

    def test_non_integral_mapping_names_offender(self):
        with pytest.raises(ConfigurationError, match="90"):
            frames_from_milliseconds([90], 25.0, 25)

    def test_out_of_range_mark(self):
        with pytest.raises(ConfigurationError):
            frames_from_milliseconds([1000], 25.0, 10)

    def test_static_dataset_zero_motion_model_scores_zero(self):
        skeleton = synthetic_skeleton(1, 3, 100.0)
        static = [gen_synthetic(skeleton, SynthSpec(amplitude=0.0, frames=30, seed=s))
                  for s in range(2)]
        ds = SequenceDataset(skeleton, static, labels=["static"] * 2)
        cfg = tiny_config()
        params = init_model_params(cfg, np.random.default_rng(0))
        # one training pass initializes batch-norm running stats
        windows = extract_windows(ds, cfg.history_len, cfg.future_len)
        hist = np.stack([windows[0].history]).reshape(1, cfg.history_len, -1)
        model_forward(params, Tensor(hist.transpose(0, 2, 1)), cfg, dct_basis(cfg.window),
                      Mode.train(np.random.default_rng(1)))
        record = evaluate(ds, params, cfg, [40, 160], stride=3)
        assert max(record["mpjpe"]) < 1e-9
        assert record["per_action"]["static"]["mpjpe"][0] < 1e-9

    def test_stage_rows_and_loss(self, overfit_fixture):
        dataset, config = overfit_fixture
        params = init_model_params(config, np.random.default_rng(0))
        windows = extract_windows(dataset, config.history_len, config.future_len)
        hist = np.stack([windows[0].history]).reshape(1, config.history_len, -1)
        model_forward(params, Tensor(hist.transpose(0, 2, 1)), config,
                      dct_basis(config.window), Mode.train(np.random.default_rng(1)))
        record = evaluate(dataset, params, config, [40, 200], stride=5,
                          per_stage=True, loss_config=LossConfig())
        assert len(record["stage_mpjpe"]) == config.stages + 1
        assert "mean_loss" in record
        # an untrained model equals the repeat-last-pose baseline at every stage
        assert np.allclose(record["stage_mpjpe"][0], record["stage_mpjpe"][-1],
                           atol=1e-6)


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config()
        settings = TrainSettings(epochs=2, batch_size=4, seed=5, val_fraction=0.0)
        result = train(ds, cfg, LossConfig(), OptimizerConfig(), settings)
        path = tmp_path / "model.mckpt"
        save_checkpoint(path, result.params, result.adam, result.rng, result.epochs_run,
                        cfg, LossConfig(), OptimizerConfig(), settings.replay_fields(),
                        ds.skeleton)
        loaded = load_checkpoint(path)
        assert loaded.epoch == 2
        assert loaded.model_config == cfg
        assert loaded.skeleton == ds.skeleton
        a = named_parameters(result.params)
        b = named_parameters(loaded.params)
        assert all(np.array_equal(a[k].data, b[k].data) for k in a)
        assert all(np.array_equal(result.adam.m[k], loaded.adam.m[k]) for k in a)
        assert loaded.rng.bit_generator.state == result.rng.bit_generator.state

    def test_resume_replays_bit_identically(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config()

        straight = train(ds, cfg, LossConfig(), OptimizerConfig(),
                         TrainSettings(epochs=5, batch_size=4, seed=2, val_fraction=0.0))

        first = train(ds, cfg, LossConfig(), OptimizerConfig(),
                      TrainSettings(epochs=3, batch_size=4, seed=2, val_fraction=0.0))
        path = tmp_path / "mid.mckpt"
        save_checkpoint(path, first.params, first.adam, first.rng, first.epochs_run,
                        cfg, LossConfig(), OptimizerConfig(),
                        first.settings.replay_fields(), ds.skeleton)
        resumed = train(ds, cfg, LossConfig(), OptimizerConfig(),
                        TrainSettings(epochs=5, batch_size=4, seed=2, val_fraction=0.0),
                        resume=load_checkpoint(path))

        a = named_parameters(straight.params)
        b = named_parameters(resumed.params)
        assert all(np.array_equal(a[k].data, b[k].data) for k in a)

    def test_corrupt_payload_detected(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config()
        result = train(ds, cfg, LossConfig(), OptimizerConfig(),
                       TrainSettings(epochs=1, batch_size=4, seed=0, val_fraction=0.0))
        path = tmp_path / "model.mckpt"
        save_checkpoint(path, result.params, result.adam, result.rng, 1, cfg,
                        LossConfig(), OptimizerConfig(),
                        result.settings.replay_fields(), ds.skeleton)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="hash"):
            load_checkpoint(path)

    @pytest.fixture(scope="class")
    def checkpoint_bytes(self, tmp_path_factory):
        ds = tiny_dataset()
        cfg = tiny_config()
        result = train(ds, cfg, LossConfig(), OptimizerConfig(),
                       TrainSettings(epochs=1, batch_size=4, seed=0, val_fraction=0.0))
        path = tmp_path_factory.mktemp("ckpt") / "model.mckpt"
        save_checkpoint(path, result.params, result.adam, result.rng, 1, cfg,
                        LossConfig(), OptimizerConfig(),
                        result.settings.replay_fields(), ds.skeleton)
        return path.read_bytes()

    @staticmethod
    def _split(blob: bytes):
        (header_len,) = struct.unpack("<I", blob[8:12])
        return blob[:8], blob[12:12 + header_len], blob[12 + header_len:]

    @pytest.mark.parametrize("edit", ["non_utf8", "non_json"])
    def test_unreadable_header_raises_format_error(self, checkpoint_bytes, tmp_path, edit):
        magic, header, payload = self._split(checkpoint_bytes)
        header = (header[:5] + b"\xff" + header[6:] if edit == "non_utf8"
                  else b"x" + header[1:])
        path = tmp_path / "bad.mckpt"
        path.write_bytes(magic + struct.pack("<I", len(header)) + header + payload)
        with pytest.raises(FormatError, match="header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("prefix, suffix", [
        ("adam.m.", ""), ("adam.v.", ""), ("stats.", ".var"),
    ])
    def test_missing_state_array_raises_format_error(self, checkpoint_bytes, tmp_path,
                                                     prefix, suffix):
        magic, header, payload = self._split(checkpoint_bytes)
        meta = json.loads(header)
        offset, kept, chunks = 0, [], []
        missing = None
        for entry in meta["arrays"]:
            size = 8 * int(np.prod(entry["shape"]))
            name = entry["name"]
            if missing is None and name.startswith(prefix) and name.endswith(suffix):
                missing = name
            else:
                kept.append(entry)
                chunks.append(payload[offset:offset + size])
            offset += size
        payload = b"".join(chunks)
        meta["arrays"] = kept
        meta["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        header = json.dumps(meta).encode("utf-8")
        path = tmp_path / "bad.mckpt"
        path.write_bytes(magic + struct.pack("<I", len(header)) + header + payload)
        with pytest.raises(FormatError, match=f"missing array {missing}"):
            load_checkpoint(path)

    # (array, value written over its first entry): a parameter and a running
    # mean that are not finite, and running variances below 0
    @pytest.mark.parametrize("key, value", [
        ("param.refine.stage0.block1.weights", np.nan),
        ("stats.refine.stage1.block0.mean", np.inf),
        ("stats.refine.stage0.block2.var", -np.inf),
        ("stats.refine.stage0.block0.var", -1.0),
    ])
    def test_invalid_value_raises_format_error_naming_the_array(self, checkpoint_bytes,
                                                                tmp_path, key, value):
        magic, header, payload = self._split(checkpoint_bytes)
        meta = json.loads(header)
        offset = 0
        for entry in meta["arrays"]:
            if entry["name"] == key:
                break
            offset += 8 * int(np.prod(entry["shape"]))
        payload = payload[:offset] + struct.pack("<d", value) + payload[offset + 8:]
        meta["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        header = json.dumps(meta).encode("utf-8")
        path = tmp_path / "bad.mckpt"
        path.write_bytes(magic + struct.pack("<I", len(header)) + header + payload)
        problem = "negative variance" if value == -1.0 else "non-finite value"
        with pytest.raises(FormatError, match=f"array {key} holds a {problem}"):
            load_checkpoint(path)

    # a width-1 pair broadcasts over every channel, a width-2 one over none
    @pytest.mark.parametrize("width", [1, 2])
    def test_running_statistics_of_another_width_raise_format_error(self, checkpoint_bytes,
                                                                    tmp_path, width):
        path = tmp_path / "bad.mckpt"
        path.write_bytes(checkpoint_bytes)
        ckpt = load_checkpoint(path)
        stats = named_running_stats(ckpt.params)["refine.stage1.block2"]
        stats.mean, stats.var = stats.mean[:width], stats.var[:width]
        save_checkpoint(path, ckpt.params, ckpt.adam, ckpt.rng, ckpt.epoch, ckpt.model_config,
                        ckpt.loss_config, ckpt.optimizer_config, ckpt.replay_settings,
                        ckpt.skeleton)
        with pytest.raises(FormatError, match=rf"array stats.refine.stage1.block2.mean has "
                                              rf"shape \({width},\), expected \(12,\)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", CKPT_HEADER_FIELDS)
    def test_missing_header_field_raises_format_error(self, checkpoint_bytes, tmp_path,
                                                      field):
        magic, header, payload = self._split(checkpoint_bytes)
        meta = json.loads(header)
        del meta[field]
        header = json.dumps(meta).encode("utf-8")
        path = tmp_path / "bad.mckpt"
        path.write_bytes(magic + struct.pack("<I", len(header)) + header + payload)
        with pytest.raises(FormatError, match=f"lacks field.*{field}"):
            load_checkpoint(path)

    def _rewrite_header(self, checkpoint_bytes, tmp_path, edit):
        magic, header, payload = self._split(checkpoint_bytes)
        meta = json.loads(header)
        edit(meta)
        header = json.dumps(meta).encode("utf-8")
        path = tmp_path / "bad.mckpt"
        path.write_bytes(magic + struct.pack("<I", len(header)) + header + payload)
        return path

    @pytest.mark.parametrize("field, value", [
        ("payload_sha256", 7), ("arrays", {}), ("arrays", [{"name": "x", "shape": [-1]}]),
        ("model_config", []), ("skeleton", None), ("adam_step", 1.5), ("adam_step", True),
        ("epoch", -1), ("rng_state", "pcg"), ("replay_settings", 3), ("config_hash", 0),
        ("version", "x"), ("version", 4), ("version", True),
    ])
    def test_mistyped_header_field_raises_format_error(self, checkpoint_bytes, tmp_path,
                                                       field, value):
        path = self._rewrite_header(checkpoint_bytes, tmp_path,
                                    lambda meta: meta.update({field: value}))
        with pytest.raises(FormatError, match=f"field.*{field}.*wrong type"):
            load_checkpoint(path)

    # (config section, key, edit): a missing, an unknown and a mistyped key each
    CONFIG_EDITS = [
        ("model_config", "joints", lambda c: c.pop("joints")),
        ("model_config", "joints", lambda c: c.update(joints="four")),
        ("model_config", "dropout", lambda c: c.update(dropout=True)),
        ("model_config", "attention_mode", lambda c: c.update(attention_mode=1)),
        ("model_config", "width", lambda c: c.update(width=3)),
        ("model_config", "stages", lambda c: c.update(stages=0)),
        ("loss_config", "temporal_form", lambda c: c.pop("temporal_form")),
        ("loss_config", "spatial_floor", lambda c: c.update(spatial_floor="0.1")),
        ("optimizer_config", "momentum", lambda c: c.update(momentum=0.5)),
        ("optimizer_config", "lr", lambda c: c.update(lr=None)),
    ]

    @pytest.mark.parametrize("section, key, edit", CONFIG_EDITS)
    def test_bad_config_key_raises_format_error(self, checkpoint_bytes, tmp_path,
                                                section, key, edit):
        path = self._rewrite_header(checkpoint_bytes, tmp_path,
                                    lambda meta: edit(meta[section]))
        with pytest.raises(FormatError, match=f"{section}.*{key}"):
            load_checkpoint(path)

    # format -> header object -> the fields that format dropped, at the values
    # every older writer wrote
    DROPPED = {
        2: {"model_config": {"use_summary": True, "supervise_stages": False,
                             "attention_bias": True, "bn_eps": 1e-5, "bn_momentum": 0.1}},
        3: {"optimizer_config": {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
            "replay_settings": {"window_stride": 1}},
    }

    def _older(self, checkpoint_bytes, tmp_path, version, section=None, **changes):
        """The checkpoint as a version-``version`` writer wrote it, with
        ``changes`` to header object ``section``."""
        def edit(meta):
            meta["version"] = version
            for dropped_by, objects in self.DROPPED.items():
                if version < dropped_by:
                    for field, olds in objects.items():
                        meta[field].update(olds)
            if section is not None:
                meta[section].update(changes)
            meta["config_hash"] = "0" * 64  # an older hash covers the dropped fields too
        return self._rewrite_header(checkpoint_bytes, tmp_path, edit)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_format_checkpoint_resumes_bit_identically(self, checkpoint_bytes, tmp_path,
                                                             version):
        ds, cfg = tiny_dataset(), tiny_config()
        settings = TrainSettings(epochs=3, batch_size=4, seed=0, val_fraction=0.0)
        straight = train(ds, cfg, LossConfig(), OptimizerConfig(), settings)
        ckpt = load_checkpoint(self._older(checkpoint_bytes, tmp_path, version))
        assert ckpt.model_config == cfg and ckpt.epoch == 1
        assert ckpt.optimizer_config == OptimizerConfig()
        assert ckpt.replay_settings == settings.replay_fields()
        resumed = train(ds, cfg, LossConfig(), OptimizerConfig(), settings, resume=ckpt)
        a = named_parameters(straight.params)
        b = named_parameters(resumed.params)
        assert all(np.array_equal(a[k].data, b[k].data) for k in a)

    @pytest.mark.parametrize("key, value", [
        ("use_summary", False), ("supervise_stages", True), ("attention_bias", 1),
        ("bn_eps", 1e-3), ("bn_momentum", None),
    ])
    def test_format1_non_default_field_raises_format_error(self, checkpoint_bytes, tmp_path,
                                                           key, value):
        path = self._older(checkpoint_bytes, tmp_path, 1, "model_config", **{key: value})
        with pytest.raises(FormatError, match=f"model_config.*{key}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("section, key, value", [
        ("optimizer_config", "beta1", 0.8), ("optimizer_config", "beta2", 0.99),
        ("optimizer_config", "eps", 1e-6), ("replay_settings", "window_stride", 2),
    ])
    def test_format2_non_default_field_raises_format_error(self, checkpoint_bytes, tmp_path,
                                                           section, key, value):
        path = self._older(checkpoint_bytes, tmp_path, 2, section, **{key: value})
        with pytest.raises(FormatError, match=f"{section}: version-2 field {key} is"):
            load_checkpoint(path)

    def test_bad_rng_state_raises_format_error(self, checkpoint_bytes, tmp_path):
        path = self._rewrite_header(checkpoint_bytes, tmp_path,
                                    lambda meta: meta.update(rng_state={"bit_generator": "PCG64"}))
        with pytest.raises(FormatError, match="rng_state"):
            load_checkpoint(path)

    def test_resume_under_different_config_rejected(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config()
        result = train(ds, cfg, LossConfig(), OptimizerConfig(),
                       TrainSettings(epochs=1, batch_size=4, seed=0, val_fraction=0.0))
        path = tmp_path / "model.mckpt"
        save_checkpoint(path, result.params, result.adam, result.rng, 1, cfg,
                        LossConfig(), OptimizerConfig(),
                        result.settings.replay_fields(), ds.skeleton)
        ckpt = load_checkpoint(path)
        with pytest.raises(ConfigurationError):
            train(ds, cfg, LossConfig(use_velocity=False), OptimizerConfig(),
                  TrainSettings(epochs=2, batch_size=4, seed=0, val_fraction=0.0),
                  resume=ckpt)


def test_dataset_mpjpe_matches_manual_average(overfit_fixture):
    dataset, config = overfit_fixture
    params = init_model_params(config, np.random.default_rng(4))
    windows = extract_windows(dataset, config.history_len, config.future_len)[:6]
    basis = dct_basis(config.window)
    hist = np.stack([w.history for w in windows]).reshape(len(windows),
                                                          config.history_len, -1)
    model_forward(params, Tensor(hist.transpose(0, 2, 1)), config, basis,
                  Mode.train(np.random.default_rng(0)))
    got = dataset_mpjpe(windows, params, config, batch_size=4)
    # the untrained model repeats the last observed pose
    manual = np.mean([
        np.linalg.norm(np.repeat(w.history[-1:], config.future_len, axis=0) - w.target,
                       axis=-1).mean() for w in windows])
    assert abs(got - manual) < 1e-9


class TestWindowErrors:
    """The single evaluation pass and the figures derived from it."""

    @pytest.fixture
    def model(self, overfit_fixture):
        dataset, config = overfit_fixture
        rng = np.random.default_rng(3)
        params = init_model_params(config, rng)
        for glm in params.refinement.stages:  # nonzero output convs: every stage moves
            glm.output_gc.weights.data = rng.normal(scale=0.05,
                                                    size=glm.output_gc.weights.shape)
        windows = extract_windows(dataset, config.history_len, config.future_len, stride=3)
        hist = np.stack([w.history for w in windows[:4]]).reshape(4, config.history_len, -1)
        model_forward(params, Tensor(hist.transpose(0, 2, 1)), config,
                      dct_basis(config.window), Mode.train(rng))  # batch-norm statistics
        return dataset, config, params, windows

    def test_copy_mode_runs_no_key_net(self, model, monkeypatch):
        dataset, config, params, windows = model
        copy = dataclasses.replace(config, attention_mode="copy")
        weights = build_loss_weights(dataset.skeleton, config.query_len, config.future_len,
                                     LossConfig())
        calls = []
        real = trainer_module.encode_span

        def counting(net, span):
            calls.append(net)
            return real(net, span)
        monkeypatch.setattr(trainer_module, "encode_span", counting)
        errors, loss = window_errors(windows, params, copy, 4, LossConfig(), weights)
        assert calls == []
        # a model without attention parameters gives the same figures
        without = dataclasses.replace(params, attention=None)
        expected, expected_loss = window_errors(windows, without, copy, 4, LossConfig(),
                                                weights)
        assert np.array_equal(errors, expected) and loss == expected_loss

    def test_stage_major_layout_with_baseline_as_stage_zero(self, model):
        _, config, params, windows = model
        errors, mean_loss = window_errors(windows, params, config, batch_size=4)
        assert errors.shape == (config.stages + 1, len(windows), config.future_len)
        assert errors[1].flags["C_CONTIGUOUS"] and mean_loss is None
        baseline = np.stack([
            mpjpe_per_frame(np.repeat(w.history[-1:], config.future_len, axis=0), w.target)
            for w in windows])
        assert np.array_equal(errors[0], baseline)
        assert not np.allclose(errors[-1], errors[0])

    def test_stage_rows_are_the_stage_outputs_future_errors(self, model):
        # against one forward of every window: poses of the whole window, then
        # its future frames (the batched pass's key codes may differ in ULPs)
        _, config, params, windows = model
        errors, _ = window_errors(windows, params, config, batch_size=4)
        histories = np.stack([w.history for w in windows]).reshape(
            len(windows), config.history_len, -1)
        with no_grad():
            out = model_forward(params, Tensor(histories.transpose(0, 2, 1)), config,
                                dct_basis(config.window), Mode.eval())
        targets = np.stack([w.target for w in windows])
        assert len(out.stage_outputs) == config.stages
        for n, stage in enumerate(out.stage_outputs, start=1):
            poses = stage.data.transpose(0, 2, 1).reshape(
                len(windows), config.window, config.joints, 3)
            expected = mpjpe_per_frame(poses[:, config.query_len:], targets)
            assert np.allclose(errors[n], expected, rtol=1e-9, atol=0.0)

    def test_dataset_mpjpe_is_the_final_stage_mean(self, model):
        _, config, params, windows = model
        errors, _ = window_errors(windows, params, config, batch_size=4)
        assert dataset_mpjpe(windows, params, config, batch_size=4) == errors[-1].mean()

    def test_last_stage_row_is_the_mpjpe_row(self, model):
        dataset, config, params, windows = model
        record = evaluate(dataset, params, config, [40, 200], stride=3, per_stage=True,
                          loss_config=LossConfig())
        assert record["stage_mpjpe"][-1] == record["mpjpe"]
        weights = build_loss_weights(dataset.skeleton, config.query_len, config.future_len,
                                     LossConfig())
        errors, mean_loss = window_errors(windows, params, config, loss_config=LossConfig(),
                                          loss_weights=weights)
        assert record["stage_overall"] == [float(stage.mean()) for stage in errors]
        assert record["mean_loss"] == mean_loss

    def test_mean_loss_does_not_depend_on_the_batch_size(self, overfit_fixture):
        dataset, config = overfit_fixture
        windows = extract_windows(dataset, config.history_len, config.future_len)
        params = _warm_model(config, 8, windows)
        weights = build_loss_weights(dataset.skeleton, config.query_len, config.future_len,
                                     LossConfig())
        # 168 windows: 50 and 64 leave a short last batch
        losses = [window_errors(windows, params, config, batch_size, LossConfig(), weights)[1]
                  for batch_size in (len(windows), 1, 7, 50, 64)]
        assert all(abs(loss - losses[0]) <= 1e-12 * abs(losses[0]) for loss in losses)

    def test_reference_record_does_not_depend_on_the_batch_size(self):
        # the eval_ref bench corpus's shape: 4 sequences of 91 frames, 128 windows,
        # two batches of 64 or 128 of one
        config = ModelConfig(joints=22)
        dataset = _humanoid_corpus(3, 91)
        params = _warm_model(config, 3, extract_windows(dataset, config.history_len,
                                                        config.future_len))
        one, full = (evaluate(dataset, params, config, [40, 200, 400], per_stage=True,
                              batch_size=batch_size) for batch_size in (1, 64))
        assert one == full

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_a_configuration_error(self, model, batch_size):
        dataset, config, params, windows = model
        for call in (lambda: window_errors(windows, params, config, batch_size),
                     lambda: dataset_mpjpe(windows, params, config, batch_size),
                     lambda: evaluate(dataset, params, config, [40], batch_size=batch_size)):
            with pytest.raises(ConfigurationError, match="batch_size"):
                call()


def _humanoid_corpus(seed, frames):
    """Four seeded synthetic sequences of ``frames`` frames on the 22-joint humanoid."""
    skeleton = default_humanoid_skeleton()
    rng = np.random.default_rng(seed)
    return SequenceDataset(skeleton, [gen_synthetic(skeleton, SynthSpec(
        kind=SYNTH_KINDS[i % 3], amplitude=rng.uniform(50.0, 150.0),
        period=rng.uniform(12.0, 32.0), frames=frames, seed=seed + i)) for i in range(4)])


def _warm_model(config, seed, windows):
    """Seeded parameters with random output convs and batch-norm statistics."""
    rng = np.random.default_rng(seed)
    params = init_model_params(config, rng)
    for glm in params.refinement.stages:
        glm.output_gc.weights.data = rng.uniform(-1.0, 1.0, glm.output_gc.weights.shape)
    hist = np.stack([w.history for w in windows[:32]])
    model_forward(params, Tensor(hist.reshape(len(hist), config.history_len, -1)
                                 .transpose(0, 2, 1)),
                  config, dct_basis(config.window), Mode.train(rng))
    return params


class TestSharedKeyCodes:
    """window_errors encodes each run of a sequence's windows once per batch."""

    @staticmethod
    def _both_passes(monkeypatch, windows, params, config, batch_size, weights):
        """(shared-code result, per-window result) of one window_errors call."""
        shared = window_errors(windows, params, config, batch_size, LossConfig(), weights)
        with monkeypatch.context() as patch:
            patch.setattr(trainer_module, "_shared_key_codes", lambda *args: None)
            alone = window_errors(windows, params, config, batch_size, LossConfig(), weights)
        return shared, alone

    # the sequence lengths of the eval_ref (91) and train_ref (67) bench corpora
    @pytest.mark.parametrize("frames", [91, 67])
    @pytest.mark.parametrize("seed", [0, 4, 17])
    @pytest.mark.parametrize("stride", [1, 3, 12])
    def test_reference_config_equals_per_window_pass_bitwise(self, monkeypatch, frames,
                                                             seed, stride):
        config = ModelConfig(joints=22)
        dataset = _humanoid_corpus(seed, frames)
        windows = extract_windows(dataset, config.history_len, config.future_len, stride)
        params = _warm_model(config, seed, windows)
        weights = build_loss_weights(dataset.skeleton, config.query_len, config.future_len,
                                     LossConfig())
        # 64 and 32 mix sequences in one batch, 7 splits runs across batch edges
        for batch_size in (64, 32, 7):
            (errors, loss), (expected, expected_loss) = self._both_passes(
                monkeypatch, windows, params, config, batch_size, weights)
            assert np.array_equal(errors, expected) and loss == expected_loss

    # not bitwise here: OpenBLAS picks another GEMM kernel for the key net's
    # small convs once a call has about 40 rows, which the timeline reaches
    @pytest.mark.parametrize("seed", [0, 4, 17])
    @pytest.mark.parametrize("stride", [1, 3, 12])
    def test_small_config_agrees_with_per_window_pass(self, monkeypatch, overfit_fixture,
                                                      seed, stride):
        dataset, config = overfit_fixture
        windows = extract_windows(dataset, config.history_len, config.future_len, stride)
        params = _warm_model(config, seed, windows)
        weights = build_loss_weights(dataset.skeleton, config.query_len, config.future_len,
                                     LossConfig())
        for batch_size in (64, 32, 7):
            (errors, loss), (expected, expected_loss) = self._both_passes(
                monkeypatch, windows, params, config, batch_size, weights)
            assert np.abs(errors - expected).max() <= 1e-12 * np.abs(expected).max()
            assert abs(loss - expected_loss) <= 1e-12 * abs(expected_loss)

    @staticmethod
    def _key_codes_passed(monkeypatch):
        passed = []
        real = trainer_module.model_forward

        def recording(*args, key_codes=None, **kwargs):
            passed.append(key_codes)
            return real(*args, key_codes=key_codes, **kwargs)
        monkeypatch.setattr(trainer_module, "model_forward", recording)
        return passed

    def test_key_net_runs_once_per_batch_on_fewer_windows(self, monkeypatch,
                                                          overfit_fixture):
        dataset, config = overfit_fixture
        windows = extract_windows(dataset, config.history_len, config.future_len)
        params = _warm_model(config, 5, windows)
        encoded = []
        real = attention_module.encode_span

        def counting(net, span):
            codes = real(net, span)
            if net is params.attention.key_net:
                encoded.append(codes.shape[-1])
            return codes
        monkeypatch.setattr(attention_module, "encode_span", counting)
        monkeypatch.setattr(trainer_module, "encode_span", counting)
        passed = self._key_codes_passed(monkeypatch)
        window_errors(windows, params, config, batch_size=64)
        count = config.history_len - config.window + 1
        sizes = [len(windows[start:start + 64]) for start in range(0, len(windows), 64)]
        assert len(encoded) == len(sizes) == len(passed) == 3
        assert all(n < size * count for n, size in zip(encoded, sizes))
        assert [codes.shape for codes in passed] == [
            (size, config.latent_dim, count) for size in sizes]

    def test_stride_beyond_the_key_count_still_shares_key_codes(self, monkeypatch,
                                                                overfit_fixture):
        dataset, config = overfit_fixture
        count = config.history_len - config.window + 1
        windows = extract_windows(dataset, config.history_len, config.future_len,
                                  stride=count + 1)
        params = _warm_model(config, 6, windows)
        weights = build_loss_weights(dataset.skeleton, config.query_len, config.future_len,
                                     LossConfig())
        passed = self._key_codes_passed(monkeypatch)
        for batch_size in (64, 7):
            passed.clear()
            (errors, loss), (expected, expected_loss) = self._both_passes(
                monkeypatch, windows, params, config, batch_size, weights)
            sizes = [len(windows[start:start + batch_size])
                     for start in range(0, len(windows), batch_size)]
            # the shared pass's calls, then the per-window reference's
            assert [np.shape(codes) for codes in passed] == [
                (size, config.latent_dim, count) for size in sizes] + [()] * len(sizes)
            assert np.abs(errors - expected).max() <= 1e-12 * np.abs(expected).max()
            assert abs(loss - expected_loss) <= 1e-12 * abs(expected_loss)

    def test_copy_mode_never_calls_the_key_net(self, monkeypatch, overfit_fixture):
        dataset, config = overfit_fixture
        config = dataclasses.replace(config, attention_mode="copy")
        windows = extract_windows(dataset, config.history_len, config.future_len)
        params = _warm_model(config, 7, windows)

        def refuse(net, span):
            raise AssertionError("copy mode encoded a span")
        monkeypatch.setattr(attention_module, "encode_span", refuse)
        monkeypatch.setattr(trainer_module, "encode_span", refuse)
        passed = self._key_codes_passed(monkeypatch)
        errors, _ = window_errors(windows, params, config, batch_size=64)
        assert np.isfinite(errors).all() and all(codes is None for codes in passed)
