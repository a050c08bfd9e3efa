"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import time

import numpy as np

from gradcheck import assert_gradients_match
from reference_ops import batchnorm, relu, tanh
from motionrefine.attention import init_attention_params, summarize_history
from motionrefine.data import SequenceDataset, SynthSpec, extract_windows, gen_synthetic
from motionrefine.kinematics import PoseSequence, synthetic_skeleton
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
from motionrefine.model import (
    ModelConfig,
    init_model_params,
    model_forward,
    named_parameters,
)
from motionrefine.refinement import (
    graph_conv,
    graph_learning_block,
    glm_forward,
    init_refinement_params,
    pad_query,
    refine,
)
from motionrefine.tensor import (
    Mode,
    RunningStats,
    Tensor,
    conv1d_relu,
    matmul,
    tensor_sum,
    transpose,
)
from motionrefine.trainer import (
    OptimizerConfig,
    TrainSettings,
    load_checkpoint,
    predict_autoregressive,
    save_checkpoint,
    train,
    window_errors,
)
from motionrefine import trainer as trainer_module
from motionrefine.data import load_sequence, save_sequence
from motionrefine.transforms import dct, dct_basis, idct


def _report(number: int, description: str, passed: bool):
    print(f"\n[criterion {number:02d}] {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number}: {description}"


def test_criterion_01_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0

    def check(build, tensors):
        nonlocal worst
        worst = max(worst, assert_gradients_match(build, tensors))

    # matmul
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    check(lambda: tensor_sum(tanh(matmul(a, b))), [a, b])

    # the window encoder's rectified conv
    x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
    k = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
    bias = Tensor(rng.normal(size=4), requires_grad=True)
    check(lambda: tensor_sum(tanh(conv1d_relu(x, k, bias))), [x, k, bias])

    # batchnorm (train mode)
    bx = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True)
    beta = Tensor(rng.normal(size=6), requires_grad=True)
    check(lambda: tensor_sum(tanh(batchnorm(
        bx, gamma, beta, RunningStats(), Mode.train(np.random.default_rng(0))))),
        [bx, gamma, beta])

    # tanh / relu (inputs kept clear of the relu kink)
    ex = Tensor(rng.uniform(0.2, 1.5, size=(3, 5)) * rng.choice([-1, 1], size=(3, 5)),
                requires_grad=True)
    check(lambda: tensor_sum(relu(ex) + tanh(ex)), [ex])

    # dct / idct
    basis5 = dct_basis(5)
    dx = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    check(lambda: tensor_sum(tanh(idct(dct(dx, basis5), basis5))), [dx])

    # graph conv, block, module
    ref = init_refinement_params(pose_dim=4, window=3, stages=1, pair_count=1,
                                 latent_dim=6, rng=rng)
    glm = ref.stages[0]
    glm.output_gc.weights.data = rng.normal(scale=0.3, size=glm.output_gc.weights.shape)
    gx = Tensor(rng.normal(size=(1, 4, 6)), requires_grad=True)
    entry = glm.blocks[0]
    check(lambda: tensor_sum(graph_conv(gx, entry)),
          [gx, entry.adjacency, entry.weights])
    check(lambda: tensor_sum(graph_learning_block(
        gx, entry, Mode.train(np.random.default_rng(1)), 0.3)),
        [gx, entry.adjacency, entry.weights, entry.gamma, entry.beta])
    mx = Tensor(rng.normal(size=(1, 4, 6)))
    check(lambda: tensor_sum(glm_forward(
        mx, glm, Mode.train(np.random.default_rng(2)))),
        [blk.weights for blk in glm.blocks] + [glm.output_gc.weights])

    # attention encode and summarize
    att = init_attention_params(pose_dim=4, query_len=3, latent_dim=4, rng=rng)
    att_tensors = [att.query_net.first.kernels, att.query_net.second.kernels,
                   att.key_net.first.kernels, att.key_net.second.kernels,
                   att.query_net.first.bias, att.key_net.second.bias]
    hist = Tensor(rng.normal(size=(1, 4, 9)))

    def attention_loss():
        values = summarize_history(hist, att, 3, 2).values
        return tensor_sum(values * values)
    check(attention_loss, att_tensors)

    # losses
    pred = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
    truth = Tensor(rng.normal(size=(4, 3, 3)))
    w = build_loss_weights(synthetic_skeleton(1, 3), 2, 2, LossConfig())
    check(lambda: loss_st(pred, truth, w), [pred])
    check(lambda: loss_velocity(pred, truth), [pred])

    # the full objective through attention + refinement on the toy model
    config = ModelConfig(joints=4, history_len=10, query_len=3, future_len=2,
                         stages=2, glb_pairs=1, latent_dim=8)
    params = init_model_params(config, rng)
    all_named = named_parameters(params)
    for name, t in all_named.items():
        if name.endswith("output.weights"):
            t.data = rng.normal(scale=0.3, size=t.data.shape)
    basis = dct_basis(config.window)
    skeleton = synthetic_skeleton(1, 4)
    weights = build_loss_weights(skeleton, 3, 2, LossConfig())
    history = Tensor(rng.normal(size=(1, 12, 10)))
    target = Tensor(rng.normal(size=(1, 5, 4, 3)))

    def full_model_loss():
        out = model_forward(params, history, config, basis,
                            Mode.train(np.random.default_rng(3)))
        poses = transpose(out.prediction, (0, 2, 1)).reshape(1, 5, 4, 3)
        return loss_total(poses, target, weights, LossConfig(), 2)
    check(full_model_loss, list(all_named.values()))

    elapsed = time.perf_counter() - start
    _report(1, f"gradient suite vs central differences "
               f"(worst rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 60s)",
            worst < 1e-4 and elapsed < 60.0)


def test_criterion_02_transform_suite():
    start = time.perf_counter()
    worst_ortho = 0.0
    for size in range(2, 129):
        m = dct_basis(size).matrix
        worst_ortho = max(worst_ortho, np.abs(m @ m.T - np.eye(size)).max())
    rng = np.random.default_rng(1)
    basis = dct_basis(12)
    x = rng.normal(size=(6, 12))
    round_trip = np.abs(idct(dct(Tensor(x), basis), basis).data - x).max()
    coeffs = dct(Tensor(x), basis).data
    parseval = np.abs(np.linalg.norm(x, axis=1) - np.linalg.norm(coeffs, axis=1)).max()
    const = dct(Tensor(np.full((2, 9), 4.2)), dct_basis(9)).data
    expected = np.zeros((2, 9))
    expected[:, 0] = 4.2 * np.sqrt(9)
    dc_err = np.abs(const - expected).max()
    elapsed = time.perf_counter() - start
    ok = worst_ortho < 1e-12 and round_trip < 1e-10 and parseval < 1e-10 and \
        dc_err < 1e-12 and elapsed < 5.0
    _report(2, f"transforms: orthonormality {worst_ortho:.1e} < 1e-12, "
               f"round-trip {round_trip:.1e} < 1e-10, parseval {parseval:.1e} < 1e-10, "
               f"dc {dc_err:.1e} < 1e-12 ({elapsed:.1f}s < 5s)", ok)


def test_criterion_03_attention_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    params = init_attention_params(pose_dim=9, query_len=10, latent_dim=16, rng=rng)
    history = rng.normal(size=(9, 50))
    summary = summarize_history(Tensor(history[None]), params, 10, 10)
    weights = summary.attention_weights.data
    count_ok = weights.shape == (1, 31)
    simplex_ok = (weights >= 0).all() and abs(weights.sum() - 1.0) < 1e-12

    single = summarize_history(Tensor(rng.normal(size=(1, 9, 20))), params, 10, 10)
    single_ok = single.attention_weights.shape == (1, 1) and \
        abs(single.attention_weights.data[0, 0] - 1.0) < 1e-12

    windows = np.stack([history[:, i:i + 20] for i in range(31)])
    lo, hi = windows.min(axis=0), windows.max(axis=0)
    convex_ok = (summary.values.data[0] >= lo - 1e-9).all() and \
        (summary.values.data[0] <= hi + 1e-9).all()
    elapsed = time.perf_counter() - start
    ok = count_ok and simplex_ok and single_ok and convex_ok and elapsed < 5.0
    _report(3, f"attention: 31 weights, simplex within 1e-12, single-window [1], "
               f"convex combination ({elapsed:.1f}s < 5s)", ok)


def test_criterion_04_residual_identity_at_init():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    pose_dim = 22 * 3
    params = init_refinement_params(pose_dim=pose_dim, window=20, stages=3,
                                    pair_count=2, latent_dim=256, rng=rng)
    basis = dct_basis(20)
    worst = 0.0
    for trial in range(3):
        query = Tensor(rng.normal(size=(1, pose_dim, 10)))
        summary = Tensor(rng.normal(size=(1, pose_dim, 20)))
        outputs = refine(query, summary, params, basis,
                         Mode.train(np.random.default_rng(trial)))
        expected = pad_query(query, 10).data
        worst = max(worst, np.abs(outputs[-1].data - expected).max())
    elapsed = time.perf_counter() - start
    _report(4, f"residual identity at init, reference config: max err "
               f"{worst:.1e} < 1e-10 ({elapsed:.1f}s < 5s)",
            worst < 1e-10 and elapsed < 5.0)


def test_criterion_05_loss_suite():
    rng = np.random.default_rng(4)
    worst_sum = 0.0
    for _ in range(100):
        skeleton = synthetic_skeleton(int(rng.integers(1, 5)), int(rng.integers(2, 6)),
                                      float(rng.uniform(20.0, 400.0)))
        query_len, future_len = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        form = "unit_final" if rng.random() < 0.5 else "zero_final"
        floor = float(rng.uniform(0.01, 0.5))
        table = assemble_lambda(spatial_factors(skeleton, floor),
                                temporal_factors(query_len, future_len, form)).table
        worst_sum = max(worst_sum, abs(table.sum() -
                                       skeleton.joint_count * (query_len + future_len)))

    pred = rng.normal(size=(5, 4, 3))
    truth = rng.normal(size=(5, 4, 3))
    uniform = assemble_lambda(np.ones(4), np.ones(5))
    reduction = abs(float(loss_st(Tensor(pred), Tensor(truth), uniform).data) -
                    float(loss_st(Tensor(pred), Tensor(truth)).data))

    translation = abs(
        float(loss_velocity(Tensor(pred + 13.0), Tensor(truth)).data) -
        float(loss_velocity(Tensor(pred), Tensor(truth)).data))

    # vectorized versus scalar-loop oracles
    skeleton = synthetic_skeleton(1, 4)
    weights = build_loss_weights(skeleton, 2, 3, LossConfig())
    st_fast = float(loss_st(Tensor(pred), Tensor(truth), weights).data)
    st_slow = 0.0
    for f in range(5):
        for j in range(4):
            d = sum((pred[f, j, c] - truth[f, j, c]) ** 2 for c in range(3)) ** 0.5
            st_slow += weights.table[f, j] * d
    st_slow /= 20.0
    vel_fast = float(loss_velocity(Tensor(pred), Tensor(truth)).data)
    vel_slow = 0.0
    for f in range(4):
        for j in range(4):
            vel_slow += sum(((pred[f + 1, j, c] - pred[f, j, c]) -
                             (truth[f + 1, j, c] - truth[f, j, c])) ** 2
                            for c in range(3)) ** 0.5
    vel_slow /= 16.0
    oracle_err = max(abs(st_fast - st_slow), abs(vel_fast - vel_slow))

    ok = worst_sum < 1e-9 and reduction < 1e-12 and translation < 1e-12 and \
        oracle_err < 1e-12
    _report(5, f"losses: sum normalization {worst_sum:.1e} < 1e-9 over 100 draws, "
               f"uniform reduction {reduction:.1e}, translation invariance "
               f"{translation:.1e}, oracle match {oracle_err:.1e} (all < 1e-12)", ok)


def test_criterion_06_overfit_experiment(trained_overfit):
    result, elapsed = trained_overfit
    final = result.metrics[-1]
    first = result.metrics[0]
    mpjpe_ok = final["train_mpjpe"] < 5.0
    budget_ok = result.epochs_run <= 300 and elapsed < 600.0
    decay_ok = final["train_loss"] < 0.10 * first["train_loss"]
    _report(6, f"overfit: train MPJPE {final['train_mpjpe']:.2f} mm < 5 mm in "
               f"{result.epochs_run} epochs, {elapsed:.0f}s < 600s; final loss "
               f"{final['train_loss']:.3f} < 10% of epoch-1 {first['train_loss']:.3f}",
            mpjpe_ok and budget_ok and decay_ok)


def test_criterion_07_stage_monotonicity(overfit_fixture, trained_overfit):
    dataset, config = overfit_fixture
    result, _ = trained_overfit
    windows = extract_windows(dataset, config.history_len, config.future_len)
    errors, _ = window_errors(windows, result.params, config)
    stages = [float(stage.mean()) for stage in errors[1:]]
    monotone = all(stages[i + 1] <= stages[i] * 1.02 for i in range(len(stages) - 1))
    _report(7, "stage-wise MPJPE non-increasing within 2%: " +
            " >= ".join(f"{s:.2f}" for s in stages), monotone)


def test_criterion_08_autoregressive_contract(monkeypatch):
    config = ModelConfig(joints=3, history_len=20, query_len=4, future_len=10,
                         stages=2, glb_pairs=1, latent_dim=12)
    params = init_model_params(config, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    warmup = Tensor(rng.normal(size=(1, config.pose_dim, config.history_len)))
    model_forward(params, warmup, config, dct_basis(config.window), Mode.train(rng))

    calls = {"n": 0}
    real = trainer_module.model_forward

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(trainer_module, "model_forward", counting)

    history = PoseSequence(rng.normal(size=(20, 3, 3)))
    first = predict_autoregressive(history, params, config, 25)
    passes = calls["n"]
    second = predict_autoregressive(history, params, config, 25)
    identical = np.array_equal(first.coords, second.coords)
    _report(8, f"autoregressive: horizon 25 at future_len 10 took {passes} passes, "
               f"returned {first.frames} frames, repeat bit-identical={identical}",
            passes == 3 and first.frames == 25 and identical)


def test_criterion_09_determinism_and_persistence(tmp_path):
    skeleton = synthetic_skeleton(1, 3, 100.0)
    sequences = [gen_synthetic(skeleton, SynthSpec(kind="sinusoid", frames=40, seed=s))
                 for s in range(4)]
    dataset = SequenceDataset(skeleton, sequences)
    config = ModelConfig(joints=3, history_len=14, query_len=4, future_len=4,
                         stages=2, glb_pairs=1, latent_dim=12)

    def settings(epochs):
        return TrainSettings(epochs=epochs, batch_size=4, seed=9, val_fraction=0.0)

    straight = train(dataset, config, LossConfig(), OptimizerConfig(), settings(6))
    half = train(dataset, config, LossConfig(), OptimizerConfig(), settings(3))
    mid_path = tmp_path / "mid.mckpt"
    save_checkpoint(mid_path, half.params, half.adam, half.rng, half.epochs_run,
                    config, LossConfig(), OptimizerConfig(),
                    half.settings.replay_fields(), skeleton)
    resumed = train(dataset, config, LossConfig(), OptimizerConfig(), settings(6),
                    resume=load_checkpoint(mid_path))
    a = named_parameters(straight.params)
    b = named_parameters(resumed.params)
    replay_ok = all(np.array_equal(a[k].data, b[k].data) for k in a)

    coords = np.random.default_rng(10).normal(scale=150.0, size=(6, 3, 3))
    seq_path = tmp_path / "seq.mseq"
    save_sequence(seq_path, PoseSequence(coords), skeleton.name)
    _, loaded = load_sequence(seq_path)
    storage_ok = np.array_equal(loaded.coords,
                                coords.astype(np.float32).astype(np.float64))
    _report(9, f"determinism: resumed training bit-identical={replay_ok}, "
               f"sequence file exact at storage precision={storage_ok}",
            replay_ok and storage_ok)


def test_criterion_10_ablation_harness(overfit_fixture):
    dataset, config = overfit_fixture
    variants = {
        "full": LossConfig(),
        "no_st_weights": LossConfig(use_st_weights=False),
        "no_velocity": LossConfig(use_velocity=False),
        "no_query_reconstruction": LossConfig(reconstruct_query=False),
    }
    finals = {}
    for name, loss_config in variants.items():
        settings = TrainSettings(epochs=5, batch_size=4, seed=0, val_fraction=0.0)
        result = train(dataset, config, loss_config, OptimizerConfig(), settings)
        finals[name] = result.metrics[-1]["train_loss"]
    names = list(finals)
    distinct = all(abs(finals[a] - finals[b]) > 1e-9
                   for i, a in enumerate(names) for b in names[i + 1:])
    summary = ", ".join(f"{k}={v:.4f}" for k, v in finals.items())
    _report(10, f"ablation switches live, final losses distinct: {summary}", distinct)
