import numpy as np
import pytest

from gradcheck import assert_gradients_match
from motionrefine.attention import (
    AttentionParams,
    ConvLayer,
    WindowEncoder,
    channels_to_poses,
    encode,
    encode_span,
    init_attention_params,
    kernel_widths,
    poses_to_channels,
    summarize_history,
)
from motionrefine.errors import DimensionError
from motionrefine.tensor import Tensor, backward, concat, tensor_sum, zero_grads


def test_kernel_widths_match_known_config():
    assert kernel_widths(10) == (6, 5)
    for length in range(1, 20):
        w1, w2 = kernel_widths(length)
        assert w1 + w2 - 1 == length and w1 >= 1 and w2 >= 1


def test_encode_zero_window_zero_bias_is_zero():
    rng = np.random.default_rng(0)
    params = init_attention_params(pose_dim=6, query_len=4, latent_dim=5, rng=rng)
    out = encode(params.query_net, Tensor(np.zeros((1, 6, 4))))
    assert out.shape == (1, 5)
    assert np.array_equal(out.data, np.zeros((1, 5)))


def test_encode_output_dim_at_reference_config():
    rng = np.random.default_rng(1)
    params = init_attention_params(pose_dim=66, query_len=10, latent_dim=256, rng=rng)
    out = encode(params.query_net, Tensor(rng.normal(size=(1, 66, 10))))
    assert out.shape == (1, 256)


def test_encode_wrong_window_length():
    rng = np.random.default_rng(2)
    params = init_attention_params(pose_dim=4, query_len=6, latent_dim=3, rng=rng)
    with pytest.raises(DimensionError):
        encode(params.query_net, Tensor(np.zeros((1, 4, 5))))


def test_receptive_field_sees_frame_zero_only_inside_window():
    # positive kernels guarantee sensitivity through the rectifiers
    rng = np.random.default_rng(3)
    params = init_attention_params(pose_dim=2, query_len=10, latent_dim=3, rng=rng)
    for layer in (params.query_net.first, params.query_net.second):
        layer.kernels.data = np.abs(layer.kernels.data) + 0.05
    window = rng.uniform(0.5, 1.0, size=(1, 2, 10))
    base = encode(params.query_net, Tensor(window)).data
    bumped = window.copy()
    bumped[..., 0] += 1.0
    assert np.abs(encode(params.query_net, Tensor(bumped)).data - base).max() > 1e-9


def _constant_code_params(pose_dim, query_len, latent_dim, probe_channel=0):
    """Nets whose code[0] equals the window's (probe_channel, frame 0) value."""
    w1, w2 = kernel_widths(query_len)
    def layer(c_out, c_in, width, hot=None):
        kernels = np.zeros((c_out, c_in, width))
        if hot is not None:
            kernels[hot] = 1.0
        return ConvLayer(Tensor(kernels), Tensor(np.zeros(c_out)))
    net = WindowEncoder(layer(latent_dim, pose_dim, w1, hot=(0, probe_channel, 0)),
                        layer(latent_dim, latent_dim, w2, hot=(0, 0, 0)))
    other = WindowEncoder(layer(latent_dim, pose_dim, w1, hot=(0, probe_channel, 0)),
                          layer(latent_dim, latent_dim, w2, hot=(0, 0, 0)))
    return AttentionParams(query_net=net, key_net=other)


def test_two_window_scores_three_to_one():
    # keys read history[0, i]; query reads history[0, H-L]; all other cells zero
    query_len, future_len = 3, 2
    frames = query_len + future_len + 1          # two key/value windows
    history = np.zeros((2, frames))
    history[0, 0] = 3.0                          # key window 0 score source
    history[0, 1] = 1.0                          # key window 1 score source
    history[0, frames - query_len] = 1.0         # query code = 1
    params = _constant_code_params(2, query_len, 4)
    summary = summarize_history(Tensor(history[None]), params, query_len, future_len)
    assert np.allclose(summary.attention_weights.data, [[0.75, 0.25]], atol=1e-12)
    windows = np.stack([history[:, 0:5], history[:, 1:6]])
    expected = 0.75 * windows[0] + 0.25 * windows[1]
    assert np.abs(summary.values.data[0] - expected).max() < 1e-12
    assert not summary.used_fallback


def test_single_window_history_gives_unit_weight():
    rng = np.random.default_rng(4)
    params = init_attention_params(pose_dim=3, query_len=2, latent_dim=4, rng=rng)
    history = rng.normal(size=(1, 3, 5))  # frames == query+future -> one window
    summary = summarize_history(Tensor(history), params, 2, 3)
    assert summary.attention_weights.shape == (1, 1)
    if not summary.used_fallback:
        assert abs(summary.attention_weights.data[0, 0] - 1.0) < 1e-12
    assert np.abs(summary.values.data - history).max() < 1e-12


def test_reference_window_count_and_simplex():
    rng = np.random.default_rng(5)
    params = init_attention_params(pose_dim=9, query_len=10, latent_dim=16, rng=rng)
    history = rng.normal(size=(1, 9, 50))
    summary = summarize_history(Tensor(history), params, 10, 10)
    weights = summary.attention_weights.data
    assert weights.shape == (1, 31)
    assert (weights >= 0).all()
    assert abs(weights.sum() - 1.0) < 1e-12
    assert summary.values.shape == (1, 9, 20)


def test_summary_is_convex_combination():
    rng = np.random.default_rng(6)
    params = init_attention_params(pose_dim=4, query_len=3, latent_dim=8, rng=rng)
    history = rng.normal(size=(4, 14))
    summary = summarize_history(Tensor(history[None]), params, 3, 2)
    count = 14 - 5 + 1
    windows = np.stack([history[:, i:i + 5] for i in range(count)])
    lo, hi = windows.min(axis=0), windows.max(axis=0)
    assert (summary.values.data[0] >= lo - 1e-9).all()
    assert (summary.values.data[0] <= hi + 1e-9).all()


def test_history_too_short():
    rng = np.random.default_rng(7)
    params = init_attention_params(pose_dim=3, query_len=4, latent_dim=4, rng=rng)
    with pytest.raises(DimensionError, match="history too short"):
        summarize_history(Tensor(np.zeros((1, 3, 6))), params, 4, 3)


def test_zero_scores_fall_back_to_uniform():
    params = _constant_code_params(2, 3, 4)
    history = np.zeros((1, 2, 8))  # every code is zero -> all scores zero
    summary = summarize_history(Tensor(history), params, 3, 2)
    assert summary.used_fallback
    n = 8 - 5 + 1
    assert np.allclose(summary.attention_weights.data, np.full((1, n), 1.0 / n), atol=1e-12)
    assert abs(summary.attention_weights.data.sum() - 1.0) < 1e-12


def test_uniform_fallback_gradcheck():
    # the probe channel is zero, so every code and score is 0 and stays 0 when
    # the other channel or the key kernels move: the fallback holds throughout
    params = _constant_code_params(2, 3, 4)
    for layer in (params.key_net.first, params.key_net.second):
        layer.kernels.requires_grad = True
    other = Tensor(np.random.default_rng(17).normal(size=(1, 1, 8)), requires_grad=True)
    upstream = Tensor(np.random.default_rng(18).normal(size=(1, 2, 5)))

    def build():
        history = concat([Tensor(np.zeros((1, 1, 8))), other], axis=1)
        summary = summarize_history(history, params, 3, 2)
        assert summary.used_fallback
        return tensor_sum(summary.values * upstream)
    assert_gradients_match(build, [other, params.key_net.first.kernels,
                                   params.key_net.second.kernels])


def _mixed_batch(row):
    """A batch whose first history is all zero (every score 0) and whose second is ``row``."""
    return concat([Tensor(np.zeros(row.shape)), row], axis=0)


def test_fallback_row_keeps_the_other_rows_gradient():
    # zero history and zero biases give zero codes whatever the kernels, so the
    # first row falls back throughout; the second row's weights must stay tracked
    rng = np.random.default_rng(19)
    params = init_attention_params(pose_dim=4, query_len=3, latent_dim=6, rng=rng)
    row = Tensor(rng.normal(size=(1, 4, 11)), requires_grad=True)
    upstream = Tensor(rng.normal(size=(2, 4, 5)))
    kernels = [layer.kernels for net in (params.query_net, params.key_net)
               for layer in (net.first, net.second)]

    def build():
        summary = summarize_history(_mixed_batch(row), params, 3, 2)
        weights = summary.attention_weights.data
        assert summary.used_fallback and np.array_equal(weights[0], np.full(7, 1.0 / 7))
        assert not np.allclose(weights[1], 1.0 / 7)
        return tensor_sum(summary.values * upstream)
    assert_gradients_match(build, [row] + kernels)


def test_fallback_row_leaves_the_other_row_as_computed_alone():
    rng = np.random.default_rng(20)
    params = init_attention_params(pose_dim=4, query_len=3, latent_dim=6, rng=rng)
    row = Tensor(rng.normal(size=(1, 4, 11)), requires_grad=True)
    upstream = rng.normal(size=(4, 5))
    kernels = [layer.kernels for net in (params.query_net, params.key_net)
               for layer in (net.first, net.second)]
    results = []
    for history in (_mixed_batch(row), row):
        summary = summarize_history(history, params, 3, 2)
        backward(tensor_sum(summary.values[-1] * Tensor(upstream)))
        results.append([summary.values.data[-1], summary.attention_weights.data[-1]]
                       + [t.grad for t in [row] + kernels])
        zero_grads([row] + kernels)
    (values, weights, *grads), (values1, weights1, *grads1) = results
    assert np.array_equal(values, values1) and np.array_equal(weights, weights1)
    for grad, alone in zip(grads, grads1):
        assert np.abs(grad - alone).max() <= 1e-12 * np.abs(alone).max()


def test_one_tiny_positive_score_takes_no_fallback():
    query_len, future_len, frames = 3, 2, 9
    history = np.zeros((2, frames))
    history[0, 2] = 1e-300                       # key window 2 scores 1e-300
    history[0, frames - query_len] = 1.0         # query code = 1
    history[1] = np.arange(frames)
    summary = summarize_history(Tensor(history[None]), _constant_code_params(2, query_len, 4),
                                query_len, future_len)
    weights = summary.attention_weights.data
    assert not summary.used_fallback
    assert np.isfinite(weights).all() and (weights >= 0).all()
    assert np.array_equal(weights, np.eye(frames - query_len - future_len + 1)[2:3])
    assert np.array_equal(summary.values.data, history[None, :, 2:7])


def test_shift_by_one_frame_changes_window_set():
    rng = np.random.default_rng(8)
    params = init_attention_params(pose_dim=3, query_len=3, latent_dim=4, rng=rng)
    history = rng.normal(size=(1, 3, 12))
    a = summarize_history(Tensor(history), params, 3, 2)
    b = summarize_history(Tensor(history[..., 1:]), params, 3, 2)
    assert a.attention_weights.shape[1] == b.attention_weights.shape[1] + 1


def test_batched_matches_single():
    # row b of a batch is, to the bit, row b run as a batch of one
    rng = np.random.default_rng(9)
    params = init_attention_params(pose_dim=4, query_len=3, latent_dim=6, rng=rng)
    batch = rng.normal(size=(3, 4, 11))
    batched = summarize_history(Tensor(batch), params, 3, 2)
    for i in range(3):
        one = summarize_history(Tensor(batch[i:i + 1]), params, 3, 2)
        assert np.array_equal(batched.values.data[i:i + 1], one.values.data)
        assert np.array_equal(batched.attention_weights.data[i:i + 1],
                              one.attention_weights.data)


def test_gradients_through_summary():
    rng = np.random.default_rng(10)
    params = init_attention_params(pose_dim=6, query_len=4, latent_dim=5, rng=rng)
    history = Tensor(rng.normal(size=(1, 6, 14)))
    tensors = [params.query_net.first.kernels, params.query_net.first.bias,
               params.query_net.second.kernels, params.query_net.second.bias,
               params.key_net.first.kernels, params.key_net.first.bias,
               params.key_net.second.kernels, params.key_net.second.bias]

    def build():
        summary = summarize_history(history, params, 4, 3)
        return tensor_sum(summary.values * summary.values)
    assert_gradients_match(build, tensors)


def test_encode_span_columns_are_window_codes():
    rng = np.random.default_rng(14)
    params = init_attention_params(pose_dim=6, query_len=5, latent_dim=7, rng=rng)
    net = params.key_net
    span = rng.normal(size=(2, 6, 17))
    batched = encode_span(net, Tensor(span)).data
    assert batched.shape == (2, 7, 13)
    assert batched.any()
    for i in range(13):
        window = span[..., i:i + 5]
        assert np.abs(batched[..., i] - encode(net, Tensor(window)).data).max() < 1e-12


def _assert_same_summary(given, full):
    assert given.used_fallback == full.used_fallback
    for name in ("values", "attention_weights"):
        a, b = getattr(given, name).data, getattr(full, name).data
        assert a.shape == b.shape and np.array_equal(a, b), name


@pytest.mark.parametrize("shape", [(1, 6, 19), (3, 6, 19)])
def test_given_key_codes_give_the_same_summary_bitwise(shape):
    rng = np.random.default_rng(15)
    params = init_attention_params(pose_dim=6, query_len=4, latent_dim=8, rng=rng)
    history = rng.normal(size=shape)
    codes = encode_span(params.key_net, Tensor(history[..., :16]))     # 13 key windows
    assert codes.shape == shape[:-2] + (8, 13)
    full = summarize_history(Tensor(history), params, 4, 3)
    for given in (codes, codes.data):
        _assert_same_summary(summarize_history(Tensor(history), params, 4, 3, key_codes=given),
                             full)


def test_given_key_codes_keep_uniform_fallback():
    params = _constant_code_params(2, 3, 4)
    history = Tensor(np.zeros((1, 2, 12)))
    full = summarize_history(history, params, 3, 2)
    codes = encode_span(params.key_net, history[..., :10])
    given = summarize_history(history, params, 3, 2, key_codes=codes)
    assert given.used_fallback
    _assert_same_summary(given, full)


def test_key_codes_that_are_not_the_history_s_are_rejected():
    rng = np.random.default_rng(16)
    params = init_attention_params(pose_dim=3, query_len=3, latent_dim=4, rng=rng)
    history = Tensor(rng.normal(size=(2, 3, 10)))       # 6 key windows
    # a prefix, an extra column, another batch, another latent width, no batch axis
    for bad in (np.zeros((2, 4, 5)), np.zeros((2, 4, 7)), np.zeros((3, 4, 6)),
                np.zeros((2, 5, 6)), np.zeros((4, 6))):
        with pytest.raises(DimensionError, match="key codes"):
            summarize_history(history, params, 3, 2, key_codes=bad)
    with pytest.raises(DimensionError, match="key codes"):   # a batch of one's codes, unbatched
        summarize_history(history[:1], params, 3, 2, key_codes=np.zeros((4, 6)))


def test_unbatched_history_is_rejected():
    rng = np.random.default_rng(21)
    params = init_attention_params(pose_dim=3, query_len=3, latent_dim=4, rng=rng)
    history = rng.normal(size=(3, 10))
    for key_codes in (None, np.zeros((4, 6))):
        with pytest.raises(DimensionError, match="batch"):
            summarize_history(Tensor(history), params, 3, 2, key_codes=key_codes)
    with pytest.raises(DimensionError, match="batch"):
        encode_span(params.key_net, Tensor(history))


def test_channel_layout_round_trip():
    rng = np.random.default_rng(12)
    for lead in ((), (2,)):                  # channels of rank 2 and rank 3
        poses = rng.normal(size=lead + (7, 3, 3))
        channels = poses_to_channels(poses)
        assert channels.shape == lead + (9, 7) and np.shares_memory(channels, poses)
        # channel p = joint*3 + axis: channel 5 is joint 1's z
        assert np.array_equal(channels[..., 5, 4], poses[..., 4, 1, 2])
        assert np.array_equal(channels_to_poses(channels), poses)
        assert np.array_equal(poses_to_channels(channels_to_poses(channels)), channels)
        back = channels_to_poses(Tensor(channels))
        assert isinstance(back, Tensor) and np.array_equal(back.data, poses)


@pytest.mark.parametrize("shape", [(9, 7), (2, 9, 7)])
def test_channels_to_poses_gradient(shape):
    rng = np.random.default_rng(13)
    channels = Tensor(rng.normal(size=shape), requires_grad=True)
    upstream = Tensor(rng.normal(size=shape[:-2] + (7, 3, 3)))
    assert_gradients_match(lambda: tensor_sum(channels_to_poses(channels) * upstream),
                           [channels])


def test_channels_to_poses_needs_whole_joints():
    with pytest.raises(DimensionError, match="multiple of 3"):
        channels_to_poses(np.zeros((2, 8, 7)))
