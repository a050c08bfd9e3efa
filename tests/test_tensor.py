import re
from pathlib import Path

import numpy as np
import pytest

from gradcheck import assert_gradients_match, finite_difference_gradient, relative_error
from motionrefine import tensor as tensor_module
from motionrefine.errors import ConfigurationError, DimensionError, TapeError
from motionrefine.tensor import (
    BN_EPS,
    GraphBlock,
    GraphConv,
    Mode,
    RunningStats,
    Tensor,
    add,
    backward,
    concat,
    conv1d_relu,
    div,
    graph_blocks,
    matmul,
    mul,
    no_grad,
    reshape,
    sqrt,
    sub,
    take,
    tensor_sum,
    transpose,
    value_windows,
)
from motionrefine import LossConfig, extract_windows
from motionrefine.attention import poses_to_channels
from motionrefine.losses import build_loss_weights, loss_total
from motionrefine.model import init_model_params, model_forward, named_parameters
from motionrefine.transforms import dct_basis
import reference_ops
from reference_ops import batchnorm, conv1d, dropout, relu, sliding_windows, tanh, tensor_mean
from tape_memory import bytes_by_op, closure_arrays, retained_bytes


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), a)
        assert np.array_equal(out.data, a.data)

    def test_projector(self):
        p = Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(matmul(p, b).data, [[5.0, 6.0], [0.0, 0.0]])

    def test_grad_of_sum_against_identity(self):
        # finite differences give the all-ones matrix here; frozen below
        a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        loss = tensor_sum(matmul(a, Tensor(np.eye(2))))
        backward(loss)
        assert np.allclose(a.grad, np.ones((2, 2)), atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_batched_gradcheck(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        assert_gradients_match(lambda: tensor_sum(tanh(matmul(a, b))), [a, b])

    # (B, M, K) @ (K, N) is test_batched_gradcheck above
    @pytest.mark.parametrize("a_shape", [(2, 3, 2, 4), (3, 4)])
    def test_shared_matrix_gradcheck(self, a_shape):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=a_shape), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        assert_gradients_match(lambda: tensor_sum(tanh(matmul(a, b))), [a, b])

    def test_constant_operand_gets_no_gradient(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        weights = Tensor(rng.normal(size=(4, 5)))
        mask = Tensor(rng.normal(size=(2, 3, 5)))
        backward(tensor_sum(matmul(x, weights) * mask))
        assert x.grad is not None
        assert weights.grad is None
        assert mask.grad is None


class TestConv1d:
    def test_zero_input_gives_rectified_bias_columns(self):
        kernels = Tensor(np.random.default_rng(1).normal(size=(3, 2, 4)))
        bias = Tensor([1.0, -2.0, 0.5])
        out = conv1d_relu(Tensor(np.zeros((1, 2, 9))), kernels, bias)
        assert out.shape == (1, 3, 6)
        assert np.array_equal(out.data, np.broadcast_to(np.array([1.0, 0.0, 0.5])[:, None],
                                                        (1, 3, 6)))

    def test_identity_kernel_on_nonnegative_input(self):
        x = Tensor(np.arange(5.0).reshape(1, 1, 5))
        out = conv1d_relu(x, Tensor(np.ones((1, 1, 1))), Tensor([0.0]))
        assert np.array_equal(out.data, x.data)

    def test_stacked_widths_six_five_collapse_length_ten_to_one(self):
        x = Tensor(np.random.default_rng(2).normal(size=(1, 6, 10)))
        h = conv1d_relu(x, Tensor(np.random.default_rng(3).normal(size=(4, 6, 6))),
                        Tensor(np.zeros(4)))
        out = conv1d_relu(h, Tensor(np.random.default_rng(4).normal(size=(4, 4, 5))),
                          Tensor(np.zeros(4)))
        assert out.shape == (1, 4, 1)

    def test_too_short_input(self):
        with pytest.raises(DimensionError, match="temporal length"):
            conv1d_relu(Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros((1, 1, 4))),
                        Tensor(np.zeros(1)))

    def test_unbatched_input_is_rejected(self):
        kernels, bias = Tensor(np.zeros((4, 3, 2))), Tensor(np.zeros(4))
        with pytest.raises(DimensionError, match="batch"):
            conv1d_relu(Tensor(np.zeros((3, 7))), kernels, bias)

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 3, 7)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        assert_gradients_match(lambda: tensor_sum(tanh(conv1d_relu(x, k, b))), [x, k, b])


def _composed_conv1d_relu(inputs, kernels, bias):
    """The rectified convolution as separate tape ops, the fused node's reference."""
    return relu(conv1d(inputs, kernels, bias))


# (input shape, kernel width, stored channel-last like a conv output fed onward)
CONV_CASES = [((2, 3, 7), 3, False), ((1, 3, 7), 3, False), ((2, 3, 5), 1, False),
              ((2, 3, 4), 4, False), ((2, 3, 7), 3, True)]


def _conv_case(shape, width, channel_last):
    rng = np.random.default_rng(40)
    x = rng.normal(size=shape)
    if channel_last:
        x = x.swapaxes(-1, -2).copy().swapaxes(-1, -2)
    return rng, x, rng.normal(size=(4, shape[-2], width)), rng.normal(size=4)


def _conv_results(conv, x, k, b, upstream, input_tracked=True):
    """A conv's output and its input's, kernels' and bias's gradients under ``upstream``."""
    inputs = Tensor(x, requires_grad=input_tracked)
    kernels, bias = Tensor(k, requires_grad=True), Tensor(b, requires_grad=True)
    out = conv(inputs, kernels, bias)
    backward(tensor_sum(tanh(out) * upstream))
    return out.data, inputs.grad, kernels.grad, bias.grad


class TestFusedConv1d:
    @pytest.mark.parametrize("input_tracked", [True, False])
    @pytest.mark.parametrize("shape, width, channel_last", CONV_CASES)
    def test_equals_composed_chain_bitwise(self, shape, width, channel_last, input_tracked):
        rng, x, k, b = _conv_case(shape, width, channel_last)
        upstream = Tensor(rng.normal(size=shape[:-2] + (4, shape[-1] - width + 1)))
        (out, grad_x, grad_k, grad_b), (ref, ref_x, ref_k, ref_b) = (
            _conv_results(conv, x, k, b, upstream, input_tracked)
            for conv in (conv1d_relu, _composed_conv1d_relu))
        assert np.array_equal(out, ref)
        assert (out == 0.0).any() and (out > 0.0).any()     # both sides of the rectifier
        if input_tracked:
            assert np.array_equal(grad_x, ref_x)
        else:
            assert grad_x is None and ref_x is None
        assert np.array_equal(grad_k, ref_k)
        assert grad_k.flags.c_contiguous      # Adam reads it in place
        assert np.array_equal(grad_b, ref_b)

    def test_exact_zero_pre_activations_take_subgradient_zero(self):
        # channel 0 has a zero kernel row and a zero bias, so every one of its
        # pre-activations is exactly 0: its kernel and bias gradients are 0
        # (at subgradient 1 its bias gradient would be the upstream's sum),
        # and bitwise the composed ops'; perturbing the input leaves those
        # zeros where they are, so its gradient has a finite-difference check
        rng, x, k, b = _conv_case((2, 3, 7), 3, False)
        k[0], b[0] = 0.0, 0.0
        upstream = Tensor(rng.normal(size=(2, 4, 5)))
        fused, composed = (_conv_results(conv, x, k, b, upstream)
                           for conv in (conv1d_relu, _composed_conv1d_relu))
        for a, ref in zip(fused, composed, strict=True):
            assert np.array_equal(a, ref)
        out, _grad_x, grad_k, grad_b = fused
        assert np.array_equal(out[:, 0], np.zeros((2, 5)))
        assert not grad_k[0].any() and grad_b[0] == 0.0
        inputs = Tensor(x, requires_grad=True)
        kernels, bias = Tensor(k), Tensor(b)
        assert_gradients_match(
            lambda: tensor_sum(conv1d_relu(inputs, kernels, bias) * upstream), [inputs])

    @pytest.mark.parametrize("shape, width, channel_last", CONV_CASES)
    def test_no_grad_equals_composed_chain_bitwise(self, shape, width, channel_last):
        _rng, x, k, b = _conv_case(shape, width, channel_last)
        args = [Tensor(a, requires_grad=True) for a in (x, k, b)]
        with no_grad():
            out = conv1d_relu(*args)
            ref = _composed_conv1d_relu(*args)
        assert not out.requires_grad and out._parents == ()
        assert np.array_equal(out.data, ref.data)

    @pytest.mark.parametrize("input_tracked", [True, False])
    def test_records_one_tape_node(self, input_tracked):
        _rng, x, k, b = _conv_case((2, 3, 7), 3, False)
        inputs = Tensor(x, requires_grad=input_tracked)
        kernels, bias = Tensor(k, requires_grad=True), Tensor(b, requires_grad=True)
        out = conv1d_relu(inputs, kernels, bias)
        assert out._op == "conv1d_relu"
        assert out._parents == ((inputs,) if input_tracked else ()) + (kernels, bias)

    def test_tape_keeps_input_and_output_not_pre_activation(self):
        # the unfolded input, (2, 5, 15), is larger than the input and the
        # kernels; the output, (2, 4, 5), is the only array of its shape kept
        _rng, x, k, b = _conv_case((2, 3, 9), 5, False)
        inputs, kernels, bias = (Tensor(a, requires_grad=True) for a in (x, k, b))
        out = conv1d_relu(inputs, kernels, bias)
        held = closure_arrays(out)
        assert any(a is inputs.data for a in held) and any(a is out.data for a in held)
        assert [a for a in held if a.shape == out.shape] == [out.data]
        assert all(a.nbytes <= max(x.nbytes, k.nbytes) for a in held)
        assert retained_bytes(out).closures == x.nbytes + k.nbytes + b.nbytes + out.data.nbytes


def _summary_results(summary, history, weights, upstream, history_tracked=True):
    """A summary and its history's and weights' gradients under ``upstream``."""
    history = Tensor(history, requires_grad=history_tracked)
    weights = Tensor(weights, requires_grad=True)
    out = summary(history, weights)
    backward(tensor_sum(out * upstream))
    return out.data, history.grad, weights.grad


class TestValueWindows:
    # (batch, P, window, count): the small config's and the reference config's
    @pytest.mark.parametrize("history_tracked", [True, False])
    @pytest.mark.parametrize("batch, dims, window, count", [(4, 12, 10, 11), (32, 66, 20, 31)])
    def test_equals_composed_form_bitwise(self, batch, dims, window, count, history_tracked):
        rng = np.random.default_rng(41)
        history = rng.normal(size=(batch, dims, window + count - 1))
        weights = rng.dirichlet(np.ones(count), size=batch)
        upstream = Tensor(rng.normal(size=(batch, dims, window)))
        (out, grad_h, grad_w), (ref, ref_h, ref_w) = (
            _summary_results(summary, history, weights, upstream, history_tracked)
            for summary in (value_windows, reference_ops.value_windows))
        assert out.shape == (batch, dims, window)
        assert np.array_equal(out, ref)
        assert np.array_equal(grad_w, ref_w)
        if history_tracked:
            assert np.array_equal(grad_h, ref_h)
        else:
            assert grad_h is None and ref_h is None

    def test_records_one_tape_node(self):
        history = Tensor(np.ones((2, 3, 6)))
        weights = Tensor(np.full((2, 4), 0.25), requires_grad=True)
        out = value_windows(history, weights)
        assert out._op == "value_windows" and out._parents == (weights,)
        assert np.array_equal(out.data, np.ones((2, 3, 3)))

    @pytest.mark.parametrize("history_shape, weights_shape",
                             [((3, 6), (2, 4)), ((2, 3, 6), (4,)), ((2, 3, 6), (1, 4)),
                              ((2, 3, 6), (2, 7))])
    def test_bad_shapes_raise(self, history_shape, weights_shape):
        with pytest.raises(DimensionError):
            value_windows(np.zeros(history_shape), np.zeros(weights_shape))


def _unfold_inputs(batch, width):
    """Three layouts a conv input takes: contiguous, a frame slice (the key
    span) and the channel view of poses."""
    rng = np.random.default_rng(42)
    contiguous = rng.normal(size=(batch, 5, width + 6))
    key_span = rng.normal(size=(batch, 5, width + 9))[:, :, :width + 6]
    poses = poses_to_channels(rng.normal(size=(batch, width + 6, 4, 3)))
    return [contiguous, key_span, poses]


class TestUnfold:
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("width", range(1, 7))
    def test_equals_sliding_window_view_copy_bitwise(self, batch, width):
        for x in _unfold_inputs(batch, width):
            out = tensor_module._unfold(x, width)
            assert out.shape == (batch, 7, x.shape[1] * width)
            assert np.array_equal(out, reference_ops.unfold(x, width))


class TestElementwise:
    def test_relu(self):
        assert np.array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        backward(tensor_sum(relu(x)))
        assert x.grad[0] == 0.0

    def test_tanh_zero(self):
        x = Tensor([0.0], requires_grad=True)
        out = tanh(x)
        assert out.data[0] == 0.0
        backward(tensor_sum(out))
        assert x.grad[0] == 1.0

    def test_tanh_grad_at_half(self):
        # finite-difference oracle value: 1 - tanh(0.5)^2
        x = Tensor([0.5], requires_grad=True)
        backward(tensor_sum(tanh(x)))
        assert abs(x.grad[0] - 0.7864477329659274) < 1e-12
        numeric = finite_difference_gradient(
            lambda: float(np.tanh(x.data[0])), x.data)
        assert relative_error(x.grad, numeric).max() < 1e-6

    def test_incompatible_shapes(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros(3)) + Tensor(np.zeros(4))

    def test_broadcast_gradcheck(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
        assert_gradients_match(lambda: tensor_sum(tanh(a * b + a / 2.0 - b)), [a, b])


class TestBatchnorm:
    def test_prenormalized_input_is_near_identity(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        stats = RunningStats()
        out = batchnorm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), stats,
                        Mode.train(rng))
        # eps=1e-5 shrinks unit-variance data by about eps/2
        assert np.abs(out.data - x).max() < 5e-5

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(8)
        beta = np.array([1.0, -1.0, 0.0])
        out = batchnorm(Tensor(rng.normal(size=(6, 3))), Tensor(np.zeros(3)),
                        Tensor(beta), RunningStats(), Mode.train(rng))
        assert np.allclose(out.data, beta, atol=1e-12)

    def test_train_normalizes_per_channel(self):
        rng = np.random.default_rng(9)
        x = rng.normal(loc=3.0, scale=2.5, size=(40, 4))
        out = batchnorm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                        RunningStats(), Mode.train(rng))
        assert np.abs(out.data.mean(axis=0)).max() < 1e-10
        assert np.abs(out.data.var(axis=0) - 1.0).max() < 1e-4

    def test_eval_uses_running_stats_and_is_deterministic(self):
        rng = np.random.default_rng(10)
        stats = RunningStats()
        x = rng.normal(size=(20, 3))
        batchnorm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), stats,
                  Mode.train(rng))
        y = rng.normal(size=(5, 3))
        one = batchnorm(Tensor(y), Tensor(np.ones(3)), Tensor(np.zeros(3)), stats,
                        Mode.eval())
        two = batchnorm(Tensor(y), Tensor(np.ones(3)), Tensor(np.zeros(3)), stats,
                        Mode.eval())
        assert np.array_equal(one.data, two.data)

    def test_gradcheck_3x4(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
        beta = Tensor(rng.normal(size=3), requires_grad=True)

        def build():
            return tensor_sum(tanh(batchnorm(x, gamma, beta, RunningStats(),
                                             Mode.train(np.random.default_rng(0)))))
        assert_gradients_match(build, [x, gamma, beta])


def _op_chain_batchnorm(inputs, gamma, beta, stats, mode):
    """Batch norm over the last (channel) axis built from elementwise tape
    ops, the fused node's reference."""
    pooled = tuple(range(inputs.ndim - 1))
    if mode.training:
        mu = tensor_mean(inputs, axis=pooled)
        centered = inputs - mu
        var = tensor_mean(centered * centered, axis=pooled)
        normalized = centered / sqrt(var + BN_EPS)
        n = inputs.size // inputs.shape[-1]
        stats.update(mu.data, var.data * (n / (n - 1)) if n > 1 else var.data)
    else:  # the per-channel scale and shift of the eval map
        scale = gamma / Tensor(np.sqrt(stats.var + BN_EPS))
        return inputs * scale + (beta - Tensor(stats.mean) * scale)
    return gamma * normalized + beta


class TestFusedBatchnorm:
    def test_train_gradcheck_3d(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 5), requires_grad=True)
        beta = Tensor(rng.normal(size=5), requires_grad=True)

        def build():
            return tensor_sum(tanh(batchnorm(x, gamma, beta, RunningStats(),
                                             Mode.train(None))))
        assert_gradients_match(build, [x, gamma, beta])

    def test_single_sample_train_gives_zero_input_gradient(self):
        x = Tensor(np.array([[0.5, -2.0, 3.0]]), requires_grad=True)
        stats = RunningStats()
        out = batchnorm(x, Tensor(np.array([1.5, 0.5, 2.0])), Tensor(np.zeros(3)),
                        stats, Mode.train(None))
        backward(tensor_sum(tanh(out) * Tensor([1.0, -3.0, 2.0])))
        assert np.array_equal(x.grad, np.zeros((1, 3)))
        assert np.array_equal(stats.var, np.full(3, 0.9))

    def test_forward_and_stats_equal_op_chain_bitwise(self):
        rng = np.random.default_rng(22)
        channels = 5
        shape = (4, 7, channels)
        gamma = Tensor(rng.uniform(0.5, 1.5, channels))
        beta = Tensor(rng.normal(size=channels))
        fused, chain = RunningStats(), RunningStats()
        for _ in range(2):
            x = Tensor(rng.normal(loc=2.0, scale=3.0, size=shape))
            out = batchnorm(x, gamma, beta, fused, Mode.train(None))
            ref = _op_chain_batchnorm(x, gamma, beta, chain, Mode.train(None))
            assert np.array_equal(out.data, ref.data)
        assert np.array_equal(fused.mean, chain.mean)
        assert np.array_equal(fused.var, chain.var)
        x = Tensor(rng.normal(size=shape))
        out = batchnorm(x, gamma, beta, fused, Mode.eval())
        ref = _op_chain_batchnorm(x, gamma, beta, chain, Mode.eval())
        assert np.array_equal(out.data, ref.data)

    # channels are the last axis of any rank: every other axis is pooled
    @pytest.mark.parametrize("shape", [(6, 3), (2, 3, 2, 4)])
    def test_train_gradcheck_at_rank(self, shape):
        rng = np.random.default_rng(24)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, shape[-1]), requires_grad=True)
        beta = Tensor(rng.normal(size=shape[-1]), requires_grad=True)

        def build():
            return tensor_sum(tanh(batchnorm(x, gamma, beta, RunningStats(),
                                             Mode.train(None))))
        assert_gradients_match(build, [x, gamma, beta])

    @pytest.mark.parametrize("shape", [(6, 3), (2, 3, 2, 4)])
    def test_train_forward_and_stats_equal_op_chain_bitwise_at_rank(self, shape):
        rng = np.random.default_rng(25)
        gamma = Tensor(rng.uniform(0.5, 1.5, shape[-1]))
        beta = Tensor(rng.normal(size=shape[-1]))
        fused, chain = RunningStats(), RunningStats()
        for _ in range(2):
            x = Tensor(rng.normal(loc=-1.0, scale=2.0, size=shape))
            out = batchnorm(x, gamma, beta, fused, Mode.train(None))
            ref = _op_chain_batchnorm(x, gamma, beta, chain, Mode.train(None))
            assert np.array_equal(out.data, ref.data)
        assert fused.mean.shape == fused.var.shape == (shape[-1],)
        assert np.array_equal(fused.mean, chain.mean)
        assert np.array_equal(fused.var, chain.var)

    def test_records_one_tape_node(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = batchnorm(x, Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3)),
                        RunningStats(), Mode.train(None))
        assert out._op == "batchnorm"
        assert all(p._op == "leaf" for p in out._parents)


class TestDropout:
    def test_rate_zero_identity_both_modes(self):
        x = Tensor(np.arange(6.0))
        rng = np.random.default_rng(12)
        assert np.array_equal(dropout(x, 0.0, Mode.train(rng)).data, x.data)
        assert np.array_equal(dropout(x, 0.0, Mode.eval()).data, x.data)

    def test_eval_identity(self):
        x = Tensor(np.arange(6.0))
        assert dropout(x, 0.3, Mode.eval()) is x

    def test_train_preserves_mean(self):
        rng = np.random.default_rng(13)
        x = Tensor(np.ones(100_000))
        out = dropout(x, 0.5, Mode.train(rng))
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_bad_rate(self):
        with pytest.raises(ConfigurationError):
            dropout(Tensor([1.0]), 1.0, Mode.train(np.random.default_rng(0)))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.random.default_rng(14).normal(size=(3, 4, 2)), requires_grad=True)
        backward(tensor_sum(x))
        assert np.array_equal(x.grad, np.ones((3, 4, 2)))

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        backward(tensor_sum(x * x))
        assert np.allclose(x.grad, [2.0, 4.0, 6.0], atol=1e-12)

    def test_non_scalar_loss_raises(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(DimensionError):
            backward(x + 1.0)

    def test_detached_loss_raises(self):
        with pytest.raises(TapeError):
            backward(Tensor(1.0))

    def test_repeated_backward_raises(self):
        x = Tensor([2.0], requires_grad=True)
        loss = tensor_sum(x * x)
        backward(loss)
        with pytest.raises(TapeError):
            backward(loss)

    def test_shared_subgraph_reuse_raises(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x
        backward(tensor_sum(y))
        with pytest.raises(TapeError):
            backward(tensor_sum(y))

    def test_backward_returns_gradient_map_with_matching_shapes(self):
        x = Tensor(np.random.default_rng(15).normal(size=(2, 3)), requires_grad=True)
        y = tanh(x * 2.0)
        loss = tensor_sum(y)
        grads = backward(loss)
        assert grads[x].shape == x.shape
        assert grads[x] is x.grad
        # intermediates are released during the sweep
        assert y not in grads and y.grad is None
        assert loss not in grads and loss.grad is None

    def test_untracked_inputs_never_join_the_tape(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0])  # plain data
        out = a * b
        assert all(p.requires_grad for p in out._parents)
        assert b not in out._parents

    def test_no_grad_detaches(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 3.0
        assert not out.requires_grad
        assert out._parents == ()


class TestTapeMemoryHelper:
    def test_bytes_by_op_counts_each_buffer_once_per_op(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)     # 48 bytes
        b = Tensor(np.ones((3, 4)), requires_grad=True)     # 96 bytes
        product = matmul(a, b)                              # 64 bytes
        activated = tanh(product)                           # 64 bytes
        squared = mul(activated, activated)                 # 64 bytes
        loss = tensor_sum(squared)
        # mul holds activated twice; tanh holds its operand and its output
        assert bytes_by_op(loss) == {"matmul": 48 + 96, "tanh": 64 + 64, "mul": 64, "sum": 64}
        # across ops, activated's buffer counts once
        assert retained_bytes(loss).closures == 48 + 96 + 64 + 64 + 64


class TestDeterminism:
    def test_identical_seeds_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.normal(size=(1, 4, 6)), requires_grad=True)
            k = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
            out = conv1d_relu(tanh(x), k, Tensor(np.zeros(3)))
            out = dropout(out, 0.3, Mode.train(rng))
            loss = tensor_sum(out * out)
            backward(loss)
            return loss.data.copy(), x.grad.copy(), k.grad.copy()
        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestTakeView:
    def test_take_returns_a_view_of_its_operand(self):
        x = Tensor(np.arange(15.0).reshape(3, 5), requires_grad=True)
        out = take(x, (slice(1, None), slice(None, None, 2)))
        assert np.shares_memory(out.data, x.data)
        assert np.array_equal(out.data, x.data[1:, ::2])

    def test_train_step_writes_into_no_operand(self, overfit_fixture):
        # take's views are safe because no op writes into an operand's data:
        # with every input and parameter read-only, a train-mode forward and
        # backward must not raise
        dataset, config = overfit_fixture
        windows = extract_windows(dataset, config.history_len, config.future_len)[:4]
        params = init_model_params(config, np.random.default_rng(0))
        histories = np.stack([w.history for w in windows])
        truth = np.concatenate([histories[:, -config.query_len:],
                                np.stack([w.target for w in windows])], axis=1)
        channels = histories.reshape(len(windows), config.history_len, -1).transpose(0, 2, 1)
        weights = build_loss_weights(dataset.skeleton, config.query_len, config.future_len,
                                     LossConfig())
        named = named_parameters(params)
        inputs = [Tensor(channels), Tensor(truth)]
        for array in [t.data for t in inputs + list(named.values())] + [weights]:
            array.flags.writeable = False
        out = model_forward(params, inputs[0], config, dct_basis(config.window),
                            Mode.train(np.random.default_rng(1)))
        poses = transpose(out.prediction, (0, 2, 1)).reshape(truth.shape)
        grads = backward(loss_total(poses, inputs[1], weights, LossConfig(),
                                    config.future_len))
        assert all(np.isfinite(grads[t]).all() for t in named.values())


class TestShapeAlgebra:
    """Output shapes versus an independent shape oracle."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = rng.integers(1, 6, size=3)
        assert matmul(Tensor(np.zeros((m, k))), Tensor(np.zeros((k, n)))).shape == (m, n)

        c_in, c_out = rng.integers(1, 5, size=2)
        t = int(rng.integers(4, 10))
        w = int(rng.integers(1, t + 1))
        assert conv1d_relu(Tensor(np.zeros((m, c_in, t))),
                           Tensor(np.zeros((c_out, c_in, w))), Tensor(np.zeros(c_out))).shape == \
            (m, c_out, t - w + 1)
        assert sliding_windows(Tensor(np.zeros((c_in, t))), w).shape == \
            (c_in, t - w + 1, w)

        parts = [Tensor(np.zeros((2, int(rng.integers(1, 4))))) for _ in range(3)]
        assert concat(parts, axis=1).shape == (2, sum(p.shape[1] for p in parts))

        x = Tensor(np.zeros((m, k, n)))
        assert tensor_sum(x, axis=1).shape == (m, n)
        assert tensor_sum(x, axis=(0, 2), keepdims=True).shape == (1, k, 1)


class TestOpGradients:
    """Randomized-shape gradient checks for the remaining primitives."""

    @pytest.mark.parametrize("seed", range(3))
    def test_windows_concat_slice_transpose(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        y = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

        def build():
            w = sliding_windows(x, 2)              # (2, 4, 2)
            c = concat([x, y], axis=1)             # (2, 8)
            piece = c[:, 1:5].transpose(1, 0)      # (4, 2)
            return tensor_sum(tanh(w)) + tensor_sum(piece * piece)
        assert_gradients_match(build, [x, y])

    def test_sqrt_and_mean(self):
        rng = np.random.default_rng(200)
        x = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        assert_gradients_match(lambda: tensor_mean(sqrt((x * x).sum(axis=-1))), [x])


def _tracked(rng, *shape, low=-1.0, high=1.0):
    return Tensor(rng.uniform(low, high, shape), requires_grad=True)


def _graph_blocks_case(rng, pairs=2, rate=0.3, inner=5):
    # a whole train-mode module: an entry block (3 -> 4 channels), ``pairs``
    # residual pairs through an ``inner``-channel block, and the output conv
    # (4 -> 3)
    def forward(g, *tensors):
        blocks = [GraphBlock(*tensors[4 * k:4 * k + 4], RunningStats())
                  for k in range(1 + 2 * pairs)]
        return graph_blocks(g, blocks, Mode.train(np.random.default_rng(0)), rate,
                            output=GraphConv(*tensors[-2:]))
    inputs = [_tracked(rng, 2, 3, 3)]
    for channels_in, channels_out in [(3, 4)] + [(4, inner), (inner, 4)] * pairs:
        inputs += [_tracked(rng, 3, 3), _tracked(rng, channels_in, channels_out),
                   _tracked(rng, channels_out, low=0.5, high=1.5), _tracked(rng, channels_out)]
    return forward, inputs + [_tracked(rng, 3, 3), _tracked(rng, 4, 3)]


# tape op name (as passed to ``_result``) -> (forward, tracked inputs), checked
# directly against finite differences under a random upstream gradient
DIRECT_GRADCHECKS = {
    "add": lambda rng: (add, [_tracked(rng, 3, 4), _tracked(rng, 4)]),
    "sub": lambda rng: (sub, [_tracked(rng, 3, 1), _tracked(rng, 3, 4)]),
    "mul": lambda rng: (mul, [_tracked(rng, 3, 4), _tracked(rng, 1, 4)]),
    "div": lambda rng: (div, [_tracked(rng, 3, 4), _tracked(rng, 1, 4, low=0.5, high=2.0)]),
    "matmul": lambda rng: (matmul, [_tracked(rng, 2, 3, 4), _tracked(rng, 2, 4, 5)]),
    "tanh": lambda rng: (tanh, [_tracked(rng, 3, 4, low=-2.0, high=2.0)]),
    "relu": lambda rng: (relu, [Tensor([[-1.2, 0.4, -0.3], [0.8, -0.6, 1.5]],
                                       requires_grad=True)]),
    "sqrt": lambda rng: (sqrt, [_tracked(rng, 3, 4, low=0.5, high=2.0)]),
    "sum": lambda rng: (lambda x: tensor_sum(x, axis=(0, 2)), [_tracked(rng, 2, 3, 4)]),
    "reshape": lambda rng: (lambda x: reshape(x, (3, 4)), [_tracked(rng, 2, 6)]),
    "transpose": lambda rng: (lambda x: transpose(x, (2, 0, 1)), [_tracked(rng, 2, 3, 4)]),
    "take": lambda rng: (lambda x: take(x, (slice(1, None), slice(None, None, 2))),
                         [_tracked(rng, 3, 5)]),
    "concat": lambda rng: (lambda a, b: concat([a, b], axis=1),
                           [_tracked(rng, 2, 3), _tracked(rng, 2, 2)]),
    "windows": lambda rng: (lambda x: sliding_windows(x, 3), [_tracked(rng, 2, 6)]),
    "value_windows": lambda rng: (value_windows, [_tracked(rng, 2, 3, 6), _tracked(rng, 2, 4)]),
    # both sides of the rectifier; its exact zeros are pinned in TestFusedConv1d
    "conv1d_relu": lambda rng: (conv1d_relu, [_tracked(rng, 2, 3, 6), _tracked(rng, 4, 3, 3),
                                              _tracked(rng, 4)]),
    "batchnorm": lambda rng: (
        lambda x, gamma, beta: batchnorm(x, gamma, beta, RunningStats(), Mode.train(None)),
        [_tracked(rng, 4, 3), _tracked(rng, 3, low=0.5, high=1.5), _tracked(rng, 3)]),
    "graph_blocks": _graph_blocks_case,
}



class TestDirectGradchecks:
    @pytest.mark.parametrize("op", list(DIRECT_GRADCHECKS))
    def test_op_gradient_matches_finite_differences(self, op):
        rng = np.random.default_rng(300)
        forward, inputs = DIRECT_GRADCHECKS[op](rng)
        out = forward(*inputs)
        assert out._op == op
        upstream = Tensor(rng.normal(size=out.shape))
        assert_gradients_match(lambda: tensor_sum(forward(*inputs) * upstream), inputs)

    # the row above has 2 pairs through a 5-channel inner block with dropout;
    # a module of 0 pairs feeds its entry block's output to the output conv
    # and one of 1 its only pair's sum, and one of 1 pair through a square
    # inner block runs at rate 0
    @pytest.mark.parametrize("pairs, rate, inner", [(0, 0.3, 5), (1, 0.3, 5), (1, 0.0, 4)])
    def test_module_matches_finite_differences(self, pairs, rate, inner):
        rng = np.random.default_rng(302)
        forward, inputs = _graph_blocks_case(rng, pairs, rate, inner)
        out = forward(*inputs)
        assert out._op == "graph_blocks" and list(out._parents) == inputs
        upstream = Tensor(rng.normal(size=out.shape))
        assert_gradients_match(lambda: tensor_sum(forward(*inputs) * upstream), inputs)

    def test_every_tape_op_has_a_row(self):
        source = "".join(Path(module.__file__).read_text()
                         for module in (tensor_module, reference_ops))
        ops = set(re.findall(r'_result\(.*"(\w+)"\)', source))
        assert ops and ops == set(DIRECT_GRADCHECKS)
