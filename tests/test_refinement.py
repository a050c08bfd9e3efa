import contextlib
import copy
import functools

import numpy as np
import pytest

from gradcheck import assert_gradients_match
from reference_ops import composed_block, composed_module, refine_round_trip, tanh
from tape_memory import closure_arrays, peak_traced_bytes, retained_bytes
from motionrefine import LossConfig, refinement, tensor
from motionrefine.errors import ConfigurationError, DimensionError, StateError, TapeError
from motionrefine.losses import loss_total
from motionrefine.model import (
    ModelConfig,
    init_model_params,
    model_forward,
    named_parameters,
    named_running_stats,
)
from motionrefine.refinement import (
    DROPOUT,
    GlmParams,
    glm_forward,
    graph_conv,
    graph_learning_block,
    init_refinement_params,
    pad_query,
    refine,
)
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
    graph_blocks,
    matmul,
    no_grad,
    tensor_sum,
    transpose,
    zero_grads,
)
from motionrefine.transforms import dct_basis, dct, idct


class TestPadQuery:
    def test_replicates_last_pose(self):
        q = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))  # two poses of a 2-channel body
        out = pad_query(q, 3)
        assert np.array_equal(out.data, [[1, 2, 2, 2, 2], [3, 4, 4, 4, 4]])

    def test_zero_future_is_identity(self):
        q = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        assert np.array_equal(pad_query(q, 0).data, q.data)

    def test_constant_query_stays_constant(self):
        q = Tensor(np.full((2, 3), 7.0))
        out = pad_query(q, 4)
        assert out.shape == (2, 7)
        assert np.all(out.data == 7.0)


class TestGraphLearningBlock:
    def test_identity_conv_on_prenormalized_input_is_tanh(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 6))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        layer = GraphBlock(
            adjacency=Tensor(np.eye(4)), weights=Tensor(np.eye(6)),
            gamma=Tensor(np.ones(6)), beta=Tensor(np.zeros(6)),
            stats=RunningStats(mean=np.zeros(6), var=np.ones(6)))
        out = graph_learning_block(Tensor(x[None]), layer, Mode.eval())
        assert np.abs(out.data[0] - np.tanh(x)).max() < 1e-4

    def test_zero_input_zero_beta_gives_zero(self):
        rng = np.random.default_rng(2)
        layer = GraphBlock(
            adjacency=Tensor(rng.normal(size=(3, 3))),
            weights=Tensor(rng.normal(size=(5, 4))),
            gamma=Tensor(np.ones(4)), beta=Tensor(np.zeros(4)),
            stats=RunningStats())
        out = graph_learning_block(Tensor(np.zeros((1, 3, 5))), layer,
                                   Mode.train(np.random.default_rng(0)))
        assert np.array_equal(out.data, np.zeros((1, 3, 4)))

    def test_adjacency_gradient_matches_oracle(self):
        rng = np.random.default_rng(3)
        adjacency = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        weights = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        layer = GraphBlock(adjacency, weights,
                           gamma=Tensor(np.ones(6), requires_grad=True),
                           beta=Tensor(np.zeros(6), requires_grad=True),
                           stats=RunningStats())
        x = Tensor(rng.normal(size=(1, 4, 6)))

        def build():
            return tensor_sum(graph_learning_block(
                x, layer, Mode.train(np.random.default_rng(1)), dropout_rate=0.3))
        assert_gradients_match(build, [adjacency, weights, layer.gamma, layer.beta])

    def test_channel_mismatch(self):
        layer = GraphConv(Tensor(np.eye(3)), Tensor(np.zeros((5, 2))))
        with pytest.raises(DimensionError):
            graph_conv(Tensor(np.zeros((3, 4))), layer)


def _tracked_layer(rng, rows, channels_in, channels_out, stats):
    return GraphBlock(
        adjacency=Tensor(rng.normal(size=(rows, rows)), requires_grad=True),
        weights=Tensor(rng.normal(size=(channels_in, channels_out)), requires_grad=True),
        gamma=Tensor(rng.uniform(0.5, 1.5, channels_out), requires_grad=True),
        beta=Tensor(rng.normal(size=channels_out), requires_grad=True),
        stats=stats)


def _clone_layer(layer):
    return GraphBlock(*(Tensor(t.data.copy(), requires_grad=True)
                        for t in (layer.adjacency, layer.weights, layer.gamma, layer.beta)),
                      stats=copy.deepcopy(layer.stats))


def _layer_tensors(layer):
    return [layer.adjacency, layer.weights, layer.gamma, layer.beta]


def _glm(rng, rows, channels, latent, pair_count, inner=None, dropout=DROPOUT):
    """A module from ``channels`` to ``latent`` channels and back whose pairs
    run through ``inner`` channels (``latent`` where None, as in the model),
    with fresh running statistics and a nonzero output conv."""
    inner = latent if inner is None else inner
    widths = [(channels, latent)] + [(latent, inner), (inner, latent)] * pair_count
    blocks = [_tracked_layer(rng, rows, c_in, c_out, RunningStats()) for c_in, c_out in widths]
    output_gc = GraphConv(Tensor(rng.normal(size=(rows, rows)), requires_grad=True),
                          Tensor(rng.normal(size=(latent, channels)), requires_grad=True))
    return GlmParams(blocks, output_gc, dropout)


# (train-mode dropout rate, input shape): one window (1, P, C) and three
# (3, P, C), with C_in 4 to C_out 6 and then square (the backward reuses a
# buffer for dx)
FUSED_CASES = [(rate, shape)
               for channels_in in (4, 6)
               for rate in (0.3, 0.0)
               for shape in ((1, 5, channels_in), (3, 5, channels_in))]
# the shapes of the dropping cases, whose outputs (30 and 90 values) pad the
# packed keep mask, and one of 4 * 5 * 6 = 120 outputs, which does not
DROPPING_SHAPES = [shape for rate, shape in FUSED_CASES if rate > 0] + [(4, 5, 4)]


def _fused_case(training, shape):
    rng = np.random.default_rng(31)
    stats = RunningStats()
    if not training:
        stats.update(rng.normal(size=6), rng.uniform(0.5, 2.0, 6))
    layer = _tracked_layer(rng, shape[-2], shape[-1], 6, stats)
    return rng, layer, rng.normal(size=shape)


class TestFusedGraphBlock:
    @pytest.mark.parametrize("rate, shape", FUSED_CASES)
    def test_equals_composed_chain_bitwise(self, rate, shape):
        rng, layer, x = _fused_case(True, shape)
        reference = _clone_layer(layer)
        upstream = Tensor(rng.normal(size=shape[:-1] + (6,)))
        results = []
        for block, params in ((graph_learning_block, layer), (composed_block, reference)):
            g = Tensor(x.copy(), requires_grad=True)
            out = block(g, params, Mode.train(np.random.default_rng(5)), dropout_rate=rate)
            backward(tensor_sum(out * upstream))
            results.append((out.data, params.stats, g.grad,
                            [t.grad for t in _layer_tensors(params)]))
        (out, stats, grad_g, grads), (ref, ref_stats, ref_grad_g, ref_grads) = results
        assert np.array_equal(out, ref)
        assert np.array_equal(stats.mean, ref_stats.mean)
        assert np.array_equal(stats.var, ref_stats.var)
        assert np.array_equal(grad_g, ref_grad_g)
        for grad, ref_grad in zip(grads, ref_grads):
            assert np.array_equal(grad, ref_grad)

    def test_unpadded_mask_equals_composed_chain_bitwise(self):
        self.test_equals_composed_chain_bitwise(0.3, DROPPING_SHAPES[-1])

    @pytest.mark.parametrize("training", [True, False])
    def test_untracked_forward_equals_composed_chain_bitwise(self, training):
        _rng, layer, x = _fused_case(training, (3, 5, 4))
        reference = _clone_layer(layer)
        outs = []
        for block, params in ((graph_learning_block, layer), (composed_block, reference)):
            mode = Mode.train(np.random.default_rng(5)) if training else Mode.eval()
            with no_grad():
                outs.append(block(Tensor(x), params, mode).data)
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(layer.stats.var, reference.stats.var)

    @pytest.mark.parametrize("rate, shape", FUSED_CASES)
    def test_gradcheck(self, rate, shape):
        _rng, layer, x = _fused_case(True, shape)
        g = Tensor(x, requires_grad=True)
        stats = layer.stats

        def build():
            block = layer._replace(stats=copy.deepcopy(stats))
            mode = Mode.train(np.random.default_rng(5))
            return tensor_sum(tanh(graph_learning_block(g, block, mode, dropout_rate=rate)))
        assert_gradients_match(build, [g] + _layer_tensors(layer))

    def test_single_row_gives_zero_input_gradient(self):
        rng = np.random.default_rng(32)
        layer = _tracked_layer(rng, 1, 4, 3, RunningStats())
        g = Tensor(rng.normal(size=(1, 1, 4)), requires_grad=True)
        out = graph_learning_block(g, layer, Mode.train(np.random.default_rng(0)),
                                   dropout_rate=0.0)
        backward(tensor_sum(out * Tensor([[[1.0, -3.0, 2.0]]])))
        assert np.array_equal(g.grad, np.zeros((1, 1, 4)))
        assert np.array_equal(layer.weights.grad, np.zeros((4, 3)))

    # on the tape the block keeps its batch mean and std, off it it does not
    @pytest.mark.parametrize("recording", [True, False])
    def test_single_row_train_is_finite_and_stats_take_the_biased_variance(self, recording):
        # batch norm over n = 1 value per channel: the batch variance is 0 and the
        # unbiased n / (n - 1) factor is undefined, so the running variance folds
        # in the biased 0, and the normalized value is 0, so the output is tanh(beta)
        rng = np.random.default_rng(38)
        layer = _tracked_layer(rng, 1, 4, 3, RunningStats())
        g = Tensor(rng.normal(size=(1, 1, 4)))
        with contextlib.nullcontext() if recording else no_grad():
            out = graph_blocks(g, [layer], Mode.train(np.random.default_rng(0)), 0.0)
        assert out.requires_grad == recording
        assert np.isfinite(out.data).all()
        assert np.array_equal(out.data, np.tanh(layer.beta.data)[None, None])
        assert np.array_equal(layer.stats.var, np.full(3, 0.9))

    def test_records_one_tape_node(self):
        rng = np.random.default_rng(33)
        layer = _tracked_layer(rng, 3, 4, 5, RunningStats())
        g = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        out = graph_learning_block(g, layer, Mode.train(np.random.default_rng(0)))
        assert out._op == "graph_blocks"
        assert all(p._op == "leaf" for p in out._parents)

    def test_bad_dropout_rate_leaves_stats_untouched(self):
        rng = np.random.default_rng(34)
        layer = _tracked_layer(rng, 3, 4, 5, RunningStats())
        with pytest.raises(ConfigurationError):
            graph_learning_block(Tensor(rng.normal(size=(1, 3, 4))), layer,
                                 Mode.train(np.random.default_rng(0)), dropout_rate=1.0)
        assert not layer.stats.initialized


# a 7-window batch that spans several workspace chunks and ends in a partial
# one, and a single window (one chunk, as small as the batch)
STREAMED_ROWS = [(7, 5), (1, 5)]


def _small_workspace(monkeypatch):
    """Shrink the graph products' workspace to three windows of 5 rows by 6
    channels: chunks of 3, 3 and 1 windows of a 6-channel input, 4 and 3 of a
    4-channel one."""
    monkeypatch.setattr(tensor, "_WORKSPACE_BYTES", 3 * 5 * 6 * 8)


class TestStreamedProduct:
    @pytest.mark.parametrize("rows", STREAMED_ROWS)
    def test_untracked_eval_block_equals_composed_chain_bitwise(self, monkeypatch, rows):
        _small_workspace(monkeypatch)
        _rng, layer, x = _fused_case(False, rows + (4,))
        reference = _clone_layer(layer)
        with no_grad():
            outs = [block(Tensor(x), params, Mode.eval()).data
                    for block, params in ((graph_learning_block, layer),
                                          (composed_block, reference))]
        assert np.array_equal(outs[0], outs[1])

    # a pair's square inner block writes its output over the first block's;
    # the module's output conv streams too, on the tape and off it, and in
    # train mode each block's product does before batch norm; at 6 rows a
    # 7-window batch takes chunks of 1 window into the entry block, of 2, 2, 2
    # and 1 into the 6-channel ones and of 3, 3 and 1 into a 4-channel one
    @pytest.mark.parametrize("inner", [6, 4])
    @pytest.mark.parametrize("training, tracked", [(True, True), (True, False), (False, False)])
    @pytest.mark.parametrize("rows", [(7, 6), (1, 6)])
    def test_glm_forward_equals_composed_ops_bitwise(self, monkeypatch, rows, training,
                                                     tracked, inner):
        _small_workspace(monkeypatch)
        rng = np.random.default_rng(42)
        glm = _glm(rng, rows=6, channels=8, latent=6, pair_count=2, inner=inner)
        glm_forward(Tensor(rng.normal(size=(2, 6, 8))), glm,
                    Mode.train(np.random.default_rng(0)))
        reference = copy.deepcopy(glm)
        x = rng.normal(size=rows + (8,))
        upstream = Tensor(rng.normal(size=x.shape))

        def run(forward, module):
            g = Tensor(x.copy(), requires_grad=tracked)
            mode = Mode.train(np.random.default_rng(5)) if training else Mode.eval()
            with contextlib.nullcontext() if tracked else no_grad():
                out = forward(g, module, mode)
            values = [out.data] + [v for layer in module.blocks
                                   for v in (layer.stats.mean, layer.stats.var)]
            if tracked:
                backward(tensor_sum(out * upstream))
                values += [g.grad, module.output_gc.adjacency.grad,
                           module.output_gc.weights.grad]
                values += [t.grad for layer in module.blocks for t in _layer_tensors(layer)]
            return values
        for value, composed in zip(run(glm_forward, glm), run(composed_module, reference),
                                   strict=True):
            assert np.array_equal(value, composed)

    # each pair's square second block writes over an array the call made,
    # never over the caller's h
    @pytest.mark.parametrize("rows", STREAMED_ROWS)
    def test_untracked_eval_glm_leaves_its_input_untouched(self, monkeypatch, rows):
        _small_workspace(monkeypatch)
        rng = np.random.default_rng(43)
        glm = _glm(rng, rows=5, channels=6, latent=6, pair_count=2)
        with no_grad():  # running statistics
            glm_forward(Tensor(rng.normal(size=(2, 5, 6))), glm,
                        Mode.train(np.random.default_rng(0)))
        h = Tensor(rng.normal(size=rows + (6,)))
        before = h.data.tobytes()
        with no_grad():
            out = glm_forward(h, glm, Mode.eval())
        assert h.data.tobytes() == before
        assert not np.shares_memory(out.data, h.data)


class TestTapeMemory:
    def test_fused_blocks_retain_a_quarter_less_than_composed_ops(self, monkeypatch):
        # refinement-heavy like the reference config: short history, 24 pose rows
        config = ModelConfig(joints=8, history_len=12, query_len=5, future_len=5,
                             stages=2, glb_pairs=2, latent_dim=32)
        params = init_model_params(config, np.random.default_rng(0))
        histories = Tensor(np.random.default_rng(1).normal(size=(8, 24, 12)))

        def forward_loss():
            out = model_forward(params, histories, config, dct_basis(config.window),
                                Mode.train(np.random.default_rng(2)))
            return tensor_sum(out.prediction * out.prediction)

        fused_bytes, _, fused_nodes = retained_bytes(forward_loss())
        monkeypatch.setattr(refinement, "glm_forward", composed_module)
        composed_bytes = retained_bytes(forward_loss()).total
        # one node per module: h, 4 parameters per block and the output conv's 2
        operands = [len(node._parents) for node in fused_nodes if node._op == "graph_blocks"]
        assert operands == [1 + 4 * (1 + 2 * config.glb_pairs) + 2] * config.stages
        assert fused_bytes <= 0.75 * composed_bytes, (fused_bytes, composed_bytes)


    def test_block_closure_keeps_no_adjacency_product(self):
        # adjacency @ g has g's shape, (3, 5, 4); the block's output is (3, 5, 6)
        _rng, layer, x = _fused_case(True, (3, 5, 4))
        g = Tensor(x, requires_grad=True)
        out = graph_learning_block(g, layer, Mode.train(np.random.default_rng(5)))
        held = closure_arrays(out)
        assert any(array is g.data for array in held)
        assert [a.shape for a in held if a.shape == g.shape and a is not g.data] == []

    @pytest.mark.parametrize("shape", DROPPING_SHAPES)
    def test_dropping_entry_block_closure_keeps_statistics_and_packed_mask(self, shape):
        # a lone block is a module's entry block: it keeps its batch mean and
        # std, from which the backward rebuilds its normalized activations,
        # and its keep mask, but no array of its output's shape
        _rng, layer, x = _fused_case(True, shape)
        g = Tensor(x, requires_grad=True)
        out = graph_learning_block(g, layer, Mode.train(np.random.default_rng(5)),
                                   dropout_rate=0.3)
        held = closure_arrays(out)
        assert any(array is g.data for array in held)
        assert [a.shape for a in _kept_besides_operands(out)] == [(6,), (6,)]
        assert_holds_batch_statistics(held, layer, x)
        assert not any(a.dtype == bool for a in held)
        # the keep mask, one bit per output, is where the output is nonzero
        masks = [a for a in held if a.dtype == np.uint8]
        assert [m.shape for m in masks] == [(-(-out.size // 8),)]
        keep = np.unpackbits(masks[0], count=out.size).reshape(out.shape)
        assert np.array_equal(keep == 1, out.data != 0.0)

    # 120 outputs per block at (4, 5, 6) do not pad the packed masks
    @pytest.mark.parametrize("rate, shape",
                             [(rate, shape) for rate in (0.3, 0.0)
                              for shape in ((1, 5, 6), (3, 5, 6))] + [(0.3, (4, 5, 6))])
    def test_module_closure_keeps_pair_blocks_normalized_and_entry_statistics(self, rate,
                                                                             shape):
        # besides its operands, the only full-size arrays are the pair
        # blocks' normalized activations: not the entry block's, no block's
        # output or tanh output, no pair's inner output or sum, nor the
        # output; the entry block keeps its batch mean and std instead
        rng = np.random.default_rng(41)
        glm = _glm(rng, rows=shape[-2], channels=6, latent=6, pair_count=2, dropout=rate)
        h = Tensor(rng.normal(size=shape), requires_grad=True)
        out = glm_forward(h, glm, Mode.train(np.random.default_rng(5)))
        held = closure_arrays(out)
        operands = [t.data for t in out._parents]
        assert all(any(a is operand for a in held) for operand in operands)
        assert not any(a is out.data for a in held)
        full = [a for a in held if a.size >= out.size
                and not any(a is operand for operand in operands)]
        assert len(full) == len(glm.blocks) - 1 and all(a.shape == out.shape
                                                        and a.dtype == np.float64 for a in full)
        for a in full:  # normalized: zero-mean per channel
            assert np.allclose(a.reshape(-1, out.shape[-1]).mean(axis=0), 0.0)
        assert_holds_batch_statistics(held, glm.blocks[0], h.data)
        masks = [a for a in held if a.dtype == np.uint8]
        assert [m.shape for m in masks] == [(-(-out.size // 8),)] * (5 if rate > 0 else 0)

    # square like the model's residual blocks; without dropout (rate 0) the
    # entry block keeps no mask either
    @pytest.mark.parametrize("shape", [(1, 5, 6), (3, 5, 6)])
    def test_entry_block_without_dropout_keeps_only_its_statistics(self, shape):
        _rng, layer, x = _fused_case(True, shape)
        g = Tensor(x, requires_grad=True)
        out = graph_learning_block(g, layer, Mode.train(np.random.default_rng(5)),
                                   dropout_rate=0.0)
        held = closure_arrays(out)
        assert any(a is g.data for a in held)
        assert [a.shape for a in _kept_besides_operands(out)] == [(6,), (6,)]
        assert_holds_batch_statistics(held, layer, x)
        assert not any(a.dtype == np.uint8 for a in held)

    def test_reference_tape_stays_within_budget_per_window(self):
        # the reference shapes at batch 2: the tape keeps about 2,100 KiB per
        # window besides the parameters (about 11,000 KiB before
        # recomputation, 2,620 when the entry blocks kept their normalized
        # activations and the encoder convs their pre-activations)
        config = ModelConfig(joints=22, history_len=50, query_len=10, future_len=10,
                             stages=3, glb_pairs=2, latent_dim=256)
        assert _reference_tape_per_window(config, batch=2) < 2_200 * 1024

    def test_reference_tape_keeps_one_activation_array_per_block(self):
        # as above at dropout 0, where no block keeps a mask: a pair block
        # keeps normalized, not the tanh output, and an entry block only its
        # batch statistics, about 2,070 KiB per window (6,300 at dropout 0.3
        # with the tanh outputs)
        config = ModelConfig(joints=22, history_len=50, query_len=10, future_len=10,
                             stages=3, glb_pairs=2, latent_dim=256, dropout=0.0)
        assert _reference_tape_per_window(config, batch=2) < 2_200 * 1024

    def test_reference_tape_keeps_no_output_no_backward_reads(self):
        # as above; the residual add joins each pair's second block and the
        # output conv recomputes adjacency @ h: about 5,100 KiB per window
        # when that landed, about 2,100 since
        config = ModelConfig(joints=22, history_len=50, query_len=10, future_len=10,
                             stages=3, glb_pairs=2, latent_dim=256)
        assert _reference_tape_per_window(config, batch=2) < 2_150 * 1024

    def test_reference_tape_without_dropout_keeps_no_tanh_output(self):
        # as above at dropout 0: the blocks rebuild their tanh output too, and
        # each pair's residual sum goes into its block's own output buffer
        # (about 5,100 KiB per window when that landed, about 2,070 since)
        config = ModelConfig(joints=22, history_len=50, query_len=10, future_len=10,
                             stages=3, glb_pairs=2, latent_dim=256, dropout=0.0)
        assert _reference_tape_per_window(config, batch=2) < 2_100 * 1024

    @pytest.mark.parametrize("dropout", [0.3, 0.0])
    def test_reference_tape_keeps_no_round_trip_or_take_copies(self, dropout):
        # as above; the stages keep only the prediction half's idct besides
        # their blocks, and the value aggregation's matmuls hold views of the
        # history: about 4,600 KiB per window (4,570 at dropout 0) when that
        # landed, about 2,100 (2,070) since
        config = ModelConfig(joints=22, history_len=50, query_len=10, future_len=10,
                             stages=3, glb_pairs=2, latent_dim=256, dropout=dropout)
        assert _reference_tape_per_window(config, batch=2) < 2_150 * 1024

    @pytest.mark.parametrize("dropout", [0.3, 0.0])
    def test_reference_tape_keeps_no_pair_inner_output(self, dropout):
        # as above; a residual pair rebuilds its first block's output in its
        # backward: about 3,810 KiB per window (3,780 at dropout 0) when that
        # landed, about 2,100 (2,070) since
        config = ModelConfig(joints=22, history_len=50, query_len=10, future_len=10,
                             stages=3, glb_pairs=2, latent_dim=256, dropout=dropout)
        assert _reference_tape_per_window(config, batch=2) < 2_150 * 1024

    @pytest.mark.parametrize("dropout", [0.3, 0.0])
    def test_reference_tape_keeps_no_block_run_output(self, dropout):
        # as above; each module is one node, which rebuilds its entry block's
        # and its pairs' outputs in its backward: about 2,620 KiB per window
        # (2,590 at dropout 0; 3,810 and 3,780 with a node per block run),
        # about 2,100 (2,070) since the entry blocks keep only their statistics
        config = ModelConfig(joints=22, history_len=50, query_len=10, future_len=10,
                             stages=3, glb_pairs=2, latent_dim=256, dropout=dropout)
        assert _reference_tape_per_window(config, batch=2) < 2_150 * 1024

    def test_reference_step_peak_stays_within_budget_per_window(self):
        # the traced peak of a forward, loss and backward at the reference
        # shapes, batch 8, parameter gradients included: about 2,660 KiB per
        # window (3,470 when this budget was set, 4,370 with a node per block
        # run), so the backward's rebuilt block-run outputs cannot grow back
        # unseen
        config = ModelConfig(joints=22, history_len=50, query_len=10, future_len=10,
                             stages=3, glb_pairs=2, latent_dim=256)
        params = init_model_params(config, np.random.default_rng(0))
        batch = 8

        def step():
            zero_grads(named_parameters(params).values())
            backward(_reference_loss(config, params, batch))
        assert peak_traced_bytes(step) / batch < 2_700 * 1024

    def test_reference_module_step_peaks_below_eight_point_two_activations(self):
        # one train-mode module step at the reference module shapes (66 rows,
        # 40 -> 256 channels, 2 pairs, the output conv), batch 16, forward,
        # upstream product and backward: besides the parameter gradients the
        # traced peak is about 7.84 (16, 66, 256) activations; 8.47 when a
        # pair's inner output is rebuilt before batch norm's backward, beside
        # tanh's slope; 10.96 when the entry block also kept its normalized
        # activations and the backward held the entry block's output
        rng = np.random.default_rng(7)
        glm = init_refinement_params(pose_dim=66, window=20, stages=1, pair_count=2,
                                     latent_dim=256, rng=rng).stages[0]
        glm.output_gc.weights.data = rng.uniform(-0.1, 0.1, glm.output_gc.weights.shape)
        tensors = [t for block in glm.blocks for t in _layer_tensors(block)] + list(glm.output_gc)
        h = Tensor(rng.normal(size=(16, 66, 40)), requires_grad=True)
        upstream = Tensor(rng.normal(size=h.shape))

        def step():
            zero_grads(tensors + [h])
            out = glm_forward(h, glm, Mode.train(np.random.default_rng(1)))
            backward(tensor_sum(out * upstream))

        activation = 16 * 66 * 256 * 8
        parameter_bytes = sum(t.data.nbytes for t in tensors)
        peak = (peak_traced_bytes(step) - parameter_bytes) / activation
        assert peak < 8.2, peak

    @pytest.mark.parametrize("dropout", [0.3, 0.0])
    def test_untracked_pair_holds_no_first_block_array_across_the_second(self, dropout):
        # an untracked train-mode pass (the set-up forward of a model, the
        # per-pass forward of predict) keeps no normalized array of a pair's
        # first block while the second runs, so its peak is that of separate
        # block nodes, adds and the output conv's matmuls; the Python objects
        # of the two differ by under 1 KiB, one activation array at these
        # shapes is 528 KiB
        rng = np.random.default_rng(7)
        glm = init_refinement_params(pose_dim=66, window=20, stages=1, pair_count=2,
                                     latent_dim=256, rng=rng, dropout=dropout).stages[0]
        x = Tensor(rng.normal(size=(4, 66, 40)))

        def forward(module_forward):
            with no_grad():
                module_forward(x, glm, Mode.train(np.random.default_rng(1)))

        separate = functools.partial(composed_module, block=graph_learning_block)
        separate_peak = peak_traced_bytes(lambda: forward(separate))
        module_peak = peak_traced_bytes(lambda: forward(glm_forward))
        assert module_peak <= separate_peak + 1024, (module_peak, separate_peak)

    def test_untracked_train_block_holds_no_product_through_the_dropout_draw(self):
        # off the tape a train-mode block frees its normalized product once
        # batch norm's output exists: the peak is that output, the draw's
        # buffer and its bool keep mask (about 3.1 activations when the
        # product lived on through the draw), at the (64, 66, 256) reference
        # eval batch, where the workspace is a small part of the bound
        rng = np.random.default_rng(9)
        layer = _tracked_layer(rng, 66, 256, 256, RunningStats())
        x = Tensor(rng.normal(size=(64, 66, 256)))

        def forward():
            with no_grad():
                graph_learning_block(x, layer, Mode.train(np.random.default_rng(1)), 0.3)

        activation = x.data.nbytes
        peak = peak_traced_bytes(forward)
        assert peak <= 2.25 * activation + tensor._WORKSPACE_BYTES + 2**20, peak / activation

    def test_untracked_eval_glm_holds_two_activations(self):
        # at the reference shapes an untracked eval module streams each
        # product through the workspace, and a pair's second block writes over
        # the first's output: the peak is the pair's input and output, one
        # (64, 66, 256) activation each, and the workspace (about four
        # activations when each block built adjacency @ x and its product whole)
        rng = np.random.default_rng(8)
        glm = init_refinement_params(pose_dim=66, window=20, stages=1, pair_count=2,
                                     latent_dim=256, rng=rng).stages[0]
        with no_grad():  # running statistics
            glm_forward(Tensor(rng.normal(size=(8, 66, 40))), glm,
                        Mode.train(np.random.default_rng(1)))
        x = Tensor(rng.normal(size=(64, 66, 40)))

        def forward():
            with no_grad():
                glm_forward(x, glm, Mode.eval())

        activation = 64 * 66 * 256 * 8
        peak = peak_traced_bytes(forward)
        assert peak <= 2 * activation + tensor._WORKSPACE_BYTES + 2**20, peak / activation


def assert_holds_batch_statistics(held, layer, x):
    """Assert that ``held`` has the per-channel batch mean and std of
    ``layer``'s product ``adjacency @ x @ weights``."""
    product = (layer.adjacency.data @ x @ layer.weights.data).reshape(-1, layer.gamma.shape[0])
    for expected in (product.mean(axis=0), np.sqrt(product.var(axis=0) + tensor.BN_EPS)):
        assert any(a.shape == expected.shape and np.allclose(a, expected) for a in held)


def _kept_besides_operands(out):
    """The float arrays ``out``'s closure holds that are not its operands'."""
    return [a for a in closure_arrays(out) if a.dtype == np.float64
            and not any(a is t.data for t in out._parents)]


def _reference_loss(config, params, batch):
    """The train-mode loss of a model_forward over ``batch`` random windows."""
    rng = np.random.default_rng(1)
    histories = Tensor(rng.normal(size=(batch, config.pose_dim, config.history_len)))
    out = model_forward(params, histories, config, dct_basis(config.window),
                        Mode.train(np.random.default_rng(2)))
    poses = transpose(out.prediction, (0, 2, 1)).reshape(batch, config.window, config.joints, 3)
    return loss_total(poses, Tensor(rng.normal(size=poses.shape)), None, LossConfig(),
                      config.future_len)


def _reference_tape_per_window(config, batch):
    """Bytes the train-mode tape of a model_forward and loss keeps per window,
    besides the parameters."""
    params = init_model_params(config, np.random.default_rng(0))
    loss = _reference_loss(config, params, batch)
    parameter_bytes = sum(p.data.nbytes for p in named_parameters(params).values())
    return (retained_bytes(loss).total - parameter_bytes) / batch


# (train-mode dropout rate, h's batch axis, inner channels): h of one window
# (1, P, C) and of three (3, P, C), through pairs whose inner block is square
# like the model's and through a 3-channel one (the backward's buffers then
# differ in shape)
MODULE_CASES = [(rate, leading, inner)
                for inner in (5, 3)
                for rate in (0.3, 0.0)
                for leading in ((1,), (3,))]


class TestGlmForward:
    def test_zero_output_conv_nullifies_everything(self):
        rng = np.random.default_rng(4)
        glm = init_refinement_params(pose_dim=3, window=4, stages=1, pair_count=1,
                                     latent_dim=6, rng=rng).stages[0]
        x = rng.normal(size=(1, 3, 8))
        out = glm_forward(Tensor(x), glm, Mode.train(np.random.default_rng(0)))
        assert np.array_equal(out.data, np.zeros((1, 3, 8)))

    def test_reference_block_layout(self):
        rng = np.random.default_rng(5)
        glm = init_refinement_params(pose_dim=6, window=20, stages=1, pair_count=2,
                                     latent_dim=16, rng=rng).stages[0]
        assert len(glm.blocks) == 5
        assert glm.blocks[0].weights.shape == (40, 16)
        assert glm.blocks[1].weights.shape == (16, 16)
        assert glm.output_gc.weights.shape == (16, 40)
        assert isinstance(glm.output_gc, GraphConv)

    @pytest.mark.parametrize("h_tracked", [True, False])
    @pytest.mark.parametrize("rate, leading, inner", MODULE_CASES)
    def test_equals_composed_blocks_bitwise(self, rate, leading, inner, h_tracked):
        # h feeds the entry block and a product whose gradient reaches h
        # first; a pair's input feeds its first block and its add, whose
        # gradient contributions add up in the composed ops' order; at 0 pairs
        # the entry block feeds the output conv, at 2 each pair's sum feeds
        # the next; without the output conv the last pair's sum is the output
        # (the backward then rebuilds no input before the last pair)
        for pair_count, with_output in [(0, True), (1, True), (2, True), (1, False),
                                        (2, False)]:
            rng = np.random.default_rng(40)
            glm = _glm(rng, rows=6, channels=8, latent=5, pair_count=pair_count, inner=inner,
                       dropout=rate)
            if not with_output:
                glm.output_gc = None
            reference = copy.deepcopy(glm)
            x = rng.normal(size=leading + (6, 8))
            out_shape = x.shape if with_output else leading + (6, 5)
            upstream, weight = Tensor(rng.normal(size=out_shape)), Tensor(rng.normal(size=x.shape))

            def run(forward, module):
                g = Tensor(x.copy(), requires_grad=h_tracked)
                out = forward(g, module, Mode.train(np.random.default_rng(5)))
                backward(tensor_sum(g * weight) + tensor_sum(out * upstream))
                tensors = list(module.output_gc or ())
                tensors += [t for layer in module.blocks for t in _layer_tensors(layer)]
                assert (g.grad is not None) == h_tracked
                return ([out.data, g.grad if h_tracked else x] + [t.grad for t in tensors]
                        + [v for layer in module.blocks
                           for v in (layer.stats.mean, layer.stats.var)])
            for fused, composed in zip(run(glm_forward, glm), run(composed_module, reference),
                                       strict=True):
                assert np.array_equal(fused, composed), (pair_count, with_output)

    def test_records_one_tape_node(self):
        rng = np.random.default_rng(41)
        glm = init_refinement_params(pose_dim=6, window=4, stages=1, pair_count=2,
                                     latent_dim=5, rng=rng).stages[0]
        g = Tensor(rng.normal(size=(2, 6, 8)), requires_grad=True)
        out = glm_forward(g, glm, Mode.train(np.random.default_rng(0)))
        assert out._op == "graph_blocks"
        assert list(out._parents) == ([g] + [t for layer in glm.blocks
                                             for t in _layer_tensors(layer)]
                                      + [glm.output_gc.adjacency, glm.output_gc.weights])

    # (the input's shape, each block's C_in, C_out and adjacency rows, the
    # output conv's, the error): an entry block that does not take 6
    # channels, an inner block that does not take the entry block's 4, a pair
    # whose output width is not its input's, a block of other rows, an output
    # conv that does not take the last pair's sum, and an input with no rows
    @pytest.mark.parametrize("shape, widths, output, match", [
        ((3, 5, 6), [(7, 4, 5)], None, "expects 7 channels, got 6"),
        ((3, 5, 6), [(6, 4, 5), (5, 4, 5), (4, 4, 5)], None, "expects 5 channels, got 4"),
        ((3, 5, 6), [(6, 4, 5), (4, 3, 5), (3, 5, 5)], None, "residual pair"),
        ((3, 5, 6), [(6, 4, 5), (4, 4, 7), (4, 4, 5)], None,
         "expects 7 joints-coords rows, got 5"),
        ((3, 5, 6), [(6, 4, 5), (4, 4, 5), (4, 4, 5)], (5, 6, 5), "expects 5 channels, got 4"),
        ((6,), [(6, 4, 5)], None, "P, C"),
    ])
    def test_layer_shape_mismatch_raises_before_any_statistic_moves(self, shape, widths,
                                                                      output, match):
        rng = np.random.default_rng(44)
        layers = [_tracked_layer(rng, rows, c_in, c_out, RunningStats())
                  for c_in, c_out, rows in widths]
        conv = None if output is None else GraphConv(Tensor(rng.normal(size=(output[2],) * 2)),
                                                     Tensor(rng.normal(size=output[:2])))
        with pytest.raises(DimensionError, match=match):
            graph_blocks(Tensor(rng.normal(size=shape)), layers,
                         Mode.train(np.random.default_rng(0)), 0.3, output=conv)
        assert not any(layer.stats.initialized for layer in layers)

    @pytest.mark.parametrize("name", ["gamma", "beta"])
    @pytest.mark.parametrize("bad", range(5))
    def test_affine_of_the_wrong_width_raises_before_any_block_runs(self, monkeypatch, bad,
                                                                     name):
        rng = np.random.default_rng(46)
        glm = _glm(rng, rows=5, channels=6, latent=4, pair_count=2)
        with no_grad():  # running statistics
            glm_forward(Tensor(rng.normal(size=(3, 5, 6))), glm, Mode.train(rng))
        short = Tensor(getattr(glm.blocks[bad], name).data[:-1], requires_grad=True)
        glm.blocks[bad] = glm.blocks[bad]._replace(**{name: short})

        def snapshot():
            return [a.tobytes() for layer in glm.blocks for a in (layer.stats.mean,
                                                                  layer.stats.var)]
        before = snapshot()
        calls = []
        real = tensor._block_forward
        monkeypatch.setattr(tensor, "_block_forward",
                            lambda *args: calls.append(1) or real(*args))
        with pytest.raises(DimensionError, match="gamma/beta"):
            glm_forward(Tensor(rng.normal(size=(3, 5, 6))), glm,
                        Mode.train(np.random.default_rng(0)))
        assert calls == [] and snapshot() == before

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_unbatched_input_raises_and_leaves_statistics_untouched(self, training):
        # one window is a batch of one: a 2-D (P, C) input is no layout
        blocks, output, h = _untracked_module(np.random.default_rng(47), pair_count=1)

        def snapshot():
            return [a.tobytes() for block in blocks for a in (block.stats.mean,
                                                              block.stats.var)]
        before = snapshot()
        mode = Mode.train(np.random.default_rng(0)) if training else Mode.eval()
        with no_grad(), pytest.raises(DimensionError, match="B, P, C"):
            graph_blocks(Tensor(h.data[0]), blocks, mode, 0.3, output=output)
        assert snapshot() == before

    def test_blocks_that_are_not_an_entry_block_and_pairs_raise(self):
        rng = np.random.default_rng(45)
        layers = [_tracked_layer(rng, 5, 6, 4, RunningStats()),
                  _tracked_layer(rng, 5, 4, 4, RunningStats())]
        with pytest.raises(ConfigurationError, match="entry block and residual pairs"):
            graph_blocks(Tensor(rng.normal(size=(3, 5, 6))), layers,
                         Mode.train(np.random.default_rng(0)), 0.3)
        assert not any(layer.stats.initialized for layer in layers)

    def test_eval_forward_is_deterministic(self):
        rng = np.random.default_rng(6)
        glm = init_refinement_params(pose_dim=3, window=3, stages=1, pair_count=1,
                                     latent_dim=5, rng=rng).stages[0]
        for block in glm.blocks:
            block.weights.data = rng.normal(size=block.weights.shape)
        x = rng.normal(size=(1, 3, 6))
        glm_forward(Tensor(x), glm, Mode.train(np.random.default_rng(0)))  # init stats
        with no_grad():
            one = glm_forward(Tensor(x), glm, Mode.eval())
            two = glm_forward(Tensor(x), glm, Mode.eval())
        assert np.array_equal(one.data, two.data)


def _eval_entry(name, rng):
    """A tracked eval call of ``graph_blocks``, ``glm_forward`` or
    ``model_forward`` with trained running statistics: the input, the
    statistics and a thunk that runs it."""
    if name == "model_forward":
        config = ModelConfig(joints=4, history_len=12, query_len=5, future_len=5,
                             stages=2, glb_pairs=1, latent_dim=8)
        params = init_model_params(config, rng)
        h = Tensor(rng.normal(size=(2, config.pose_dim, config.history_len)))
        basis = dct_basis(config.window)
        with no_grad():
            model_forward(params, h, config, basis, Mode.train(rng))
        return (h, list(named_running_stats(params).values()),
                lambda: model_forward(params, h, config, basis, Mode.eval()).prediction)
    glm = _glm(rng, rows=5, channels=6, latent=4, pair_count=1)
    h = Tensor(rng.normal(size=(3, 5, 6)), requires_grad=name == "graph_blocks")
    with no_grad():
        glm_forward(h, glm, Mode.train(rng))
    stats = [layer.stats for layer in glm.blocks]
    if name == "glm_forward":
        return h, stats, lambda: glm_forward(h, glm, Mode.eval())
    # tracked through h alone: every parameter here is untracked
    blocks = [_untracked(layer) for layer in glm.blocks]
    return h, stats, lambda: graph_blocks(h, blocks, Mode.eval(), glm.dropout)


class TestEvalOffTape:
    @pytest.mark.parametrize("name", ["graph_blocks", "glm_forward", "model_forward"])
    def test_tracked_eval_raises_and_changes_nothing(self, name):
        h, stats, run = _eval_entry(name, np.random.default_rng(60))

        def snapshot():
            return [h.data.tobytes()] + [a.tobytes() for s in stats for a in (s.mean, s.var)]
        before = snapshot()
        with pytest.raises(TapeError, match="under no_grad"):
            run()
        assert snapshot() == before
        with no_grad():
            assert not run().requires_grad

    def test_untrained_statistics_raise_under_no_grad(self):
        glm = _glm(np.random.default_rng(61), rows=5, channels=6, latent=4, pair_count=1)
        with no_grad(), pytest.raises(StateError, match="before any training batch"):
            glm_forward(Tensor(np.ones((3, 5, 6))), glm, Mode.eval())
        assert not any(layer.stats.initialized for layer in glm.blocks)

    # (block index, or "output" for the output conv; tensor index in the layer)
    @pytest.mark.parametrize("layer, k", [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (2, 3),
                                          ("output", 0), ("output", 1)])
    def test_any_tracked_operand_raises_before_any_block_runs(self, monkeypatch, layer, k):
        blocks, output, h = _untracked_module(np.random.default_rng(62), pair_count=1)
        picked = output if layer == "output" else blocks[layer]
        picked = picked._replace(**{picked._fields[k]: Tensor(picked[k].data,
                                                              requires_grad=True)})
        if layer == "output":
            output = picked
        else:
            blocks[layer] = picked
        calls = []
        real = tensor._block_forward
        monkeypatch.setattr(tensor, "_block_forward",
                            lambda *args: calls.append(1) or real(*args))
        with pytest.raises(TapeError, match="under no_grad"):
            graph_blocks(h, blocks, Mode.eval(), 0.3, output=output)
        assert calls == []
        with no_grad():
            assert not graph_blocks(h, blocks, Mode.eval(), 0.3, output=output).requires_grad
        assert len(calls) == len(blocks)

    @pytest.mark.parametrize("with_output", [True, False])
    @pytest.mark.parametrize("pair_count", [0, 1, 2])
    def test_off_tape_eval_is_the_same_with_or_without_tracked_operands(self, pair_count,
                                                                         with_output):
        # untracked operands with grad enabled run, as do tracked ones under no_grad
        blocks, output, h = _untracked_module(np.random.default_rng(63), pair_count)
        output = output if with_output else None
        plain = graph_blocks(h, blocks, Mode.eval(), 0.3, output=output)
        tracked = [GraphBlock(*(Tensor(t.data, requires_grad=True) for t in block[:4]),
                              block.stats) for block in blocks]
        with no_grad():
            quiet = graph_blocks(Tensor(h.data, requires_grad=True), tracked, Mode.eval(), 0.3,
                                 output=output)
        assert not plain.requires_grad and not quiet.requires_grad
        assert np.array_equal(plain.data, quiet.data)

    @pytest.mark.parametrize("untrained", range(5))
    def test_untrained_block_raises_and_leaves_h_and_statistics_untouched(self, untrained):
        blocks, output, h = _untracked_module(np.random.default_rng(64), pair_count=2)
        blocks[untrained] = blocks[untrained]._replace(stats=RunningStats())
        before = [h.data.tobytes()] + [a.tobytes() for block in blocks if block.stats.initialized
                                       for a in (block.stats.mean, block.stats.var)]
        with no_grad(), pytest.raises(StateError, match="before any training batch"):
            graph_blocks(h, blocks, Mode.eval(), 0.3, output=output)
        after = [h.data.tobytes()] + [a.tobytes() for block in blocks if block.stats.initialized
                                      for a in (block.stats.mean, block.stats.var)]
        assert after == before
        assert not blocks[untrained].stats.initialized


def _untracked(layer):
    """The layer with untracked copies of its tensors (and the same statistics)."""
    return layer._replace(**{name: Tensor(t.data) for name, t in layer._asdict().items()
                             if isinstance(t, Tensor)})


def _untracked_module(rng, pair_count):
    """The untracked blocks (trained running statistics) and output conv of a
    square 4-channel module on 5 rows, and an untracked input h."""
    glm = _glm(rng, rows=5, channels=4, latent=4, pair_count=pair_count)
    with no_grad():
        glm_forward(Tensor(rng.normal(size=(3, 5, 4))), glm, Mode.train(rng))
    blocks = [_untracked(layer) for layer in glm.blocks]
    return blocks, _untracked(glm.output_gc), Tensor(rng.normal(size=(3, 5, 4)))


class TestRefine:
    def test_residual_identity_at_zero_init(self):
        rng = np.random.default_rng(9)
        params = init_refinement_params(pose_dim=6, window=8, stages=3, pair_count=1,
                                        latent_dim=12, rng=rng)
        basis = dct_basis(8)
        query = Tensor(rng.normal(size=(1, 6, 5)))
        summary = Tensor(rng.normal(size=(1, 6, 8)))
        outputs = refine(query, summary, params, basis, Mode.train(np.random.default_rng(0)))
        expected = pad_query(query, 3).data
        assert np.abs(outputs[-1].data - expected).max() < 1e-10

    def test_stage_outputs_have_stage_count_length(self):
        rng = np.random.default_rng(10)
        for stages in (1, 2, 3, 4):
            params = init_refinement_params(pose_dim=3, window=4, stages=stages,
                                            pair_count=1, latent_dim=5, rng=rng)
            outputs = refine(Tensor(rng.normal(size=(1, 3, 2))),
                             Tensor(rng.normal(size=(1, 3, 4))), params, dct_basis(4),
                             Mode.train(np.random.default_rng(0)))
            assert len(outputs) == stages
            assert all(stage.shape == (1, 3, 4) for stage in outputs)

    # the summary and the padded query go forward once; each stage sends only
    # its prediction half back
    @pytest.mark.parametrize("stages", [1, 3])
    def test_converts_forward_twice_and_back_once_per_stage(self, monkeypatch, stages):
        calls = []
        for name in ("dct", "idct"):
            real = getattr(refinement, name)
            monkeypatch.setattr(refinement, name, lambda *args, name=name, real=real:
                                calls.append(name) or real(*args))
        rng = np.random.default_rng(12)
        params = init_refinement_params(pose_dim=3, window=4, stages=stages, pair_count=1,
                                        latent_dim=5, rng=rng)
        refine(Tensor(rng.normal(size=(1, 3, 2))), Tensor(rng.normal(size=(1, 3, 4))), params,
               dct_basis(4), Mode.train(rng))
        assert (calls.count("dct"), calls.count("idct")) == (2, stages)

    def test_single_stage_equals_manual_composition(self):
        rng = np.random.default_rng(11)
        params = init_refinement_params(pose_dim=4, window=5, stages=1, pair_count=1,
                                        latent_dim=6, rng=rng)
        glm = params.stages[0]
        glm.output_gc.weights.data = rng.normal(size=glm.output_gc.weights.shape)
        basis = dct_basis(5)
        query = Tensor(rng.normal(size=(1, 4, 3)))
        summary = Tensor(rng.normal(size=(1, 4, 5)))

        outputs = refine(query, summary, params, basis, Mode.train(np.random.default_rng(42)))

        # [summary; padded query] coefficients, residual module, then the
        # prediction half back to pose space
        coeffs = concat([dct(summary, basis), dct(pad_query(query, 2), basis)], axis=-1)
        refined = glm_forward(coeffs, glm, Mode.train(np.random.default_rng(42))) + coeffs
        manual = idct(refined[..., 5:], basis)
        assert np.array_equal(outputs[-1].data, manual.data)

    def test_summary_basis_mismatch(self):
        rng = np.random.default_rng(12)
        params = init_refinement_params(pose_dim=3, window=4, stages=1, pair_count=0,
                                        latent_dim=5, rng=rng)
        with pytest.raises(ConfigurationError):
            refine(Tensor(np.zeros((1, 3, 2))), Tensor(np.zeros((1, 3, 5))), params,
                   dct_basis(4), Mode.eval())

    def test_channel_config_mismatch(self):
        rng = np.random.default_rng(13)
        params = init_refinement_params(pose_dim=3, window=5, stages=1, pair_count=0,
                                        latent_dim=5, rng=rng)
        with pytest.raises(ConfigurationError, match="channels"):
            refine(Tensor(np.zeros((1, 3, 2))), Tensor(np.zeros((1, 3, 4))), params,
                   dct_basis(4), Mode.eval())

    def test_gradients_through_two_stages(self):
        rng = np.random.default_rng(14)
        params = init_refinement_params(pose_dim=6, window=5, stages=2, pair_count=1,
                                        latent_dim=8, rng=rng)
        named = []
        for glm in params.stages:
            glm.output_gc.weights.data = rng.normal(scale=0.3,
                                                    size=glm.output_gc.weights.shape)
            for block in glm.blocks:
                named += [block.adjacency, block.weights, block.gamma, block.beta]
            named += [glm.output_gc.adjacency, glm.output_gc.weights]
        basis = dct_basis(5)
        query = Tensor(rng.normal(size=(1, 6, 3)))
        summary = Tensor(rng.normal(size=(1, 6, 5)))
        target = rng.normal(size=(1, 6, 5))

        def build():
            outputs = refine(query, summary, params, basis,
                             Mode.train(np.random.default_rng(7)))
            diff = outputs[-1] - Tensor(target)
            return tensor_sum(diff * diff) * (1.0 / target.size)
        assert_gradients_match(build, named)


def _refinement_case(pose_dim, window, query_len, pair_count, latent_dim, batch, seed):
    """Three stages with nonzero output convs and initialized running stats,
    a query, a summary and one upstream gradient per stage output."""
    rng = np.random.default_rng(seed)
    params = init_refinement_params(pose_dim=pose_dim, window=window, stages=3,
                                    pair_count=pair_count, latent_dim=latent_dim, rng=rng)
    for glm in params.stages:
        glm.output_gc.weights.data = rng.normal(scale=0.3, size=glm.output_gc.weights.shape)
    query = Tensor(rng.normal(size=(batch, pose_dim, query_len)))
    summary = Tensor(rng.normal(size=(batch, pose_dim, window)))
    with no_grad():
        refine(query, summary, params, dct_basis(window), Mode.train(rng))
    upstream = [Tensor(rng.normal(size=(batch, pose_dim, window))) for _ in range(3)]
    return params, query, summary, upstream


def _stage_parameters(params):
    tensors = []
    for glm in params.stages:
        for block in glm.blocks:
            tensors += _layer_tensors(block)
        tensors += [glm.output_gc.adjacency, glm.output_gc.weights]
    return tensors


def _run_refinement(refine_fn, params, query, summary, upstream, training):
    """Stage outputs and, in train mode, the parameter gradients of a loss on
    every stage; eval mode runs under ``no_grad``."""
    basis = dct_basis(summary.shape[-1])
    if not training:
        with no_grad():
            outputs = refine_fn(query, summary, params, basis, Mode.eval())
        return [stage.data for stage in outputs]
    outputs = refine_fn(query, summary, params, basis, Mode.train(np.random.default_rng(5)))
    loss = tensor_sum(outputs[0] * upstream[0])
    for stage, weight in zip(outputs[1:], upstream[1:]):
        loss = loss + tensor_sum(stage * weight)
    backward(loss)
    return [stage.data for stage in outputs] + [t.grad for t in _stage_parameters(params)]


# (pose_dim, window, query_len, pair_count, latent_dim, batch): the overfit
# fixture's shapes and the reference config's
REFINE_SHAPES = {"small": (12, 10, 5, 1, 32, 4), "reference": (66, 20, 10, 2, 256, 2)}


class TestCoefficientChain:
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("shape", list(REFINE_SHAPES))
    def test_agrees_with_pose_space_round_trip(self, shape, training):
        params, query, summary, upstream = _refinement_case(*REFINE_SHAPES[shape], seed=50)
        reference = copy.deepcopy(params)
        chain = _run_refinement(refine, params, query, summary, upstream, training)
        round_trip = _run_refinement(refine_round_trip, reference, query, summary, upstream,
                                     training)
        gradients = len(_stage_parameters(params)) if training else 0
        assert len(chain) == len(round_trip) == 3 + gradients
        for value, ref in zip(chain, round_trip):
            assert value.shape == ref.shape
            assert np.abs(value - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_equals_hand_written_chain_bitwise(self, training):
        params, query, summary, upstream = _refinement_case(*REFINE_SHAPES["small"], seed=51)
        reference = copy.deepcopy(params)

        def hand_written(query, summary, params, basis, mode):
            first, second, third = params.stages
            window = basis.size
            g = concat([dct(summary, basis), dct(pad_query(query, window - query.shape[-1]),
                                                 basis)], axis=-1)
            g = add(glm_forward(g, first, mode), g)
            outputs = [idct(g[..., window:], basis)]
            g = add(glm_forward(g, second, mode), g)
            outputs.append(idct(g[..., window:], basis))
            g = add(glm_forward(g, third, mode), g)
            outputs.append(idct(g[..., window:], basis))
            return outputs

        chain = _run_refinement(refine, params, query, summary, upstream, training)
        manual = _run_refinement(hand_written, reference, query, summary, upstream, training)
        for value, ref in zip(chain, manual):
            assert np.array_equal(value, ref)


# the overfit fixture's config and the reference config
MODEL_CONFIGS = {
    "small": ModelConfig(joints=4, history_len=20, query_len=5, future_len=5, stages=2,
                         glb_pairs=1, latent_dim=32),
    "reference": ModelConfig(joints=22),
}


def _eval_model(config, seed, batch):
    """Seeded parameters with nonzero output convs, random batch-norm affine
    pairs and running statistics from one untracked train forward, and
    ``batch`` random histories."""
    rng = np.random.default_rng(seed)
    params = init_model_params(config, rng)
    for glm in params.refinement.stages:
        glm.output_gc.weights.data = rng.normal(scale=0.3, size=glm.output_gc.weights.shape)
        for block in glm.blocks:
            block.gamma.data = rng.uniform(0.5, 1.5, block.gamma.shape)
            block.beta.data = rng.normal(scale=0.5, size=block.beta.shape)
    histories = rng.normal(scale=50.0, size=(batch, config.pose_dim, config.history_len))
    with no_grad():
        model_forward(params, Tensor(histories), config, dct_basis(config.window),
                      Mode.train(rng))
    return params, histories


def _eval_stages(params, histories, config):
    with no_grad():
        out = model_forward(params, Tensor(histories), config, dct_basis(config.window),
                            Mode.eval())
    return [stage.data for stage in out.stage_outputs]


def _textbook_block(x, layer, mode, rate):
    """An eval graph block with batch norm as ``gamma * (x - mean) / std + beta``."""
    product = matmul(matmul(layer.adjacency, x), layer.weights).data
    std = np.sqrt(layer.stats.var + BN_EPS)
    return Tensor(np.tanh(layer.gamma.data * (product - layer.stats.mean) / std
                          + layer.beta.data))


class TestEvalMap:
    @pytest.mark.parametrize("name", list(MODEL_CONFIGS))
    def test_stage_outputs_agree_with_the_textbook_batch_norm(self, monkeypatch, name):
        # the eval map is one per-channel scale and shift, which rounds
        # differently from the textbook expression
        config = MODEL_CONFIGS[name]
        params, histories = _eval_model(config, 70, batch=8)
        stages = _eval_stages(params, histories, config)
        monkeypatch.setattr(refinement, "glm_forward",
                            functools.partial(composed_module, block=_textbook_block))
        textbook = _eval_stages(params, histories, config)
        assert len(stages) == len(textbook) == config.stages
        for value, ref in zip(stages, textbook):
            assert np.abs(value - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("name", list(MODEL_CONFIGS))
    def test_batch_rows_equal_batch_of_one_forwards_bitwise(self, name):
        config = MODEL_CONFIGS[name]
        params, histories = _eval_model(config, 71, batch=16)
        batched = _eval_stages(params, histories, config)
        for b in range(len(histories)):
            alone = _eval_stages(params, histories[b:b + 1], config)
            for stage, single in zip(batched, alone, strict=True):
                assert np.array_equal(stage[b:b + 1], single), b
