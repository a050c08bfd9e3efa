"""The tape stays small and frees itself: no reference cycles, nothing held
after a sweep."""
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from motionrefine import LossConfig, trainer, window_index
from motionrefine.attention import channels_to_poses
from motionrefine.losses import build_loss_weights, loss_total
from motionrefine.model import ModelConfig, init_model_params, model_forward
from motionrefine.tensor import Mode, Tensor, backward, tensor_sum
from motionrefine.trainer import OptimizerConfig, TrainSettings, train
from motionrefine.transforms import dct_basis
from tape_memory import retained_bytes

CONFIG = ModelConfig(joints=4, history_len=12, query_len=3, future_len=3,
                     stages=2, glb_pairs=1, latent_dim=8)


def _forward_loss():
    params = init_model_params(CONFIG, np.random.default_rng(0))
    histories = Tensor(np.random.default_rng(1).normal(size=(3, 12, 12)))
    out = model_forward(params, histories, CONFIG, dct_basis(CONFIG.window),
                        Mode.train(np.random.default_rng(2)))
    return tensor_sum(out.prediction * out.prediction)


@pytest.fixture
def collector_off():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _watch_module_output(loss):
    """A weakref to the .data of a graph learning module's output on ``loss``'s tape."""
    module = next(node for node in retained_bytes(loss).nodes if node._op == "graph_blocks")
    return weakref.ref(module.data)


def test_training_step_tape_node_count(overfit_fixture):
    # one train-mode step of batch 4 at the small config, leaves included: the
    # attention summary is one value_windows node, not a take and a matmul
    # per summary frame and a concat (87 nodes)
    dataset, config = overfit_fixture
    windows = tuple(index[:4] for index in window_index(dataset, config.history_len,
                                                        config.future_len))
    params = init_model_params(config, np.random.default_rng(0))
    out, truth = trainer._forward_batch(params, config, dct_basis(config.window), dataset,
                                        windows, Mode.train(np.random.default_rng(1)))
    weights = build_loss_weights(dataset.skeleton, config.query_len, config.future_len,
                                 LossConfig())
    loss = loss_total(channels_to_poses(out.prediction), Tensor(truth), weights, LossConfig(),
                      config.future_len)
    assert len(retained_bytes(loss).nodes) <= 76


def test_sweep_leaves_no_closure_held_bytes():
    loss = _forward_loss()
    before = retained_bytes(loss)
    assert before.closures > 0
    nodes = before.nodes
    backward(loss)
    after = retained_bytes(*nodes)
    assert after.closures == 0
    assert all(node._backward is None and node._parents == () for node in nodes)


@pytest.mark.parametrize("swept", [True, False])
def test_intermediates_die_with_the_loss_without_the_collector(collector_off, swept):
    loss = _forward_loss()
    watched = _watch_module_output(loss)
    assert watched() is not None
    if swept:
        backward(loss)
        assert watched() is None  # the sweep already released it
    del loss
    assert watched() is None


def test_training_steps_hold_memory_flat_without_the_collector(collector_off,
                                                               overfit_fixture,
                                                               monkeypatch):
    # one leaked step's tape at this config is about 850 KB; allocator free
    # lists drift by a few KB per step
    dataset, config = overfit_fixture
    sizes = []

    class Enough(Exception):
        pass

    def measured_step(*args, **kwargs):
        real_step(*args, **kwargs)
        sizes.append(tracemalloc.get_traced_memory()[0])
        if len(sizes) == 6:
            raise Enough

    real_step = trainer.adam_step
    monkeypatch.setattr(trainer, "adam_step", measured_step)
    tracemalloc.start()
    try:
        with pytest.raises(Enough):
            train(dataset, config, LossConfig(), OptimizerConfig(),
                  TrainSettings(epochs=1, batch_size=4, seed=0, val_fraction=0.0))
    finally:
        tracemalloc.stop()
    growth = max(sizes[1:]) - sizes[1]
    assert growth < 128 * 1024, sizes
