"""``TrainSettings`` holds only the run configuration; ``train``'s ``on_epoch``
hook sees each epoch's record and may end the run."""
import dataclasses
import json

import pytest

from motionrefine import (
    LossConfig,
    ModelConfig,
    SequenceDataset,
    SynthSpec,
    gen_synthetic,
    synthetic_skeleton,
)
from motionrefine.cli import CONFIG_FIELDS, main
from motionrefine.trainer import OptimizerConfig, TrainSettings, train


@pytest.fixture(scope="module")
def tiny():
    skeleton = synthetic_skeleton(1, 3, 100.0)
    sequences = [gen_synthetic(skeleton, SynthSpec(period=12.0, frames=30, seed=s))
                 for s in range(2)]
    config = ModelConfig(joints=3, history_len=14, query_len=4, future_len=4,
                         stages=1, glb_pairs=0, latent_dim=6)
    return SequenceDataset(skeleton, sequences), config


def _train(tiny, on_epoch):
    dataset, config = tiny
    return train(dataset, config, LossConfig(), OptimizerConfig(),
                 TrainSettings(epochs=4, batch_size=8, seed=0, val_fraction=0.0),
                 on_epoch=on_epoch)


def test_a_true_hook_return_ends_training_after_that_epoch(tiny):
    seen = []
    result = _train(tiny, lambda record: seen.append(record) or record["epoch"] == 1)
    assert result.epochs_run == 2
    assert seen == result.metrics and [r["epoch"] for r in seen] == [0, 1]


def test_a_hook_returning_none_runs_every_epoch(tiny):
    seen = []
    result = _train(tiny, seen.append)
    assert result.epochs_run == 4
    assert seen == result.metrics and [r["epoch"] for r in seen] == [0, 1, 2, 3]


def test_every_settings_field_is_an_echoed_config_key(tmp_path):
    names = [f.name for f in dataclasses.fields(TrainSettings)]
    assert all(CONFIG_FIELDS[name][0] is TrainSettings for name in names)
    data, out = tmp_path / "data", tmp_path / "run"
    assert main(["gen-synth", "--out", str(data), "--count", "1", "--frames", "30"]) == 0
    assert main(["train", "--data", str(data), "--out", str(out), "--epochs", "1",
                 "--set", "history_len=14", "--set", "query_len=4", "--set", "future_len=4",
                 "--set", "stages=1", "--set", "glb_pairs=0", "--set", "latent_dim=6"]) == 0
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert set(names) <= set(resolved)
