import pytest

from motionrefine import (
    LossConfig,
    ModelConfig,
    SequenceDataset,
    SynthSpec,
    gen_synthetic,
    synthetic_skeleton,
)
from motionrefine.trainer import OptimizerConfig, TrainSettings, train


@pytest.fixture(scope="session")
def overfit_fixture():
    """The desk-scale sinusoid corpus: 8 sequences, J=4, 100 mm amplitude."""
    skeleton = synthetic_skeleton(1, 4, 100.0)
    sequences = [gen_synthetic(skeleton, SynthSpec(kind="sinusoid", amplitude=100.0,
                                                   period=16.0, frames=45, seed=s))
                 for s in range(8)]
    dataset = SequenceDataset(skeleton, sequences, labels=["sinusoid"] * 8)
    config = ModelConfig(joints=4, history_len=20, query_len=5, future_len=5,
                         stages=2, glb_pairs=1, latent_dim=32)
    return dataset, config


@pytest.fixture(scope="session")
def trained_overfit(overfit_fixture):
    """Model trained on the overfit corpus, used by several acceptance checks."""
    dataset, config = overfit_fixture
    settings = TrainSettings(epochs=300, batch_size=4, seed=0, val_fraction=0.0)
    import time
    start = time.time()
    result = train(dataset, config, LossConfig(), OptimizerConfig(), settings,
                   on_epoch=lambda record: record["train_mpjpe"] < 0.5)
    elapsed = time.time() - start
    return result, elapsed
