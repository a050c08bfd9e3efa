"""The four benchmark workloads.

Each workload turns a seed into synthetic inputs and a model state
(``setup``), yields the inputs of its timed calls in rounds, makes one
public-API call per input (``run``, the only timed code) and checks the
outputs.  The program receives only the generated sequences.

All models start from seeded, non-trivial weights: the zero-initialized
output convolution of every refinement stage gets random weights, and one
train-mode forward pass initializes the batch-norm running statistics.  So
no workload runs the repeat-last-pose model a fresh initialization gives.
"""
from __future__ import annotations

import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from motionrefine import data, trainer
from motionrefine.kinematics import PoseSequence, default_humanoid_skeleton, synthetic_skeleton
from motionrefine.losses import LossConfig
from motionrefine.model import ModelConfig, init_model_params, model_forward, named_parameters
from motionrefine.tensor import Mode, Tensor, no_grad
from motionrefine.transforms import dct_basis

REFERENCE_CONFIG = ModelConfig(joints=22, history_len=50, query_len=10, future_len=10,
                               stages=3, glb_pairs=2, latent_dim=256)
# the overfit fixture of tests/conftest.py
SMALL_CONFIG = ModelConfig(joints=4, history_len=20, query_len=5, future_len=5,
                           stages=2, glb_pairs=1, latent_dim=32)
KINDS = data.SYNTH_KINDS
FRAME_RATE = 25.0


def child_seed(*keys: int) -> int:
    """An independent 32-bit seed for each (run seed, purpose, index) tuple."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def humanoid_sequence(skeleton, seed: int, index: int, frames: int) -> PoseSequence:
    """Sequence ``index`` of a seeded stream that cycles through all synthetic kinds."""
    rng = np.random.default_rng(child_seed(seed, 1, index))
    return data.gen_synthetic(skeleton, data.SynthSpec(
        kind=KINDS[index % len(KINDS)], amplitude=float(rng.uniform(50.0, 150.0)),
        period=float(rng.uniform(12.0, 32.0)), frames=frames,
        seed=child_seed(seed, 2, index), frame_rate=FRAME_RATE))


def humanoid_corpus(seed: int, count: int, frames: int) -> data.SequenceDataset:
    """``count`` humanoid sequences of every synthetic kind, labelled by kind."""
    skeleton = default_humanoid_skeleton()
    sequences = [humanoid_sequence(skeleton, seed, i, frames) for i in range(count)]
    return data.SequenceDataset(skeleton, sequences,
                                labels=[KINDS[i % len(KINDS)] for i in range(count)])


def fixture_corpus(seed: int) -> data.SequenceDataset:
    """The overfit fixture's corpus shape (8 sinusoids of 45 frames), reseeded."""
    skeleton = synthetic_skeleton(1, 4, 100.0)
    sequences = [data.gen_synthetic(skeleton, data.SynthSpec(
        kind="sinusoid", amplitude=100.0, period=16.0, frames=45,
        seed=child_seed(seed, 3, i), frame_rate=FRAME_RATE)) for i in range(8)]
    return data.SequenceDataset(skeleton, sequences, labels=["sinusoid"] * 8)


def history_channels(windows) -> np.ndarray:
    """(batch, pose_dim, history_len) model input from training windows."""
    histories = np.stack([w.history for w in windows])
    return histories.reshape(histories.shape[0], histories.shape[1], -1).transpose(0, 2, 1)


def seeded_params(config: ModelConfig, seed: int, windows):
    rng = np.random.default_rng(child_seed(seed, 4))
    params = init_model_params(config, rng)
    for glm in params.refinement.stages:
        # large enough that each stage moves the MPJPE by a few percent, so the
        # reference checks see an error anywhere in the refinement path
        weights = glm.output_gc.weights
        weights.data = rng.uniform(-1.0, 1.0, weights.shape)
    with no_grad():
        model_forward(params, Tensor(history_channels(windows)), config,
                      dct_basis(config.window), Mode.train(rng))
    return params


def baseline_error(config: ModelConfig, windows) -> float:
    """Largest deviation of a freshly initialized model from repeat-last-pose,
    relative to the largest input coordinate."""
    params = init_model_params(config, np.random.default_rng(0))
    channels = history_channels(windows)
    with no_grad():
        out = model_forward(params, Tensor(channels), config, dct_basis(config.window),
                            Mode.train(np.random.default_rng(1)))
    query = channels[..., -config.query_len:]
    expected = np.concatenate(
        [query, np.repeat(query[..., -1:], config.future_len, axis=-1)], axis=-1)
    return float(np.abs(out.prediction.data - expected).max() / np.abs(channels).max())


def finite(*values) -> bool:
    return all(np.isfinite(np.asarray(v, dtype=np.float64)).all() for v in values)


class Workload:
    """One call per round on the set-up's corpus; subclasses override as needed."""

    def __init__(self, name: str, config: ModelConfig, corpus=None, batch_size: int = 1):
        self.name, self.config = name, config
        self.corpus, self.batch_size = corpus, batch_size

    def rounds(self, state: dict, seed: int):
        """Inputs of the timed calls, one list per round; runs end between rounds."""
        while True:
            yield [None]

    def reference_item(self, seed: int):
        return None

    def prepare(self, state: dict, item):
        """Untimed per-call state for ``run``."""
        return item

    def windows(self, state: dict, item) -> int:
        return len(state["windows"])


class TrainWorkload(Workload):
    """``trainer.train()`` for one epoch, resumed from a seeded checkpoint."""

    loss_config = LossConfig()
    optimizer = trainer.OptimizerConfig()

    def describe(self) -> dict:
        return {"call": "trainer.train", "model": asdict(self.config),
                "batch_size": self.batch_size, "epochs_per_call": 1}

    def setup(self, seed: int, workdir: Path) -> dict:
        dataset = self.corpus(seed)
        windows = data.extract_windows(dataset, self.config.history_len, self.config.future_len)
        settings = trainer.TrainSettings(epochs=1, batch_size=self.batch_size, seed=seed,
                                         val_fraction=0.0)
        params = seeded_params(self.config, seed, windows[:32])
        checkpoint = Path(workdir) / f"{self.name}-{seed}.mckpt"
        trainer.save_checkpoint(checkpoint, params, trainer.AdamState(named_parameters(params)),
                                np.random.default_rng(child_seed(seed, 5)), 0, self.config,
                                self.loss_config, self.optimizer, settings.replay_fields(),
                                dataset.skeleton)
        return {"dataset": dataset, "windows": windows, "settings": settings,
                "checkpoint": checkpoint}

    def prepare(self, state: dict, item):
        return trainer.load_checkpoint(state["checkpoint"])

    def run(self, state: dict, resume):
        return trainer.train(state["dataset"], self.config, self.loss_config, self.optimizer,
                             state["settings"], resume=resume)

    def check(self, state: dict, item, result) -> str | None:
        if result.epochs_run != 1 or len(result.metrics) != 1:
            return f"ran {result.epochs_run} epochs, expected 1"
        record = result.metrics[0]
        if not finite(record["train_loss"], record["train_mpjpe"]):
            return f"non-finite epoch record {record}"
        return None

    def summarize(self, result) -> dict:
        return {"train_loss": [float(r["train_loss"]) for r in result.metrics],
                "train_mpjpe": [float(r["train_mpjpe"]) for r in result.metrics]}


class EvalWorkload(Workload):
    """``trainer.evaluate(..., per_stage=True)`` over a labelled corpus, with a
    loss config as the ``eval`` CLI passes it, so the record carries the loss."""

    frames_ms = (80, 160, 320, 400)
    loss_config = LossConfig()

    def describe(self) -> dict:
        return {"call": "trainer.evaluate", "model": asdict(self.config),
                "batch_size": self.batch_size, "frames_ms": list(self.frames_ms),
                "per_stage": True, "loss_config": asdict(self.loss_config)}

    def setup(self, seed: int, workdir: Path) -> dict:
        dataset = self.corpus(seed)
        windows = data.extract_windows(dataset, self.config.history_len, self.config.future_len)
        return {"dataset": dataset, "windows": windows,
                "params": seeded_params(self.config, seed, windows[:32])}

    def run(self, state: dict, item):
        return trainer.evaluate(state["dataset"], state["params"], self.config, self.frames_ms,
                                per_stage=True, loss_config=self.loss_config,
                                batch_size=self.batch_size)

    def check(self, state: dict, item, record) -> str | None:
        if record["window_count"] != len(state["windows"]):
            return f"evaluated {record['window_count']} windows, expected {len(state['windows'])}"
        if len(record["stage_mpjpe"]) != self.config.stages + 1:
            return f"{len(record['stage_mpjpe'])} stage rows, expected {self.config.stages + 1}"
        if set(record["per_action"]) != set(state["dataset"].labels):
            return f"actions {sorted(record['per_action'])} differ from the corpus labels"
        if not finite(record["mpjpe"], record["stage_mpjpe"], record["stage_overall"],
                      record["mean_loss"]):
            return "non-finite MPJPE or loss"
        return None

    def summarize(self, record) -> dict:
        values = {"mpjpe": record["mpjpe"], "stage_mpjpe": record["stage_mpjpe"],
                  "stage_overall": record["stage_overall"], "mean_loss": record["mean_loss"]}
        for label, row in sorted(record["per_action"].items()):
            values[f"per_action.{label}"] = row["mpjpe"]
        return values


class PredictWorkload(Workload):
    """``trainer.predict_autoregressive`` at batch 1 from histories of varied length.

    Each round predicts once from every length in ``lengths``, in a seeded
    order; runs stop only between rounds, so every run sees the same mix of
    lengths whenever the clock runs out.
    """

    lengths = (50, 112, 175, 238, 300)
    horizon = 200
    kept_frames = (0, 9, 49, 99, 149, 199)

    def describe(self) -> dict:
        return {"call": "trainer.predict_autoregressive", "model": asdict(self.config),
                "batch_size": 1, "horizon": self.horizon,
                "history_lengths": list(self.lengths)}

    def setup(self, seed: int, workdir: Path) -> dict:
        corpus = humanoid_corpus(seed, 4, self.config.history_len + self.config.future_len + 7)
        windows = data.extract_windows(corpus, self.config.history_len, self.config.future_len)
        return {"windows": windows, "params": seeded_params(self.config, seed, windows)}

    def rounds(self, state: dict, seed: int):
        rng = np.random.default_rng(child_seed(seed, 7))
        index = 0
        skeleton = default_humanoid_skeleton()
        while True:
            batch = []
            for frames in rng.permutation(self.lengths):
                batch.append(humanoid_sequence(skeleton, child_seed(seed, 6), index, int(frames)))
                index += 1
            yield batch

    def reference_item(self, seed: int) -> PoseSequence:
        return humanoid_sequence(default_humanoid_skeleton(), child_seed(seed, 8), 0,
                                 self.lengths[0])

    def run(self, state: dict, history):
        return trainer.predict_autoregressive(history, state["params"], self.config, self.horizon)

    def windows(self, state: dict, history) -> int:
        # one query+future window is refined per autoregressive pass
        return math.ceil(self.horizon / self.config.future_len)

    def check(self, state: dict, history, prediction) -> str | None:
        expected = (self.horizon, self.config.joints, 3)
        if prediction.coords.shape != expected:
            return f"prediction shape {prediction.coords.shape}, expected {expected}"
        if not finite(prediction.coords):
            return "non-finite prediction"
        return None

    def summarize(self, prediction) -> dict:
        return {f"frame{i + 1}": prediction.coords[i].ravel().tolist() for i in self.kept_frames}


# why each workload exists is recorded in BENCHMARK.json and bench/README.md
WORKLOADS = {w.name: w for w in (
    # 4 sequences x 8 windows: one batch of 32, so one optimizer step per call
    TrainWorkload("train_ref", REFERENCE_CONFIG, lambda seed: humanoid_corpus(seed, 4, 67), 32),
    # 8 sequences x 21 windows in batches of 4: 42 steps per call
    TrainWorkload("train_small", SMALL_CONFIG, fixture_corpus, 4),
    # 4 sequences x 32 windows: two batches of 64 per call
    EvalWorkload("eval_ref", REFERENCE_CONFIG, lambda seed: humanoid_corpus(seed, 4, 91), 64),
    PredictWorkload("predict_ar", REFERENCE_CONFIG),
)}
