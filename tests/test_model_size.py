"""The model's size has one owner: ``count_parameters(config)``.

The dry run prints it without building the model, ``load_checkpoint``
compares it with the file's parameter arrays before allocating anything, and
``train`` refuses, before it writes anything, a model whose parameters and
Adam moments cannot fit in the machine's memory.  Every run at such a size is
a child under its own address-space cap and a timeout, so a regression fails
the test instead of claiming the host's memory.
"""
import dataclasses
import itertools
import json
import os
import resource
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import motionrefine
from motionrefine.cli import main
from motionrefine.errors import FormatError
from motionrefine.kinematics import synthetic_skeleton
from motionrefine.losses import LossConfig
from motionrefine.model import (
    ModelConfig,
    count_parameters,
    init_model_params,
    named_parameters,
)
from motionrefine.trainer import AdamState, OptimizerConfig, load_checkpoint, save_checkpoint


def run_capped(argv: list[str], cap: int, cwd: Path) -> subprocess.CompletedProcess:
    """``motionrefine ARGV`` in a child whose address space is capped at ``cap`` bytes."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    path = os.pathsep.join(filter(None, [str(Path(motionrefine.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "motionrefine.cli", *argv], env=env, cwd=cwd,
                          preexec_fn=limit, capture_output=True, text=True, timeout=60)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Two gen-synth sequences on the default 4-joint skeleton."""
    out = tmp_path_factory.mktemp("corpus")
    assert main(["gen-synth", "--out", str(out), "--count", "2", "--frames", "30"]) == 0
    return out


@pytest.mark.parametrize("attention_mode, glb_pairs, query_len, stages, joints",
                         itertools.product(("attention", "copy"), (0, 2), (1, 4, 10),
                                           (1, 3), (1, 4, 22)))
def test_count_equals_the_built_model(attention_mode, glb_pairs, query_len, stages, joints):
    config = ModelConfig(joints=joints, history_len=query_len + 6, query_len=query_len,
                         future_len=3, stages=stages, glb_pairs=glb_pairs, latent_dim=5,
                         attention_mode=attention_mode)
    params = init_model_params(config, np.random.default_rng(0))
    assert count_parameters(config) == sum(t.size for t in named_parameters(params).values())


def test_dry_run_counts_a_model_too_large_to_build(corpus, tmp_path):
    # 8.8e9 parameters: building them would ask for 66 GiB under a 3 GB cap
    done = run_capped(["train", "--data", str(corpus), "--dry-run",
                       "--set", "latent_dim=20000"], 3 << 30, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("parameter count: 8808362592\n")
    assert list(tmp_path.iterdir()) == []


# a 384 MiB cap leaves about 250 MiB past an interpreter with numpy loaded
@pytest.mark.parametrize("item", ["latent_dim=1000000", "glb_pairs=100000"])
def test_train_beyond_memory_exits_2_before_writing(corpus, tmp_path, item):
    out = tmp_path / "run"
    done = run_capped(["train", "--data", str(corpus), "--out", str(out), "--set", item],
                      384 << 20, tmp_path)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "parameters" in done.stderr
    assert not out.exists()


def _checkpoint(path: Path, config: ModelConfig) -> bytes:
    params = init_model_params(config, np.random.default_rng(0))
    save_checkpoint(path, params, AdamState(named_parameters(params)),
                    np.random.default_rng(1), 0, config, LossConfig(), OptimizerConfig(), {},
                    synthetic_skeleton(1, 3, 100.0))
    return path.read_bytes()


def _with_model_config(blob: bytes, **changes) -> bytes:
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + header_len])
    header["model_config"].update(changes)
    text = json.dumps(header).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + header_len:]


def test_checkpoint_count_is_checked_before_allocating(tmp_path):
    config = ModelConfig(joints=3, history_len=14, query_len=4, future_len=4,
                         stages=2, glb_pairs=1, latent_dim=12)
    path = tmp_path / "model.mckpt"
    blob = _checkpoint(path, config)
    bigger = dataclasses.replace(config, glb_pairs=5, latent_dim=45)
    path.write_bytes(_with_model_config(blob, glb_pairs=5, latent_dim=45))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as info:
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"model_config has {count_parameters(bigger)} parameters" in str(info.value)
    assert f"the payload stores {count_parameters(config)}" in str(info.value)
    assert peak < 2 ** 19, peak
