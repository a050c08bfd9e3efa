"""The benchmark wraps motionrefine functions by the names in bench/spans.py
and builds its models from the configs in bench/workloads.py.

A rename or deletion of a wrapped function, or of a config field a workload
passes, would otherwise only surface as a crash of a benchmark run; one
checked train_small call also runs the trainer and checkpoint calls a
workload makes, and each workload's reference call must still match the
outputs stored in bench/reference.json.
"""
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from motionrefine import refinement
from motionrefine.model import ModelConfig, init_model_params, model_forward
from motionrefine.tensor import Mode, Tensor, no_grad
from motionrefine.transforms import dct_basis

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name: str):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_span_target_resolves(monkeypatch):
    spans = _load(monkeypatch, "spans")
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in spans.TARGETS
               if not callable(getattr(module, attr, None))]
    assert spans.TARGETS and missing == []


def test_bench_workload_configs_build(monkeypatch):
    workloads = _load(monkeypatch, "workloads")
    assert isinstance(workloads.REFERENCE_CONFIG, ModelConfig)
    assert isinstance(workloads.SMALL_CONFIG, ModelConfig)


@pytest.mark.parametrize("name", ["REFERENCE_CONFIG", "SMALL_CONFIG"])
def test_refinement_spans_count_one_call_per_block_run(monkeypatch, name):
    # each module is one glm_forward call and one tape node, so
    # refinement.glm_forward.s times the whole module and neither
    # refinement.graph_learning_block.s nor refinement.graph_conv.s is called
    # by a model_forward: a change to these counts changes what the
    # per-layer metrics measure
    config = getattr(_load(monkeypatch, "workloads"), name)
    calls = {"glm_forward": 0, "graph_learning_block": 0, "graph_conv": 0}
    for attr in calls:
        def counting(*args, _real=getattr(refinement, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(refinement, attr, counting)
    params = init_model_params(config, np.random.default_rng(0))
    histories = np.random.default_rng(1).normal(size=(2, config.pose_dim, config.history_len))
    with no_grad():
        model_forward(params, Tensor(histories), config, dct_basis(config.window),
                      Mode.train(np.random.default_rng(2)))
    assert calls == {"glm_forward": config.stages, "graph_learning_block": 0, "graph_conv": 0}


def test_train_small_workload_runs_one_checked_call(monkeypatch, tmp_path):
    workloads = _load(monkeypatch, "workloads")
    workload = workloads.WORKLOADS["train_small"]
    state = workload.setup(0, tmp_path)
    (item,) = next(workload.rounds(state, 0))
    result = workload.run(state, workload.prepare(state, item))
    assert workload.check(state, item, result) is None


@pytest.mark.parametrize("name", ["train_ref", "train_small", "eval_ref", "predict_ar"])
def test_reference_call_matches_the_stored_outputs(monkeypatch, tmp_path, name):
    workloads = _load(monkeypatch, "workloads")
    run = _load(monkeypatch, "run")
    workload = workloads.WORKLOADS[name]
    state = workload.setup(run.REFERENCE_SEED, tmp_path)
    item = workload.reference_item(run.REFERENCE_SEED)
    record = workload.run(state, workload.prepare(state, item))
    assert workload.check(state, item, record) is None
    stored = json.loads(run.REFERENCE_FILE.read_text())
    assert run.compare(workload.summarize(record), stored[name]) == []
