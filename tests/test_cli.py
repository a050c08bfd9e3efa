import json
import os
import re
import resource
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import motionrefine
from motionrefine import cli
from motionrefine.cli import _apply_ablation, build_parser, main, resolve_config
from motionrefine.data import SynthSpec, load_dataset, load_sequence
from motionrefine.errors import ConfigurationError
from motionrefine.model import ModelConfig, named_parameters, named_running_stats
from motionrefine.trainer import (
    frames_from_milliseconds,
    load_checkpoint,
    prediction_bytes,
    save_checkpoint,
)


TINY_MODEL = ["--set", "history_len=14", "--set", "query_len=4", "--set", "future_len=4",
              "--set", "stages=2", "--set", "glb_pairs=1", "--set", "latent_dim=12",
              "--set", "batch_size=4", "--set", "val_fraction=0.0"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main(["gen-synth", "--out", str(out), "--count", "4", "--frames", "40",
               "--joints-per-chain", "3", "--seed", "11"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def untrained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("untrained")
    rc = main(["train", "--data", str(corpus), "--out", str(out),
               "--epochs", "0", "--seed", "0", *TINY_MODEL])
    assert rc == 0
    return out / "checkpoint.mckpt"


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--data", str(corpus), "--out", str(out),
               "--epochs", "3", "--seed", "0", *TINY_MODEL])
    assert rc == 0
    return out


# nested past the interpreter's recursion limit: json.loads raises
# RecursionError, not a ValueError
DEEP_JSON = b"[" * 200_000


# configuration keys removed with the settings they named -> the value each held
REMOVED_KEYS = {"adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8, "window_stride": 1}


@pytest.fixture(scope="module")
def bad_configs(tmp_path_factory):
    out = tmp_path_factory.mktemp("configs")
    (out / "utf16.json").write_bytes(b"\xff\xfe" + '{"epochs": 1}'.encode("utf-16-le"))
    (out / "deep.json").write_bytes(DEEP_JSON)
    for key, value in REMOVED_KEYS.items():
        (out / f"{key}.json").write_text(json.dumps({key: value}))
    return out


# the address space a capped CLI child may map: about 250 MiB past an
# interpreter with numpy loaded, so a run that asks for more fails at once
# instead of claiming the host's memory
MEMORY_CAP = 384 << 20


def run_with_memory_cap(argv: list[str]) -> subprocess.CompletedProcess:
    """``motionrefine ARGV`` in a child under ``MEMORY_CAP`` and a timeout."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    path = os.pathsep.join(filter(None, [str(Path(motionrefine.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "motionrefine.cli", *argv], env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=60)


COMMAND_OPTIONS = {
    "train": {"--config", "--seed", "--out", "--dry-run", "--set", "--data", "--epochs"},
    "predict": {"--horizon"},
    "eval": {"--frames-ms", "--stride", "--stages", "--ablation", "--out"},
    "gen-synth": {"--kind", "--count", "--amplitude", "--period", "--frames", "--frame-rate",
                  "--chains", "--joints-per-chain", "--bone-length", "--out", "--seed"},
}


def test_each_command_declares_only_the_options_it_reads():
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action.choices, dict)]
    declared = {name: {opt for action in sub._actions for opt in action.option_strings}
                - {"-h", "--help"} for name, sub in commands.items()}
    assert declared == COMMAND_OPTIONS


# each rejected before any file is written: options a command does not take,
# and values argparse or the command itself refuses
REJECTED = {
    "predict_seed": (["predict", "{ckpt}", "{seq}", "out.mseq", "--horizon", "4",
                      "--seed", "3"], "--seed"),
    "predict_set": (["predict", "{ckpt}", "{seq}", "out.mseq", "--horizon", "4",
                     "--set", "lr=1"], "--set"),
    "predict_horizon_abc": (["predict", "{ckpt}", "{seq}", "out.mseq", "--horizon", "abc"],
                            "abc"),
    "eval_dry_run": (["eval", "{ckpt}", "{data}", "--dry-run"], "--dry-run"),
    "eval_config": (["eval", "{ckpt}", "{data}", "--config", "f.json"], "--config"),
    "train_epochs_float": (["train", "--data", "{data}", "--out", "run", "--epochs", "1.5"],
                           "1.5"),
    "train_batch_size_zero": (["train", "--data", "{data}", "--out", "run",
                               "--set", "batch_size=0"], "batch_size"),
    "train_batch_size_negative": (["train", "--data", "{data}", "--out", "run",
                                   "--set", "batch_size=-3"], "batch_size"),
    "train_seed_negative": (["train", "--data", "{data}", "--out", "run", "--seed", "-1"],
                            "seed"),
    "train_val_fraction_above_one": (["train", "--data", "{data}", "--out", "run",
                                      "--set", "val_fraction=1.5"], "val_fraction"),
    "train_val_fraction_negative": (["train", "--data", "{data}", "--out", "run",
                                     "--set", "val_fraction=-0.5"], "val_fraction"),
    # keys that named settings now fixed, even at the values they held
    **{f"train_set_{key}": (["train", "--data", "{data}", "--out", "run", "--set",
                             f"{key}={value}"], f"unknown configuration key {key!r}")
       for key, value in REMOVED_KEYS.items()},
    **{f"train_config_{key}": (["train", "--data", "{data}", "--out", "run", "--config",
                                f"{{configs}}/{key}.json"], f"unknown configuration key {key!r}")
       for key in REMOVED_KEYS},
    "train_lr_decay_negative": (["train", "--data", "{data}", "--out", "run",
                                 "--set", "lr_decay=-1"], "lr_decay"),
    "train_spatial_floor_nan": (["train", "--data", "{data}", "--out", "run",
                                 "--set", "spatial_floor=nan"], "spatial_floor"),
    "train_spatial_floor_inf": (["train", "--data", "{data}", "--out", "run",
                                 "--set", "spatial_floor=inf"], "spatial_floor"),
    # the corpus sequences have 40 frames, a window here 50
    "train_no_training_windows": (["train", "--data", "{data}", "--out", "run",
                                   "--set", "history_len=40"], "no training windows"),
    "train_config_not_utf8": (["train", "--data", "{data}", "--out", "run",
                               "--config", "{configs}/utf16.json"], "utf16.json"),
    "train_config_nested_too_deep": (["train", "--data", "{data}", "--out", "run",
                                      "--config", "{configs}/deep.json"], "deep.json"),
    "eval_frames_ms_nan": (["eval", "{ckpt}", "{data}", "--frames-ms", "nan"], "nan"),
    "eval_frames_ms_inf": (["eval", "{ckpt}", "{data}", "--frames-ms", "inf"], "inf"),
    "eval_frames_ms_overflowing": (["eval", "{ckpt}", "{data}", "--frames-ms", "1e308"],
                                   "1e+308"),
    "gen_synth_dry_run": (["gen-synth", "--out", "D", "--dry-run"], "--dry-run"),
    "gen_synth_negative_count": (["gen-synth", "--out", "D", "--count", "-2"], "-2"),
    "gen_synth_seed_negative": (["gen-synth", "--out", "D", "--seed", "-1"], "seed"),
    "gen_synth_frame_rate_not_millihertz": (["gen-synth", "--out", "D",
                                             "--frame-rate", "25.0001"], "25.0001"),
    "gen_synth_frame_rate_over_u32_millihertz": (["gen-synth", "--out", "D",
                                                  "--frame-rate", "5e6"], "5000000.0"),
    "gen_synth_amplitude_beyond_float32": (["gen-synth", "--out", "D",
                                            "--amplitude", "1e308"], "float32"),
    "gen_synth_bone_length_overflowing": (["gen-synth", "--out", "D",
                                           "--bone-length", "1e308"], "1e+308"),
    "gen_synth_period_overflowing": (["gen-synth", "--out", "D", "--period", "1e-320"],
                                     "1e-320"),
    # the piecewise kind draws frames / period velocities
    "gen_synth_piecewise_period_below_one_frame": (
        ["gen-synth", "--out", "D", "--kind", "piecewise-constant-velocity",
         "--period", "1e-300"], "1e-300"),
    # every file is built before the first write: 447,000 GiB of them here
    "gen_synth_files_past_memory": (["gen-synth", "--out", "D", "--count", "100000000",
                                     "--frames", "100000"], "100000000 sequences"),
    "gen_synth_count_2_63": (["gen-synth", "--out", "D", "--count", str(2 ** 63)],
                             "GiB, more than"),
    # a byte count past the float range
    "gen_synth_count_10_400": (["gen-synth", "--out", "D", "--count", str(10 ** 400)],
                               "inf GiB"),
}


@pytest.mark.parametrize("case", list(REJECTED))
def test_rejected_invocation_exits_2_with_one_error_line_and_writes_nothing(
        corpus, trained, bad_configs, tmp_path, monkeypatch, capsys, case):
    command, named = REJECTED[case]
    monkeypatch.chdir(tmp_path)
    paths = {"ckpt": trained / "checkpoint.mckpt", "seq": corpus / "sinusoid_000.mseq",
             "data": corpus, "configs": bad_configs}
    rc = main([arg.format(**paths) for arg in command])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert list(tmp_path.iterdir()) == []


# a checkpoint of 0 epochs has no running statistics for eval-mode batch norm
@pytest.mark.parametrize("command", [
    ["eval", "{ckpt}", "{data}", "--frames-ms", "80", "--out", "out"],
    ["predict", "{ckpt}", "{seq}", "out.mseq", "--horizon", "4"]], ids=["eval", "predict"])
def test_untrained_checkpoint_exits_1_with_one_error_line_and_writes_nothing(
        corpus, untrained, tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    paths = {"ckpt": untrained, "seq": corpus / "sinusoid_000.mseq", "data": corpus}
    rc = main([arg.format(**paths) for arg in command])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "before any training batch" in err
    assert list(tmp_path.iterdir()) == []


# a need is refused only past physical memory; one past 1e308 bytes reads inf GiB
@pytest.mark.parametrize("excess, shown", [(0, None), (1, "GiB"), (10 ** 400, "need inf GiB")],
                         ids=["at_memory", "one_byte_past", "past_float_range"])
def test_memory_preflight_refuses_only_past_physical_memory(excess, shown):
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if shown is None:
        cli._check_fits(memory + excess, "the work")
        return
    with pytest.raises(ConfigurationError, match=re.escape(shown)) as raised:
        cli._check_fits(memory + excess, "the work")
    assert str(raised.value).startswith("the work need ")


class TestConfigResolution:
    def test_defaults_match_reference_configuration(self):
        resolved = resolve_config(None, None)
        assert resolved["history_len"] == 50
        assert resolved["query_len"] == 10
        assert resolved["future_len"] == 10
        assert resolved["stages"] == 3
        assert resolved["glb_pairs"] == 2       # 1 + 2*2 == 5 blocks per module
        assert resolved["latent_dim"] == 256
        assert resolved["dropout"] == 0.3
        assert resolved["lr"] == 0.005
        assert resolved["lr_decay"] == 0.97
        assert resolved["batch_size"] == 32
        assert resolved["epochs"] == 200

    def test_file_then_set_then_flag_precedence(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epochs": 7, "seed": 3}))
        resolved = resolve_config(str(path), ["epochs=9"], {"seed": 4})
        assert resolved["epochs"] == 9
        assert resolved["seed"] == 4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"momentum": 0.9}))
        with pytest.raises(ConfigurationError, match="momentum"):
            resolve_config(str(path), None)

    def test_bad_boolean(self):
        with pytest.raises(ConfigurationError):
            resolve_config(None, ["use_velocity=maybe"])

    @pytest.mark.parametrize("item", ["epochs=abc", "lr=fast"])
    def test_bad_number_exits_2_with_one_error_line(self, corpus, capsys, item):
        rc = main(["train", "--data", str(corpus), "--dry-run", "--set", item])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert item.partition("=")[2] in err

    @pytest.mark.parametrize("payload", [{"stages": 2.5}, {"stages": [2]}, {"stages": True}],
                             ids=["float_for_int", "list_for_int", "bool_for_int"])
    def test_mistyped_config_value_exits_2_with_one_error_line(self, corpus, capsys,
                                                               tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        rc = main(["train", "--data", str(corpus), "--dry-run", "--config", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stages: expected int") and err.count("\n") == 1


class TestGenSynth:
    def test_count_zero_writes_only_skeleton(self, tmp_path):
        rc = main(["gen-synth", "--out", str(tmp_path), "--count", "0"])
        assert rc == 0
        assert (tmp_path / "skeleton.mskel").exists()
        assert list(tmp_path.glob("*.mseq")) == []

    def test_same_seed_identical_corpus(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-synth", "--out", str(out), "--count", "2",
                         "--frames", "30", "--seed", "7"]) == 0
        for name in ("skeleton.mskel", "sinusoid_000.mseq", "sinusoid_001.mseq"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("flag, value", [
        ("--frames", "0"), ("--period", "0"), ("--frame-rate", "0"),
        ("--amplitude", "nan"), ("--chains", "0")])
    def test_bad_value_exits_2_and_leaves_no_path(self, tmp_path, capsys, flag, value):
        out = tmp_path / "corpus"
        assert main(["gen-synth", "--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    # a skeleton of 1e8 joints per chain grows Python lists until memory runs
    # out; a 1e7-frame sequence, a 458 MiB file that passes the size
    # pre-flight, asks numpy for 916 MiB at once
    @pytest.mark.parametrize("args", [["--joints-per-chain", "100000000"],
                                      ["--frames", "10000000", "--count", "1"]])
    def test_out_of_memory_exits_1_with_one_error_line_and_leaves_no_path(self, tmp_path,
                                                                          args):
        out = tmp_path / "corpus"
        done = run_with_memory_cap(["gen-synth", "--out", str(out), *args])
        assert done.returncode == 1
        assert done.stderr.startswith("error: out of memory") and done.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--amplitude", "1e308"), ("--bone-length", "1e308"), ("--period", "1e-320")])
    def test_overflowing_value_raises_no_warning(self, tmp_path, recwarn, flag, value):
        assert main(["gen-synth", "--out", str(tmp_path / "corpus"), flag, value]) == 2
        assert len(recwarn) == 0

    def test_corpus_loads_as_dataset(self, corpus):
        ds = load_dataset(corpus)
        assert len(ds.sequences) == 4
        assert ds.labels == ["sinusoid"] * 4


class TestTrain:
    def test_missing_data_path_exits_2_naming_field(self, capsys):
        rc = main(["train", "--out", "/tmp/nowhere"])
        assert rc == 2
        assert "data" in capsys.readouterr().err

    def test_dry_run_prints_config_and_param_count(self, corpus, capsys, tmp_path):
        rc = main(["train", "--data", str(corpus), "--dry-run", *TINY_MODEL])
        assert rc == 0
        out = capsys.readouterr().out
        assert "parameter count:" in out
        assert json.loads(out[:out.index("parameter count:")])["latent_dim"] == 12
        assert list(tmp_path.glob("**/*.mckpt")) == []

    @pytest.mark.parametrize("field, bad", [
        (r"joint_count: \d+", "joint_count: four"),
        (r"\| [\d.]+", "| long"),
    ], ids=["joint_count", "chain_token"])
    def test_malformed_skeleton_exits_1_with_one_error_line(self, corpus, capsys, tmp_path,
                                                          field, bad):
        data = tmp_path / "data"
        shutil.copytree(corpus, data)
        mskel = data / "skeleton.mskel"
        text, replaced = re.subn(field, bad, mskel.read_text(), count=1)
        assert replaced == 1
        mskel.write_text(text)
        rc = main(["train", "--data", str(data), "--dry-run", *TINY_MODEL])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert bad.split()[-1] in err

    def test_train_writes_echoed_config_metrics_and_checkpoint(self, trained):
        assert (trained / "checkpoint.mckpt").exists()
        resolved = json.loads((trained / "config.resolved.json").read_text())
        assert resolved["history_len"] == 14
        records = [json.loads(line) for line in
                   (trained / "metrics.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in records] == [0, 1, 2]
        assert all("train_loss" in r and "train_mpjpe" in r for r in records)

    # the run fails after making its output directory and before writing any
    # file; it removes the directories it made, but nothing that was there
    @pytest.mark.parametrize("existing", [False, True])
    def test_diverging_run_exits_1_with_one_error_line_and_leaves_nothing(
            self, corpus, tmp_path, capsys, recwarn, existing):
        out = tmp_path / "runs" / "run"
        if existing:
            out.mkdir(parents=True)
            (out / "notes.txt").write_text("kept")
        rc = main(["train", "--data", str(corpus), "--out", str(out),
                   "--epochs", "1", "--set", "lr=1e308", *TINY_MODEL])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: non-finite loss") and err.count("\n") == 1
        assert [str(w.message) for w in recwarn] == []
        if existing:
            assert [p.name for p in out.iterdir()] == ["notes.txt"]
        else:
            assert list(tmp_path.iterdir()) == []

    def test_printed_records_equal_the_metrics_log(self, corpus, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--data", str(corpus), "--out", str(out),
                     "--epochs", "2", *TINY_MODEL]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("{")]
        assert [json.loads(line)["epoch"] for line in printed] == [0, 1]
        assert printed == (out / "metrics.jsonl").read_text().splitlines()

    def test_failed_run_into_a_finished_run_leaves_its_files(self, corpus, trained,
                                                             tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(trained, out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(before) == ["checkpoint.mckpt", "config.resolved.json", "metrics.jsonl"]
        rc = main(["train", "--data", str(corpus), "--out", str(out),
                   "--epochs", "1", "--set", "lr=1e308", *TINY_MODEL])
        assert rc == 1, capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def _non_utf8_skeleton(data):
    mskel = data / "skeleton.mskel"
    mskel.write_bytes(mskel.read_bytes().replace(b"units", b"un\xffts", 1))


def _non_utf8_sequence_name(data):
    mseq = data / "sinusoid_000.mseq"
    blob = bytearray(mseq.read_bytes())
    blob[24] = 0xFF  # first byte of the skeleton name, after magic and four u32s
    mseq.write_bytes(bytes(blob))


def _truncated_sequence(data):
    mseq = data / "sinusoid_000.mseq"
    mseq.write_bytes(mseq.read_bytes()[:-5])


def _splice_header(data, edit):
    """Write the checkpoint back with ``edit(its header bytes)`` as its header."""
    ckpt = data / "checkpoint.mckpt"
    blob = ckpt.read_bytes()
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = edit(blob[12:12 + header_len])
    ckpt.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header
                     + blob[12 + header_len:])


def _checkpoint_header(change):
    def edit(header):
        meta = json.loads(header)
        change(meta)
        return json.dumps(meta).encode("utf-8")
    return lambda data: _splice_header(data, edit)


def _checkpoint_without(field):
    return _checkpoint_header(lambda meta: meta.pop(field))


def _resaved_checkpoint(change):
    """Load the checkpoint, ``change(its params)`` and save it again, so its
    payload hash is valid."""
    def corrupt(data):
        path = data / "checkpoint.mckpt"
        ckpt = load_checkpoint(path)
        change(ckpt.params)
        save_checkpoint(path, ckpt.params, ckpt.adam, ckpt.rng, ckpt.epoch, ckpt.model_config,
                        ckpt.loss_config, ckpt.optimizer_config, ckpt.replay_settings,
                        ckpt.skeleton)
    return corrupt


def _negative_running_variance(params):
    next(iter(named_running_stats(params).values())).var[3] = -1.0


def _nan_parameter(params):
    named_parameters(params)["refine.stage0.block1.weights"].data[2, 5] = np.nan


def _train_dry_run(data):
    return ["train", "--data", str(data), "--dry-run", *TINY_MODEL]


def _format2(meta):
    """A version-2 writer's header: format 3 dropped these fields."""
    meta["version"] = 2
    meta["optimizer_config"].update(beta1=0.9, beta2=0.999, eps=1e-8)
    meta["replay_settings"].update(window_stride=1)


def _format1_use_summary_off(meta):
    _format2(meta)
    meta["version"] = 1
    meta["model_config"].update(use_summary=False, supervise_stages=False,
                                attention_bias=True, bn_eps=1e-5, bn_momentum=0.1)


def _format2_beta1_off(meta):
    _format2(meta)
    meta["optimizer_config"].update(beta1=0.8)


def _eval(data):
    return ["eval", str(data / "checkpoint.mckpt"), str(data), "--frames-ms", "40,160",
            "--out", str(data / "eval")]


def _predict(data):
    return ["predict", str(data / "checkpoint.mckpt"), str(data / "sinusoid_000.mseq"),
            str(data / "out.mseq"), "--horizon", "4"]


# (bad file, command reading it): every format fails at its boundary
BAD_FILES = {
    "mskel_non_utf8": (_non_utf8_skeleton, _train_dry_run),
    "mseq_non_utf8_name": (_non_utf8_sequence_name, _train_dry_run),
    "mseq_truncated": (_truncated_sequence, _train_dry_run),
    "mseq_predict_source": (_non_utf8_sequence_name, _predict),
    "mckpt_no_payload_sha256": (_checkpoint_without("payload_sha256"), _predict),
    "mckpt_no_rng_state": (_checkpoint_without("rng_state"), _predict),
    "mckpt_empty_model_config": (
        _checkpoint_header(lambda meta: meta.update(model_config={})), _predict),
    "mckpt_joints_not_a_number": (
        _checkpoint_header(lambda meta: meta["model_config"].update(joints="four")), _predict),
    "mckpt_format1_use_summary_off": (_checkpoint_header(_format1_use_summary_off), _eval),
    "mckpt_format2_beta1_off": (_checkpoint_header(_format2_beta1_off), _eval),
    "mckpt_header_nested_too_deep": (
        lambda data: _splice_header(data, lambda header: DEEP_JSON), _predict),
    "mckpt_negative_running_variance_eval": (
        _resaved_checkpoint(_negative_running_variance), _eval),
    "mckpt_negative_running_variance_predict": (
        _resaved_checkpoint(_negative_running_variance), _predict),
    "mckpt_nan_parameter_eval": (_resaved_checkpoint(_nan_parameter), _eval),
    "mckpt_nan_parameter_predict": (_resaved_checkpoint(_nan_parameter), _predict),
}


@pytest.mark.parametrize("case", list(BAD_FILES))
def test_bad_file_exits_1_with_one_error_line(corpus, trained, tmp_path, capsys, case):
    corrupt, command = BAD_FILES[case]
    data = tmp_path / "data"
    shutil.copytree(corpus, data)
    shutil.copy(trained / "checkpoint.mckpt", data / "checkpoint.mckpt")
    corrupt(data)
    rc = main(command(data))
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestPredict:
    def test_produces_exact_horizon_and_is_deterministic(self, corpus, trained, tmp_path):
        out_a = tmp_path / "a.mseq"
        out_b = tmp_path / "b.mseq"
        source = str(corpus / "sinusoid_000.mseq")
        ckpt = str(trained / "checkpoint.mckpt")
        assert main(["predict", ckpt, source, str(out_a), "--horizon", "9"]) == 0
        assert main(["predict", ckpt, source, str(out_b), "--horizon", "9"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        _, seq = load_sequence(out_a)
        assert seq.frames == 9

    def test_skeleton_mismatch_names_both(self, trained, tmp_path, capsys):
        other = tmp_path / "other"
        assert main(["gen-synth", "--out", str(other), "--count", "1",
                     "--frames", "40", "--joints-per-chain", "4"]) == 0
        rc = main(["predict", str(trained / "checkpoint.mckpt"),
                   str(other / "sinusoid_000.mseq"), str(tmp_path / "x.mseq"),
                   "--horizon", "4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "skeleton-3j-1c" in err and "skeleton-4j-1c" in err

    def test_horizon_beyond_memory_exits_2_before_predicting(self, corpus, trained, tmp_path):
        # the output alone would be 1e9 frames x 3 joints x 3 float64 values
        out = tmp_path / "x.mseq"
        done = run_with_memory_cap(["predict", str(trained / "checkpoint.mckpt"),
                                    str(corpus / "sinusoid_000.mseq"), str(out),
                                    "--horizon", "1000000000"])
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "1000000000 predicted frames of 3 joints" in done.stderr
        assert not out.exists()

    def test_horizon_whose_history_exceeds_memory_exits_2_before_predicting(
            self, corpus, trained, tmp_path):
        # the output, 24 bytes per frame and joint, would take half the machine's
        # memory; the growing history and key-code cache take more than all of it
        ckpt = load_checkpoint(trained / "checkpoint.mckpt")
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        horizon = memory // (48 * ckpt.skeleton.joint_count)
        assert prediction_bytes(ckpt.model_config, 40, horizon) > memory
        out = tmp_path / "x.mseq"
        done = run_with_memory_cap(["predict", str(trained / "checkpoint.mckpt"),
                                    str(corpus / "sinusoid_000.mseq"), str(out),
                                    "--horizon", str(horizon)])
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert f"{horizon} predicted frames of 3 joints" in done.stderr
        assert not out.exists()

    def test_non_utf8_checkpoint_header_exits_1_with_one_error_line(
            self, corpus, trained, tmp_path, capsys):
        blob = bytearray((trained / "checkpoint.mckpt").read_bytes())
        blob[20] = 0xFF  # inside the JSON header, which the payload hash does not cover
        ckpt = tmp_path / "bad.mckpt"
        ckpt.write_bytes(bytes(blob))
        rc = main(["predict", str(ckpt), str(corpus / "sinusoid_000.mseq"),
                   str(tmp_path / "x.mseq"), "--horizon", "4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "header" in err


class TestEval:
    def test_table_and_record_round_trip(self, corpus, trained, tmp_path, capsys):
        out = tmp_path / "evalout"
        rc = main(["eval", str(trained / "checkpoint.mckpt"), str(corpus),
                   "--frames-ms", "40,80,120,160", "--stages", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert printed.count("ms") >= 4
        record = json.loads((out / "eval_record.json").read_text())
        assert len(record["mpjpe"]) == 4
        assert len(record["stage_mpjpe"]) == 3  # baseline + two stages
        assert record["per_action"]["sinusoid"]["count"] == record["window_count"]
        assert json.loads(json.dumps(record)) == record

    def test_default_marks_fall_within_the_default_future(self):
        marks = build_parser().parse_args(["eval", "CKPT", "DATA"]).frames_ms
        frames = frames_from_milliseconds([float(ms) for ms in marks.split(",")],
                                          SynthSpec.frame_rate, ModelConfig.future_len)
        assert len(frames) == 4 and all(1 <= f <= ModelConfig.future_len for f in frames)

    def test_default_marks_run_at_the_default_future_length(self, corpus, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--data", str(corpus), "--out", str(run), "--epochs", "1",
                     "--seed", "0", *TINY_MODEL, "--set", "history_len=20",
                     "--set", "future_len=10"]) == 0
        capsys.readouterr()
        out = tmp_path / "evalout"
        rc = main(["eval", str(run / "checkpoint.mckpt"), str(corpus), "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        record = json.loads((out / "eval_record.json").read_text())
        assert len(record["frames_ms"]) == len(record["mpjpe"]) == 4

    def test_skeleton_of_other_chains_exits_2(self, trained, tmp_path, capsys):
        # 3 joints like the checkpoint's skeleton-3j-1c, but in 2 chains
        other = tmp_path / "other"
        assert main(["gen-synth", "--out", str(other), "--count", "1", "--frames", "40",
                     "--chains", "2", "--joints-per-chain", "2"]) == 0
        capsys.readouterr()
        out = tmp_path / "evalout"
        rc = main(["eval", str(trained / "checkpoint.mckpt"), str(other),
                   "--frames-ms", "40", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "skeleton-3j-1c" in err and "skeleton-3j-2c" in err
        assert not out.exists()

    def test_ablation_switches_are_applied(self, corpus, trained, tmp_path):
        out_full = tmp_path / "full"
        out_abl = tmp_path / "abl"
        ckpt = str(trained / "checkpoint.mckpt")
        assert main(["eval", ckpt, str(corpus), "--frames-ms", "40",
                     "--out", str(out_full)]) == 0
        assert main(["eval", ckpt, str(corpus), "--frames-ms", "40",
                     "--out", str(out_abl), "--ablation", "use_velocity=false",
                     "--ablation", "stages=1"]) == 0
        full = json.loads((out_full / "eval_record.json").read_text())
        ablated = json.loads((out_abl / "eval_record.json").read_text())
        assert ablated["mean_loss"] != full["mean_loss"]
        assert ablated["mpjpe"][0] != full["mpjpe"][0]  # one stage instead of two

    def test_stage_ablation_leaves_checkpoint_params_intact(self, trained):
        ckpt = load_checkpoint(trained / "checkpoint.mckpt")
        params, model_config, _ = _apply_ablation(ckpt, ["stages=1"])
        assert model_config.stages == 1 and len(params.refinement.stages) == 1
        assert ckpt.model_config.stages == 2
        assert len(ckpt.params.refinement.stages) == 2

    def test_ablation_strips_key_and_value_as_set_does(self, corpus, trained, tmp_path):
        assert resolve_config(None, [" attention_mode = copy "])["attention_mode"] == "copy"
        ckpt = str(trained / "checkpoint.mckpt")
        mpjpe = []
        for item in ("attention_mode=copy", " attention_mode = copy "):
            out = tmp_path / str(len(mpjpe))
            assert main(["eval", ckpt, str(corpus), "--frames-ms", "40", "--out", str(out),
                         "--ablation", item]) == 0
            mpjpe.append(json.loads((out / "eval_record.json").read_text())["mpjpe"])
        assert mpjpe[0] == mpjpe[1]

    def test_bad_ablation_key_exits_2(self, corpus, trained, capsys):
        rc = main(["eval", str(trained / "checkpoint.mckpt"), str(corpus),
                   "--frames-ms", "40", "--ablation", "latent_dim=8"])
        assert rc == 2
        assert "latent_dim" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--frames-ms", "40,abc"], "abc"),
        (["--ablation", "stages=two"], "two"),
        (["--stride", "fast"], "fast"),
    ])
    def test_bad_value_exits_2_with_one_error_line(self, corpus, trained, capsys,
                                                   flags, named):
        rc = main(["eval", str(trained / "checkpoint.mckpt"), str(corpus), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err

    def test_non_integral_frame_exits_2(self, corpus, trained, capsys):
        rc = main(["eval", str(trained / "checkpoint.mckpt"), str(corpus),
                   "--frames-ms", "50"])
        assert rc == 2
        assert "50" in capsys.readouterr().err
