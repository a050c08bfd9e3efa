"""Command-line interface: train, predict, eval, gen-synth.

Each command declares only the options it reads: the run configuration is
train's, and eval's ablations go through --ablation.

Run configuration is a flat JSON document: ``data`` plus the fields of
ModelConfig (less ``joints``), LossConfig, OptimizerConfig and TrainSettings,
each keyed by its field name.  Resolution order is package defaults (those
dataclass defaults), then the --config file, then --set KEY=VALUE overrides,
then dedicated flags; unknown keys and values of the wrong type are rejected.
``train --dry-run`` builds no model, and a run whose parameters and Adam
moments exceed physical memory exits 2 before it writes, as does a
``predict`` whose history, key-code cache and output would
(``trainer.prediction_bytes``) and a ``gen-synth`` whose files would.
``train`` prints each epoch's metrics record as one JSON line as it ends,
and writes into its output directory only once training has succeeded: the
resolved configuration, the per-epoch metrics log (line-delimited JSON, the
printed records) and the checkpoint.  A run that fails writes no file and
removes the directories it made, so a finished run's files in that
directory stay as they were.

Exit codes: 0 success, 1 runtime failure (running out of memory included),
2 usage or configuration error; every failure, parser errors included, is one
``error:`` line on stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

from .data import (
    SYNTH_KINDS,
    SynthSpec,
    gen_synthetic,
    load_dataset,
    load_sequence,
    mseq_bytes,
    mseq_size,
    save_sequence,
)
from .errors import (
    ConfigurationError,
    DataError,
    DimensionError,
    FormatError,
    SkeletonError,
    StateError,
    TapeError,
)
from .kinematics import SYNTH_BONE_LENGTH, save_skeleton, synthetic_skeleton
from .losses import LossConfig
from .model import ModelConfig, count_parameters, fits_field
from .trainer import (
    OptimizerConfig,
    TrainSettings,
    evaluate,
    load_checkpoint,
    predict_autoregressive,
    prediction_bytes,
    save_checkpoint,
    train,
)

# flat configuration key, its field's name -> (config dataclass, field); the
# joint count comes from the dataset
CONFIG_FIELDS: dict[str, tuple[type, dataclasses.Field]] = {
    f.name: (cls, f) for cls in (ModelConfig, LossConfig, OptimizerConfig, TrainSettings)
    for f in dataclasses.fields(cls) if f.name != "joints"}
CONFIG_DEFAULTS: dict[str, object] = {
    "data": "", **{key: f.default for key, (_, f) in CONFIG_FIELDS.items()}}

ABLATION_KEYS = ("use_st", "use_st_weights", "use_velocity", "reconstruct_query",
                 "temporal_form", "spatial_floor", "attention_mode", "stages")
_BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}


def _coerce(key: str, value) -> object:
    """``value`` as the annotated type of ``key``'s field: a string (from --set
    or --ablation) is parsed, any other JSON value must already have that type."""
    kind = "str" if key == "data" else CONFIG_FIELDS[key][1].type
    if isinstance(value, str) and kind == "bool":
        value = _BOOL_WORDS.get(value.strip().lower(), value)
    elif isinstance(value, str) and kind in ("int", "float"):
        try:
            value = int(value) if kind == "int" else float(value)
        except ValueError:
            pass
    if not fits_field(value, kind):
        raise ConfigurationError(f"{key}: expected {kind}, got {value!r}")
    return float(value) if kind == "float" else value


def _key_value(item: str, option: str) -> tuple[str, str]:
    """A ``KEY=VALUE`` option value as its key and value, each stripped."""
    if "=" not in item:
        raise ConfigurationError(f"{option} expects KEY=VALUE, got {item!r}")
    key, _, value = item.partition("=")
    return key.strip(), value.strip()


def resolve_config(config_path: str | None, overrides: list[str] | None,
                   flags: dict | None = None) -> dict:
    resolved = dict(CONFIG_DEFAULTS)

    def apply(key, value, origin):
        if key not in resolved:
            raise ConfigurationError(f"unknown configuration key {key!r} ({origin})")
        resolved[key] = _coerce(key, value)

    if config_path:
        try:
            payload = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as bad:  # not UTF-8, not JSON, nested too deep
            raise ConfigurationError(f"{config_path}: not UTF-8 JSON ({bad})") from None
        if not isinstance(payload, dict):
            raise ConfigurationError(f"{config_path}: expected a JSON object")
        for key, value in payload.items():
            apply(key, value, config_path)
    for item in overrides or []:
        apply(*_key_value(item, "--set"), "--set")
    for key, value in (flags or {}).items():
        if value is not None:
            apply(key, value, "flag")
    return resolved


def config_from(cls, resolved: dict, **given):
    """Build config dataclass ``cls`` from its keys in ``resolved`` plus ``given`` fields."""
    return cls(**{f.name: resolved[key] for key, (owner, f) in CONFIG_FIELDS.items()
                  if owner is cls}, **given)


def _check_fits(need: int, what: str):
    """Refuse, as a usage error, work whose arrays exceed physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        # past about 1e308 bytes a float quotient would overflow
        gib = need / 2 ** 30 if need.bit_length() < 1000 else float("inf")
        raise ConfigurationError(
            f"{what} need {gib:.1f} GiB, "
            f"more than the machine's {memory / 2 ** 30:.1f} GiB of memory")


def _check_skeleton(what: str, name: str, joints: int, ckpt):
    """Refuse data whose skeleton is not the checkpoint's: the name encodes
    the joint and chain counts."""
    if name != ckpt.skeleton.name or joints != ckpt.skeleton.joint_count:
        raise SkeletonError(
            f"{what} skeleton {name!r} ({joints} joints) does not match "
            f"checkpoint skeleton {ckpt.skeleton.name!r} "
            f"({ckpt.skeleton.joint_count} joints)")


def cmd_train(args) -> int:
    resolved = resolve_config(args.config, args.set,
                              {"data": args.data, "seed": args.seed,
                               "epochs": args.epochs})
    if not resolved["data"]:
        raise ConfigurationError("missing required field: data (dataset directory)")
    dataset = load_dataset(resolved["data"])
    model_config = config_from(ModelConfig, resolved, joints=dataset.skeleton.joint_count)
    loss_config = config_from(LossConfig, resolved)
    optimizer_config = config_from(OptimizerConfig, resolved)
    settings = config_from(TrainSettings, resolved)

    count = count_parameters(model_config)
    if args.dry_run:
        print(json.dumps(resolved, indent=2, sort_keys=True))
        print(f"parameter count: {count}")
        return 0

    if not args.out:
        raise ConfigurationError("missing required field: out (output directory)")
    # float64 parameters and Adam's two moments
    _check_fits(24 * count, f"{count} parameters and their Adam moments")
    out_dir = Path(args.out)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before training
        result = train(dataset, model_config, loss_config, optimizer_config, settings,
                       on_epoch=lambda record: print(json.dumps(record), flush=True))
    except Exception:
        # a failed run wrote no file: it removes only the directories it made
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    (out_dir / "config.resolved.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (out_dir / "metrics.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in result.metrics), encoding="utf-8")
    checkpoint = out_dir / "checkpoint.mckpt"
    save_checkpoint(checkpoint, result.params, result.adam, result.rng, result.epochs_run,
                    model_config, loss_config, optimizer_config, settings.replay_fields(),
                    dataset.skeleton)
    last = result.metrics[-1] if result.metrics else {}
    print(f"trained {result.epochs_run} epochs; "
          f"final train MPJPE {last.get('train_mpjpe', float('nan')):.4f} "
          f"({dataset.skeleton.units})")
    print(f"checkpoint: {checkpoint}")
    return 0


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    seq_name, history = load_sequence(args.input)
    _check_skeleton("input", seq_name, history.joints, ckpt)
    _check_fits(prediction_bytes(ckpt.model_config, history.frames, args.horizon),
                f"{args.horizon} predicted frames of {history.joints} joints")
    prediction = predict_autoregressive(history, ckpt.params, ckpt.model_config,
                                        args.horizon)
    save_sequence(args.output, prediction, ckpt.skeleton.name)
    print(f"wrote {prediction.frames} frames to {args.output}")
    return 0


def _apply_ablation(ckpt, overrides: list[str]):
    """Loss/stage switch overrides on a loaded checkpoint, shape-safe only.

    Returns (params, model_config, loss_config); the checkpoint is left as loaded.
    """
    params, model_config, loss_config = ckpt.params, ckpt.model_config, ckpt.loss_config
    for item in overrides:
        key, value = _key_value(item, "--ablation")
        if key not in ABLATION_KEYS:
            raise ConfigurationError(
                f"--ablation key {key!r} not in {ABLATION_KEYS}")
        if key == "stages":
            stages = _coerce(key, value)
            if not 1 <= stages <= ckpt.model_config.stages:
                raise ConfigurationError(
                    f"stages override {stages} outside [1, {ckpt.model_config.stages}]")
            model_config = dataclasses.replace(model_config, stages=stages)
            params = dataclasses.replace(params, refinement=dataclasses.replace(
                params.refinement, stages=params.refinement.stages[:stages]))
        elif key == "attention_mode":
            if value == "attention" and ckpt.params.attention is None:
                raise ConfigurationError(
                    "checkpoint was trained without attention parameters")
            model_config = dataclasses.replace(
                model_config, attention_mode=_coerce(key, value))
        else:
            loss_config = dataclasses.replace(loss_config, **{key: _coerce(key, value)})
    return params, model_config, loss_config


def _print_table(record: dict):
    header = ["window"] + [f"{ms}ms" for ms in record["frames_ms"]]
    rows = [("overall", record["mpjpe"])]
    for label, entry in sorted(record.get("per_action", {}).items()):
        rows.append((label, entry["mpjpe"]))
    for n, values in enumerate(record.get("stage_mpjpe", [])):
        name = "stage0 (repeat last pose)" if n == 0 else f"stage{n}"
        rows.append((name, values))
    width = max(len(r[0]) for r in rows + [("window", [])]) + 2
    print("".join([header[0].ljust(width)] + [h.rjust(10) for h in header[1:]]))
    for name, values in rows:
        print("".join([name.ljust(width)] + [f"{v:10.3f}" for v in values]))


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    params, model_config, loss_config = _apply_ablation(ckpt, args.ablation or [])
    dataset = load_dataset(args.data)
    _check_skeleton("dataset", dataset.skeleton.name, dataset.skeleton.joint_count, ckpt)
    try:
        frames_ms = [float(tok) for tok in args.frames_ms.split(",") if tok.strip()]
    except ValueError:
        raise ConfigurationError(
            f"--frames-ms expects comma-separated numbers, got {args.frames_ms!r}") from None
    if not frames_ms:
        raise ConfigurationError("--frames-ms lists no frames")
    record = evaluate(dataset, params, model_config, frames_ms,
                      stride=args.stride, per_stage=args.stages,
                      loss_config=loss_config)
    record["checkpoint"] = str(args.checkpoint)
    record["ablation"] = args.ablation or []
    _print_table(record)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    record_path = out_dir / "eval_record.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"record: {record_path}")
    return 0


def cmd_gen_synth(args) -> int:
    if args.count < 0:
        raise ConfigurationError(f"--count must be >= 0, got {args.count}")
    # every value is checked before the first write, so a rejected run leaves nothing
    skeleton = synthetic_skeleton(args.chains, args.joints_per_chain, args.bone_length)
    spec = SynthSpec(kind=args.kind, amplitude=args.amplitude, period=args.period,
                     frames=args.frames, seed=args.seed, frame_rate=args.frame_rate)
    # every file is built before the first is written
    _check_fits(args.count * mseq_size(skeleton.joint_count, args.frames, skeleton.name),
                f"{args.count} sequences of {args.frames} frames")
    files = [mseq_bytes(gen_synthetic(skeleton, dataclasses.replace(spec, seed=args.seed + i)),
                        skeleton.name, ConfigurationError) for i in range(args.count)]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_skeleton(skeleton, out_dir / "skeleton.mskel")
    for i, blob in enumerate(files):
        (out_dir / f"{args.kind}_{i:03d}.mseq").write_bytes(blob)
    manifest = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    (out_dir / "gen_synth.resolved.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote skeleton and {args.count} sequences to {out_dir}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors reach ``main`` as ConfigurationError."""

    def error(self, message):
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="motionrefine",
        description="Human motion prediction via iterative frequency-space refinement")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model")
    p_train.add_argument("--config", help="JSON run configuration file")
    p_train.add_argument("--seed", type=int, default=None, help="override the seed")
    p_train.add_argument("--out", help="output directory")
    p_train.add_argument("--dry-run", action="store_true",
                         help="print the resolved configuration and the parameter count")
    p_train.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override one configuration key")
    p_train.add_argument("--data", help="dataset directory (skeleton.mskel + *.mseq)")
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict",
                               help="autoregressive prediction from a checkpoint")
    p_predict.add_argument("checkpoint")
    p_predict.add_argument("input", help="history sequence (.mseq)")
    p_predict.add_argument("output", help="output sequence path (.mseq)")
    p_predict.add_argument("--horizon", type=int, required=True,
                           help="number of future frames to generate")
    p_predict.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("eval", help="MPJPE table at millisecond marks")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("data", help="dataset directory")
    p_eval.add_argument("--frames-ms", default="80,160,320,400",
                        help="comma-separated millisecond marks")
    p_eval.add_argument("--stride", type=int, default=1)
    p_eval.add_argument("--stages", action="store_true",
                        help="add one MPJPE row per refinement stage")
    p_eval.add_argument("--ablation", action="append", metavar="KEY=VALUE",
                        help="loss/stage switch override, repeatable")
    p_eval.add_argument("--out", default=".", help="directory for eval_record.json")
    p_eval.set_defaults(func=cmd_eval)

    p_gen = sub.add_parser("gen-synth", help="generate a synthetic dataset")
    p_gen.add_argument("--kind", choices=SYNTH_KINDS, default=SynthSpec.kind)
    p_gen.add_argument("--count", type=int, default=8)
    p_gen.add_argument("--amplitude", type=float, default=SynthSpec.amplitude)
    p_gen.add_argument("--period", type=float, default=SynthSpec.period)
    p_gen.add_argument("--frames", type=int, default=SynthSpec.frames)
    p_gen.add_argument("--frame-rate", type=float, default=SynthSpec.frame_rate)
    p_gen.add_argument("--chains", type=int, default=1)
    p_gen.add_argument("--joints-per-chain", type=int, default=4)
    p_gen.add_argument("--bone-length", type=float, default=SYNTH_BONE_LENGTH)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=SynthSpec.seed, help="seed of sequence 0")
    p_gen.set_defaults(func=cmd_gen_synth)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigurationError, SkeletonError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (FormatError, DataError, DimensionError, StateError, TapeError,
            OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:  # numpy's allocation failure is a subclass
        print("error: out of memory" + (f": {err}" if str(err) else ""), file=sys.stderr)
        return 1


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
