"""Seeded mutation test over the three file formats (.mskel, .mseq, .mckpt).

Each case truncates a valid file, flips bytes in it, or rewrites one of its
header fields.  Loading the result must either succeed or raise FormatError
or DataError, which ``motionrefine.cli.main`` reports as a one-line
``error:`` message with exit code 1; any other exception would reach the user
as a traceback or as a usage error (exit code 2).
"""
import json
import math
import struct

import numpy as np
import pytest

from motionrefine.data import SynthSpec, gen_synthetic, load_sequence, save_sequence
from motionrefine.errors import DataError, FormatError
from motionrefine.kinematics import load_skeleton, save_skeleton, synthetic_skeleton
from motionrefine.losses import LossConfig
from motionrefine.model import ModelConfig, init_model_params, named_parameters
from motionrefine.trainer import AdamState, OptimizerConfig, load_checkpoint, save_checkpoint

CLEAN_ERRORS = (FormatError, DataError)
FORMATS = ("mskel", "mseq", "mckpt")
CASES = 150  # per format
SEED = 20240611

# values a rewritten header field takes: wrong types, edge numbers, huge sizes
JSON_VALUES = [None, True, False, 0, -1, 1, 2, 2.5, 1e308, 10**5, 2**33, 2**200,
               "", "x", [], [2], [2**32, 2**32], [0, 2**40, 2**40], {}, {"a": 1}]
TEXT_VALUES = ["", "0", "-1", "2", "x", "nan", "inf", "1e999", "4294967296",
               "|", "a, b", "é"]
U32_VALUES = [0, 1, 2, 3, 7, 2**16, 2**31, 2**32 - 1]


def _pick(options, rng):
    return options[int(rng.integers(0, len(options)))]


def _truncate(blob, rng):
    return blob[:int(rng.integers(0, len(blob)))]


def _flip(blob, rng):
    """Flip one to four bytes, half the time within the first 64: the magic,
    the binary header fields and the start of the text header."""
    out = bytearray(blob)
    span = min(len(out), 64) if rng.random() < 0.5 else len(out)
    for pos in rng.integers(0, span, size=int(rng.integers(1, 5))):
        out[pos] ^= int(rng.integers(1, 256))
    return bytes(out)


def _rewrite_mskel(blob, rng):
    """Replace one token, or the whole value, of one line."""
    lines = blob.decode("utf-8").splitlines()
    index = int(rng.integers(0, len(lines)))
    key, sep, value = lines[index].partition(":")
    tokens = value.split()
    if tokens and rng.random() < 0.5:
        tokens[int(rng.integers(0, len(tokens)))] = _pick(TEXT_VALUES, rng)
        value = " ".join(tokens)
    else:
        value = _pick(TEXT_VALUES, rng)
    lines[index] = f"{key}{sep} {value}" if sep else value
    return ("\n".join(lines) + "\n").encode("utf-8")


def _rewrite_mseq(blob, rng):
    # joint count, frame count, frame rate (mHz), skeleton name length
    offset = 8 + 4 * int(rng.integers(0, 4))
    return blob[:offset] + struct.pack("<I", _pick(U32_VALUES, rng)) + blob[offset + 4:]


def _rewrite_mckpt(blob, rng):
    """Replace one JSON value, at the top level or nested in an object or list."""
    (length,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + length])
    node, key = header, _pick(sorted(header), rng)
    while isinstance(node[key], (dict, list)) and node[key] and rng.random() < 0.8:
        node = node[key]
        key = _pick(sorted(node) if isinstance(node, dict) else range(len(node)), rng)
    node[key] = _pick(JSON_VALUES, rng)
    text = json.dumps(header).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + length:]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    skeleton = synthetic_skeleton(2, 3, 100.0)
    save_skeleton(skeleton, root / "skeleton.mskel")
    sequence = gen_synthetic(skeleton, SynthSpec(frames=6, seed=1))
    save_sequence(root / "seq.mseq", sequence, skeleton.name)
    config = ModelConfig(joints=skeleton.joint_count, history_len=6, query_len=2,
                         future_len=2, stages=2, glb_pairs=1, latent_dim=4)
    params = init_model_params(config, np.random.default_rng(0))
    save_checkpoint(root / "model.mckpt", params, AdamState(named_parameters(params)),
                    np.random.default_rng(1), 3, config, LossConfig(), OptimizerConfig(),
                    {"batch_size": 4}, skeleton)
    return {"mskel": (root / "skeleton.mskel", load_skeleton, _rewrite_mskel),
            "mseq": (root / "seq.mseq", load_sequence, _rewrite_mseq),
            "mckpt": (root / "model.mckpt", load_checkpoint, _rewrite_mckpt)}


@pytest.mark.parametrize("fmt", FORMATS)
def test_damaged_file_loads_or_fails_cleanly(valid_files, tmp_path, fmt):
    path, load, rewrite = valid_files[fmt]
    blob = path.read_bytes()
    load(path)  # the undamaged file loads
    rng = np.random.default_rng([SEED, FORMATS.index(fmt)])
    escapes = []
    for case in range(CASES):
        mutate = (_truncate, _flip, rewrite)[case % 3]
        damaged = tmp_path / f"case{case}.{fmt}"
        damaged.write_bytes(mutate(blob, rng))
        try:
            loaded = load(damaged)
        except CLEAN_ERRORS:
            continue
        except Exception as escaped:  # any other type is an escape
            escapes.append(f"case {case} ({mutate.__name__}): {escaped!r}")
            continue
        if fmt == "mskel":  # a skeleton that loads has usable bone lengths
            bones = [b for chain in loaded.chains for b in chain.bone_lengths]
            if not all(math.isfinite(b) and b > 0 for b in bones):
                escapes.append(f"case {case} ({mutate.__name__}): bone lengths {bones}")
    assert escapes == []
