"""Print one sha256 per benchmark workload over the outputs of one call.

Two commits whose digests agree compute the same bits, so a change meant to
keep the arithmetic as it was can be checked against its parent:

    python3 tests/output_digest.py [--seed 1]

pytest does not collect this file.  BLAS runs on the benchmark's one thread.
Each workload of ``bench/workloads.py`` is set up from the seed and makes
one call: ``train_ref`` and ``train_small`` one ``trainer.train()`` epoch
(the digest covers every parameter, the running statistics and the metrics
record), ``eval_ref`` one ``evaluate`` record and ``predict_ar`` one round
of predictions.  ``cli_train`` is one seeded ``motionrefine train`` run of 2
epochs on a ``gen-synth`` corpus: its digest covers ``metrics.jsonl`` and
the checkpoint's payload, the bytes after its header, so a change that
rewrites only the header keeps it.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import struct
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from run import BLAS_ENV, BLAS_THREADS  # noqa: E402  (bench/run.py)

for var in BLAS_ENV:
    os.environ[var] = str(BLAS_THREADS)

from motionrefine import cli  # noqa: E402
from motionrefine.model import named_parameters, named_running_stats  # noqa: E402
from workloads import WORKLOADS, EvalWorkload, PredictWorkload  # noqa: E402


def call_digest(workload, seed: int, workdir: str) -> str:
    """sha256 over the outputs of one call of ``workload`` set up from ``seed``."""
    state = workload.setup(seed, workdir)
    digest = hashlib.sha256()
    if isinstance(workload, PredictWorkload):
        for history in next(workload.rounds(state, seed)):
            digest.update(workload.run(state, history).coords.tobytes())
    elif isinstance(workload, EvalWorkload):
        record = workload.run(state, None)
        digest.update(json.dumps(record, sort_keys=True).encode())
    else:
        result = workload.run(state, workload.prepare(state, None))
        for name, tensor in named_parameters(result.params).items():
            digest.update(name.encode() + tensor.data.tobytes())
        for name, stats in named_running_stats(result.params).items():
            digest.update(name.encode() + stats.mean.tobytes() + stats.var.tobytes())
        digest.update(json.dumps(result.metrics, sort_keys=True).encode())
    return digest.hexdigest()


def cli_train_digest(seed: int, workdir: str) -> str:
    """sha256 over the metrics log and the checkpoint payload of a tiny
    ``motionrefine train`` run seeded by ``seed``."""
    corpus, run = Path(workdir) / "corpus", Path(workdir) / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["gen-synth", "--out", str(corpus), "--count", "5", "--frames", "40",
                      "--joints-per-chain", "3", "--seed", str(seed)],
                     ["train", "--data", str(corpus), "--out", str(run), "--epochs", "2",
                      "--seed", str(seed), "--set", "history_len=14", "--set", "query_len=4",
                      "--set", "future_len=4", "--set", "stages=2", "--set", "glb_pairs=1",
                      "--set", "latent_dim=12", "--set", "batch_size=4"]):
            if cli.main(argv) != 0:
                raise SystemExit(f"motionrefine {argv[0]} failed")
    blob = (run / "checkpoint.mckpt").read_bytes()
    (header_len,) = struct.unpack("<I", blob[8:12])
    digest = hashlib.sha256((run / "metrics.jsonl").read_bytes())
    digest.update(blob[12 + header_len:])
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        for name, workload in WORKLOADS.items():
            print(f"{name} {call_digest(workload, args.seed, workdir)}", flush=True)
        print(f"cli_train {cli_train_digest(args.seed, workdir)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
