"""Print, per benchmark workload, one call's traced peak and the process's max RSS
around it.

A change in the benchmark's peak RSS is the program's own bytes where the
traced peak moves with it, and the heap's layout where it does not:

    python3 tests/memory_probe.py [--seed 1] [--workload NAME]

pytest does not collect this file.  BLAS runs on the benchmark's one thread.
Each workload of ``bench/workloads.py`` runs in a process of its own (max
RSS is a process's high-water mark): it is set up from the seed, then makes
one call, on its first round's first input, under tracemalloc.  A line reads
``NAME maxrss_before_mb traced_peak_mib maxrss_after_mb``; the traced peak
counts only what the call allocated, and tracemalloc's own bookkeeping is in
the second RSS.
"""
import argparse
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from run import BLAS_ENV, BLAS_THREADS, peak_rss_mb  # noqa: E402  (bench/run.py)

for var in BLAS_ENV:
    os.environ[var] = str(BLAS_THREADS)

from workloads import WORKLOADS  # noqa: E402


def probe(workload, seed: int, workdir: str) -> tuple[float, float, float]:
    """Max RSS (MB) before and after one call of ``workload`` and its traced peak (MiB)."""
    state = workload.setup(seed, workdir)
    prepared = workload.prepare(state, next(workload.rounds(state, seed))[0])
    before = peak_rss_mb()
    tracemalloc.start()
    try:
        workload.run(state, prepared)
        traced = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return before, traced, peak_rss_mb()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=["all", *WORKLOADS], default="all")
    args = parser.parse_args(argv)
    if args.workload == "all":
        for name in WORKLOADS:
            subprocess.run([sys.executable, __file__, "--seed", str(args.seed),
                            "--workload", name], check=True)
        return 0
    with tempfile.TemporaryDirectory() as workdir:
        before, traced, after = probe(WORKLOADS[args.workload], args.seed, workdir)
    print(f"{args.workload} {before:.1f} {traced:.2f} {after:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
