"""Benchmark harness for motionrefine.

One workload, as the benchmark driver runs it (the last stdout line is the
result JSON; metric names and units come from BENCHMARK.json):

    python3 bench/run.py --workload train_ref --seed 1 --seconds 20 --trace 0

Every workload, each in a fresh process, one after another, untraced and
then traced (exits 1 if any output check fails; the records of every run
go to .bench_out/records-seed<n>.jsonl):

    python3 bench/run.py --workload all

Refresh the stored reference outputs after an intended numerical change:

    python3 bench/run.py --workload eval_ref --write-reference

Each run is a closed loop with one client: the next call starts when the
previous one returns.  See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE_FILE = HERE / "reference.json"
REFERENCE_SEED = 0
REFERENCE_RTOL = 1e-6      # max |out - ref| <= RTOL * max |ref|, per stored array
BASELINE_RTOL = 1e-12      # a fresh model is repeat-last-pose up to DCT round-off
SETUP_REPEATS = 3
# BLAS threads per workload process (never more than nproc): with one client,
# one thread keeps BLAS threading out of comparisons between commits
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ROOT / ".bench_out"
# a run takes about --seconds plus 15 s; this only stops a hung child
CHILD_TIMEOUT_S = 600


def parse_args(argv=None):
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this workload's reference outputs instead of measuring")
    return parser.parse_args(argv)


def tail(values) -> dict | None:
    """The highest whole percentile with at least ten samples beyond it, when
    that lies above the median (more than 20 samples)."""
    n = len(values)
    q = int(100 * (n - 10) / n)
    if q <= 50:
        return None
    value = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return {"percentile": q, "value": value, "samples": n}


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports numpy and motionrefine:
    the part of a user's set-up that one process can pay only once."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, motionrefine"], env=env,
                       check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(trace: bool) -> dict:
    import numpy as np
    from numpy.__config__ import CONFIG

    blas = CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        import tomllib
        version = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["version"]
    except (ImportError, OSError, KeyError):
        version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "motionrefine": version,
        "git_commit": commit,
        "trace": trace,
        "machine_memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
    }


def compare(values: dict, stored: dict) -> list[str]:
    """Names of stored arrays the outputs miss or differ from beyond REFERENCE_RTOL."""
    import numpy as np

    if not stored:
        return ["(nothing stored for this workload)"]
    bad = []
    for key, ref in stored.items():
        ref = np.asarray(ref, dtype=np.float64)
        got = np.asarray(values.get(key, np.nan), dtype=np.float64)
        if got.shape != ref.shape or not (
                np.abs(got - ref).max() <= REFERENCE_RTOL * np.abs(ref).max()):
            bad.append(key)
    return bad


class Counter:
    """Calls attempted and failed; a failure is an exception or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def record(self, problem: str | None):
        self.attempted += 1
        if problem:
            self.problems.append(problem)
            print(f"FAILED: {problem}", flush=True)


def reference_checks(workload, workdir, counter: Counter, stored):
    """Untimed calls on the reference inputs; they also warm up the timed path."""
    from workloads import PredictWorkload, baseline_error

    state = workload.setup(REFERENCE_SEED, workdir)
    error = baseline_error(workload.config, state["windows"][:4])
    counter.record(None if error <= BASELINE_RTOL else
                   f"fresh model deviates {error:.1e} (relative) from repeat-last-pose")
    item = workload.reference_item(REFERENCE_SEED)
    output = workload.run(state, workload.prepare(state, item))
    values = workload.summarize(output)
    if stored is not None:
        mismatched = compare(values, stored)
        counter.record(f"outputs differ from bench/reference.json: {mismatched}"
                       if mismatched else None)
    if isinstance(workload, PredictWorkload):
        again = workload.run(state, workload.prepare(state, item))
        counter.record(None if again.coords.tobytes() == output.coords.tobytes() else
                       "repeated predict_autoregressive calls are not bit-identical")
    return values


def timed_calls(workload, state, seed: int, seconds: float, counter: Counter, tracer):
    """Closed loop of whole rounds until ``seconds`` have passed.

    Returns one record per round (its calls' seconds and windows) and the
    memory each call left for the cycle collector.  With a tracer, rounds
    alternate untraced and traced, so both see the same inputs and machine
    state; traced rounds give the spans, and the ratio of the two medians
    gives the tracing overhead.
    """
    rounds = {False: [], True: []}
    freed = []
    inputs = workload.rounds(state, seed)
    traced_calls = 0
    gc.collect()
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or not rounds[False]
           or (tracer is not None and not rounds[True])):
        traced = tracer is not None and len(rounds[False]) > len(rounds[True])
        durations, windows = [], 0
        for item in next(inputs):
            prepared = workload.prepare(state, item)
            if traced:
                tracer.request = traced_calls
                traced_calls += 1
                tracer.__enter__()
            t0 = time.perf_counter()
            try:
                output = workload.run(state, prepared)
            except Exception as exc:  # a failed call counts against failed_frac
                output, problem = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if traced:
                tracer.__exit__(None, None, None)
            if output is not None:
                problem = workload.check(state, item, output)
            counter.record(problem)
            durations.append(t1 - t0)
            windows += workload.windows(state, item)
            # tapes hold reference cycles; collect them so calls do not pile up memory
            del output, prepared
            before = current_rss_mb()
            gc.collect()
            freed.append(max(0.0, before - current_rss_mb()))
        rounds[traced].append({"calls": durations, "windows": windows})
    return rounds, freed


def round_rate(record: dict) -> float:
    return record["windows"] / sum(record["calls"])


def end_to_end(rounds, setup_times, import_s) -> tuple[dict, dict]:
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "windows_per_s": statistics.median(round_rate(r) for r in rounds),
        "peak_rss_mb": peak_rss_mb(),
    }
    call_ms = [1000.0 * d for r in rounds for d in r["calls"]]
    detail = {"rounds": len(rounds), "calls": len(call_ms), "import_s": import_s,
              "setup_s_samples": setup_times, "call_ms": call_ms,
              "call_ms.p50": statistics.median(call_ms), "call_ms.tail": tail(call_ms)}
    return values, detail


def per_layer(tracer, rounds, freed) -> dict:
    """Span totals per traced call; windowing is per set-up, where it happens."""
    from spans import TARGETS, aggregate

    n = sum(len(r["calls"]) for r in rounds[True])
    calls = aggregate(tracer.spans, range(n))
    setup = aggregate(tracer.spans, ["setup"])
    values = {}
    for name in (target[2] for target in TARGETS):
        row = calls.get(name, {})
        for key in ("s", "self_s", "calls", "windows"):
            values[f"{name}.{key}"] = row.get(key, 0.0) / n
    backward = calls.get("tensor.backward")
    values["tensor.backward.nodes"] = backward["nodes"] / backward["calls"] if backward else 0.0
    values["tensor.backward.peak_mb"] = backward["peak_mb"] if backward else 0.0
    values["attention.windows"] = values.pop("attention.summarize_history.windows")
    values["data.extract_windows.s"] = setup["data.extract_windows"]["s"]
    untraced = statistics.median(round_rate(r) for r in rounds[False])
    traced = statistics.median(round_rate(r) for r in rounds[True])
    values["trace.overhead_frac"] = untraced / traced - 1.0
    values["trace.calls"] = n
    values["gc.freed_mb"] = statistics.median(freed)
    return values


def emit(section: str, values: dict) -> dict:
    """Metrics named in BENCHMARK.json ``section``, in its order and units."""
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in SPEC[section]}


def run_workload(args) -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    import_s = None if args.trace or args.write_reference else import_seconds()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    stored_all = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    counter = Counter()
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
        if args.write_reference:
            values = reference_checks(workload, workdir, counter, None)
            stored_all[workload.name] = values
            REFERENCE_FILE.write_text(json.dumps(stored_all, indent=1, sort_keys=True) + "\n")
            print(f"stored {len(values)} reference arrays for {workload.name}")
            return 1 if counter.problems else 0

        setup_times = []
        if tracer is not None:
            tracer.request = "setup"
            with tracer:
                state = workload.setup(args.seed, workdir)
        else:
            for _ in range(SETUP_REPEATS):
                gc.collect()
                t0 = time.perf_counter()
                state = workload.setup(args.seed, workdir)
                setup_times.append(time.perf_counter() - t0)
                if len(setup_times) < SETUP_REPEATS:
                    del state
        reference_checks(workload, workdir, counter, stored_all.get(workload.name, {}))
        rounds, freed = timed_calls(workload, state, args.seed, args.seconds, counter, tracer)

    why = {w["name"]: w["why"] for w in SPEC["workloads"]}[workload.name]
    record = {"workload": workload.name, "why": why, "seed": args.seed,
              "seconds": args.seconds, "config": workload.describe(),
              "windows_per_round": rounds[False][0]["windows"],
              "environment": environment(bool(args.trace)), "problems": counter.problems,
              "failed_frac": len(counter.problems) / counter.attempted}
    lines = []
    if tracer is None:
        values, detail = end_to_end(rounds[False], setup_times, import_s)
        record["detail"] = detail
        metrics = emit("end_to_end", values)
        lines.append(("call_ms.p50", detail["call_ms.p50"], f"ms ({detail['calls']} calls)"))
        if detail["call_ms.tail"]:
            t = detail["call_ms.tail"]
            lines.append((f"call_ms.p{t['percentile']}", t["value"], "ms"))
    else:
        values = per_layer(tracer, rounds, freed)
        metrics = emit("per_layer", values)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        spans_file.write_text("".join(json.dumps(s) + "\n" for s in tracer.spans))
        record["spans_file"] = str(spans_file.relative_to(ROOT))
    record["metrics"] = metrics
    print("record " + json.dumps(record))
    lines += [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    lines.append(("failed_frac", record["failed_frac"],
                  f"ratio ({len(counter.problems)}/{counter.attempted})"))
    for name, value, unit in lines:
        print(f"  {workload.name:12s} {name:36s} {value:14.6g} {unit}")
    print(json.dumps({"correct": not counter.problems, "attempted": counter.attempted,
                      "failed": len(counter.problems), "metrics": metrics}), flush=True)
    return 1 if counter.problems else 0


def run_all(args) -> int:
    """Each workload in its own process, one after another, untraced then traced."""
    OUT_DIR.mkdir(exist_ok=True)
    records = OUT_DIR / f"records-seed{args.seed}.jsonl"
    records.write_text("")
    attempted = failed = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            try:
                proc = subprocess.run(command, capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"error: {workload} (trace {trace}) timed out", file=sys.stderr)
                failed += 1
                continue
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            with open(records, "a") as fh:
                fh.writelines(line[len("record "):] + "\n"
                              for line in lines if line.startswith("record "))
            print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
            try:
                result = json.loads(lines[-1])
                attempted += result["attempted"]
                failed += result["failed"]
            except (IndexError, json.JSONDecodeError, KeyError):
                print(f"error: {workload} (trace {trace}) exited {proc.returncode} "
                      "without a result", file=sys.stderr)
                failed += 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "records": str(records.relative_to(ROOT))}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "motionrefine" / "__init__.py").exists():
        print(f"error: no motionrefine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
