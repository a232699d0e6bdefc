"""Layered benchmark of branchsim: the CLI end to end, and each module.

Usage (from the repository root)::

    python3 bench/run.py --workload canonical-deep --seed 1 --seconds 15 --trace 0

Workloads: canonical-deep, extended-wide, many-small, verify (see
bench/README.md for why each exists).  The seed fixes the generated
inputs.  ``--trace 0`` times ops with nothing attached and reports the
end-to-end metrics; ``--trace 1`` runs a fixed set of ops once untraced
and once traced and reports the per-layer metrics.

Each run generates its inputs into a working directory under
``.bench_work/``, starts the workload process (bench/worker.py) several
times to time set-up, lets one of them run the ops, then checks every
op's output (bench/checks.py) and prints one line per metric, then the
result as one JSON object on the last line.  It exits non-zero without a
result when the program cannot be found or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = tuple(inputs.POOL_SIZE)

# Workload processes started per untraced run; set-up time is their median.
SETUP_SAMPLES = 5

# Every run must end well inside the 180 s a single run is allowed.
DEADLINE_S = 170.0

# One BLAS thread: at most nproc, and the engine's own kernels are
# single-threaded, so a second thread only adds scheduling noise.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# verify's largest state: oracle_equivalence draws 7-round extended runs.
VERIFY_MAX_QUBITS = 10


class BenchError(Exception):
    """The run cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def run_worker(workdir: Path, mode: str, deadline: float) -> float:
    """Start a workload process, wait for it; returns its set-up seconds.

    Set-up runs from just before the process is started until it reports
    that branchsim is imported and the documents are loaded.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(workdir), mode],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(deadline - time.perf_counter(), 0.0)):
                raise BenchError(f"workload process ({mode}) never became ready")
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"workload process ({mode}) failed during set-up")
        rc = proc.wait(timeout=max(deadline - time.perf_counter(), 0.0))
        if rc != 0:
            raise BenchError(f"workload process ({mode}) exited with {rc}")
        return setup
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process ({mode}) ran past the deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def environment(workload: str, seed: int, entries: list) -> dict:
    """What each result is recorded with."""
    cpu = {}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10, check=False).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("Model name", "L2 cache", "L3 cache"):
                cpu[key.strip()] = value.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    qubits = max(e.get("qubits", VERIFY_MAX_QUBITS) for e in entries)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("Model name", "unknown"),
        "l2_cache": cpu.get("L2 cache", "unknown"),
        "l3_cache": cpu.get("L3 cache", "unknown"),
        "blas_threads": int(BLAS_THREADS),
        "workload": workload,
        "seed": seed,
        "state_bytes": tracing.BYTES_PER_AMPLITUDE * 2**qubits,
    }


def write_inputs(workdir: Path, workload: str, seed: int, seconds: int) -> list:
    entries = inputs.build(workload, seed)
    (workdir / "in").mkdir(parents=True)
    for i, entry in enumerate(entries):
        if "doc" in entry:
            entry["text"] = json.dumps(entry.pop("doc"), indent=2)
            (workdir / "in" / f"{i}.json").write_text(entry["text"], encoding="utf-8")
    manifest = {"seconds": seconds, "trace_set": inputs.TRACE_SET[workload],
                "inputs": [{k: v for k, v in e.items() if k != "text"}
                           for e in entries]}
    (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return entries


def end_to_end(ops: list, setups: list, peak_rss_mb: float) -> dict:
    walls = [op["wall_s"] for op in ops]
    p90 = (statistics.quantiles(walls, n=10, method="inclusive")[8]
           if len(walls) > 1 else walls[0])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s.p50": (statistics.median(walls), "s"),
        "wall_s.p90": (p90, "s"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def bench(workload: str, seed: int, seconds: int, trace: bool, workdir: Path):
    deadline = time.perf_counter() + DEADLINE_S
    entries = write_inputs(workdir, workload, seed, seconds)
    # Set-up-only starts go before and after the measured process, so that
    # their median spans the run rather than one moment of host load.
    extra = 0 if trace else SETUP_SAMPLES - 1
    setups = [run_worker(workdir, "setup", deadline) for _ in range(extra // 2)]
    setups.append(run_worker(workdir, "trace" if trace else "run", deadline))
    results = json.loads((workdir / "results.json").read_text(encoding="utf-8"))
    setups += [run_worker(workdir, "setup", deadline) for _ in range(extra - extra // 2)]
    ops = results["ops"]
    if not ops:
        raise BenchError("the workload process ran no ops")

    failed, notes = checks.failed_ops(ops, entries, workdir / "out")
    replays_ok = all(results["replays_match"])
    if not replays_ok:
        notes.append("a round-by-round replay differs from the engine's final state")
    if trace:
        spans = json.loads((workdir / "spans.json").read_text(encoding="utf-8"))
        traced = [op for op in ops if op["traced"]]
        metrics = tracing.aggregate(
            spans["spans"], spans["counts"],
            [op["wall_s"] for op in ops if not op["traced"]],
            [op["wall_s"] for op in traced],
            [results["bytes_in"][op["key"]] for op in traced],
            [op["bytes_out"] if "text" in entries[op["key"]] else 0
             for op in traced])
    else:
        metrics = end_to_end(ops, setups, results["peak_rss_mb"])

    env = environment(workload, seed, entries)
    print("bench: env " + json.dumps(env, sort_keys=True))
    print(f"bench: {workload} seed={seed} trace={int(trace)}: {len(ops)} ops, "
          f"{failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"bench:   {name:<48} {value:.6g} {unit}")
    print(f"bench:   {'failed_frac':<48} {failed / len(ops):.6g} "
          f"({failed} of {len(ops)} ops)")
    for note in notes[:20]:
        print(f"bench: FAILED {note}", file=sys.stderr)
    return {
        "correct": failed == 0 and replays_ok,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminated from outside: unwind, so the workload process is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "branchsim" / "__init__.py").is_file():
        print(f"bench: no branchsim sources under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / (
        f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace),
                       workdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
