"""The workload process: imports branchsim and drives ops through the CLI.

Usage: ``python3 bench/worker.py WORKDIR MODE`` with MODE one of

- ``setup``: import branchsim, load the documents, print ``ready``, exit;
- ``run``: as setup, then run ops until their summed wall time reaches
  the manifest's ``seconds``, cycling through the inputs;
- ``trace``: as setup, then for each op of the fixed trace set run it
  once untraced and once traced, then replay the traced scenarios round
  by round through the per-op entry points.

An op is one ``cli.main`` call, exactly as the ``branchsim`` entry point
makes it, with stdout going to a file.  The file is kept as a SHA-256
digest; the first output of each distinct input stays in WORKDIR/out for
the correctness checks, which run in the parent after this process has
exited, so they add nothing to its time or memory.  Results go to
WORKDIR/results.json.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import branchsim  # noqa: F401  (import cost is part of set-up)
from branchsim import cli


def load(workdir: Path):
    manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    argvs, bytes_in = [], []
    for i, entry in enumerate(manifest["inputs"]):
        if "verify_seed" in entry:
            argvs.append(["verify", "--seed", str(entry["verify_seed"])])
            bytes_in.append(0)
        else:
            path = workdir / "in" / f"{i}.json"
            bytes_in.append(len(path.read_bytes()))
            argvs.append(["run", "--scenario", str(path)])
    return manifest, argvs, bytes_in


def run_op(argv, stdout_path, call=None):
    """One CLI invocation; returns (wall seconds, exit code, error).

    Stdout goes to a file, as it would from the command line, so the
    benchmark holds no copy of a report in memory while the next op runs.
    """
    err = io.StringIO()
    error = None
    with open(stdout_path, "w", encoding="utf-8") as out:
        start = perf_counter()
        try:
            if call is None:
                rc = cli.main(argv, stdout=out, stderr=err)
            else:
                rc = call("cli.main", cli.main, argv, stdout=out, stderr=err)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaping exception is a failed op, never dropped
            rc, error = None, traceback.format_exc()
        wall = perf_counter() - start
    stderr_text = err.getvalue()
    if error is None and "Traceback" in stderr_text:
        error = stderr_text
    return wall, rc, error


class Recorder:
    """Digests each op's stdout; keeps the first output of each input."""

    def __init__(self, workdir: Path):
        self.outdir = workdir / "out"
        self.outdir.mkdir(exist_ok=True)
        self.stdout_path = workdir / "stdout.txt"
        self.ops: list[dict] = []

    def op(self, argvs, key, call=None, traced=False) -> float:
        wall, rc, error = run_op(argvs[key], self.stdout_path, call)
        digest, size = hashlib.sha256(), 0
        with open(self.stdout_path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
                size += len(chunk)
        first = self.outdir / f"{key}.txt"
        if not first.exists():
            os.replace(self.stdout_path, first)
        self.ops.append({"key": key, "wall_s": wall, "rc": rc, "error": error,
                         "sha256": digest.hexdigest(), "bytes_out": size,
                         "traced": traced})
        return wall


def run_mode(manifest, argvs, recorder):
    budget, spent, i = manifest["seconds"], 0.0, 0
    while spent < budget:
        spent += recorder.op(argvs, i % len(argvs))
        i += 1


def trace_mode(manifest, argvs, recorder, workdir):
    from branchsim import scenario
    from tracing import Tracer, replay

    tracer = Tracer()
    keys = list(range(manifest["trace_set"]))
    for op, key in enumerate(keys):
        recorder.op(argvs, key)
        tracer.op = op
        tracer.install()
        try:
            recorder.op(argvs, key, call=tracer.call, traced=True)
        finally:
            tracer.uninstall()
    replays = []
    tracer.install()
    try:
        for op, key in enumerate(keys):
            if op not in tracer.final_states:
                continue
            tracer.op = f"replay-{op}"
            doc = (workdir / "in" / f"{key}.json").read_text(encoding="utf-8")
            replays.append(replay(tracer, scenario.parse_scenario(doc),
                                  tracer.final_states.pop(op)))
    finally:
        tracer.uninstall()
    tracer.dump(workdir / "spans.json")
    return replays


def main(argv: list[str]) -> int:
    workdir, mode = Path(argv[1]), argv[2]
    manifest, argvs, bytes_in = load(workdir)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    recorder = Recorder(workdir)
    replays = []
    if mode == "run":
        run_mode(manifest, argvs, recorder)
    else:
        replays = trace_mode(manifest, argvs, recorder, workdir)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"ops": recorder.ops, "peak_rss_mb": peak_kib / 1024.0,
              "bytes_in": bytes_in, "replays_match": replays}
    (workdir / "results.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
