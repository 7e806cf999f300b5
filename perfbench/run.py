"""Benchmark of the qstkit pipeline; see perfbench/README.md.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository. The workload runs in
one fresh Python process (``worker.py``) with BLAS pinned to one thread;
this process only starts it, waits for it (killing it after a time limit),
removes its scratch directory and prints the result. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. The line before it
holds every figure the run measured, including the per-stage throughputs
and the artifact digest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "reconstruct", "generate")
CHILD_TIMEOUT_S = 170
# One BLAS thread: with the default of two on a 2-core machine, repeats of
# the same stage spread much more (see README.md).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def declared_metrics(trace: int) -> list[str]:
    """Names of the metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")

    src = ROOT / "src"
    if not (src / "qstkit" / "__init__.py").is_file():
        print(f"error: no qstkit package under {src}", file=sys.stderr)
        return 2
    names = declared_metrics(args.trace)

    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = {**os.environ, **BLAS_ENV, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--src", str(src), "--workdir", str(workdir)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload process exited with code {proc.returncode}", file=sys.stderr)
        return 3
    report = json.loads(lines[-1])
    source = report["layers"] if args.trace else report["e2e"]
    missing = [n for n in names if n not in source]
    if missing:
        print(f"error: workload reported no {', '.join(missing)}", file=sys.stderr)
        return 3

    for name, metric in sorted(source.items()):
        better = f" ({metric['better']} is better)" if "better" in metric else ""
        print(f"{name}: {metric['value']:.6g} {metric['unit']}{better}")
    print(f"operations: {report['attempted']} attempted, {report['failed']} failed")
    for failure in report["failures"]:
        print(f"failed: {failure}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": source[n]["value"], "unit": source[n]["unit"]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
