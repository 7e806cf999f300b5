"""One benchmark run of one workload, in a fresh process (started by run.py).

The process imports ``qstkit`` from the checkout's ``src/``, prepares the
workload's inputs (timed as set-up), then repeats the workload's timed phase
for the requested number of seconds, calling every command through
``qstkit.cli.main(argv)``. Each repetition ("pass") writes the same artifacts
to the same relative paths, so their sha256 digests must agree from pass to
pass, and between untraced and traced passes. After timing, the artifacts
are checked against independent oracles (``checks.py``).

The last line of standard output is one JSON report of everything the run
measured (``e2e`` and ``layers`` metrics, stage and pass times, the artifact
digest, ``attempted``/``failed`` operations and what failed); run.py turns it
into the benchmark's result line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SETUP_REPEATS = 3
# Training sizes for the ``train`` workload: (states in the file, of which
# validation, epochs). The default network (batch 100, 25 filters, 512/256)
# is used throughout.
TRAIN_SIZES = {2: (4100, 100, 3), 3: (2100, 100, 2)}
# Short checkpoints for the ``reconstruct`` workload.
CKPT_SIZES = {2: (600, 100, 2), 3: (600, 100, 2)}
REC_COUNTS = {1: 1500, 2: 1500}  # n-qubit input files reconstructed via m=3
FIG2_COUNT = 1000
FIG3_COUNT = 250
FIG3_PAIRS = 100  # the minimum the Monte Carlo baselines accept
GEN_COUNT = 3500  # m=3 states per measure
BASELINE_PAIRS = 10000
BASELINE_DIMS = "2,4,8"


class Run:
    """Bookkeeping of one benchmark run: operations attempted and failed."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def command(self, argv: list[str]) -> float:
        """Run one CLI command; returns its wall time in seconds."""
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception as exc:  # an uncaught error is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        self.op(code == 0, f"exit code {code} from: qstkit {' '.join(argv)}")
        return elapsed


def digest(root: Path) -> str:
    """sha256 over every file below ``root``: relative path, then contents."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _gen(out, m, count, seed, measure="hilbert-schmidt"):
    return ["generate", "--out", out, "--m", str(m), "--count", str(count),
            "--measure", measure, "--seed", str(seed)]


def _train(dataset, out_dir, sizes, seed):
    _, val, epochs = sizes
    return ["train", "--dataset", dataset, "--val-count", str(val), "--epochs", str(epochs),
            "--out-dir", out_dir, "--seed", str(seed)]


# -- workloads: set-up argv lists and timed stages ---------------------------
#
# A stage is (name, [argv, ...]); its time is the sum over its commands.


def train_setup(seed):
    return [_gen(f"in/hs{m}.qst", m, TRAIN_SIZES[m][0], seed + m) for m in (2, 3)]


def train_stages(seed):
    return [(f"train_m{m}", [_train(f"in/hs{m}.qst", f"out/m{m}", TRAIN_SIZES[m], seed)])
            for m in (2, 3)]


def reconstruct_setup(seed):
    argvs = []
    for m in (2, 3):
        argvs.append(_gen(f"in/ck{m}.qst", m, CKPT_SIZES[m][0], seed + m))
        argvs.append(_train(f"in/ck{m}.qst", f"in/m{m}", CKPT_SIZES[m], seed))
    for n, count in REC_COUNTS.items():
        argvs.append(_gen(f"in/n{n}.qst", n, count, seed + 10 + n))
    return argvs


def reconstruct_stages(seed):
    ck3 = "in/m3/checkpoint.qstck"
    return [
        ("reconstruct", [
            ["reconstruct", "--checkpoint", ck3, "--input", "in/n1.qst",
             "--mode", "engineered", "--out-dir", "out/rec-n1"],
            ["reconstruct", "--checkpoint", ck3, "--input", "in/n2.qst",
             "--mode", "zero", "--out-dir", "out/rec-n2"],
        ]),
        ("fig2", [["experiment", "--name", "fig2", "--checkpoint", ck3,
                   "--test-count", str(FIG2_COUNT), "--seed", str(seed),
                   "--out-dir", "out/fig2"]]),
        ("fig3", [["experiment", "--name", "fig3",
                   "--checkpoint", "2=in/m2/checkpoint.qstck", "--checkpoint", f"3={ck3}",
                   "--test-count", str(FIG3_COUNT), "--pairs", str(FIG3_PAIRS),
                   "--seed", str(seed), "--out-dir", "out/fig3"]]),
    ]


def generate_setup(seed):
    return []


def generate_stages(seed):
    return [
        ("generate", [_gen("out/hs3.qst", 3, GEN_COUNT, seed),
                      _gen("out/bures3.qst", 3, GEN_COUNT, seed, "bures")]),
        ("baselines", [["baselines", "--out-dir", "out/baselines", "--pairs",
                        str(BASELINE_PAIRS), "--dims", BASELINE_DIMS,
                        "--seed", str(seed)]]),
    ]


WORKLOADS = {
    "train": (train_setup, train_stages),
    "reconstruct": (reconstruct_setup, reconstruct_stages),
    "generate": (generate_setup, generate_stages),
}


def _csv_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def stage_rates(workload: str, stage_s: dict[str, float]) -> dict[str, dict]:
    """Throughput of each stage from its median time and the work it did."""
    out = Path("out")
    if workload == "train":
        items = {f"train_m{m}_samples_per_s": ((size - val) * epochs, f"train_m{m}")
                 for m, (size, val, epochs) in TRAIN_SIZES.items()}
    elif workload == "reconstruct":
        items = {
            "reconstruct_states_per_s": (sum(REC_COUNTS.values()), "reconstruct"),
            "fig2_states_per_s": (_csv_rows(out / "fig2" / "records.csv"), "fig2"),
            "fig3_states_per_s": (_csv_rows(out / "fig3" / "records.csv"), "fig3"),
        }
    else:
        dims = BASELINE_DIMS.count(",") + 1
        items = {
            "generate_states_per_s": (2 * GEN_COUNT, "generate"),
            # Each dimension draws one set of pairs and one set against I/d.
            "baseline_pairs_per_s": (2 * dims * BASELINE_PAIRS, "baselines"),
        }
    return {name: {"value": count / stage_s[stage], "unit": "1/s", "better": "higher"}
            for name, (count, stage) in items.items()}


def _import_seconds(src: str) -> float:
    """Time to import qstkit in a fresh interpreter with this process's environment."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import qstkit; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(proc.stdout)


def _another_pass(walls: list[float], elapsed: float, budget: float) -> bool:
    """Start a pass while the typical pass still fits into the time budget."""
    return not walls or elapsed + statistics.median(walls) <= budget


class ReferenceLoop:
    """A fixed CPU task that measures how fast the machine runs right now.

    On a shared host the same single-threaded work can take 1.5 times as
    long from one minute to the next. Timed just before each command and
    after the last one of a pass, on the same pinned CPU, this loop gives the
    machine's speed during the pass, and a pass time divided by it changes
    far less with that speed than the pass time does. The loop mixes what
    the pipeline runs: small LAPACK calls, BLAS products and interpreted
    arithmetic. It uses only numpy, never qstkit, so no change to qstkit
    alters it. It takes about 10 ms.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        small = rng.standard_normal((8, 8))
        self.small = small + small.T
        self.square = rng.standard_normal((100, 100))
        self.eigh = np.linalg.eigh

    def __call__(self) -> float:
        start = perf_counter()
        for _ in range(300):
            self.eigh(self.small)
        for _ in range(60):
            self.square @ self.square
        total = 0
        for i in range(60000):
            total += i * i
        return perf_counter() - start


def run_pass(run: Run, stages, reference: ReferenceLoop):
    """Run every stage once; returns (wall s, {stage: s}, mean reference loop s)."""
    times, refs = {}, []
    for name, argvs in stages:
        times[name] = 0.0
        for argv in argvs:
            refs.append(reference())
            times[name] += run.command(argv)
    refs.append(reference())
    return sum(times.values()), times, statistics.mean(refs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True, help="directory holding the qstkit package")
    parser.add_argument("--workdir", required=True, help="empty directory for artifacts")
    args = parser.parse_args(argv)

    # One CPU for the whole run, so the reference loop and the commands it
    # calibrates run on the same one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = perf_counter()
    sys.path.insert(0, args.src)
    import qstkit
    from qstkit import cli
    import_times = [perf_counter() - start] + [
        _import_seconds(args.src) for _ in range(SETUP_REPEATS - 1)]

    os.chdir(args.workdir)
    setup_fn, stages_fn = WORKLOADS[args.workload]
    run = Run(cli)

    # Set-up: the import is timed here and in fresh interpreters, the input
    # preparation several times; set-up time is the sum of the two medians.
    setup_times, setup_digests = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        for cmd in setup_fn(args.seed):
            run.command(cmd)
        setup_times.append(perf_counter() - t0)
        setup_digests.append(digest(Path("in")) if Path("in").exists() else "")
    run.op(len(set(setup_digests)) == 1, "set-up inputs differ between repeats")
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    stages = stages_fn(args.seed)
    reference = ReferenceLoop()
    walls, refs, stage_times, digests = [], [], {name: [] for name, _ in stages}, []
    traced_walls, traced_refs, tracer = [], [], None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    # With --trace 1, untraced and traced passes alternate, so both kinds
    # see the same mix of machine speeds and their difference is the
    # tracing overhead.
    t_begin = perf_counter()
    while (_another_pass(walls + traced_walls, perf_counter() - t_begin, args.seconds)
           or (tracer is not None and not traced_walls)):
        traced = tracer is not None and len(traced_walls) < len(walls)
        if traced:
            tracer.install(qstkit)
        try:
            wall, times, ref = run_pass(run, stages, reference)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_walls.append(wall)
            traced_refs.append(ref)
        else:
            walls.append(wall)
            refs.append(ref)
            for name, t in times.items():
                stage_times[name].append(t)
        digests.append(digest(Path("out")))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for i, d in enumerate(digests[1:], start=1):
        run.op(d == digests[0], f"artifact digest of pass {i} differs from pass 0")

    import checks

    checks.check_workload(run, args.workload)
    quality = checks.quality(args.workload)

    stage_s = {name: statistics.median(ts) for name, ts in stage_times.items()}
    wall_s = statistics.median(walls)
    wall_ref = statistics.median(w / r for w, r in zip(walls, refs))
    e2e = {
        "setup_s": {"value": setup_s, "unit": "s", "better": "lower"},
        "wall_s": {"value": wall_s, "unit": "s", "better": "lower"},
        "wall_ref": {"value": wall_ref, "unit": "ref", "better": "lower"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "better": "lower"},
        "fidelity": {"value": quality["fidelity"], "unit": "fraction", "better": "higher"},
        "error_rate": {"value": len(run.failures) / run.attempted, "unit": "fraction",
                       "better": "lower"},
    }
    e2e.update(stage_rates(args.workload, stage_s))
    e2e.update({k: {"value": v, "unit": "fraction", "better": "higher"}
                for k, v in quality.items() if k != "fidelity"})

    layers = None
    if args.trace:
        from tracer import layer_metrics

        traced_wall_s = statistics.median(traced_walls)
        layers = layer_metrics(tracer.summary(), tracer, len(traced_walls))
        layers["traced_wall_s"] = {"value": traced_wall_s, "unit": "s"}
        traced_ref = statistics.median(w / r for w, r in zip(traced_walls, traced_refs))
        layers["trace_overhead_s"] = {"value": traced_wall_s - wall_s, "unit": "s"}
        layers["trace_overhead_pct"] = {
            "value": 100.0 * (traced_ref - wall_ref) / wall_ref, "unit": "%"}

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "passes": {"untraced": len(walls), "traced": len(traced_walls)},
        "import_s": import_times,
        "setup_repeats_s": setup_times,
        "stage_s": stage_s,
        "pass_walls_s": walls,
        "pass_reference_s": refs,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "digest": digests[0],
        "e2e": e2e,
        "layers": layers,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
