"""Command-line entry point: generate, train, reconstruct, experiment, baselines.

Every command resolves its configuration from (defaults, optional INI config
file, explicit flags; later wins), validates it, and writes the fully
resolved values as an INI file next to its outputs, so any run can be
re-executed exactly from its artifacts. All commands are deterministic given
(config, seed); the only parallel path is dataset generation, whose
per-state streams make worker count irrelevant to the output bytes.

Reconstructions are deterministic given the checkpoint and the input file.
Rows are forwarded through the network in chunks of the checkpoint's
``batch_size``, so the last bits of a row's state (about 1e-15) can depend
on which rows share its chunk: the same row in another file, or at another
position, may differ at that level.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import struct
import sys
from pathlib import Path

import numpy as np

from . import adapt, analytics, cholesky, neuralnet, sampling, tomography
from .qcore import fidelity, num_qubits, qubit_count
from .tomography import FormatError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

STATES_MAGIC = b"QSTSTATE"
STATES_VERSION = 1
_STATES_HEADER = struct.Struct("<8sIIQ")

PROFILES = {
    "desk": {"train_count": 4000, "val_count": 200, "epochs": 50},
    "full": {"train_count": 35000, "val_count": 500, "epochs": 300},
}


class UsageError(Exception):
    """Bad flag values or inconsistent options."""


def write_states(path, states) -> None:
    """Binary container of reconstructed density matrices (complex doubles).

    ``states`` is a (count, 2**n, 2**n) stack, or anything indexable that
    stacks into one.
    """
    states = np.asarray(states, dtype="<c16")
    if states.ndim != 3:
        raise ValueError(f"expected a (count, d, d) stack of states, got shape {states.shape}")
    n = num_qubits(states)
    with open(path, "wb") as fh:
        fh.write(_STATES_HEADER.pack(STATES_MAGIC, STATES_VERSION, n, len(states)))
        fh.write(states.tobytes())


def read_states(path) -> np.ndarray:
    """Read a states container back as a (count, 2**n, 2**n) stack."""
    raw = Path(path).read_bytes()
    if len(raw) < _STATES_HEADER.size:
        raise FormatError(f"{path}: file shorter than header")
    magic, version, n, count = _STATES_HEADER.unpack_from(raw)
    if magic != STATES_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != STATES_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    d = 2**n
    expected = _STATES_HEADER.size + count * d * d * 16
    if len(raw) != expected:
        raise FormatError(f"{path}: payload is {len(raw)} bytes, expected {expected}")
    states = np.frombuffer(raw, dtype="<c16", offset=_STATES_HEADER.size)
    return states.reshape(count, d, d).copy()


def _read_config_file(path) -> dict:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise UsageError(f"config file not found: {path}")
    merged = {}
    for section in parser.sections():
        merged.update(dict(parser[section]))
    return merged


def _resolve(args, key, cast, default=None):
    """defaults < config file < explicit CLI flag."""
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    file_values = getattr(args, "_file_values", {})
    if key in file_values:
        raw = file_values[key]
        try:
            return cast(raw)
        except ValueError as exc:
            raise UsageError(f"config key {key}={raw!r}: {exc}") from exc
    return default


def _write_resolved_config(path, command: str, values: dict) -> None:
    parser = configparser.ConfigParser()
    parser["run"] = {"command": command}
    parser["run"].update({k: str(v) for k, v in values.items()})
    with open(path, "w") as fh:
        parser.write(fh)


def _generate_dataset(m, measure, count, seed, workers=1) -> tomography.Dataset:
    spec = sampling.EnsembleSpec(m, measure, count)
    states = sampling.sample_ensemble(spec, seed, workers=workers)
    measurements = np.stack([tomography.measure(rho) for rho in states])
    taus = np.stack([cholesky.rho_to_tau(rho) for rho in states])
    return tomography.Dataset(m, measure, seed, measurements, taus)


def cmd_generate(args) -> int:
    m = _resolve(args, "m", int, 2)
    measure = _resolve(args, "measure", str, sampling.MEASURE_HS)
    count = _resolve(args, "count", int, 100)
    seed = _resolve(args, "seed", int, 0)
    workers = _resolve(args, "workers", int, 1)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dataset = _generate_dataset(m, measure, count, seed, workers)
    tomography.write_dataset(out, dataset)
    _write_resolved_config(
        str(out) + ".config.ini",
        "generate",
        {"m": m, "measure": measure, "count": count, "seed": seed, "workers": workers,
         "out": out, "format_version": tomography.DATASET_VERSION},
    )
    print(f"wrote {count} states to {out}")
    return EXIT_OK


def _load_train_val(args, val_count):
    train_ds = tomography.read_dataset(args.dataset)
    if args.val_dataset is not None:
        val_ds = tomography.read_dataset(args.val_dataset)
        if val_ds.num_qubits != train_ds.num_qubits:
            raise FormatError(
                f"validation set has m={val_ds.num_qubits}, training set m={train_ds.num_qubits}"
            )
        return train_ds, train_ds.measurements, train_ds.taus, val_ds.measurements, val_ds.taus
    if val_count >= train_ds.count:
        raise UsageError(
            f"val_count {val_count} must be smaller than the dataset ({train_ds.count} states)"
        )
    split = train_ds.count - val_count
    return (
        train_ds,
        train_ds.measurements[:split],
        train_ds.taus[:split],
        train_ds.measurements[split:],
        train_ds.taus[split:],
    )


def cmd_train(args) -> int:
    profile = _resolve(args, "profile", str, "desk")
    if profile not in PROFILES:
        raise UsageError(f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}")
    epochs = _resolve(args, "epochs", int, PROFILES[profile]["epochs"])
    val_count = _resolve(args, "val_count", int, PROFILES[profile]["val_count"])
    seed = _resolve(args, "seed", int, 0)
    dense_widths = _resolve(args, "dense_widths", str, "512,256")
    widths = tuple(int(w) for w in str(dense_widths).split(","))

    train_ds, tr_meas, tr_taus, va_meas, va_taus = _load_train_val(args, val_count)
    config = neuralnet.NetworkConfig(
        num_qubits=train_ds.num_qubits,
        conv_filters=_resolve(args, "filters", int, 25),
        dense_widths=widths,
        dropout_rate=_resolve(args, "dropout", float, 0.5),
        learning_rate=_resolve(args, "learning_rate", float, 0.01),
        batch_size=_resolve(args, "batch_size", int, 100),
        max_epochs=epochs,
        seed=seed,
    )

    init_params = init_accums = None
    if args.init_checkpoint is not None:
        ck_config, init_params, init_accums = neuralnet.load_checkpoint(args.init_checkpoint)
        if ck_config.num_qubits != config.num_qubits:
            raise FormatError(
                f"checkpoint is for m={ck_config.num_qubits}, dataset has m={config.num_qubits}"
            )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    net, opt, history = neuralnet.train(
        config, tr_meas, tr_taus, va_meas, va_taus, init_params, init_accums
    )

    ck_path = out_dir / "checkpoint.qstck"
    neuralnet.save_checkpoint(ck_path, config, net.parameters(), opt.accumulators)
    with open(out_dir / "history.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss", "val_mean_fidelity"])
        for epoch, (lo, fi) in enumerate(zip(history.losses, history.val_fidelities), start=1):
            writer.writerow([epoch, f"{lo:.12e}", f"{fi:.12f}"])
    _write_resolved_config(
        out_dir / "config.ini",
        "train",
        {"dataset": args.dataset, "val_dataset": args.val_dataset or "", "val_count": val_count,
         "profile": profile, "m": config.num_qubits, "filters": config.conv_filters,
         "dense_widths": dense_widths, "dropout": config.dropout_rate,
         "learning_rate": config.learning_rate, "batch_size": config.batch_size,
         "epochs": epochs, "seed": seed, "init_checkpoint": args.init_checkpoint or "",
         "best_epoch": history.best_epoch + 1, "serial_mode": True},
    )
    print(
        f"trained m={config.num_qubits} for {epochs} epochs; "
        f"best epoch {history.best_epoch + 1} "
        f"(val fidelity {max(history.val_fidelities):.4f}); wrote {ck_path}"
    )
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    net, _ = neuralnet.network_from_checkpoint(args.checkpoint)
    m = net.config.num_qubits
    ds = tomography.read_dataset(args.input)
    n = ds.num_qubits
    if args.n is not None and args.n != n:
        raise UsageError(f"--n {args.n} does not match the input file (n={n})")
    if n > m:
        raise UsageError(f"input has n={n} qubits but the checkpoint was trained on m={m}")
    mode = _resolve(args, "mode", str, adapt.PADDING_ENGINEERED)
    if mode not in adapt.PADDING_MODES:
        raise UsageError(f"unknown padding mode {mode!r}; expected one of {adapt.PADDING_MODES}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    states = adapt.reconstruct(net, ds.measurements, mode)
    fids = fidelity(states, cholesky.tau_to_rho(ds.taus))
    write_states(out_dir / "states.qstst", states)
    with open(out_dir / "fidelity.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state_id", "fidelity"])
        for state_id, f in enumerate(fids):
            writer.writerow([state_id, f"{f:.12f}"])
    _write_resolved_config(
        out_dir / "config.ini",
        "reconstruct",
        {"checkpoint": args.checkpoint, "input": args.input, "n": n, "m": m, "mode": mode,
         "count": ds.count, "states_format_version": STATES_VERSION},
    )
    mean_f = float(np.mean(fids))
    print(f"reconstructed {ds.count} states (n={n} via m={m}, {mode}); mean fidelity {mean_f:.4f}")
    return EXIT_OK


def _parse_checkpoint_args(entries) -> dict[int, neuralnet.Network]:
    nets = {}
    for entry in entries or []:
        path = entry.split("=", 1)[1] if "=" in entry else entry
        net, _ = neuralnet.network_from_checkpoint(path)
        m = net.config.num_qubits
        if "=" in entry and int(entry.split("=", 1)[0]) != m:
            raise UsageError(f"checkpoint {path} is for m={m}, not m={entry.split('=', 1)[0]}")
        if m in nets:
            raise UsageError(f"two checkpoints given for m={m}")
        nets[m] = net
    return nets


def _experiment_fig2(args, out_dir, seed, measure) -> list:
    nets = _parse_checkpoint_args(args.checkpoint)
    if not nets:
        raise UsageError("fig2 needs at least one --checkpoint")
    count = _resolve(args, "test_count", int, 500)
    records = []
    for m, net in sorted(nets.items()):
        spec = sampling.EnsembleSpec(m, measure, count)
        states = sampling.sample_ensemble(spec, sampling.sub_seed(seed, f"fig2-test-{measure}-{m}"))
        records.extend(adapt.subsystem_experiment(net, states, measure))
    adapt.write_records_csv(out_dir / "records.csv", records)
    return adapt.summarize(records)


def _experiment_fig3(args, out_dir, seed, measure) -> list:
    nets = _parse_checkpoint_args(args.checkpoint)
    if not nets:
        raise UsageError("fig3 needs --checkpoint entries (e.g. 2=path 3=path)")
    count = _resolve(args, "test_count", int, 500)
    pairs = _resolve(args, "pairs", int, 20000)
    ensembles = {}
    for n in range(1, max(nets) + 1):
        spec = sampling.EnsembleSpec(n, measure, count)
        ensembles[n] = sampling.sample_ensemble(
            spec, sampling.sub_seed(seed, f"fig3-test-{measure}-{n}")
        )
    records, baselines = adapt.padding_experiment(
        nets, ensembles, measure, baseline_pairs=pairs, seed=sampling.sub_seed(seed, "fig3-baseline")
    )
    adapt.write_records_csv(out_dir / "records.csv", records)
    return adapt.summarize(records) + baselines


def _experiment_baselines(args, out_dir, seed, measure) -> list:
    pairs = _resolve(args, "pairs", int, 100000)
    dims = [int(d) for d in str(_resolve(args, "dims", str, "2,4,8")).split(",")]
    summaries = []
    for dim in dims:
        n = qubit_count(dim, 2)
        mean, err = analytics.mc_avg_fidelity(
            measure, dim, pairs, seed=sampling.sub_seed(seed, f"baseline-pair-{measure}-{dim}")
        )
        summaries.append(adapt.CurveSummary("baseline", measure, n, n, "random-pair", mean, err, pairs))
        mean, err = analytics.mc_avg_fidelity_vs_mixed(
            measure, dim, pairs, seed=sampling.sub_seed(seed, f"baseline-mixed-{measure}-{dim}")
        )
        summaries.append(adapt.CurveSummary("baseline", measure, n, n, "max-mixed", mean, err, pairs))
    return summaries


def cmd_experiment(args) -> int:
    name = args.name
    seed = _resolve(args, "seed", int, 0)
    measure = _resolve(args, "measure", str, sampling.MEASURE_HS)
    if measure not in sampling.MEASURES:
        raise UsageError(f"unknown measure {measure!r}; expected one of {sampling.MEASURES}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if name == "fig2":
        summaries = _experiment_fig2(args, out_dir, seed, measure)
    elif name == "fig3":
        summaries = _experiment_fig3(args, out_dir, seed, measure)
    elif name == "baselines":
        summaries = _experiment_baselines(args, out_dir, seed, measure)
    else:
        raise UsageError(f"unknown experiment {name!r}; expected fig2, fig3 or baselines")

    adapt.write_summary_csv(out_dir / "summary.csv", summaries)
    _write_resolved_config(
        out_dir / "config.ini",
        "experiment",
        {"name": name, "seed": seed, "measure": measure,
         "checkpoints": ",".join(args.checkpoint or []),
         "test_count": _resolve(args, "test_count", int, 500),
         "pairs": _resolve(args, "pairs", int, 100000 if name == "baselines" else 20000),
         "dims": _resolve(args, "dims", str, "2,4,8")},
    )
    for s in summaries:
        print(f"{s.experiment} {s.measure} m={s.m} n={s.n} {s.mode}: "
              f"{s.mean:.4f} +- {s.stderr:.4f} ({s.count})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstkit",
        description="Quantum state tomography with a dimension-adaptive CNN reconstructor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI file; explicit flags override its values")
        p.add_argument("--seed", type=int, help="master seed (default 0)")

    p = sub.add_parser("generate", help="sample an ensemble and write a dataset file")
    add_common(p)
    p.add_argument("--out", required=True, help="output dataset path")
    p.add_argument("--m", type=int, help="qubit count (default 2)")
    p.add_argument("--measure", choices=sampling.MEASURES, help="sampling measure")
    p.add_argument("--count", type=int, help="number of states (default 100)")
    p.add_argument("--workers", type=int, help="parallel workers; output is identical (default 1)")

    p = sub.add_parser("train", help="train a network on a dataset file")
    add_common(p)
    p.add_argument("--dataset", required=True, help="training dataset path")
    p.add_argument("--val-dataset", dest="val_dataset", help="separate validation dataset")
    p.add_argument("--val-count", dest="val_count", type=int,
                   help="validation split size when no --val-dataset is given")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--profile", choices=sorted(PROFILES),
                   help="desk (4000/200/50) or full (35000/500/300) defaults")
    p.add_argument("--epochs", type=int)
    p.add_argument("--filters", type=int)
    p.add_argument("--dense-widths", dest="dense_widths", help="e.g. 512,256")
    p.add_argument("--dropout", type=float)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--init-checkpoint", dest="init_checkpoint",
                   help="initialize parameters and accumulators from a checkpoint")

    p = sub.add_parser("reconstruct", help="reconstruct states from a measurement dataset")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="dataset file of n-qubit measurements")
    p.add_argument("--n", type=int, help="expected qubit count of the input (validated)")
    p.add_argument("--mode", choices=adapt.PADDING_MODES)
    p.add_argument("--out-dir", dest="out_dir", required=True)

    p = sub.add_parser("experiment", help="run fig2 / fig3 / baselines and write CSVs")
    add_common(p)
    p.add_argument("--name", required=True, choices=("fig2", "fig3", "baselines"))
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--measure", choices=sampling.MEASURES)
    p.add_argument("--checkpoint", action="append",
                   help="checkpoint path, optionally m=path; repeatable")
    p.add_argument("--test-count", dest="test_count", type=int)
    p.add_argument("--pairs", type=int, help="Monte Carlo pairs for baselines")
    p.add_argument("--dims", help="baseline dimensions, e.g. 2,4,8")

    p = sub.add_parser("baselines", help="shorthand for experiment --name baselines")
    add_common(p)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--measure", choices=sampling.MEASURES)
    p.add_argument("--pairs", type=int)
    p.add_argument("--dims", help="dimensions, e.g. 2,4,8")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_USAGE
    try:
        args._file_values = _read_config_file(args.config) if args.config else {}
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "reconstruct":
            return cmd_reconstruct(args)
        if args.command == "baselines":
            args.name = "baselines"
            args.checkpoint = None
            args.test_count = None
            return cmd_experiment(args)
        return cmd_experiment(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
