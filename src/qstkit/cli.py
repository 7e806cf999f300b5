"""Command-line entry point: generate, train, reconstruct, experiment, baselines.

Each option is declared once, with its default, in ``build_parser``; ``train``
defaults to the desk recipe (50 epochs, 200 validation states). The settings
(``CONFIG_KEYS``) of a ``--config`` INI file are parsed as flags ahead of the
command line's own, so argparse checks their types and choices and explicit
flags override them; paths and other keys in the file are ignored. Every
command writes the options it read and the facts of the run as an INI file next
to its outputs, so any run can be re-executed from its artifacts. All commands
are deterministic given (config, seed). A checkpoint loads as one network.
Each command does its work before it creates its output directory, so a
failed run leaves none behind. ``tomography`` defines the dataset and states containers
and the framing of all three binary containers, ``neuralnet`` the checkpoint, ``adapt``
``records.csv`` and ``summary.csv``, and this module ``history.csv``, ``fidelity.csv``
and ``config.ini``.

A reconstructed state's bits depend only on the checkpoint's parameters and its own row.

Exit codes: 0 success, 1 usage error (any ``ValueError``: bad flags or config
values, a seed or setting that a file header cannot hold; unreadable or
unwritable paths; a checkpoint or validation set that does not fit the run,
n > m; a request too large to allocate), 2 data/format error, 3 numerical
failure (including floating-point overflow, invalid and divide).
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import adapt, cholesky, neuralnet, sampling, tomography
from .qcore import density, fidelity, qubit_count
# perfbench reads and writes states as cli.read_states and cli.write_states.
from .tomography import STATES_VERSION, FormatError, read_states, write_states  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# The options a config file may set. Paths in it are ignored, so a written
# config.ini re-runs against the inputs and outputs given as flags.
CONFIG_KEYS = frozenset({
    "m", "measure", "count", "seed", "epochs", "val_count", "dense_widths",
    "filters", "dropout", "learning_rate", "batch_size", "mode", "test_count", "pairs", "dims",
})


def _read_config_file(path) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if not parser.read(path):
            raise ValueError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ValueError(f"bad config file: {exc}".replace("\n", " ")) from exc
    merged = {}
    for section in parser.sections():
        merged.update(dict(parser[section]))
    return merged


def _write_config(path, args, unread=(), **facts) -> None:
    """Write the options of ``args`` but ``--config`` and the ones the run left ``unread``,
    then the facts of the run."""
    values = {k: v for k, v in vars(args).items() if k not in ("config", *unread)} | facts
    parser = configparser.ConfigParser(interpolation=None)
    parser["run"] = {
        k: "" if v is None else ",".join(map(str, v)) if isinstance(v, (list, tuple)) else str(v)
        for k, v in values.items()
    }
    with open(path, "w") as fh:
        parser.write(fh)


def cmd_generate(args) -> int:
    _, dataset = tomography.sample_dataset(args.m, args.measure, args.count, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tomography.write_dataset(out, dataset)
    _write_config(str(out) + ".config.ini", args, format_version=tomography.DATASET_VERSION)
    print(f"wrote {args.count} states to {out}")
    return EXIT_OK


def _load_train_val(args) -> tuple[tomography.Dataset, tomography.Dataset]:
    """The training and validation datasets: the ``--val-dataset`` file, or else row
    slices of the one training file, its last ``--val-count`` records validating."""
    train = tomography.read_dataset(args.dataset)
    if args.val_dataset is not None:
        return train, tomography.read_dataset(args.val_dataset)
    if not 0 < args.val_count < train.count:
        raise ValueError(f"--val-count {args.val_count} is outside 1..{train.count - 1} "
                         f"for a dataset of {train.count} states")
    split = train.count - args.val_count
    return tuple(replace(train, records=rows) for rows in np.split(train.records, [split]))


def cmd_train(args) -> int:
    train, val = _load_train_val(args)
    config = neuralnet.NetworkConfig(
        num_qubits=train.num_qubits,
        conv_filters=args.filters,
        dense_widths=args.dense_widths,
        dropout_rate=args.dropout,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        seed=args.seed,
    )
    # No name for the init network here, so train can free it once it has copied it.
    net, history = neuralnet.train(
        config, train.measurements, train.taus, val.measurements, val.taus,
        None if args.init_checkpoint is None else neuralnet.load_checkpoint(args.init_checkpoint))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ck_path = out_dir / "checkpoint.qstck"
    neuralnet.save_checkpoint(ck_path, net)
    adapt.write_csv(out_dir / "history.csv", ["epoch", "mean_loss", "val_mean_fidelity"],
                    ([epoch, f"{lo:.12e}", f"{fi:.12f}"] for epoch, (lo, fi)
                     in enumerate(zip(history.losses, history.val_fidelities), start=1)))
    unread = ("val_count",) if args.val_dataset is not None else ()
    _write_config(out_dir / "config.ini", args, unread, m=config.num_qubits,
                  best_epoch=history.best_epoch + 1)
    print(
        f"trained m={config.num_qubits} for {args.epochs} epochs; "
        f"best epoch {history.best_epoch + 1} "
        f"(val fidelity {max(history.val_fidelities):.4f}); wrote {ck_path}"
    )
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    net = neuralnet.load_checkpoint(args.checkpoint)
    ds = tomography.read_dataset(args.input)
    m, n = net.config.num_qubits, ds.num_qubits
    factors = adapt.reconstruct(net, ds.measurements, args.mode)
    states = density(factors)
    fids = fidelity(factors, cholesky.tau_to_matrix(ds.taus))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_states(out_dir / "states.qstst", states)
    adapt.write_csv(out_dir / "fidelity.csv", ["state_id", "fidelity"],
                    ([state_id, f"{f:.12f}"] for state_id, f in enumerate(fids)))
    _write_config(out_dir / "config.ini", args, n=n, m=m, count=ds.count,
                  states_format_version=STATES_VERSION)
    mean_f = float(np.mean(fids))
    print(f"reconstructed {ds.count} states (n={n} via m={m}, {args.mode}); "
          f"mean fidelity {mean_f:.4f}")
    return EXIT_OK


def _parse_checkpoint_args(args) -> dict[int, neuralnet.Network]:
    if not args.checkpoints:
        raise ValueError(f"{args.name} needs --checkpoint entries (path or m=path, repeatable)")
    nets = {}
    for entry in args.checkpoints:
        prefix, _, path = entry.partition("=")  # an m= prefix only if it is a number
        want, path = (int(prefix), path) if prefix.isdecimal() else (None, entry)
        net = neuralnet.load_checkpoint(path)
        m = net.config.num_qubits
        if want not in (None, m):
            raise ValueError(f"checkpoint {path} is for m={m}, not m={want}")
        if m in nets:
            raise ValueError(f"two checkpoints given for m={m}")
        nets[m] = net
    return nets


def _write_experiment(args, records, summaries, unread=()) -> int:
    """Write an experiment's records.csv (unless it has none), summary.csv and config.ini."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if records is not None:
        adapt.write_records_csv(out_dir / "records.csv", records)
    adapt.write_summary_csv(out_dir / "summary.csv", summaries)
    _write_config(out_dir / "config.ini", args, unread)
    for s in summaries:
        print(f"{s.experiment} {s.measure} m={s.m} n={s.n} {s.mode}: "
              f"{s.mean:.4f} +- {s.stderr:.4f} ({s.count})")
    return EXIT_OK


def cmd_experiment(args) -> int:
    nets = _parse_checkpoint_args(args)
    ensembles = {}  # test states of q qubits: fig2's per network, fig3's for q = 1 to max m
    for q in sorted(nets) if args.name == "fig2" else range(1, max(nets) + 1):
        seed = sampling.sub_seed(args.seed, f"{args.name}-test-{args.measure}-{q}")
        factors, ds = tomography.sample_dataset(q, args.measure, args.test_count, seed)
        ensembles[q] = (factors, ds.measurements)
    if args.name == "fig2":
        records, summaries = [], []
        for m, ensemble in ensembles.items():
            rows, curves = adapt.subsystem_experiment(nets[m], *ensemble, args.measure)
            records += rows
            summaries += curves
        return _write_experiment(args, records, summaries, unread=("pairs",))
    baselines = []
    if args.pairs != 0:  # first, so a --pairs the estimates reject costs no reconstruction
        baselines = adapt.baseline_curves(args.measure, args.pairs, ensembles,
                                          sampling.sub_seed(args.seed, "fig3-baseline"))
    records, summaries = adapt.padding_experiment(nets, ensembles, args.measure)
    return _write_experiment(args, records, summaries + baselines)


def cmd_baselines(args) -> int:
    if len(set(args.dims)) != len(args.dims):
        raise ValueError(f"--dims {','.join(map(str, args.dims))} repeats a dimension")
    qubit_counts = [qubit_count(dim, 2) for dim in args.dims]
    summaries = adapt.baseline_curves(args.measure, args.pairs, qubit_counts, args.seed)
    return _write_experiment(args, None, summaries)


def _ints(text: str) -> tuple[int, ...]:
    """A comma-separated list of integers, e.g. ``1,2,3``."""
    return tuple(int(part) for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    """The ``qstkit`` parser, with one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="qstkit",
        description="Quantum state tomography with a dimension-adaptive CNN reconstructor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    net = neuralnet.NetworkConfig

    def add_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="INI file whose settings become defaults; "
                                        "flags override them")
        return p

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")

    def add_measure(p):
        p.add_argument("--measure", choices=sampling.MEASURES, default=sampling.MEASURE_HS,
                       help="sampling measure (default %(default)s)")

    p = add_command("generate", "sample an ensemble and write a dataset file")
    p.add_argument("--m", type=int, default=2, help="qubit count (default %(default)s)")
    add_measure(p)
    p.add_argument("--count", type=int, default=100,
                   help="number of states (default %(default)s)")
    add_seed(p)
    p.add_argument("--out", required=True, help="output dataset path")

    p = add_command("train", "train a network on a dataset file")
    p.add_argument("--dataset", required=True, help="training dataset path")
    p.add_argument("--val-dataset", dest="val_dataset", help="separate validation dataset")
    p.add_argument("--val-count", dest="val_count", type=int, default=200,
                   help="validation split size when no --val-dataset is given "
                        "(default %(default)s)")
    p.add_argument("--filters", type=int, default=net.conv_filters,
                   help="conv filters (default %(default)s)")
    p.add_argument("--dense-widths", dest="dense_widths", type=_ints, default=net.dense_widths,
                   help="the two dense layer widths (default %(default)s)")
    p.add_argument("--dropout", type=float, default=net.dropout_rate,
                   help="dropout rate (default %(default)s)")
    p.add_argument("--learning-rate", dest="learning_rate", type=float,
                   default=net.learning_rate, help="Adagrad learning rate (default %(default)s)")
    p.add_argument("--batch-size", dest="batch_size", type=int, default=net.batch_size,
                   help="batch size (default %(default)s)")
    p.add_argument("--epochs", type=int, default=net.max_epochs,
                   help="epochs; the paper's full recipe is 300 with --val-count 500 "
                        "(default %(default)s)")
    add_seed(p)
    p.add_argument("--init-checkpoint", dest="init_checkpoint",
                   help="initialize parameters and accumulators from a checkpoint")
    p.add_argument("--out-dir", dest="out_dir", required=True)

    p = add_command("reconstruct", "reconstruct states from a measurement dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="dataset file of n-qubit measurements")
    p.add_argument("--mode", choices=adapt.PADDING_MODES, default=adapt.PADDING_ENGINEERED,
                   help="measurement padding (default %(default)s)")
    p.add_argument("--out-dir", dest="out_dir", required=True)

    p = add_command("experiment", "run fig2 / fig3 and write CSVs")
    p.add_argument("--name", required=True, choices=("fig2", "fig3"))
    add_seed(p)
    add_measure(p)
    p.add_argument("--checkpoint", dest="checkpoints", action="append",
                   help="checkpoint path, optionally m=path; repeatable")
    p.add_argument("--test-count", dest="test_count", type=int, default=500,
                   help="test states per qubit count (default %(default)s)")
    p.add_argument("--pairs", type=int, default=20000,
                   help="Monte Carlo pairs of the fig3 baselines; 0 skips them "
                        "(default %(default)s)")
    p.add_argument("--out-dir", dest="out_dir", required=True)

    p = add_command("baselines", "Monte Carlo random-pair and maximally-mixed fidelities")
    add_seed(p)
    add_measure(p)
    p.add_argument("--pairs", type=int, default=100000,
                   help="Monte Carlo pairs (default %(default)s)")
    p.add_argument("--dims", type=_ints, default="2,4,8",
                   help="Hilbert-space dimensions (default %(default)s)")
    p.add_argument("--out-dir", dest="out_dir", required=True)

    return parser


def _parse_args(argv=None) -> argparse.Namespace:
    """Parse ``argv``; the settings of a ``--config`` file go in as flags right after the
    command, so argparse checks them like flags and the command line's own flags win."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in _read_config_file(args.config).items()
                 if k in CONFIG_KEYS and k in vars(args)]
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + flags + argv[at:])
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        # Built per call, so a patched module attribute (a tracer's wrapper) is the one run.
        commands = {"generate": cmd_generate, "train": cmd_train, "reconstruct": cmd_reconstruct,
                    "experiment": cmd_experiment, "baselines": cmd_baselines}
        # Overflow, invalid and divide raise FloatingPointError (exit 3); underflow is silent.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return commands[args.command](args)
    except SystemExit as exc:  # argparse: --help, or a bad flag or config value
        return EXIT_OK if not exc.code else EXIT_USAGE
    except (np.linalg.LinAlgError, ArithmeticError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


# ``python -m qstkit.cli`` would run a second copy of this already imported module.
if __name__ == "__main__":
    sys.exit("error: qstkit.cli is not an entry point; run python -m qstkit")
