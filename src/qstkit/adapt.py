"""Dimension-adaptive reconstruction via measurement padding and partial trace.

An n-qubit measurement vector can be lifted into the frame of a network
trained on m >= n qubits in two ways:

* engineered padding: pretend the system was extended with m-n fictitious
  maximally mixed qubits. Each projective outcome of I/2 is exactly 1/2, so
  the padded vector is the original replicated across every extra-setting
  block and scaled by (1/2)**(m-n). This equals the exact measurement vector
  of the extended product state, so the network sees physically consistent
  input.
* zero padding: place the 6**n real values in the first 6**n slots and zero
  the rest. Not physically motivated (per-axis normalization breaks); kept
  as the comparison baseline.

Fictitious qubits occupy the most-significant index positions, so the first
6**n slots of the zero-padded vector have the appended qubits at setting 0
and the local bases of the real qubits aligned, and the trace-down after
inference removes qubits 0..m-n-1.

``reconstruct`` is the one reconstruction path: it pads a (count, 6**n)
block of measurement rows, forwards it through the network in chunks of the
checkpoint's ``batch_size``, decodes the tau vectors and traces the
fictitious qubits off, all on stacks. A single state is a batch of one. The
command line, the experiment drivers and the validation step of training
all go through it.

Experiment drivers reconstruct test ensembles, compare against ground truth
(including every successive trace-down) with stacked fidelities, and
aggregate per-curve means with standard errors into CSV-ready rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import analytics, cholesky, neuralnet, qcore, tomography

PADDING_ENGINEERED = "engineered"
PADDING_ZERO = "zero"
PADDING_MODES = (PADDING_ENGINEERED, PADDING_ZERO)


def engineered_pad(values: np.ndarray, target_qubits: int) -> np.ndarray:
    """Extend by fictitious I/2 qubits: replicate blocks, scale by (1/2)**(m-n)."""
    n = qcore.qubit_count(values.shape[-1], 6)
    extra = target_qubits - n
    if extra < 0:
        raise ValueError(f"cannot pad {n} qubits down to {target_qubits}")
    return np.tile(values, 6**extra) * 0.5**extra


def zero_pad(values: np.ndarray, target_qubits: int) -> np.ndarray:
    """Place the real measurements in the first 6**n slots, zero elsewhere."""
    n = qcore.qubit_count(values.shape[-1], 6)
    if target_qubits < n:
        raise ValueError(f"cannot pad {n} qubits down to {target_qubits}")
    out = np.zeros(values.shape[:-1] + (6**target_qubits,))
    out[..., : values.shape[-1]] = values
    return out


def pad_measurements(values: np.ndarray, target_qubits: int, mode: str) -> np.ndarray:
    if mode == PADDING_ENGINEERED:
        return engineered_pad(values, target_qubits)
    if mode == PADDING_ZERO:
        return zero_pad(values, target_qubits)
    raise ValueError(f"unknown padding mode {mode!r}; expected one of {PADDING_MODES}")


def reconstruct(net: neuralnet.Network, measurements: np.ndarray, mode: str) -> np.ndarray:
    """Reconstruct (count, 2**n, 2**n) states from (count, 6**n) measurement rows.

    Rows are padded to the network's m qubits, forwarded in chunks of the
    checkpoint's ``batch_size`` (so activations never outgrow a training
    batch), decoded through ``tau_to_rho`` and traced down to the n real
    qubits.
    """
    m = net.config.num_qubits
    n = qcore.qubit_count(measurements.shape[-1], 6)
    if n > m:
        raise ValueError(f"input has {n} qubits but the network was trained on {m}")
    grids = neuralnet.grids_from_measurements(pad_measurements(measurements, m, mode))
    taus = np.empty((len(grids), net.config.tau_width))
    step = net.config.batch_size
    for start in range(0, len(grids), step):
        taus[start : start + step] = net.forward(grids[start : start + step], train=False)
    return qcore.partial_trace(cholesky.tau_to_rho(taus), range(m - n))


@dataclass
class ExperimentRecord:
    """One reconstructed test state: full fidelity plus successive trace-downs."""

    experiment: str
    measure: str
    m: int
    n: int
    mode: str
    state_id: int
    fidelities: tuple[float, ...]


@dataclass
class CurveSummary:
    """Mean and standard error of one plotted point."""

    experiment: str
    measure: str
    m: int
    n: int
    mode: str
    mean: float
    stderr: float
    count: int


def subsystem_experiment(
    net: neuralnet.Network, states: Sequence[np.ndarray], measure: str
) -> list[ExperimentRecord]:
    """Reconstruct full m-qubit states, then compare every trace-down.

    Trace-downs remove qubit 0, then 0 and 1, and so on, each compared
    against the matching trace-down of the ground truth.
    """
    m = net.config.num_qubits
    truth = np.stack(states)
    if qcore.num_qubits(truth) != m:
        raise ValueError(f"test states do not have {m} qubits")
    values = np.stack([tomography.measure(rho) for rho in truth])
    estimates = reconstruct(net, values, PADDING_ENGINEERED)
    levels = [qcore.fidelity(estimates, truth)]
    for removed in range(1, m):
        levels.append(
            qcore.fidelity(
                qcore.partial_trace(estimates, range(removed)),
                qcore.partial_trace(truth, range(removed)),
            )
        )
    return [
        ExperimentRecord("fig2", measure, m, m, "none", state_id, tuple(fids))
        for state_id, fids in enumerate(np.stack(levels, axis=1).tolist())
    ]


def padding_experiment(
    nets: Mapping[int, neuralnet.Network],
    ensembles: Mapping[int, Sequence[np.ndarray]],
    measure: str,
    baseline_pairs: int = 0,
    seed: int = 0,
) -> tuple[list[ExperimentRecord], list[CurveSummary]]:
    """Reconstruct each n-qubit ensemble through every network with m >= n.

    Both padding modes run for every (m, n) combination; records are ordered
    by (m, n), then state, then mode. When ``baseline_pairs`` is positive,
    Monte Carlo baseline curves (random pair and maximally mixed, one per
    distinct n) are returned alongside.
    """
    records = []
    for m in sorted(nets):
        net = nets[m]
        if net.config.num_qubits != m:
            raise ValueError(f"network registered under m={m} was trained on "
                             f"{net.config.num_qubits} qubits")
        for n in sorted(ensembles):
            if n > m:
                continue
            truth = np.stack(ensembles[n])
            values = np.stack([tomography.measure(rho) for rho in truth])
            by_mode = [qcore.fidelity(reconstruct(net, values, mode), truth)
                       for mode in PADDING_MODES]
            for state_id, fids in enumerate(np.stack(by_mode, axis=1).tolist()):
                records.extend(
                    ExperimentRecord("fig3", measure, m, n, mode, state_id, (fid,))
                    for mode, fid in zip(PADDING_MODES, fids)
                )
    baselines = []
    if baseline_pairs > 0:
        baselines = baseline_curves(sorted(ensembles), measure, baseline_pairs, seed)
    return records, baselines


def baseline_curves(
    qubit_counts: Sequence[int], measure: str, pairs: int, seed: int
) -> list[CurveSummary]:
    """Random-pair and maximally-mixed Monte Carlo baselines per qubit count."""
    out = []
    for n in qubit_counts:
        mean, err = analytics.mc_avg_fidelity(measure, 2**n, pairs, seed=seed)
        out.append(CurveSummary("baseline", measure, n, n, "random-pair", mean, err, pairs))
        mean, err = analytics.mc_avg_fidelity_vs_mixed(measure, 2**n, pairs, seed=seed)
        out.append(CurveSummary("baseline", measure, n, n, "max-mixed", mean, err, pairs))
    return out


def summarize(records: Sequence[ExperimentRecord]) -> list[CurveSummary]:
    """Aggregate records into per-curve means; one row per trace-down level."""
    groups: dict[tuple, list[float]] = {}
    for rec in records:
        for level, fid in enumerate(rec.fidelities):
            key = (rec.experiment, rec.measure, rec.m, rec.n - level, rec.mode)
            groups.setdefault(key, []).append(fid)
    out = []
    for key in sorted(groups):
        fids = np.array(groups[key])
        stderr = float(fids.std(ddof=1) / np.sqrt(len(fids))) if len(fids) > 1 else 0.0
        out.append(CurveSummary(*key, float(fids.mean()), stderr, len(fids)))
    return out


def write_records_csv(path, records: Sequence[ExperimentRecord]) -> None:
    depth = max((len(r.fidelities) for r in records), default=1)
    header = ["experiment", "measure", "m", "n", "mode", "state_id", "fidelity_full"]
    header += [f"fidelity_trace{i}" for i in range(1, depth)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in records:
            fids = [f"{f:.12f}" for f in r.fidelities]
            fids += [""] * (depth - len(fids))
            writer.writerow([r.experiment, r.measure, r.m, r.n, r.mode, r.state_id, *fids])


def write_summary_csv(path, summaries: Sequence[CurveSummary]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "measure", "m", "n", "mode", "mean", "stderr", "count"])
        for s in summaries:
            writer.writerow(
                [s.experiment, s.measure, s.m, s.n, s.mode,
                 f"{s.mean:.12f}", f"{s.stderr:.12f}", s.count]
            )
