"""Dimension-adaptive reconstruction via measurement padding and partial trace.

``pad_measurements`` lifts an n-qubit measurement vector into the frame of a
network trained on m >= n qubits, in one of two modes:

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
block of measurement rows, predicts their tau vectors (``Network.predict``),
decodes them into factors (``qcore``'s convention) and traces the fictitious
qubits off, all on stacks. A single state is a batch of one. The command line
and the experiment drivers go through it, and it is the one check that n <= m.

Experiment drivers reconstruct test ensembles and compare them against
ground truth (including every successive trace-down) with stacked
fidelities of factors. They return record rows for ``records.csv`` and,
straight from each fidelity array, its summary row: ``_curve`` is the one
mean and standard error. ``mc_fidelities`` draws random pairs once and gives
both Monte Carlo rows from them, by the same ``qcore.fidelity``: each pair's
fidelity, and its first state's against I/2**n (the factor ``np.eye(2**n)``).
``baseline_curves`` turns them into the baseline rows of both the fig3
experiment and the ``baselines`` command, seeding n qubits by
``sub_seed(seed, "baseline-pair-<measure>-<2**n>")``.
These estimates are the oracle for the reference values 0.67 / 0.59 / 0.57
(Hilbert-Schmidt, dims 2 / 4 / 8) and 0.590 (Bures, dim 2).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import cholesky, neuralnet, qcore, sampling

PADDING_ENGINEERED = "engineered"
PADDING_ZERO = "zero"
PADDING_MODES = (PADDING_ENGINEERED, PADDING_ZERO)

_MC_CHUNK = 4096  # Monte Carlo draws sampled and compared at a time


def pad_measurements(values: np.ndarray, m: int, mode: str) -> np.ndarray:
    """Lift (..., 6**n) measurement rows to m >= n qubits: engineered padding tiles them
    over every extra-setting block, scaled by (1/2)**(m-n); zero padding zero-fills."""
    extra = m - qcore.qubit_count(values.shape[-1], 6)
    if mode == PADDING_ENGINEERED:
        return np.tile(values, 6**extra) * 0.5**extra
    if mode == PADDING_ZERO:
        out = np.zeros(values.shape[:-1] + (6**m,))
        out[..., : values.shape[-1]] = values
        return out
    raise ValueError(f"unknown padding mode {mode!r}; expected one of {PADDING_MODES}")


def reconstruct(net: neuralnet.Network, measurements: np.ndarray, mode: str) -> np.ndarray:
    """Reconstruct the factors of states from (count, 6**n) measurement rows.

    Rows are padded to the network's m qubits, predicted by ``Network.predict``,
    decoded by ``tau_to_matrix`` and traced down to the n real qubits: a
    (count, 2**n, 2**m * 2**(m-n)) stack, whose states ``qcore.density`` gives.
    """
    m = net.config.num_qubits
    n = qcore.qubit_count(measurements.shape[-1], 6)
    if n > m:
        raise ValueError(f"input has {n} qubits but the network was trained on {m}")
    taus = net.predict(pad_measurements(measurements, m, mode))
    return qcore.partial_trace(cholesky.tau_to_matrix(taus), range(m - n))


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


def _curve(experiment, measure, m, n, mode, fids: np.ndarray) -> CurveSummary:
    """The summary row of one fidelity array: its mean, standard error and count."""
    stderr = float(fids.std(ddof=1) / np.sqrt(len(fids))) if len(fids) > 1 else 0.0
    return CurveSummary(experiment, measure, m, n, mode, float(fids.mean()), stderr, len(fids))


def subsystem_experiment(
    net: neuralnet.Network, factors: np.ndarray, measurements: np.ndarray, measure: str
) -> tuple[list[tuple], list[CurveSummary]]:
    """Reconstruct full m-qubit states, then compare every trace-down.

    Trace-downs remove qubit 0, then 0 and 1, and so on, each compared
    against the matching trace-down of the ground truth, given as ``factors``.
    Returns one record row per state (its full fidelity, then one per
    trace-down) and one summary per subsystem size, smallest first.
    """
    m = net.config.num_qubits
    estimates = reconstruct(net, measurements, PADDING_ENGINEERED)
    levels = [qcore.fidelity(qcore.partial_trace(estimates, range(removed)),
                             qcore.partial_trace(factors, range(removed)))
              for removed in range(m)]
    records = [("fig2", measure, m, m, "none", state_id, *fids)
               for state_id, fids in enumerate(np.stack(levels, axis=1).tolist())]
    return records, [_curve("fig2", measure, m, m - removed, "none", levels[removed])
                     for removed in reversed(range(m))]


def padding_experiment(
    nets: Mapping[int, neuralnet.Network],
    ensembles: Mapping[int, tuple[np.ndarray, np.ndarray]],
    measure: str,
) -> tuple[list[tuple], list[CurveSummary]]:
    """Reconstruct each n-qubit ensemble, given as (factors, measurements), through
    every network with m >= n.

    Both padding modes are reported for every (m, n) combination, from one prediction
    of the ensemble when n = m; record rows are ordered by (m, n), then state, then
    mode, and summaries by (m, n, mode).
    """
    records, summaries = [], []
    for m in sorted(nets):
        net = nets[m]
        for n in sorted(ensembles):
            if n > m:
                continue
            truth, values = ensembles[n]
            # At n = m both lifts return the rows unchanged, so one reconstruction serves
            # both modes: the rows' taus, and so their fidelities, are bit-equal.
            modes = PADDING_MODES if n < m else PADDING_MODES[:1]
            by_mode = [qcore.fidelity(reconstruct(net, values, mode), truth) for mode in modes]
            by_mode *= len(PADDING_MODES) // len(modes)
            summaries.extend(_curve("fig3", measure, m, n, mode, fids)
                             for mode, fids in zip(PADDING_MODES, by_mode))
            records.extend(("fig3", measure, m, n, mode, state_id, fid)
                           for state_id, fids in enumerate(np.stack(by_mode, axis=1).tolist())
                           for mode, fid in zip(PADDING_MODES, fids))
    return records, summaries


def mc_fidelities(measure: str, n: int, count: int, seed: int) -> np.ndarray:
    """Monte Carlo fidelities of ``count`` random pairs of n-qubit states, a (2, count) array:
    row 0 each pair's fidelity, row 1 its first state's against I/2**n.

    Pair i comes from ``sampling.stream(seed, i)``, whose first state is the stream's
    one-state draw; the pairs are sampled and compared in chunks, which changes no fidelity.
    """
    if count < 100:
        raise ValueError(f"need at least 100 draws for a stable estimate, got {count}")
    fids = np.empty((2, count))
    for start in range(0, count, _MC_CHUNK):
        stop = min(start + _MC_CHUNK, count)
        first, second = sampling.sample_streams(n, measure, seed, start, stop, 2)
        fids[:, start:stop] = qcore.fidelity(first, second), qcore.fidelity(first, np.eye(2**n))
    return fids


def baseline_curves(measure: str, pairs: int, qubit_counts: Iterable[int],
                    seed: int) -> list[CurveSummary]:
    """Random-pair and maximally-mixed Monte Carlo rows for each qubit count, in order.

    Both rows of n qubits come from one draw of ``pairs`` pairs, seeded by
    ``sub_seed(seed, "baseline-pair-<measure>-<2**n>")``.
    """
    return [_curve("baseline", measure, n, n, mode, fids)
            for n in qubit_counts
            for mode, fids in zip(("random-pair", "max-mixed"), mc_fidelities(
                measure, n, pairs, sampling.sub_seed(seed, f"baseline-pair-{measure}-{2**n}")))]


def write_csv(path, header: Sequence[str], rows) -> None:
    """Write the ``header`` line, then one line per row of ``rows``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_records_csv(path, records: Sequence[tuple]) -> None:
    """Rows (experiment, measure, m, n, mode, state_id, *fidelities), padded to the
    longest."""
    depth = max((len(r) for r in records), default=7) - 6
    header = ["experiment", "measure", "m", "n", "mode", "state_id", "fidelity_full"]
    write_csv(path, header + [f"fidelity_trace{i}" for i in range(1, depth)],
              ([*r[:6], *(f"{f:.12f}" for f in r[6:]), *[""] * (depth + 6 - len(r))]
               for r in records))


def write_summary_csv(path, summaries: Sequence[CurveSummary]) -> None:
    write_csv(path, ["experiment", "measure", "m", "n", "mode", "mean", "stderr", "count"],
              ([s.experiment, s.measure, s.m, s.n, s.mode,
                f"{s.mean:.12f}", f"{s.stderr:.12f}", s.count] for s in summaries))
