"""Correctness checks of benchmark artifacts against independent oracles.

Nothing here calls the code under test to compute an expected value: the
containers are parsed with their documented layouts, states are redrawn
from the documented Philox stream contract, measurement probabilities come
from explicit ``np.kron`` projectors, and fidelities from
``scipy.linalg.sqrtm``. The only library entry point used is
``cli.read_states``, because reading states back through it is what is
checked.

Every ``check_*`` function returns ``None`` when the artifact passes and a
one-line description of the first problem otherwise.
"""

from __future__ import annotations

import csv
import math
import struct
import warnings
from pathlib import Path

import numpy as np

DATASET_HEADER = struct.Struct("<8sII16s16sQQ")
PHYSICAL_ATOL = 1e-10
MEASUREMENT_ATOL = 1e-12
FIDELITY_ATOL = 1e-8
# Mean fidelity of Hilbert-Schmidt random pairs at dims 2/4/8, as quoted in
# the README to two decimals; a mean may differ by a few standard errors
# plus half a unit in the last quoted place.
README_HS_MEANS = {1: 0.67, 2: 0.59, 3: 0.57}
BASELINE_STDERRS = 4.0
ORACLE_SAMPLES = 40  # records per dataset redrawn and measured by the oracle


def read_dataset_file(path):
    """(m, measure, seed, measurements, taus) parsed from a ``.qst`` file."""
    raw = Path(path).read_bytes()
    _, _, m, measure, _, count, seed = DATASET_HEADER.unpack_from(raw)
    width = 6**m + 4**m
    records = np.frombuffer(raw, dtype="<f8", offset=DATASET_HEADER.size)
    records = records.reshape(count, width)
    return m, measure.rstrip(b"\0").decode(), seed, records[:, : 6**m], records[:, 6**m :]


def pauli_projectors(m: int) -> np.ndarray:
    """(6**m, 2**m, 2**m) joint projectors, setting order X+ X- Y+ Y- Z+ Z-."""
    s = 1 / math.sqrt(2)
    kets = [np.array(k, dtype=complex) for k in
            ([s, s], [s, -s], [s, 1j * s], [s, -1j * s], [1, 0], [0, 1])]
    single = [np.outer(k, k.conj()) for k in kets]
    joint = [np.eye(1, dtype=complex)]
    for _ in range(m):
        joint = [np.kron(a, p) for a in joint for p in single]
    return np.array(joint)


def decode_tau(tau: np.ndarray) -> np.ndarray:
    """Density matrix T T†/Tr(T T†) from the documented tau layout."""
    d = math.isqrt(len(tau))
    t = np.diag(tau[:d]).astype(complex)
    slot = d
    for offset in range(1, d):
        for r in range(offset, d):
            t[r, r - offset] = tau[slot] + 1j * tau[slot + 1]
            slot += 2
    rho = t @ t.conj().T
    return rho / np.trace(rho).real


def draw_state(m: int, measure: str, seed: int, index: int) -> np.ndarray:
    """State ``index`` of a dataset, redrawn from Philox keyed (seed, index)."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    d = 2**m

    def ginibre():
        re = rng.standard_normal((d, d))
        return (re + 1j * rng.standard_normal((d, d))) / math.sqrt(2)

    a = ginibre()
    if measure == "bures":
        q, r = np.linalg.qr(ginibre())
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        a = (np.eye(d) + u) @ a
    w = a @ a.conj().T
    return w / np.trace(w).real


def physical_problem(rho: np.ndarray) -> str | None:
    if not np.all(np.isfinite(rho)):
        return "non-finite"
    if np.abs(rho - rho.conj().T).max() > PHYSICAL_ATOL:
        return "not Hermitian"
    if abs(np.trace(rho) - 1) > PHYSICAL_ATOL:
        return "not of unit trace"
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0] < -PHYSICAL_ATOL:
        return "not positive semidefinite"
    return None


def _sample_indices(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(count, size=min(ORACLE_SAMPLES, count), replace=False))


def check_measurements(path) -> str | None:
    """Sampled rows equal Tr(rho Pi) of the redrawn state within 1e-12."""
    m, measure, seed, meas, _ = read_dataset_file(path)
    projs = pauli_projectors(m)
    for i in _sample_indices(len(meas), seed):
        rho = draw_state(m, measure, seed, int(i))
        expected = np.einsum("sij,ji->s", projs, rho).real
        err = np.abs(meas[i] - expected).max()
        if not err <= MEASUREMENT_ATOL:
            return f"{path}: record {i} measurements off by {err:.3e}"
    return None


def check_taus(path) -> str | None:
    """Sampled taus decode to physical states equal to the redrawn ones."""
    m, measure, seed, _, taus = read_dataset_file(path)
    for i in _sample_indices(len(taus), seed):
        rho = decode_tau(taus[i])
        problem = physical_problem(rho)
        if problem:
            return f"{path}: record {i} tau decodes to a state that is {problem}"
        err = np.abs(rho - draw_state(m, measure, seed, int(i))).max()
        if not err <= 1e-9:
            return f"{path}: record {i} tau decodes to a state off by {err:.3e}"
    return None


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_baselines(summary_path) -> str | None:
    """HS random-pair means within a few standard errors of the README values."""
    rows = [r for r in _read_csv(summary_path)
            if r["mode"] == "random-pair" and r["measure"] == "hilbert-schmidt"]
    found = {int(r["n"]): r for r in rows}
    for n, ref in README_HS_MEANS.items():
        if n not in found:
            return f"{summary_path}: no random-pair row for dim {2**n}"
        mean, err = float(found[n]["mean"]), float(found[n]["stderr"])
        if not abs(mean - ref) <= BASELINE_STDERRS * err + 0.005:
            return f"{summary_path}: dim {2**n} mean {mean:.4f} is not {ref} +- {err:.4f}"
    return None


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    from scipy.linalg import sqrtm

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        root = sqrtm(rho)
        return float(np.trace(sqrtm(root @ sigma @ root)).real ** 2)


def check_fidelity_rows(rec_dir, input_path, read_states) -> str | None:
    """Every fidelity.csv row equals the fidelity of the written state and the truth."""
    rec_dir = Path(rec_dir)
    states = read_states(rec_dir / "states.qstst")
    rows = _read_csv(rec_dir / "fidelity.csv")
    taus = read_dataset_file(input_path)[4]
    if not len(rows) == len(states) == len(taus):
        return f"{rec_dir}: {len(rows)} rows, {len(states)} states, {len(taus)} inputs"
    for i, (row, est, tau) in enumerate(zip(rows, states, taus)):
        expected = uhlmann_fidelity(est, decode_tau(tau))
        if int(row["state_id"]) != i or not abs(float(row["fidelity"]) - expected) <= FIDELITY_ATOL:
            return f"{rec_dir}: row {i} reads {row['fidelity']}, oracle gives {expected:.12f}"
    return None


def check_states_physical(rec_dir, read_states) -> str | None:
    for i, rho in enumerate(read_states(Path(rec_dir) / "states.qstst")):
        problem = physical_problem(rho)
        if problem:
            return f"{rec_dir}: state {i} is {problem}"
    return None


def check_summary(path) -> str | None:
    """Experiment summary means are fidelities: finite and within [0, 1]."""
    rows = _read_csv(path)
    if not rows:
        return f"{path}: no rows"
    for row in rows:
        mean = float(row["mean"])
        if not 0.0 <= mean <= 1.0:
            return f"{path}: mean {row['mean']} outside [0, 1]"
    return None


def check_history(path) -> str | None:
    rows = _read_csv(path)
    if not rows:
        return f"{path}: no rows"
    for row in rows:
        if not all(math.isfinite(float(row[k])) for k in ("mean_loss", "val_mean_fidelity")):
            return f"{path}: epoch {row['epoch']} has a non-finite value"
    return None


def check_workload(run, workload: str) -> None:
    """Check the artifacts under ``out/`` (and inputs under ``in/``)."""
    out = Path("out")
    if workload == "generate":
        results = [(check, (out / name,)) for name in ("hs3.qst", "bures3.qst")
                   for check in (check_measurements, check_taus)]
        results.append((check_baselines, (out / "baselines" / "summary.csv",)))
    elif workload == "reconstruct":
        read_states = run.cli.read_states
        results = []
        for n in (1, 2):
            rec = out / f"rec-n{n}"
            results.append((check_fidelity_rows, (rec, Path("in") / f"n{n}.qst", read_states)))
            results.append((check_states_physical, (rec, read_states)))
        results += [(check_summary, (out / fig / "summary.csv",)) for fig in ("fig2", "fig3")]
    else:
        results = [(check_history, (out / f"m{m}" / "history.csv",)) for m in (2, 3)]
    for check, args in results:
        try:
            problem = check(*args)
        except Exception as exc:  # an unreadable artifact fails its check
            problem = f"{check.__name__}{tuple(map(str, args))}: {type(exc).__name__}: {exc}"
        run.op(problem is None, problem or "")


def quality(workload: str) -> dict[str, float]:
    """The workload's result fidelities; ``fidelity`` is the headline one."""
    out = Path("out")
    if workload == "train":
        vals = {f"val_fidelity_m{m}": max(float(r["val_mean_fidelity"])
                                          for r in _read_csv(out / f"m{m}" / "history.csv"))
                for m in (2, 3)}
        return {"fidelity": sum(vals.values()) / len(vals), **vals}
    if workload == "reconstruct":
        fids = [float(r["fidelity"]) for n in (1, 2)
                for r in _read_csv(out / f"rec-n{n}" / "fidelity.csv")]
        return {"fidelity": sum(fids) / len(fids), "rec_fidelity": sum(fids) / len(fids)}
    rows = _read_csv(out / "baselines" / "summary.csv")
    dim2 = [r for r in rows if r["mode"] == "random-pair" and r["n"] == "1"]
    return {"fidelity": float(dim2[0]["mean"])}
