"""Pauli-6 projective measurements, the dataset builder and the binary containers.

The six single-qubit settings are fixed globally as

    0: X+   1: X-   2: Y+   3: Y-   4: Z+   5: Z-

(projectors onto the +1/-1 eigenvectors of X, Y, Z). A joint m-qubit setting
is a tuple (s_0, ..., s_{m-1}) indexed base-6 with qubit 0 (the
most-significant tensor factor) in the highest place value. Measurement
vectors hold exact Born probabilities (the infinite-measurement limit); no
shot noise is simulated. ``sample_dataset`` checks the states of its sampled
factors for physicality, every state once, one block of ``sampling.BLOCK``
states at a time; ``measure`` trusts its input.

The dataset file and the reconstructed-states file are defined here; they and
the network checkpoint are the binary containers framed by ``write_container``.
A dataset header embeds the setting order tag, sampling measure and master seed
alongside the record count, so a file fully determines how it was produced and
how to interpret the payload. A ``Dataset`` holds its records as the file
stores them, one (count, 6**m + 4**m) block: ``sample_dataset`` fills it in
place, block by block, ``write_dataset`` writes it as it is, and
``read_dataset`` maps it from the file's bytes without a copy, so a read
dataset is read-only.
``read_dataset`` rejects a tau target that defines no state (its squared norm
at most ``qcore.MIN_NORM_SQ`` or overflowing), and measurements that are not
probabilities: an entry outside [0, 1], or a basis whose outcomes do not sum to
1 within 1e-9.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cholesky, qcore, sampling

PAULI_SETTINGS = ("X+", "X-", "Y+", "Y-", "Z+", "Z-")
SETTING_ORDER_TAG = "".join(PAULI_SETTINGS)

DATASET_MAGIC = b"QST6DSET"
DATASET_VERSION = 1
STATES_MAGIC = b"QSTSTATE"
STATES_VERSION = 1

# Every container starts with its magic and version.
_FRAME = struct.Struct("<8sI")
# num_qubits, measure tag, setting-order tag, count, seed
_HEADER = struct.Struct("<I16s16sQQ")
_STATES_HEADER = struct.Struct("<IQ")  # n, count

# Largest accepted deviation of a basis's outcome sum from 1; exact rows stay
# within about 1.3e-15 up to m=4.
_SUM_TOLERANCE = 1e-9


class FormatError(Exception):
    """A binary container is malformed, truncated, or of the wrong version."""


def write_container(path, magic: bytes, version: int, header: bytes, blocks, dtype: str) -> None:
    """Write a container: an 8-byte ``magic``, a uint32 ``version``, the packed ``header``
    (its first field the uint32 qubit count), then each array of ``blocks`` in order, as
    the little-endian ``dtype``. Empty ``blocks`` are a ``ValueError`` before the file is
    opened, as ``payload_array`` rejects a container that holds no records."""
    blocks = [np.ascontiguousarray(block, dtype=dtype) for block in blocks]
    if not any(block.size for block in blocks):
        raise ValueError(f"{path}: no records to write")
    with open(path, "wb") as fh:
        fh.write(_FRAME.pack(magic, version) + header)
        for block in blocks:
            fh.write(block)


def read_container(path, magic: bytes, version: int, header: struct.Struct):
    """Check a container's magic, version and qubit count (1..16), and unpack its header.

    Returns the header fields and the payload after them, a memoryview of the
    file's bytes (no copy).
    """
    raw = memoryview(Path(path).read_bytes())
    if len(raw) < _FRAME.size + header.size:
        raise FormatError(f"{path}: file shorter than header")
    found, found_version = _FRAME.unpack_from(raw)
    if found != magic:
        raise FormatError(f"{path}: bad magic {found!r}")
    if found_version != version:
        raise FormatError(f"{path}: unsupported version {found_version}")
    fields = header.unpack_from(raw, _FRAME.size)
    if not 1 <= fields[0] <= 16:
        raise FormatError(f"{path}: implausible qubit count {fields[0]}")
    return fields, raw[_FRAME.size + header.size :]


def payload_array(path, payload, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    """``payload`` as a read-only array of ``shape``; it must hold exactly that many
    values, at least one, and all of them finite."""
    expected = math.prod(shape) * np.dtype(dtype).itemsize
    if len(payload) != expected:
        raise FormatError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    if expected == 0:
        raise FormatError(f"{path}: container holds no records")
    values = np.frombuffer(payload, dtype=dtype).reshape(shape)
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: non-finite values in the payload")
    return values


def pauli6_projectors() -> np.ndarray:
    """The six rank-1 projectors as a (6, 2, 2) array in the fixed order."""
    s = 1.0 / np.sqrt(2.0)
    kets = np.array(
        [
            [s, s],  # X+
            [s, -s],  # X-
            [s, 1j * s],  # Y+
            [s, -1j * s],  # Y-
            [1.0, 0.0],  # Z+
            [0.0, 1.0],  # Z-
        ],
        dtype=complex,
    )
    return np.einsum("si,sj->sij", kets, kets.conj())


_PROJECTORS = pauli6_projectors()
_STEP_MATRIX = _PROJECTORS.transpose(2, 1, 0).reshape(4, 6)  # (ket, bra) x setting


@functools.cache
def _measure_plan(m: int) -> tuple:
    """(transpose, rows, output shape) of each qubit's ``measure`` step, the operations (so the
    bits) of ``np.tensordot(t, _PROJECTORS, axes=((0, r), (2, 1)))``. With r qubits left, t has
    axes (2,)*2r + (6,)*(m-r): rows, columns, settings so far. Tr(rho Π) pairs the qubit's row
    (axis 0) with the ket index and its column (axis r) with the bra index; the new settings
    axis lands last, so after m steps the axes read (s_0, ..., s_{m-1})."""
    return tuple((tuple(a for a in range(m + r) if a not in (0, r)) + (0, r),
                  4 ** (r - 1) * 6 ** (m - r), (2,) * (2 * r - 2) + (6,) * (m - r + 1))
                 for r in range(m, 0, -1))


def measure(rho: np.ndarray) -> np.ndarray:
    """Exact Born probabilities for all 6**m joint Pauli settings.

    Entry sum_q s_q 6**(m-1-q), the base-6 index of the joint setting with
    qubit 0 most significant, is Tr(rho · Π_{s_0} ⊗ ... ⊗ Π_{s_{m-1}}). It is
    evaluated one qubit at a time (``_measure_plan``) rather than materializing
    the joint projectors. ``rho`` is trusted to be physical, as by every kernel.
    """
    m = qcore.qubit_count(rho.shape[-1], 2)
    t = rho.reshape((2,) * (2 * m))
    for perm, rows, shape in _measure_plan(m):
        t = np.dot(t.transpose(perm).reshape(rows, 4), _STEP_MATRIX).reshape(shape)
    return np.clip(t.real.reshape(-1), 0.0, 1.0)


@dataclass
class Dataset:
    """Measurement/target records of one ensemble: the (count, 6**m + 4**m) float64 block
    exactly as the dataset file stores it, each record 6**m measurement probabilities then
    the 4**m tau target. ``measurements`` and ``taus`` are its column views."""

    num_qubits: int
    measure: str
    seed: int
    records: np.ndarray

    @property
    def measurements(self) -> np.ndarray:
        return self.records[:, : 6**self.num_qubits]

    @property
    def taus(self) -> np.ndarray:
        return self.records[:, 6**self.num_qubits :]

    @property
    def count(self) -> int:
        return len(self.records)


def sample_dataset(m: int, sampling_measure: str, count: int,
                   seed: int) -> tuple[np.ndarray, Dataset]:
    """``count`` m-qubit states, state i from ``stream(seed, i)``: their (count, 2**m, 2**m)
    factors, and a dataset whose records block is allocated once and filled in place with
    each state's measurement row and tau target. The factors are taken ``sampling.BLOCK``
    at a time: each block's density matrices (``qcore.density``) are checked for
    physicality, every state once, then measured and written into the block's records, so
    no temporary spans the whole count. The bits are those of one stack."""
    if not 1 <= m <= 4 or count < 1 or not 0 <= seed < 2**64:
        raise ValueError(f"need 1 <= m <= 4, count >= 1 and 0 <= seed < 2**64, got m={m}, "
                         f"count={count}, seed={seed}")
    factors = sampling.sample_streams(m, sampling_measure, seed, 0, count, 1)[0]
    dataset = Dataset(m, sampling_measure, seed, np.empty((count, 6**m + 4**m)))
    for b in range(0, count, sampling.BLOCK):
        block = slice(b, b + sampling.BLOCK)
        states = qcore.density(factors[block])
        qcore.assert_physical(states, "sampled states")
        for row, rho in zip(dataset.measurements[block], states):
            row[:] = measure(rho)
        dataset.taus[block] = cholesky.rho_to_tau(states)
    return factors, dataset


def write_dataset(path, dataset: Dataset) -> None:
    """Write the versioned little-endian container described in the header."""
    m, records = dataset.num_qubits, dataset.records
    if records.ndim != 2 or records.shape[1] != 6**m + 4**m:
        raise ValueError(f"records have shape {records.shape}, not (count, {6**m + 4**m})")
    header = _HEADER.pack(
        m,
        dataset.measure.encode("ascii"),
        SETTING_ORDER_TAG.encode("ascii"),
        dataset.count,
        dataset.seed,
    )
    write_container(path, DATASET_MAGIC, DATASET_VERSION, header, [records], "<f8")


def read_dataset(path) -> Dataset:
    """Read and validate a dataset container; its records are a read-only view of the
    file's bytes (no copy)."""
    (m, measure_raw, order_raw, count, seed), payload = read_container(
        path, DATASET_MAGIC, DATASET_VERSION, _HEADER
    )
    order = order_raw.rstrip(b"\x00").decode("ascii", "replace")
    if order != SETTING_ORDER_TAG:
        raise FormatError(f"{path}: unknown setting order {order!r}")
    measure_tag = measure_raw.rstrip(b"\x00").decode("ascii", "replace")
    if measure_tag not in sampling.MEASURES:
        raise FormatError(f"{path}: unknown measure tag {measure_tag!r}")
    ds = Dataset(m, measure_tag, seed, payload_array(path, payload, "<f8", (count, 6**m + 4**m)))
    with np.errstate(over="ignore", under="ignore"):
        norm_sq = np.sum(ds.taus**2, axis=1)
    if (bad := np.flatnonzero((norm_sq <= qcore.MIN_NORM_SQ) | np.isinf(norm_sq))).size:
        raise FormatError(f"{path}: tau target of record {bad[0]} defines no state")
    meas = ds.measurements
    if (bad := np.flatnonzero(((meas < 0.0) | (meas > 1.0)).any(axis=1))).size:
        raise FormatError(f"{path}: measurement of record {bad[0]} lies outside [0, 1]")
    # Setting s_q = 2 * basis + outcome on each qubit: sum every outcome axis.
    sums = meas.reshape((count,) + (3, 2) * m).sum(axis=tuple(range(2, 2 * m + 1, 2)))
    off = np.abs(sums - 1.0).reshape(count, -1).max(axis=1) > _SUM_TOLERANCE
    if (bad := np.flatnonzero(off)).size:
        raise FormatError(f"{path}: outcomes of record {bad[0]} do not sum to 1 in every basis")
    return ds


def write_states(path, states: np.ndarray) -> None:
    """Binary container of reconstructed density matrices (complex doubles): ``states``
    is a (count, 2**n, 2**n) stack."""
    if states.ndim != 3 or states.shape[1] != states.shape[2]:
        raise ValueError(f"expected a (count, d, d) stack of states, got shape {states.shape}")
    header = _STATES_HEADER.pack(qcore.qubit_count(states.shape[-1], 2), len(states))
    write_container(path, STATES_MAGIC, STATES_VERSION, header, [states], "<c16")


def read_states(path) -> np.ndarray:
    """Read a states container back as a (count, 2**n, 2**n) stack."""
    (n, count), payload = read_container(path, STATES_MAGIC, STATES_VERSION, _STATES_HEADER)
    return payload_array(path, payload, "<c16", (count, 2**n, 2**n)).copy()
