"""Pauli-6 projective measurements and the binary dataset container.

The six single-qubit settings are fixed globally as

    0: X+   1: X-   2: Y+   3: Y-   4: Z+   5: Z-

(projectors onto the +1/-1 eigenvectors of X, Y, Z). A joint m-qubit setting
is a tuple (s_0, ..., s_{m-1}) indexed base-6 with qubit 0 (the
most-significant tensor factor) in the highest place value. Measurement
vectors hold exact Born probabilities (the infinite-measurement limit); no
shot noise is simulated.

The dataset file format is self-describing: the header embeds the setting
order tag, sampling measure and master seed alongside the record count, so a
file fully determines how it was produced and how to interpret the payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import qcore, sampling

PAULI_SETTINGS = ("X+", "X-", "Y+", "Y-", "Z+", "Z-")
SETTING_ORDER_TAG = "".join(PAULI_SETTINGS)

DATASET_MAGIC = b"QST6DSET"
DATASET_VERSION = 1

# magic, version, num_qubits, measure tag, setting-order tag, count, seed
_HEADER = struct.Struct("<8sII16s16sQQ")


class FormatError(Exception):
    """A binary container is malformed, truncated, or of the wrong version."""


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


def joint_index(settings) -> int:
    """Base-6 index of a joint setting tuple, qubit 0 most significant."""
    index = 0
    for s in settings:
        s = int(s)
        if not 0 <= s < 6:
            raise ValueError(f"setting index out of range: {s}")
        index = index * 6 + s
    return index


def index_settings(index: int, m: int) -> tuple[int, ...]:
    """Inverse of ``joint_index`` for an m-qubit joint setting."""
    if not 0 <= index < 6**m:
        raise ValueError(f"joint index {index} out of range for m={m}")
    out = []
    for k in range(m):
        out.append(index // 6 ** (m - 1 - k) % 6)
    return tuple(out)


def measure(rho: np.ndarray, validate: bool = True) -> np.ndarray:
    """Exact Born probabilities for all 6**m joint Pauli settings.

    Entry ``joint_index(s)`` is Tr(rho · Π_{s_0} ⊗ ... ⊗ Π_{s_{m-1}}),
    evaluated by contracting one qubit at a time rather than materializing
    the joint projectors.
    """
    m = qcore.num_qubits(rho)
    if validate:
        qcore.assert_physical(rho, "measure input")
    projs = pauli6_projectors()
    t = rho.reshape((2,) * (2 * m))
    for remaining in range(m, 0, -1):
        # Current qubit's row index is axis 0, its column index axis
        # ``remaining``; Tr(rho Π) pairs the row index with the projector's
        # ket index. The new settings axis lands at the end, so after m
        # contractions the axes read (s_0, ..., s_{m-1}).
        t = np.tensordot(t, projs, axes=((0, remaining), (2, 1)))
    return np.clip(t.real.reshape(-1), 0.0, 1.0)


@dataclass
class Dataset:
    """Measurement/target pairs for one ensemble, as stored on disk."""

    num_qubits: int
    measure: str
    seed: int
    measurements: np.ndarray  # (count, 6**m) float64
    taus: np.ndarray  # (count, 4**m) float64

    @property
    def count(self) -> int:
        return self.measurements.shape[0]


def write_dataset(path, dataset: Dataset) -> None:
    """Write the versioned little-endian container described in the header."""
    m = dataset.num_qubits
    count = dataset.count
    if dataset.measurements.shape != (count, 6**m):
        raise ValueError(f"measurement block has shape {dataset.measurements.shape}")
    if dataset.taus.shape != (count, 4**m):
        raise ValueError(f"tau block has shape {dataset.taus.shape}")
    header = _HEADER.pack(
        DATASET_MAGIC,
        DATASET_VERSION,
        m,
        dataset.measure.encode("ascii"),
        SETTING_ORDER_TAG.encode("ascii"),
        count,
        dataset.seed,
    )
    records = np.hstack([dataset.measurements, dataset.taus]).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(records.tobytes())


def read_dataset(path) -> Dataset:
    """Read and validate a dataset container."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: file shorter than header")
    magic, version, m, measure_raw, order_raw, count, seed = _HEADER.unpack_from(raw)
    if magic != DATASET_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != DATASET_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    order = order_raw.rstrip(b"\x00").decode("ascii", "replace")
    if order != SETTING_ORDER_TAG:
        raise FormatError(f"{path}: unknown setting order {order!r}")
    measure_tag = measure_raw.rstrip(b"\x00").decode("ascii", "replace")
    if measure_tag not in sampling.MEASURES:
        raise FormatError(f"{path}: unknown measure tag {measure_tag!r}")
    if not 1 <= m <= 16:
        raise FormatError(f"{path}: implausible qubit count {m}")
    width = 6**m + 4**m
    expected = _HEADER.size + count * width * 8
    if len(raw) != expected:
        raise FormatError(f"{path}: payload is {len(raw)} bytes, expected {expected}")
    if count == 0:
        raise FormatError(f"{path}: dataset holds no records")
    records = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(count, width)
    if not np.all(np.isfinite(records)):
        raise FormatError(f"{path}: non-finite measurement or tau values")
    return Dataset(
        num_qubits=m,
        measure=measure_tag,
        seed=seed,
        measurements=records[:, : 6**m].astype(np.float64),
        taus=records[:, 6**m :].astype(np.float64),
    )
