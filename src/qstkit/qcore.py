"""Complex linear algebra and quantum-information primitives.

Conventions used throughout the package:

* A k-qubit state lives in a 2**k dimensional Hilbert space and is held as a
  plain complex ndarray. Qubit 0 is the most-significant tensor factor: basis
  index i carries the bit of qubit q at place value 2**(k-1-q), and
  ``np.kron(a, b)`` puts ``a`` on the high-order qubits.
* A (d, c) factor A names the state AA†/Tr(AA†): a network estimate or a
  dataset target is the T of its tau, a sampled state its draw, I/d is
  ``np.eye(d)``. ``partial_trace`` and ``fidelity`` take factors, with no
  eigendecomposition; ``density`` is the one step from a factor to a matrix.
  All of them and ``assert_physical`` take stacks on the leading axes.
* Physicality means Hermitian, eigenvalues above zero and unit trace, each within
  the one tolerance ``PHYSICAL_ATOL``; ``assert_physical`` checks it once, where
  states enter (``tomography.sample_dataset``). Kernels trust their callers, but
  ``density`` and ``fidelity`` reject a factor of zero or non-finite norm.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

PHYSICAL_ATOL = 1e-10  # elementwise Hermiticity, trace and lowest-eigenvalue deviation

# A factor whose Tr AA† is at most this defines no state.
MIN_NORM_SQ = 1e-300

_POWER_NAMES = {2: "two", 4: "four", 6: "six"}


def qubit_count(size: int, base: int) -> int:
    """Exponent k >= 1 with ``base**k == size``, in exact integer arithmetic.

    The one conversion from an array size to a qubit count: a state dimension
    is 2**k, a tau vector 4**k and a Pauli-6 measurement vector 6**k long.
    Any other size raises ValueError.
    """
    k, power = 0, 1
    while power < size:
        power *= base
        k += 1
    if k < 1 or power != size:
        name = _POWER_NAMES.get(base, base)
        raise ValueError(f"size {size} is not a power of {name} ({base}**m with m >= 1)")
    return k


def partial_trace(a: np.ndarray, remove: Iterable[int]) -> np.ndarray:
    """Trace the qubits in ``remove`` out of a (..., 2**k, c) factor: their row axes move
    into the columns, giving (..., 2**(k-r), 2**r * c) with no arithmetic. The remaining
    qubits keep their order. ``remove`` may be empty (a copy), not every qubit."""
    k = qubit_count(a.shape[-2], 2)
    removed = sorted(set(int(q) for q in remove))
    if removed and (removed[0] < 0 or removed[-1] >= k):
        raise ValueError(f"qubit index out of range for {k} qubits: {removed}")
    if len(removed) == k:
        raise ValueError("cannot trace out every qubit")
    if not removed:
        return a.copy()
    lead = a.shape[:-2]
    t = a.reshape(lead + (2,) * k + a.shape[-1:])
    t = np.moveaxis(t, [len(lead) + q for q in removed], range(-len(removed), 0))
    return t.reshape(lead + (2 ** (k - len(removed)), -1))


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _state_norm_sq(a: np.ndarray) -> np.ndarray:
    """Tr AA† of a factor, or of each factor of a stack, as the sum of its squared moduli;
    ArithmeticError if one is not finite or at most MIN_NORM_SQ."""
    n = (np.abs(a) ** 2).sum(axis=(-2, -1))
    if not np.all(np.isfinite(n)):
        raise ArithmeticError("state factor is not finite; no state is defined")
    if np.any(n <= MIN_NORM_SQ):
        raise ArithmeticError("state factor has zero norm; no state is defined")
    return n


def density(a: np.ndarray) -> np.ndarray:
    """The state W/Tr W, W = AA†, made exactly Hermitian as (W + W†)/2; these operations
    fix the bits of every sampled state. The norm is checked before the product."""
    _state_norm_sq(a)
    w = a @ _adjoint(a)
    w /= np.trace(w, axis1=-2, axis2=-1).real[..., None, None]
    w += _adjoint(w)
    w *= 0.5
    return w


def _square(a: np.ndarray) -> np.ndarray:
    """A (d, d) factor of a wide factor's state: R† for A† = QR, as AA† = R†R."""
    return _adjoint(np.linalg.qr(_adjoint(a), mode="r")) if a.shape[-1] > a.shape[-2] else a


def fidelity(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Uhlmann fidelity of the states of factors A and B: (sum of the singular values of
    A†B)**2 / (Tr AA† · Tr BB†), accurate for pure states too. Both norms are checked
    before the SVD. Two factors give an ``np.float64``; stacks broadcast, giving an array."""
    norms = _state_norm_sq(a) * _state_norm_sq(b)
    s = np.linalg.svd(_adjoint(_square(a)) @ _square(b), compute_uv=False).sum(axis=-1)
    return np.clip(s * s / norms, 0.0, 1.0)


def assert_physical(rho: np.ndarray, context: str = "state") -> None:
    """Raise ValueError naming the worst violation in one matrix or a (..., d, d) stack."""
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"{context}: expected a square matrix, got shape {rho.shape}")
    if not (np.all(np.isfinite(rho.real)) and np.all(np.isfinite(rho.imag))):
        raise ValueError(f"{context}: non-finite entries")
    herm_dev = np.abs(rho - _adjoint(rho)).max()
    if herm_dev > PHYSICAL_ATOL:
        raise ValueError(f"{context}: Hermiticity violated by {herm_dev:.3e}")
    trace_dev = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max()
    if trace_dev > PHYSICAL_ATOL:
        raise ValueError(f"{context}: trace deviates from 1 by {trace_dev:.3e}")
    lowest = np.linalg.eigvalsh((rho + _adjoint(rho)) / 2)[..., 0].min()
    if lowest < -PHYSICAL_ATOL:
        raise ValueError(f"{context}: negative eigenvalue {lowest:.3e}")
