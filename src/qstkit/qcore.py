"""Complex linear algebra and quantum-information primitives.

Conventions used throughout the package:

* A k-qubit state lives in a 2**k dimensional Hilbert space and is held as a
  plain complex ndarray. Qubit 0 is the most-significant tensor factor: basis
  index i carries the bit of qubit q at place value 2**(k-1-q), and
  ``np.kron(a, b)`` puts ``a`` on the high-order qubits.
* ``partial_trace``, ``sqrt_psd``, both fidelities and ``assert_physical``
  work on (..., d, d) stacks of states; a single state is the 2-D case.
* Physicality means Hermitian within 1e-10 elementwise, eigenvalues above
  -1e-10, and trace within 1e-10 of one. ``assert_physical`` checks this
  once, on the stack where states enter (``tomography.sample_dataset``); the
  numerical kernels trust their callers.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

HERMITICITY_ATOL = 1e-10
EIGENVALUE_ATOL = 1e-10
TRACE_ATOL = 1e-10

# Below this an eigenvalue signals a genuinely non-PSD matrix, not round-off.
_PSD_FAIL_TOL = -1e-8

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


def num_qubits(rho: np.ndarray) -> int:
    """Qubit count of a square matrix, or of a stack of them on the last two axes."""
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    return qubit_count(rho.shape[-1], 2)


def partial_trace(rho: np.ndarray, remove: Iterable[int]) -> np.ndarray:
    """Trace out the qubits listed in ``remove``, from one state or a stack.

    The remaining qubits keep their original relative order; leading batch
    axes are kept. ``remove`` may be empty (returns a copy) but must not
    cover every qubit.
    """
    k = num_qubits(rho)
    removed = sorted(set(int(q) for q in remove))
    if removed and (removed[0] < 0 or removed[-1] >= k):
        raise ValueError(f"qubit index out of range for {k} qubits: {removed}")
    if len(removed) == k:
        raise ValueError("cannot trace out every qubit")
    if not removed:
        return rho.copy()

    lead = rho.shape[:-2]
    b = len(lead)
    t = rho.reshape(lead + (2,) * (2 * k))
    kept = k
    for q in reversed(removed):
        # Row axis of qubit q sits at b + q, column axis at b + kept + q.
        t = np.trace(t, axis1=b + q, axis2=b + kept + q)
        kept -= 1
    d = 2**kept
    return t.reshape(lead + (d, d))


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _psd_spectrum(m: np.ndarray, vectors: bool):
    """Clamped eigenvalues, and eigenvectors when ``vectors``, checked as ``sqrt_psd`` says."""
    w, v = np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)
    lowest = w[..., 0]
    if np.any(lowest < _PSD_FAIL_TOL):
        raise np.linalg.LinAlgError(
            f"matrix is not positive semidefinite (min eigenvalue {lowest.min():.3e})"
        )
    return np.clip(w, 0.0, None), v


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition, of one matrix or a stack.

    The input is trusted to be Hermitian. Eigenvalues in [-1e-8, 0) are treated as
    round-off and clamped to zero; anything lower raises, since that indicates a non-PSD
    input rather than numerical noise. Clamp and check cover every member of a stack.
    """
    w, v = _psd_spectrum(m, vectors=True)
    return (v * np.sqrt(w)[..., None, :]) @ _adjoint(v)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """Uhlmann fidelity |Tr sqrt(sqrt(rho) sigma sqrt(rho))|**2 in [0, 1].

    Two matrices give a float. Stacks on the leading axes (broadcast against
    each other, so one state can be compared with a whole stack) give an
    array of pairwise fidelities.
    """
    if rho.shape[-2:] != sigma.shape[-2:]:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    sr = sqrt_psd(rho)
    inner = sr @ sigma @ sr
    # Round-off can leave tiny anti-Hermitian parts in the product.
    inner = (inner + _adjoint(inner)) / 2
    f = np.abs(np.trace(sqrt_psd(inner), axis1=-2, axis2=-1)) ** 2
    f = np.clip(f, 0.0, 1.0)
    return float(f) if f.ndim == 0 else f


def fidelity_to_mixed(rho: np.ndarray) -> float | np.ndarray:
    """``fidelity(rho, I/d)`` of one state (a float) or a stack, in closed form: (sum of
    sqrt(eigenvalue))**2 / d, from one ``eigvalsh``; ``rho`` is checked as by ``sqrt_psd``."""
    f = np.sqrt(_psd_spectrum(rho, vectors=False)[0]).sum(axis=-1) ** 2 / rho.shape[-1]
    f = np.clip(f, 0.0, 1.0)
    return float(f) if f.ndim == 0 else f


def assert_physical(rho: np.ndarray, context: str = "state") -> None:
    """Raise ValueError naming the worst violation in one matrix or a (..., d, d) stack."""
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"{context}: expected a square matrix, got shape {rho.shape}")
    if not (np.all(np.isfinite(rho.real)) and np.all(np.isfinite(rho.imag))):
        raise ValueError(f"{context}: non-finite entries")
    herm_dev = np.abs(rho - _adjoint(rho)).max()
    if herm_dev > HERMITICITY_ATOL:
        raise ValueError(f"{context}: Hermiticity violated by {herm_dev:.3e}")
    trace_dev = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max()
    if trace_dev > TRACE_ATOL:
        raise ValueError(f"{context}: trace deviates from 1 by {trace_dev:.3e}")
    lowest = np.linalg.eigvalsh((rho + _adjoint(rho)) / 2)[..., 0].min()
    if lowest < -EIGENVALUE_ATOL:
        raise ValueError(f"{context}: negative eigenvalue {lowest:.3e}")
