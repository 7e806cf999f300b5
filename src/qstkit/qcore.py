"""Complex linear algebra and quantum-information primitives.

Conventions used throughout the package:

* A k-qubit state lives in a 2**k dimensional Hilbert space and is held as a
  plain complex ndarray. Qubit 0 is the most-significant tensor factor: basis
  index i carries the bit of qubit q at place value 2**(k-1-q), and
  ``tensor_product(a, b)`` puts ``a`` on the high-order qubits.
* ``partial_trace``, ``sqrt_psd`` and ``fidelity`` work on (..., d, d)
  stacks of states; a single state is the 2-D case.
* Physicality means Hermitian within 1e-10 elementwise, eigenvalues above
  -1e-10, and trace within 1e-10 of one. ``is_physical`` / ``assert_physical``
  check this; the numerical kernels otherwise trust their callers.

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


def maximally_mixed(k: int) -> np.ndarray:
    """I/2**k, the uniform-ignorance state on k qubits."""
    d = 2**k
    return np.eye(d, dtype=complex) / d


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with ``a`` on the most-significant indices."""
    return np.kron(a, b)


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


def _assert_hermitian(m: np.ndarray, atol: float) -> None:
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.abs(m - _adjoint(m)) <= atol):
        raise ValueError(f"matrix is not Hermitian within {atol}")


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition, of one matrix or a stack.

    Eigenvalues in [-1e-10, 0) are treated as round-off and clamped to zero;
    anything below -1e-8 raises, since that indicates a non-PSD input rather
    than numerical noise. Both checks cover every member of a stack.
    """
    _assert_hermitian(m, HERMITICITY_ATOL)
    w, v = np.linalg.eigh(m)
    lowest = w[..., 0]
    if np.any(lowest < _PSD_FAIL_TOL):
        raise np.linalg.LinAlgError(
            f"matrix is not positive semidefinite (min eigenvalue {lowest.min():.3e})"
        )
    w = np.clip(w, 0.0, None)
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


def project_physical(m: np.ndarray) -> np.ndarray:
    """Nearest-physical cleanup: hermitize, clamp negative eigenvalues, renormalize."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    h = (m + m.conj().T) / 2
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total <= 0.0:
        raise np.linalg.LinAlgError("zero trace after clamping negative eigenvalues")
    return (v * (w / total)) @ v.conj().T


def is_physical(
    rho: np.ndarray,
    herm_atol: float = HERMITICITY_ATOL,
    eig_atol: float = EIGENVALUE_ATOL,
    trace_atol: float = TRACE_ATOL,
) -> bool:
    """True when ``rho`` satisfies the density-matrix invariants."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if not np.all(np.isfinite(rho.real)) or not np.all(np.isfinite(rho.imag)):
        return False
    if not np.all(np.abs(rho - rho.conj().T) <= herm_atol):
        return False
    if abs(np.trace(rho) - 1.0) > trace_atol:
        return False
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    return bool(w[0] >= -eig_atol)


def assert_physical(rho: np.ndarray, context: str = "state") -> None:
    """Raise ValueError with a reason when ``rho`` violates an invariant."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{context}: expected a square matrix, got shape {rho.shape}")
    if not (np.all(np.isfinite(rho.real)) and np.all(np.isfinite(rho.imag))):
        raise ValueError(f"{context}: non-finite entries")
    herm_dev = np.abs(rho - rho.conj().T).max()
    if herm_dev > HERMITICITY_ATOL:
        raise ValueError(f"{context}: Hermiticity violated by {herm_dev:.3e}")
    trace_dev = abs(np.trace(rho) - 1.0)
    if trace_dev > TRACE_ATOL:
        raise ValueError(f"{context}: trace deviates from 1 by {trace_dev:.3e}")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if w[0] < -EIGENVALUE_ATOL:
        raise ValueError(f"{context}: negative eigenvalue {w[0]:.3e}")
