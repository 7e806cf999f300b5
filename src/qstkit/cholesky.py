"""Bijection between tau vectors and density matrices via lower-triangular T.

A d x d state uses d**2 real coefficients. Slots 0..d-1 hold the real
diagonal of T, top-left to bottom-right. The remaining slots come in
(real, imaginary) pairs filling the strict sub-diagonals in order of
increasing offset, each sub-diagonal traversed top to bottom. For d = 4:

    T = [ t0                                      ]
        [ t4+i t5    t1                           ]
        [ t10+i t11  t6+i t7    t2                ]
        [ t14+i t15  t12+i t13  t8+i t9   t3      ]

The state follows as rho = T T† / Tr(T T†), which is positive semidefinite
and unit trace for any nonzero tau, so network outputs are physical by
construction.
"""

from __future__ import annotations

import numpy as np

from . import qcore

_CHOLESKY_SHIFT = 1e-12
# A tau whose squared norm is at most this defines no state.
MIN_NORM_SQ = 1e-300


def tau_layout(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrix positions of each layout slot, as (rows, cols) arrays.

    Position p < d is the diagonal entry (p, p) holding the single real slot
    p. Position d + j is the j-th strictly-lower entry, holding the complex
    pair (d + 2j, d + 2j + 1).
    """
    qcore.qubit_count(d, 2)
    rows = list(range(d))
    cols = list(range(d))
    for offset in range(1, d):
        for r in range(offset, d):
            rows.append(r)
            cols.append(r - offset)
    return np.array(rows), np.array(cols)


def tau_to_matrix(tau: np.ndarray) -> np.ndarray:
    """Assemble the lower-triangular T from a tau vector or a (..., 4**m) stack."""
    tau = np.asarray(tau, dtype=np.float64)
    d = 2 ** qcore.qubit_count(tau.shape[-1], 4)
    rows, cols = tau_layout(d)
    t = np.zeros(tau.shape[:-1] + (d, d), dtype=complex)
    t[..., rows[:d], cols[:d]] = tau[..., :d]
    t[..., rows[d:], cols[d:]] = tau[..., d::2] + 1j * tau[..., d + 1 :: 2]
    return t


def matrix_to_tau(t: np.ndarray) -> np.ndarray:
    """Read a lower-triangular matrix, or a (..., d, d) stack, back into tau layout order."""
    d = t.shape[-1]
    rows, cols = tau_layout(d)
    tau = np.empty(t.shape[:-2] + (d * d,), dtype=np.float64)
    tau[..., :d] = t[..., rows[:d], cols[:d]].real
    lower = t[..., rows[d:], cols[d:]]
    tau[..., d::2] = lower.real
    tau[..., d + 1 :: 2] = lower.imag
    return tau


def tau_to_rho(tau: np.ndarray) -> np.ndarray:
    """rho = T T† / Tr(T T†) for one tau vector or a (..., 4**m) stack.

    Raises ArithmeticError if any tau's squared norm is not finite or at most MIN_NORM_SQ.
    """
    tau = np.asarray(tau, dtype=np.float64)
    # Tr(T T†) is the squared Euclidean norm of tau.
    norm_sq = np.sum(tau * tau, axis=-1)[..., None, None]
    if not np.all(np.isfinite(norm_sq)):
        raise ArithmeticError("tau vector is not finite; no state is defined")
    if np.any(norm_sq <= MIN_NORM_SQ):
        raise ArithmeticError("tau vector has zero norm; no state is defined")
    t = tau_to_matrix(tau)
    rho = (t @ t.conj().swapaxes(-1, -2)) / norm_sq
    return (rho + rho.conj().swapaxes(-1, -2)) / 2


def rho_to_tau(rho: np.ndarray) -> np.ndarray:
    """Canonical tau target for a physical state or a (..., d, d) stack of them.

    Cholesky-factorizes rho + 1e-12*I (the Tikhonov shift keeps rank-deficient
    targets factorizable), then scales tau to unit Euclidean norm. numpy's
    factorization returns a positive diagonal, which removes the sign
    ambiguity, so targets are unique. The input is trusted to be exactly Hermitian, as
    ``sampling.sample_streams`` makes every stack it returns.
    """
    t = np.linalg.cholesky(rho + _CHOLESKY_SHIFT * np.eye(rho.shape[-1]))
    tau = matrix_to_tau(t)
    # A vector dot per row, the same sum as a 1-D np.linalg.norm.
    return tau / np.sqrt(tau[..., None, :] @ tau[..., :, None])[..., 0]
