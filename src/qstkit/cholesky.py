"""Bijection between tau vectors and density matrices via lower-triangular T.

A d x d state uses d**2 real coefficients. Slots 0..d-1 hold the real
diagonal of T, top-left to bottom-right. The remaining slots come in
(real, imaginary) pairs filling the strict sub-diagonals in order of
increasing offset, each sub-diagonal traversed top to bottom. For d = 4:

    T = [ t0                                      ]
        [ t4+i t5    t1                           ]
        [ t10+i t11  t6+i t7    t2                ]
        [ t14+i t15  t12+i t13  t8+i t9   t3      ]

T is the state's factor in ``qcore``'s convention: the state is
rho = T T† / Tr(T T†), positive semidefinite and of unit trace for any nonzero
tau, so network outputs are physical by construction. ``tau_to_matrix`` is the
whole decode; ``qcore.density`` makes rho where a matrix is needed, and
``qcore.fidelity`` and ``qcore.partial_trace`` take T as it is.
"""

from __future__ import annotations

import numpy as np

from . import qcore

_CHOLESKY_SHIFT = 1e-12


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
    # Real and imaginary parts are set apart, so no arithmetic touches a non-finite tau.
    t.real[..., rows[d:], cols[d:]] = tau[..., d::2]
    t.imag[..., rows[d:], cols[d:]] = tau[..., d + 1 :: 2]
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


def rho_to_tau(rho: np.ndarray) -> np.ndarray:
    """Canonical tau target for a physical state or a (..., d, d) stack of them.

    Cholesky-factorizes rho + 1e-12*I (the Tikhonov shift keeps rank-deficient
    targets factorizable), then scales tau to unit Euclidean norm. numpy's
    factorization returns a positive diagonal, which removes the sign
    ambiguity, so targets are unique. The input is trusted to be exactly Hermitian, as
    ``qcore.density`` makes every stack it returns.
    """
    t = np.linalg.cholesky(rho + _CHOLESKY_SHIFT * np.eye(rho.shape[-1]))
    tau = matrix_to_tau(t)
    # A vector dot per row, the same sum as a 1-D np.linalg.norm.
    return tau / np.sqrt(tau[..., None, :] @ tau[..., :, None])[..., 0]
