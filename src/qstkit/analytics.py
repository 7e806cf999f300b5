"""Monte Carlo baselines for average fidelities.

``mc_avg_fidelity`` estimates the mean fidelity between two independent
random states of one measure and dimension; ``mc_avg_fidelity_vs_mixed``
the mean fidelity of a random state against I/dim. These estimates are the
oracle for the reference values 0.67 / 0.59 / 0.57 (Hilbert-Schmidt, dims
2 / 4 / 8) and 0.590 (Bures, dim 2).

Every Monte Carlo entry point takes a seed and draws pair i from
``sampling.stream(seed, i)``, so estimates are reproducible and identical
however the pairs are distributed over workers.
"""

from __future__ import annotations

import math

import numpy as np

from . import qcore, sampling

_MC_CHUNK = 8192


def _mc_fidelities(measure, m, count, seed, against_mixed):
    d = 2**m
    mixed = qcore.maximally_mixed(m)
    fids = np.empty(count)
    for start in range(0, count, _MC_CHUNK):
        stop = min(start + _MC_CHUNK, count)
        rhos = np.empty((stop - start, d, d), dtype=complex)
        sigmas = None if against_mixed else np.empty_like(rhos)
        for i in range(start, stop):
            rng = sampling.stream(seed, i)
            rhos[i - start] = sampling.sample_state(m, measure, rng)
            if sigmas is not None:
                sigmas[i - start] = sampling.sample_state(m, measure, rng)
        fids[start:stop] = qcore.fidelity(rhos, mixed if sigmas is None else sigmas)
    return fids


def mc_avg_fidelity(measure: str, dim: int, pairs: int, seed: int = 0) -> tuple[float, float]:
    """Mean fidelity (and standard error) between independent random pairs.

    Pair i draws both its states from ``sampling.stream(seed, i)``, so the
    estimate is reproducible and independent of any work partitioning.
    """
    if pairs < 100:
        raise ValueError(f"need at least 100 pairs for a stable estimate, got {pairs}")
    fids = _mc_fidelities(measure, qcore.qubit_count(dim, 2), pairs, seed, against_mixed=False)
    return float(fids.mean()), float(fids.std(ddof=1) / math.sqrt(pairs))


def mc_avg_fidelity_vs_mixed(
    measure: str, dim: int, count: int, seed: int = 0
) -> tuple[float, float]:
    """Mean fidelity (and standard error) of random states against I/dim."""
    if count < 100:
        raise ValueError(f"need at least 100 draws for a stable estimate, got {count}")
    fids = _mc_fidelities(measure, qcore.qubit_count(dim, 2), count, seed, against_mixed=True)
    return float(fids.mean()), float(fids.std(ddof=1) / math.sqrt(count))
