"""Monte Carlo baselines for average fidelities.

``mc_avg_fidelity`` estimates the mean fidelity between two independent
random states of one measure and dimension; ``mc_avg_fidelity_vs_mixed``
the mean fidelity of a random state against I/dim. These estimates are the
oracle for the reference values 0.67 / 0.59 / 0.57 (Hilbert-Schmidt, dims
2 / 4 / 8) and 0.590 (Bures, dim 2).

Every Monte Carlo entry point takes a seed and draws pair i from
``sampling.stream(seed, i)``, so estimates are reproducible; the pairs are
sampled and compared in chunks, which changes no pair's fidelity.
"""

from __future__ import annotations

import math

import numpy as np

from . import qcore, sampling

_MC_CHUNK = 4096


def _mc_fidelities(measure, m, count, seed, against_mixed):
    per_stream = 1 if against_mixed else 2
    fids = np.empty(count)
    for start in range(0, count, _MC_CHUNK):
        stop = min(start + _MC_CHUNK, count)
        states = sampling.sample_streams(m, measure, seed, start, stop, per_stream)
        other = qcore.maximally_mixed(m) if against_mixed else states[1]
        fids[start:stop] = qcore.fidelity(states[0], other)
    return fids


def mc_avg_fidelity(measure: str, dim: int, pairs: int, seed: int = 0) -> tuple[float, float]:
    """Mean fidelity (and standard error) between independent random pairs.

    Pair i draws both its states from ``sampling.stream(seed, i)``, so the
    estimate is reproducible.
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
