"""Quantum state tomography toolkit with a dimension-adaptive CNN reconstructor.

Submodules:

* ``qcore``: qubit counts, tensor products, and stacked partial trace, PSD square root and fidelity.
* ``sampling``: seeded Ginibre / Haar / Hilbert-Schmidt / Bures ensembles.
* ``tomography``: Pauli-6 measurement simulation and the dataset container.
* ``cholesky``: tau-vector <-> density-matrix bijection.
* ``neuralnet``: from-scratch CNN, Adagrad training, checkpoints.
* ``adapt``: measurement padding, batched reconstruction, experiment drivers.
* ``analytics``: Monte Carlo average-fidelity baselines.
* ``cli``: the ``qstkit`` command-line entry point.
"""

from . import adapt, analytics, cholesky, cli, neuralnet, qcore, sampling, tomography

__version__ = "0.1.0"

__all__ = [
    "adapt",
    "analytics",
    "cholesky",
    "cli",
    "neuralnet",
    "qcore",
    "sampling",
    "tomography",
    "__version__",
]
