"""Quantum state tomography toolkit with a dimension-adaptive CNN reconstructor.

Submodules:

* ``qcore``: qubit counts, and a stacked physicality check, partial trace, PSD
  square root and fidelity.
* ``sampling``: seeded Ginibre / Hilbert-Schmidt / Bures ensembles.
* ``tomography``: Pauli-6 measurement simulation, the dataset builder and container.
* ``cholesky``: tau-vector <-> density-matrix bijection.
* ``neuralnet``: from-scratch CNN, chunked inference, Adagrad training, checkpoints.
* ``adapt``: measurement padding, batched reconstruction, experiment drivers and
  their summary rows, Monte Carlo average-fidelity baselines.
* ``cli``: the ``qstkit`` command-line entry point.
"""

from . import adapt, cholesky, cli, neuralnet, qcore, sampling, tomography

__version__ = "0.1.0"

__all__ = [
    "adapt",
    "cholesky",
    "cli",
    "neuralnet",
    "qcore",
    "sampling",
    "tomography",
    "__version__",
]
