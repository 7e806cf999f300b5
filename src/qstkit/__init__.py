"""Quantum state tomography toolkit with a dimension-adaptive CNN reconstructor.

Submodules:

* ``qcore``: qubit counts, a stacked physicality check, and states as factors:
  partial trace, density matrix and fidelity.
* ``sampling``: seeded Ginibre / Hilbert-Schmidt / Bures ensembles, as factors.
* ``tomography``: Pauli-6 measurement simulation, the dataset builder and container.
* ``cholesky``: tau vectors <-> their factors T, and density matrix -> tau.
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
