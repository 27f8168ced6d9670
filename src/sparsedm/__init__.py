"""Sparse density-matrix solver.

Computes sparse representations of the low-lying eigenspace of a symmetric
matrix by minimizing tr(H P) + (1/mu) ||P||_1 over density matrices
(symmetric, trace N, eigenvalues in [0, 1]) with a three-block split
Bregman iteration, plus the diagnostics and CLI used to study the results.

The package exports the public names of its modules; each module's
``__all__`` is the one list of them.
"""

from . import diagnostics, hamiltonian, linalg, solver
from .diagnostics import *  # noqa: F403
from .hamiltonian import *  # noqa: F403
from .linalg import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for mod in (diagnostics, hamiltonian, linalg, solver) for name in mod.__all__]
