"""Builders for the discretized 1D Hamiltonians and matrix file loading.

Units are atomic-like (hbar = m = 1), so the kinetic operator is -1/2 d2/dx2
discretized with the periodic central second difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import read_matrix, require_symmetric

__all__ = [
    "Grid1D",
    "HamiltonianSpec",
    "build_hamiltonian",
    "build_kronig_penney",
    "build_laplacian_1d",
    "default_well_centers",
    "load_matrix",
    "sample_kp_potential",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [0, length) with n points."""

    length: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"n must be at least 3 grid points, got {self.n}")
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    def points(self) -> np.ndarray:
        """Grid coordinates x_i = i * spacing, i = 0..n-1."""
        return np.arange(self.n) * self.spacing


@dataclass(frozen=True)
class HamiltonianSpec:
    """Declarative description of the operator to discretize.

    kind is one of "free_laplacian", "kronig_penney", "from_file".
    The well parameters only apply to the Kronig-Penney variant:
    well_depth >= 0 (zero depth degenerates to the free operator),
    well_width > 0, n_wells >= 1. centers=None places the wells at
    length * j / (n_wells + 1) for j = 1..n_wells.
    """

    kind: str
    well_depth: float = 1.0
    well_width: float = 3.0
    n_wells: int = 10
    centers: tuple[float, ...] | None = None
    path: str | None = None

    KINDS = ("free_laplacian", "kronig_penney", "from_file")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"kind must be one of {', '.join(self.KINDS)}; got {self.kind!r}")
        if self.kind == "kronig_penney":
            if not self.well_depth >= 0:
                raise ValueError(f"well_depth must be nonnegative, got {self.well_depth}")
            if not self.well_width > 0:
                raise ValueError(f"well_width must be positive, got {self.well_width}")
            if self.n_wells < 1:
                raise ValueError(f"n_wells must be at least 1, got {self.n_wells}")
        if self.kind == "from_file" and not self.path:
            raise ValueError("path is required for kind from_file")


def default_well_centers(length: float, n_wells: int) -> np.ndarray:
    """Evenly spaced well centers length * j / (n_wells + 1), j = 1..n_wells."""
    return length * np.arange(1, n_wells + 1) / (n_wells + 1)


def build_laplacian_1d(grid: Grid1D) -> np.ndarray:
    """Periodic central-difference discretization of -1/2 d2/dx2.

    Diagonal 1/h^2, nearest neighbours (cyclic) -1/(2 h^2); every row
    sums to zero, so constants lie in the kernel.
    """
    n = grid.n
    h = grid.spacing
    hmat = np.zeros((n, n))
    idx = np.arange(n)
    hmat[idx, idx] = 1.0 / h**2
    hmat[idx, (idx + 1) % n] = -0.5 / h**2
    hmat[idx, (idx - 1) % n] = -0.5 / h**2
    return hmat


def sample_kp_potential(grid: Grid1D, spec: HamiltonianSpec) -> np.ndarray:
    """Sample the inverted-Gaussian well potential at the grid points.

    Each well contributes -well_depth * exp(-dist^2 / well_width^2) with
    the periodic minimum-image distance, keeping the potential smooth
    across the domain boundary.
    """
    if spec.kind != "kronig_penney":
        raise ValueError(f"potential sampling requires a kronig_penney spec, got {spec.kind!r}")
    length = grid.length
    if spec.centers is not None:
        centers = np.asarray(spec.centers, dtype=float)
        if not np.all((centers >= 0) & (centers < length)):
            raise ValueError(f"centers must lie in [0, {length}), got {spec.centers}")
    else:
        centers = default_well_centers(length, spec.n_wells)
    x = grid.points()
    v = np.zeros(grid.n)
    for xj in centers:
        dist = x - xj
        dist = (dist + length / 2) % length - length / 2
        v += np.exp(-(dist**2) / spec.well_width**2)
    return -spec.well_depth * v


def build_kronig_penney(grid: Grid1D, spec: HamiltonianSpec) -> np.ndarray:
    """Kinetic stencil plus the sampled well potential on the diagonal."""
    hmat = build_laplacian_1d(grid)
    hmat[np.diag_indices(grid.n)] += sample_kp_potential(grid, spec)
    return hmat


def load_matrix(path) -> np.ndarray:
    """Load a symmetric matrix from the shared text format.

    Malformed files raise MatrixFormatError; files encoding an asymmetric
    matrix raise AsymmetricMatrixError.
    """
    return require_symmetric(read_matrix(path), name=str(path))


def build_hamiltonian(spec: HamiltonianSpec, grid: Grid1D | None = None) -> np.ndarray:
    """Dispatch on the spec kind; grid is required except for from_file.

    Every kind passes ``require_symmetric``, which rejects a non-finite H.
    """
    if spec.kind == "from_file":
        return load_matrix(spec.path)
    if grid is None:
        raise ValueError(f"{spec.kind} hamiltonian requires a grid")
    H = build_laplacian_1d(grid) if spec.kind == "free_laplacian" else build_kronig_penney(grid, spec)
    return require_symmetric(H, name="H")
