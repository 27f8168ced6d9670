"""Dense symmetric-matrix kernels and the shared matrix text format.

Matrices are plain float64 numpy arrays of shape (n, n). The kernels
preserve the exact symmetry of symmetric input: entrywise and diagonal
maps do so by construction, and ``spectral_clamp``, whose matrix product
does not, ends with the symmetrization ``(A + A.T) / 2``, which is
bitwise symmetric under IEEE arithmetic. Downstream code may therefore
rely on ``A[i, j] == A[j, i]`` exactly for outputs of symmetric input.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "AsymmetricMatrixError",
    "EigenSolverError",
    "MatrixFormatError",
    "SpectralDecomposition",
    "entrywise_l1",
    "fro_norm",
    "read_matrix",
    "require_symmetric",
    "soft_threshold",
    "spectral_clamp",
    "sym_eig",
    "symmetrize",
    "trace_product",
    "trace_shift_project",
    "write_matrix",
]

# Relative asymmetry allowed before an input is rejected outright.
SYMMETRY_RTOL = 1e-12


class MatrixFormatError(ValueError):
    """Matrix text file is malformed (bad header, wrong row/column counts)."""


class AsymmetricMatrixError(ValueError):
    """Matrix violates the symmetry tolerance."""


class EigenSolverError(RuntimeError):
    """Eigendecomposition failed to converge."""


class SpectralDecomposition(NamedTuple):
    """Eigenvalues in ascending order with aligned orthonormal eigenvectors.

    ``eigenvectors[:, i]`` belongs to ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A.T) / 2, which is exactly symmetric entrywise."""
    return (a + a.T) / 2


def require_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate a dense symmetric matrix and return its symmetrized copy.

    Checks squareness, finiteness, and symmetry up to
    ``SYMMETRY_RTOL * max(1, max|A|)``. Raises ValueError /
    AsymmetricMatrixError naming the offending input.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    scale = max(1.0, float(np.abs(a).max()))
    asym = float(np.abs(a - a.T).max())
    if asym > SYMMETRY_RTOL * scale:
        raise AsymmetricMatrixError(
            f"{name} is asymmetric: max|A - A.T| = {asym:.3e} "
            f"exceeds {SYMMETRY_RTOL * scale:.3e}"
        )
    return symmetrize(a)


def sym_eig(a: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Backed by LAPACK via ``numpy.linalg.eigh``; a non-converged
    eigeniteration surfaces as EigenSolverError.
    """
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(
            f"eigendecomposition of {a.shape[0]}x{a.shape[0]} matrix "
            f"(fro norm {fro_norm(a):.3e}) did not converge: {exc}"
        ) from exc
    return SpectralDecomposition(w, v)


def soft_threshold(a: np.ndarray, t: float) -> np.ndarray:
    """Entrywise shrinkage sign(a) * max(|a| - t, 0)."""
    if t < 0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    return np.sign(a) * np.maximum(np.abs(a) - t, 0.0)


def trace_shift_project(b: np.ndarray, n_occ: float) -> np.ndarray:
    """Project onto the affine set {tr P = n_occ} in Frobenius geometry.

    Subtracts ``(tr B - n_occ) / n`` from the diagonal only; off-diagonal
    entries pass through unchanged.
    """
    n = b.shape[0]
    out = np.array(b, dtype=float, copy=True)
    shift = (float(np.trace(out)) - n_occ) / n
    out[np.diag_indices(n)] -= shift
    return out


def spectral_clamp(a: np.ndarray) -> np.ndarray:
    """Project onto {0 <= R <= I} by clipping eigenvalues into [0, 1]."""
    w, v = sym_eig(a)
    return symmetrize((v * np.clip(w, 0.0, 1.0)) @ v.T)


def fro_norm(a: np.ndarray) -> float:
    """Frobenius norm sqrt(sum a_ij^2)."""
    return float(np.linalg.norm(a))


def entrywise_l1(a: np.ndarray) -> float:
    """Entrywise l1 norm sum |a_ij|."""
    return float(np.abs(a).sum())


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """tr(AB) = sum_ij A_ij B_ji, without forming the product."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b.T))


def format_matrix(a: np.ndarray) -> str:
    """Render a matrix in the text format: header n, then n rows."""
    n = a.shape[0]
    lines = [str(n)]
    for row in a:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def write_matrix(path, a: np.ndarray) -> None:
    """Write a matrix in the shared text format at full float64 precision."""
    with open(path, "w") as fh:
        fh.write(format_matrix(a))


def read_matrix(path) -> np.ndarray:
    """Parse the matrix text format; raises MatrixFormatError on bad shape.

    The result is returned as-is (not symmetrized); callers that require
    symmetry should pass it through ``require_symmetric``.
    """
    with open(path) as fh:
        raw = fh.read()
    lines = [ln for ln in raw.splitlines() if ln.strip()]
    if not lines:
        raise MatrixFormatError(f"{path}: empty matrix file")
    try:
        n = int(lines[0])
    except ValueError:
        raise MatrixFormatError(f"{path}: header {lines[0]!r} is not an integer") from None
    if n <= 0:
        raise MatrixFormatError(f"{path}: dimension must be positive, got {n}")
    if len(lines) - 1 != n:
        raise MatrixFormatError(f"{path}: expected {n} rows, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split()
        if len(fields) != n:
            raise MatrixFormatError(
                f"{path}: row {i} has {len(fields)} entries, expected {n}"
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise MatrixFormatError(f"{path}: row {i} contains a non-numeric entry") from None
    a = np.array(rows, dtype=float)
    if not np.all(np.isfinite(a)):
        raise MatrixFormatError(f"{path}: matrix contains non-finite entries")
    return a
