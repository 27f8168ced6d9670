"""Measurements on density matrices: exact-eigenspace oracle, energy and
subspace approximation errors, occupation spectra, band occupations,
filtered partial sums, delta-function projections, and a Ritz-value
comparison against the host operator.

All measurements are pure functions. Those that need the spectrum of H
(or of P) take it as an optional keyword argument, ``h_eig`` (``p_eig``),
so a caller that measures one matrix several times decomposes it once;
when omitted it is computed. The write_*_csv functions at the bottom fix
the columns of the CSV reports and encode them with ``linalg.write_csv``.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .linalg import SpectralDecomposition, symmetrize, sym_eig, trace_product, write_csv

__all__ = [
    "DegenerateGapWarning",
    "OccupationSpectrum",
    "band_occupations",
    "delta_projections",
    "energy_gap_metrics",
    "exact_density_matrix",
    "filtered_density_matrix",
    "occupation_numbers",
    "ritz_compare",
    "space_approximation",
    "sparsity_fraction",
    "write_delta_csv",
    "write_occupation_csv",
    "write_sweep_csv",
    "write_theta_csv",
]

# Below this gap between the N-th and (N+1)-th eigenvalues the projector
# onto the N lowest eigenvectors depends on eigensolver ordering.
DEGENERACY_GAP = 1e-10

# An entry counts as dead when smaller than this fraction of the largest.
SPARSITY_RELATIVE_CUTOFF = 1e-6


class DegenerateGapWarning(UserWarning):
    """The N-th and (N+1)-th eigenvalues coincide; the projector is not unique."""


class OccupationSpectrum(NamedTuple):
    """Eigenvalues of a density matrix (descending) with aligned eigenvectors.

    values[i] is the occupation of the state in column basis[:, i].
    """

    values: np.ndarray
    basis: np.ndarray


def _eig(a: np.ndarray, eig: SpectralDecomposition | None) -> SpectralDecomposition:
    """The given spectrum of a, else sym_eig(a)."""
    return sym_eig(a) if eig is None else eig


def _lowest_eigenvectors(
    H: np.ndarray, n_occ: int, h_eig: SpectralDecomposition | None
) -> np.ndarray:
    """Columns v[:, :n_occ] of the spectrum of H; warns at the public caller on a degenerate gap."""
    w, v = _eig(H, h_eig)
    if n_occ < w.size and w[n_occ] - w[n_occ - 1] <= DEGENERACY_GAP:
        warnings.warn(
            f"eigenvalues {n_occ} and {n_occ + 1} coincide within {DEGENERACY_GAP:g}; "
            "the projector onto the lowest eigenvectors is not unique",
            DegenerateGapWarning,
            stacklevel=3,
        )
    return v[:, :n_occ]


def exact_density_matrix(
    H: np.ndarray, n_occ: int, *, h_eig: SpectralDecomposition | None = None
) -> np.ndarray:
    """Orthogonal projector onto the span of the n_occ lowest eigenvectors of H.

    Warns (DegenerateGapWarning) when the gap at the n_occ-th eigenvalue
    is below DEGENERACY_GAP, in which case the returned projector depends
    on eigensolver ordering.
    """
    n = H.shape[0]
    if not 1 <= n_occ <= n:
        raise ValueError(f"n_occ must be in 1..{n}, got {n_occ}")
    low = _lowest_eigenvectors(H, n_occ, h_eig)
    # numpy computes a product with its own transpose by BLAS syrk, which
    # fills one triangle and mirrors it, so the projector is exactly symmetric.
    return low @ low.T


def energy_gap_metrics(
    P: np.ndarray, H: np.ndarray, n_occ: int, *, h_eig: SpectralDecomposition | None = None
) -> tuple[float, float]:
    """(tr(H P), sum of the n_occ lowest eigenvalues of H)."""
    w, _ = _eig(H, h_eig)
    return trace_product(H, P), float(np.sum(w[:n_occ]))


def space_approximation(
    P: np.ndarray, H: np.ndarray, n_occ: int, *, h_eig: SpectralDecomposition | None = None
) -> float:
    """Sum over the n_occ lowest eigenvectors phi of H of ||phi - P phi||^2.

    Zero exactly when the span of those eigenvectors is invariant and
    fully occupied under P. Degenerate gaps warn as in exact_density_matrix.
    """
    low = _lowest_eigenvectors(H, n_occ, h_eig)
    return float(np.sum((low - P @ low) ** 2))


def occupation_numbers(
    P: np.ndarray, *, p_eig: SpectralDecomposition | None = None
) -> OccupationSpectrum:
    """Eigen-decomposition of P sorted by descending occupation. basis is
    a reversed view of the eigenvectors (of p_eig's, when given), not a copy."""
    w, v = _eig(P, p_eig)
    return OccupationSpectrum(values=w[::-1].copy(), basis=v[:, ::-1])


def filtered_density_matrix(spec: OccupationSpectrum, lo: int, hi: int) -> np.ndarray:
    """Partial spectral sum over occupations lo..hi (1-based, inclusive).

    The full range 1..n reconstructs the original matrix.
    """
    n = spec.values.size
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"need 1 <= lo <= hi <= {n}, got lo={lo}, hi={hi}")
    cols = spec.basis[:, lo - 1 : hi]
    return symmetrize((cols * spec.values[lo - 1 : hi]) @ cols.T)


def delta_projections(P: np.ndarray, sites: list[int]) -> list[np.ndarray]:
    """Columns of P at the given grid indices: P applied to unit vectors.

    For a density matrix these are its localized real-space orbitals.
    """
    n = P.shape[0]
    for site in sites:
        if not 0 <= site < n:
            raise IndexError(f"site index {site} out of range 0..{n - 1}")
    return [P[:, site].copy() for site in sites]


def ritz_compare(
    P: np.ndarray,
    H: np.ndarray,
    k: int,
    *,
    p_eig: SpectralDecomposition | None = None,
    h_eig: SpectralDecomposition | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """k Ritz values of H seen through P, next to the k lowest eigenvalues of H.

    Eigenvalues of the symmetric surrogate sqrt(P) H sqrt(P) (equal to the
    nonzero spectrum of P H when P is a projector; for fractional occupations
    the surrogate weights states by their occupation). The k values kept are
    those whose eigenvectors carry the most occupation weight under P, so a
    zero Ritz value inside the occupied subspace is not displaced by the
    (n - rank) trivial zeros. Both outputs are sorted ascending.

    The surrogate is solved in P's eigenbasis, P = V diag(f) V^T, over the
    occupied set O = {j : f_j > n eps max(f)}: with S = diag(sqrt(f_O)), the
    eigenpairs (s, z) of S V_O^T H V_O S give the surrogate's eigenvectors
    V_O z with weight f_O . z^2. Each column j outside O is taken as an
    eigenvector of value 0 and weight f_j. For f_j <= 0 that is exact, as
    its row and column of the surrogate are zero; the f_j up to
    n eps max(f) are rounding noise of the decomposition, such as the null
    space of a projector, and leaving them out moves the result by about
    as much.

    Of h_eig only the eigenvalues are read, so its eigenvectors may be an
    empty (n, 0) block.
    """
    n = H.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    f, v = _eig(P, p_eig)
    occ = f > n * np.finfo(float).eps * max(float(f.max()), 0.0)
    f_occ, v_occ = f[occ], v[:, occ]
    root = np.sqrt(f_occ)
    s_occ, z = sym_eig(symmetrize(root[:, None] * (v_occ.T @ (H @ v_occ)) * root))
    s = np.concatenate([s_occ, np.zeros(n - f_occ.size)])
    weight = np.concatenate([f_occ @ z**2, f[~occ]])
    keep = np.argsort(-weight, kind="stable")[:k]
    w_h, _ = _eig(H, h_eig)
    return np.sort(s[keep]), w_h[:k].copy()


def band_occupations(
    P: np.ndarray, H: np.ndarray, *, h_eig: SpectralDecomposition | None = None
) -> np.ndarray:
    """theta_i = v_i' P v_i over the ascending eigenvectors v_i of H.

    Values lie in [0, 1] for feasible P and sum to tr P.
    """
    _, v = _eig(H, h_eig)
    return np.einsum("ij,ij->j", v, P @ v)


def sparsity_fraction(P: np.ndarray) -> float:
    """Fraction of entries smaller than SPARSITY_RELATIVE_CUTOFF * max|P_ij|."""
    mags = np.abs(P)
    return float(np.mean(mags < SPARSITY_RELATIVE_CUTOFF * mags.max()))


# --- CSV reports: each writer fixes one file's columns ---------------------


def write_occupation_csv(path, values: np.ndarray) -> None:
    """Occupation spectrum as `index,f`, index 1-based in the given order."""
    write_csv(path, ("index", "f"), enumerate(np.asarray(values, dtype=float), start=1))


def write_theta_csv(path, thetas: np.ndarray) -> None:
    """Band occupations as `index,theta`, index 1-based, ascending-H order."""
    write_csv(path, ("index", "theta"), enumerate(np.asarray(thetas, dtype=float), start=1))


def write_delta_csv(path, xs: np.ndarray, column: np.ndarray) -> None:
    """One projected delta function as `x,value` over the grid coordinates."""
    write_csv(path, ("x", "value"),
              zip(np.asarray(xs, dtype=float), np.asarray(column, dtype=float)))


def write_sweep_csv(path, rows: list[tuple[float, float, float, float, float, float]]) -> None:
    """Sweep summary: mu,trHP,exact_energy,l1,space_approx,sparsity per run."""
    write_csv(path, ("mu", "trHP", "exact_energy", "l1", "space_approx", "sparsity"),
              (map(float, row) for row in rows))
