"""Measurements on density matrices: exact-eigenspace oracle, energy and
subspace approximation errors, occupation spectra, band occupations,
filtered partial sums, delta-function projections, and a Ritz-value
comparison against the host operator.

All functions are pure; CSV writers at the bottom serialize the reports.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .linalg import symmetrize, sym_eig, trace_product

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


def _warn_if_degenerate(w: np.ndarray, n_occ: int) -> None:
    if n_occ < w.size and w[n_occ] - w[n_occ - 1] <= DEGENERACY_GAP:
        warnings.warn(
            f"eigenvalues {n_occ} and {n_occ + 1} coincide within {DEGENERACY_GAP:g}; "
            "the projector onto the lowest eigenvectors is not unique",
            DegenerateGapWarning,
            stacklevel=3,
        )


def exact_density_matrix(H: np.ndarray, n_occ: int) -> np.ndarray:
    """Orthogonal projector onto the span of the n_occ lowest eigenvectors of H.

    Warns (DegenerateGapWarning) when the gap at the n_occ-th eigenvalue
    is below DEGENERACY_GAP, in which case the returned projector depends
    on eigensolver ordering.
    """
    n = H.shape[0]
    if not 1 <= n_occ <= n:
        raise ValueError(f"n_occ must be in 1..{n}, got {n_occ}")
    w, v = sym_eig(H)
    _warn_if_degenerate(w, n_occ)
    low = v[:, :n_occ]
    return symmetrize(low @ low.T)


def energy_gap_metrics(P: np.ndarray, H: np.ndarray, n_occ: int) -> tuple[float, float]:
    """(tr(H P), sum of the n_occ lowest eigenvalues of H)."""
    w, _ = sym_eig(H)
    return trace_product(H, P), float(np.sum(w[:n_occ]))


def space_approximation(P: np.ndarray, H: np.ndarray, n_occ: int) -> float:
    """Sum over the n_occ lowest eigenvectors phi of H of ||phi - P phi||^2.

    Zero exactly when the span of those eigenvectors is invariant and
    fully occupied under P. Degenerate gaps warn as in exact_density_matrix.
    """
    w, v = sym_eig(H)
    _warn_if_degenerate(w, n_occ)
    low = v[:, :n_occ]
    return float(np.sum((low - P @ low) ** 2))


def occupation_numbers(P: np.ndarray) -> OccupationSpectrum:
    """Eigen-decomposition of P sorted by descending occupation."""
    w, v = sym_eig(P)
    return OccupationSpectrum(values=w[::-1].copy(), basis=v[:, ::-1].copy())


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


def ritz_compare(P: np.ndarray, H: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k Ritz values of H seen through P, next to the k lowest eigenvalues of H.

    Eigenvalues of the symmetric surrogate sqrt(P) H sqrt(P) (equal to the
    nonzero spectrum of P H when P is a projector; for fractional occupations
    the surrogate weights states by their occupation). The k values kept are
    those whose eigenvectors carry the most occupation weight under P, so a
    zero Ritz value inside the occupied subspace is not displaced by the
    (n - rank) trivial zeros. Both outputs are sorted ascending.
    """
    n = H.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    f, v = sym_eig(P)
    root = symmetrize((v * np.sqrt(np.clip(f, 0.0, None))) @ v.T)
    s, u = sym_eig(symmetrize(root @ H @ root))
    weight = np.einsum("ij,jk,ki->i", u.T, P, u)
    keep = np.argsort(-weight, kind="stable")[:k]
    w_h, _ = sym_eig(H)
    return np.sort(s[keep]), w_h[:k].copy()


def band_occupations(P: np.ndarray, H: np.ndarray) -> np.ndarray:
    """theta_i = v_i' P v_i over the ascending eigenvectors v_i of H.

    Values lie in [0, 1] for feasible P and sum to tr P.
    """
    _, v = sym_eig(H)
    return np.einsum("ij,jk,ki->i", v.T, P, v)


def sparsity_fraction(P: np.ndarray) -> float:
    """Fraction of entries smaller than SPARSITY_RELATIVE_CUTOFF * max|P_ij|."""
    mags = np.abs(P)
    return float(np.mean(mags < SPARSITY_RELATIVE_CUTOFF * mags.max()))


# --- CSV emitters ---------------------------------------------------------


def write_occupation_csv(path, values: np.ndarray) -> None:
    """Occupation spectrum as `index,f`, index 1-based in the given order."""
    lines = ["index,f"]
    lines += [f"{i},{f:.16e}" for i, f in enumerate(values, start=1)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_theta_csv(path, thetas: np.ndarray) -> None:
    """Band occupations as `index,theta`, index 1-based, ascending-H order."""
    lines = ["index,theta"]
    lines += [f"{i},{t:.16e}" for i, t in enumerate(thetas, start=1)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_delta_csv(path, xs: np.ndarray, column: np.ndarray) -> None:
    """One projected delta function as `x,value` over the grid coordinates."""
    lines = ["x,value"]
    lines += [f"{x:.16e},{val:.16e}" for x, val in zip(xs, column)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sweep_csv(path, rows: list[tuple[float, float, float, float, float, float]]) -> None:
    """Sweep summary: mu,trHP,exact_energy,l1,space_approx,sparsity per run."""
    lines = ["mu,trHP,exact_energy,l1,space_approx,sparsity"]
    for mu, trhp, exact, l1, space, sparsity in rows:
        lines.append(
            f"{mu:.16e},{trhp:.16e},{exact:.16e},{l1:.16e},{space:.16e},{sparsity:.16e}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
