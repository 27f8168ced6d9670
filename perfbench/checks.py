"""Output checks for each benchmark operation.

The checks use numpy directly, not sparsedm, so they judge the program
from outside and add no spans to a traced run. Each raises CheckFailed
naming what is wrong.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An operation's output is wrong."""


def check_solution(P: np.ndarray, H: np.ndarray, h_eigs: np.ndarray, n_occ: int, tol: float) -> None:
    """A converged P is finite, feasible within a tol-scaled bound, and no
    lower in energy than the N lowest eigenvalues of H allow.

    The checks are those of sparsedm.solver.feasibility, done in numpy.
    At convergence ||P - R||_F <= tol * max(1, ||P||_F) = bound, and R
    has its spectrum in [0, 1], so by Weyl's inequality no eigenvalue of P
    lies further than bound outside [0, 1]; the trace of P is exact up to
    rounding. h_eigs are the ascending eigenvalues of H. Writing
    P = R + E, E shifts tr(HP) by at most ||H||_F * bound, and the trace
    slack of R by at most sqrt(n) * ||H||_2 * bound.
    """
    if not np.all(np.isfinite(P)):
        raise CheckFailed("P has non-finite entries")
    bound = tol * max(1.0, float(np.linalg.norm(P)))
    n = P.shape[0]
    trace_error = abs(float(np.trace(P)) - n_occ)
    if trace_error > bound:
        raise CheckFailed(f"|tr P - {n_occ}| = {trace_error:.3e} exceeds {bound:.3e}")
    w = np.linalg.eigvalsh((P + P.T) / 2)
    excursion = max(0.0, -float(w[0]), float(w[-1]) - 1.0)
    if excursion > bound:
        raise CheckFailed(f"eigenvalues of P leave [0, 1] by {excursion:.3e}, bound {bound:.3e}")
    h_norm2 = float(np.abs(h_eigs).max())
    slack = bound * (float(np.linalg.norm(H)) + math.sqrt(n) * h_norm2)
    energy = float(np.sum(H * P.T))
    floor = float(np.sum(h_eigs[:n_occ]))
    if energy < floor - slack:
        raise CheckFailed(f"tr(HP) = {energy:.10g} is below the eigenvalue floor {floor:.10g} - {slack:.3e}")


def _read_csv(path: Path) -> list[dict[str, str]]:
    if not path.is_file():
        raise CheckFailed(f"{path} is missing")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(out: Path, mus: tuple[float, ...]) -> list[tuple[bool, int]]:
    """sweep.csv has one finite row per mu and every mu_*/summary.csv exists.

    Returns (converged, iterations) per mu from the summaries.
    """
    rows = _read_csv(out / "sweep.csv")
    if len(rows) != len(mus):
        raise CheckFailed(f"sweep.csv has {len(rows)} rows for {len(mus)} mu values")
    got = sorted(float(row["mu"]) for row in rows)
    if any(not math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, sorted(mus))):
        raise CheckFailed(f"sweep.csv mu column {got} does not match {sorted(mus)}")
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row.values()):
            raise CheckFailed(f"sweep.csv row {row} has a non-finite value")
    runs = []
    for mu in mus:
        summary = _read_csv(out / f"mu_{mu:g}" / "summary.csv")
        if len(summary) != 1:
            raise CheckFailed(f"mu_{mu:g}/summary.csv has {len(summary)} rows, expected 1")
        runs.append((summary[0]["converged"] == "true", int(summary[0]["iterations"])))
    return runs


def matrix_trace(path: Path) -> float:
    """Trace of a matrix in the sparsedm text format, read row by row."""
    if not path.is_file():
        raise CheckFailed(f"{path} is missing")
    with open(path) as fh:
        n = int(fh.readline())
        trace, rows = 0.0, 0
        for i, line in enumerate(fh):
            fields = line.split()
            if len(fields) != n:
                raise CheckFailed(f"{path}: row {i + 1} has {len(fields)} entries, expected {n}")
            trace += float(fields[i])
            rows += 1
    if rows != n:
        raise CheckFailed(f"{path}: {rows} rows, expected {n}")
    return trace


def check_report(exact_dir: Path, diag_dir: Path, n_occ: int, k: int) -> None:
    """P_exact has trace N, the thetas sum to N inside [0, 1], ritz.csv has k rows."""
    trace = matrix_trace(exact_dir / "P_exact.mat")
    if abs(trace - n_occ) > 1e-8:
        raise CheckFailed(f"P_exact has trace {trace:.12g}, expected {n_occ}")
    thetas = np.array([float(row["theta"]) for row in _read_csv(diag_dir / "theta.csv")])
    if abs(thetas.sum() - n_occ) > 1e-8:
        raise CheckFailed(f"thetas sum to {thetas.sum():.12g}, expected {n_occ}")
    if thetas.min() < -1e-10 or thetas.max() > 1 + 1e-10:
        raise CheckFailed(f"thetas span [{thetas.min():.3e}, {thetas.max():.3e}], outside [0, 1]")
    ritz = _read_csv(diag_dir / "ritz.csv")
    if len(ritz) != k:
        raise CheckFailed(f"ritz.csv has {len(ritz)} rows, expected {k}")
