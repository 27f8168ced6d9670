"""Three-block split Bregman iteration for the sparse density-matrix problem.

Minimizes  tr(H P) + (1/mu) * sum|P_ij|  over the convex set
{P symmetric, tr P = n_occ, 0 <= P <= I}. The iteration splits P into
auxiliary copies Q (carrying the l1 shrinkage) and R (carrying the
spectral box constraint), coupled through multiplier-like matrices b, d
with quadratic penalties lam and r:

    P <- trace projection of (lam (Q - b) + r (R - d) - H) / (lam + r)
    Q <- shrink(P + b, 1 / (lam mu))
    R <- eigenvalue clamp of (P + d) onto [0, I]
    b <- (P + b) - Q
    d <- (P + d) - R

Every iterate is kept exactly symmetric. mu = inf disables the l1 term
(shrinkage threshold 0), which recovers the pure trace minimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import (
    WarmStart,
    clamp_eig,
    entrywise_l1,
    fro_norm,
    require_symmetric,
    soft_threshold,
    spectral_clamp,
    sym_eig,
    symmetrize,
    trace_product,
    trace_shift_project,
    write_csv,
)

__all__ = [
    "FeasibilityReport",
    "IterationRecord",
    "SaddlePoint",
    "SolverParams",
    "SolverResult",
    "SolverState",
    "check_initial",
    "feasibility",
    "init_state",
    "objective",
    "saddle_distance",
    "solve",
    "step",
    "write_history_csv",
]

# Tolerance for accepting a user-supplied starting point as feasible.
INITIAL_FEAS_TOL = 1e-8


@dataclass(frozen=True)
class SolverParams:
    """Scalars of the iteration.

    mu        : l1 penalty weight is 1/mu; math.inf disables the term.
    n_occ     : trace target N (number of occupied states), 0 < N <= n.
    lam, r    : positive finite quadratic penalties coupling P to Q and R.
    tol       : positive finite relative stopping tolerance on the residuals.
    max_iter  : iteration cap; hitting it yields converged=False.
    record_every : history sampling stride (the final step is always kept).
    """

    mu: float
    n_occ: float
    lam: float = 1.0
    r: float = 1.0
    tol: float = 1e-6
    max_iter: int = 10000
    record_every: int = 1

    def __post_init__(self):
        if math.isnan(self.mu) or self.mu <= 0:
            raise ValueError(f"mu must be positive (inf allowed), got {self.mu}")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not 0 < self.r < math.inf:
            raise ValueError(f"r must be positive and finite, got {self.r}")
        if not self.n_occ > 0:
            raise ValueError(f"n_occ must be positive, got {self.n_occ}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be at least 1, got {self.record_every}")

    @property
    def shrink_threshold(self) -> float:
        """Entrywise shrinkage 1/(lam * mu); zero when mu is infinite."""
        return 0.0 if math.isinf(self.mu) else 1.0 / (self.lam * self.mu)


@dataclass
class SolverState:
    """The five iterate matrices, the iteration counter and the clamp's
    warm start, which ``clamp_eig`` returned for the last P + d."""

    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    b: np.ndarray
    d: np.ndarray
    iteration: int = 0
    warm: WarmStart = WarmStart()


class SaddlePoint(NamedTuple):
    """Reference point (P*, Q*, R*, b*, d*) for saddle-distance tracking."""

    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    b: np.ndarray
    d: np.ndarray


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    objective: float
    residual_q: float
    residual_r: float
    delta_p: float
    saddle_distance: float | None = None


@dataclass
class SolverResult(SolverState):
    """The final SolverState with convergence status and sampled history.
    Its warm start is a fresh ``WarmStart()``: a result carries no clamp cache.

    P is the primary solution (exactly trace-feasible); R is its
    spectrally feasible companion. At convergence they agree to tol.
    """

    converged: bool = False
    history: list[IterationRecord] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Iterations run: the inherited ``iteration`` counter."""
        return self.iteration


def objective(P: np.ndarray, H: np.ndarray, mu: float) -> float:
    """tr(H P) + (1/mu) sum|P_ij|; the l1 term vanishes for mu = inf."""
    value = trace_product(H, P)
    if not math.isinf(mu):
        value += entrywise_l1(P) / mu
    return value


class FeasibilityReport(NamedTuple):
    """Distances from the constraint set, all zero for feasible P."""

    asymmetry: float
    trace_error: float
    eig_below: float
    eig_above: float


def feasibility(P: np.ndarray, n_occ: float) -> FeasibilityReport:
    """Measure violation of {symmetric, trace n_occ, spectrum in [0, 1]}."""
    asym = fro_norm(P - P.T)
    trace_err = abs(float(np.trace(P)) - n_occ)
    w, _ = sym_eig(symmetrize(P))
    return FeasibilityReport(
        asymmetry=asym,
        trace_error=trace_err,
        eig_below=max(0.0, -float(w[0])),
        eig_above=max(0.0, float(w[-1]) - 1.0),
    )


def check_initial(initial, n: int, n_occ: float) -> np.ndarray:
    """Validate a starting point and return it exactly symmetric.

    It must pass ``require_symmetric`` (no copy if exactly symmetric), be n x n
    and be feasible within INITIAL_FEAS_TOL; the violated constraint is named.
    """
    start = require_symmetric(initial, name="initial matrix")
    if start.shape != (n, n):
        raise ValueError(f"initial matrix has shape {start.shape}, expected {(n, n)}")
    rep = feasibility(start, n_occ)
    if rep.trace_error > INITIAL_FEAS_TOL:
        raise ValueError(
            f"initial matrix violates the trace constraint "
            f"(|tr P - {n_occ}| = {rep.trace_error:.3e})"
        )
    if max(rep.eig_below, rep.eig_above) > INITIAL_FEAS_TOL:
        raise ValueError(
            f"initial matrix has eigenvalues outside [0, 1] "
            f"(below by {rep.eig_below:.3e}, above by {rep.eig_above:.3e})"
        )
    return start


def init_state(
    H: np.ndarray, params: SolverParams, initial: np.ndarray | None = None
) -> SolverState:
    """Starting point: P = Q = R = initial (default (N/n) I), b = d = 0.

    A supplied initial matrix goes through ``check_initial``; P may be that
    matrix itself, which no step writes into.
    """
    n = H.shape[0]
    if params.n_occ > n:
        raise ValueError(f"n_occ = {params.n_occ} exceeds the dimension {n}")
    if initial is None:
        start = (params.n_occ / n) * np.eye(n)
    else:
        start = check_initial(initial, n, params.n_occ)
    return SolverState(P=start, Q=start.copy(), R=start.copy(),
                       b=np.zeros((n, n)), d=np.zeros((n, n)))


def step(state: SolverState, H: np.ndarray, params: SolverParams) -> SolverState:
    """One sweep of the five updates into a fresh state; the clamp's
    eigenpairs come from ``clamp_eig``. The iterates stay exactly symmetric
    when H and the state are."""
    lam, r = params.lam, params.r
    # The projection's argument B is left unnamed, so it is freed before the clamp.
    P = trace_shift_project(
        (lam * (state.Q - state.b) + r * (state.R - state.d) - H) / (lam + r), params.n_occ)
    Pb, Pd = P + state.b, P + state.d
    Q = soft_threshold(Pb, params.shrink_threshold)
    eig, warm = clamp_eig(Pd, state.warm)
    R = spectral_clamp(Pd, eig)
    del eig  # a dense step's n x n eigenvectors go before b and d are formed
    return SolverState(P=P, Q=Q, R=R, b=Pb - Q, d=Pd - R, iteration=state.iteration + 1, warm=warm)


def saddle_distance(state: SolverState, ref: SaddlePoint, lam: float, r: float) -> float:
    """lam ||b - b*||^2 + r ||d - d*||^2 + lam ||Q - Q*||^2 + r ||R - R*||^2.

    Squared Frobenius norms; non-increasing along the iteration whenever
    the reference is a saddle point of the augmented Lagrangian.
    """
    return (
        lam * float(np.sum((state.b - ref.b) ** 2))
        + r * float(np.sum((state.d - ref.d) ** 2))
        + lam * float(np.sum((state.Q - ref.Q) ** 2))
        + r * float(np.sum((state.R - ref.R) ** 2))
    )


def solve(
    H: np.ndarray,
    params: SolverParams,
    initial: np.ndarray | SolverState | None = None,
    saddle_ref: SaddlePoint | None = None,
) -> SolverResult:
    """Iterate until max(||P-Q||, ||P-R||, ||P_k - P_{k-1}||) <= tol * max(1, ||P||).

    Convergence also requires ||P|| and the three residuals to be finite.
    Runs at most max_iter steps; hitting that cap returns converged=False
    rather than raising. History is sampled every record_every iterations
    plus the final one. When saddle_ref is given, each record carries the
    saddle distance. H goes through ``require_symmetric``: it must be finite
    and symmetric within its tolerance. initial is a start matrix, which
    ``init_state`` checks, or a SolverState to iterate from as it is, such
    as one ``init_state`` built and checked once for several solves, or an
    earlier result. The iteration counter goes on from that state's own, and
    the history is numbered and sampled by it, so a result's last record is
    its ``iterations``.
    """
    H = require_symmetric(H, name="H")
    if not isinstance(initial, SolverState):
        state = init_state(H, params, initial)
    elif initial.P.shape == H.shape:
        state = initial
    else:
        raise ValueError(f"start state has shape {initial.P.shape}, expected {H.shape}")
    history: list[IterationRecord] = []
    converged = False
    for k in range(1, params.max_iter + 1):
        prev_p = state.P
        state = step(state, H, params)
        residual_q = fro_norm(state.P - state.Q)
        residual_r = fro_norm(state.P - state.R)
        delta_p = fro_norm(state.P - prev_p)
        p_norm = fro_norm(state.P)
        # A blown-up iterate would pass the relative test (inf <= tol * inf).
        converged = (math.isfinite(p_norm + residual_q + residual_r + delta_p)
                     and max(residual_q, residual_r, delta_p) <= params.tol * max(1.0, p_norm))
        final = converged or k == params.max_iter
        if state.iteration % params.record_every == 0 or final:
            history.append(IterationRecord(
                iteration=state.iteration,
                objective=objective(state.P, H, params.mu),
                residual_q=residual_q,
                residual_r=residual_r,
                delta_p=delta_p,
                saddle_distance=(
                    saddle_distance(state, saddle_ref, params.lam, params.r)
                    if saddle_ref is not None else None
                ),
            ))
        if converged:
            break
    # A result outlives the solve, so it carries no clamp cache, which only a
    # next step could use.
    state.warm = WarmStart()
    return SolverResult(**vars(state), converged=converged, history=history)


def write_history_csv(path, history: list[IterationRecord]) -> None:
    """history.csv: iter,objective,residual_Q,residual_R,delta_P[,saddle_distance]."""
    with_saddle = any(rec.saddle_distance is not None for rec in history)
    header = ("iter", "objective", "residual_Q", "residual_R", "delta_P")
    write_csv(path, header + ("saddle_distance",) * with_saddle, (
        (rec.iteration, rec.objective, rec.residual_q, rec.residual_r, rec.delta_p)
        + (rec.saddle_distance,) * with_saddle
        for rec in history
    ))
