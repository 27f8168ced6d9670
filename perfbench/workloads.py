"""The three benchmark workloads: inputs from a seed, one operation, checks.

Every workload uses grid.length = 100. The seed jitters the well centres
of the Gaussian-well chain by up to +-0.25; the free Laplacian has no
random input, so the sweep's inputs are the same for every seed.

Each ``setup`` writes its inputs under a work directory and ends with a
warm-up call, so the first timed operation finds BLAS threads started and
the input files in the page cache; a run repeats it ``setup_reps`` times
and reports the median. ``run`` performs one operation and
returns its sub-timings; ``check`` judges the outputs outside the timed
region, raises CheckFailed, and returns the operation's solver counts.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np

from sparsedm import cli, diagnostics, hamiltonian, linalg, solver

from checks import CheckFailed, check_report, check_solution, check_sweep

LENGTH = 100.0
N_WELLS = 10
JITTER = 0.25
N_OCC = 10
SOLO_ITERATIONS = 100


def chain_spec(seed: int) -> hamiltonian.HamiltonianSpec:
    """The 10-well chain with centres jittered by the seed."""
    rng = np.random.default_rng(seed)
    centres = hamiltonian.default_well_centers(LENGTH, N_WELLS) + rng.uniform(-JITTER, JITTER, N_WELLS)
    return hamiltonian.HamiltonianSpec("kronig_penney", n_wells=N_WELLS, centers=tuple(float(c) for c in centres))


def write_config(path: Path, entries: dict[str, object]) -> Path:
    path.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
    return path


class ChainSolve:
    """`solve` on the 10-well chain at n = 256 (criterion 7's first case)."""

    name = "chain-n256"
    n = 256
    # The seed moves a solve between 272 and 377 iterations (seeds 0-9), so time
    # per solve would spread with the seed; time per iteration does not.
    per_iteration = True
    setup_reps = 7
    op_metric = "solve_s"
    params = solver.SolverParams(mu=100.0, n_occ=N_OCC, lam=10.0, r=10.0, tol=1e-6,
                                 max_iter=6000, record_every=1000)

    def inputs(self, seed: int) -> dict:
        H = hamiltonian.build_hamiltonian(chain_spec(seed), hamiltonian.Grid1D(LENGTH, self.n))
        return {"H": H}

    def setup(self, seed: int, work: Path) -> None:
        self.H = self.inputs(seed)["H"]
        self.h_eigs = np.linalg.eigvalsh(self.H)
        solver.solve(self.H, dataclasses.replace(self.params, max_iter=20))

    def run(self) -> dict:
        self.result = solver.solve(self.H, self.params)
        return {}

    def check(self) -> dict:
        if not self.result.converged:
            raise CheckFailed(f"solve stopped at max_iter = {self.params.max_iter}")
        check_solution(self.result.P, self.H, self.h_eigs, N_OCC, self.params.tol)
        return {"solves": 1, "iterations": self.result.iterations, "unconverged": 0}


class FreeSweep:
    """`sparsedm sweep` over five mu on the free Laplacian at n = 128."""

    name = "free-sweep-n128"
    n = 128
    per_iteration = False
    setup_reps = 7
    op_metric = "sweep_s"

    def __init__(self):
        self.solo_iter_ms: list[float] = []
    mus = (5.0, 10.0, 25.0, 50.0, 100.0)

    def inputs(self, seed: int) -> dict:
        return {"config": {
            "hamiltonian.kind": "free_laplacian", "grid.length": LENGTH, "grid.n": self.n,
            "solver.mu": ", ".join(f"{mu:g}" for mu in self.mus), "solver.n_occ": N_OCC,
            "solver.lambda": 10, "solver.r": 10, "solver.tol": 1e-6, "solver.max_iter": 1000,
        }}

    def setup(self, seed: int, work: Path) -> None:
        """The warm-up is a solo solve of SOLO_ITERATIONS steps with the CLI's
        settings; its time per iteration is the yardstick for the sweep's
        parallel efficiency."""
        self.out = work / "sweep"
        self.config = write_config(work / "sweep.cfg", {**self.inputs(seed)["config"], "output.dir": self.out})
        H = hamiltonian.build_laplacian_1d(hamiltonian.Grid1D(LENGTH, self.n))
        params = solver.SolverParams(mu=self.mus[0], n_occ=N_OCC, lam=10.0, r=10.0, tol=1e-12,
                                     max_iter=SOLO_ITERATIONS)
        start = time.perf_counter()
        result = solver.solve(H, params)
        self.solo_iter_ms.append(1e3 * (time.perf_counter() - start) / result.iterations)

    def run(self) -> dict:
        self.status = cli.main(["sweep", "--config", str(self.config)])
        return {}

    def check(self) -> dict:
        """Solves that stop at max_iter are counted, not failed: today every
        sweep solve does, and that is what the workload measures."""
        if self.status not in (0, 2):
            raise CheckFailed(f"sparsedm sweep exited with status {self.status}")
        runs = check_sweep(self.out, self.mus)
        unconverged = sum(not converged for converged, _ in runs)
        if self.status != (2 if unconverged else 0):
            raise CheckFailed(f"sweep exit status {self.status} disagrees with its summaries")
        return {"solves": len(runs), "iterations": sum(it for _, it in runs), "unconverged": unconverged}


class Report:
    """`sparsedm exact` then `sparsedm diagnose` on the chain at n = 1024."""

    name = "report-n1024"
    n = 1024
    per_iteration = False
    setup_reps = 3  # each set-up writes two 1024 x 1024 text matrices
    op_metric = None  # reported as exact_s and diagnose_s
    sites = (256, 512)

    def inputs(self, seed: int) -> dict:
        H = hamiltonian.build_hamiltonian(chain_spec(seed), hamiltonian.Grid1D(LENGTH, self.n))
        return {"H": H}

    def setup(self, seed: int, work: Path) -> None:
        run_dir = work / "run"
        run_dir.mkdir(parents=True, exist_ok=True)
        H = self.inputs(seed)["H"]
        linalg.write_matrix(work / "H.mat", H)
        # The exact projector stands in for a solver result: no n = 1024
        # solve fits in a run.
        linalg.write_matrix(run_dir / "P.mat", diagnostics.exact_density_matrix(H, N_OCC))
        self.exact_dir, self.diag_dir = work / "exact", work / "diagnose"
        self.config = write_config(work / "report.cfg", {
            "hamiltonian.kind": "from_file", "hamiltonian.path": work / "H.mat",
            "solver.mu": 100, "solver.n_occ": N_OCC, "run.dir": run_dir,
            "output.dir": self.diag_dir, "diagnose.sites": ", ".join(map(str, self.sites)),
        })

    def run(self) -> dict:
        start = time.perf_counter()
        self.status = cli.main(["exact", "--config", str(self.config), "--out", str(self.exact_dir)])
        mid = time.perf_counter()
        if self.status == 0:
            self.status = cli.main(["diagnose", "--config", str(self.config)])
        return {"exact_s": mid - start, "diagnose_s": time.perf_counter() - mid}

    def check(self) -> dict:
        if self.status != 0:
            raise CheckFailed(f"sparsedm exact/diagnose exited with status {self.status}")
        check_report(self.exact_dir, self.diag_dir, N_OCC, N_OCC)
        return {"solves": 0, "iterations": 0, "unconverged": 0}


WORKLOADS = {w.name: w for w in (ChainSolve, FreeSweep, Report)}
