"""End-to-end acceptance checks.

Each test prints one `criterion N (<label>): PASS|FAIL` line (run with
`pytest tests/test_acceptance.py -v -s` to see them on success) and
asserts the documented tolerance. The large-grid checks drive the full
solver at n = 256 and take a few minutes in total.
"""

import csv
import math
import time
import warnings

import numpy as np
import pytest

from sparsedm import (
    DegenerateGapWarning,
    Grid1D,
    HamiltonianSpec,
    SolverParams,
    build_kronig_penney,
    build_laplacian_1d,
    energy_gap_metrics,
    exact_density_matrix,
    feasibility,
    fro_norm,
    init_state,
    objective,
    occupation_numbers,
    soft_threshold,
    solve,
    space_approximation,
    sparsity_fraction,
    spectral_clamp,
    step,
    sym_eig,
    symmetrize,
    trace_shift_project,
)
from sparsedm.cli import main

from helpers import example2_h, example2_saddle, gapped_hamiltonian, random_feasible


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _time_bound(num: int, elapsed: float, bound: float) -> None:
    """Asserted after the verdict, so a loaded machine does not read as a
    wrong answer."""
    assert elapsed < bound, f"criterion {num} took {elapsed:.1f}s, over its {bound:g}s bound"


def test_criterion_1_small_instance_regression():
    h = example2_h()
    start = time.perf_counter()
    res = solve(h, SolverParams(mu=1.0, n_occ=1, lam=1.0, r=1.0, tol=1e-8))
    elapsed = time.perf_counter() - start
    obj = objective(res.P, h, 1.0)
    rep = feasibility(res.P, 1.0)
    last = res.history[-1]
    ok = (
        res.converged
        and obj <= 2 + 1e-6
        and max(last.residual_q, last.residual_r) <= 1e-6
        and max(rep.asymmetry, rep.trace_error, rep.eig_below, rep.eig_above) <= 1e-6
    )
    _verdict(1, "3x3 regression", ok, f"objective={obj:.9f}, {elapsed:.3f}s")
    _time_bound(1, elapsed, 1.0)


def test_criterion_2_fixed_point():
    ref = example2_saddle()
    params = SolverParams(mu=1.0, n_occ=1, lam=1.0, r=1.0)
    state = init_state(example2_h(), params)
    state.P, state.Q, state.R = ref.P.copy(), ref.Q.copy(), ref.R.copy()
    state.b, state.d = ref.b.copy(), ref.d.copy()
    out = step(state, example2_h(), params)
    drift = max(
        fro_norm(new - old)
        for new, old in zip((out.P, out.Q, out.R, out.b, out.d), ref)
    )
    _verdict(2, "fixed point preserved", drift <= 1e-12, f"max drift {drift:.2e}")


def test_criterion_3_saddle_distance_monotone():
    h = example2_h()
    ref = example2_saddle()
    params = SolverParams(mu=1.0, n_occ=1, lam=1.0, r=1.0, tol=1e-8, max_iter=600)
    worst = -math.inf
    final = math.inf
    for seed in range(20):
        p0 = random_feasible(np.random.default_rng(100 + seed), 3, 1)
        res = solve(h, params, initial=p0, saddle_ref=ref)
        dist = np.array([rec.saddle_distance for rec in res.history])
        worst = max(worst, float(np.diff(dist).max()))
        final = min(final, float(dist[-1]))
    ok = worst <= 1e-10
    _verdict(
        3,
        "saddle distance non-increasing",
        ok,
        f"worst increment {worst:.2e}, smallest final distance {final:.2e}",
    )


def test_criterion_4_pure_trace_matches_exact_projector():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        n_occ = int(rng.integers(1, 20))
        h = gapped_hamiltonian(rng, 20, n_occ, gap=0.5)
        target = exact_density_matrix(h, n_occ)
        res = solve(h, SolverParams(mu=math.inf, n_occ=n_occ, tol=1e-8))
        assert res.converged
        worst = max(worst, fro_norm(res.R - target))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5
    _verdict(4, "disabled l1 equals projector", ok, f"worst error {worst:.2e}, {elapsed:.1f}s")
    _time_bound(4, elapsed, 30.0)


def test_criterion_5_per_iteration_invariants():
    instances = [
        ("3x3", example2_h(), SolverParams(mu=1.0, n_occ=1, tol=1e-8)),
        (
            "random n=16",
            gapped_hamiltonian(np.random.default_rng(5), 16, 4),
            SolverParams(mu=20.0, n_occ=4, tol=1e-6),
        ),
        (
            "wells n=64",
            build_kronig_penney(
                Grid1D(100.0, 64), HamiltonianSpec("kronig_penney", n_wells=3)
            ),
            SolverParams(mu=50.0, n_occ=3, lam=10.0, r=10.0, tol=1e-6),
        ),
    ]
    checked = 0
    for label, h, params in instances:
        n = h.shape[0]
        state = init_state(h, params)
        converged = False
        for _ in range(4000):
            prev = state.P
            state = step(state, h, params)
            assert abs(np.trace(state.P) - params.n_occ) <= n * 1e-10, label
            for mat in (state.P, state.Q, state.R, state.b, state.d):
                assert np.array_equal(mat, mat.T), label
            w = np.linalg.eigvalsh(state.R)
            assert w[0] >= -1e-9 and w[-1] <= 1 + 1e-9, label
            checked += 1
            res_q = fro_norm(state.P - state.Q)
            res_r = fro_norm(state.P - state.R)
            delta = fro_norm(state.P - prev)
            scale = max(1.0, fro_norm(state.P))
            if max(res_q, res_r, delta) <= params.tol * scale:
                converged = True
                assert res_q <= params.tol * scale and res_r <= params.tol * scale
                break
        assert converged, f"{label} did not converge within the iteration budget"
    _verdict(5, "per-iteration invariants", True, f"{checked} iterations checked")


def test_criterion_6_free_electron_trends():
    grid = Grid1D(100.0, 256)
    h = build_laplacian_1d(grid)
    mus = [5.0, 10.0, 25.0, 50.0, 100.0]
    start = time.perf_counter()
    trhp, space, sparse = [], [], []
    exact = None
    for mu in mus:
        res = solve(
            h,
            SolverParams(
                mu=mu, n_occ=10, lam=10.0, r=10.0, tol=1e-6,
                max_iter=6000, record_every=1000,
            ),
        )
        energy, exact = energy_gap_metrics(res.P, h, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateGapWarning)
            space.append(space_approximation(res.P, h, 10))
        trhp.append(energy)
        sparse.append(sparsity_fraction(res.P))
    elapsed = time.perf_counter() - start
    ok = (
        all(b <= a for a, b in zip(space, space[1:]))
        and all(b <= a for a, b in zip(trhp, trhp[1:]))
        and all(value >= exact - 1e-6 for value in trhp)
        and sparse[mus.index(10.0)] >= sparse[mus.index(100.0)]
    )
    _verdict(
        6,
        "free-electron sweep trends",
        ok,
        f"trHP {trhp[0]:.3f}->{trhp[-1]:.3f} vs exact {exact:.3f}, "
        f"space {space[0]:.2f}->{space[-1]:.2f}, "
        f"sparsity(10)={sparse[1]:.3f} vs (100)={sparse[-1]:.3f}, {elapsed:.0f}s",
    )
    _time_bound(6, elapsed, 15 * 60)


def test_criterion_7_well_chain_band_structure():
    grid = Grid1D(100.0, 256)
    h = build_kronig_penney(grid, HamiltonianSpec("kronig_penney"))
    w = np.linalg.eigvalsh(h)
    jumps = np.diff(w)
    two_largest = {int(i) for i in np.argsort(jumps)[-2:]}
    clusters_ok = two_largest == {9, 19}

    occ = {}
    for n_occ in (10, 15, 20):
        res = solve(
            h,
            SolverParams(
                mu=100.0, n_occ=n_occ, lam=10.0, r=10.0, tol=1e-6,
                max_iter=6000, record_every=1000,
            ),
        )
        assert res.converged, f"N={n_occ} did not converge"
        occ[n_occ] = occupation_numbers(res.P).values

    f10, f15, f20 = occ[10], occ[15], occ[20]
    ok10 = f10[:10].min() >= 0.9 and f10[10:].max() <= 0.1
    ok15 = (
        int((f15 >= 0.9).sum()) == 10
        and int((np.abs(f15 - 0.5) <= 0.15).sum()) == 10
        and abs(f15.sum() - 15.0) <= 1e-6
    )
    ok20 = f20[:20].min() >= 0.9
    ok = clusters_ok and ok10 and ok15 and ok20
    _verdict(
        7,
        "well-chain occupations",
        ok,
        f"clusters at jumps {sorted(two_largest)}, "
        f"N=10 band edge {f10[9]:.4f}/{f10[10]:.4f}, "
        f"N=15 half-filled range [{f15[10:20].min():.3f},{f15[10:20].max():.3f}], "
        f"N=20 floor {f20[19]:.4f}",
    )


def test_criterion_8_kernel_property_suites():
    rng = np.random.default_rng(8)
    start = time.perf_counter()
    expansion = 0.0
    trace_err = 0.0
    suboptimality = 0.0
    clamp_bound = 0.0
    clamp_drift = 0.0
    recon = 0.0
    ortho = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 33))
        scale = 10.0 ** float(rng.uniform(-2, 2))
        a = symmetrize(scale * rng.standard_normal((n, n)))
        b = symmetrize(scale * rng.standard_normal((n, n)))

        t = float(rng.random()) * scale
        expansion = max(
            expansion,
            fro_norm(soft_threshold(a, t) - soft_threshold(b, t)) - fro_norm(a - b),
        )

        target = float(rng.uniform(-1.0, n))
        p = trace_shift_project(a, target)
        trace_err = max(trace_err, abs(float(np.trace(p)) - target))
        y = b + (target - float(np.trace(b))) / n * np.eye(n)
        suboptimality = max(suboptimality, fro_norm(p - a) - fro_norm(y - a))

        r1 = spectral_clamp(a)
        ew = np.linalg.eigvalsh(r1)
        clamp_bound = max(clamp_bound, -float(ew[0]), float(ew[-1]) - 1.0)
        clamp_drift = max(clamp_drift, fro_norm(spectral_clamp(r1) - r1))

        w, v = sym_eig(a)
        recon = max(recon, fro_norm((v * w) @ v.T - a) / max(1.0, fro_norm(a)))
        ortho = max(ortho, fro_norm(v.T @ v - np.eye(n)))
    elapsed = time.perf_counter() - start
    ok = (
        expansion <= 1e-12
        and trace_err <= 1e-10
        and suboptimality <= 1e-12
        and clamp_bound <= 1e-9
        and clamp_drift <= 1e-10
        and recon <= 1e-10
        and ortho <= 1e-12
    )
    _verdict(
        8,
        "kernel property suites",
        ok,
        f"1000 cases x 4 kernels, worst: expansion {expansion:.1e}, "
        f"trace {trace_err:.1e}, clamp {clamp_bound:.1e}, recon {recon:.1e}, "
        f"{elapsed:.1f}s",
    )
    _time_bound(8, elapsed, 60.0)


def test_criterion_9_figure_data_shape_only(tmp_path):
    # plot inputs are emitted as data files; exact figure parity is not
    # claimed, only qualitative shape is checked
    run = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "hamiltonian.kind = kronig_penney\n"
        "hamiltonian.n_wells = 3\n"
        "grid.length = 100\n"
        "grid.n = 64\n"
        "solver.mu = 50\n"
        "solver.n_occ = 3\n"
        "solver.lambda = 10\n"
        "solver.r = 10\n"
        "solver.max_iter = 4000\n"
        f"output.dir = {run}\n"
    )
    diag = tmp_path / "diag.cfg"
    diag.write_text(
        "hamiltonian.kind = kronig_penney\n"
        "hamiltonian.n_wells = 3\n"
        "grid.length = 100\n"
        "grid.n = 64\n"
        "solver.mu = 50\n"
        "solver.n_occ = 3\n"
        "diagnose.sites = 16,32\n"
        f"run.dir = {run}\n"
    )
    solve_rc = main(["solve", "--config", str(cfg)])
    diag_rc = main(["diagnose", "--config", str(diag)])

    with open(run / "history.csv", newline="") as fh:
        deltas = [float(row["delta_P"]) for row in csv.DictReader(fh)]
    with open(run / "occupation.csv", newline="") as fh:
        f = np.array([float(row["f"]) for row in csv.DictReader(fh)])
    with open(run / "delta_site_32.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
        column = np.array([float(row["value"]) for row in rows])
        xs = np.array([float(row["x"]) for row in rows])
    ok = (
        solve_rc == 0
        and diag_rc == 0
        and deltas[-1] < deltas[0]
        and np.all(np.diff(f) <= 1e-12)
        and f[0] >= 0.9
        and xs.size == 64
        and np.argmax(np.abs(column)) in range(24, 41)
    )
    _verdict(
        9,
        "figure data as files, shape only (no exact parity claimed)",
        ok,
        f"occupations head {np.round(f[:4], 3)}, orbital peak at site "
        f"{int(np.argmax(np.abs(column)))}",
    )
