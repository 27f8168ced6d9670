import math

import numpy as np
import pytest

from sparsedm import linalg
from sparsedm.diagnostics import exact_density_matrix
from sparsedm.hamiltonian import Grid1D, HamiltonianSpec, build_kronig_penney, build_laplacian_1d
from sparsedm.linalg import (
    WARM_RTOL,
    WarmStart,
    fro_norm,
    soft_threshold,
    spectral_clamp,
    trace_shift_project,
)
from sparsedm.solver import (
    IterationRecord,
    SolverParams,
    SolverState,
    check_initial,
    feasibility,
    init_state,
    objective,
    saddle_distance,
    solve,
    step,
    write_history_csv,
)

from helpers import (
    example2_h,
    example2_saddle,
    gapped_hamiltonian,
    random_feasible,
    random_symmetric,
)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mu=0.0, n_occ=1),
        dict(mu=-2.0, n_occ=1),
        dict(mu=math.nan, n_occ=1),
        dict(mu=1.0, n_occ=0),
        dict(mu=1.0, n_occ=1, lam=0.0),
        dict(mu=1.0, n_occ=1, r=-1.0),
        dict(mu=1.0, n_occ=1, tol=0.0),
        dict(mu=1.0, n_occ=1, lam=math.inf),
        dict(mu=1.0, n_occ=1, r=math.inf),
        dict(mu=1.0, n_occ=1, tol=math.inf),
        dict(mu=1.0, n_occ=1, max_iter=0),
        dict(mu=1.0, n_occ=1, record_every=0),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        SolverParams(**kwargs)


def test_shrink_threshold():
    assert SolverParams(mu=4.0, n_occ=1, lam=5.0).shrink_threshold == pytest.approx(1 / 20)
    assert SolverParams(mu=math.inf, n_occ=1).shrink_threshold == 0.0


def test_default_initial_state_is_scaled_identity():
    h = np.zeros((5, 5))
    state = init_state(h, SolverParams(mu=1.0, n_occ=2))
    assert np.allclose(state.P, 0.4 * np.eye(5))
    assert np.array_equal(state.P, state.Q)
    assert np.array_equal(state.P, state.R)
    assert np.all(state.b == 0.0) and np.all(state.d == 0.0)
    assert state.iteration == 0


def test_init_rejects_n_occ_above_dimension():
    with pytest.raises(ValueError, match="n_occ"):
        init_state(np.zeros((3, 3)), SolverParams(mu=1.0, n_occ=4))


def test_init_rejects_infeasible_start():
    h = np.zeros((4, 4))
    params = SolverParams(mu=1.0, n_occ=2)
    asym = np.eye(4) * 0.5
    asym[0, 1] = 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        init_state(h, params, initial=asym)
    with pytest.raises(ValueError, match="trace"):
        init_state(h, params, initial=np.eye(4))
    with pytest.raises(ValueError, match="eigenvalue"):
        init_state(h, params, initial=np.diag([2.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="shape"):
        init_state(h, params, initial=np.eye(3) * (2 / 3))
    with pytest.raises(ValueError, match="complex"):
        init_state(h, params, initial=np.eye(4) * (0.5 + 0j))
    # An asymmetry of 1e-10 exceeds the gate's 1e-12 * max(1, max|P|).
    near = np.eye(4) * 0.5
    near[0, 1] = 1e-10
    with pytest.raises(ValueError, match="asymmetric"):
        init_state(h, params, initial=near)


def test_init_uses_a_symmetric_start_as_is_and_symmetrizes_a_near_one():
    h, params = np.zeros((4, 4)), SolverParams(mu=1.0, n_occ=2)
    p0 = random_feasible(np.random.default_rng(7), 4, 2)
    state = init_state(h, params, p0)
    assert np.shares_memory(state.P, p0)
    assert not np.shares_memory(state.Q, p0) and not np.shares_memory(state.R, p0)
    near = p0.copy()
    near[0, 1] = np.nextafter(near[0, 1], math.inf)
    start = init_state(h, params, near).P
    assert np.array_equal(start, start.T)
    assert np.array_equal(start, linalg.symmetrize(near))
    assert not np.shares_memory(start, near)


def non_finite_starts():
    """n = 4, N = 2 starts that a NaN or an inf makes look feasible or fail late."""
    nan_pair = 0.5 * np.eye(4)
    nan_pair[0, 1] = nan_pair[1, 0] = math.nan
    return {
        "nan_pair": nan_pair,
        "inf_diagonal": np.diag([math.inf, -math.inf, 1.0, 1.0]),
        "all_nan": np.full((4, 4), math.nan),
    }


@pytest.mark.parametrize("name", ["nan_pair", "inf_diagonal", "all_nan"])
def test_non_finite_start_is_rejected(name):
    start = non_finite_starts()[name]
    with pytest.raises(ValueError, match="non-finite"):
        check_initial(start, 4, 2)
    with pytest.raises(ValueError, match="non-finite"):
        solve(np.zeros((4, 4)), SolverParams(mu=1.0, n_occ=2, max_iter=5), initial=start)


def test_known_fixed_point_is_stationary():
    ref = example2_saddle()
    state = init_state(example2_h(), SolverParams(mu=1.0, n_occ=1))
    state.P, state.Q, state.R = ref.P.copy(), ref.Q.copy(), ref.R.copy()
    state.b, state.d = ref.b.copy(), ref.d.copy()
    out = step(state, example2_h(), SolverParams(mu=1.0, n_occ=1))
    for new, old in zip((out.P, out.Q, out.R, out.b, out.d), ref):
        assert fro_norm(new - old) <= 1e-12


def test_iterates_stay_symmetric_and_trace_feasible():
    rng = np.random.default_rng(21)
    h = random_symmetric(rng, 12, scale=2.0)
    params = SolverParams(mu=10.0, n_occ=3)
    state = init_state(h, params)
    for _ in range(30):
        state = step(state, h, params)
        for mat in (state.P, state.Q, state.R, state.b, state.d):
            assert np.array_equal(mat, mat.T)
        assert abs(np.trace(state.P) - 3.0) <= 12 * 1e-10
        w = np.linalg.eigvalsh(state.R)
        assert w[0] >= -1e-9 and w[-1] <= 1 + 1e-9


def test_solve_symmetrizes_nearly_symmetric_h_and_rejects_asymmetric():
    rng = np.random.default_rng(22)
    h = random_symmetric(rng, 8, scale=2.0)
    h[0, 1] = np.nextafter(h[0, 1], np.inf)
    res = solve(h, SolverParams(mu=10.0, n_occ=3, max_iter=20))
    for mat in (res.P, res.Q, res.R, res.b, res.d):
        assert np.array_equal(mat, mat.T)
    h[0, 1] += 1e-3
    with pytest.raises(ValueError, match="H is asymmetric"):
        solve(h, SolverParams(mu=10.0, n_occ=3))


def test_solve_rejects_non_finite_symmetric_h():
    with pytest.raises(ValueError, match="non-finite"):
        solve(np.diag([np.inf, 1.0, 2.0]), SolverParams(mu=10.0, n_occ=1))


def test_step_multipliers_are_bitwise_b_plus_p_minus_q():
    # step forms (P + b) - Q; IEEE addition commutes, so that is b + P - Q bit for bit.
    rng = np.random.default_rng(25)
    h = random_symmetric(rng, 10, scale=2.0)
    params = SolverParams(mu=10.0, n_occ=3)
    state = init_state(h, params)
    for _ in range(5):
        new = step(state, h, params)
        assert np.array_equal(new.b, state.b + new.P - new.Q)
        assert np.array_equal(new.d, state.d + new.P - new.R)
        state = new


def test_result_is_the_final_state():
    res = solve(example2_h(), SolverParams(mu=1.0, n_occ=1, max_iter=4, tol=1e-12))
    assert isinstance(res, SolverState)
    assert res.iterations == res.iteration == 4


def test_solve_from_a_start_state_matches_solve_from_its_matrix():
    h, params = example2_h(), SolverParams(mu=1.0, n_occ=1, max_iter=30, tol=1e-12)
    p0 = np.diag([1.0, 0.0, 0.0])
    start = init_state(h, params, p0)
    from_state, from_matrix = solve(h, params, initial=start), solve(h, params, initial=p0)
    for name in ("P", "Q", "R", "b", "d"):
        assert np.array_equal(getattr(from_state, name), getattr(from_matrix, name))
    assert np.array_equal(start.P, p0) and start.iteration == 0  # the start is not changed
    with pytest.raises(ValueError, match="shape"):
        solve(h, params, initial=init_state(np.eye(4), params))


def test_small_instance_reaches_known_minimum():
    h = example2_h()
    res = solve(h, SolverParams(mu=1.0, n_occ=1, tol=1e-8))
    assert res.converged
    assert objective(res.P, h, 1.0) <= 2 + 1e-6
    last = res.history[-1]
    bound = 1e-8 * max(1.0, fro_norm(res.P))
    assert last.residual_q <= bound and last.residual_r <= bound
    rep = feasibility(res.P, 1.0)
    assert max(rep.asymmetry, rep.trace_error, rep.eig_below, rep.eig_above) <= 1e-6


def test_disabled_l1_recovers_exact_projector():
    rng = np.random.default_rng(22)
    h = gapped_hamiltonian(rng, 12, 4)
    res = solve(h, SolverParams(mu=math.inf, n_occ=4, tol=1e-8))
    assert res.converged
    assert fro_norm(res.R - exact_density_matrix(h, 4)) <= 1e-5


def test_saddle_distance_nonincreasing_from_random_starts():
    h = example2_h()
    ref = example2_saddle()
    for seed in (0, 1, 2):
        p0 = random_feasible(np.random.default_rng(seed), 3, 1)
        res = solve(
            h,
            SolverParams(mu=1.0, n_occ=1, tol=1e-8, max_iter=600),
            initial=p0,
            saddle_ref=ref,
        )
        dist = [rec.saddle_distance for rec in res.history]
        assert all(b <= a + 1e-10 for a, b in zip(dist, dist[1:]))


def test_saddle_distance_zero_at_reference():
    ref = example2_saddle()
    state = init_state(example2_h(), SolverParams(mu=1.0, n_occ=1))
    state.P, state.Q, state.R = ref.P, ref.Q, ref.R
    state.b, state.d = ref.b, ref.d
    assert saddle_distance(state, ref, 1.0, 1.0) == 0.0


def test_saddle_distance_scales_linearly_in_penalties():
    rng = np.random.default_rng(23)
    ref = example2_saddle()
    state = init_state(example2_h(), SolverParams(mu=1.0, n_occ=1))
    state.Q = random_symmetric(rng, 3)
    state.b = random_symmetric(rng, 3)
    base = saddle_distance(state, ref, 1.0, 0.0)
    assert saddle_distance(state, ref, 2.0, 0.0) == pytest.approx(2 * base)


def test_history_sampling_keeps_final_record():
    h = example2_h()
    res = solve(h, SolverParams(mu=1.0, n_occ=1, tol=1e-8, record_every=7))
    iters = [rec.iteration for rec in res.history]
    assert iters[-1] == res.iterations
    assert all(k % 7 == 0 for k in iters[:-1])
    assert all(rec.saddle_distance is None for rec in res.history)


def test_max_iter_exhaustion_reports_not_converged():
    res = solve(example2_h(), SolverParams(mu=1.0, n_occ=1, tol=1e-12, max_iter=3))
    assert not res.converged
    assert res.iterations == 3
    assert res.history[-1].iteration == 3


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_blown_up_iterate_is_not_converged():
    # ||P|| overflows to inf, so the relative stopping test alone would pass.
    h = 1e200 * build_laplacian_1d(Grid1D(10.0, 16))
    res = solve(h, SolverParams(mu=10, n_occ=2, max_iter=50))
    assert fro_norm(res.P) == math.inf
    assert not res.converged
    assert res.iterations == 50


def test_objective_drops_l1_term_when_disabled():
    rng = np.random.default_rng(24)
    h = random_symmetric(rng, 5)
    p = random_feasible(rng, 5, 2)
    full = objective(p, h, 10.0)
    bare = objective(p, h, math.inf)
    assert full == pytest.approx(bare + np.abs(p).sum() / 10.0)


def test_history_csv_with_and_without_saddle(tmp_path):
    recs = [
        IterationRecord(1, -1.0, 0.5, 0.25, 0.125, None),
        IterationRecord(2, -2.0, 0.05, 0.025, 0.0125, None),
    ]
    path = tmp_path / "history.csv"
    write_history_csv(path, recs)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,objective,residual_Q,residual_R,delta_P"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == -1.0

    recs = [IterationRecord(1, -1.0, 0.5, 0.25, 0.125, 9.0)]
    write_history_csv(path, recs)
    lines = path.read_text().splitlines()
    assert lines[0].endswith(",saddle_distance")
    assert float(lines[1].split(",")[-1]) == 9.0


# A gapped 5-well chain: about 290 iterations, most of them with 5 of 96
# eigenvalues of P + d positive.
CHAIN_H = build_kronig_penney(Grid1D(50.0, 96), HamiltonianSpec("kronig_penney", n_wells=5))
CHAIN_PARAMS = SolverParams(mu=100.0, n_occ=5, lam=10.0, r=10.0, tol=1e-6, max_iter=2000)


def dense_solve(monkeypatch, H=CHAIN_H, params=CHAIN_PARAMS):
    """solve with every held and low-rank clamp failing, so every step runs eigh."""
    with monkeypatch.context() as m:
        m.setattr(linalg, "held_eig", lambda *_: None)
        m.setattr(linalg, "warm_positive_eig", lambda *_: None)
        return solve(H, params)


def counted_solve(monkeypatch, H, params):
    """solve, and the number of sym_eig calls its clamp made."""
    calls = []
    sym_eig = linalg.sym_eig
    with monkeypatch.context() as m:
        m.setattr(linalg, "sym_eig", lambda a: calls.append(a.shape) or sym_eig(a))
        return solve(H, params), len(calls)


def test_most_chain_steps_take_the_warm_clamp(monkeypatch):
    res, eighs = counted_solve(monkeypatch, CHAIN_H, CHAIN_PARAMS)
    assert res.converged
    # The first steps, with half the spectrum positive, run eigh.
    assert 1 <= eighs < res.iterations / 2


def test_failing_warm_clamp_reproduces_dense_iterates_bitwise(monkeypatch):
    res = dense_solve(monkeypatch)
    # The iteration as it was before the warm clamp: every step clamps with eigh.
    lam, r = CHAIN_PARAMS.lam, CHAIN_PARAMS.r
    ref = init_state(CHAIN_H, CHAIN_PARAMS)
    P, Q, R, b, d = ref.P, ref.Q, ref.R, ref.b, ref.d
    for _ in range(res.iterations):
        P = trace_shift_project((lam * (Q - b) + r * (R - d) - CHAIN_H) / (lam + r), CHAIN_PARAMS.n_occ)
        Q = soft_threshold(P + b, CHAIN_PARAMS.shrink_threshold)
        R = spectral_clamp(P + d)
        b, d = b + P - Q, d + P - R
    for got, want in zip((res.P, res.Q, res.R, res.b, res.d), (P, Q, R, b, d)):
        assert np.array_equal(got, want)


def test_warm_solve_matches_dense_solve(monkeypatch):
    dense = dense_solve(monkeypatch)
    warm = solve(CHAIN_H, CHAIN_PARAMS)
    assert warm.converged and warm.iterations == dense.iterations
    # Each warm clamp is within sqrt(2) WARM_RTOL max(1, ||P + d||_F) of eigh's.
    # The iteration does not amplify such errors, so over k steps they add up
    # to at most k times that; the final ||P + d||_F stands in for its maximum.
    bound = warm.iterations * math.sqrt(2) * WARM_RTOL * max(1.0, fro_norm(warm.P + warm.d))
    assert fro_norm(warm.P - dense.P) <= bound


# The free Laplacian is circulant, so every iterate is: they share one
# eigenbasis, which the first step's eigh finds.
FREE_H = build_laplacian_1d(Grid1D(50.0, 64))


@pytest.mark.parametrize("mu", [5.0, 100.0])
def test_free_laplacian_solve_runs_one_eigh(monkeypatch, mu):
    params = SolverParams(mu=mu, n_occ=5, lam=10.0, r=10.0, tol=1e-12, max_iter=200)
    res, eighs = counted_solve(monkeypatch, FREE_H, params)
    assert res.iterations == 200 and eighs == 1
    dense = dense_solve(monkeypatch, FREE_H, params)
    # Each held clamp is within WARM_RTOL max(1, ||P + d||_F) of eigh's; as
    # in test_warm_solve_matches_dense_solve, k steps add up to k times that.
    bound = res.iterations * math.sqrt(2) * WARM_RTOL * max(1.0, fro_norm(res.P + res.d))
    assert fro_norm(res.P - dense.P) <= bound


def test_held_eigenvectors_leave_the_chain_solve_bitwise_unchanged(monkeypatch):
    # The chain's eigenbasis moves from step to step, so the held check
    # never passes and the dense/low-rank schedule is the one without it.
    checks = []
    held = linalg.held_eig
    monkeypatch.setattr(linalg, "held_eig", lambda a, v: checks.append(held(a, v)) or checks[-1])
    res, eighs = counted_solve(monkeypatch, CHAIN_H, CHAIN_PARAMS)
    assert checks and all(c is None for c in checks)
    monkeypatch.setattr(linalg, "held_eig", lambda *_: None)
    without, eighs_without = counted_solve(monkeypatch, CHAIN_H, CHAIN_PARAMS)
    assert res.converged and res.iterations == without.iterations
    assert eighs == eighs_without
    assert np.array_equal(res.P, without.P)


def test_clamp_basis_wider_than_a_third_is_not_stored(monkeypatch):
    # The first P + d has 57 of 96 eigenvalues positive; the steps that see
    # such a spectrum store no basis. clamp_eig's own tests cover the rule.
    state = init_state(CHAIN_H, CHAIN_PARAMS)
    for _ in range(3):
        state = step(state, CHAIN_H, CHAIN_PARAMS)
        assert state.warm.basis is None

    widths = []
    warm = linalg.warm_positive_eig
    monkeypatch.setattr(linalg, "warm_positive_eig",
                        lambda a, basis, *rest: widths.append(basis.shape[1]) or warm(a, basis, *rest))
    assert solve(CHAIN_H, CHAIN_PARAMS).converged
    assert widths and max(widths) <= CHAIN_H.shape[0] / 3


def test_solve_result_carries_no_clamp_cache():
    # The last step of this solve keeps a basis; only a next step could use it.
    result = solve(CHAIN_H, CHAIN_PARAMS)
    assert result.converged and result.warm.basis is None
    assert result.warm == WarmStart()


def test_anchored_certificate_returns_the_factorized_pairs(monkeypatch):
    # A solve's result keeps no anchor, so the converged state is stepped to here.
    result = solve(CHAIN_H, CHAIN_PARAMS)
    assert result.converged and result.warm.anchor is None
    state = init_state(CHAIN_H, CHAIN_PARAMS)
    for _ in range(result.iterations):
        state = step(state, CHAIN_H, CHAIN_PARAMS)
    assert np.array_equal(state.P, result.P)
    a, warm = state.P + state.d, state.warm
    assert warm.anchor is not None
    factors = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(linalg.np.linalg, "cholesky", lambda s: factors.append(s) or cholesky(s))
    anchored = linalg.warm_positive_eig(a, warm.basis, warm.lo, warm.hi, warm.anchor)
    assert anchored is not None and anchored[1] is warm.anchor and not factors
    factorized = linalg.warm_positive_eig(a, warm.basis, warm.lo, warm.hi)
    assert factorized is not None and factors
    for got, want in zip(anchored[0], factorized[0]):
        assert np.array_equal(got, want)


def test_chain_solve_factors_once_per_ten_warm_steps_at_most(monkeypatch):
    factors, attempts = [], []
    cholesky, warm = np.linalg.cholesky, linalg.warm_positive_eig
    monkeypatch.setattr(linalg.np.linalg, "cholesky", lambda s: factors.append(s.shape) or cholesky(s))
    monkeypatch.setattr(linalg, "warm_positive_eig", lambda *args: attempts.append(1) or warm(*args))
    assert solve(CHAIN_H, CHAIN_PARAMS).converged
    assert attempts and len(factors) <= len(attempts) / 10
