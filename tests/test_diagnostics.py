import csv

import numpy as np
import pytest

from sparsedm.diagnostics import (
    DegenerateGapWarning,
    band_occupations,
    delta_projections,
    energy_gap_metrics,
    exact_density_matrix,
    filtered_density_matrix,
    occupation_numbers,
    ritz_compare,
    space_approximation,
    sparsity_fraction,
    write_delta_csv,
    write_occupation_csv,
    write_sweep_csv,
    write_theta_csv,
)
from sparsedm.hamiltonian import Grid1D, build_laplacian_1d
from sparsedm.linalg import SpectralDecomposition, fro_norm, sym_eig, symmetrize

from helpers import gapped_hamiltonian, random_feasible, random_symmetric


def test_exact_density_matrix_diagonal_case():
    p = exact_density_matrix(np.diag([1.0, 2.0, 3.0]), 1)
    assert np.allclose(p, np.diag([1.0, 0.0, 0.0]))


def test_exact_density_matrix_constant_kernel():
    grid = Grid1D(length=10.0, n=20)
    p = exact_density_matrix(build_laplacian_1d(grid), 1)
    assert np.allclose(p, np.full((20, 20), 1 / 20), atol=1e-10)


def test_exact_density_matrix_full_rank_is_identity():
    rng = np.random.default_rng(31)
    h = random_symmetric(rng, 6)
    assert np.allclose(exact_density_matrix(h, 6), np.eye(6), atol=1e-10)


def test_exact_density_matrix_is_projector():
    rng = np.random.default_rng(32)
    # Ten small cases, then one at a size the solver runs at.
    for case in range(11):
        n = int(rng.integers(3, 20)) if case < 10 else 300
        n_occ = int(rng.integers(1, n))
        h = gapped_hamiltonian(rng, n, n_occ)
        p = exact_density_matrix(h, n_occ)
        assert fro_norm(p @ p - p) <= n * 1e-9
        assert np.array_equal(p, p.T)
        assert abs(np.trace(p) - n_occ) <= n * 1e-10


def test_exact_density_matrix_warns_on_degenerate_gap():
    with pytest.warns(DegenerateGapWarning):
        exact_density_matrix(np.diag([1.0, 1.0, 2.0]), 1)


@pytest.mark.parametrize("measure", [
    lambda h: exact_density_matrix(h, 1),
    lambda h: space_approximation(np.eye(3) / 3, h, 1),
])
def test_degenerate_gap_warning_points_at_the_caller(measure):
    with pytest.warns(DegenerateGapWarning) as record:
        measure(np.diag([1.0, 1.0, 2.0]))
    assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize("n_occ", [0, 4])
def test_exact_density_matrix_rejects_bad_count(n_occ):
    with pytest.raises(ValueError):
        exact_density_matrix(np.eye(3), n_occ)


def test_energy_gap_metrics_at_exact_projector():
    rng = np.random.default_rng(33)
    h = gapped_hamiltonian(rng, 10, 3)
    p = exact_density_matrix(h, 3)
    trhp, exact = energy_gap_metrics(p, h, 3)
    assert trhp == pytest.approx(exact, abs=10 * 1e-9)


def test_energy_gap_metrics_at_uniform_mixture():
    rng = np.random.default_rng(34)
    h = random_symmetric(rng, 8)
    p = (3 / 8) * np.eye(8)
    trhp, _ = energy_gap_metrics(p, h, 3)
    assert trhp == pytest.approx(3 / 8 * np.trace(h))


def test_space_approximation_vanishes_at_projector():
    rng = np.random.default_rng(35)
    h = gapped_hamiltonian(rng, 12, 4)
    p = exact_density_matrix(h, 4)
    assert space_approximation(p, h, 4) <= 12 * 1e-9


def test_space_approximation_of_zero_matrix_counts_states():
    rng = np.random.default_rng(36)
    h = gapped_hamiltonian(rng, 9, 4)
    assert space_approximation(np.zeros((9, 9)), h, 4) == pytest.approx(4.0)


def test_occupation_numbers_of_projector():
    rng = np.random.default_rng(37)
    h = gapped_hamiltonian(rng, 11, 5)
    f = occupation_numbers(exact_density_matrix(h, 5)).values
    assert np.allclose(f[:5], 1.0, atol=1e-9)
    assert np.allclose(f[5:], 0.0, atol=1e-9)


def test_occupation_numbers_uniform():
    spec = occupation_numbers(0.5 * np.eye(4))
    assert np.allclose(spec.values, 0.5)
    assert np.all(np.diff(spec.values) <= 0)


def test_occupation_basis_is_aligned():
    rng = np.random.default_rng(38)
    p = random_feasible(rng, 7, 3)
    values, basis = occupation_numbers(p)
    assert np.allclose(p @ basis, basis * values, atol=1e-10)


def test_filtered_density_matrix_full_range_reconstructs():
    rng = np.random.default_rng(39)
    p = random_feasible(rng, 8, 3)
    spec = occupation_numbers(p)
    assert fro_norm(filtered_density_matrix(spec, 1, 8) - p) <= 8 * 1e-9


def test_filtered_density_matrix_single_state():
    rng = np.random.default_rng(40)
    h = gapped_hamiltonian(rng, 6, 1)
    p = exact_density_matrix(h, 1)
    spec = occupation_numbers(p)
    assert fro_norm(filtered_density_matrix(spec, 1, 1) - p) <= 6 * 1e-9


def test_filtered_density_matrix_partial_trace():
    rng = np.random.default_rng(41)
    p = random_feasible(rng, 9, 4)
    spec = occupation_numbers(p)
    m = filtered_density_matrix(spec, 2, 5)
    assert np.trace(m) == pytest.approx(spec.values[1:5].sum())


@pytest.mark.parametrize("lo,hi", [(0, 3), (2, 1), (1, 9)])
def test_filtered_density_matrix_rejects_bad_range(lo, hi):
    spec = occupation_numbers(0.5 * np.eye(8))
    with pytest.raises(ValueError):
        filtered_density_matrix(spec, lo, hi)


def test_delta_projections_identity():
    cols = delta_projections(np.eye(5), [0, 3])
    assert np.array_equal(cols[0], np.array([1.0, 0, 0, 0, 0]))
    assert np.array_equal(cols[1], np.array([0, 0, 0, 1.0, 0]))


def test_delta_projections_match_dense_multiply():
    rng = np.random.default_rng(42)
    p = random_feasible(rng, 10, 4)
    for site, col in zip([2, 7], delta_projections(p, [2, 7])):
        e = np.zeros(10)
        e[site] = 1.0
        assert np.allclose(col, p @ e)


def test_delta_projection_norm_bounded_for_feasible():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(3, 16))
        p = random_feasible(rng, n, int(rng.integers(1, n)))
        for col in delta_projections(p, list(range(n))):
            assert np.linalg.norm(col) <= 1 + 1e-9


def test_delta_projections_reject_bad_site():
    with pytest.raises(IndexError):
        delta_projections(np.eye(4), [4])


def test_ritz_compare_projector_recovers_low_eigenvalues():
    rng = np.random.default_rng(44)
    for _ in range(5):
        n = int(rng.integers(4, 16))
        n_occ = int(rng.integers(1, n))
        h = gapped_hamiltonian(rng, n, n_occ)
        p = exact_density_matrix(h, n_occ)
        ritz, low = ritz_compare(p, h, n_occ)
        assert np.allclose(ritz, low, atol=n * 1e-8)


def test_ritz_compare_projector_with_zero_modes():
    # a projector over a spectrum straddling zero still reports the low end
    grid = Grid1D(length=10.0, n=12)
    h = build_laplacian_1d(grid)
    p = exact_density_matrix(h, 1)
    ritz, low = ritz_compare(p, h, 1)
    assert ritz[0] == pytest.approx(low[0], abs=1e-8)


def test_ritz_compare_identity_gives_spectrum():
    rng = np.random.default_rng(45)
    h = random_symmetric(rng, 7)
    ritz, low = ritz_compare(np.eye(7), h, 7)
    w = np.linalg.eigvalsh(h)
    assert np.allclose(ritz, w, atol=1e-8)
    assert np.allclose(low, w)


def test_ritz_compare_rejects_bad_count():
    with pytest.raises(ValueError):
        ritz_compare(np.eye(3), np.eye(3), 4)


def test_band_occupations_projector_pattern():
    rng = np.random.default_rng(46)
    h = gapped_hamiltonian(rng, 10, 4)
    theta = band_occupations(exact_density_matrix(h, 4), h)
    assert np.allclose(theta[:4], 1.0, atol=1e-9)
    assert np.allclose(theta[4:], 0.0, atol=1e-9)


def test_band_occupations_uniform_mixture():
    rng = np.random.default_rng(47)
    h = random_symmetric(rng, 8)
    theta = band_occupations((3 / 8) * np.eye(8), h)
    assert np.allclose(theta, 3 / 8)


def test_band_occupations_sum_to_trace():
    rng = np.random.default_rng(48)
    p = random_feasible(rng, 12, 5)
    h = random_symmetric(rng, 12)
    assert band_occupations(p, h).sum() == pytest.approx(5.0, abs=1e-9)


def ritz_over_positive_occupations(f, w, h, k):
    """ritz_compare with every f_j > 0 in its occupied set, rounding-level
    occupations included."""
    occ = f > 0.0
    root = np.sqrt(f[occ])
    s_occ, z = np.linalg.eigh(symmetrize(root[:, None] * (w[:, occ].T @ h @ w[:, occ]) * root))
    s = np.concatenate([s_occ, np.zeros(f.size - s_occ.size)])
    weight = np.concatenate([f[occ] @ z**2, f[~occ]])
    return np.sort(s[np.argsort(-weight, kind="stable")[:k]])


def test_band_weights_match_explicit_loop():
    rng = np.random.default_rng(64)
    n, k = 64, 9
    p, h = random_symmetric(rng, n), random_symmetric(rng, n)
    _, v = np.linalg.eigh(h)
    theta = [v[:, i] @ p @ v[:, i] for i in range(n)]
    assert np.max(np.abs(band_occupations(p, h) - theta)) <= 1e-12

    # Ritz values: a general symmetric P, a projector, and a clamped P with
    # exact-zero and slightly negative occupations at k = its count of f > 0,
    # and at k above that count.
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    f_clamped = np.sort(np.concatenate([rng.uniform(0.05, 1.0, 20), np.zeros(30),
                                        -1e-15 * rng.random(14)]))
    cases = [(p, np.linalg.eigh(p), k)]
    projector = exact_density_matrix(gapped_hamiltonian(rng, n, k), k)
    cases.append((projector, np.linalg.eigh(projector), k))
    clamped = symmetrize((q * f_clamped) @ q.T)
    cases += [(clamped, (f_clamped, q), kc) for kc in (20, 27)]
    for p_case, (f, w), k_case in cases:
        root = symmetrize((w * np.sqrt(np.clip(f, 0.0, None))) @ w.T)
        s, u = np.linalg.eigh(symmetrize(root @ h @ root))
        weight = np.array([u[:, i] @ p_case @ u[:, i] for i in range(n)])
        keep = np.argsort(-weight, kind="stable")[:k_case]
        ritz, low = ritz_compare(p_case, h, k_case, p_eig=SpectralDecomposition(f, w))
        assert np.max(np.abs(ritz - np.sort(s[keep]))) <= 1e-12
        assert np.max(np.abs(low - np.linalg.eigvalsh(h)[:k_case])) <= 1e-12
    # The projector's rounding-level occupations leave the occupied set;
    # the result stays within 1e-12 relative of the one that keeps them.
    assert np.count_nonzero(cases[1][1][0] > 0) > k
    for p_case, (f, w), k_case in cases[1:]:
        ref = ritz_over_positive_occupations(f, w, h, k_case)
        ritz, _ = ritz_compare(p_case, h, k_case, p_eig=SpectralDecomposition(f, w))
        assert np.max(np.abs(ritz - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_given_spectra_give_bitwise_the_same_results():
    rng = np.random.default_rng(65)
    n, n_occ = 24, 5
    h = gapped_hamiltonian(rng, n, n_occ)
    p = random_feasible(rng, n, n_occ)
    h_eig, p_eig = sym_eig(h), sym_eig(p)
    pairs = [
        (exact_density_matrix(h, n_occ), exact_density_matrix(h, n_occ, h_eig=h_eig)),
        (energy_gap_metrics(p, h, n_occ), energy_gap_metrics(p, h, n_occ, h_eig=h_eig)),
        (space_approximation(p, h, n_occ), space_approximation(p, h, n_occ, h_eig=h_eig)),
        (band_occupations(p, h), band_occupations(p, h, h_eig=h_eig)),
        (occupation_numbers(p), occupation_numbers(p, p_eig=p_eig)),
        (ritz_compare(p, h, n_occ), ritz_compare(p, h, n_occ, p_eig=p_eig, h_eig=h_eig)),
    ]
    for computed, given in pairs:
        if not isinstance(computed, tuple):
            computed, given = (computed,), (given,)
        assert all(np.array_equal(a, b) for a, b in zip(computed, given))


def test_sparsity_fraction():
    p = np.array([[1.0, 1e-9], [1e-9, 0.5]])
    assert sparsity_fraction(p) == pytest.approx(0.5)
    assert sparsity_fraction(np.eye(3)) == pytest.approx(2 / 3)


def test_csv_writers_roundtrip(tmp_path):
    values = np.array([0.9, 0.4])
    write_occupation_csv(tmp_path / "occ.csv", values)
    with open(tmp_path / "occ.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["index"] for r in rows] == ["1", "2"]
    assert float(rows[1]["f"]) == 0.4

    write_theta_csv(tmp_path / "theta.csv", values)
    header = (tmp_path / "theta.csv").read_text().splitlines()[0]
    assert header == "index,theta"

    write_delta_csv(tmp_path / "delta.csv", np.array([0.0, 0.5]), np.array([1.0, -1.0]))
    with open(tmp_path / "delta.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[1]["x"]) == 0.5
    assert float(rows[1]["value"]) == -1.0

    write_sweep_csv(tmp_path / "sweep.csv", [(10.0, -1.0, -1.5, 3.0, 0.25, 0.5)])
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["mu", "trHP", "exact_energy", "l1", "space_approx", "sparsity"]
    assert float(rows[0]["sparsity"]) == 0.5
