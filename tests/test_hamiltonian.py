import numpy as np
import pytest

from sparsedm.hamiltonian import (
    Grid1D,
    HamiltonianSpec,
    build_hamiltonian,
    build_kronig_penney,
    build_laplacian_1d,
    default_well_centers,
    load_matrix,
    sample_kp_potential,
)
from sparsedm.linalg import AsymmetricMatrixError, write_matrix


def test_grid_spacing_and_points():
    grid = Grid1D(length=100.0, n=256)
    assert grid.spacing == pytest.approx(100.0 / 256)
    x = grid.points()
    assert x.shape == (256,)
    assert x[0] == 0.0
    assert x[-1] == pytest.approx(100.0 - grid.spacing)


@pytest.mark.parametrize("length,n", [(100.0, 2), (0.0, 16), (-5.0, 16)])
def test_grid_rejects_bad_parameters(length, n):
    with pytest.raises(ValueError):
        Grid1D(length=length, n=n)


def test_laplacian_stencil():
    grid = Grid1D(length=8.0, n=8)
    h2 = grid.spacing**2
    hmat = build_laplacian_1d(grid)
    assert np.allclose(np.diag(hmat), 1.0 / h2)
    assert hmat[0, 1] == pytest.approx(-0.5 / h2)
    # periodic wrap-around corners
    assert hmat[0, 7] == pytest.approx(-0.5 / h2)
    assert hmat[7, 0] == pytest.approx(-0.5 / h2)
    assert np.array_equal(hmat, hmat.T)
    # constants lie in the kernel
    assert np.allclose(hmat.sum(axis=1), 0.0)


def test_laplacian_spectrum_analytic():
    grid = Grid1D(length=100.0, n=64)
    w = np.linalg.eigvalsh(build_laplacian_1d(grid))
    k = np.arange(64)
    expected = np.sort((1.0 - np.cos(2 * np.pi * k / 64)) / grid.spacing**2)
    assert np.allclose(w, expected, atol=1e-10)


def test_default_well_centers():
    assert np.allclose(default_well_centers(100.0, 4), [20.0, 40.0, 60.0, 80.0])


def test_kp_zero_depth_is_free_operator():
    grid = Grid1D(length=50.0, n=32)
    spec = HamiltonianSpec("kronig_penney", well_depth=0.0, n_wells=4)
    assert np.array_equal(build_kronig_penney(grid, spec), build_laplacian_1d(grid))


def test_kp_potential_is_attractive_and_on_diagonal():
    grid = Grid1D(length=100.0, n=128)
    spec = HamiltonianSpec("kronig_penney")
    v = sample_kp_potential(grid, spec)
    assert np.all(v < 0.0)
    hmat = build_kronig_penney(grid, spec)
    free = build_laplacian_1d(grid)
    assert np.allclose(np.diag(hmat), np.diag(free) + v)
    off = ~np.eye(128, dtype=bool)
    assert np.array_equal(hmat[off], free[off])


@pytest.mark.parametrize("spec", [HamiltonianSpec("free_laplacian"),
                                  HamiltonianSpec("from_file", path="H.mat")])
def test_kp_potential_rejects_other_kinds(spec):
    with pytest.raises(ValueError, match=f"requires a kronig_penney spec, got '{spec.kind}'"):
        sample_kp_potential(Grid1D(length=10.0, n=8), spec)


def test_kp_potential_periodic_minimum_image():
    grid = Grid1D(length=20.0, n=40)
    spec = HamiltonianSpec("kronig_penney", centers=(0.0,), well_width=2.0)
    v = sample_kp_potential(grid, spec)
    # a well at the origin is felt symmetrically from both domain ends
    assert v[1] == pytest.approx(v[-1], rel=1e-12)
    assert np.argmin(v) == 0


def test_kp_rejects_centers_outside_domain():
    grid = Grid1D(length=20.0, n=16)
    with pytest.raises(ValueError, match="centers"):
        sample_kp_potential(grid, HamiltonianSpec("kronig_penney", centers=(20.0,)))
    with pytest.raises(ValueError, match="centers"):
        sample_kp_potential(grid, HamiltonianSpec("kronig_penney", centers=(5.0, float("nan"))))


def test_kp_explicit_centers_override_count():
    grid = Grid1D(length=30.0, n=16)
    a = sample_kp_potential(grid, HamiltonianSpec("kronig_penney", centers=(15.0,), n_wells=7))
    b = sample_kp_potential(grid, HamiltonianSpec("kronig_penney", centers=(15.0,), n_wells=1))
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="bogus"),
        dict(kind="kronig_penney", well_depth=-1.0),
        dict(kind="kronig_penney", well_width=0.0),
        dict(kind="kronig_penney", n_wells=0),
        dict(kind="from_file"),
        dict(kind="kronig_penney", well_depth=float("nan")),
        dict(kind="kronig_penney", well_width=float("nan")),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        HamiltonianSpec(**kwargs)


def test_build_from_file_roundtrip(tmp_path):
    a = np.array([[1.0, 0.25], [0.25, -3.0]])
    path = tmp_path / "h.mat"
    write_matrix(path, a)
    out = build_hamiltonian(HamiltonianSpec("from_file", path=str(path)))
    assert np.allclose(out, a)


def test_load_matrix_rejects_asymmetric_file(tmp_path):
    path = tmp_path / "h.mat"
    path.write_text("2\n1 2\n3 4\n")
    with pytest.raises(AsymmetricMatrixError):
        load_matrix(path)


def test_build_requires_grid_for_stencils():
    with pytest.raises(ValueError, match="grid"):
        build_hamiltonian(HamiltonianSpec("free_laplacian"))


@pytest.mark.parametrize("kind", ["free_laplacian", "kronig_penney"])
def test_build_rejects_non_finite_stencil(kind):
    # The spacing 1.25e-161 squares to a subnormal, so 1/h^2 overflows to inf.
    with pytest.raises(ValueError, match="non-finite"):
        build_hamiltonian(HamiltonianSpec(kind), Grid1D(length=1e-160, n=8))
