import os
import subprocess
import sys
from pathlib import Path

import sparsedm
from sparsedm import diagnostics, hamiltonian, linalg, solver

# The names the package exported when it listed them by hand; none may go.
EARLIER_NAMES = [
    "AsymmetricMatrixError", "DegenerateGapWarning", "EigenSolverError", "FeasibilityReport",
    "Grid1D", "HamiltonianSpec", "IterationRecord", "MatrixFormatError", "OccupationSpectrum",
    "SaddlePoint", "SolverParams", "SolverResult", "SolverState", "SpectralDecomposition",
    "band_occupations", "build_hamiltonian", "build_kronig_penney", "build_laplacian_1d",
    "default_well_centers", "delta_projections", "energy_gap_metrics", "entrywise_l1",
    "exact_density_matrix", "feasibility", "filtered_density_matrix", "fro_norm", "init_state",
    "load_matrix", "objective", "occupation_numbers", "read_matrix", "require_symmetric",
    "ritz_compare", "saddle_distance", "sample_kp_potential", "soft_threshold", "solve",
    "space_approximation", "sparsity_fraction", "spectral_clamp", "step", "sym_eig",
    "symmetrize", "trace_product", "trace_shift_project", "write_matrix", "write_history_csv",
]
MODULES = (diagnostics, hamiltonian, linalg, solver)


def test_all_is_the_union_of_the_module_lists():
    union = set().union(*(mod.__all__ for mod in MODULES))
    assert set(sparsedm.__all__) == union
    assert len(sparsedm.__all__) == sum(len(mod.__all__) for mod in MODULES)


def test_every_exported_name_resolves_to_its_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(sparsedm, name) is getattr(mod, name), name
    namespace = {}
    exec("from sparsedm import *", namespace)
    assert set(sparsedm.__all__) <= namespace.keys()


def test_earlier_names_still_export():
    assert len(EARLIER_NAMES) == 47
    assert set(EARLIER_NAMES) <= set(sparsedm.__all__)
    assert {"write_csv", "write_delta_csv", "write_occupation_csv",
            "write_sweep_csv", "write_theta_csv"} <= set(sparsedm.__all__)


def test_clamp_internals_stay_in_linalg():
    internals = {"Anchor", "clamp_eig", "held_eig", "warm_positive_eig"}
    assert not internals & set(sparsedm.__all__)
    for name in internals:
        assert hasattr(linalg, name), name


def test_the_package_loads_no_scipy():
    # scipy is no dependency of the package; a stray import would go unseen
    # wherever scipy happens to be installed.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, sparsedm, sparsedm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
