import csv
import os
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from sparsedm import cli, diagnostics, solver
from sparsedm.cli import ConfigError, load_config, main, parse_config_text
from sparsedm.hamiltonian import Grid1D, build_laplacian_1d
from sparsedm.linalg import read_matrix, write_matrix

from helpers import example2_h, example2_saddle, random_feasible

# The sweep fixtures use a gapped occupation, so a degenerate level is a bug.
pytestmark = pytest.mark.filterwarnings("error::sparsedm.diagnostics.DegenerateGapWarning")


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def ex2_files(tmp_path):
    """Matrix files for the 3x3 reference instance and its fixed point."""
    write_matrix(tmp_path / "H.mat", example2_h())
    ref = example2_saddle()
    for name, mat in zip(("Ps", "Qs", "Rs", "bs", "ds"), ref):
        write_matrix(tmp_path / f"{name}.mat", mat)
    return tmp_path


def test_parse_config_text_basics():
    entries = parse_config_text("# a comment\n\n grid.n = 8 \nsolver.mu = 1,2\n")
    assert entries == {"grid.n": "8", "solver.mu": "1,2"}


def test_parse_config_text_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a.b = 1\na.b = 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")


def test_load_config_rejects_unknown_key(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.cfg",
        "hamiltonian.kind = free_laplacian\ngrid.length = 10\ngrid.n = 8\n"
        "solver.mu = 1\nsolver.n_occ = 1\nbogus.key = 1\n",
    )
    with pytest.raises(ConfigError, match="bogus.key"):
        load_config(cfg)


def test_load_config_requires_grid_for_stencils(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.cfg",
        "hamiltonian.kind = kronig_penney\nsolver.mu = 1\nsolver.n_occ = 1\n",
    )
    with pytest.raises(ConfigError, match="grid"):
        load_config(cfg)


def test_load_config_parses_mu_list_and_inf(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.cfg",
        "hamiltonian.kind = free_laplacian\ngrid.length = 10\ngrid.n = 8\n"
        "solver.mu = 5, 10, inf\nsolver.n_occ = 2\n",
    )
    loaded = load_config(cfg)
    assert tuple(params.mu for params in loaded.runs) == (5.0, 10.0, float("inf"))
    assert loaded.runs[0].lam == 1.0 and loaded.runs[0].r == 1.0


@pytest.mark.parametrize("mus", ["10, 40, 10", "1, 1.0000001", "inf, 5, inf"])
def test_load_config_rejects_colliding_mu_values(tmp_path, mus):
    cfg = write_cfg(
        tmp_path / "c.cfg",
        "hamiltonian.kind = free_laplacian\ngrid.length = 10\ngrid.n = 8\n"
        f"solver.mu = {mus}\nsolver.n_occ = 2\n",
    )
    with pytest.raises(ConfigError, match="solver.mu"):
        load_config(cfg)


def test_load_config_rejects_partial_saddle_reference(ex2_files):
    cfg = write_cfg(
        ex2_files / "c.cfg",
        f"hamiltonian.kind = from_file\nhamiltonian.path = {ex2_files / 'H.mat'}\n"
        f"solver.mu = 1\nsolver.n_occ = 1\nsaddle.p = {ex2_files / 'Ps.mat'}\n",
    )
    with pytest.raises(ConfigError, match="saddle"):
        load_config(cfg)


@pytest.mark.parametrize("given, message", [
    ("grid.n = 8\n", "grid.length is required with grid.n"),
    ("grid.length = 10\n", "grid.n is required with grid.length"),
    ("saddle.p = {Ps}\n", "saddle.q is required with saddle.p"),
    ("saddle.d = {ds}\nsaddle.p = {Ps}\nsaddle.q = {Qs}\nsaddle.r = {Rs}\n",
     "saddle.b is required with saddle.d"),
], ids=["grid.n", "grid.length", "saddle.p", "saddle.d-p-q-r"])
def test_load_config_names_the_first_missing_key_of_a_partial_group(ex2_files, given, message):
    paths = {name: ex2_files / f"{name}.mat" for name in ("Ps", "Qs", "Rs", "ds")}
    cfg = write_cfg(
        ex2_files / "c.cfg",
        f"hamiltonian.kind = from_file\nhamiltonian.path = {ex2_files / 'H.mat'}\n"
        "solver.mu = 1\nsolver.n_occ = 1\n" + given.format(**paths),
    )
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(cfg)


def test_load_config_rejects_missing_file(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.cfg",
        "hamiltonian.kind = from_file\nhamiltonian.path = nosuch.mat\n"
        "solver.mu = 1\nsolver.n_occ = 1\n",
    )
    with pytest.raises(ConfigError, match="hamiltonian.path"):
        load_config(cfg)


KP_CFG = (
    "hamiltonian.kind = kronig_penney\ngrid.length = 10\ngrid.n = 8\n"
    "solver.mu = 1\nsolver.n_occ = 1\n"
)


@pytest.mark.parametrize("key, value", [
    ("solver.mu", "0"),
    ("solver.lambda", "-1"),
    ("solver.lambda", "inf"),
    ("solver.r", "0"),
    ("solver.r", "inf"),
    ("solver.tol", "nan"),
    ("solver.tol", "inf"),
    ("solver.max_iter", "0"),
    ("solver.record_every", "0"),
    ("solver.n_occ", "0"),
    ("hamiltonian.kind", "bogus"),
    ("hamiltonian.v0", "-1"),
    ("hamiltonian.v0", "nan"),
    ("hamiltonian.delta", "nan"),
    ("hamiltonian.delta", "0"),
    ("hamiltonian.n_wells", "0"),
    ("grid.n", "2"),
    ("grid.length", "0"),
    ("grid.length", "inf"),
])
def test_load_config_error_names_the_bad_key(tmp_path, key, value):
    lines = [line for line in KP_CFG.splitlines() if not line.startswith(key + " ")]
    cfg = write_cfg(tmp_path / "c.cfg", "\n".join(lines + [f"{key} = {value}"]) + "\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
        load_config(cfg)


def test_load_config_from_file_without_path_names_the_path_key(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.cfg", "hamiltonian.kind = from_file\nsolver.mu = 1\nsolver.n_occ = 1\n"
    )
    with pytest.raises(ConfigError, match="hamiltonian.path"):
        load_config(cfg)


def test_load_config_accepts_readme_example(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = write_cfg(tmp_path / "kp10.cfg", block)
    loaded = load_config(cfg)
    assert loaded.ham.kind == "kronig_penney"
    assert loaded.grid.n == 256
    assert [params.mu for params in loaded.runs] == [100.0]


def solve_cfg_text(ex2_files, out, with_saddle=False, extra=""):
    text = (
        f"hamiltonian.kind = from_file\n"
        f"hamiltonian.path = {ex2_files / 'H.mat'}\n"
        f"solver.mu = 1\nsolver.n_occ = 1\nsolver.tol = 1e-8\n"
        f"output.dir = {out}\n"
    )
    if with_saddle:
        for key, name in zip(("p", "q", "r", "b", "d"), ("Ps", "Qs", "Rs", "bs", "ds")):
            text += f"saddle.{key} = {ex2_files / (name + '.mat')}\n"
    return text + extra


def test_solve_writes_artifacts_and_converges(ex2_files):
    out = ex2_files / "run"
    cfg = write_cfg(ex2_files / "solve.cfg", solve_cfg_text(ex2_files, out))
    assert main(["solve", "--config", cfg]) == 0
    for name in ("P.mat", "Q.mat", "R.mat", "history.csv", "summary.csv"):
        assert (out / name).is_file()
    with open(out / "summary.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert row["converged"] == "true"
    assert float(row["objective"]) <= 2 + 1e-6
    assert float(row["trace_error"]) <= 1e-9
    p = read_matrix(out / "P.mat")
    assert np.array_equal(p, p.T)
    assert abs(np.trace(p) - 1.0) <= 1e-9


def test_solve_is_deterministic(ex2_files):
    cfg1 = write_cfg(ex2_files / "a.cfg", solve_cfg_text(ex2_files, ex2_files / "o1"))
    cfg2 = write_cfg(ex2_files / "b.cfg", solve_cfg_text(ex2_files, ex2_files / "o2"))
    assert main(["solve", "--config", cfg1]) == 0
    assert main(["solve", "--config", cfg2]) == 0
    for name in ("P.mat", "history.csv"):
        assert (ex2_files / "o1" / name).read_bytes() == (ex2_files / "o2" / name).read_bytes()


def test_solve_exit_codes(ex2_files, capsys):
    bad = write_cfg(
        ex2_files / "bad.cfg",
        f"hamiltonian.kind = from_file\nhamiltonian.path = {ex2_files / 'H.mat'}\n"
        f"solver.mu = 0\nsolver.n_occ = 1\noutput.dir = {ex2_files / 'x'}\n",
    )
    assert main(["solve", "--config", bad]) == 1
    assert "solver.mu" in capsys.readouterr().err

    slow = write_cfg(
        ex2_files / "slow.cfg",
        solve_cfg_text(ex2_files, ex2_files / "y", extra="solver.max_iter = 2\n"),
    )
    assert main(["solve", "--config", slow]) == 2

    multi = write_cfg(
        ex2_files / "multi.cfg",
        f"hamiltonian.kind = from_file\nhamiltonian.path = {ex2_files / 'H.mat'}\n"
        f"solver.mu = 1,2\nsolver.n_occ = 1\noutput.dir = {ex2_files / 'z'}\n",
    )
    assert main(["solve", "--config", multi]) == 1
    assert main(["solve", "--config", str(ex2_files / "nosuch.cfg")]) == 1


def test_out_flag_overrides_config(ex2_files):
    cfg = write_cfg(ex2_files / "c.cfg", solve_cfg_text(ex2_files, ex2_files / "ignored"))
    assert main(["solve", "--config", cfg, "--out", str(ex2_files / "chosen")]) == 0
    assert (ex2_files / "chosen" / "P.mat").is_file()
    assert not (ex2_files / "ignored").exists()


def set_affinity(monkeypatch, cpus):
    """Let the process run on `cpus` CPUs, as `taskset -c` would."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def sweep_cfg_text(out, mus="10, 40", extra=""):
    return (
        f"hamiltonian.kind = free_laplacian\ngrid.length = 10\ngrid.n = 16\n"
        f"solver.mu = {mus}\nsolver.n_occ = 3\nsolver.lambda = 10\nsolver.r = 10\n"
        f"solver.max_iter = 4000\noutput.dir = {out}\n" + extra
    )


def test_sweep_writes_per_mu_directories(tmp_path, monkeypatch):
    set_affinity(monkeypatch, 2)
    out = tmp_path / "sweep"
    cfg = write_cfg(tmp_path / "s.cfg", sweep_cfg_text(out))
    assert main(["sweep", "--config", cfg]) == 0
    assert (out / "mu_10" / "P.mat").is_file()
    assert (out / "mu_40" / "P.mat").is_file()
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["mu"]) for r in rows] == [10.0, 40.0]
    # stronger l1 pressure keeps more entries dead
    assert float(rows[0]["sparsity"]) >= float(rows[1]["sparsity"])
    assert float(rows[0]["space_approx"]) >= float(rows[1]["space_approx"])


def test_sweep_singleton_matches_solve_layout(tmp_path):
    out = tmp_path / "one"
    cfg = write_cfg(tmp_path / "s.cfg", sweep_cfg_text(out, mus="25"))
    assert main(["sweep", "--config", cfg]) == 0
    for name in ("P.mat", "Q.mat", "R.mat", "history.csv", "summary.csv"):
        assert (out / "mu_25" / name).is_file()
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2


def test_sweep_marks_unconverged_run_but_completes(tmp_path):
    out = tmp_path / "sweep"
    text = sweep_cfg_text(out).replace("solver.max_iter = 4000", "solver.max_iter = 2")
    cfg = write_cfg(tmp_path / "s.cfg", text)
    assert main(["sweep", "--config", cfg]) == 2
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3  # header + both runs still measured


BAD_H_CASES = {
    # config lines -> the key, field or fault the error must name
    "v0_nan": (KP_CFG + "hamiltonian.v0 = nan\n", "hamiltonian.v0"),
    "centers_nan": (KP_CFG + "hamiltonian.centers = 5, nan\n", "hamiltonian.centers"),
    "centers_outside": (KP_CFG + "hamiltonian.centers = 5, 500\n", "hamiltonian.centers"),
    "length_overflows": ("hamiltonian.kind = free_laplacian\ngrid.length = 1e-160\ngrid.n = 8\n"
                         "solver.mu = 1\nsolver.n_occ = 1\n", "non-finite"),
    "n_occ_above_dim": ("hamiltonian.kind = from_file\nhamiltonian.path = {H}\n"
                        "solver.mu = 1\nsolver.n_occ = 4\n", "solver.n_occ"),
    "from_file_asymmetric": ("hamiltonian.kind = from_file\nhamiltonian.path = {asym}\n"
                             "solver.mu = 1\nsolver.n_occ = 1\n", "hamiltonian.path: "),
    "from_file_malformed": ("hamiltonian.kind = from_file\nhamiltonian.path = {malformed}\n"
                            "solver.mu = 1\nsolver.n_occ = 1\n", "hamiltonian.path: "),
    "grid_n_mismatch": ("hamiltonian.kind = from_file\nhamiltonian.path = {H}\n"
                        "grid.length = 10\ngrid.n = 8\nsolver.mu = 1\nsolver.n_occ = 1\n",
                        "grid.n = 8"),
    "grid_n_alone": ("hamiltonian.kind = from_file\nhamiltonian.path = {H}\n"
                     "grid.n = 8\nsolver.mu = 1\nsolver.n_occ = 1\n",
                     "grid.length is required"),
    "grid_length_alone": ("hamiltonian.kind = from_file\nhamiltonian.path = {H}\n"
                          "grid.length = 10\nsolver.mu = 1\nsolver.n_occ = 1\n",
                          "grid.n is required"),
    "n_occ_missing": ("hamiltonian.kind = from_file\nhamiltonian.path = {H}\nsolver.mu = 1\n",
                      "solver.n_occ is required"),
}


@pytest.mark.parametrize("command", ["solve", "sweep", "exact"])
@pytest.mark.parametrize("case", sorted(BAD_H_CASES))
def test_bad_hamiltonian_input_fails_before_any_output(ex2_files, capsys, command, case):
    text, named = BAD_H_CASES[case]
    (ex2_files / "asym.mat").write_text("2\n1 2\n3 4\n")
    (ex2_files / "malformed.mat").write_text("2\n1 2\n3\n")
    out = ex2_files / "out"
    paths = {name: ex2_files / f"{name}.mat" for name in ("H", "asym", "malformed")}
    cfg = write_cfg(ex2_files / "c.cfg", text.format(**paths) + f"output.dir = {out}\n")
    assert main([command, "--config", cfg]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


BAD_START_CASES = {
    # config key -> matrix written to the file it names
    "initial.path": np.eye(3),  # trace 3, target 1
    "saddle.p": np.eye(2),  # the Hamiltonian is 3 x 3
    "saddle.q": np.triu(np.ones((3, 3))),  # asymmetric: load_matrix rejects it
}


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("key", sorted(BAD_START_CASES))
def test_bad_start_matrix_fails_before_any_output(ex2_files, capsys, command, key):
    write_matrix(ex2_files / "bad.mat", BAD_START_CASES[key])
    out = ex2_files / "out"
    text = solve_cfg_text(ex2_files, out, with_saddle=True)
    text = "".join(line for line in text.splitlines(keepends=True) if not line.startswith(key))
    cfg = write_cfg(ex2_files / "c.cfg", text + f"{key} = {ex2_files / 'bad.mat'}\n")
    assert main([command, "--config", cfg]) == 1
    assert f"error: {key}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_wrong_size_start_matrix_fails_before_any_output(ex2_files, capsys, command):
    # A feasible 2 x 2 start for the 3 x 3 instance; check_initial names the shapes.
    write_matrix(ex2_files / "P0.mat", np.diag([1.0, 0.0]))
    out = ex2_files / "out"
    text = solve_cfg_text(ex2_files, out) + f"initial.path = {ex2_files / 'P0.mat'}\n"
    assert main([command, "--config", write_cfg(ex2_files / "c.cfg", text)]) == 1
    err = capsys.readouterr().err
    assert "error: initial.path: initial matrix has shape (2, 2), expected (3, 3)" in err
    assert not out.exists()


def test_sweep_loads_start_matrices_once(ex2_files, monkeypatch):
    loaded = []

    def recording_load(path):
        loaded.append(Path(path).name)
        return load_matrix(path)

    load_matrix = cli.load_matrix
    monkeypatch.setattr(cli, "load_matrix", recording_load)
    write_matrix(ex2_files / "P0.mat", np.diag([1.0, 0.0, 0.0]))
    text = solve_cfg_text(ex2_files, ex2_files / "out", with_saddle=True).replace(
        "solver.mu = 1\n", "solver.mu = 1, 2, 4\n")
    cfg = write_cfg(ex2_files / "c.cfg", text + f"initial.path = {ex2_files / 'P0.mat'}\n")
    assert main(["sweep", "--config", cfg]) == 0
    assert sorted(loaded) == ["P0.mat", "Ps.mat", "Qs.mat", "Rs.mat", "bs.mat", "ds.mat"]


def test_sweep_checks_the_start_matrix_once(ex2_files, monkeypatch):
    # Each feasibility report decomposes its matrix once: one for the start
    # matrix, then one per run for its summary.
    checked = []

    def recording_eig(a):
        checked.append(a.shape)
        return sym_eig(a)

    sym_eig = solver.sym_eig
    monkeypatch.setattr(solver, "sym_eig", recording_eig)
    write_matrix(ex2_files / "P0.mat", np.diag([1.0, 0.0, 0.0]))
    text = solve_cfg_text(ex2_files, ex2_files / "out", extra="solver.max_iter = 5\n").replace(
        "solver.mu = 1\n", "solver.mu = 1, 2, 4\n")
    cfg = write_cfg(ex2_files / "c.cfg", text + f"initial.path = {ex2_files / 'P0.mat'}\n")
    assert main(["sweep", "--config", cfg]) in (0, 2)
    assert len(checked) == 1 + 3


@pytest.fixture
def eig_calls(monkeypatch):
    """Every matrix the CLI and the diagnostics pass to sym_eig."""
    calls = []

    def recording_eig(a):
        calls.append(np.array(a))
        return sym_eig(a)

    sym_eig = cli.sym_eig
    monkeypatch.setattr(cli, "sym_eig", recording_eig)
    monkeypatch.setattr(diagnostics, "sym_eig", recording_eig)
    return calls


def named(calls, **known):
    """Sorted names of the known matrices decomposed; 'other' for the rest."""
    return sorted(next((name for name, m in known.items() if np.array_equal(a, m)), "other")
                  for a in calls)


def test_exact_decomposes_h_once(ex2_files, eig_calls):
    cfg = write_cfg(ex2_files / "e.cfg", solve_cfg_text(ex2_files, ex2_files / "exact"))
    assert main(["exact", "--config", cfg]) == 0
    assert named(eig_calls, H=example2_h()) == ["H"]


def test_diagnose_decomposes_h_and_p_once(ex2_files, eig_calls):
    run = ex2_files / "run"
    run.mkdir()
    p = random_feasible(np.random.default_rng(5), 3, 1)
    write_matrix(run / "P.mat", p)
    cfg = write_cfg(ex2_files / "d.cfg", diag_cfg_text(ex2_files, run))
    assert main(["diagnose", "--config", cfg]) == 0
    # "other" is the Ritz surrogate sqrt(P) H sqrt(P)
    assert named(eig_calls, H=example2_h(), P=p) == ["H", "P", "other"]


def test_diagnose_frees_h_eigenvectors_before_decomposing_p(ex2_files, monkeypatch):
    # At each sym_eig call, whether the eigenvectors of each earlier call live.
    alive, refs = [], []

    def tracking_eig(a):
        alive.append([ref() is not None for ref in refs])
        eig = sym_eig(a)
        refs.append(weakref.ref(eig.eigenvectors))
        return eig

    sym_eig = cli.sym_eig
    monkeypatch.setattr(cli, "sym_eig", tracking_eig)
    run = ex2_files / "run"
    run.mkdir()
    write_matrix(run / "P.mat", random_feasible(np.random.default_rng(5), 3, 1))
    cfg = write_cfg(ex2_files / "d.cfg", diag_cfg_text(ex2_files, run))
    assert main(["diagnose", "--config", cfg]) == 0
    assert alive == [[], [False]]


@pytest.mark.parametrize("mus", ["25", "10, 40, 100"])
def test_sweep_decomposes_h_once(tmp_path, monkeypatch, eig_calls, mus):
    set_affinity(monkeypatch, 2)
    cfg = write_cfg(tmp_path / "s.cfg", sweep_cfg_text(tmp_path / "o", mus=mus))
    assert main(["sweep", "--config", cfg]) == 0
    h = build_laplacian_1d(Grid1D(length=10, n=16))
    assert named(eig_calls, H=h) == ["H"]


@pytest.mark.parametrize("cpus, workers", [(1, 1), (3, 2)])
def test_sweep_pool_follows_cpu_affinity(tmp_path, monkeypatch, cpus, workers):
    sizes = []

    def recording_pool(**kwargs):
        sizes.append(kwargs["max_workers"])
        return pool(**kwargs)

    pool = cli.ThreadPoolExecutor
    monkeypatch.setattr(cli, "ThreadPoolExecutor", recording_pool)
    set_affinity(monkeypatch, cpus)
    cfg = write_cfg(tmp_path / "s.cfg", sweep_cfg_text(tmp_path / "o"))
    assert main(["sweep", "--config", cfg]) == 0
    # One worker per CPU, but never more than the two mu values.
    assert sizes == [workers]


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread control, set to 2 threads for the test."""
    control = cli._blas_threads()
    if control is None:
        pytest.skip("no OpenBLAS thread control in this numpy build")
    before = control.get()
    control.set(2)
    yield control
    control.set(before)


@pytest.mark.parametrize("workers, expected", [(2, 1), (1, 2)])
def test_sweep_workers_each_get_one_blas_thread(tmp_path, monkeypatch, blas_threads,
                                                workers, expected):
    seen = []

    def recording_solve(*args, **kwargs):
        seen.append(blas_threads.get())
        return solve(*args, **kwargs)

    solve = cli.solve
    monkeypatch.setattr(cli, "solve", recording_solve)
    set_affinity(monkeypatch, workers)
    cfg = write_cfg(tmp_path / "s.cfg", sweep_cfg_text(tmp_path / "o"))
    assert main(["sweep", "--config", cfg]) == 0
    assert seen == [expected, expected]
    assert blas_threads.get() == 2


def test_sweep_restores_blas_threads_on_failure(tmp_path, monkeypatch, capsys, blas_threads):
    def failing_solve(H, params, **kwargs):
        if params.mu == 40:
            raise RuntimeError("boom")
        return solve(H, params, **kwargs)

    solve = cli.solve
    monkeypatch.setattr(cli, "solve", failing_solve)
    set_affinity(monkeypatch, 2)
    cfg = write_cfg(tmp_path / "s.cfg", sweep_cfg_text(tmp_path / "o"))
    assert main(["sweep", "--config", cfg]) == 2
    assert "mu=40 failed: boom" in capsys.readouterr().err
    assert blas_threads.get() == 2

    def failing_metrics(*args, **kwargs):
        raise ValueError("bad metrics")

    monkeypatch.setattr(cli, "energy_gap_metrics", failing_metrics)
    assert main(["sweep", "--config", cfg]) == 1
    assert "bad metrics" in capsys.readouterr().err
    assert blas_threads.get() == 2


def test_sweep_names_the_exception_type_of_a_failed_run(tmp_path, monkeypatch, capsys):
    def failing_solve(H, params, **kwargs):
        if params.mu == 40:
            raise MemoryError()
        return solve(H, params, **kwargs)

    solve = cli.solve
    monkeypatch.setattr(cli, "solve", failing_solve)
    set_affinity(monkeypatch, 2)
    cfg = write_cfg(tmp_path / "s.cfg", sweep_cfg_text(tmp_path / "o"))
    assert main(["sweep", "--config", cfg]) == 2
    assert "error: run mu=40 failed: (MemoryError)" in capsys.readouterr().err


def test_sweep_holds_no_finished_result(tmp_path, monkeypatch):
    # A weak reference to each run's SolverResult, by mu. Rows are built in
    # ascending mu, so at each row the runs up to its mu have finished; record
    # how many of their results still live, and the width of H's spectrum.
    mus = (10.0, 40.0, 100.0)
    refs, seen = {}, []

    def recording_solve(H, params, **kwargs):
        result = solve(H, params, **kwargs)
        refs[params.mu] = weakref.ref(result)
        return result

    def recording_metrics(P, H, n_occ, *, h_eig):
        row_mu = mus[len(seen)]
        alive = sum(ref() is not None for mu, ref in list(refs.items()) if mu <= row_mu)
        seen.append((alive, h_eig.eigenvectors.shape[1]))
        return metrics(P, H, n_occ, h_eig=h_eig)

    solve, metrics = cli.solve, cli.energy_gap_metrics
    monkeypatch.setattr(cli, "solve", recording_solve)
    monkeypatch.setattr(cli, "energy_gap_metrics", recording_metrics)
    set_affinity(monkeypatch, 2)
    cfg = write_cfg(tmp_path / "s.cfg", sweep_cfg_text(tmp_path / "o", mus="10, 40, 100"))
    assert main(["sweep", "--config", cfg]) == 0
    # No finished result outlives its worker, and of H's 16 eigenvectors
    # only the n_occ = 3 lowest are kept.
    assert seen == [(0, 3)] * 3


def test_sweep_outputs_do_not_depend_on_worker_count(tmp_path, monkeypatch):
    for workers in (1, 2):
        set_affinity(monkeypatch, workers)
        cfg = write_cfg(tmp_path / "s.cfg", sweep_cfg_text(tmp_path / str(workers), mus="10, 40, 100"))
        assert main(["sweep", "--config", cfg]) == 0
    for mu in ("mu_10", "mu_40", "mu_100"):
        for name in ("P.mat", "Q.mat", "R.mat"):
            assert (tmp_path / "1" / mu / name).read_bytes() == (tmp_path / "2" / mu / name).read_bytes()


def test_exact_projector_and_spectrum(tmp_path):
    write_matrix(tmp_path / "H.mat", np.diag([1.0, 2.0, 3.0]))
    out = tmp_path / "exact"
    cfg = write_cfg(
        tmp_path / "e.cfg",
        f"hamiltonian.kind = from_file\nhamiltonian.path = {tmp_path / 'H.mat'}\n"
        f"solver.mu = inf\nsolver.n_occ = 1\noutput.dir = {out}\n",
    )
    assert main(["exact", "--config", cfg]) == 0
    assert np.allclose(read_matrix(out / "P_exact.mat"), np.diag([1.0, 0.0, 0.0]))
    with open(out / "spectrum.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["eigenvalue"]) for r in rows] == [1.0, 2.0, 3.0]


def test_exact_full_rank_is_identity(tmp_path):
    write_matrix(tmp_path / "H.mat", np.diag([1.0, 2.0, 3.0]))
    out = tmp_path / "exact"
    cfg = write_cfg(
        tmp_path / "e.cfg",
        f"hamiltonian.kind = from_file\nhamiltonian.path = {tmp_path / 'H.mat'}\n"
        f"solver.mu = inf\nsolver.n_occ = 3\noutput.dir = {out}\n",
    )
    assert main(["exact", "--config", cfg]) == 0
    assert np.allclose(read_matrix(out / "P_exact.mat"), np.eye(3))


def diag_cfg_text(ex2_files, run_dir, with_saddle=False):
    text = (
        f"hamiltonian.kind = from_file\n"
        f"hamiltonian.path = {ex2_files / 'H.mat'}\n"
        f"solver.mu = 1\nsolver.n_occ = 1\n"
        f"run.dir = {run_dir}\ndiagnose.sites = 0,2\n"
    )
    if with_saddle:
        for key, name in zip(("p", "q", "r", "b", "d"), ("Ps", "Qs", "Rs", "bs", "ds")):
            text += f"saddle.{key} = {ex2_files / (name + '.mat')}\n"
    return text


def test_diagnose_requires_solution(ex2_files, capsys):
    cfg = write_cfg(ex2_files / "d.cfg", diag_cfg_text(ex2_files, ex2_files / "void"))
    assert main(["diagnose", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "P.mat" in err and "run.dir" in err


@pytest.mark.parametrize("command, key", [
    ("solve", "output.dir"), ("sweep", "output.dir"), ("exact", "output.dir"),
    ("diagnose", "run.dir"),
])
def test_missing_directory_key_fails_before_any_output(ex2_files, capsys, command, key):
    run = ex2_files / "run"
    run.mkdir()
    write_matrix(run / "P.mat", np.diag([1.0, 0.0, 0.0]))
    text = diag_cfg_text(ex2_files, run) + f"output.dir = {ex2_files / 'out'}\n"
    text = "".join(line for line in text.splitlines(keepends=True) if not line.startswith(key))
    cfg = write_cfg(ex2_files / "c.cfg", text)
    before = sorted(ex2_files.rglob("*"))
    assert main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} is required")
    assert sorted(ex2_files.rglob("*")) == before


@pytest.mark.parametrize("key, value", [
    ("diagnose.sites", "0, 7"), ("diagnose.ritz_k", "9"),
    ("grid.n", "8"),  # H is 3 x 3
])
def test_bad_diagnose_index_fails_before_any_output(ex2_files, capsys, key, value):
    run = ex2_files / "run"
    run.mkdir()
    write_matrix(run / "P.mat", np.diag([1.0, 0.0, 0.0]))
    text = diag_cfg_text(ex2_files, run).replace("diagnose.sites = 0,2\n", "")
    # grid.n needs grid.length, its group's other key.
    grid = "grid.length = 10\n" if key == "grid.n" else ""
    cfg = write_cfg(ex2_files / "d.cfg", text + f"{grid}{key} = {value}\n")
    assert main(["diagnose", "--config", cfg]) == 1
    assert f"error: {key}" in capsys.readouterr().err
    assert sorted(path.name for path in run.iterdir()) == ["P.mat"]


@pytest.mark.parametrize("content", [
    "3\n1 0 0\n0 0\n0 0 0\n",  # a short row
    "3\n1 1 0\n0 0 0\n0 0 0\n",  # asymmetric
    "2\n1 0\n0 0\n",  # the Hamiltonian is 3 x 3
], ids=["malformed", "asymmetric", "wrong-size"])
def test_bad_solution_fails_before_any_output(ex2_files, capsys, content):
    run = ex2_files / "run"
    run.mkdir()
    (run / "P.mat").write_text(content)
    out = ex2_files / "out"
    cfg = write_cfg(ex2_files / "d.cfg", diag_cfg_text(ex2_files, run) + f"output.dir = {out}\n")
    assert main(["diagnose", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: run.dir: ")
    assert not out.exists()


def test_diagnose_on_exact_projector(ex2_files):
    run = ex2_files / "run"
    run.mkdir()
    write_matrix(run / "P.mat", np.diag([1.0, 0.0, 0.0]))
    cfg = write_cfg(ex2_files / "d.cfg", diag_cfg_text(ex2_files, run))
    assert main(["diagnose", "--config", cfg]) == 0
    with open(run / "occupation.csv", newline="") as fh:
        f = [float(r["f"]) for r in csv.DictReader(fh)]
    assert f[0] == pytest.approx(1.0, abs=1e-8)
    assert max(f[1:]) <= 1e-8
    assert (run / "theta.csv").is_file()
    assert (run / "ritz.csv").is_file()
    assert (run / "delta_site_0.csv").is_file()
    assert (run / "delta_site_2.csv").is_file()
    assert not (run / "saddle.csv").exists()


def test_diagnose_extracts_saddle_history(ex2_files):
    out = ex2_files / "run"
    solve_cfg = write_cfg(
        ex2_files / "s.cfg", solve_cfg_text(ex2_files, out, with_saddle=True)
    )
    assert main(["solve", "--config", solve_cfg]) == 0
    diag_cfg = write_cfg(
        ex2_files / "d.cfg", diag_cfg_text(ex2_files, out, with_saddle=True)
    )
    assert main(["diagnose", "--config", diag_cfg]) == 0
    with open(out / "saddle.csv", newline="") as fh:
        dist = [float(r["saddle_distance"]) for r in csv.DictReader(fh)]
    assert len(dist) > 10
    assert all(b <= a + 1e-10 for a, b in zip(dist, dist[1:]))


def test_diagnose_without_recorded_saddle_errors(ex2_files, capsys):
    out = ex2_files / "run"
    solve_cfg = write_cfg(ex2_files / "s.cfg", solve_cfg_text(ex2_files, out))
    assert main(["solve", "--config", solve_cfg]) == 0
    diag_cfg = write_cfg(
        ex2_files / "d.cfg", diag_cfg_text(ex2_files, out, with_saddle=True)
    )
    assert main(["diagnose", "--config", diag_cfg]) == 1
    assert "saddle" in capsys.readouterr().err


@pytest.mark.parametrize("history", [None, "iter,objective\n1,0.5\n"], ids=["missing", "no-column"])
def test_diagnose_without_saddle_history_fails_before_any_output(ex2_files, capsys, history):
    run = ex2_files / "run"
    run.mkdir()
    write_matrix(run / "P.mat", np.diag([1.0, 0.0, 0.0]))
    if history is not None:
        (run / "history.csv").write_text(history)
    cfg = write_cfg(ex2_files / "d.cfg", diag_cfg_text(ex2_files, run, with_saddle=True))
    assert main(["diagnose", "--config", cfg]) == 1
    assert "error: run.dir" in capsys.readouterr().err
    assert sorted(path.name for path in run.glob("*.csv")) == ["history.csv"] * (history is not None)


SUMMARY_HEADER = ("converged,iterations,objective,residual_Q,residual_R,delta_P,"
                  "asymmetry,trace_error,eig_below,eig_above")
CSV_HEADERS = {
    "run/history.csv": "iter,objective,residual_Q,residual_R,delta_P,saddle_distance",
    "run/summary.csv": SUMMARY_HEADER,
    "diag/occupation.csv": "index,f",
    "diag/theta.csv": "index,theta",
    "diag/delta_site_0.csv": "x,value",
    "diag/delta_site_2.csv": "x,value",
    "diag/ritz.csv": "index,eig_PH,eig_H",
    "diag/saddle.csv": "iter,saddle_distance",
    "exact/spectrum.csv": "index,eigenvalue",
    "sweep/sweep.csv": "mu,trHP,exact_energy,l1,space_approx,sparsity",
    "sweep/mu_10/history.csv": "iter,objective,residual_Q,residual_R,delta_P",
    "sweep/mu_10/summary.csv": SUMMARY_HEADER,
    "sweep/mu_40/history.csv": "iter,objective,residual_Q,residual_R,delta_P",
    "sweep/mu_40/summary.csv": SUMMARY_HEADER,
}


def test_every_csv_written_has_its_header(ex2_files):
    root = ex2_files / "out"
    run = root / "run"
    configs = {
        "solve": solve_cfg_text(ex2_files, run, with_saddle=True, extra="solver.record_every = 3\n"),
        "diagnose": diag_cfg_text(ex2_files, run, with_saddle=True) + f"output.dir = {root / 'diag'}\n",
        "exact": solve_cfg_text(ex2_files, root / "exact"),
        "sweep": sweep_cfg_text(root / "sweep"),
    }
    for command, text in configs.items():
        assert main([command, "--config", write_cfg(ex2_files / f"{command}.cfg", text)]) == 0
    written = {path.relative_to(root).as_posix(): path.read_text().splitlines()[0]
               for path in root.rglob("*.csv")}
    assert written == CSV_HEADERS
