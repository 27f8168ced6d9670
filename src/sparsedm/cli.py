"""Command-line driver: build a Hamiltonian, run the solver, and emit
matrices and CSV reports for later plotting.

Subcommands: solve (one run), sweep (several mu values on a thread pool
with one worker per CPU in the process's affinity, at most one per mu),
exact (eigensolver reference projector), diagnose (measurements on a
finished run). Configuration is a flat text file of `key = value` lines
with dotted keys; KEYS lists them all, and the README has an example.

Exit codes: 0 success, 1 bad input, 2 solver hit max_iter (for sweeps:
at least one run did).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import glob
import inspect
import os
import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .diagnostics import (
    band_occupations,
    delta_projections,
    energy_gap_metrics,
    exact_density_matrix,
    occupation_numbers,
    ritz_compare,
    space_approximation,
    sparsity_fraction,
    write_delta_csv,
    write_occupation_csv,
    write_sweep_csv,
    write_theta_csv,
)
from .hamiltonian import Grid1D, HamiltonianSpec, build_hamiltonian, load_matrix
from .linalg import SpectralDecomposition, entrywise_l1, sym_eig, write_csv, write_matrix
from .solver import (
    SaddlePoint,
    SolverParams,
    SolverResult,
    SolverState,
    feasibility,
    init_state,
    solve,
    write_history_csv,
)

class ConfigError(Exception):
    """Invalid or missing configuration; the message names the config key."""


@dataclass
class RunConfig:
    ham: HamiltonianSpec
    grid: Grid1D | None
    runs: tuple[SolverParams, ...]
    out_dir: Path | None = None
    initial_path: Path | None = None
    saddle_paths: SaddlePoint | None = None
    run_dir: Path | None = None
    sites: tuple[int, ...] | None = None
    ritz_k: int | None = None


def _list_of(parse: Callable[[str], object]) -> Callable[[str], tuple]:
    return lambda raw: tuple(parse(part.strip()) for part in raw.split(","))


def _existing_file(raw: str) -> Path:
    path = Path(raw)
    if not path.is_file():
        raise ValueError(f"file not found: {path}")
    return path


def _path(raw: str) -> Path | None:
    return Path(raw) if raw else None


# Config key -> (class, field it sets, parser). Defaults and valid ranges
# are the classes' own. The mu key gives one SolverParams per listed value,
# and the saddle reference files fill a SaddlePoint of paths.
KEYS: dict[str, tuple[type, str, Callable[[str], object]]] = {
    "hamiltonian.kind": (HamiltonianSpec, "kind", str),
    "hamiltonian.path": (HamiltonianSpec, "path", _existing_file),
    "hamiltonian.v0": (HamiltonianSpec, "well_depth", float),
    "hamiltonian.delta": (HamiltonianSpec, "well_width", float),
    "hamiltonian.n_wells": (HamiltonianSpec, "n_wells", int),
    "hamiltonian.centers": (HamiltonianSpec, "centers", _list_of(float)),
    "grid.length": (Grid1D, "length", float),
    "grid.n": (Grid1D, "n", int),
    "solver.mu": (SolverParams, "mu", _list_of(float)),
    "solver.lambda": (SolverParams, "lam", float),
    "solver.r": (SolverParams, "r", float),
    "solver.n_occ": (SolverParams, "n_occ", int),
    "solver.tol": (SolverParams, "tol", float),
    "solver.max_iter": (SolverParams, "max_iter", int),
    "solver.record_every": (SolverParams, "record_every", int),
    "output.dir": (RunConfig, "out_dir", _path),
    "initial.path": (RunConfig, "initial_path", _existing_file),
    "saddle.p": (SaddlePoint, "P", _existing_file),
    "saddle.q": (SaddlePoint, "Q", _existing_file),
    "saddle.r": (SaddlePoint, "R", _existing_file),
    "saddle.b": (SaddlePoint, "b", _existing_file),
    "saddle.d": (SaddlePoint, "d", _existing_file),
    "run.dir": (RunConfig, "run_dir", _path),
    "diagnose.sites": (RunConfig, "sites", _list_of(int)),
    "diagnose.ritz_k": (RunConfig, "ritz_k", int),
}


def _key(cls: type, field: str) -> str | None:
    """Config key that sets cls.field; None if no key does."""
    return next((key for key, (c, f, _) in KEYS.items() if (c, f) == (cls, field)), None)


def _keyed(exc: ValueError, *classes: type) -> Exception:
    """exc as a ConfigError naming the key of the field of classes that its
    message starts with, as their range checks do; exc itself if none."""
    field = str(exc).partition(" ")[0]
    key = next(filter(None, (_key(cls, field) for cls in classes)), None)
    return exc if key is None else ConfigError(f"{key}: {exc}")


def _missing(cls: type, values: dict) -> list[str]:
    """Keys of the fields of cls that have no default and no value."""
    params = inspect.signature(cls).parameters
    return [
        key for key, (c, field, _) in KEYS.items()
        if c is cls and field not in values and params[field].default is params[field].empty
    ]


def _build(cls: type, values: dict):
    """cls(**values); a rejected value becomes a ConfigError naming its key."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise _keyed(exc, cls) from None


def parse_config_text(text: str) -> dict[str, str]:
    """Flat `key = value` lines; blank lines and full-line # comments skipped."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not eq or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        entries[key] = value
    return entries


def _run_dir_name(mu: float) -> str:
    """Sweep subdirectory of one mu value."""
    return f"mu_{mu:g}"


def _check_run_dirs(runs: tuple[SolverParams, ...]) -> None:
    """Reject mu values that repeat or share a sweep directory."""
    seen: dict[str, float] = {}
    for params in runs:
        name = _run_dir_name(params.mu)
        if name in seen:
            if seen[name] == params.mu:
                raise ConfigError(f"{_key(SolverParams, 'mu')}: duplicate value {params.mu!r}")
            raise ConfigError(
                f"{_key(SolverParams, 'mu')}: values {seen[name]!r} and {params.mu!r} "
                f"would share the sweep directory {name}"
            )
        seen[name] = params.mu


def load_config(path: str | Path, out_override: str | None = None) -> RunConfig:
    """Read and validate a config file; out_override replaces its output directory.

    Each key group holds every key its class needs, or none: hamiltonian.*
    and solver.* are required, grid.* too unless the kind is from_file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    entries = parse_config_text(text)
    unknown = sorted(set(entries) - KEYS.keys())
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}'")

    values: dict[type, dict] = defaultdict(dict)
    for key, raw in entries.items():
        cls, field, parse = KEYS[key]
        try:
            values[cls][field] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    for cls in (HamiltonianSpec, SolverParams, Grid1D, SaddlePoint):
        given = [key for key in entries if KEYS[key][0] is cls]
        missing = _missing(cls, values[cls])
        if missing and (given or cls in (HamiltonianSpec, SolverParams)):
            raise ConfigError(f"{missing[0]} is required" + (f" with {given[0]}" if given else ""))

    ham = _build(HamiltonianSpec, values[HamiltonianSpec])
    grid = _build(Grid1D, values[Grid1D]) if values[Grid1D] else None
    if grid is None and ham.kind != "from_file":
        raise ConfigError(f"{_missing(Grid1D, {})[0]} is required for kind {ham.kind}")

    solver = values[SolverParams]
    runs = tuple(_build(SolverParams, {**solver, "mu": mu}) for mu in solver["mu"])
    _check_run_dirs(runs)

    saddle = values[SaddlePoint]
    run = values[RunConfig]
    if out_override:
        run["out_dir"] = Path(out_override)
    return RunConfig(ham=ham, grid=grid, runs=runs,
                     saddle_paths=SaddlePoint(**saddle) if saddle else None, **run)


def _hamiltonian(cfg: RunConfig) -> np.ndarray:
    """Build H and check grid.n (for a from_file H), n_occ, the diagnose
    sites and ritz_k against its dimension, before any output is made. A
    from_file load error names hamiltonian.path; a build error that starts
    with a spec or grid field names its key."""
    try:
        H = build_hamiltonian(cfg.ham, cfg.grid)
    except ValueError as exc:
        if cfg.ham.kind == "from_file":
            raise ConfigError(f"{_key(HamiltonianSpec, 'path')}: {exc}") from None
        raise _keyed(exc, HamiltonianSpec, Grid1D) from None
    n = H.shape[0]
    if cfg.grid is not None and cfg.grid.n != n:
        raise ConfigError(f"{_key(Grid1D, 'n')} = {cfg.grid.n} but the Hamiltonian has dimension {n}")
    n_occ = cfg.runs[0].n_occ
    if n_occ > n:
        raise ConfigError(f"{_key(SolverParams, 'n_occ')} = {n_occ} exceeds the dimension {n}")
    for site in cfg.sites or ():
        if not 0 <= site < n:
            raise ConfigError(f"{_key(RunConfig, 'sites')}: site {site} is outside 0..{n - 1}")
    if cfg.ritz_k is not None and not 1 <= cfg.ritz_k <= n:
        raise ConfigError(f"{_key(RunConfig, 'ritz_k')} = {cfg.ritz_k} is outside 1..{n}")
    return H


def _load_square(key: str, path: Path, n: int) -> np.ndarray:
    """load_matrix(path), which must be n x n; errors name the config key."""
    try:
        a = load_matrix(path)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    if a.shape[0] != n:
        raise ConfigError(f"{key}: {path} has dimension {a.shape[0]} but the Hamiltonian has {n}")
    return a


def _start_inputs(cfg: RunConfig, H: np.ndarray) -> tuple[SolverState | None, SaddlePoint | None]:
    """The start state built from the initial matrix, and the saddle
    reference, loaded and checked once per command, before any output is
    made. ``init_state`` checks the initial matrix (``check_initial``: its
    shape, symmetry and feasibility), and a load or check error names
    initial.path. Every run starts from that one state (they share n_occ),
    so no solve checks the initial matrix again."""
    start = saddle = None
    if cfg.initial_path is not None:
        try:
            start = init_state(H, cfg.runs[0], load_matrix(cfg.initial_path))
        except ValueError as exc:
            raise ConfigError(f"{_key(RunConfig, 'initial_path')}: {exc}") from None
    if cfg.saddle_paths is not None:
        saddle = SaddlePoint(*(
            _load_square(_key(SaddlePoint, field), path, H.shape[0])
            for field, path in zip(SaddlePoint._fields, cfg.saddle_paths)
        ))
    return start, saddle


def _require_out(cfg: RunConfig) -> Path:
    if cfg.out_dir is None:
        raise ConfigError(f"{_key(RunConfig, 'out_dir')} is required (or pass --out)")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg.out_dir


def _write_summary(path: Path, result: SolverResult, n_occ: float) -> None:
    last = result.history[-1]
    header = ("converged", "iterations", "objective", "residual_Q", "residual_R", "delta_P",
              "asymmetry", "trace_error", "eig_below", "eig_above")
    row = ("true" if result.converged else "false", result.iterations, last.objective,
           last.residual_q, last.residual_r, last.delta_p, *feasibility(result.P, n_occ))
    write_csv(path, header, [row])


def _run_one(H: np.ndarray, params: SolverParams, out: Path,
             start: SolverState | None, saddle: SaddlePoint | None) -> SolverResult:
    """Solve one run and write the standard run artifacts into out."""
    result = solve(H, params, initial=start, saddle_ref=saddle)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out / "P.mat", result.P)
    write_matrix(out / "Q.mat", result.Q)
    write_matrix(out / "R.mat", result.R)
    write_history_csv(out / "history.csv", result.history)
    _write_summary(out / "summary.csv", result, params.n_occ)
    return result


def cmd_solve(cfg: RunConfig) -> int:
    if len(cfg.runs) != 1:
        raise ConfigError(
            f"{_key(SolverParams, 'mu')}: solve takes a single value, got {len(cfg.runs)}"
        )
    H = _hamiltonian(cfg)
    start, saddle = _start_inputs(cfg, H)
    out = _require_out(cfg)
    result = _run_one(H, cfg.runs[0], out, start, saddle)
    return 0 if result.converged else 2


class _BlasThreads(NamedTuple):
    """Getter and setter of the thread count of numpy's OpenBLAS."""

    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def _blas_threads() -> _BlasThreads | None:
    """Find numpy's OpenBLAS thread control through ctypes; None where there is none."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return _BlasThreads(get, set_)
    return None


@contextmanager
def _one_blas_thread():
    """Limit OpenBLAS to one thread inside the block, then restore its count.

    The limit is process-wide: every thread's BLAS calls run on one
    thread until the block exits. Without a thread control it does nothing.
    """
    control = _blas_threads()
    if control is None:
        yield
        return
    before = control.get()
    control.set(1)
    try:
        yield
    finally:
        control.set(before)


def _sweep_workers(n_runs: int) -> int:
    """Pool size: the CPUs this process may run on, never more than n_runs,
    since each worker takes one mu value."""
    try:
        threads = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        threads = os.cpu_count() or 1
    return min(threads, n_runs)


def cmd_sweep(cfg: RunConfig) -> int:
    H = _hamiltonian(cfg)
    start, saddle = _start_inputs(cfg, H)
    out = _require_out(cfg)
    workers = _sweep_workers(len(cfg.runs))
    n_occ = cfg.runs[0].n_occ
    # The metrics read H's eigenvalues and its n_occ lowest eigenvectors
    # only, so the other n - n_occ eigenvectors are freed here.
    w, v = sym_eig(H)
    h_eig = SpectralDecomposition(w, v[:, :n_occ].copy())
    del v

    def run(params: SolverParams) -> tuple[bool, np.ndarray]:
        # Only P leaves the worker: Q, R, b, d and the history of a
        # finished run are on disk and freed here.
        result = _run_one(H, params, out / _run_dir_name(params.mu), start, saddle)
        return result.converged, result.P

    status = 0
    rows = []
    # Parallel solves share the cores, so each worker's BLAS gets one
    # thread; a single solve keeps the default, which is faster for it.
    blas = _one_blas_thread() if workers > 1 else nullcontext()
    with blas, ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {params: pool.submit(run, params) for params in cfg.runs}
        for params in sorted(cfg.runs, key=lambda p: p.mu):
            try:
                converged, P = futures.pop(params).result()
            except Exception as exc:
                detail = f"{exc} ({type(exc).__name__})".lstrip()
                print(f"error: run mu={params.mu:g} failed: {detail}", file=sys.stderr)
                status = 2
                continue
            if not converged:
                status = 2
            trhp, exact = energy_gap_metrics(P, H, n_occ, h_eig=h_eig)
            rows.append((
                params.mu, trhp, exact, entrywise_l1(P),
                space_approximation(P, H, n_occ, h_eig=h_eig), sparsity_fraction(P),
            ))
            del P  # held no longer than its row
    write_sweep_csv(out / "sweep.csv", rows)
    return status


def cmd_exact(cfg: RunConfig) -> int:
    H = _hamiltonian(cfg)
    h_eig = sym_eig(H)
    out = _require_out(cfg)
    write_matrix(out / "P_exact.mat", exact_density_matrix(H, cfg.runs[0].n_occ, h_eig=h_eig))
    write_csv(out / "spectrum.csv", ("index", "eigenvalue"),
              enumerate(h_eig.eigenvalues, start=1))
    return 0


def _extract_saddle_csv(history_path: Path) -> list[tuple[str, str]]:
    """The iter and saddle_distance cells of a run's history.csv, verbatim."""
    if history_path.is_file():
        with open(history_path, newline="") as fh:
            reader = csv.DictReader(fh)
            if "saddle_distance" in (reader.fieldnames or ()):
                return [(row["iter"], row["saddle_distance"]) for row in reader]
    raise ConfigError(f"{_key(RunConfig, 'run_dir')}: {history_path} is missing or has no "
                      "saddle_distance column; run solve with the saddle.* reference paths")


def cmd_diagnose(cfg: RunConfig) -> int:
    if cfg.run_dir is None:
        raise ConfigError(f"{_key(RunConfig, 'run_dir')} is required for diagnose")
    p_path = cfg.run_dir / "P.mat"
    if not p_path.is_file():
        raise ConfigError(f"{_key(RunConfig, 'run_dir')}: no solution found: {p_path} is missing")
    H = _hamiltonian(cfg)
    n = H.shape[0]
    P = _load_square(_key(RunConfig, "run_dir"), p_path, n)
    saddle = None if cfg.saddle_paths is None else _extract_saddle_csv(cfg.run_dir / "history.csv")
    out = cfg.out_dir if cfg.out_dir is not None else cfg.run_dir
    out.mkdir(parents=True, exist_ok=True)

    h_eig = sym_eig(H)
    write_theta_csv(out / "theta.csv", band_occupations(P, H, h_eig=h_eig))
    # Past theta only ritz_compare reads H's spectrum, and only its
    # eigenvalues: the eigenvectors are freed before P's eigensolve, so one
    # n x n decomposition is held at a time.
    h_eig = SpectralDecomposition(h_eig.eigenvalues, np.empty((n, 0)))
    p_eig = sym_eig(P)
    write_occupation_csv(out / "occupation.csv", occupation_numbers(P, p_eig=p_eig).values)

    sites = cfg.sites if cfg.sites is not None else (n // 2,)
    xs = cfg.grid.points() if cfg.grid is not None else np.arange(n, dtype=float)
    for site, column in zip(sites, delta_projections(P, list(sites))):
        write_delta_csv(out / f"delta_site_{site}.csv", xs, column)

    k = cfg.ritz_k if cfg.ritz_k is not None else cfg.runs[0].n_occ
    ritz, exact = ritz_compare(P, H, k, p_eig=p_eig, h_eig=h_eig)
    write_csv(out / "ritz.csv", ("index", "eig_PH", "eig_H"), zip(range(1, k + 1), ritz, exact))

    if saddle is not None:
        write_csv(out / "saddle.csv", ("iter", "saddle_distance"), saddle)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sparsedm",
        description="Sparse density-matrix solver and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (
        ("solve", cmd_solve), ("sweep", cmd_sweep),
        ("exact", cmd_exact), ("diagnose", cmd_diagnose),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
        p.set_defaults(handler=handler)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, out_override=args.out)
        return args.handler(cfg)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
