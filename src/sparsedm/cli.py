"""Command-line driver: build a Hamiltonian, run the solver, and emit
matrices and CSV reports for later plotting.

Subcommands: solve (one run), sweep (several mu values, optionally in
parallel threads), exact (eigensolver reference projector), diagnose
(measurements on a finished run). Configuration is a flat text file of
`key = value` lines with dotted keys, e.g.

    hamiltonian.kind = kronig_penney
    grid.length = 100
    grid.n = 256
    solver.mu = 100
    solver.n_occ = 10
    output.dir = runs/kp10

Exit codes: 0 success, 1 bad input, 2 solver hit max_iter (for sweeps:
at least one run did).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import glob
import math
import os
import sys
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
from .linalg import entrywise_l1, write_matrix
from .solver import (
    SaddlePoint,
    SolverParams,
    SolverResult,
    feasibility,
    solve,
    write_history_csv,
)

THREADS_ENV = "SPARSEDM_SWEEP_THREADS"

KNOWN_KEYS = {
    "hamiltonian.kind",
    "hamiltonian.path",
    "hamiltonian.v0",
    "hamiltonian.delta",
    "hamiltonian.n_wells",
    "hamiltonian.centers",
    "grid.length",
    "grid.n",
    "solver.mu",
    "solver.lambda",
    "solver.r",
    "solver.n_occ",
    "solver.tol",
    "solver.max_iter",
    "solver.record_every",
    "output.dir",
    "initial.path",
    "saddle.p",
    "saddle.q",
    "saddle.r",
    "saddle.b",
    "saddle.d",
    "run.dir",
    "diagnose.sites",
    "diagnose.ritz_k",
}


class ConfigError(Exception):
    """Invalid or missing configuration; the message names the field."""


@dataclass
class RunConfig:
    ham: HamiltonianSpec
    grid: Grid1D | None
    mus: tuple[float, ...]
    n_occ: int
    lam: float
    r: float
    tol: float
    max_iter: int
    record_every: int
    out_dir: Path | None
    initial_path: Path | None
    saddle_paths: tuple[Path, Path, Path, Path, Path] | None
    run_dir: Path | None
    sites: tuple[int, ...] | None
    ritz_k: int | None

    def solver_params(self, mu: float) -> SolverParams:
        return SolverParams(
            mu=mu, n_occ=self.n_occ, lam=self.lam, r=self.r,
            tol=self.tol, max_iter=self.max_iter, record_every=self.record_every,
        )


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


def _take(entries: dict[str, str], key: str) -> str | None:
    return entries.pop(key, None)


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_mu_list(raw: str) -> tuple[float, ...]:
    mus = []
    for part in raw.split(","):
        part = part.strip()
        if part.lower() == "inf":
            mus.append(math.inf)
            continue
        value = _parse_float("solver.mu", part)
        mus.append(value)
    if not mus:
        raise ConfigError("solver.mu: empty list")
    seen: dict[str, float] = {}
    for value in mus:
        if math.isnan(value) or value <= 0:
            raise ConfigError(f"solver.mu must be positive (or inf), got {value}")
        name = _run_dir_name(value)
        if name in seen:
            if seen[name] == value:
                raise ConfigError(f"solver.mu: duplicate value {value!r}")
            raise ConfigError(
                f"solver.mu: values {seen[name]!r} and {value!r} would share "
                f"the sweep directory {name}"
            )
        seen[name] = value
    return tuple(mus)


def _run_dir_name(mu: float) -> str:
    """Sweep subdirectory of one mu value."""
    return f"mu_{mu:g}"


def _existing_path(key: str, raw: str) -> Path:
    path = Path(raw)
    if not path.is_file():
        raise ConfigError(f"{key}: file not found: {path}")
    return path


def load_config(path: str | Path, out_override: str | None = None) -> RunConfig:
    """Read and validate a config file; --out overrides output.dir."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    entries = parse_config_text(text)
    unknown = set(entries) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}'")

    kind = _take(entries, "hamiltonian.kind")
    if kind is None:
        raise ConfigError("hamiltonian.kind is required")
    if kind not in HamiltonianSpec.KINDS:
        raise ConfigError(f"hamiltonian.kind must be one of {', '.join(HamiltonianSpec.KINDS)}; got {kind!r}")

    ham_path = _take(entries, "hamiltonian.path")
    v0 = _take(entries, "hamiltonian.v0")
    delta = _take(entries, "hamiltonian.delta")
    n_wells = _take(entries, "hamiltonian.n_wells")
    centers_raw = _take(entries, "hamiltonian.centers")
    centers = None
    if centers_raw is not None:
        centers = tuple(
            _parse_float("hamiltonian.centers", part) for part in centers_raw.split(",")
        )
    try:
        ham = HamiltonianSpec(
            kind=kind,
            well_depth=1.0 if v0 is None else _parse_float("hamiltonian.v0", v0),
            well_width=3.0 if delta is None else _parse_float("hamiltonian.delta", delta),
            n_wells=10 if n_wells is None else _parse_int("hamiltonian.n_wells", n_wells),
            centers=centers,
            path=None if ham_path is None else _existing_path("hamiltonian.path", ham_path),
        )
    except ValueError as exc:
        raise ConfigError(f"hamiltonian: {exc}") from None

    length_raw = _take(entries, "grid.length")
    n_raw = _take(entries, "grid.n")
    grid = None
    if kind != "from_file":
        if length_raw is None or n_raw is None:
            raise ConfigError(f"grid.length and grid.n are required for kind {kind}")
    if length_raw is not None and n_raw is not None:
        try:
            grid = Grid1D(
                length=_parse_float("grid.length", length_raw),
                n=_parse_int("grid.n", n_raw),
            )
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from None

    mu_raw = _take(entries, "solver.mu")
    if mu_raw is None:
        raise ConfigError("solver.mu is required")
    mus = _parse_mu_list(mu_raw)

    n_occ_raw = _take(entries, "solver.n_occ")
    if n_occ_raw is None:
        raise ConfigError("solver.n_occ is required")
    n_occ = _parse_int("solver.n_occ", n_occ_raw)
    if n_occ < 1:
        raise ConfigError(f"solver.n_occ must be at least 1, got {n_occ}")

    def scalar(key: str, default: float) -> float:
        raw = _take(entries, key)
        return default if raw is None else _parse_float(key, raw)

    def integer(key: str, default: int) -> int:
        raw = _take(entries, key)
        return default if raw is None else _parse_int(key, raw)

    lam = scalar("solver.lambda", 1.0)
    r = scalar("solver.r", 1.0)
    tol = scalar("solver.tol", 1e-6)
    max_iter = integer("solver.max_iter", 10000)
    record_every = integer("solver.record_every", 1)
    for key, value, floor in (
        ("solver.lambda", lam, 0.0), ("solver.r", r, 0.0), ("solver.tol", tol, 0.0),
    ):
        if not value > floor or math.isnan(value):
            raise ConfigError(f"{key} must be positive, got {value}")
    if max_iter < 1:
        raise ConfigError(f"solver.max_iter must be at least 1, got {max_iter}")
    if record_every < 1:
        raise ConfigError(f"solver.record_every must be at least 1, got {record_every}")

    out_raw = _take(entries, "output.dir")
    out_dir = Path(out_override) if out_override else (Path(out_raw) if out_raw else None)

    initial_raw = _take(entries, "initial.path")
    initial_path = None if initial_raw is None else _existing_path("initial.path", initial_raw)

    saddle_raws = [_take(entries, f"saddle.{name}") for name in ("p", "q", "r", "b", "d")]
    saddle_paths = None
    if any(raw is not None for raw in saddle_raws):
        if any(raw is None for raw in saddle_raws):
            raise ConfigError("saddle.p, saddle.q, saddle.r, saddle.b, saddle.d "
                              "must be given together")
        saddle_paths = tuple(
            _existing_path(f"saddle.{name}", raw)
            for name, raw in zip(("p", "q", "r", "b", "d"), saddle_raws)
        )

    run_raw = _take(entries, "run.dir")
    run_dir = None if run_raw is None else Path(run_raw)

    sites_raw = _take(entries, "diagnose.sites")
    sites = None
    if sites_raw is not None:
        sites = tuple(_parse_int("diagnose.sites", part) for part in sites_raw.split(","))

    ritz_raw = _take(entries, "diagnose.ritz_k")
    ritz_k = None if ritz_raw is None else _parse_int("diagnose.ritz_k", ritz_raw)

    return RunConfig(
        ham=ham, grid=grid, mus=mus, n_occ=n_occ, lam=lam, r=r, tol=tol,
        max_iter=max_iter, record_every=record_every, out_dir=out_dir,
        initial_path=initial_path, saddle_paths=saddle_paths, run_dir=run_dir,
        sites=sites, ritz_k=ritz_k,
    )


def _require_out(cfg: RunConfig) -> Path:
    if cfg.out_dir is None:
        raise ConfigError("output.dir is required (or pass --out)")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg.out_dir


def _load_saddle(cfg: RunConfig) -> SaddlePoint | None:
    if cfg.saddle_paths is None:
        return None
    return SaddlePoint(*(load_matrix(p) for p in cfg.saddle_paths))


def _write_summary(path: Path, result: SolverResult, n_occ: float) -> None:
    last = result.history[-1]
    rep = feasibility(result.P, n_occ)
    header = ("converged,iterations,objective,residual_Q,residual_R,delta_P,"
              "asymmetry,trace_error,eig_below,eig_above")
    row = (
        f"{'true' if result.converged else 'false'},{result.iterations},"
        f"{last.objective:.16e},{last.residual_q:.16e},{last.residual_r:.16e},"
        f"{last.delta_p:.16e},{rep.asymmetry:.16e},{rep.trace_error:.16e},"
        f"{rep.eig_below:.16e},{rep.eig_above:.16e}"
    )
    path.write_text(header + "\n" + row + "\n")


def _run_one(cfg: RunConfig, H: np.ndarray, mu: float, out: Path) -> SolverResult:
    """Solve for one mu and write the standard run artifacts into out."""
    initial = None if cfg.initial_path is None else load_matrix(cfg.initial_path)
    result = solve(H, cfg.solver_params(mu), initial=initial, saddle_ref=_load_saddle(cfg))
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out / "P.mat", result.P)
    write_matrix(out / "Q.mat", result.Q)
    write_matrix(out / "R.mat", result.R)
    write_history_csv(out / "history.csv", result.history)
    _write_summary(out / "summary.csv", result, cfg.n_occ)
    return result


def cmd_solve(cfg: RunConfig) -> int:
    if len(cfg.mus) != 1:
        raise ConfigError(f"solver.mu: solve takes a single value, got {len(cfg.mus)}")
    out = _require_out(cfg)
    H = build_hamiltonian(cfg.ham, cfg.grid)
    result = _run_one(cfg, H, cfg.mus[0], out)
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
    """Pool size: SPARSEDM_SWEEP_THREADS, else the CPUs this process may run on.

    Never more than n_runs, since each worker takes one mu value.
    """
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        try:
            threads = len(os.sched_getaffinity(0))
        except AttributeError:  # no CPU affinity on this platform
            threads = os.cpu_count() or 1
    else:
        try:
            threads = int(raw)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV}: expected an integer, got {raw!r}") from None
        if threads < 1:
            raise ConfigError(f"{THREADS_ENV} must be at least 1, got {threads}")
    return min(threads, n_runs)


def cmd_sweep(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    H = build_hamiltonian(cfg.ham, cfg.grid)
    workers = _sweep_workers(len(cfg.mus))

    def run(mu: float):
        return _run_one(cfg, H, mu, out / _run_dir_name(mu))

    status = 0
    rows = []
    # Parallel solves share the cores, so each worker's BLAS gets one
    # thread; a single solve keeps the default, which is faster for it.
    blas = _one_blas_thread() if workers > 1 else nullcontext()
    with blas, ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {mu: pool.submit(run, mu) for mu in cfg.mus}
        for mu in sorted(cfg.mus):
            try:
                result = futures[mu].result()
            except Exception as exc:
                print(f"error: run mu={mu:g} failed: {exc}", file=sys.stderr)
                status = 2
                continue
            if not result.converged:
                status = 2
            trhp, exact = energy_gap_metrics(result.P, H, cfg.n_occ)
            rows.append((
                mu, trhp, exact, entrywise_l1(result.P),
                space_approximation(result.P, H, cfg.n_occ),
                sparsity_fraction(result.P),
            ))
    write_sweep_csv(out / "sweep.csv", rows)
    return status


def cmd_exact(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    H = build_hamiltonian(cfg.ham, cfg.grid)
    if cfg.n_occ > H.shape[0]:
        raise ConfigError(f"solver.n_occ = {cfg.n_occ} exceeds the dimension {H.shape[0]}")
    P = exact_density_matrix(H, cfg.n_occ)
    write_matrix(out / "P_exact.mat", P)
    w = np.linalg.eigvalsh(H)
    lines = ["index,eigenvalue"]
    lines += [f"{i},{x:.16e}" for i, x in enumerate(w, start=1)]
    (out / "spectrum.csv").write_text("\n".join(lines) + "\n")
    return 0


def _extract_saddle_csv(history_path: Path, dest: Path) -> None:
    """Copy iter + saddle_distance out of a run's history.csv verbatim."""
    with open(history_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "saddle_distance" not in reader.fieldnames:
            raise ConfigError(
                f"{history_path} has no saddle_distance column; "
                "run solve with the saddle.* reference paths in the config"
            )
        lines = ["iter,saddle_distance"]
        lines += [f"{row['iter']},{row['saddle_distance']}" for row in reader]
    dest.write_text("\n".join(lines) + "\n")


def cmd_diagnose(cfg: RunConfig) -> int:
    if cfg.run_dir is None:
        raise ConfigError("run.dir is required for diagnose")
    p_path = cfg.run_dir / "P.mat"
    if not p_path.is_file():
        print(f"error: no solution found: {p_path} is missing", file=sys.stderr)
        return 1
    P = load_matrix(p_path)
    out = cfg.out_dir if cfg.out_dir is not None else cfg.run_dir
    out.mkdir(parents=True, exist_ok=True)
    H = build_hamiltonian(cfg.ham, cfg.grid)
    n = H.shape[0]
    if P.shape[0] != n:
        raise ConfigError(
            f"run.dir: {p_path} has dimension {P.shape[0]} but the Hamiltonian has {n}"
        )

    spectrum = occupation_numbers(P)
    write_occupation_csv(out / "occupation.csv", spectrum.values)
    write_theta_csv(out / "theta.csv", band_occupations(P, H))

    sites = cfg.sites if cfg.sites is not None else (n // 2,)
    xs = cfg.grid.points() if cfg.grid is not None else np.arange(n, dtype=float)
    for site, column in zip(sites, delta_projections(P, list(sites))):
        write_delta_csv(out / f"delta_site_{site}.csv", xs, column)

    k = cfg.ritz_k if cfg.ritz_k is not None else cfg.n_occ
    ritz, exact = ritz_compare(P, H, k)
    lines = ["index,eig_PH,eig_H"]
    lines += [
        f"{i},{a:.16e},{b:.16e}" for i, (a, b) in enumerate(zip(ritz, exact), start=1)
    ]
    (out / "ritz.csv").write_text("\n".join(lines) + "\n")

    if cfg.saddle_paths is not None:
        _extract_saddle_csv(cfg.run_dir / "history.csv", out / "saddle.csv")
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
