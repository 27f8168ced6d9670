"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the checkout root)."""

import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import envinfo

envinfo.use_checkout_source()

from sparsedm import cli, diagnostics, hamiltonian, linalg, solver  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, check_report, check_solution, check_sweep  # noqa: E402
from spans import Span, Tracer, covered, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_on_synthetic_tree():
    # root on thread 1 with overlapping children, a grandchild, and one
    # child handed to thread 2, which does not reduce the root's self time.
    spans = [
        Span(0, "bench.op", 0.0, 10.0, None, 1, 0),
        Span(1, "cli.a", 1.0, 4.0, 0, 1, 0),
        Span(2, "cli.b", 3.0, 6.0, 0, 1, 0),
        Span(3, "linalg.c", 2.0, 3.0, 1, 1, 0),
        Span(4, "solver.d", 2.0, 9.0, 0, 2, 0),
        Span(5, "linalg.e", 4.0, 5.0, 4, 2, 0),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 6.0, 5: 1.0}
    assert covered([(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)], 0.0, 10.0) == 7.0


def test_op_metrics_self_times_add_up_to_wall():
    spans = [
        Span(0, "bench.op", 0.0, 10.0, None, 1, 0),
        Span(1, "solver.solve", 0.5, 9.5, 0, 1, 0),
        Span(2, "solver.step", 1.0, 5.0, 1, 1, 0),
        Span(3, "linalg.spectral_clamp", 2.0, 4.0, 2, 1, 0),
        Span(4, "linalg.sym_eig", 2.5, 3.5, 3, 1, 0),
    ]
    m = layers.op_metrics(spans, {"solver.iterations": 1, "solver.solves": 1}, n=4)
    assert m["trace.self_sum_frac"] == pytest.approx(1.0)
    assert m["layer.solver.self_ms"] == pytest.approx(1e3 * (5.0 + 2.0))
    assert m["layer.linalg.self_ms"] == pytest.approx(1e3 * 2.0)
    assert m["layer.bench.self_ms"] == pytest.approx(1e3 * 1.0)
    assert m["linalg.spectral_clamp.self_ms"] == pytest.approx(1e3 * 1.0)
    passes = layers.PASSES["solver.step"] + layers.PASSES["linalg.spectral_clamp"] \
        + layers.PASSES["linalg.sym_eig"] + layers.SOLVE_PASSES_PER_ITERATION
    assert m["linalg.bytes_computed_per_step"] == 8 * 16 * passes


def test_tracer_is_thread_safe():
    tracer = Tracer()
    threads, per_thread = 8, 500
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(_):
            for _ in range(per_thread):
                with tracer.span("linalg.work"):
                    tracer.count("hits")

        with tracer.operation():
            with ThreadPoolExecutor(threads) as pool:
                list(pool.map(work, range(threads), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert tracer.counters[0]["hits"] == threads * per_thread
    assert len(tracer.spans) == threads * per_thread + 1
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)


def test_traced_sweep_links_worker_spans_and_restores_names(tmp_path):
    cfg = workloads.write_config(tmp_path / "s.cfg", {
        "hamiltonian.kind": "free_laplacian", "grid.length": 10, "grid.n": 8,
        "solver.mu": "5, 10, 25", "solver.n_occ": 2, "solver.max_iter": 5, "output.dir": tmp_path / "out",
    })
    originals = (solver.spectral_clamp, cli.solve, cli.ThreadPoolExecutor)
    tracer = Tracer()
    tracer.install([linalg, hamiltonian, solver, diagnostics, cli])
    try:
        with tracer.operation():
            status = cli.main(["sweep", "--config", str(cfg)])
    finally:
        tracer.uninstall()
    assert (solver.spectral_clamp, cli.solve, cli.ThreadPoolExecutor) == originals
    assert status in (0, 2)
    by_id = {s.id: s for s in tracer.spans}
    tasks = [s for s in tracer.spans if s.name == "cli.pool_task"]
    assert len(tasks) == 3
    assert all(by_id[t.parent].name == "cli.cmd_sweep" for t in tasks)
    m = layers.per_layer(tracer, n=8, solo_iter_ms=0.01)
    assert m["trace.self_sum_frac"] == pytest.approx(1.0)
    assert m["solver.solves"] == 3 and m["cli.sweep.workers"] >= 1
    assert 0 < m["cli.sweep.overlap"] <= 1.0 + 1e-9
    assert m["cli.sweep.parallel_eff"] == pytest.approx(
        1e-5 * 15 / (m["cli.sweep.workers"] * 1e-3 * m["cli.cmd_sweep.ms"]))
    assert set(m) | {"ref.blas1_chain.iter_ms", "trace.op_ms", "trace.untraced_op_ms", "trace.overhead_ms"} \
        == {name for name, _ in layers.METRICS}


def _projector(n=24, n_occ=4):
    H = hamiltonian.build_kronig_penney(hamiltonian.Grid1D(10.0, n), hamiltonian.HamiltonianSpec("kronig_penney", n_wells=4))
    w, v = np.linalg.eigh(H)
    return H, w, v[:, :n_occ] @ v[:, :n_occ].T


def test_check_solution_rejects_trace_off_by_1e_3():
    H, w, P = _projector()
    check_solution(P, H, w, 4, tol=1e-6)
    bad = P + (1e-3 / P.shape[0]) * np.eye(P.shape[0])
    with pytest.raises(CheckFailed, match="tr P"):
        check_solution(bad, H, w, 4, tol=1e-6)
    bad = P.copy()
    bad[0, 0] = np.nan
    with pytest.raises(CheckFailed, match="non-finite"):
        check_solution(bad, H, w, 4, tol=1e-6)


def test_check_sweep_rejects_missing_row(tmp_path):
    out = tmp_path / "out"
    cfg = workloads.write_config(tmp_path / "s.cfg", {
        "hamiltonian.kind": "free_laplacian", "grid.length": 10, "grid.n": 8,
        "solver.mu": "5, 10", "solver.n_occ": 2, "solver.max_iter": 5, "output.dir": out,
    })
    assert cli.main(["sweep", "--config", str(cfg)]) in (0, 2)
    assert len(check_sweep(out, (5.0, 10.0))) == 2
    lines = (out / "sweep.csv").read_text().splitlines()
    (out / "sweep.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CheckFailed, match="1 rows for 2"):
        check_sweep(out, (5.0, 10.0))


def test_check_report_rejects_bad_trace_and_short_ritz(tmp_path):
    H, _, P = _projector()
    linalg.write_matrix(tmp_path / "P_exact.mat", P)
    diagnostics.write_theta_csv(tmp_path / "theta.csv", diagnostics.band_occupations(P, H))
    (tmp_path / "ritz.csv").write_text("index,eig_PH,eig_H\n" + "1,0,0\n" * 4)
    check_report(tmp_path, tmp_path, 4, 4)
    with pytest.raises(CheckFailed, match="ritz.csv"):
        check_report(tmp_path, tmp_path, 4, 5)
    linalg.write_matrix(tmp_path / "P_exact.mat", P + 1e-3 * np.eye(P.shape[0]))
    with pytest.raises(CheckFailed, match="trace"):
        check_report(tmp_path, tmp_path, 4, 4)


def test_metric_names_match_benchmark_json():
    spec = json.loads((envinfo.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert per_layer == dict(layers.METRICS)
    assert end_to_end == run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name in [*per_layer, *end_to_end, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_identical_inputs(name):
    w = workloads.WORKLOADS[name]()
    a, b = w.inputs(3), w.inputs(3)
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert np.array_equal(a[key], b[key])
        else:
            assert a[key] == b[key]


def test_seed_moves_chain_wells_within_jitter():
    w = workloads.ChainSolve()
    assert not np.array_equal(w.inputs(0)["H"], w.inputs(1)["H"])
    centres = np.array(workloads.chain_spec(5).centers)
    base = hamiltonian.default_well_centers(workloads.LENGTH, workloads.N_WELLS)
    assert np.abs(centres - base).max() <= workloads.JITTER


def test_well_sampled_tail():
    assert run.well_sampled_tail([1.0] * 10) is None
    pct, value = run.well_sampled_tail([float(i) for i in range(20)])
    assert (pct, value) == (50.0, 9.0)
