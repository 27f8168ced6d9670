"""Per-layer metrics of a traced run, averaged over its traced operations.

The comment on each group names the end-to-end metric it should move;
NOTES.md gives the full map.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Span, Tracer, self_times

LAYERS = ("bench", "cli", "hamiltonian", "solver", "diagnostics", "linalg", "trace")
DIAGNOSTICS = ("exact_density_matrix", "energy_gap_metrics", "space_approximation",
               "occupation_numbers", "band_occupations", "ritz_compare")
# Spans whose self time is output formatting and writing.
OUTPUT = ("linalg.write_matrix", "linalg.format_matrix", "solver.write_history_csv",
          "cli._write_summary", "cli._extract_saddle_csv", "diagnostics.write_occupation_csv",
          "diagnostics.write_theta_csv", "diagnostics.write_delta_csv", "diagnostics.write_sweep_csv")

# Computed, not measured: n x n float64 arrays each call reads plus writes,
# one per numpy elementwise operation in the function body. solver.step's
# own arithmetic is the B combination and the P + b, P + d, b and d updates;
# each solve iteration also forms P - Q, P - R and P - P_prev.
PASSES = {
    "solver.step": 36, "linalg.trace_shift_project": 2, "linalg.symmetrize": 5,
    "linalg.soft_threshold": 11, "linalg.spectral_clamp": 5, "linalg.sym_eig": 2,
    "linalg.fro_norm": 1, "linalg.trace_product": 4, "linalg.entrywise_l1": 3,
}
SOLVE_PASSES_PER_ITERATION = 9

# (name, unit) of every per-layer metric, in report order.
METRICS = [
    # linalg kernels: solve_s/iter_ms on chain-n256, sweep_s; not report-n1024
    ("linalg.sym_eig.calls", "count"), ("linalg.sym_eig.ms", "ms"),
    ("linalg.spectral_clamp.ms", "ms"), ("linalg.spectral_clamp.self_ms", "ms"),
    ("linalg.clamp.positive_eigs", "count"), ("linalg.clamp.positive_frac", "ratio"),
    # elementwise kernels: iter_ms on chain-n256, more so sweep_s
    ("linalg.soft_threshold.ms", "ms"), ("linalg.soft_threshold.zero_frac", "ratio"),
    ("linalg.trace_shift_project.ms", "ms"),
    ("linalg.symmetrize.calls", "count"), ("linalg.symmetrize.ms", "ms"),
    ("linalg.fro_norm.calls", "count"), ("linalg.fro_norm.ms", "ms"),
    ("linalg.bytes_computed_per_step", "B"),
    # matrix text I/O: exact_s/diagnose_s on report-n1024, part of sweep_s
    ("linalg.write_matrix.ms", "ms"), ("linalg.write_matrix.bytes", "B"),
    ("linalg.read_matrix.ms", "ms"), ("linalg.read_matrix.bytes", "B"),
    # solver: iter_ms on chain-n256 and sweep_s; iterations move solve_s, sweep_s
    ("solver.step.calls", "count"), ("solver.step.ms", "ms"), ("solver.step.self_ms", "ms"),
    ("solver.solve.self_ms", "ms"), ("solver.objective.calls", "count"), ("solver.objective.ms", "ms"),
    ("solver.feasibility.calls", "count"), ("solver.feasibility.ms", "ms"),
    ("solver.solves", "count"), ("solver.unconverged", "count"),
    ("solver.iterations", "count"), ("solver.iter_ms", "ms"),
    # diagnostics: exact_s/diagnose_s on report-n1024, slightly sweep_s
    *((f"diagnostics.{fn}.ms", "ms") for fn in DIAGNOSTICS),
    ("diagnostics.eig_H.calls", "count"), ("diagnostics.eig_H.repeat_frac", "ratio"),
    # hamiltonian: setup_s and diagnose_s
    ("hamiltonian.build_hamiltonian.ms", "ms"), ("hamiltonian.load_matrix.ms", "ms"),
    # cli: sweep_s on free-sweep-n128 only (the cmd_* spans are the commands)
    ("cli.load_config.ms", "ms"), ("cli.sweep.workers", "count"), ("cli.sweep.queue_wait_s", "s"),
    ("cli.sweep.parallel_eff", "ratio"), ("cli.sweep.overlap", "ratio"), ("cli.output.ms", "ms"),
    ("cli.cmd_sweep.ms", "ms"), ("cli.cmd_exact.ms", "ms"), ("cli.cmd_diagnose.ms", "ms"),
    # self time per layer, over all threads
    *((f"layer.{layer}.self_ms", "ms") for layer in LAYERS),
    # tracing itself
    ("trace.spans", "count"), ("trace.self_sum_frac", "ratio"), ("trace.worker_busy_frac", "ratio"),
    ("trace.op_ms", "ms"), ("trace.untraced_op_ms", "ms"), ("trace.overhead_ms", "ms"),
    # single-threaded BLAS reference on chain-n256, context only
    ("ref.blas1_chain.iter_ms", "ms"),
]
UNITS = dict(METRICS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _in_solves(spans: list[Span]) -> list[Span]:
    """Spans that ran inside a solver.solve call."""
    by_id = {s.id: s for s in spans}
    inside: dict[int, bool] = {}

    def check(s: Span) -> bool:
        if s.id not in inside:
            parent = by_id.get(s.parent)
            inside[s.id] = parent is not None and (parent.name == "solver.solve" or check(parent))
        return inside[s.id]

    return [s for s in sorted(spans, key=lambda s: s.start) if check(s)]


def op_metrics(spans: list[Span], counters: dict[str, float], n: int,
               solo_iter_ms: float = 0.0) -> dict[str, float]:
    """Metrics of one traced operation from its spans and counters.

    solo_iter_ms is the time per iteration of a solve running alone. The
    sweep's parallel efficiency is the solo time of its solves over
    workers x sweep wall time; its overlap is the same ratio with the
    solves' own wall times, which contention inflates.
    """
    root = next(s for s in spans if s.name == "bench.op")
    wall = root.end - root.start
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    main_self = worker_self = 0.0
    for s in spans:
        calls[s.name] += 1
        dur[s.name] += s.end - s.start
        own[s.name] += selfs[s.id]
        layer_self[s.name.split(".", 1)[0]] += selfs[s.id]
        if s.thread == root.thread:
            main_self += selfs[s.id]
        else:
            worker_self += selfs[s.id]

    steps = calls["solver.step"]
    iterations = counters.get("solver.iterations", 0.0)
    passes = sum(PASSES.get(s.name, 0) for s in _in_solves(spans)) + SOLVE_PASSES_PER_ITERATION * iterations
    workers = counters.get("cli.sweep.workers", 0.0)
    m = {
        "linalg.sym_eig.calls": calls["linalg.sym_eig"],
        "linalg.clamp.positive_eigs": _ratio(counters.get("linalg.clamp.positive_eigs", 0.0),
                                             counters.get("linalg.clamp.calls", 0.0)),
        "linalg.clamp.positive_frac": _ratio(counters.get("linalg.clamp.positive_eigs", 0.0),
                                             counters.get("linalg.clamp.dim", 0.0)),
        "linalg.soft_threshold.zero_frac": _ratio(counters.get("linalg.soft_threshold.zeros", 0.0),
                                                  counters.get("linalg.soft_threshold.entries", 0.0)),
        "linalg.symmetrize.calls": calls["linalg.symmetrize"],
        "linalg.fro_norm.calls": calls["linalg.fro_norm"],
        "linalg.bytes_computed_per_step": _ratio(8.0 * n * n * passes, steps),
        "linalg.write_matrix.bytes": counters.get("linalg.write_matrix.bytes", 0.0),
        "linalg.read_matrix.bytes": counters.get("linalg.read_matrix.bytes", 0.0),
        "solver.step.calls": steps,
        "solver.objective.calls": calls["solver.objective"],
        "solver.feasibility.calls": calls["solver.feasibility"],
        "solver.solves": counters.get("solver.solves", 0.0),
        "solver.unconverged": counters.get("solver.solves", 0.0) - counters.get("solver.converged", 0.0),
        "solver.iterations": _ratio(iterations, counters.get("solver.solves", 0.0)),
        "solver.iter_ms": 1e3 * _ratio(dur["solver.solve"], iterations),
        "diagnostics.eig_H.calls": counters.get("diagnostics.eig_H.calls", 0.0),
        "diagnostics.eig_H.repeat_frac": _ratio(counters.get("diagnostics.eig_H.repeats", 0.0),
                                                counters.get("diagnostics.eig_H.calls", 0.0)),
        "cli.sweep.workers": workers,
        "cli.sweep.queue_wait_s": counters.get("cli.sweep.queue_wait_s", 0.0),
        "cli.sweep.parallel_eff": _ratio(1e-3 * solo_iter_ms * iterations, workers * dur["cli.cmd_sweep"]),
        "cli.sweep.overlap": _ratio(dur["solver.solve"], workers * dur["cli.cmd_sweep"]),
        "cli.output.ms": 1e3 * sum(own[name] for name in OUTPUT),
        "trace.spans": len(spans),
        "trace.self_sum_frac": main_self / wall,
        "trace.worker_busy_frac": worker_self / wall,
    }
    for name, unit in METRICS:
        if name in m or unit != "ms" or name.startswith(("trace.", "ref.")):
            continue
        span, _, field = name.rpartition(".")
        if name.startswith("layer."):
            m[name] = 1e3 * layer_self[span.split(".")[1]]
        elif field == "self_ms":
            m[name] = 1e3 * own[span]
        else:
            m[name] = 1e3 * dur[span]
    return m


def per_layer(tracer: Tracer, n: int, solo_iter_ms: float = 0.0) -> dict[str, float]:
    """Mean over traced operations of each operation's metrics."""
    by_op: dict[int, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        by_op[s.op].append(s)
    ops = [op_metrics(spans, tracer.counters.get(op, {}), n, solo_iter_ms)
           for op, spans in sorted(by_op.items())]
    return {key: sum(m[key] for m in ops) / len(ops) for key in ops[0]}
