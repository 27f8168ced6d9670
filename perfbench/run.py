"""sparsedm benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload chain-n256 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; sparsedm is imported from its src/.
Operations run one at a time in a closed loop, each starting when the
previous one has finished, as a user waiting on each solve would. Every
output is checked. The last stdout line is one JSON object with keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of layers.py with --trace 1. The lines
before it, and a JSON file under perfbench/.work/results/, record the
environment, every sample and the metrics under the names NOTES.md uses.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import envinfo

WORK = Path(__file__).resolve().parent / ".work"
REF_WORKLOAD = "chain-n256"

END_TO_END = {"work_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def well_sampled_tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples above it."""
    n = len(samples)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def measure(workload, seconds: float, tracer=None) -> list[dict]:
    """Run operations until `seconds` have passed (at least one); check each."""
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        op = {"error": None}
        t0 = time.perf_counter()
        try:
            if tracer is None:
                op["sub"] = workload.run()
            else:
                with tracer.operation():
                    op["sub"] = workload.run()
            op["wall_s"] = time.perf_counter() - t0
            op["stats"] = workload.check()
        except Exception as exc:  # a failed operation is counted, not fatal
            op.setdefault("wall_s", time.perf_counter() - t0)
            op["error"] = f"{type(exc).__name__}: {exc}"
            print(traceback.format_exc(), file=sys.stderr)
        ops.append(op)
    return ops


def op_times(ops: list[dict]) -> list[float]:
    """Wall times of the operations that passed; all of them if none did."""
    good = [op["wall_s"] for op in ops if op["error"] is None]
    return good or [op["wall_s"] for op in ops]


def work_ms(workload, ops: list[dict]) -> float:
    """Median wall ms per unit of work: per solver iteration where the
    workload says so, else per operation."""
    good = [op for op in ops if op["error"] is None]
    if workload.per_iteration and good:
        return statistics.median(1e3 * op["wall_s"] / op["stats"]["iterations"] for op in good)
    return 1e3 * statistics.median(op_times(ops))


def report_lines(workload, ops: list[dict], setup: list[float], peak_mb: float) -> list[str]:
    """Human-readable metrics under the names NOTES.md uses, one per line."""
    good = [op for op in ops if op["error"] is None]
    walls = op_times(ops)
    tail = well_sampled_tail(walls)
    tail_text = f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "no percentile has 10 samples above it"
    op_text = f"{statistics.median(walls):.6f} s (median of {len(walls)}; {tail_text})"
    unit = "solver iteration" if workload.per_iteration else "operation"
    lines = [
        f"ops attempted {len(ops)} failed {len(ops) - len(good)}",
        f"metric op_s {op_text}",
        f"metric work_ms {work_ms(workload, ops):.6f} ms (median per {unit})",
    ]
    if workload.op_metric:
        lines.append(f"metric {workload.op_metric} {op_text}")
    if workload.per_iteration:
        lines.append(f"metric iter_ms {work_ms(workload, ops):.6f} ms (median per solve of solve_s / iterations)")
    solves = sum(op["stats"]["solves"] for op in good)
    if solves:
        iterations = [op["stats"]["iterations"] / op["stats"]["solves"] for op in good]
        converged = solves - sum(op["stats"]["unconverged"] for op in good)
        lines.append(f"metric iterations {statistics.median(iterations):.1f} count (median per solve)")
        lines.append(f"metric converged_frac {converged / solves:.4f} ratio "
                     f"({converged} of {solves} solves met tol; the rest stopped at max_iter)")
    for key in ("exact_s", "diagnose_s"):
        values = [op["sub"][key] for op in good if key in op["sub"]]
        if values:
            lines.append(f"metric {key} {statistics.median(values):.6f} s (median of {len(values)})")
    lines.append(f"metric setup_s {statistics.median(setup):.6f} s (median of {len(setup)})")
    lines.append(f"metric peak_rss_mb {peak_mb:.3f} MB")
    return lines


def blas1_reference(seed: int) -> float:
    """iter_ms of chain-n256 in a child process with OPENBLAS_NUM_THREADS=1."""
    WORK.mkdir(parents=True, exist_ok=True)
    result = WORK / f"ref-blas1-{os.getpid()}.json"
    cmd = [sys.executable, __file__, "--workload", REF_WORKLOAD, "--seed", str(seed),
           "--seconds", "1", "--trace", "0", "--result", str(result)]
    try:
        subprocess.run(cmd, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                       stdout=subprocess.DEVNULL, timeout=150, check=True)
        ops = [op for op in json.loads(result.read_text())["ops"] if op["error"] is None]
        return statistics.median(1e3 * op["wall_s"] / op["stats"]["iterations"] for op in ops)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"single-threaded reference failed: {exc}", file=sys.stderr)
        return 0.0
    finally:
        result.unlink(missing_ok=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, default=None, help="where to write the full result JSON")
    args = parser.parse_args(argv)

    try:
        envinfo.use_checkout_source()
    except envinfo.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from sparsedm import cli, diagnostics, hamiltonian, linalg, solver

    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = []
        for _ in range(workload.setup_reps):
            t0 = time.perf_counter()
            workload.setup(args.seed, work)
            setup.append(time.perf_counter() - t0)

        env = envinfo.environment(args.seed)
        print("env " + json.dumps(env, sort_keys=True), flush=True)
        if args.trace:
            untraced = measure(workload, args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install([linalg, hamiltonian, solver, diagnostics, cli])
            try:
                ops = measure(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            solo = getattr(workload, "solo_iter_ms", None)
            metrics = layers.per_layer(tracer, workload.n, statistics.median(solo) if solo else 0.0)
            traced_ms = 1e3 * statistics.median(op_times(ops))
            untraced_ms = 1e3 * statistics.median(op_times(untraced))
            metrics.update({
                "trace.op_ms": traced_ms, "trace.untraced_op_ms": untraced_ms,
                "trace.overhead_ms": traced_ms - untraced_ms,
                "ref.blas1_chain.iter_ms": blas1_reference(args.seed),
            })
            units = layers.UNITS
            ops = untraced + ops
        else:
            ops = measure(workload, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lines = report_lines(workload, ops, setup, peak_mb)
        if not args.trace:
            metrics = {"work_ms": work_ms(workload, ops),
                       "setup_s": statistics.median(setup), "peak_rss_mb": peak_mb}
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in lines:
        print(line)
    failed = sum(op["error"] is not None for op in ops)
    for op in ops:
        if op["error"] is not None:
            print(f"failed: {op['error']}")
    summary = {
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    result = args.result or WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result.parent.mkdir(parents=True, exist_ok=True)
    result.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                                  "env": env, "setup_s": setup, "ops": ops, "report": lines,
                                  **summary}, indent=1, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
