"""Thread-safe span tracer that wraps the module-level names of sparsedm.

Every call that crosses a module boundary inside sparsedm goes through a
module attribute (``sparsedm.solver.spectral_clamp``, ``sparsedm.cli.solve``,
...). ``Tracer.install`` replaces each such attribute with a timing wrapper,
so spans are recorded from the benchmark's files without changing the
program. A span is named after the layer that defines the function
(``linalg.sym_eig``), whichever module the call went through.

A span's self time is its duration minus the part of its interval covered
by its children on the same thread. Work handed to a pool thread keeps the
submitting span as its parent but is timed on the worker's own thread, so
the self times of all spans on an operation's thread add up to the
operation's wall time.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
import time
import types
from collections import defaultdict
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int


def fingerprint(a: np.ndarray) -> str:
    """Content digest of an array, used to recognise a matrix seen before."""
    a = np.ascontiguousarray(a)
    return f"{a.shape}:" + hashlib.blake2b(a.view(np.uint8), digest_size=16).hexdigest()


class Tracer:
    """Collects spans and counters; one instance per traced benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: list[tuple[types.ModuleType, str, object]] = []
        self._op = -1
        # Content digests of every Hamiltonian built in the current operation,
        # and of those the diagnostics layer has already decomposed.
        self._h_prints: set[str] = set()
        self._eig_h_prints: set[str] = set()

    # --- span stack -------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        """This thread's open spans as (id, name), innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def _parent_name(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def span(self, name: str, parent: int | None = None):
        return _SpanContext(self, name, parent)

    def _open(self, name: str, parent: int | None) -> tuple[int, int | None]:
        sid = next(self._ids)
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        stack.append((sid, name))
        return sid, parent

    def _close(self, sid: int, name: str, parent: int | None, start: float, end: float) -> None:
        self._stack().pop()
        span = Span(sid, name, start, end, parent, threading.get_ident(), self._op)
        with self._lock:
            self.spans.append(span)

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[self._op][key] += value

    # --- operations -------------------------------------------------------

    def operation(self, name: str = "bench.op"):
        """Root span of one benchmark operation; spans inside share its op id."""
        self._op += 1
        self._h_prints.clear()
        self._eig_h_prints.clear()
        return self.span(name)

    # --- wrappers ---------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap every sparsedm function reachable as a module attribute."""
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith("sparsedm."):
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    self._replace(mod, attr, self._wrap(obj, f"{layer}.{obj.__name__}", mod))
            pool = vars(mod).get("ThreadPoolExecutor")
            if pool is not None:
                self._replace(mod, "ThreadPoolExecutor", self._traced_pool(pool))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed.clear()

    def _replace(self, mod, attr: str, new) -> None:
        self._installed.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def _wrap(self, fn, name: str, via: types.ModuleType):
        tracer = self
        hook = _HOOKS.get(name)
        via_diagnostics = via.__name__.endswith(".diagnostics")

        def wrapper(*args, **kwargs):
            parent_name = tracer._parent_name()
            sid, parent = tracer._open(name, None)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._close(sid, name, parent, start, end)
            if hook is not None:
                # Timed as its own span so the counting cost is charged to
                # the "trace" layer, not to the caller's self time.
                with tracer.span("trace.hook"):
                    hook(tracer, args, result, parent_name, via_diagnostics)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _traced_pool(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.count("cli.sweep.workers", self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                submitted = time.perf_counter()

                def run():
                    tracer.count("cli.sweep.queue_wait_s", time.perf_counter() - submitted)
                    with tracer.span("cli.pool_task", parent=parent):
                        return fn(*args, **kwargs)

                return super().submit(run)

        TracedPool.__name__ = base.__name__
        return TracedPool

    # --- hooks ------------------------------------------------------------

    def note_hamiltonian(self, H: np.ndarray) -> None:
        with self._lock:
            self._h_prints.add(fingerprint(H))

    def note_diagnostic_eig(self, a: np.ndarray) -> None:
        fp = fingerprint(a)
        with self._lock:
            if fp not in self._h_prints:
                return
            repeat = fp in self._eig_h_prints
            self._eig_h_prints.add(fp)
        self.count("diagnostics.eig_H.calls")
        if repeat:
            self.count("diagnostics.eig_H.repeats")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, parent: int | None):
        self.tracer, self.name, self.parent = tracer, name, parent

    def __enter__(self):
        self.sid, self.parent = self.tracer._open(self.name, self.parent)
        self.start = time.perf_counter()
        return self.sid

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.name, self.parent, self.start, time.perf_counter())
        return False


def _hook_sym_eig(tracer, args, result, parent_name, via_diagnostics):
    if parent_name == "linalg.spectral_clamp":
        w = result[0]
        tracer.count("linalg.clamp.calls")
        tracer.count("linalg.clamp.positive_eigs", int(np.count_nonzero(w > 0)))
        tracer.count("linalg.clamp.dim", w.size)
    if via_diagnostics:
        tracer.note_diagnostic_eig(args[0])


def _hook_soft_threshold(tracer, args, result, parent_name, via_diagnostics):
    tracer.count("linalg.soft_threshold.zeros", int(result.size - np.count_nonzero(result)))
    tracer.count("linalg.soft_threshold.entries", result.size)


def _hook_write_matrix(tracer, args, result, parent_name, via_diagnostics):
    tracer.count("linalg.write_matrix.bytes", os.path.getsize(args[0]))


def _hook_read_matrix(tracer, args, result, parent_name, via_diagnostics):
    tracer.count("linalg.read_matrix.bytes", os.path.getsize(args[0]))


def _hook_build_hamiltonian(tracer, args, result, parent_name, via_diagnostics):
    tracer.note_hamiltonian(result)


def _hook_solve(tracer, args, result, parent_name, via_diagnostics):
    tracer.count("solver.solves")
    tracer.count("solver.iterations", result.iterations)
    tracer.count("solver.converged", int(result.converged))


_HOOKS = {
    "linalg.sym_eig": _hook_sym_eig,
    "linalg.soft_threshold": _hook_soft_threshold,
    "linalg.write_matrix": _hook_write_matrix,
    "linalg.read_matrix": _hook_read_matrix,
    "hamiltonian.build_hamiltonian": _hook_build_hamiltonian,
    "solver.solve": _hook_solve,
}


# --- span arithmetic ------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus what its same-thread children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children[s.id], s.start, s.end) for s in spans
    }
