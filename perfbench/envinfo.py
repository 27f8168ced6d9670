"""Where the program comes from, and the environment a result was measured in."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "SPARSEDM_SWEEP_THREADS")


class SourceMissing(RuntimeError):
    """The checkout holds no sparsedm sources to benchmark."""


def use_checkout_source() -> None:
    """Import sparsedm from the checkout's src/, never from an installed copy."""
    init = SRC / "sparsedm" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"{init} not found: run from the root of a sparsedm checkout")
    sys.path.insert(0, str(SRC))
    import sparsedm

    if Path(sparsedm.__file__).resolve() != init.resolve():
        raise SourceMissing(f"sparsedm was imported from {sparsedm.__file__}, not {init}")


def _openblas():
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    return ctypes.CDLL(libs[0]) if libs else None


def blas_threads() -> int | None:
    """Thread count OpenBLAS is using in this process, if it can be asked."""
    lib = _openblas()
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None) if lib is not None else None
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _blas_version() -> str | None:
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over src/ file names and contents: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "openblas": _blas_version(),
        "blas_threads": blas_threads(),
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
