"""Process set-up shared by the benchmark's entry points.

`prepare()` must run before numpy is imported: it pins BLAS threads and puts
the checkout's own `src/` first on the import path, so the benchmark always
measures the program in the tree it is run from.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PINNED_CONFIG = ROOT / "configs" / "benchmark.json"
GOLDEN_REPORT = ROOT / "golden" / "benchmark_report.json"

# One BLAS thread per process: disk-jobs2 runs two workers on a two-core
# host, and a multi-threaded BLAS in each worker would oversubscribe it.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS threads and import archseg from ROOT/src, or exit non-zero."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    needed = (SRC / "archseg" / "__init__.py", PINNED_CONFIG, GOLDEN_REPORT)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: not a full checkout, missing {', '.join(missing)}")
    sys.path.insert(0, str(SRC))
    import archseg

    if Path(archseg.__file__).resolve().parent != SRC / "archseg":
        sys.exit(f"perfbench: archseg imported from {archseg.__file__}, not {SRC}")


def git_commit() -> str | None:
    """HEAD's commit read from .git files; None outside a git checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, packed_name = line.partition(" ")
            if packed_name == name:
                return sha
    return None


def environment() -> dict:
    """Machine, library and source facts recorded with every result."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    src_lines = sum(
        len(p.read_text().splitlines()) for p in (SRC / "archseg").glob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": git_commit(),
        "src_archseg_lines": src_lines,
    }
