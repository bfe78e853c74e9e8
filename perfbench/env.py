"""Where the benchmark finds the package, and the environment stamp of a run.

The benchmark always imports ``randcrf`` from ``src/`` of the checkout that
holds this directory, never from an installed copy, so the numbers belong to
the source next to them.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SourceMissing(RuntimeError):
    pass


def import_randcrf():
    """Import ``randcrf`` from the checkout's ``src/``; raise SourceMissing
    when the checkout has no package source."""
    if not (SRC / "randcrf" / "__init__.py").is_file():
        raise SourceMissing(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import randcrf

    origin = Path(randcrf.__file__).resolve()
    if SRC not in origin.parents:
        raise SourceMissing(f"randcrf was imported from {origin}, not from {SRC}")
    return randcrf


def _openblas_threads() -> dict[str, int]:
    # effective thread count of every OpenBLAS build loaded in this process
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[Path(path).name] = int(fn())
                break
    return found


def _git_commit() -> str | None:
    # a checkout exported without .git has no commit; src_sha256 still names the source
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "randcrf").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(seed: int) -> dict:
    """Versions, cores, BLAS threads and source identity of this run."""
    import numpy
    import scipy

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "openblas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "harness_workers": 1,
        "RANDCRF_THREADS": os.environ.get("RANDCRF_THREADS"),
    }
