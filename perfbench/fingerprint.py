"""Environment fingerprint of a workload process.

numpy and scipy each bundle their own OpenBLAS copy (``numpy.libs`` and
``scipy.libs``); both are read through ctypes after numpy and
scipy.linalg are imported, so the handles are the ones already loaded.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path

# Variables that pin BLAS or worker threading.  Workload processes start
# without them so that every commit runs at the library's own default.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MATRIXOPT_THREADS")

# (site-packages glob, symbol suffix) of each bundled OpenBLAS copy.
OPENBLAS_COPIES = {
    "numpy": ("numpy.libs/libscipy_openblas64_*.so", "64_"),
    "scipy": ("scipy.libs/libscipy_openblas*.so", ""),
}


class OpenBlas:
    """Thread controls of one bundled OpenBLAS copy."""

    def __init__(self, path: str, suffix: str):
        self.library = os.path.basename(path)
        lib = ctypes.CDLL(path)
        self._get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        self._get.argtypes = []
        self._get.restype = ctypes.c_int
        self._set = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        self._set.argtypes = [ctypes.c_int]
        self._set.restype = None
        self._config = getattr(lib, f"scipy_openblas_get_config{suffix}")
        self._config.argtypes = []
        self._config.restype = ctypes.c_char_p

    @property
    def threads(self) -> int:
        return int(self._get())

    @threads.setter
    def threads(self, n: int) -> None:
        self._set(int(n))

    @property
    def config(self) -> str:
        return self._config().decode(errors="replace").strip()


def openblas_copies() -> dict[str, OpenBlas]:
    """The OpenBLAS copies numpy and scipy.linalg have loaded."""
    import numpy
    import scipy.linalg  # noqa: F401 - loads scipy's OpenBLAS copy

    site = Path(numpy.__file__).resolve().parent.parent
    out = {}
    for name, (pattern, suffix) in OPENBLAS_COPIES.items():
        paths = sorted(glob.glob(str(site / pattern)))
        if paths:
            out[name] = OpenBlas(paths[0], suffix)
    return out


@contextlib.contextmanager
def single_threaded(copies: dict[str, OpenBlas]):
    """Run the block with every OpenBLAS copy at one thread, then restore
    whatever thread counts were in effect."""
    saved = {name: lib.threads for name, lib in copies.items()}
    for lib in copies.values():
        lib.threads = 1
    try:
        yield
    finally:
        for name, lib in copies.items():
            lib.threads = saved[name]


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(root: Path) -> str:
    """sha256 over the library sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "openblas": {
            name: {"library": lib.library, "threads": lib.threads, "config": lib.config}
            for name, lib in openblas_copies().items()
        },
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }

