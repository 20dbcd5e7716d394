"""Where a result was measured: code version, interpreter, BLAS and cores.

Two results are comparable only when the kernel backend and the BLAS
thread count agree; anything else measured different programs.
"""

import ctypes
import os
import platform

import numpy as np

COMPARABLE_KEYS = ("backend", "blas_threads")


def _git_sha(root):
    """Commit of a git checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas():
    """(version, live thread count) of the OpenBLAS numpy loaded."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    if threads is None:
        threads = int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))
    return version, threads


def collect(root):
    try:
        from nadex import accel
        backend = accel.BACKEND
    except ImportError:
        backend = "numpy"  # the accelerated-kernel module is gone
    blas, threads = _openblas()
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": backend,
    }


def incomparable(a, b):
    """The provenance keys on which two results differ and must not be
    compared (empty when they may be)."""
    return [k for k in COMPARABLE_KEYS if a.get(k) != b.get(k)]
