"""Child processes the benchmark times, and the record of the machine it ran on."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import threading
from time import perf_counter

import numpy as np


def run_child(argv: list[str], cwd: str, env: dict, log_path: str, timeout_s: float) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB).

    ``os.wait4`` gives this child's own peak RSS; a timer kills a child that
    outlives ``timeout_s`` so that the wait always ends.
    """
    with open(log_path, "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _blas_threads() -> int | None:
    """Threads the BLAS bundled with numpy will use, as inherited."""
    libs_dir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_sha(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str) -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 has no mode argument
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(root),
    }
