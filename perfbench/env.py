"""Process environment of every benchmark process: BLAS threads, the
package under test, and the machine facts recorded with every result.

Import this module before numpy. Every benchmark process runs OpenBLAS
with one thread: on a 2-vCPU shared VM, two BLAS threads turned the
per-step global-norm clip from 30-50 us into 1.1-1.4 ms (thread wake-ups
around small dot products) and made where the time goes depend on what
the other tenants were doing. One thread keeps the split between layers
and the run-to-run spread stable. The setting is fixed, not an option,
so every run of every workload is comparable.
"""

from __future__ import annotations

import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

for _name in BLAS_ENV:
    os.environ[_name] = str(BLAS_THREADS)


def import_package():
    """Import freezelab from the checkout's own src/ directory; raise
    ImportError when that is not where it comes from."""
    sys.path.insert(0, SRC)
    import freezelab

    if os.path.dirname(os.path.dirname(os.path.abspath(freezelab.__file__))) != SRC:
        raise ImportError(f"freezelab was imported from {freezelab.__file__}, not from {SRC}")
    return freezelab


def cpu_times():
    """Aggregate CPU tick counters from /proc/stat (read-only), or None
    where the file does not exist."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    # user nice system idle iowait irq softirq steal; guest time is
    # already counted inside user and nice.
    return [int(v) for v in fields[1:9]]


def cpu_shares(before, after) -> dict:
    """Steal and idle (idle + iowait) shares of all CPU ticks between two
    cpu_times() readings."""
    if before is None or after is None:
        return {"steal_share": None, "idle_share": None}
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    if total <= 0:
        return {"steal_share": None, "idle_share": None}
    return {"steal_share": delta[7] / total, "idle_share": (delta[3] + delta[4]) / total}


def facts() -> dict:
    """nproc, Python, numpy and its BLAS, and the BLAS thread setting."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }
