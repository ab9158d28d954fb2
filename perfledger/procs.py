"""Process hygiene, resource readings and the environment stamp.

Everything here reads ``/proc`` or ``resource`` directly so the numbers
do not depend on the program's own observability layer.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

#: Thread-pool variables pinned to 1 before numpy is imported, so a BLAS
#: or OpenMP pool never competes with the worker processes for CPUs.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _status_kb(pid: int | str, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(worker_pids=()) -> float:
    """Peak resident set (VmHWM) of this process and the given live
    workers, and of every child already reaped, in MiB."""
    peaks = [_status_kb("self", "VmHWM")]
    peaks += [_status_kb(pid, "VmHWM") for pid in worker_pids]
    peaks.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return max(peaks) / 1024.0


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def reaped_children_cpu_s() -> float:
    """CPU seconds of every child this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def reap(keep=(), stop_tracker: bool = True, timeout_s: float = 10.0) -> int:
    """Wait for every multiprocessing child not in ``keep`` (pids) to
    exit; kill stragglers.

    With ``stop_tracker`` the shared-memory resource tracker is stopped
    too; call that only while no shared-memory segment is alive, since
    the tracker is what unlinks leaked segments.  Returns the number of
    children that had to be killed.
    """
    deadline = time.monotonic() + timeout_s
    killed = 0
    others = [c for c in multiprocessing.active_children() if c.pid not in keep]
    for child in others:
        child.join(max(0.0, deadline - time.monotonic()))
    for child in others:
        if not child.is_alive():
            continue
        child.kill()
        child.join(2.0)
        killed += 1
    if stop_tracker:
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        if getattr(tracker, "_pid", None) is not None:
            tracker._stop()
    return killed


def environment(root: Path, workers: int) -> dict:
    """Where a run happened: CPUs, library versions, thread settings."""
    import numpy
    import scipy

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
        sha = out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    affinity = sorted(os.sched_getaffinity(0))
    env = {
        "affinity_cpus": affinity,
        "nproc": len(affinity),
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "REPRO_OBS": os.environ.get("REPRO_OBS"),
        "git_sha": sha or None,
        "workers": workers,
    }
    if workers > len(affinity):
        print(
            f"perfledger: warning: {workers} worker processes on "
            f"{len(affinity)} CPU(s); timings will include contention",
            file=sys.stderr,
        )
    return env
