"""Parallel execution of pairwise similarity computations.

:class:`ParallelSTS` wraps a similarity measure and computes pairwise
matrices with a supervised process pool — see :mod:`repro.parallel.sts`.
The convenient entry point is ``STS.pairwise(..., n_jobs=...)``, which
routes through this package automatically.

There is one parallel path.  The trajectory corpus is broadcast to the
workers through a :class:`SharedTrajectoryArena` — one shared-memory
pack, zero-copy views on the worker side — and workers score
count-balanced chunks of index pairs; see :mod:`repro.parallel.shm`.

Worker crashes, hangs and corrupt scores are retried with backoff, and
the run degrades ``process → serial`` instead of failing — see
:mod:`repro.parallel.supervisor` and the :class:`RunHealth` report.
"""

from .pool import available_cpus, chunk_pairs, resolve_n_jobs
from .shm import ArenaHandle, ArenaView, SharedTrajectoryArena
from .sts import ParallelSTS
from .supervisor import ChunkEvent, RunHealth, SupervisedExecutor

__all__ = [
    "ParallelSTS",
    "available_cpus",
    "chunk_pairs",
    "resolve_n_jobs",
    "ArenaHandle",
    "ArenaView",
    "SharedTrajectoryArena",
    "SupervisedExecutor",
    "RunHealth",
    "ChunkEvent",
]
