"""Worker-pool plumbing for parallel pairwise similarity.

Workers are processes of a :class:`~concurrent.futures.ProcessPoolExecutor`.
The measure travels to each worker **once**, through the pool
initializer, together with a :class:`~repro.parallel.shm.ArenaHandle`:
the corpus lives in one shared-memory block the parent packed, workers
attach at initializer time, and the only per-call payload is
``(row, col)`` index chunks.  Results come back as ``(row, col, score)``
triples — cheap to serialize and order-independent to assemble.

Workers rebuild their own estimator caches (the measure's LRU caches
deliberately pickle empty — see :class:`repro.core.cache.LRUCache`), so
each worker owns a private, race-free working set.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

__all__ = [
    "CHUNKS_PER_WORKER",
    "resolve_n_jobs",
    "chunk_pairs",
    "make_executor",
    "mark_cluster_worker",
    "in_cluster_worker",
]

#: Dispatch granularity: the pair list is split into roughly
#: ``n_jobs * CHUNKS_PER_WORKER`` chunks, trading scheduling slack
#: against per-chunk overhead.
CHUNKS_PER_WORKER = 4

# Set inside cluster shard workers (see repro.cluster.worker): a shard
# worker is itself one of N·R processes, so any pool it sizes through
# resolve_n_jobs must stay serial — otherwise a cluster whose workers
# each open a per-CPU pool forks N·R·cpus processes.  The env var makes
# the mark survive a further fork/spawn, should one ever happen.
_IN_CLUSTER_WORKER = False
_CLUSTER_WORKER_ENV = "REPRO_CLUSTER_WORKER"


def mark_cluster_worker() -> None:
    """Mark this process as a cluster shard worker (clamps pools to 1)."""
    global _IN_CLUSTER_WORKER
    _IN_CLUSTER_WORKER = True
    os.environ[_CLUSTER_WORKER_ENV] = "1"


def in_cluster_worker() -> bool:
    """Whether this process is a cluster shard worker."""
    return _IN_CLUSTER_WORKER or os.environ.get(_CLUSTER_WORKER_ENV) == "1"


# Per-process worker state, populated by the pool initializer (or, on
# the serial rung, by the supervisor in the driver process).  A module
# global (not an instance attribute) because worker functions must be
# importable top-level objects for pickling.
_WORKER_STATE: dict = {}


def _install_state(measure, gallery, queries) -> None:
    """Install the scoring state the chunk tasks read."""
    _WORKER_STATE["measure"] = measure
    _WORKER_STATE["gallery"] = gallery
    _WORKER_STATE["queries"] = queries


def _attach_worker(measure, handle) -> None:
    """Pool initializer: attach this worker to the parent's arena.

    Attaches exactly once and installs zero-copy trajectory views as the
    scoring state.  The view object is kept in the worker state so the
    mapping outlives the initializer.
    """
    from .shm import SharedTrajectoryArena

    _WORKER_STATE["measure"] = measure
    _install_delta_sources()  # before attach: attach timing is worker work
    view = SharedTrajectoryArena.attach(handle)
    _install_state(measure, view.gallery, view.queries)
    _WORKER_STATE["arena_view"] = view


def _score_chunk(pairs: Sequence[tuple[int, int]]) -> list[tuple[int, int, float]]:
    """Score one chunk of index pairs against the worker's state."""
    from ..obs import trace_span

    measure = _WORKER_STATE["measure"]
    gallery = _WORKER_STATE["gallery"]
    queries = _WORKER_STATE["queries"]
    rows = gallery if queries is None else queries
    with trace_span("parallel.chunk", pairs=len(pairs)):
        return [(i, j, measure.similarity(rows[i], gallery[j])) for i, j in pairs]


def _score_chunk_vs_queries(
    queries, pairs: Sequence[tuple[int, int]]
) -> list[tuple[int, int, float]]:
    """Score a chunk whose *rows* are call-supplied query trajectories.

    Used by the persistent-pool query path: the gallery is the arena the
    worker attached at initializer time, while the (small) query list
    rides along with the task.  ``functools.partial`` binds ``queries``
    so the submitted callable stays a picklable top-level function.
    """
    from ..obs import trace_span

    measure = _WORKER_STATE["measure"]
    gallery = _WORKER_STATE["gallery"]
    with trace_span("parallel.chunk", pairs=len(pairs)):
        return [(i, j, measure.similarity(queries[i], gallery[j])) for i, j in pairs]


#: Sentinel key marking a process-worker result that carries telemetry
#: alongside the score triples (see _task_with_telemetry).
TELEMETRY_KEY = "__repro_worker_telemetry__"


def _worker_registries() -> list:
    """The registries this worker records into, deduplicated.

    A spawn-started worker rebinds its measure to the worker's default
    registry; a fork-started worker keeps the measure bound to a fork
    copy of the parent's (possibly custom) registry while arena/attach
    instruments hit the default one — so both must feed the delta.
    """
    from ..obs import get_registry

    registries = [get_registry()]
    measure_registry = getattr(_WORKER_STATE.get("measure"), "_registry", None)
    if measure_registry is not None and measure_registry is not registries[0]:
        registries.append(measure_registry)
    return registries


def _install_delta_sources() -> None:
    """(Re)build this worker's delta sources with a primed baseline.

    Called from the pool initializers: priming at initializer time means
    a fork-started worker's registries — fork copies that already carry
    the parent's pre-fork history — contribute only work recorded *in
    this process* to the deltas, never the parent's own.
    """
    from ..obs import DeltaSource

    _WORKER_STATE["delta_sources"] = [
        DeltaSource(registry, prime=True) for registry in _worker_registries()
    ]


def _worker_delta():
    """The merged registry delta since the last task, or ``None``."""
    from ..obs import DeltaSource, merge_snapshots

    sources = _WORKER_STATE.get("delta_sources")
    if sources is None:
        # No initializer ran (direct task invocation in tests): fall
        # back to unprimed sources whose first delta is the lifetime
        # snapshot.
        sources = _WORKER_STATE["delta_sources"] = [
            DeltaSource(registry) for registry in _worker_registries()
        ]
    deltas = [d for d in (source.delta() for source in sources) if d]
    if not deltas:
        return None
    merged = deltas[0]
    for delta in deltas[1:]:
        merged = merge_snapshots(merged, delta)
    return merged


def _task_with_telemetry(task, pairs):
    """Run ``task`` in a process worker, piggybacking telemetry home.

    Wraps the chunk in a span and returns ``{TELEMETRY_KEY: True,
    "triples": ..., "delta": ..., "trace": ...}``; the supervisor
    unwraps it, folds the registry delta into the parent registry under
    ``process="worker"`` labels, and stitches the span subtree under the
    dispatching span.  With observability disabled the envelope carries
    only the triples.
    """
    from ..obs import enabled as obs_enabled

    result = {TELEMETRY_KEY: True}
    if not obs_enabled():
        result["triples"] = task(pairs)
        return result
    from ..obs import get_tracer, span_payload

    with get_tracer().span(
        "parallel.worker-chunk", pairs=len(pairs), worker_pid=os.getpid()
    ) as span:
        result["triples"] = task(pairs)
    result["delta"] = _worker_delta()
    result["trace"] = span_payload(span)
    return result


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` request to a positive worker count.

    ``None`` and ``1`` mean serial; ``-1`` means one worker per available
    CPU; other negative values follow the scikit-learn convention
    ``available_cpus + 1 + n_jobs`` (floored at 1).

    "Available CPUs" is the scheduling affinity of this process
    (``os.sched_getaffinity``), not ``os.cpu_count()``: in containers and
    cgroup-limited CI runners the two disagree, and sizing a pool to the
    host's core count on a 1-core quota just multiplies context-switch
    overhead.  Platforms without affinity (macOS, Windows) fall back to
    ``os.cpu_count()``.
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == 0:
        raise ValueError("n_jobs must be a positive count, -1, or None")
    # Inside a cluster shard worker every pool is serial, whatever was
    # asked: the cluster already owns the parallelism (N shards × R
    # replicas), and nesting a per-CPU pool under each worker would fork
    # N·R·cpus processes.
    if in_cluster_worker():
        return 1
    cpus = available_cpus()
    if n_jobs < 0:
        return max(1, cpus + 1 + n_jobs)
    return n_jobs


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def chunk_pairs(
    pairs: Sequence[tuple[int, int]],
    n_workers: int,
    chunks_per_worker: int = CHUNKS_PER_WORKER,
) -> list[list[tuple[int, int]]]:
    """Split the pair list into interleaved chunks for dispatch.

    Chunks are taken round-robin (``pairs[k::n_chunks]``) rather than as
    contiguous slices: pair costs correlate with trajectory length and
    neighbouring pairs share a row, so contiguous slabs would concentrate
    the expensive rows in a few unlucky workers.  Interleaving spreads
    them evenly while remaining fully deterministic.
    """
    if not pairs:
        return []
    n_chunks = min(len(pairs), max(1, n_workers * chunks_per_worker))
    return [list(pairs[k::n_chunks]) for k in range(n_chunks)]


def make_executor(n_workers: int, measure, arena_handle) -> ProcessPoolExecutor:
    """A process pool whose workers attach to the arena behind ``arena_handle``.

    Initargs carry only ``(measure, handle)``; each worker attaches to
    the shared block once, in its initializer.  Raises when there is no
    arena or the measure cannot cross a process boundary (e.g. a
    closure-based transition policy) — the supervisor then degrades to
    serial scoring in the driver process.
    """
    if arena_handle is None:
        raise RuntimeError("no shared-memory arena to attach workers to")
    pickle.dumps(measure)
    return ProcessPoolExecutor(
        max_workers=n_workers,
        initializer=_attach_worker,
        initargs=(measure, arena_handle),
    )


def _announce_shm_fallback(reason: str, registry=None) -> None:
    """One-line warning + counter when the arena path cannot be used."""
    from ..obs import get_registry

    reg = registry if registry is not None else get_registry()
    reg.counter(
        "repro_parallel_shm_fallback_total",
        "Dispatches that fell back from the shared-memory arena to serial scoring",
    ).inc(reason=reason)
    warnings.warn(
        f"shared-memory arena requested but unusable ({reason}); "
        "falling back to serial scoring in the driver process",
        RuntimeWarning,
        stacklevel=3,
    )
