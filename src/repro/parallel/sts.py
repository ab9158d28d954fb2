"""Parallel pairwise similarity: shard the pair list across workers.

A similarity matrix is embarrassingly parallel — every entry is an
independent ``measure.similarity(a, b)`` — but a naive fan-out re-pickles
the measure per pair and loses the symmetric structure.
:class:`ParallelSTS` runs one parallel path: the corpus is packed once
into a :class:`~repro.parallel.shm.SharedTrajectoryArena`, a
``ProcessPoolExecutor`` whose workers attach to it (and hold one private
copy of the measure each) scores interleaved, equally sized chunks of
index pairs, and the matrix is assembled deterministically from
``(row, col, score)`` triples.  Because every entry is produced by the
exact same scoring code as the serial path, the parallel matrix matches
``STS.pairwise`` to the last bit regardless of worker count or chunk
schedule.  ``persistent=True`` keeps the worker pool and the gallery
arena warm across ``pairwise``/``query`` calls, so a serving loop pays
pool startup and the gallery broadcast once.

Execution is *supervised* (see :mod:`repro.parallel.supervisor`): dead
workers are detected and their chunks retried with capped exponential
backoff, hung chunks are timed out, and the run degrades
``process → serial`` rather than failing — also when the arena cannot
be packed or the measure does not pickle.  What happened is recorded in
the :class:`~repro.parallel.supervisor.RunHealth` exposed as
:attr:`ParallelSTS.last_health`.  Passing ``checkpoint=`` journals
completed chunks to disk (atomic write-rename) so an interrupted run
resumes from the last good state — see :mod:`repro.checkpoint`.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from ..checkpoint import PairwiseCheckpoint
from ..core.trajectory import Trajectory
from ..obs import get_registry, trace_span
from .pool import (
    _announce_shm_fallback,
    _score_chunk_vs_queries,
    chunk_pairs,
    make_executor,
    resolve_n_jobs,
)
from .shm import SharedTrajectoryArena
from .supervisor import RunHealth, SupervisedExecutor, _kill_executor

__all__ = ["ParallelSTS"]


def _assemble(shape, triples: Iterable, symmetric: bool) -> np.ndarray:
    """The score matrix from ``(row, col, score)`` triples.

    A symmetric run scores only the upper triangle; it is mirrored with
    ``triu`` so every off-diagonal cell keeps its sign and NaN-ness.
    """
    out = np.zeros(shape)
    for i, j, score in triples:
        out[i, j] = score
    if symmetric:
        upper = np.triu(out)
        out = upper + np.triu(upper, 1).T
    return out


class ParallelSTS:
    """Parallel, fault-tolerant wrapper around any similarity measure.

    Parameters
    ----------
    measure:
        Any object with a ``similarity(tra1, tra2) -> float`` method
        (typically :class:`repro.core.STS`).  It must be picklable to
        reach the worker processes (STS and its ablation variants are);
        one that is not is scored serially in the driver.
    n_jobs:
        Worker count; ``-1`` means one per available CPU (``None``/``1``
        run serially in-process).
    persistent:
        Keep the worker pool and the gallery arena warm across calls.
        Use as a context manager (or call :meth:`close`) to release the
        pool and unlink the arena.  Repeated :meth:`pairwise` calls on
        the same gallery object, and any number of :meth:`query` calls
        against it, then skip pool startup and the corpus broadcast.
    chunk_timeout, max_retries, backoff_base, backoff_max, on_error,
    validate_scores:
        Supervision knobs, forwarded to the supervisor — see
        :class:`~repro.parallel.supervisor.SupervisedExecutor`.

    Attributes
    ----------
    last_health:
        The :class:`~repro.parallel.supervisor.RunHealth` of the most
        recent :meth:`pairwise` call (``None`` before the first call, or
        when the unsupervised serial fast path ran).
    """

    def __init__(
        self,
        measure,
        n_jobs: int | None = -1,
        persistent: bool = False,
        chunk_timeout: float | None = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        on_error: str = "raise",
        validate_scores: bool = True,
        registry=None,
    ):
        self.measure = measure
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.persistent = bool(persistent)
        self.chunk_timeout = chunk_timeout
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self.on_error = on_error
        self.validate_scores = bool(validate_scores)
        self.last_health: RunHealth | None = None
        self._arena = None
        self._warm: dict | None = None  # {"executor", "shm_name"}
        # Share the measure's registry when it has one, so parallel and
        # serial metrics land in one place.
        if registry is not None:
            self._registry = registry
        else:
            self._registry = getattr(measure, "_registry", None) or get_registry()
        self._h_pairwise = self._registry.histogram(
            "repro_pairwise_seconds", "Wall seconds per pairwise() call"
        ).child()
        self._h_dispatch = self._registry.histogram(
            "repro_parallel_dispatch_seconds",
            "Wall seconds per supervised chunk-dispatch round trip",
        ).child()

    # ------------------------------------------------------------------
    def similarity(self, tra1: Trajectory, tra2: Trajectory) -> float:
        """Single-pair passthrough (no parallelism for one score)."""
        return self.measure.similarity(tra1, tra2)

    def _fingerprint(
        self, n_rows: int, n_cols: int, n_pairs: int, n_chunks: int, symmetric: bool
    ) -> dict:
        return {
            "kind": "pairwise",
            "measure": getattr(self.measure, "name", type(self.measure).__name__),
            "n_rows": n_rows,
            "n_cols": n_cols,
            "n_pairs": n_pairs,
            "n_chunks": n_chunks,
            "symmetric": symmetric,
        }

    # ------------------------------------------------------------------
    # Arena + warm-pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_arena(self, gallery, queries):
        """The (possibly reused) arena for this call, or ``None``.

        With one worker the run executes in the driver process, so no
        arena is packed.  Packing failures are not fatal — the run
        degrades to serial — but they are announced so the regression
        is diagnosable.
        """
        if self.n_jobs <= 1:
            return None
        if self._arena is not None:
            if self.persistent and self._arena.matches(gallery, queries):
                return self._arena
            self._drop_arena()
        try:
            self._arena = SharedTrajectoryArena.pack(
                gallery, queries, registry=self._registry
            )
        except Exception as exc:  # e.g. no /dev/shm on the platform
            _announce_shm_fallback(f"arena pack failed: {exc}", self._registry)
            self._arena = None
        return self._arena

    def _drop_arena(self) -> None:
        # The warm pool's workers hold attachments keyed to the old
        # arena; a new arena invalidates them along with the segment.
        self._release_warm()
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def _release_warm(self) -> None:
        if self._warm is not None:
            try:
                self._warm["executor"].shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            self._warm = None

    def _executor_factory(self, arena_handle):
        """A supervisor ``executor_factory`` honouring persistence."""

        def factory(n_workers: int):
            # No arena means no warm pool either (dropping an arena
            # releases its pool), and make_executor refuses to start.
            warm = self._warm
            if warm is not None and warm["shm_name"] == arena_handle.shm_name:
                return warm["executor"]
            self._release_warm()
            executor = make_executor(n_workers, self.measure, arena_handle)
            if self.persistent:
                self._warm = {"executor": executor, "shm_name": arena_handle.shm_name}
            return executor

        return factory

    def _executor_release(self, executor, healthy: bool) -> None:
        """Supervisor release hook: keep healthy persistent pools warm."""
        warm = self._warm
        if self.persistent and warm is not None and warm["executor"] is executor:
            if healthy:
                return  # stays warm for the next call
            self._warm = None
        if healthy:
            executor.shutdown(wait=True, cancel_futures=True)
        else:
            _kill_executor(executor)

    def _supervisor(self, gallery, queries, arena, deadline, task=None):
        """A supervisor for one call, starting on the process rung."""
        arena_handle = arena.handle if arena is not None else None
        return SupervisedExecutor(
            self.measure,
            list(gallery),
            list(queries) if queries is not None else None,
            self.n_jobs,
            backend="process" if self.n_jobs > 1 else "serial",
            chunk_timeout=self.chunk_timeout,
            max_retries=self.max_retries,
            backoff_base=self.backoff_base,
            backoff_max=self.backoff_max,
            on_error=self.on_error,
            validate_scores=self.validate_scores,
            deadline=deadline,
            registry=self._registry,
            arena_handle=arena_handle,
            task=task,
            executor_factory=self._executor_factory(arena_handle),
            executor_release=self._executor_release,
        )

    def close(self) -> None:
        """Release the warm pool and unlink the arena (idempotent)."""
        self._drop_arena()

    def __enter__(self) -> "ParallelSTS":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def pairwise(
        self,
        gallery: Sequence[Trajectory],
        queries: Sequence[Trajectory] | None = None,
        checkpoint: str | None = None,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Similarity matrix, sharded across the worker pool.

        Mirrors :meth:`repro.core.STS.pairwise`: with ``queries=None`` the
        result is the symmetric ``gallery × gallery`` matrix with each
        unordered pair scored once; otherwise ``S[i, j] =
        similarity(queries[i], gallery[j])``.

        ``checkpoint`` names a journal file: completed chunks are
        persisted there (atomic write-rename) and a rerun pointing at the
        same file skips them.  Resume requires the same chunk plan — same
        collections and ``n_jobs`` — which the journal's fingerprint
        enforces.

        ``deadline`` caps the whole call at that many wall-clock seconds:
        chunks not finished in time come back NaN-filled (recorded as
        ``deadline-shed`` in :attr:`last_health`, whose
        ``deadline_expired`` flag is set).  Shed chunks are never
        journaled, so an unbounded rerun on the same checkpoint
        recomputes exactly the missing entries.
        """
        rows = gallery if queries is None else queries
        shape = (len(rows), len(gallery))
        if queries is None:
            pairs = [(i, j) for i in range(len(gallery)) for j in range(i, len(gallery))]
        else:
            pairs = [(i, j) for i in range(len(queries)) for j in range(len(gallery))]
        if not pairs:
            return np.zeros(shape)
        if self.n_jobs == 1 and checkpoint is None and deadline is None:
            # Serial, unjournaled and undeadlined: the measure's own
            # batched pairwise (prewarmed) is both faster and identical,
            # and there is nothing to supervise in-process.
            self.last_health = None
            serial = getattr(self.measure, "pairwise", None)
            if serial is not None:
                return serial(gallery, queries)
            similarity = self.measure.similarity
            return _assemble(
                shape,
                ((i, j, similarity(rows[i], gallery[j])) for i, j in pairs),
                queries is None,
            )

        chunks = chunk_pairs(pairs, self.n_jobs)
        arena = self._ensure_arena(gallery, queries)
        try:
            ckpt = None
            done = None
            if checkpoint is not None:
                ckpt = PairwiseCheckpoint(
                    checkpoint,
                    self._fingerprint(
                        shape[0], shape[1], len(pairs), len(chunks), queries is None
                    ),
                )
                done = ckpt.completed
            supervisor = self._supervisor(gallery, queries, arena, deadline)
            self.last_health = supervisor.health
            t0 = perf_counter()
            with trace_span("parallel.pairwise", n_jobs=self.n_jobs, chunks=len(chunks)):
                results = supervisor.run(
                    chunks,
                    done=done,
                    on_chunk_done=ckpt.record if ckpt is not None else None,
                )
            elapsed = perf_counter() - t0
            self._h_pairwise.observe(elapsed)
            self._h_dispatch.observe(elapsed)
            if getattr(self._registry, "enabled", False):
                supervisor.health.metrics = self._registry.snapshot()
            if ckpt is not None:
                ckpt.flush()
            return _assemble(
                shape,
                (triple for triples in results.values() for triple in triples),
                queries is None,
            )
        finally:
            if not self.persistent:
                self._drop_arena()

    def query(
        self,
        query: Trajectory,
        gallery: Sequence[Trajectory],
        cols: Sequence[int] | None = None,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Scores of one query against (a subset of) the gallery.

        ``cols`` selects gallery indices to score (default: all); the
        result is aligned with ``cols``.  With ``persistent=True`` the
        gallery arena is packed and broadcast on the first call and the
        warm workers are reused after that, so a serving loop pays only
        the per-call index chunks plus one small pickled query — the
        query itself never enters the arena.

        Scores are produced by the exact same ``measure.similarity``
        calls as the serial path, so the vector is bitwise identical to
        scoring each pair in-process.
        """
        cols = (
            list(range(len(gallery)))
            if cols is None
            else [int(c) for c in cols]
        )
        if not cols:
            return np.empty(0)
        if self.n_jobs == 1 and deadline is None:
            return np.array(
                [float(self.measure.similarity(query, gallery[c])) for c in cols]
            )
        chunks = chunk_pairs([(0, c) for c in cols], self.n_jobs)
        # The persistent arena must describe the gallery alone, so it
        # stays valid across calls with changing queries.
        arena = self._ensure_arena(gallery, None)
        try:
            supervisor = self._supervisor(
                gallery, [query], arena, deadline,
                task=partial(_score_chunk_vs_queries, [query]),
            )
            self.last_health = supervisor.health
            t0 = perf_counter()
            with trace_span("parallel.query", n_jobs=self.n_jobs, chunks=len(chunks)):
                results = supervisor.run(chunks)
            self._h_dispatch.observe(perf_counter() - t0)
            by_col = {
                j: score
                for triples in results.values()
                for _i, j, score in triples
            }
            return np.array([by_col[c] for c in cols])
        finally:
            if not self.persistent:
                self._drop_arena()

    def __repr__(self) -> str:
        return (
            f"ParallelSTS({self.measure!r}, n_jobs={self.n_jobs}, "
            f"persistent={self.persistent})"
        )
