"""In-memory span recorder wrapped around the program's public entry points.

The wrappers live here, in the benchmark, not in the program: installing
them swaps each entry point (a class attribute, or a module function and
every ``from … import`` alias of it) for a closure that records a span
``[name, start, end, parent, request]`` and, optionally, counts taken at
the same boundary.  Only the main thread is traced; work in worker
processes is accounted from ``/proc`` by the workloads instead.

A span's *self time* is its duration minus the durations of its direct
children (children nest strictly inside their parent on one thread).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import weakref
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from procs import reaped_children_cpu_s

__all__ = ["Recorder", "install", "layer_values"]


class Recorder:
    """Spans and boundary counters of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._main = threading.get_ident()
        self._estimators: list[weakref.finalize] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str | None, fn, on_exit=None, enter=None):
        """``fn`` recording a span called ``name`` (``None``: counts only).

        ``enter(args)`` runs before the call and its result reaches
        ``on_exit(rec, token, args, out)``, which runs after it.
        """
        rec = self
        nid = None if name is None else self.name_id(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != rec._main:
                return fn(*args, **kwargs)
            token = enter(args) if enter is not None else None
            if nid is None:
                out = fn(*args, **kwargs)
            else:
                span = [nid, 0.0, 0.0, stack[-1] if stack else -1, rec.request]
                stack.append(len(spans))
                spans.append(span)
                span[1] = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()
            if on_exit is not None:
                on_exit(rec, token, args, out)
            return out

        return wrapper

    # ------------------------------------------------------------------
    def track_estimator(self, stp) -> None:
        """Fold the estimator's cache counters once, when it dies or at
        :meth:`finish`, whichever comes first."""
        caches = {
            "results": stp._cache,
            "kernels": stp._kernel_cache,
            "plane_ffts": stp._plane_fft_cache,
        }
        self._estimators.append(weakref.finalize(stp, self._fold_caches, caches))

    def _fold_caches(self, caches) -> None:
        for label, cache in caches.items():
            self.counts[f"cache.{label}.hits"] += cache.hits
            self.counts[f"cache.{label}.misses"] += cache.misses

    def finish(self) -> None:
        for fin in self._estimators:
            if fin.alive:
                fin()
        self._estimators.clear()

    # ------------------------------------------------------------------
    def aggregate(self) -> dict[str, list[float]]:
        """``{name: [calls, inclusive_s, self_s]}`` over every span."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, list[float]] = {}
        for k, span in enumerate(spans):
            dur = span[2] - span[1]
            row = out.setdefault(self.names[span[0]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[k]
        return out

    def pairloop_s(self) -> float:
        """Serial ``STS.pairwise`` time outside its prewarm children."""
        pw = self._ids.get("sts.pairwise")
        if pw is None:
            return 0.0
        skip = {self._ids.get("sts.prewarm"), self._ids.get("parallel.pairwise")}
        total = 0.0
        excluded: dict[int, float] = defaultdict(float)
        parallel = set()
        for span in self.spans:
            parent = span[3]
            if parent >= 0 and span[0] in skip and self.spans[parent][0] == pw:
                excluded[parent] += span[2] - span[1]
                if span[0] == self._ids.get("parallel.pairwise"):
                    parallel.add(parent)
        for k, span in enumerate(self.spans):
            if span[0] == pw and k not in parallel:
                total += span[2] - span[1] - excluded[k]
        return total

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "request"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _count(key: str, fn=lambda args, out: 1):
    def on_exit(rec, _token, args, out):
        rec.counts[key] += fn(args, out)

    return on_exit


def _stp_init(rec, _token, args, _out):
    rec.track_estimator(args[0])


def _zero_inner(rec, _token, _args, out):
    rec.counts["colocation.inner_zero"] += out == 0.0


def _query_times(rec, _token, args, _out):
    rec.counts["stprob.query_times"] += np.size(args[1])


def _candidates(rec, _token, args, out):
    rec.counts["index.considered"] += len(args[2])
    rec.counts["index.survivors"] += len(out)


def _refine(rec, _token, _args, out):
    scores = out[1] if isinstance(out, tuple) else out
    rec.counts["index.scored"] += len(scores)
    rec.counts["index.nonzero"] += sum(1 for s in scores if s > 0.0)


def _parallel_enter(_args):
    return reaped_children_cpu_s()


def _parallel_exit(rec, token, args, _out):
    engine = args[0]
    rec.counts["parallel.worker_cpu_s"] += reaped_children_cpu_s() - token
    rec.counts["parallel.capacity_n"] = max(rec.counts["parallel.capacity_n"], engine.n_jobs)
    health = engine.last_health
    if health is not None:
        rec.counts["parallel.retries"] += health.retries
        rec.counts["parallel.degradations"] += len(health.degradations)


def _cluster_query(rec, _token, _args, out):
    report = out[1]
    rec.counts["cluster.hedges"] += report.hedges_fired
    rec.counts["cluster.hedges_wasted"] += report.hedges_wasted
    rec.counts["cluster.failovers"] += report.failovers
    key = "cluster.coverage_min"
    seen = rec.counts.get(key)
    rec.counts[key] = report.coverage if seen is None else min(seen, report.coverage)


def _evaluate(rec, _token, args, _out):
    health = args[0].last_health
    rec.counts["streaming.evaluations"] += 1
    rec.counts["streaming.pairs_scored"] += health.pairs_scored
    rec.counts["serving.shed_pairs"] += health.pairs_shed
    # n scorable objects give n(n-1)/2 pairs.
    rec.counts["streaming.active"] += (1.0 + (1.0 + 8.0 * health.pairs_scored) ** 0.5) / 2.0


def _snapshot_bytes(rec, _token, _args, out):
    rec.counts["wal.bytes"] += Path(out).stat().st_size


def install(rec: Recorder):
    """Wrap every traced entry point; returns an ``uninstall`` callable."""
    from repro.cluster import ClusterService
    from repro.core import colocation, noise, speed, stprob, sts, transition
    from repro.index import FilteredMatcher
    from repro.obs.registry import MetricsRegistry
    from repro.parallel import ParallelSTS
    from repro import streaming, streaming_wal

    restore: list = []

    def method(cls, attr, name, on_exit=None, enter=None):
        orig = cls.__dict__[attr]
        restore.append(lambda: setattr(cls, attr, orig))
        setattr(cls, attr, rec.wrap(name, orig, on_exit, enter))

    def function(module, attr, name, on_exit=None):
        orig = getattr(module, attr)
        wrapped = rec.wrap(name, orig, on_exit)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapped)
                restore.append(lambda mod=mod: setattr(mod, attr, orig))

    for cls in vars(noise).values():
        if isinstance(cls, type) and issubclass(cls, noise.NoiseModel):
            for attr in ("cell_distribution", "dense_distribution"):
                if attr in cls.__dict__:
                    method(cls, attr, "noise", _count("noise.calls"))
    method(speed.KDESpeedModel, "__init__", "speed", _count("speed.kde_builds"))
    for attr in ("density", "transition_weight"):
        method(speed.KDESpeedModel, attr, "speed")
    for attr in ("weights", "distance_weights"):
        method(transition.SpeedTransitionModel, attr, "transition", _count("transition.weight_calls"))
    method(stprob.TrajectorySTP, "__init__", "stprob.init", _stp_init)
    method(stprob.TrajectorySTP, "stp_batch", "stprob.batch", _query_times)
    method(stprob.TrajectorySTP, "stp", "stprob.batch", _count("stprob.query_times"))
    function(colocation, "colocation_batch", "colocation.batch")
    function(colocation, "sparse_inner", "colocation.inner", _zero_inner)
    method(sts.STS, "similarity", "sts.similarity")
    method(sts.STS, "_prewarm", "sts.prewarm")
    method(sts.STS, "pairwise", "sts.pairwise")
    method(FilteredMatcher, "query", "index.query")
    method(FilteredMatcher, "candidates", "index.candidates", _candidates)
    method(FilteredMatcher, "_score_survivors", "index.refine", _refine)
    method(FilteredMatcher, "_score_survivors_cluster", "index.refine", _refine)
    method(MetricsRegistry, "snapshot", "obs.snapshot")
    method(ParallelSTS, "pairwise", "parallel.pairwise", _parallel_exit, _parallel_enter)
    method(ClusterService, "query_scores", "cluster.query", _cluster_query)
    method(streaming.StreamingColocationDetector, "offer", "streaming.offer")
    method(streaming.StreamingColocationDetector, "evaluate", "streaming.evaluate", _evaluate)
    method(streaming_wal.StreamingWAL, "append", "wal.append")
    method(streaming_wal.StreamingWAL, "write_snapshot", "wal.snapshot", _snapshot_bytes)
    function(streaming_wal, "_frame", None, _count("wal.bytes", lambda _a, out: len(out)))

    def uninstall() -> None:
        for undo in reversed(restore):
            undo()

    return uninstall


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(rec: Recorder, cluster_cpu_s: float, overhead: float) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from one traced pass."""
    agg = rec.aggregate()
    c = rec.counts

    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return agg.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return agg.get(name, [0, 0.0, 0.0])[2]

    def hit_ratio(label):
        hits, misses = c[f"cache.{label}.hits"], c[f"cache.{label}.misses"]
        return _ratio(hits, hits + misses)

    parallel_wall = incl("parallel.pairwise")
    values = {
        "noise.calls": c["noise.calls"],
        "noise.self_s": self_s("noise"),
        "speed.kde_builds": c["speed.kde_builds"],
        "speed.self_s": self_s("speed"),
        "transition.weight_calls": c["transition.weight_calls"],
        "transition.self_s": self_s("transition"),
        "stprob.estimators": calls("stprob.init"),
        "stprob.init_s": incl("stprob.init"),
        "stprob.batch_calls": calls("stprob.batch"),
        "stprob.query_times": c["stprob.query_times"],
        "stprob.times_per_call": _ratio(c["stprob.query_times"], calls("stprob.batch")),
        "stprob.batch_s": self_s("stprob.batch"),
        "stprob.result_hit_ratio": hit_ratio("results"),
        "stprob.kernel_hit_ratio": hit_ratio("kernels"),
        "stprob.plane_fft_hit_ratio": hit_ratio("plane_ffts"),
        "colocation.batch_calls": calls("colocation.batch"),
        "colocation.batch_s": self_s("colocation.batch"),
        "colocation.inner_calls": calls("colocation.inner"),
        "colocation.inner_s": incl("colocation.inner"),
        "colocation.zero_ratio": _ratio(c["colocation.inner_zero"], calls("colocation.inner")),
        "sts.similarity_calls": calls("sts.similarity"),
        "sts.similarity_s": incl("sts.similarity"),
        "sts.prewarm_s": incl("sts.prewarm"),
        "sts.pairloop_s": rec.pairloop_s(),
        "sts.pairwise_self_s": self_s("sts.pairwise"),
        "index.candidates_s": incl("index.candidates"),
        "index.considered": c["index.considered"],
        "index.survivors": c["index.survivors"],
        "index.survivor_ratio": _ratio(c["index.survivors"], c["index.considered"]),
        "index.nonzero_ratio": _ratio(c["index.nonzero"], c["index.scored"]),
        "index.query_self_s": self_s("index.query"),
        "obs.snapshot_calls": calls("obs.snapshot"),
        "obs.snapshot_s": incl("obs.snapshot"),
        "parallel.wall_s": parallel_wall,
        "parallel.worker_cpu_s": c["parallel.worker_cpu_s"],
        "parallel.utilization": _ratio(
            c["parallel.worker_cpu_s"], parallel_wall * c["parallel.capacity_n"]
        ),
        "parallel.retries": c["parallel.retries"],
        "parallel.degradations": c["parallel.degradations"],
        "cluster.query_s": incl("cluster.query"),
        "cluster.worker_cpu_s": cluster_cpu_s,
        "cluster.hedges": c["cluster.hedges"],
        "cluster.hedge_wasted_ratio": _ratio(c["cluster.hedges_wasted"], c["cluster.hedges"]),
        "cluster.failovers": c["cluster.failovers"],
        "cluster.coverage_min": c.get("cluster.coverage_min", 0.0),
        "streaming.offers": calls("streaming.offer"),
        "streaming.offer_s": incl("streaming.offer"),
        "streaming.evaluate_s": incl("streaming.evaluate"),
        "streaming.pairs_scored": c["streaming.pairs_scored"],
        "streaming.active_mean": _ratio(c["streaming.active"], c["streaming.evaluations"]),
        "serving.shed_pairs": c["serving.shed_pairs"],
        "wal.appends": calls("wal.append"),
        "wal.append_s": incl("wal.append"),
        "wal.snapshots": calls("wal.snapshot"),
        "wal.snapshot_s": incl("wal.snapshot"),
        "wal.bytes": c["wal.bytes"],
        "trace.spans": len(rec.spans),
        "trace.overhead_ratio": overhead,
    }
    return {k: float(v) for k, v in values.items()}
