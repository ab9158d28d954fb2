"""Associative-mergeable metric snapshots: merge, delta, fold.

A :meth:`MetricsRegistry.snapshot` is a plain dict, which makes it the
natural wire format for cross-process telemetry — but only if snapshots
can be *combined*.  This module supplies the algebra:

* :func:`merge_snapshots` — an associative, commutative merge of two
  snapshots (counters and gauges sum; histograms sum bucket-wise and
  re-derive their quantiles), so fleet-wide series are a fold over
  per-process snapshots in any order;
* :func:`snapshot_delta` — the increment between two cumulative
  snapshots from the *same* process, with counter-reset detection: a
  restarted worker restarts from zero, so its next delta is its whole
  new snapshot and nothing is ever double-counted;
* :class:`DeltaSource` — the worker-side adapter that turns a live
  registry into a stream of such deltas (piggybacked on query replies
  and heartbeats);
* :func:`merge_into_registry` — the parent-side fold of a snapshot into
  a live registry under extra labels (``process="worker"``, shard and
  replica ids), so the operator-visible series finally describe the
  whole fleet rather than one process.

Gauges are point-in-time values, so :class:`DeltaSource` excludes them
from deltas; :func:`merge_into_registry` writes gauges under the extra
labels as distinct per-process series instead of summing them.
"""

from __future__ import annotations

import math
import re

from .registry import MetricsRegistry, _label_key, _label_str

__all__ = [
    "DeltaSource",
    "hist_stats_quantile",
    "merge_into_registry",
    "merge_snapshots",
    "parse_label_str",
    "snapshot_delta",
    "snapshot_is_empty",
]

_SECTIONS = ("counters", "gauges", "histograms")

_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_label_str(label_str: str) -> dict[str, str]:
    """Invert ``_label_str``: ``'k="v",k2="v2"'`` back to a dict."""
    if not label_str:
        return {}
    out: dict[str, str] = {}
    for match in _LABEL_RE.finditer(label_str):
        value = match.group(2)
        value = (
            value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        )
        out[match.group(1)] = value
    return out


def snapshot_is_empty(snapshot: dict | None) -> bool:
    """True when the snapshot carries no series at all."""
    return not snapshot or not any(snapshot.get(s) for s in _SECTIONS)


# ----------------------------------------------------------------------
# Histogram stats algebra
# ----------------------------------------------------------------------
def hist_stats_quantile(stats: dict, q: float) -> float:
    """Bucket-interpolated quantile of a stats dict (mirrors the registry).

    Same estimator as :meth:`Histogram._quantile_from` — linear
    interpolation inside the containing bucket, clamped to the observed
    ``[min, max]`` — but computed from the serialized form, so merged
    stats can re-derive p50/p95/p99 without a live instrument.
    """
    total = int(stats["count"])
    if total == 0:
        return math.nan
    bounds = [float(le) for le, _ in stats["buckets"] if le != "+Inf"]
    counts = [int(c) for _, c in stats["buckets"]]
    mn, mx = float(stats["min"]), float(stats["max"])
    target = q * total
    cumulative = 0
    for idx, count in enumerate(counts):
        if count == 0:
            continue
        if cumulative + count >= target:
            lo = bounds[idx - 1] if idx > 0 else min(0.0, mn)
            hi = bounds[idx] if idx < len(bounds) else mx
            frac = (target - cumulative) / count
            estimate = lo + frac * (hi - lo)
            return float(min(max(estimate, mn), mx))
        cumulative += count
    return mx


def _with_quantiles(stats: dict) -> dict:
    stats["p50"] = hist_stats_quantile(stats, 0.50)
    stats["p95"] = hist_stats_quantile(stats, 0.95)
    stats["p99"] = hist_stats_quantile(stats, 0.99)
    return stats


def _bucket_bounds(stats: dict) -> tuple:
    return tuple(le for le, _ in stats["buckets"])


def _merge_hist_stats(a: dict, b: dict) -> dict:
    """Sum two stats dicts bucket-wise; quantiles are re-derived."""
    if _bucket_bounds(a) != _bucket_bounds(b):
        raise ValueError(
            f"cannot merge histogram stats with different buckets: "
            f"{_bucket_bounds(a)} vs {_bucket_bounds(b)}"
        )
    merged = {
        "count": int(a["count"]) + int(b["count"]),
        "sum": float(a["sum"]) + float(b["sum"]),
        "min": min(float(a["min"]), float(b["min"])),
        "max": max(float(a["max"]), float(b["max"])),
        "buckets": [
            [le, int(ca) + int(cb)]
            for (le, ca), (_, cb) in zip(a["buckets"], b["buckets"])
        ],
    }
    return _with_quantiles(merged)


def _copy_hist_stats(stats: dict) -> dict:
    out = dict(stats)
    out["buckets"] = [list(pair) for pair in stats["buckets"]]
    return out


# ----------------------------------------------------------------------
# Snapshot merge and delta
# ----------------------------------------------------------------------
def merge_snapshots(a: dict, b: dict) -> dict:
    """Combine two snapshots; associative and commutative.

    Counters and gauges sum per (name, label set); histograms sum
    bucket-wise (requiring identical bucket bounds) with quantiles
    re-derived from the merged buckets.  Inputs are not mutated.
    """
    out = {"counters": {}, "gauges": {}, "histograms": {}}
    for section in ("counters", "gauges"):
        for snap in (a, b):
            for name, series in (snap.get(section) or {}).items():
                merged = out[section].setdefault(name, {})
                for key, value in series.items():
                    merged[key] = merged.get(key, 0.0) + float(value)
    for snap in (a, b):
        for name, series in (snap.get("histograms") or {}).items():
            merged = out["histograms"].setdefault(name, {})
            for key, stats in series.items():
                if key in merged:
                    merged[key] = _merge_hist_stats(merged[key], stats)
                else:
                    merged[key] = _with_quantiles(_copy_hist_stats(stats))
    return out


def snapshot_delta(prev: dict | None, cur: dict) -> dict:
    """The increment from cumulative snapshot ``prev`` to ``cur``.

    Both snapshots must come from the same process.  If any series went
    *backwards* (the process restarted and its counters reset to zero),
    the current cumulative value is taken as the delta — which is exactly
    the restarted process's uncredited work, so folding deltas never
    double-counts across restarts.  Gauges are point-in-time values with
    no meaningful increment and are excluded.
    """
    prev = prev or {}
    delta = {"counters": {}, "gauges": {}, "histograms": {}}
    prev_counters = prev.get("counters") or {}
    for name, series in (cur.get("counters") or {}).items():
        prev_series = prev_counters.get(name) or {}
        out = {}
        for key, value in series.items():
            inc = float(value) - float(prev_series.get(key, 0.0))
            if inc < 0:  # reset: the process restarted from zero
                inc = float(value)
            if inc != 0:
                out[key] = inc
        if out:
            delta["counters"][name] = out
    prev_hists = prev.get("histograms") or {}
    for name, series in (cur.get("histograms") or {}).items():
        prev_series = prev_hists.get(name) or {}
        out = {}
        for key, stats in series.items():
            before = prev_series.get(key)
            if before is None or _bucket_bounds(before) != _bucket_bounds(stats):
                out[key] = _with_quantiles(_copy_hist_stats(stats))
                continue
            counts = [
                int(cc) - int(pc)
                for (_, cc), (_, pc) in zip(stats["buckets"], before["buckets"])
            ]
            count = int(stats["count"]) - int(before["count"])
            if count < 0 or any(c < 0 for c in counts):
                # reset: take the whole new cumulative snapshot
                out[key] = _with_quantiles(_copy_hist_stats(stats))
                continue
            if count == 0:
                continue
            out[key] = _with_quantiles(
                {
                    "count": count,
                    "sum": float(stats["sum"]) - float(before["sum"]),
                    # The window's true extrema are unknowable from
                    # cumulative min/max; the lifetime extrema are a
                    # safe (clamping) superset.
                    "min": float(stats["min"]),
                    "max": float(stats["max"]),
                    "buckets": [
                        [le, c] for (le, _), c in zip(stats["buckets"], counts)
                    ],
                }
            )
        if out:
            delta["histograms"][name] = out
    return delta


# ----------------------------------------------------------------------
# Folding into a live registry
# ----------------------------------------------------------------------
def merge_into_registry(
    registry, snapshot: dict | None, labels: dict | None = None
) -> None:
    """Fold a snapshot into ``registry`` under extra ``labels``.

    Counters increment, histograms merge bucket-wise, gauges are set as
    distinct relabelled series.  Histograms whose bucket bounds disagree
    with an already-registered histogram of the same name are dropped
    and counted in ``repro_obs_merge_dropped_total`` instead of raising:
    a version-skewed worker must not take down the parent.
    """
    if snapshot_is_empty(snapshot) or not getattr(registry, "enabled", False):
        return
    extra = {str(k): str(v) for k, v in (labels or {}).items()}
    for name, series in (snapshot.get("counters") or {}).items():
        counter = registry.counter(name)
        for key, value in series.items():
            merged = parse_label_str(key)
            merged.update(extra)
            counter.inc(float(value), **merged)
    for name, series in (snapshot.get("gauges") or {}).items():
        gauge = registry.gauge(name)
        for key, value in series.items():
            merged = parse_label_str(key)
            merged.update(extra)
            gauge.set(float(value), **merged)
    for name, series in (snapshot.get("histograms") or {}).items():
        for key, stats in series.items():
            bounds = tuple(
                float(le) for le, _ in stats["buckets"] if le != "+Inf"
            )
            merged = parse_label_str(key)
            merged.update(extra)
            try:
                hist = registry.histogram(name, buckets=bounds)
                hist.merge_stats(stats, **merged)
            except (TypeError, ValueError):
                registry.counter(
                    "repro_obs_merge_dropped_total",
                    "snapshot series dropped during fleet aggregation",
                ).inc(metric=name, reason="bucket-mismatch")


class DeltaSource:
    """Worker-side cumulative-to-delta adapter over a live registry.

    Each :meth:`delta` call snapshots the registry and returns the
    increment since the previous call (``None`` when there is nothing
    new or observability is disabled).  The first delta is the whole
    cumulative snapshot — a fresh process's uncredited history — which
    is what makes restart accounting exact: a restarted worker builds a
    fresh ``DeltaSource`` and its work is credited exactly once.

    With ``prime=True`` the baseline is the registry's *current*
    snapshot instead of empty: everything recorded before construction
    is excluded from every delta.  A fork-started worker primes at
    entry, so the parent history its registries were forked with is
    never re-credited as worker work.
    """

    def __init__(self, registry, prime: bool = False):
        self._registry = registry
        self._last: dict = {}
        if prime and getattr(registry, "enabled", False):
            self._last = registry.snapshot()

    def delta(self) -> dict | None:
        """The registry increment since the last call, or ``None``."""
        registry = self._registry
        if not getattr(registry, "enabled", False):
            return None
        cur = registry.snapshot()
        if snapshot_is_empty(cur):
            return None
        out = snapshot_delta(self._last, cur)
        self._last = cur
        return None if snapshot_is_empty(out) else out
