"""Declarative SLOs evaluated as multi-window burn rates over snapshots.

An :class:`SLO` names a good/bad-event signal derivable from a registry
snapshot — a latency histogram with a threshold, a bad/total counter
ratio, or the cluster-coverage histogram — plus an objective (the
fraction of events that must be good).  :class:`SLOTracker` samples a
live registry over time and evaluates each SLO over a *fast* and a
*slow* trailing window, reporting burn rates (observed error rate over
the error budget ``1 - objective``):

* burn rate 1.0 — the budget is being consumed exactly at the rate that
  exhausts it at the end of the (implied) compliance period;
* the tracker pages when the fast window burns hot *and* the slow
  window confirms it (the standard multiwindow rule, collapsed to two
  windows), and warns on a sustained lower burn.

Everything operates on plain snapshot dicts, so the same math serves
the live exporter (``/slo``), `repro obs slo` on a saved snapshot, and
:class:`ServiceHealth` annotation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .registry import get_registry
from .aggregate import parse_label_str

__all__ = ["SLO", "SLOTracker", "default_slos"]


@dataclass(frozen=True)
class SLO:
    """One service-level objective over snapshot-derivable events.

    ``signal`` selects the extraction rule:

    * ``"latency"`` — events are observations of ``histogram``; bad
      events landed in buckets whose upper bound exceeds ``threshold``
      (seconds).  Threshold resolution is bucket-granular, so pick a
      threshold that is a bucket bound.
    * ``"error_ratio"`` — bad events are the ``bad_counter`` series
      matching ``bad_labels`` (subset match); total events the
      ``total_counter`` series matching ``total_labels``.
    * ``"coverage"`` — events are observations of ``histogram`` (a
      fraction-valued histogram such as ``repro_cluster_coverage``);
      bad events landed in buckets strictly below ``threshold``.
    """

    name: str
    objective: float  # fraction of events that must be good, e.g. 0.99
    signal: str  # "latency" | "error_ratio" | "coverage"
    histogram: str | None = None
    threshold: float | None = None
    bad_counter: str | None = None
    bad_labels: dict = field(default_factory=dict)
    total_counter: str | None = None
    total_labels: dict = field(default_factory=dict)
    description: str = ""

    def __post_init__(self):
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {self.objective}")
        if self.signal in ("latency", "coverage"):
            if not self.histogram or self.threshold is None:
                raise ValueError(f"{self.signal!r} SLO needs histogram and threshold")
        elif self.signal == "error_ratio":
            if not self.bad_counter or not self.total_counter:
                raise ValueError("'error_ratio' SLO needs bad_counter and total_counter")
        else:
            raise ValueError(f"unknown SLO signal {self.signal!r}")

    # ------------------------------------------------------------------
    def totals(self, snapshot: dict) -> tuple[float, float]:
        """Cumulative ``(bad, total)`` event counts in ``snapshot``."""
        if self.signal in ("latency", "coverage"):
            return self._histogram_totals(snapshot)
        return self._counter_totals(snapshot)

    def _histogram_totals(self, snapshot: dict) -> tuple[float, float]:
        series = (snapshot.get("histograms") or {}).get(self.histogram) or {}
        bad = total = 0.0
        for stats in series.values():
            total += int(stats["count"])
            for le, count in stats["buckets"]:
                bound = float("inf") if le == "+Inf" else float(le)
                if self.signal == "latency":
                    # an observation is bad when it could exceed the
                    # threshold: its bucket's upper bound lies above it
                    if bound > self.threshold:
                        bad += int(count)
                elif bound < self.threshold:
                    bad += int(count)
        return bad, total

    def _counter_totals(self, snapshot: dict) -> tuple[float, float]:
        counters = snapshot.get("counters") or {}

        def matching(name: str, want: dict) -> float:
            out = 0.0
            for key, value in (counters.get(name) or {}).items():
                labels = parse_label_str(key)
                if all(labels.get(k) == str(v) for k, v in want.items()):
                    out += float(value)
            return out

        bad = matching(self.bad_counter, self.bad_labels)
        total = matching(self.total_counter, self.total_labels)
        return bad, max(bad, total)


def default_slos() -> tuple[SLO, ...]:
    """The stock SLO set for the link/serving path."""
    return (
        SLO(
            name="link-latency-p99",
            objective=0.99,
            signal="latency",
            histogram="repro_matcher_query_seconds",
            threshold=0.5,
            description="99% of matcher queries complete within 500 ms",
        ),
        SLO(
            name="chunk-error-rate",
            objective=0.999,
            signal="error_ratio",
            bad_counter="repro_supervisor_chunks_total",
            bad_labels={"event": "shed"},
            total_counter="repro_supervisor_chunks_total",
            total_labels={"event": "queued"},
            description="99.9% of dispatched chunks complete without shedding",
        ),
        SLO(
            name="cluster-coverage",
            objective=0.999,
            signal="coverage",
            histogram="repro_cluster_coverage",
            threshold=1.0,
            description="99.9% of cluster queries consult the full gallery",
        ),
    )


class SLOTracker:
    """Samples a registry over time and evaluates burn rates per SLO.

    Call :meth:`sample` periodically (the exporter does so on every
    ``/slo`` request, benches once per repeat); :meth:`evaluate`
    re-samples and reports per-SLO state.  With fewer than two samples
    in a window, the window falls back to the lifetime totals — so a
    one-shot evaluation of a static snapshot still yields a meaningful
    (whole-history) burn rate.
    """

    def __init__(
        self,
        registry=None,
        slos: tuple = (),
        fast_window_s: float = 300.0,
        slow_window_s: float = 3600.0,
        page_burn: float = 14.4,
        warn_burn: float = 6.0,
        clock=time.monotonic,
        max_samples: int = 4096,
    ):
        self._registry = registry if registry is not None else get_registry()
        self.slos = tuple(slos) or default_slos()
        self.fast_window_s = float(fast_window_s)
        self.slow_window_s = float(slow_window_s)
        self.page_burn = float(page_burn)
        self.warn_burn = float(warn_burn)
        self._clock = clock
        self._max_samples = int(max_samples)
        self._lock = threading.Lock()
        self._samples: list[tuple[float, dict]] = []

    # ------------------------------------------------------------------
    def sample(self, snapshot: dict | None = None) -> None:
        """Record one timestamped (bad, total) observation per SLO."""
        snap = snapshot if snapshot is not None else self._registry.snapshot()
        point = {slo.name: slo.totals(snap) for slo in self.slos}
        with self._lock:
            self._samples.append((self._clock(), point))
            if len(self._samples) > self._max_samples:
                # Thin the oldest half rather than sliding: keeps long
                # slow-window anchors while bounding memory.
                half = self._samples[: len(self._samples) // 2 : 2]
                self._samples = half + self._samples[len(self._samples) // 2 :]

    def evaluate(self, snapshot: dict | None = None) -> dict:
        """Sample now and report burn state per SLO (JSON-able)."""
        self.sample(snapshot)
        now = self._clock()
        with self._lock:
            samples = list(self._samples)
        out = []
        for slo in self.slos:
            budget = 1.0 - slo.objective
            windows = {}
            for label, window_s in (
                ("fast", self.fast_window_s),
                ("slow", self.slow_window_s),
            ):
                totals = self._window_totals_from(samples, slo.name, window_s, now)
                bad, total = totals if totals else (0.0, 0.0)
                rate = (bad / total) if total > 0 else 0.0
                windows[label] = {
                    "window_s": window_s,
                    "bad": bad,
                    "total": total,
                    "error_rate": rate,
                    "burn_rate": rate / budget if budget > 0 else 0.0,
                }
            fast, slow = windows["fast"], windows["slow"]
            if slow["total"] <= 0:
                state = "no_data"
            elif fast["burn_rate"] >= self.page_burn and slow["burn_rate"] >= 1.0:
                state = "page"
            elif max(fast["burn_rate"], slow["burn_rate"]) >= self.warn_burn:
                state = "warn"
            else:
                state = "ok"
            out.append(
                {
                    "name": slo.name,
                    "description": slo.description,
                    "signal": slo.signal,
                    "objective": slo.objective,
                    "error_budget": budget,
                    "fast": fast,
                    "slow": slow,
                    "state": state,
                }
            )
        return {"slos": out, "sampled": len(samples)}

    @staticmethod
    def _window_totals_from(samples, name, window_s, now):
        """(bad, total) accumulated inside the trailing window, if known."""
        cutoff = now - window_s
        anchor = latest = None
        for ts, point in samples:
            if name not in point:
                continue
            if ts <= cutoff:
                anchor = point[name]
            latest = point[name]
        if latest is None:
            return None
        if anchor is None:
            return latest  # window predates sampling: lifetime totals
        bad = latest[0] - anchor[0]
        total = latest[1] - anchor[1]
        if bad < 0 or total < 0:  # registry reset mid-window
            return latest
        return bad, total

    # ------------------------------------------------------------------
    @staticmethod
    def evaluate_snapshot(snapshot: dict, slos: tuple = ()) -> dict:
        """One-shot evaluation of a static snapshot (whole-history burn)."""
        tracker = SLOTracker(registry=_StaticRegistry(snapshot), slos=slos)
        return tracker.evaluate()


class _StaticRegistry:
    """Adapter: a frozen snapshot posing as a live registry."""

    enabled = True

    def __init__(self, snapshot: dict):
        self._snapshot = snapshot or {}

    def snapshot(self) -> dict:
        return self._snapshot
