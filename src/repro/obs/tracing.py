"""Lightweight hierarchical tracing: span trees, Chrome traces, flamegraphs.

A *span* is one timed region of the pipeline — a pairwise run, one
similarity evaluation, a worker chunk.  Spans nest: entering a span
while another is open on the same thread makes it a child, so a run
produces a forest of trees whose wall/CPU times explain where the
`O(|Tra|·|Tra'|·|R|^2)` work went.

The tracer is thread-aware (per-thread open-span stacks) and bounded
(a deque of the most recent root spans), so it can stay on in serving
loops without growing without bound.  Export paths:

* :meth:`Tracer.to_chrome_trace` — Chrome ``trace_event`` JSON, load
  in ``chrome://tracing`` / Perfetto;
* :meth:`Tracer.flamegraph` — a rendered text flamegraph, spans merged
  by path with inclusive wall time and call counts.

Like the metrics registry, tracing honours ``REPRO_OBS=off``: the span
context manager becomes a shared no-op.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import deque
from typing import Callable

from .registry import enabled

__all__ = [
    "Span",
    "Tracer",
    "adopt_span",
    "current_span",
    "get_tracer",
    "new_trace_id",
    "set_tracer",
    "span_from_payload",
    "span_payload",
    "spans_to_chrome",
    "trace_span",
    "traced",
]

_SPAN_IDS = itertools.count(1)

# Cached per-process constants: span creation sits inside per-pair hot
# loops, where an os.getpid() and time.time() call per span is real money.
# epoch starts are reconstructed as _EPOCH_OFFSET + start_s, trading a
# syscall per span for the (sub-ms) one-time offset between the clocks.
_PID = os.getpid()
_EPOCH_OFFSET = time.time() - time.perf_counter()


def _refresh_pid() -> None:
    global _PID
    _PID = os.getpid()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_refresh_pid)


def new_span_id() -> str:
    """A span id unique across processes (pid-qualified counter)."""
    return f"{_PID:x}-{next(_SPAN_IDS):x}"


def new_trace_id() -> str:
    """A random 64-bit trace id (hex)."""
    return os.urandom(8).hex()


class Span:
    """One completed (or open) timed region."""

    __slots__ = (
        "name", "attrs", "children", "start_s", "wall_s", "cpu_s",
        "tid", "pid", "_epoch_s", "_span_id",
    )

    def __init__(
        self,
        name: str,
        attrs: dict,
        start_s: float,
        tid: int,
        *,
        pid: int | None = None,
        epoch_s: float | None = None,
        span_id: str | None = None,
    ):
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.start_s = start_s  # perf_counter offset; relative, not epoch
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.tid = tid
        self.pid = _PID if pid is None else pid
        # epoch_s and span_id materialize lazily on first access: most
        # spans are leaf spans that are only ever aggregated (flamegraphs,
        # stage timings), and never need either.
        self._epoch_s = epoch_s
        self._span_id = span_id

    @property
    def epoch_s(self) -> float:
        """Wall-clock start: the cross-process anchor (perf_counter
        offsets are incomparable between processes; epoch seconds are
        not)."""
        if self._epoch_s is None:
            self._epoch_s = _EPOCH_OFFSET + self.start_s
        return self._epoch_s

    @epoch_s.setter
    def epoch_s(self, value: float) -> None:
        self._epoch_s = value

    @property
    def span_id(self) -> str:
        if self._span_id is None:
            self._span_id = new_span_id()
        return self._span_id

    @span_id.setter
    def span_id(self, value: str) -> None:
        self._span_id = value

    def finish(self, cpu_s: float = 0.0) -> "Span":
        """Close a manually-managed span (one not opened via a tracer)."""
        self.wall_s = time.perf_counter() - self.start_s
        self.cpu_s = cpu_s
        return self

    def to_dict(self) -> dict:
        """JSON-serializable form of the span subtree."""
        return {
            "name": self.name,
            "attrs": self.attrs,
            "span_id": self.span_id,
            "epoch_s": self.epoch_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "pid": self.pid,
            "tid": self.tid,
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, wall={self.wall_s:.6f}s, children={len(self.children)})"


class _SpanContext:
    """Context manager that opens/closes one span on the current thread.

    The enter/exit paths are fused (one stack fetch each, reused across
    both) and CPU self-time is only sampled for root spans: leaf spans
    open inside per-pair hot loops where two ``thread_time`` syscalls
    per span are measurable, and their CPU is attributed to the root
    anyway.
    """

    __slots__ = ("_tracer", "_name", "_attrs", "_span", "_cpu0", "_stack")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span = None
        self._cpu0 = -1.0
        self._stack = None

    def __enter__(self) -> Span:
        stack = self._stack = self._tracer._stack()
        span = self._span = Span(
            self._name, self._attrs, time.perf_counter(), threading.get_ident()
        )
        if stack:
            stack[-1].children.append(span)
            self._cpu0 = -1.0
        else:
            self._cpu0 = time.thread_time()
        stack.append(span)
        return span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self._span
        span.wall_s = time.perf_counter() - span.start_s
        if self._cpu0 >= 0.0:
            span.cpu_s = time.thread_time() - self._cpu0
        stack = self._stack
        # Tolerate out-of-order exits (generator teardown) by unwinding.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        if not stack:
            tracer = self._tracer
            with tracer._lock:
                tracer._roots.append(span)
        return None


class _NullSpanContext:
    """Shared no-op span for REPRO_OBS=off and disabled tracers."""

    __slots__ = ()
    name = ""
    attrs: dict = {}
    children: list = []
    start_s = 0.0
    wall_s = 0.0
    cpu_s = 0.0
    epoch_s = 0.0
    pid = 0
    tid = 0
    span_id = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_SPAN = _NullSpanContext()


class Tracer:
    """Collects span trees per thread, keeping the last ``max_roots`` roots."""

    def __init__(self, max_roots: int = 256):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: deque[Span] = deque(maxlen=max_roots)

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _SpanContext:
        """Open a span as a context manager: ``with tracer.span("x"): ...``"""
        return _SpanContext(self, name, attrs)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    def roots(self) -> list[Span]:
        """Completed root spans, oldest first."""
        with self._lock:
            return list(self._roots)

    def clear(self) -> None:
        """Forget every recorded root span."""
        with self._lock:
            self._roots.clear()

    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> list[dict]:
        """Chrome ``trace_event`` JSON (list of complete "X" events)."""
        return spans_to_chrome(self.roots())

    def flamegraph(self, width: int = 72) -> str:
        """Text flamegraph: spans merged by path, bars scaled to root time."""
        roots = self.roots()
        if not roots:
            return "(no spans recorded)"
        # Merge the forest by span-name path.
        merged: dict[str, dict] = {}

        def fold(span: Span, into: dict) -> None:
            node = into.setdefault(
                span.name, {"wall": 0.0, "cpu": 0.0, "count": 0, "children": {}}
            )
            node["wall"] += span.wall_s
            node["cpu"] += span.cpu_s
            node["count"] += 1
            for child in span.children:
                fold(child, node["children"])

        for root in roots:
            fold(root, merged)
        total = sum(node["wall"] for node in merged.values()) or 1.0
        lines: list[str] = []

        def render(name: str, node: dict, depth: int) -> None:
            bar = max(1, int(round(width * node["wall"] / total)))
            lines.append(
                f"{'  ' * depth}{'█' * bar} {name}  "
                f"{node['wall'] * 1e3:.2f} ms  (x{node['count']}, cpu {node['cpu'] * 1e3:.2f} ms)"
            )
            for child_name in sorted(
                node["children"], key=lambda n: -node["children"][n]["wall"]
            ):
                render(child_name, node["children"][child_name], depth + 1)

        for name in sorted(merged, key=lambda n: -merged[n]["wall"]):
            render(name, merged[name], 0)
        return "\n".join(lines)

    # Tracers may ride along on objects shipped to process workers; the
    # worker restarts with an empty tracer (locks do not pickle).
    def __getstate__(self) -> dict:
        return {"maxlen": self._roots.maxlen}

    def __setstate__(self, state: dict) -> None:
        self.__init__(max_roots=state.get("maxlen") or 256)


# ----------------------------------------------------------------------
# Cross-process stitching: payloads, adoption, Chrome export.
# ----------------------------------------------------------------------
def spans_to_chrome(
    roots, trace_id: str | None = None, parent_ids: dict | None = None
) -> list[dict]:
    """Chrome ``trace_event`` "X" events for a span forest.

    Timestamps are epoch-anchored (relative to the earliest span in the
    forest), so spans recorded in different processes land on one
    comparable timeline; each event carries its real ``pid`` plus
    ``span_id``/``parent_span_id`` args so stitched traces keep their
    causal links even where Chrome's pid/tid lanes cannot nest them.
    Events are sorted by timestamp (parents before equal-ts children).
    """
    roots = list(roots)
    roots = [r for r in roots if isinstance(r, Span)]
    if not roots:
        return []
    t0 = min(_earliest_epoch(r) for r in roots)
    events: list[dict] = []

    def walk(span: Span, parent_id: str | None) -> None:
        args = dict(span.attrs, cpu_ms=round(span.cpu_s * 1e3, 3))
        args["span_id"] = span.span_id
        if parent_id is not None:
            args["parent_span_id"] = parent_id
        if trace_id is not None:
            args["trace_id"] = trace_id
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": max(0.0, (span.epoch_s - t0) * 1e6),
                "dur": max(0.0, span.wall_s * 1e6),
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            }
        )
        for child in span.children:
            walk(child, span.span_id)

    parent_ids = parent_ids or {}
    for root in roots:
        walk(root, parent_ids.get(root.span_id))
    events.sort(key=lambda e: (e["ts"], -e["dur"]))
    return events


def _earliest_epoch(span: Span) -> float:
    epoch = span.epoch_s
    for child in span.children:
        epoch = min(epoch, _earliest_epoch(child))
    return epoch


def _compact_leaves(span: Span) -> Span:
    """Collapse runs of same-name childless children into summary spans.

    A worker query opens one leaf span per pair evaluation — dozens to
    hundreds of children that cost real time to serialize, ship and
    restitch, and that drown the cross-process trace in repetition.
    Consecutive childless children sharing a name are merged into one
    span carrying ``count`` and the summed wall time (serial leaves
    never overlap, so the merged extent stays inside the parent).
    Returns a shallow copy; the local tracer keeps full detail.
    """
    compacted = Span(
        span.name, span.attrs, span.start_s, span.tid,
        pid=span.pid, epoch_s=span.epoch_s, span_id=span.span_id,
    )
    compacted.wall_s = span.wall_s
    compacted.cpu_s = span.cpu_s
    run: Span | None = None
    for child in span.children:
        if not child.children:
            if run is not None and run.name == child.name:
                run.attrs["count"] += 1
                run.wall_s += child.wall_s
                run.cpu_s += child.cpu_s
                continue
            run = Span(
                child.name, dict(child.attrs), child.start_s, child.tid,
                pid=child.pid, epoch_s=child.epoch_s, span_id=child.span_id,
            )
            run.attrs["count"] = 1
            run.wall_s = child.wall_s
            run.cpu_s = child.cpu_s
            compacted.children.append(run)
        else:
            run = None
            compacted.children.append(_compact_leaves(child))
    return compacted


def span_payload(
    span,
    trace_id: str | None = None,
    parent_span_id: str | None = None,
    compact: bool = True,
) -> dict | None:
    """Serialize a completed span subtree for the wire.

    ``trace_id``/``parent_span_id`` carry the propagated trace context:
    the parent stitches the reconstructed subtree under the span whose
    id is ``parent_span_id``.  Same-name leaf runs are compacted into
    summary spans unless ``compact=False`` (see :func:`_compact_leaves`).
    Returns ``None`` for null spans.
    """
    if not isinstance(span, Span):
        return None
    if compact:
        span = _compact_leaves(span)
    return {
        "trace_id": trace_id,
        "parent_span_id": parent_span_id,
        "span": span.to_dict(),
    }


def span_from_payload(payload: dict) -> Span | None:
    """Rebuild the :class:`Span` tree from a :func:`span_payload` dict."""
    if not payload or "span" not in payload:
        return None
    return _span_from_dict(payload["span"])


def _span_from_dict(data: dict) -> Span:
    span = Span(
        str(data.get("name", "")),
        dict(data.get("attrs") or {}),
        0.0,
        int(data.get("tid", 0)),
        pid=int(data.get("pid", 0)),
        epoch_s=float(data.get("epoch_s", 0.0)),
        span_id=str(data.get("span_id", "")),
    )
    span.wall_s = float(data.get("wall_s", 0.0))
    span.cpu_s = float(data.get("cpu_s", 0.0))
    span.children = [_span_from_dict(c) for c in data.get("children") or ()]
    return span


def current_span(tracer: "Tracer | None" = None) -> Span | None:
    """The innermost span open on the current thread, if any."""
    tracer = tracer or _DEFAULT_TRACER
    stack = tracer._stack()
    return stack[-1] if stack else None


def adopt_span(span_or_payload, tracer: "Tracer | None" = None) -> Span | None:
    """Attach a remote span subtree to the local trace.

    If a span is open on the current thread it becomes the parent
    (worker chunks stitch under the dispatching span); otherwise the
    subtree is recorded as a root of its own.
    """
    tracer = tracer or _DEFAULT_TRACER
    span = (
        span_from_payload(span_or_payload)
        if isinstance(span_or_payload, dict)
        else span_or_payload
    )
    if not isinstance(span, Span):
        return None
    parent = current_span(tracer)
    if parent is not None:
        parent.children.append(span)
    else:
        with tracer._lock:
            tracer._roots.append(span)
    return span


_DEFAULT_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _DEFAULT_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide default tracer; returns the previous one."""
    global _DEFAULT_TRACER
    previous = _DEFAULT_TRACER
    _DEFAULT_TRACER = tracer
    return previous


def trace_span(name: str, **attrs):
    """Open a span on the default tracer (no-op when REPRO_OBS=off)."""
    if not enabled():
        return _NULL_SPAN
    return _DEFAULT_TRACER.span(name, **attrs)


def traced(name: str | None = None) -> Callable:
    """Decorator form: ``@traced("stage")`` or bare ``@traced()``."""

    def wrap(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            with trace_span(span_name):
                return fn(*args, **kwargs)

        return inner

    return wrap
