"""Cross-process trace propagation and metric-delta merging.

The tracer and registry in :mod:`repro.obs` are process-local, which
made the engine's ``ProcessPoolExecutor`` path a telemetry black hole:
a 10M-point grid spent all its time in workers no flamegraph could
see. This module closes the boundary with three pieces:

* :func:`capture_context` snapshots the parent side into a
  serializable, frozen :class:`TraceContext` — a fresh trace id, the
  currently open span's id and depth, and the parent's monotonic clock
  reading (the baseline the worker timeline is shifted onto);
* :class:`WorkerTelemetry` runs **inside the worker**: it resets the
  worker's tracer/registry, enables observability for the duration of
  the chunk, and on exit packages every completed span (start times
  rebased onto the parent clock) plus the full metric delta into a
  picklable :class:`TelemetryPayload`;
* :func:`merge_payload` runs **back in the parent**: worker span ids
  are re-allocated from the parent tracer (collision-free), parenting
  is re-hung under the span that was open at capture time, and metric
  deltas fold in via the associative
  :meth:`~repro.obs.metrics.MetricsRegistry.merge` — so pooled and
  single-process runs of the same grid produce identical totals.

Worker spans are adopted (:meth:`~repro.obs.trace.Tracer.adopt`), not
re-recorded: their durations were already sketched into the worker's
metric delta, and recording them again would double-count. Worker
spans describe work that ran *concurrently* with the parent, so the
parent span's self time still reflects real orchestration wall time.

:func:`bridge_engine_metrics` is the pull-side companion: it snapshots
the engine's out-of-registry state (cache lifetime counters, parallel
settings) into labeled registry metrics, and is called by the
``/metrics`` endpoint and the snapshot writer just before rendering.
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass, field

from . import metrics as _metrics
from . import trace as _trace
from .export import span_to_dict
from .metrics import MetricsRegistry

__all__ = [
    "TelemetryPayload",
    "TraceContext",
    "WorkerTelemetry",
    "bridge_engine_metrics",
    "capture_context",
    "merge_payload",
]


@dataclass(frozen=True)
class TraceContext:
    """Serializable parent-side snapshot carried into a worker task.

    ``parent_depth`` is ``-1`` when no span was open at capture time,
    so ``worker_depth + parent_depth + 1`` is always the merged depth.
    ``parent_clock`` is the parent's :func:`time.perf_counter` at
    capture; the worker rebases its span timeline onto it so merged
    traces stay on one monotonic axis even where the two processes'
    clocks differ.
    """

    trace_id: str
    parent_span_id: int | None
    parent_depth: int
    parent_clock: float


@dataclass
class TelemetryPayload:
    """Everything a worker hands back: spans, metric deltas, identity.

    ``spans`` are :func:`~repro.obs.export.span_to_dict` dicts (plus an
    ``end`` key), already rebased onto the parent clock. ``metrics`` is
    :meth:`~repro.obs.metrics.MetricsRegistry.to_dict` output — plain
    JSON-safe data, never live (lock-carrying) metric objects, so the
    payload pickles across any start method.
    """

    trace_id: str
    pid: int
    parent_span_id: int | None
    parent_depth: int
    spans: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    dropped: int = 0


def capture_context() -> TraceContext | None:
    """Snapshot the parent side for propagation, or ``None`` when off.

    Call at task-submission time, in the process and context that owns
    the span the worker's spans should hang under.
    """
    if not _trace._ENABLED:
        return None
    parent = _trace.current_span()
    return TraceContext(
        trace_id=uuid.uuid4().hex,
        parent_span_id=None if parent is None else parent.span_id,
        parent_depth=-1 if parent is None else parent.depth,
        parent_clock=time.perf_counter(),
    )


class WorkerTelemetry:
    """Worker-side collection scope for one propagated task.

    Use as a context manager around the chunk's work::

        with WorkerTelemetry(ctx) as wt:
            values = kernel.batch(chunk)
        return values, wt.payload

    Entry resets the worker's (process-local) tracer and registry and
    enables observability; exit disables it again, rebases span times
    onto ``ctx.parent_clock``, and builds :attr:`payload`. The reset
    means each task's payload is a clean *delta* even when pool workers
    are reused — or inherited an enabled flag through ``fork``.
    """

    def __init__(self, ctx: TraceContext):
        self.ctx = ctx
        self.payload: TelemetryPayload | None = None
        self._entry_clock = 0.0

    def __enter__(self) -> "WorkerTelemetry":
        _trace.get_tracer().reset()
        _metrics.get_registry().reset()
        _trace.detach_context()
        _trace.enable()
        self._entry_clock = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _trace.disable()
        tracer = _trace.get_tracer()
        offset = self.ctx.parent_clock - self._entry_clock
        spans = []
        for sp in tracer.spans:
            d = span_to_dict(sp)
            d["start"] = sp.start + offset
            d["end"] = sp.end + offset
            spans.append(d)
        self.payload = TelemetryPayload(
            trace_id=self.ctx.trace_id,
            pid=os.getpid(),
            parent_span_id=self.ctx.parent_span_id,
            parent_depth=self.ctx.parent_depth,
            spans=spans,
            metrics=_metrics.get_registry().to_dict(),
            dropped=tracer.dropped,
        )
        tracer.reset()
        _metrics.get_registry().reset()


def merge_payload(payload: TelemetryPayload,
                  tracer: "_trace.Tracer | None" = None,
                  registry: "MetricsRegistry | None" = None) -> list:
    """Fold one worker payload into the parent trace tree and registry.

    Worker span ids are re-allocated from the parent tracer so they can
    never collide with parent ids; worker root spans are re-parented
    under ``payload.parent_span_id`` (the span open at capture time)
    and depths shift by ``parent_depth + 1``. Metric deltas merge
    associatively. Returns the adopted :class:`~repro.obs.trace.Span`
    objects in worker completion order.
    """
    tracer = tracer if tracer is not None else _trace.get_tracer()
    registry = registry if registry is not None else _metrics.get_registry()
    id_map: dict[int, int] = {}
    for d in payload.spans:
        id_map[d["id"]] = tracer.next_id()
    adopted = []
    for d in payload.spans:
        if d["parent_id"] is not None and d["parent_id"] in id_map:
            parent_id = id_map[d["parent_id"]]
        else:
            parent_id = payload.parent_span_id
        sp = _trace.Span(
            d["name"],
            dict(d.get("attrs") or {}),
            span_id=id_map[d["id"]],
            parent_id=parent_id,
            depth=d["depth"] + payload.parent_depth + 1,
        )
        sp.start = d["start"]
        sp.end = d.get("end", d["start"] + d["duration"])
        sp.child_time = max(0.0, d["duration"] - d["self"])
        tracer.adopt(sp)
        adopted.append(sp)
    tracer.dropped += payload.dropped
    if payload.metrics:
        registry.merge(MetricsRegistry.from_dict(payload.metrics))
    return adopted


def bridge_engine_metrics(
        registry: "MetricsRegistry | None" = None) -> "MetricsRegistry":
    """Snapshot engine-side state into labeled registry metrics.

    Publishes the grid cache's *lifetime* counters (which keep counting
    while gated live metrics are off) as
    ``engine_cache_lifetime_total{event=...}`` — set by delta, so
    repeated bridging never double-counts — plus current-state gauges
    (``engine_cache_entries``, ``engine_cache_hit_rate``,
    ``engine_parallel_threshold``). Supervision lifetime counters
    bridge the same way (``engine_supervision_lifetime_total{event=
    retry_crash|retry_timeout|retry_corrupt|restart|degraded_chunk|
    breaker_opening|checkpoint_saved|checkpoint_loaded}``) together
    with the ``engine_breaker_state`` gauge (1 = open), so snapshots
    taken with live metrics off still carry the fault history. Returns
    the registry.
    """
    registry = registry if registry is not None else _metrics.get_registry()
    from .. import engine
    stats = engine.cache_stats()
    for event, lifetime in (("hit", stats.hits), ("miss", stats.misses),
                            ("eviction", stats.evictions)):
        counter = registry.counter("engine_cache_lifetime_total",
                                   {"event": event})
        delta = lifetime - counter.value
        if delta > 0:
            counter.inc(delta)
    registry.gauge("engine_cache_entries").set(stats.entries)
    registry.gauge("engine_cache_max_entries").set(stats.max_entries)
    registry.gauge("engine_cache_hit_rate").set(stats.hit_rate)
    parallel = engine.parallel_settings()
    registry.gauge("engine_parallel_threshold").set(parallel["threshold"])
    registry.gauge(
        "engine_parallel_enabled").set(1.0 if parallel["enabled"] else 0.0)
    supervision = engine.supervision_stats()
    for event, key in (("retry_crash", "retry_crash"),
                       ("retry_timeout", "retry_timeout"),
                       ("retry_corrupt", "retry_corrupt"),
                       ("restart", "restarts"),
                       ("degraded_chunk", "degraded_chunks"),
                       ("breaker_opening", "breaker_openings"),
                       ("checkpoint_saved", "checkpoint_saved"),
                       ("checkpoint_loaded", "checkpoint_loaded")):
        counter = registry.counter("engine_supervision_lifetime_total",
                                   {"event": event})
        delta = supervision[key] - counter.value
        if delta > 0:
            counter.inc(delta)
    registry.gauge("engine_breaker_state").set(
        1.0 if supervision["breaker_state"] == "open" else 0.0)
    return registry
