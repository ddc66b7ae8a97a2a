"""Process-local metrics: labeled counters, gauges, and sketches.

A deliberately small, dependency-free registry in the Prometheus
spirit with three metric kinds: *counters* only go up (evaluations per
model, cache hits), *gauges* hold the latest value (iterations of the
last optimiser run), and *sketches* — :class:`~repro.obs.perf.
DurationSketch` — accumulate value distributions (span durations, grid
sizes, simulated yields) as exact count/sum/min/max plus a fixed
log-bucket layout that answers p50/p90/p99 with ~1 % relative error.

Every metric may carry a **frozen label set** — an immutable, sorted
tuple of ``(key, value)`` pairs fixed at creation
(``engine_cache_events_total{event="hit"}``). The registry keys
metrics by *name plus labels*, so the same family name with different
labels yields distinct series, exactly as a Prometheus scrape would
see them. Label keys must be ``snake_case`` (enforced here and by lint
rule ``OBS003`` for literal call sites).

All ingestion paths (:meth:`Counter.inc`, :meth:`Gauge.set`,
:meth:`~repro.obs.perf.DurationSketch.observe`) are **thread-safe**: a
per-metric lock serialises read-modify-write updates, and the registry
serialises get-or-create, so the serve layer can share one registry
across request threads. Registries **merge** associatively
(:meth:`MetricsRegistry.merge`): counters add, sketches add bucket
counts, gauges take the last non-NaN value — the primitive that folds
worker-process telemetry deltas into one loss-free total.
:meth:`MetricsRegistry.to_dict` is the one serialized form of a
registry: worker deltas, run-history payloads and JSONL exports all
carry it.

All module-level helpers (:func:`inc`, :func:`set_gauge`,
:func:`observe`) are gated on the global observability flag from
:mod:`repro.obs.trace`, so instrumented hot paths cost one branch when
observability is off. Direct use of :class:`MetricsRegistry` is not
gated — tests and tools can always build their own.

This module also installs a duration sink on the global tracer that
records every completed span into the labeled sketch family
``repro_span_duration_seconds{span=<name>}``
(:data:`SPAN_DURATION_FAMILY`).
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field

from . import trace as _trace
from .perf.sketch import DurationSketch
from ..errors import DomainError

__all__ = [
    "Counter",
    "Gauge",
    "METRIC_KINDS",
    "MetricsRegistry",
    "SPAN_DURATION_FAMILY",
    "freeze_labels",
    "get_registry",
    "inc",
    "metric_key",
    "observe",
    "set_gauge",
]

#: Valid label-key shape (``snake_case``, same as Prometheus label names).
_LABEL_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: The sketch family every completed span's duration is recorded into,
#: one series per span name (``{span="<name>"}``).
SPAN_DURATION_FAMILY = "repro_span_duration_seconds"

#: :meth:`MetricsRegistry.to_dict` section -> the metric kind it holds
#: (the ``kind`` tag of a JSONL metric line).
METRIC_KINDS: dict[str, str] = {
    "counters": "counter", "gauges": "gauge", "sketches": "sketch"}


def freeze_labels(labels) -> tuple[tuple[str, str], ...]:
    """Normalise a label mapping into the frozen, sorted tuple form.

    Accepts a dict, an iterable of ``(key, value)`` pairs, an
    already-frozen tuple, or ``None`` (→ the empty tuple). Values are
    stringified; keys must be ``snake_case`` and unique.
    """
    if not labels:
        return ()
    items = labels.items() if isinstance(labels, dict) else labels
    frozen = tuple(sorted((str(k), str(v)) for k, v in items))
    seen: set[str] = set()
    for key, _ in frozen:
        if not _LABEL_KEY_RE.match(key):
            raise DomainError(
                f"label key {key!r} is not snake_case ([a-z][a-z0-9_]*)")
        if key in seen:
            raise DomainError(f"duplicate label key {key!r}")
        seen.add(key)
    return frozen


def metric_key(name: str, labels=None) -> str:
    """The registry key of a series: ``name`` or ``name{k="v",...}``."""
    frozen = labels if isinstance(labels, tuple) else freeze_labels(labels)
    if not frozen:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in frozen)
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """A monotonically increasing count, optionally labeled."""

    name: str
    value: float = 0.0
    labels: tuple[tuple[str, str], ...] = ()
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter (thread-safe)."""
        if amount < 0:
            raise DomainError(f"counter {self.name}: increment must be >= 0, got {amount}")
        with self._lock:
            self.value += amount

    def merge(self, other: "Counter") -> "Counter":
        """Fold ``other``'s count into this counter; returns self."""
        self.inc(other.value)
        return self

    @property
    def key(self) -> str:
        """The full series key including labels."""
        return metric_key(self.name, self.labels)


@dataclass
class Gauge:
    """A value that can move both ways; remembers only the latest."""

    name: str
    value: float = math.nan
    labels: tuple[tuple[str, str], ...] = ()
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def set(self, value: float) -> None:
        """Record the current level (thread-safe)."""
        value = float(value)
        with self._lock:
            self.value = value

    def merge(self, other: "Gauge") -> "Gauge":
        """Adopt ``other``'s value unless it is NaN; returns self.

        "Last non-NaN wins" keeps merge associative: any merge order
        over the same operand sequence yields the same survivor.
        """
        if not math.isnan(other.value):
            self.set(other.value)
        return self

    @property
    def key(self) -> str:
        """The full series key including labels."""
        return metric_key(self.name, self.labels)


def _none_if_nonfinite(value: float):
    """±inf/NaN → None, so serialized state stays strict-JSON-safe."""
    return value if math.isfinite(value) else None


@dataclass
class MetricsRegistry:
    """Store of counters, gauges, and sketches keyed by name *and* labels."""

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    sketches: dict[str, DurationSketch] = field(default_factory=dict)
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False, compare=False)

    def _series(self, store: dict, kind, name: str, labels):
        """Get or create the ``kind`` series ``name`` / ``labels``."""
        frozen = freeze_labels(labels)
        key = metric_key(name, frozen)
        series = store.get(key)
        if series is None:
            with self._lock:
                series = store.get(key)
                if series is None:
                    series = store[key] = kind(name, labels=frozen)
        return series

    def counter(self, name: str, labels=None) -> Counter:
        """Get or create the counter series ``name`` / ``labels``."""
        return self._series(self.counters, Counter, name, labels)

    def gauge(self, name: str, labels=None) -> Gauge:
        """Get or create the gauge series ``name`` / ``labels``."""
        return self._series(self.gauges, Gauge, name, labels)

    def sketch(self, name: str, labels=None) -> DurationSketch:
        """Get or create the sketch series ``name`` / ``labels``."""
        return self._series(self.sketches, DurationSketch, name, labels)

    def reset(self) -> None:
        """Drop every metric."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.sketches.clear()

    def is_empty(self) -> bool:
        """Whether no metric has been registered yet."""
        return not (self.counters or self.gauges or self.sketches)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold every series of ``other`` into this registry; returns self.

        The merge is **associative**: counters and sketches add
        exactly, gauges keep the last non-NaN value, so worker deltas
        and serve-layer shards combine losslessly in any grouping.
        """
        for c in other.counters.values():
            self.counter(c.name, c.labels).merge(c)
        for g in other.gauges.values():
            self.gauge(g.name, g.labels).merge(g)
        for s in other.sketches.values():
            self.sketch(s.name, s.labels).merge(s)
        return self

    def to_dict(self) -> dict:
        """Serialise the full registry state as a JSON-safe dict.

        The inverse of :meth:`from_dict` and the only serialized form
        of a registry: the cross-process
        :class:`~repro.obs.telemetry.TelemetryPayload` metric deltas,
        the run-history payload and the JSONL ``metric`` lines (one
        entry per line) all carry it.
        """
        return {
            "counters": [
                {"name": c.name, "labels": [list(kv) for kv in c.labels],
                 "value": c.value}
                for c in self.counters.values()],
            "gauges": [
                {"name": g.name, "labels": [list(kv) for kv in g.labels],
                 "value": _none_if_nonfinite(g.value)}
                for g in self.gauges.values()],
            "sketches": [
                {"name": s.name, "labels": [list(kv) for kv in s.labels],
                 "count": s.count, "total": s.total,
                 "min": _none_if_nonfinite(s.min),
                 "max": _none_if_nonfinite(s.max),
                 "buckets": {str(i): n for i, n in sorted(s.buckets.items())}}
                for s in self.sketches.values()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        reg = cls()
        for rec in data.get("counters", ()):
            c = reg.counter(rec["name"], [tuple(kv) for kv in rec["labels"]])
            c.inc(rec["value"])
        for rec in data.get("gauges", ()):
            g = reg.gauge(rec["name"], [tuple(kv) for kv in rec["labels"]])
            if rec["value"] is not None:
                g.set(rec["value"])
        for rec in data.get("sketches", ()):
            s = reg.sketch(rec["name"], [tuple(kv) for kv in rec["labels"]])
            s.count = int(rec["count"])
            s.total = float(rec["total"])
            s.min = math.inf if rec["min"] is None else float(rec["min"])
            s.max = -math.inf if rec["max"] is None else float(rec["max"])
            s.buckets = {int(i): int(n) for i, n in rec["buckets"].items()}
        return reg

    def rows(self) -> list[tuple[str, str, float, float]]:
        """Counters and gauges as ``(key, kind, value, count)`` rows.

        ``key`` is the full series key (labels rendered inline);
        ``count`` repeats the sample count implied by the kind (counter
        value / 1). Sorted by kind, then key; sketches are in
        :meth:`sketch_rows`.
        """
        out: list[tuple[str, str, float, float]] = []
        for key, c in self.counters.items():
            out.append((key, "counter", c.value, c.value))
        for key, g in self.gauges.items():
            out.append((key, "gauge", g.value, 1))
        out.sort(key=lambda r: (r[1], r[0]))
        return out

    def sketch_rows(self) -> list[tuple[str, int, float, float, float, float]]:
        """Sketches as ``(key, count, p50, p90, p99, max)`` rows.

        Values in the sketch's own unit (seconds for span durations),
        key-sorted; empty sketches report NaN percentiles.
        """
        out: list[tuple[str, int, float, float, float, float]] = []
        for key in sorted(self.sketches):
            s = self.sketches[key]
            pct = s.percentiles()
            out.append((key, s.count, pct["p50"], pct["p90"], pct["p99"],
                        pct["max"]))
        return out


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def inc(name: str, amount: float = 1.0, labels=None) -> None:
    """Increment counter ``name`` iff observability is enabled."""
    if not _trace._ENABLED:
        return
    _REGISTRY.counter(name, labels).inc(amount)


def set_gauge(name: str, value: float, labels=None) -> None:
    """Set gauge ``name`` iff observability is enabled."""
    if not _trace._ENABLED:
        return
    _REGISTRY.gauge(name, labels).set(value)


def observe(name: str, value: float, labels=None) -> None:
    """Observe ``value`` into sketch ``name`` iff observability is enabled."""
    if not _trace._ENABLED:
        return
    _REGISTRY.sketch(name, labels).observe(value)


#: Span name -> its series key in :data:`SPAN_DURATION_FAMILY`.
_SPAN_KEYS: dict[str, str] = {}


def _span_duration_sink(name: str, seconds: float) -> None:
    """Tracer duration sink: sketch every completed span's duration."""
    # Look the series up by its cached key: freezing the labels on every
    # span would cost more than the observation itself.
    key = _SPAN_KEYS.get(name)
    if key is None:
        key = _SPAN_KEYS[name] = metric_key(SPAN_DURATION_FAMILY,
                                            (("span", name),))
    sketch = _REGISTRY.sketches.get(key)
    if sketch is None:
        sketch = _REGISTRY.sketch(SPAN_DURATION_FAMILY, {"span": name})
    sketch.observe(seconds)


# Spans only exist while observability is enabled, so the sink needs no
# flag check of its own; installing it at import keeps trace.py free of
# any metrics import (the dependency runs strictly metrics -> trace).
_trace.get_tracer().duration_sink = _span_duration_sink
