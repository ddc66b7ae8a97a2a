"""Per-layer metrics of a traced phase.

Self times are reported as the mean per operation, so on every
workload the ``*.self_ms`` figures add up to ``trace.op_ms`` (the mean
traced operation's wall time). Per-call figures (payload bytes,
scenarios per ``evaluate_many``, kernel ns per point) count each call
once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import engine

from .spans import by_operation

#: Every per-layer metric, in report order: name → unit.
PER_LAYER = {
    "serve.app.self_ms": "ms",
    "serve.schemas.parse_ms": "ms",
    "serve.schemas.encode_ms": "ms",
    "serve.schemas.bytes_in": "bytes",
    "serve.schemas.bytes_out": "bytes",
    "serve.service.self_ms": "ms",
    "serve.service.cache_hit_ratio": "ratio",
    "serve.service.cache_lookups": "count",
    "serve.service.items_per_batch": "count",
    "api.evaluate_many.self_ms": "ms",
    "api.evaluate_many.scenarios": "count",
    "api.sweep.self_ms": "ms",
    "engine.evaluate_grid.self_ms": "ms",
    "engine.pooled_points_share": "ratio",
    "kernels.self_ms": "ms",
    "kernels.batch_ns_per_point": "ns",
    "kernels.point_calls": "count",
    "robust.diagnostics": "count",
    "bench.study.self_ms": "ms",
    "trace.op_ms": "ms",
    "trace.ops": "count",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Snapshot:
    """Lifetime counters read before and after a traced phase: the
    engine's, and those of the serving ``CostService`` if there is one."""

    cache_hits: int = 0
    cache_lookups: int = 0
    chunk_retries: int = 0
    service_hits: int = 0
    service_lookups: int = 0
    batch_items: int = 0
    batches: int = 0

    @classmethod
    def take(cls, service=None) -> "Snapshot":
        grid = engine.cache_stats()
        fields = {"cache_hits": grid.hits,
                  "cache_lookups": grid.hits + grid.misses,
                  "chunk_retries": engine.supervision_stats()["retries"]}
        if service is not None:
            cache = service.cache_stats()
            batcher = service.batcher_stats()
            fields.update(service_hits=cache.hits,
                          service_lookups=cache.hits + cache.misses,
                          batch_items=batcher["items"],
                          batches=batcher["batches"])
        return cls(**fields)

    def minus(self, before: "Snapshot") -> "Snapshot":
        return Snapshot(*(getattr(self, f) - getattr(before, f)
                          for f in self.__dataclass_fields__))


def invariants(delta: Snapshot) -> tuple[list, list]:
    """Notes and failures for the engine counters that must stay 0 on
    every workload: grid-cache hits (every operation's grid is fresh)
    and pool chunk retries (no worker fails)."""
    notes = [f"engine.cache_hits {delta.cache_hits} of "
             f"{delta.cache_lookups} lookups (must be 0)",
             f"engine.chunk_retries {delta.chunk_retries} (must be 0)"]
    failures = [f"{name} is {value}, not 0" for name, value in (
        ("engine.cache_hits", delta.cache_hits),
        ("engine.chunk_retries", delta.chunk_retries)) if value]
    return notes, failures


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans, *, delta: Snapshot, diagnostics: int, masked: int,
                  overhead_ratio: float) -> dict:
    """Every :data:`PER_LAYER` metric of one traced phase."""
    ops = by_operation(spans)
    n = len(ops)

    def mean_self_ms(*names) -> float:
        total = sum(layers.get(name, 0) for _, layers in ops.values()
                    for name in names)
        return _ratio(total, n) / 1e6

    def calls(name) -> list:
        return [s for s in spans if s.name == name]

    def mean_attr(name, attr) -> float:
        found = calls(name)
        return _ratio(sum(s.attrs.get(attr, 0) for s in found), len(found))

    grids = calls("engine.evaluate_grid")
    grid_points = sum(s.attrs.get("points", 0) for s in grids)
    pooled = sum(s.attrs.get("points", 0) for s in grids
                 if s.attrs.get("chunks", 1) > 1)
    batches = calls("kernels.batch")
    batch_ns = sum(s.end - s.start for s in batches)
    batch_points = sum(s.attrs.get("points", 0) for s in batches)
    walls = [root.end - root.start for root, _ in ops.values()]
    return {
        "serve.app.self_ms": mean_self_ms("serve.app"),
        "serve.schemas.parse_ms": mean_self_ms("serve.schemas.parse"),
        "serve.schemas.encode_ms": mean_self_ms("serve.schemas.encode"),
        "serve.schemas.bytes_in": mean_attr("serve.schemas.parse", "bytes"),
        "serve.schemas.bytes_out": mean_attr("serve.schemas.encode",
                                             "bytes"),
        "serve.service.self_ms": mean_self_ms("serve.service"),
        "serve.service.cache_hit_ratio": _ratio(delta.service_hits,
                                                delta.service_lookups),
        "serve.service.cache_lookups": delta.service_lookups,
        "serve.service.items_per_batch": _ratio(delta.batch_items,
                                                delta.batches),
        "api.evaluate_many.self_ms": mean_self_ms("api.evaluate_many"),
        "api.evaluate_many.scenarios": mean_attr("api.evaluate_many",
                                                 "scenarios"),
        "api.sweep.self_ms": mean_self_ms("api.sweep"),
        "engine.evaluate_grid.self_ms": mean_self_ms("engine.evaluate_grid"),
        "engine.pooled_points_share": _ratio(pooled, grid_points),
        "kernels.self_ms": mean_self_ms("kernels.batch", "kernels.point"),
        "kernels.batch_ns_per_point": _ratio(batch_ns, batch_points),
        "kernels.point_calls": _ratio(len(calls("kernels.point")), n),
        "robust.diagnostics": _ratio(diagnostics, masked),
        "bench.study.self_ms": mean_self_ms("bench.study"),
        "trace.op_ms": _ratio(sum(walls), n) / 1e6,
        "trace.ops": n,
        "trace.overhead_ratio": overhead_ratio,
    }
