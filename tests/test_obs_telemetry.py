"""Cross-process telemetry propagation: capture, worker scope, merge.

Covers the :mod:`repro.obs.telemetry` contract end to end — context
capture gating, the in-process ``WorkerTelemetry`` round trip,
re-parenting and depth arithmetic in ``merge_payload``, associative
registry merges, the JSON-safe payload wire format — and the pooled
``evaluate_grid`` acceptance path: a chunked run must produce one
merged trace whose worker chunk spans hang under the engine span and
whose per-point totals match the single-process run exactly.
"""

import threading

import numpy as np
import pytest

from repro import obs
from repro.cost import PAPER_FIGURE4_MODEL
from repro.engine import (
    clear_cache,
    configure_parallel,
    evaluate_grid,
    parallel_settings,
)
from repro.engine import parallel as engine_parallel
from repro.engine.kernels import Eq4SdKernel
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    TelemetryPayload,
    WorkerTelemetry,
    capture_context,
    merge_payload,
)

FIG4A = dict(n_transistors=1e7, feature_um=0.18, n_wafers=5_000,
             yield_fraction=0.4, cost_per_cm2=8.0)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture()
def lowered_threshold():
    saved = parallel_settings()
    configure_parallel(threshold=1_000, max_workers=2)
    yield
    configure_parallel(threshold=saved["threshold"],
                       enabled=saved["enabled"])
    engine_parallel._max_workers = saved["max_workers"]
    engine_parallel.shutdown()


class TestCaptureContext:
    def test_disabled_returns_none(self):
        assert capture_context() is None

    def test_enabled_snapshots_current_span(self):
        obs.enable()
        with obs.span("parent") as sp:
            ctx = capture_context()
        assert ctx is not None
        assert ctx.parent_span_id == sp.span_id
        assert ctx.parent_depth == sp.depth
        assert len(ctx.trace_id) == 32

    def test_enabled_without_open_span(self):
        obs.enable()
        ctx = capture_context()
        assert ctx.parent_span_id is None
        assert ctx.parent_depth == -1


class TestWorkerRoundTrip:
    """WorkerTelemetry + merge_payload exercised in a single process."""

    def _one_task(self, ctx):
        with WorkerTelemetry(ctx) as wt:
            with obs.span("task.outer", chunk=0):
                with obs.span("task.inner"):
                    obs.inc("task_points_total", 7.0,
                            labels={"backend": "py"})
        return wt.payload

    def test_payload_shape_and_cleanup(self):
        obs.enable()
        with obs.span("parent"):
            ctx = capture_context()
        obs.disable()
        payload = self._one_task(ctx)
        assert isinstance(payload, TelemetryPayload)
        assert payload.pid > 0
        assert payload.trace_id == ctx.trace_id
        # Spans land in finish order: inner closes before outer.
        assert [d["name"] for d in payload.spans] == \
            ["task.inner", "task.outer"]
        # Worker scope left no residue in this process's tracer/registry.
        assert obs.get_tracer().spans == []
        assert obs.get_registry().is_empty()
        assert not obs.is_enabled()

    def test_merge_reparents_under_capture_span(self):
        obs.enable()
        with obs.span("parent") as parent:
            ctx = capture_context()
        payload = self._one_task(ctx)
        obs.enable()
        merge_payload(payload)
        spans = {sp.name: sp for sp in obs.get_tracer().spans}
        outer, inner = spans["task.outer"], spans["task.inner"]
        assert outer.parent_id == parent.span_id
        assert outer.depth == parent.depth + 1
        assert inner.parent_id == outer.span_id
        assert inner.depth == outer.depth + 1
        # Rebased onto the parent clock: worker spans sit inside the
        # parent's lifetime, not at the worker's process-local zero.
        assert outer.start >= ctx.parent_clock
        # Metrics arrived too, labels intact.
        reg = obs.get_registry()
        key = 'task_points_total{backend="py"}'
        assert reg.counters[key].value == 7.0

    def test_merge_into_explicit_registry_is_associative(self):
        obs.enable()
        ctx = capture_context()
        obs.disable()
        p1, p2 = self._one_task(ctx), self._one_task(ctx)
        left = MetricsRegistry()
        left.merge(MetricsRegistry.from_dict(p1.metrics))
        left.merge(MetricsRegistry.from_dict(p2.metrics))
        right = MetricsRegistry.from_dict(p2.metrics)
        right.merge(MetricsRegistry.from_dict(p1.metrics))
        assert left.to_dict()["counters"] == right.to_dict()["counters"]
        assert left.to_dict()["sketches"] == right.to_dict()["sketches"]
        key = 'task_points_total{backend="py"}'
        assert left.counters[key].value == 14.0
        span_key = 'repro_span_duration_seconds{span="task.inner"}'
        assert left.sketches[span_key].count == 2

    def test_payload_metrics_are_json_safe(self):
        import json
        obs.enable()
        ctx = capture_context()
        obs.disable()
        payload = self._one_task(ctx)
        rebuilt = TelemetryPayload(**json.loads(json.dumps(
            payload.__dict__)))
        obs.enable()
        merge_payload(rebuilt)
        assert len(obs.get_tracer().spans) == 2


class TestPooledDeterminism:
    """Acceptance: pooled evaluate_grid merges a coherent, equal trace."""

    GRID = np.linspace(150.0, 1200.0, 25_000)

    def _run(self):
        clear_cache()
        obs.reset()
        obs.enable()
        try:
            kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
            evaluation = evaluate_grid(kernel, self.GRID,
                                       where="test.telemetry", cache=False)
        finally:
            obs.disable()
        return evaluation

    def test_pooled_trace_parents_and_totals(self, lowered_threshold):
        evaluation = self._run()
        assert evaluation.chunks > 1
        spans = obs.get_tracer().spans
        engine_spans = [s for s in spans if s.name == "engine.evaluate_grid"]
        chunk_spans = [s for s in spans if s.name == "engine.parallel.chunk"]
        assert len(engine_spans) == 1
        assert len(chunk_spans) == evaluation.chunks
        for chunk in chunk_spans:
            assert chunk.parent_id == engine_spans[0].span_id
            assert chunk.depth == engine_spans[0].depth + 1
            assert chunk.attrs["pid"] > 0
            assert "chunk" in chunk.attrs
        point_counts = [c.attrs["points"] for c in chunk_spans]
        assert sum(point_counts) == self.GRID.size
        reg = obs.get_registry()
        worker_key = 'engine_worker_points_total{backend="numpy"}'
        assert reg.counters[worker_key].value == float(self.GRID.size)

    POINTS_KEY = 'engine_points_total{backend="numpy"}'

    def test_per_point_totals_match_single_process(self, lowered_threshold):
        pooled = self._run()
        pooled_points = obs.get_registry().counters[self.POINTS_KEY].value
        saved = parallel_settings()
        configure_parallel(enabled=False)
        try:
            single = self._run()
        finally:
            configure_parallel(enabled=saved["enabled"])
        single_points = obs.get_registry().counters[self.POINTS_KEY].value
        assert pooled.chunks > 1 and single.chunks == 1
        np.testing.assert_array_equal(pooled.values, single.values)
        # Per-point totals are chunking-invariant; chunk-counting
        # metrics (engine_chunks_total, *_calls) legitimately differ.
        assert pooled_points == single_points == float(self.GRID.size)

    def test_pooled_run_is_repeatable(self, lowered_threshold):
        first = self._run()
        first_points = obs.get_registry().counters[self.POINTS_KEY].value
        second = self._run()
        second_points = obs.get_registry().counters[self.POINTS_KEY].value
        np.testing.assert_array_equal(first.values, second.values)
        assert first_points == second_points


class TestThreadSafety:
    """Concurrent ingestion from many threads loses no updates."""

    THREADS = 8
    PER_THREAD = 2_000

    def test_counter_hammer(self):
        obs.enable()
        barrier = threading.Barrier(self.THREADS)

        def work():
            barrier.wait()
            for _ in range(self.PER_THREAD):
                obs.inc("hammer_total", labels={"src": "thread"})

        threads = [threading.Thread(target=work)
                   for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        key = 'hammer_total{src="thread"}'
        assert obs.get_registry().counters[key].value == \
            float(self.THREADS * self.PER_THREAD)

    def test_mixed_instrument_hammer(self):
        obs.enable()
        reg = obs.get_registry()
        barrier = threading.Barrier(self.THREADS)

        def work(seed):
            barrier.wait()
            for i in range(self.PER_THREAD):
                obs.observe("hammer_latency", (seed + i) * 1e-6)
                obs.set_gauge("hammer_gauge", float(i))
                reg.sketch("hammer_sketch").observe((i + 1) * 1e-6)

        threads = [threading.Thread(target=work, args=(s,))
                   for s in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = self.THREADS * self.PER_THREAD
        assert reg.sketches["hammer_latency"].count == total
        assert reg.sketches["hammer_sketch"].count == total
        assert reg.gauges["hammer_gauge"].value == float(self.PER_THREAD - 1)

    def test_concurrent_merge_is_lossless(self):
        sources = []
        for i in range(self.THREADS):
            reg = MetricsRegistry()
            for _ in range(100):
                reg.counter("merge_total", {"part": "x"}).inc()
            sources.append(reg)
        target = MetricsRegistry()
        threads = [threading.Thread(target=target.merge, args=(src,))
                   for src in sources]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert target.counters['merge_total{part="x"}'].value == \
            float(self.THREADS * 100)
