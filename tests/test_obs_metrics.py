"""Metrics registry tests: counter/gauge/sketch semantics and gating."""

import json

import pytest

from repro import obs
from repro.obs.exposition import (
    parse_prometheus,
    registry_from_records,
    render_prometheus,
)
from repro.obs.metrics import (
    SPAN_DURATION_FAMILY,
    Counter,
    Gauge,
    MetricsRegistry,
)
from repro.obs.perf import DurationSketch


@pytest.fixture(autouse=True)
def clean_obs():
    """Isolate each test from global observability state."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestPrimitives:
    def test_counter_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_keeps_latest(self):
        g = Gauge("g")
        g.set(1.0)
        g.set(-4.0)
        assert g.value == -4.0

    def test_value_sketch_aggregates(self):
        s = DurationSketch("s", (("where", "sweep"),))
        for v in (1.0, 2.0, 6.0, 1e6):
            s.observe(v)
        assert s.count == 4
        assert s.total == 1000009.0
        assert (s.min, s.max) == (1.0, 1e6)
        assert s.key == 's{where="sweep"}'
        # A 1M-point grid size sits below the layout ceiling: it keeps
        # its own bucket instead of sharing the clamp bucket.
        assert s.p90 == pytest.approx(1e6, rel=0.01)


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("y") is reg.gauge("y")
        assert reg.sketch("z", {"k": "v"}) is reg.sketch("z", {"k": "v"})
        assert reg.sketch("z") is not reg.sketch("z", {"k": "v"})

    def test_rows_cover_all_kinds(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.gauge("g").set(2.0)
        reg.sketch("h").observe(4.0)
        rows = reg.rows()
        kinds = {kind for _, kind, _, _ in rows}
        assert kinds == {"counter", "gauge"}
        by_name = {name: (kind, value, count) for name, kind, value, count in rows}
        assert by_name["c"] == ("counter", 5, 5)
        (sketch_row,) = reg.sketch_rows()
        assert sketch_row[:2] == ("h", 1)
        assert sketch_row[2] == pytest.approx(4.0, rel=0.01)

    def test_reset_and_is_empty(self):
        reg = MetricsRegistry()
        assert reg.is_empty()
        reg.counter("c").inc()
        assert not reg.is_empty()
        reg.reset()
        assert reg.is_empty()


class TestSketchRegistry:
    def test_sketch_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.sketch("s") is reg.sketch("s")
        assert reg.sketch("s").name == "s"

    def test_reset_and_is_empty_cover_sketches(self):
        reg = MetricsRegistry()
        assert reg.is_empty()
        reg.sketch("s").observe(0.001)
        assert not reg.is_empty()
        reg.reset()
        assert reg.is_empty()

    def test_sketch_rows_sorted_with_percentiles(self):
        reg = MetricsRegistry()
        for ms in (1, 2, 3):
            reg.sketch("b.span").observe(ms / 1e3)
        reg.sketch("a.span").observe(0.010)
        rows = reg.sketch_rows()
        assert [row[0] for row in rows] == ["a.span", "b.span"]
        name, count, p50, p90, p99, mx = rows[1]
        assert count == 3
        assert p50 == pytest.approx(0.002, rel=0.02)
        assert mx == pytest.approx(0.003)

    def test_spans_feed_duration_sketches(self):
        with obs.enabled():
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        reg = obs.get_registry()
        assert sorted(reg.sketches) == [
            f'{SPAN_DURATION_FAMILY}{{span="inner"}}',
            f'{SPAN_DURATION_FAMILY}{{span="outer"}}']
        outer = reg.sketch(SPAN_DURATION_FAMILY, {"span": "outer"})
        inner = reg.sketch(SPAN_DURATION_FAMILY, {"span": "inner"})
        assert outer.count == inner.count == 1
        assert inner.max <= outer.max

    def test_disabled_spans_feed_nothing(self):
        with obs.span("ghost"):
            pass
        assert obs.get_registry().is_empty()


class TestGatedHelpers:
    def test_helpers_noop_while_disabled(self):
        obs.inc("never", 3)
        obs.set_gauge("never.g", 1.0)
        obs.observe("never.h", 1.0)
        assert obs.get_registry().is_empty()

    def test_helpers_record_while_enabled(self):
        with obs.enabled():
            obs.inc("calls", 2)
            obs.set_gauge("level", 7.0)
            obs.observe("size", 10.0)
        reg = obs.get_registry()
        assert reg.counter("calls").value == 2
        assert reg.gauge("level").value == 7.0
        assert reg.sketch("size").count == 1


class TestInstrumentedPaths:
    def test_model_evaluations_counted(self):
        with obs.enabled():
            obs.get_registry().reset()
            from repro.cost import transistor_cost
            transistor_cost(8.0, 0.18, 300, 0.8)
            transistor_cost(8.0, 0.18, 300, 0.8)
        counter = obs.get_registry().counter(
            "cost.manufacturing.transistor_cost.calls")
        assert counter.value == 2

    def test_sweep_grid_sizes_observed(self):
        from repro.cost import PAPER_FIGURE4_MODEL
        from repro.optimize import sd_sweep
        with obs.enabled():
            sd_sweep(PAPER_FIGURE4_MODEL, 1e7, 0.18, 5000, 0.4, 8.0)
        sketch = obs.get_registry().sketch("optimize_sweep_grid_points")
        assert sketch.count == 1
        assert sketch.min == 400  # the default sd_grid size

    def test_table_a1_cache_counters(self):
        from repro.data import DesignRegistry
        with obs.enabled():
            DesignRegistry.table_a1()
            DesignRegistry.table_a1()
        reg = obs.get_registry()
        hits = reg.counter("data_table_a1_cache_hits_total").value
        misses = reg.counter("data_table_a1_cache_misses_total").value
        assert hits + misses == 2
        assert hits >= 1  # second call is always served from the cache

    def test_format_metrics_table(self):
        with obs.enabled():
            obs.inc("a.calls")
        text = obs.format_metrics_table()
        assert "a.calls" in text
        assert "counter" in text

    def test_format_metrics_table_empty(self):
        assert obs.format_metrics_table() == "(no metrics recorded)"


class TestLabeledSketchRoundTrip:
    """One labeled sketch through every registry serialization path."""

    @staticmethod
    def _registry() -> MetricsRegistry:
        reg = MetricsRegistry()
        sketch = reg.sketch("grid_points", {"route": "sweep", "eq": "4"})
        for v in (10.0, 500.0, 2e6, 0.0):
            sketch.observe(v)
        reg.counter("calls_total", {"route": "sweep"}).inc(3)
        return reg

    @staticmethod
    def _state(reg: MetricsRegistry) -> dict:
        (sketch,) = reg.sketches.values()
        return {"key": sketch.key, "labels": sketch.labels,
                "count": sketch.count, "total": sketch.total,
                "min": sketch.min, "max": sketch.max,
                "buckets": dict(sketch.buckets)}

    def test_every_path_preserves_the_labeled_sketch(self, tmp_path):
        reg = self._registry()
        expected = self._state(reg)
        assert expected["key"] == 'grid_points{eq="4",route="sweep"}'

        assert self._state(MetricsRegistry.from_dict(reg.to_dict())) \
            == expected
        wire = json.loads(json.dumps(reg.to_dict()))
        assert self._state(MetricsRegistry.from_dict(wire)) == expected

        merged = MetricsRegistry().merge(reg).merge(self._registry())
        doubled = self._state(merged)
        assert doubled["count"] == 2 * expected["count"]
        assert doubled["buckets"] == {
            i: 2 * n for i, n in expected["buckets"].items()}

        out = tmp_path / "export.jsonl"
        obs.export_jsonl(out, tracer=obs.Tracer(), registry=reg,
                         ledger=obs.ProvenanceLedger())
        records = obs.read_jsonl(out)
        assert {r["kind"] for r in records} == {"counter", "sketch"}
        rebuilt = registry_from_records(records)
        assert self._state(rebuilt) == expected
        assert rebuilt.to_dict() == reg.to_dict()

        samples = parse_prometheus(render_prometheus(reg))
        quantiles = {s["labels"]["quantile"]: s["value"] for s in samples
                     if s["name"] == "grid_points"}
        sketch = reg.sketch("grid_points", {"route": "sweep", "eq": "4"})
        assert quantiles == {"0.5": sketch.p50, "0.9": sketch.p90,
                             "0.99": sketch.p99}
        (count,) = [s for s in samples if s["name"] == "grid_points_count"]
        assert count["labels"] == {"eq": "4", "route": "sweep"}
        assert count["value"] == 4.0
