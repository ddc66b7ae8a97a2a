"""End-to-end metrics are medians over the windows of a run."""

import pytest

from perfbench.measure import WINDOWS, windowed_metrics


def _loop(latencies, start=100.0):
    """Back-to-back operations of a single-threaded closed loop."""
    samples, clock = [], start
    for seconds in latencies:
        clock += seconds
        samples.append((clock, seconds))
    return samples, start, clock


def test_steady_loop_reads_its_rate_and_latency():
    samples, start, end = _loop([0.01] * 300)
    metrics, counts = windowed_metrics(samples, start, end)
    assert metrics["ops_per_s"] == pytest.approx(100.0)
    assert metrics["latency_p50_ms"] == pytest.approx(10.0)
    assert metrics["latency_p90_ms"] == pytest.approx(10.0)
    assert counts["ops"] == 300 and len(counts["window_ops"]) == WINDOWS


def test_slow_windows_do_not_move_the_medians():
    samples, start, end = _loop([0.01] * 300 + [0.05] * 20)
    metrics, counts = windowed_metrics(samples, start, end)
    assert metrics["latency_p50_ms"] == pytest.approx(10.0)
    assert metrics["latency_p90_ms"] == pytest.approx(10.0)
    assert counts["window_ops_per_s"][-1] < 50.0
    assert metrics["ops_per_s"] == pytest.approx(100.0, rel=0.01)


def test_busy_rate_ignores_untimed_gaps():
    samples = [(100.0 + 0.1 * i, 0.01) for i in range(1, 161)]
    metrics, _ = windowed_metrics(samples, 100.0, 116.0, busy=True)
    assert metrics["ops_per_s"] == pytest.approx(100.0)
    wall, _ = windowed_metrics(samples, 100.0, 116.0)
    assert wall["ops_per_s"] == pytest.approx(10.0)


def test_too_short_a_run_is_refused():
    samples, start, end = _loop([0.01] * 12)
    with pytest.raises(RuntimeError):
        windowed_metrics(samples, start, end)
