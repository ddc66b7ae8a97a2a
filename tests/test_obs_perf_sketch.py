"""Percentile math and merge semantics of ``repro.obs.perf.sketch``.

Golden values use uniform streams where the true quantiles are known;
the sketch's contract is ~1 % *relative* error (the (GAMMA-1)/2 bound)
plus exact count/total/min/max bookkeeping and lossless merges.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import DomainError
from repro.obs import DurationSketch

#: The sketch's documented relative-error bound, with a little slack
#: for the nearest-rank convention on finite streams.
REL_TOL = 0.02


def uniform_ms(n: int = 1000) -> list[float]:
    """1 ms, 2 ms, ..., n ms — true quantiles are exactly readable."""
    return [i / 1e3 for i in range(1, n + 1)]


# -- golden percentiles --------------------------------------------------

def test_golden_percentiles_uniform_stream():
    sk = DurationSketch.from_values("u", uniform_ms())
    assert sk.count == 1000
    assert sk.min == pytest.approx(0.001)
    assert sk.max == pytest.approx(1.000)
    assert sk.p50 == pytest.approx(0.500, rel=REL_TOL)
    assert sk.p90 == pytest.approx(0.900, rel=REL_TOL)
    assert sk.p99 == pytest.approx(0.990, rel=REL_TOL)
    assert sk.mean == pytest.approx(0.5005, rel=1e-9)


def test_relative_error_bound_across_decades():
    # Same relative accuracy at 10 µs and at 10 s — the log layout's
    # whole point.
    for scale in (1e-5, 1e-3, 1e-1, 10.0):
        sk = DurationSketch.from_values(
            "s", [scale * i / 100 for i in range(1, 101)])
        assert sk.p50 == pytest.approx(scale * 0.50, rel=REL_TOL)
        assert sk.p90 == pytest.approx(scale * 0.90, rel=REL_TOL)


def test_quantile_extremes_snap_to_exact_min_max():
    sk = DurationSketch.from_values("x", [0.003, 0.007, 0.042])
    assert sk.quantile(0.0) == 0.003
    assert sk.quantile(1.0) == 0.042
    # Interior estimates never leave the exactly-known envelope.
    assert 0.003 <= sk.p50 <= 0.042
    assert 0.003 <= sk.p99 <= 0.042


def test_single_sample_every_quantile_is_that_sample():
    sk = DurationSketch.from_values("one", [0.0125])
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        assert sk.quantile(q) == pytest.approx(0.0125, rel=REL_TOL)


# -- edge cases ----------------------------------------------------------

def test_empty_sketch_reports_nan():
    sk = DurationSketch("empty")
    assert len(sk) == 0
    assert math.isnan(sk.p50)
    assert math.isnan(sk.mean)
    assert all(math.isnan(v) for v in sk.percentiles().values())
    assert "empty" in repr(sk)


def test_zero_and_negative_clamp_to_lowest_bucket():
    sk = DurationSketch("clamp")
    sk.observe(0.0)
    sk.observe(-1e-6)  # clock quirk: still counted, exact min kept
    assert sk.count == 2
    assert sk.min == -1e-6
    assert sk.buckets == {0: 2}


def test_non_finite_durations_rejected():
    sk = DurationSketch("bad")
    with pytest.raises(DomainError):
        sk.observe(math.nan)
    with pytest.raises(DomainError):
        sk.observe(math.inf)
    assert sk.count == 0


def test_quantile_out_of_range_rejected():
    sk = DurationSketch.from_values("q", [0.001])
    with pytest.raises(DomainError):
        sk.quantile(1.5)
    with pytest.raises(DomainError):
        sk.quantile(-0.1)


def test_huge_duration_clamps_to_top_bucket():
    sk = DurationSketch("top")
    sk.observe(1e10)  # beyond the layout ceiling (~1.15e9)
    assert sk.max == 1e10
    (index,) = sk.buckets
    assert index == DurationSketch.bucket_index(1e10)
    # A second absurd value lands in the same (clamped) bucket.
    sk.observe(1e12)
    assert sk.buckets[index] == 2
    # 1e9, the top of the range the layout must resolve, stays below it.
    assert DurationSketch.bucket_index(1e9) < index


# -- merge ---------------------------------------------------------------

def test_merge_halves_equals_full_stream():
    values = uniform_ms()
    full = DurationSketch.from_values("full", values)
    left = DurationSketch.from_values("left", values[:500])
    right = DurationSketch.from_values("right", values[500:])
    merged = left.merge(right)
    assert merged is left
    assert merged.count == full.count
    assert merged.total == pytest.approx(full.total)
    assert merged.min == full.min
    assert merged.max == full.max
    assert merged.buckets == full.buckets
    for q in (0.1, 0.5, 0.9, 0.99):
        assert merged.quantile(q) == full.quantile(q)


def test_merge_with_empty_is_identity():
    sk = DurationSketch.from_values("a", [0.001, 0.002])
    before = dict(sk.buckets)
    sk.merge(DurationSketch("empty"))
    assert sk.count == 2
    assert sk.buckets == before


def test_merge_rejects_other_types():
    sk = DurationSketch("a")
    with pytest.raises(DomainError):
        sk.merge({"count": 3})


# -- bucket layout -------------------------------------------------------

def test_bucket_roundtrip_within_relative_error():
    for seconds in (2e-9, 1e-6, 3.7e-4, 0.25, 12.0):
        index = DurationSketch.bucket_index(seconds)
        assert DurationSketch.bucket_value(index) == pytest.approx(
            seconds, rel=REL_TOL)
