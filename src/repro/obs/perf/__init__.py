"""Performance observability: percentile sketches, profiling, hot spans.

The performance layer on top of :mod:`repro.obs`:

* :class:`DurationSketch` — streaming log-bucket percentile sketch
  (p50/p90/p99/max, ~1 % relative error, exactly mergeable), the
  metrics registry's one distribution kind (span durations included);
* :class:`SpanProfiler` — deterministic ``sys.setprofile`` profiler
  that attributes wall time to ``span-path;function-stack`` leaves and
  exports flamegraph collapsed-stack format;
* :func:`collapsed_from_spans` / :func:`format_collapsed` — flamegraph
  lines rebuilt from a recorded span tree (what ``tools/trace_report.py
  --flame`` prints);
* :func:`hot_spans` / :func:`format_hot_report` — the per-span-name
  self-time ranking (``--hot``).

The benchmark runner (``python -m repro.bench``) builds its statistics
on these primitives; see ``docs/observability.md`` § "Performance
observability".
"""

from .profiler import SpanProfiler, collapsed_from_spans, format_collapsed
from .report import format_hot_report, hot_spans
from .sketch import DurationSketch

__all__ = [
    "DurationSketch",
    "SpanProfiler",
    "collapsed_from_spans",
    "format_collapsed",
    "format_hot_report",
    "hot_spans",
]
