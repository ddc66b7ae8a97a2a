"""Streaming percentile sketches: the registry's one distribution type.

A :class:`DurationSketch` folds an unbounded stream of positive values
— span durations, grid sizes, simulated yields — into a fixed
logarithmic bucket layout and answers quantile queries (p50, p90, p99)
with a bounded *relative* error: a 1 ms and a 1 s span both resolve to
~1 %. It is the only distribution kind of :mod:`repro.obs.metrics`
(labeled like every other series) and what the performance trajectory
(``python -m repro.bench``) is built on.

Design (the DDSketch/HDR-histogram family, stdlib only):

* bucket ``i`` covers ``[MIN * GAMMA**i, MIN * GAMMA**(i+1))`` with
  ``GAMMA = 1.02`` and ``MIN = 1e-9``, up to a ceiling above ``1e9``,
  so every quantile estimate —
  the geometric midpoint of its bucket — is within ``(GAMMA-1)/2 ≈ 1 %``
  of the true value;
* buckets are stored sparsely (index → count), so an idle sketch costs
  a dict and six scalars, and ``observe`` is one ``math.log`` plus one
  dict update — cheap enough to run on every recorded span;
* sketches with identical layout **merge** by adding bucket counts,
  which is exact: merging per-process sketches loses nothing, the
  primitive the bench runner uses to combine repeats.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable

from ...errors import DomainError

__all__ = ["DurationSketch"]

#: Per-bucket growth factor; quantile relative error is (GAMMA - 1) / 2.
_GAMMA = 1.02
#: Smallest resolvable value; everything below lands in bucket 0.
_MIN_VALUE = 1e-9
#: Highest bucket index: buckets resolve values up to ~1.15e9 (a 1M-point
#: grid size fits with room to spare); anything larger clamps here.
_MAX_INDEX = 2100

_LOG_GAMMA = math.log(_GAMMA)
_LOG_MIN = math.log(_MIN_VALUE)


class DurationSketch:
    """Mergeable log-bucket sketch of a value distribution.

    Tracks count, sum, min, and max exactly; quantiles are estimated
    from the bucket layout with ~1 % relative error. Instances with
    the same class-level layout (always true — the layout is fixed)
    merge losslessly via :meth:`merge`. ``labels`` is the frozen,
    sorted ``(key, value)`` tuple of the series (see
    :func:`repro.obs.metrics.freeze_labels`); :attr:`key` is the
    registry key it is stored under.

    Examples
    --------
    >>> sk = DurationSketch("demo")
    >>> for ms in (1, 2, 5, 10):
    ...     sk.observe(ms / 1e3)
    >>> sk.count
    4
    >>> abs(sk.max - 0.010) < 1e-12
    True
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max", "buckets",
                 "_lock")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: Sparse bucket index -> sample count.
        self.buckets: dict[int, int] = {}
        #: Serialises ingestion/merge so concurrent observers never lose
        #: samples (the serve layer shares one registry across threads).
        self._lock = threading.Lock()

    @property
    def key(self) -> str:
        """The full series key including labels."""
        from ..metrics import metric_key  # metrics imports this module
        return metric_key(self.name, self.labels)

    @staticmethod
    def bucket_index(value: float) -> int:
        """The bucket index a value falls into (clamped to the layout)."""
        if value <= _MIN_VALUE:
            return 0
        index = int((math.log(value) - _LOG_MIN) / _LOG_GAMMA)
        return index if index < _MAX_INDEX else _MAX_INDEX

    @staticmethod
    def bucket_value(index: int) -> float:
        """The representative value of a bucket (geometric midpoint)."""
        return math.exp(_LOG_MIN + (index + 0.5) * _LOG_GAMMA)

    def observe(self, value: float) -> None:
        """Fold one value into the sketch.

        Non-finite values are rejected; values at or below the layout
        minimum (including 0 and negatives from clock quirks) clamp
        into the lowest bucket but still update min/total exactly.
        """
        value = float(value)
        if math.isnan(value) or math.isinf(value):
            raise DomainError(
                f"sketch {self.name}: value must be finite, got {value}")
        index = self.bucket_index(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "DurationSketch") -> "DurationSketch":
        """Fold ``other``'s samples into this sketch (exact); returns self."""
        if not isinstance(other, DurationSketch):
            raise DomainError(
                f"sketch {self.name}: can only merge another DurationSketch, "
                f"got {type(other).__name__}")
        with self._lock:
            self.count += other.count
            self.total += other.total
            if other.min < self.min:
                self.min = other.min
            if other.max > self.max:
                self.max = other.max
            for index, count in other.buckets.items():
                self.buckets[index] = self.buckets.get(index, 0) + count
        return self

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1] (NaN when empty).

        Uses the nearest-rank convention (``ceil(q * count)``); the
        returned value is the geometric midpoint of the bucket holding
        that rank, except that the extreme quantiles snap to the exact
        tracked ``min`` / ``max``.
        """
        if not 0.0 <= q <= 1.0:
            raise DomainError(f"quantile must be in [0, 1]; got {q}")
        # Snapshot under the lock so a concurrent observe() can't mutate
        # the bucket dict mid-iteration.
        with self._lock:
            count, lo, hi = self.count, self.min, self.max
            items = sorted(self.buckets.items())
        if count == 0:
            return math.nan
        if q == 0.0:
            return lo
        if q == 1.0:
            return hi
        rank = max(1, math.ceil(q * count))
        seen = 0
        for index, n in items:
            seen += n
            if seen >= rank:
                # Keep estimates inside the exactly-known envelope.
                return min(max(self.bucket_value(index), lo), hi)
        return hi  # pragma: no cover - rank <= count always hits above

    @property
    def p50(self) -> float:
        """Estimated median."""
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        """Estimated 90th percentile."""
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        """Estimated 99th percentile."""
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed values (NaN when empty)."""
        return self.total / self.count if self.count else math.nan

    def percentiles(self) -> dict[str, float]:
        """The standard report tuple: p50/p90/p99/max as a dict."""
        return {"p50": self.p50, "p90": self.p90, "p99": self.p99,
                "max": self.max if self.count else math.nan}

    @classmethod
    def from_values(cls, name: str, values: Iterable[float]) -> "DurationSketch":
        """Build a sketch from an iterable of values in one call."""
        sketch = cls(name)
        for value in values:
            sketch.observe(value)
        return sketch

    def __getstate__(self) -> dict:
        """Pickle support: state without the (unpicklable) lock."""
        return {"name": self.name, "labels": self.labels,
                "count": self.count, "total": self.total,
                "min": self.min, "max": self.max,
                "buckets": dict(self.buckets)}

    def __setstate__(self, state: dict) -> None:
        """Restore pickled state and recreate a fresh lock."""
        self.name = state["name"]
        self.labels = state["labels"]
        self.count = state["count"]
        self.total = state["total"]
        self.min = state["min"]
        self.max = state["max"]
        self.buckets = dict(state["buckets"])
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        if self.count == 0:
            return f"DurationSketch({self.key!r}, empty)"
        return (f"DurationSketch({self.key!r}, n={self.count}, "
                f"p50={self.p50 * 1e3:.3f}ms, p99={self.p99 * 1e3:.3f}ms)")
