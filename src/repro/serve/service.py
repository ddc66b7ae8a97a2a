"""The serve coordinator: wire schemas in, facade results out.

:class:`CostService` is the transport-free middle layer between the
HTTP routes (:mod:`repro.serve.app`) and the :class:`repro.api.Scenario`
facade. It owns the traffic engineering the tentpole asks for:

* a **shared memo cache** — one :class:`repro.engine.GridCache` keyed
  per scenario, so repeated operating points across requests (and
  across clients) are priced once; hit/miss/eviction counters are
  bridged into the metrics registry as labeled series;
* the **micro-batcher** — concurrent RAISE-policy evaluations coalesce
  into one ``evaluate_many`` engine call
  (:class:`repro.serve.MicroBatcher`), bit-identical to the sequential
  path because the batch kernel is elementwise;
* the **error-policy contract** — RAISE failures propagate as
  :mod:`repro.errors` exceptions (the HTTP layer maps them to 422 with
  the taxonomy code), MASK/COLLECT return 200 responses carrying a
  ``diagnostics`` array mirroring :class:`repro.robust.DiagnosticLog`.

The facade (:mod:`repro.api`) is imported lazily inside the methods:
it imports :mod:`repro.serve.schemas` itself, so a module-level import
here would be circular.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ..cost.total import PAPER_FIGURE4_MODEL
from ..engine.cache import GridCache
from ..errors import CollectedErrors
from ..obs import metrics as obs_metrics
from ..robust.policy import ErrorPolicy
from .batcher import MicroBatcher
from .schemas import (
    DiagnosticPayload,
    EvaluatedPoint,
    EvaluateRequest,
    EvaluateResponse,
    OptimalSdRequest,
    OptimalSdResponse,
    ParetoPoint,
    ParetoRequest,
    ParetoResponse,
    SensitivityRequest,
    SensitivityResponse,
    SweepRequest,
    SweepResponse,
)

__all__ = ["CostService"]


def _diag_payloads(diagnostics) -> tuple:
    return tuple(DiagnosticPayload.from_diagnostic(d) for d in diagnostics)


def _point_from_result(result) -> EvaluatedPoint:
    ok = result.ok
    return EvaluatedPoint(
        label=result.scenario.label,
        cost_per_transistor_usd=(result.cost_per_transistor_usd if ok
                                 else None),
        area_cm2=result.area_cm2 if math.isfinite(result.area_cm2) else None,
        die_cost_usd=result.die_cost_usd if ok else None,
        ok=ok)


class CostService:
    """Evaluate wire requests against the Scenario facade.

    One instance is shared by every server thread: the memo cache and
    batcher are the cross-request state. ``batch_wait_s`` bounds the
    extra latency a single evaluation pays for coalescing; ``0``
    batches only what is already queued. Construct with
    ``batching=False`` to price every request directly (the
    no-coalescing baseline the benchmarks compare against).
    """

    def __init__(self, *, cache_entries: int = 256, batch_max: int = 64,
                 batch_wait_s: float = 0.002, batching: bool = True) -> None:
        # GridCache is not internally synchronised; the serve layer
        # shares one across handler threads, so all access goes
        # through this lock.
        self._cache_lock = threading.Lock()
        self._cache = GridCache(cache_entries)
        self._batcher = None
        if batching:
            self._batcher = MicroBatcher(self._price_batch,
                                         max_batch=batch_max,
                                         max_wait_s=batch_wait_s)

    def close(self) -> None:
        """Stop the batcher worker thread (idempotent)."""
        if self._batcher is not None:
            self._batcher.close()

    def __enter__(self) -> "CostService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the /evaluate pipeline -----------------------------------------

    @staticmethod
    def _price_batch(scenarios) -> list:
        """One engine dispatch for a (possibly coalesced) RAISE batch."""
        from ..api import evaluate_many
        results = evaluate_many(scenarios, cache=False)
        return [(r.cost_per_transistor_usd, r.area_cm2) for r in results]

    def _scenario_key(self, payload) -> bytes:
        token = ("serve.evaluate", repr(PAPER_FIGURE4_MODEL),
                 payload.n_transistors, payload.feature_um, payload.n_wafers,
                 payload.yield_fraction, payload.cost_per_cm2)
        return GridCache.key(token, np.asarray([payload.sd], dtype=float))

    def _cache_get(self, payload):
        key = self._scenario_key(payload)
        with self._cache_lock:
            values = self._cache.get(key)
        if values is None:
            return None
        return float(values[0]), float(values[1])

    def _cache_put(self, payload, cost: float, area: float) -> None:
        key = self._scenario_key(payload)
        with self._cache_lock:
            self._cache.put(key, np.asarray([cost, area], dtype=float))

    def evaluate(self, request: EvaluateRequest) -> EvaluateResponse:
        """Price the request's scenarios under its error policy.

        RAISE batches flow cache → micro-batcher → ``evaluate_many``;
        a failing scenario raises its :mod:`repro.errors` exception.
        MASK returns NaN-masked points as ``null`` costs plus one
        diagnostic per failure; COLLECT returns the aggregated
        diagnostics with no results when anything failed.
        """
        if request.policy == "raise":
            return self._evaluate_raise(request.scenarios)
        return self._evaluate_guarded(request)

    def _evaluate_raise(self, payloads) -> EvaluateResponse:
        n = len(payloads)
        costs: list = [None] * n
        areas: list = [None] * n
        misses = []
        for i, payload in enumerate(payloads):
            cached = self._cache_get(payload)
            if cached is not None:
                costs[i], areas[i] = cached
            else:
                misses.append(i)
        if misses:
            scenarios = [payloads[i].to_scenario() for i in misses]
            if self._batcher is not None:
                futures = [self._batcher.submit(s) for s in scenarios]
                fresh = [f.result() for f in futures]
            else:
                fresh = self._price_batch(scenarios)
            for i, (cost, area) in zip(misses, fresh):
                self._cache_put(payloads[i], cost, area)
                costs[i], areas[i] = cost, area
        points = tuple(
            EvaluatedPoint(label=payload.label,
                           cost_per_transistor_usd=costs[i],
                           area_cm2=areas[i],
                           die_cost_usd=costs[i] * payload.n_transistors,
                           ok=True)
            for i, payload in enumerate(payloads))
        return EvaluateResponse(results=points, backend="numpy")

    def _evaluate_guarded(self, request: EvaluateRequest) -> EvaluateResponse:
        from ..api import evaluate_many
        scenarios = [p.to_scenario() for p in request.scenarios]
        diagnostics: list = []
        policy = ErrorPolicy.coerce(request.policy)
        try:
            results = evaluate_many(scenarios, policy=policy,
                                    diagnostics=diagnostics, cache=False)
        except CollectedErrors as exc:
            return EvaluateResponse(results=(), backend="numpy",
                                    diagnostics=_diag_payloads(exc.diagnostics))
        return EvaluateResponse(
            results=tuple(_point_from_result(r) for r in results),
            backend="numpy", diagnostics=_diag_payloads(diagnostics))

    # -- grid routes -----------------------------------------------------

    def sweep(self, request: SweepRequest) -> SweepResponse:
        """``Scenario.sweep`` over HTTP (one grid job per request)."""
        scenario = request.scenario.to_scenario()
        policy = ErrorPolicy.coerce(request.policy)
        try:
            result = scenario.sweep(parameter=request.parameter,
                                    values=request.values, policy=policy)
        except CollectedErrors as exc:
            return SweepResponse(parameter=request.parameter, x=(), cost=(),
                                 x_opt=None, cost_opt=None,
                                 n_masked=len(exc.diagnostics),
                                 diagnostics=_diag_payloads(exc.diagnostics))
        x = tuple(float(v) for v in result.x)
        cost = tuple(None if math.isnan(float(c)) else float(c)
                     for c in result.cost)
        feasible = result.n_masked < len(x)
        return SweepResponse(
            parameter=result.parameter, x=x, cost=cost,
            x_opt=result.x_opt if feasible else None,
            cost_opt=result.cost_opt if feasible else None,
            n_masked=result.n_masked,
            diagnostics=_diag_payloads(result.diagnostics))

    def pareto(self, request: ParetoRequest) -> ParetoResponse:
        """``Scenario.pareto`` over HTTP: the front plus its knee."""
        from ..optimize import knee_point
        scenario = request.scenario.to_scenario()
        policy = ErrorPolicy.coerce(request.policy)
        diagnostics: list = []
        try:
            front = scenario.pareto(values=request.values, policy=policy,
                                    diagnostics=diagnostics)
        except CollectedErrors as exc:
            return ParetoResponse(front=(), knee=None,
                                  diagnostics=_diag_payloads(exc.diagnostics))
        points = tuple(
            ParetoPoint(sd=p.sd, die_area_cm2=p.die_area_cm2,
                        transistor_cost_usd=p.transistor_cost_usd,
                        design_cost_usd=p.design_cost_usd)
            for p in front)
        knee = None
        if front:
            k = knee_point(front)
            knee = ParetoPoint(sd=k.sd, die_area_cm2=k.die_area_cm2,
                               transistor_cost_usd=k.transistor_cost_usd,
                               design_cost_usd=k.design_cost_usd)
        return ParetoResponse(front=points, knee=knee,
                              diagnostics=_diag_payloads(diagnostics))

    def sensitivity(self, request: SensitivityRequest) -> SensitivityResponse:
        """``Scenario.sensitivity`` over HTTP: parameter elasticities."""
        scenario = request.scenario.to_scenario()
        policy = ErrorPolicy.coerce(request.policy)
        try:
            elasticities = scenario.sensitivity(
                parameters=request.parameters, rel_step=request.rel_step,
                sd_max=request.sd_max, policy=policy)
        except CollectedErrors as exc:
            return SensitivityResponse(
                elasticities={}, diagnostics=_diag_payloads(exc.diagnostics))
        safe = {name: (None if math.isnan(value) else value)
                for name, value in elasticities.items()}
        return SensitivityResponse(elasticities=safe)

    def optimal_sd(self, request: OptimalSdRequest) -> OptimalSdResponse:
        """``Scenario.optimal_sd`` over HTTP (RAISE semantics only)."""
        from ..robust import DEFAULT_RETRY_BUDGET
        scenario = request.scenario.to_scenario()
        retry = DEFAULT_RETRY_BUDGET if request.retry else None
        result = scenario.optimal_sd(sd_max=request.sd_max, tol=request.tol,
                                     max_iter=request.max_iter, retry=retry)
        return OptimalSdResponse(
            sd_opt=result.sd_opt, cost_opt=result.cost_opt,
            iterations=result.iterations,
            bracket=(float(result.bracket[0]), float(result.bracket[1])),
            attempts=result.attempts)

    # -- metrics ---------------------------------------------------------

    def cache_stats(self):
        """The shared memo cache's counters."""
        with self._cache_lock:
            return self._cache.stats()

    def batcher_stats(self) -> dict | None:
        """The micro-batcher's lifetime counters (``None`` if disabled)."""
        return None if self._batcher is None else self._batcher.stats()

    def bridge_metrics(self, registry=None):
        """Snapshot cache/batcher state into labeled registry metrics.

        Mirrors :func:`repro.obs.bridge_engine_metrics`: lifetime
        counters publish by delta (``serve_cache_lifetime_total{event=
        hit|miss|eviction}``, ``serve_batch_lifetime_total{event=
        batch|request|fallback}``) so repeated bridging never
        double-counts, plus current-state gauges
        (``serve_cache_entries``,
        ``serve_cache_hit_rate``, ``serve_batch_largest``). Returns the
        registry.
        """
        registry = (registry if registry is not None
                    else obs_metrics.get_registry())
        stats = self.cache_stats()
        for event, lifetime in (("hit", stats.hits),
                                ("miss", stats.misses),
                                ("eviction", stats.evictions)):
            counter = registry.counter("serve_cache_lifetime_total",
                                       {"event": event})
            delta = lifetime - counter.value
            if delta > 0:
                counter.inc(delta)
        registry.gauge("serve_cache_entries").set(stats.entries)
        registry.gauge("serve_cache_hit_rate").set(stats.hit_rate)
        batcher = self.batcher_stats()
        if batcher is not None:
            for event, lifetime in (("batch", batcher["batches"]),
                                    ("request", batcher["items"]),
                                    ("fallback", batcher["fallbacks"])):
                counter = registry.counter("serve_batch_lifetime_total",
                                           {"event": event})
                delta = lifetime - counter.value
                if delta > 0:
                    counter.inc(delta)
            registry.gauge("serve_batch_largest").set(batcher["largest"])
        return registry
