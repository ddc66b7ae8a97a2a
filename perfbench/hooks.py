"""Wrap each layer's public entry points with span recording.

:func:`instrumented` patches, for the duration of a ``with`` block,
the calls an operation makes on its way down the stack:

======================  ==================================================
span name               wrapped entry point
======================  ==================================================
serve.schemas.parse     ``EvaluateRequest.from_json``/``SweepRequest.from_json``
serve.service           ``CostService.evaluate``/``CostService.sweep``
serve.schemas.encode    ``EvaluateResponse.to_json``/``SweepResponse.to_json``
api.evaluate_many       ``repro.api.evaluate_many``
api.sweep               ``Scenario.sweep``
engine.evaluate_grid    ``repro.engine.evaluate_grid`` (every import site)
kernels.batch/.point    ``batch``/``point`` of the eq.-(4) kernels
======================  ==================================================

Three more hooks record no span. The stdlib HTTP handler's
``parse_request`` binds the handler thread to the operation named in
the request's ``X-Bench-Op`` header. ``MicroBatcher.submit`` remembers
which operation queued each scenario: the batcher thread's coalesced
``evaluate_many`` is recorded once, under the operation that queued
the batch's first scenario, and the other operations in the batch see
their wait as ``serve.service`` self time. ``DiagnosticLog.capture``
counts absorbed failures.

A call made outside any operation (warm-up, the oracles) passes
straight through.
"""

from __future__ import annotations

import functools
import http.server
import threading
from contextlib import contextmanager

import repro.engine
import repro.optimize.pareto
import repro.optimize.sweep
from repro import api
from repro.engine import core as engine_core
from repro.engine import kernels as engine_kernels
from repro.robust.policy import DiagnosticLog
from repro.serve import batcher, schemas, service

#: HTTP header carrying the client's operation id to the server.
OP_HEADER = "X-Bench-Op"

_ABSENT = object()

#: Modules that bind ``evaluate_grid`` by name.
_GRID_IMPORTERS = (engine_core, repro.engine, api, repro.optimize.sweep,
                   repro.optimize.pareto)
_KERNELS = (engine_kernels.Eq4SdKernel, engine_kernels.Eq4VolumeKernel,
            engine_kernels.OperatingPointsKernel)


class _Patches:
    def __init__(self) -> None:
        self._saved: list = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner).get(name, _ABSENT)))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            if original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._saved.clear()


def _traced(recorder, fn, name: str, attrs_of=None, op_of=None):
    """``fn`` recording a ``name`` span for the operation it serves:
    the calling thread's, or else ``op_of(args)``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        op = recorder.current_op()
        if op is None and op_of is not None:
            op = op_of(args)
        span = None if op is None else recorder.enter(name, op)
        if span is None:
            return fn(*args, **kwargs)
        attrs = {}
        try:
            with recorder.bound(op):
                result = fn(*args, **kwargs)
            if attrs_of is not None:
                attrs = attrs_of(args, result)
            return result
        except BaseException as exc:
            attrs = {"error": type(exc).__name__}
            raise
        finally:
            recorder.exit(span, attrs)

    return wrapper


class Counts:
    """Thread-safe counters the hooks keep besides spans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.diagnostics = 0

    def add_diagnostic(self) -> None:
        with self._lock:
            self.diagnostics += 1


@contextmanager
def instrumented(recorder):
    """Record spans into ``recorder`` inside the block; yields
    :class:`Counts`."""
    patches = _Patches()
    counts = Counts()
    queued: dict = {}
    queued_lock = threading.Lock()

    def queued_op(args):
        with queued_lock:
            ops = [queued.pop(id(s), None) for s in (args[0] if args else ())]
        return next((op for op in ops if op is not None), None)

    def bytes_in(args, result):
        return {"bytes": len(args[0])}

    def bytes_out(args, result):
        return {"bytes": len(result)}

    def scenarios(args, result):
        return {"scenarios": len(result)}

    def grid(args, result):
        return {"points": int(result.values.shape[-1]),
                "chunks": result.chunks, "cache_hit": result.cache_hit}

    def points(args, result):
        return {"points": int(args[1].size)}

    try:
        for cls in (schemas.EvaluateRequest, schemas.SweepRequest):
            patches.set(cls, "from_json", staticmethod(_traced(
                recorder, cls.from_json, "serve.schemas.parse", bytes_in)))
        for cls in (schemas.EvaluateResponse, schemas.SweepResponse):
            patches.set(cls, "to_json", _traced(
                recorder, cls.to_json, "serve.schemas.encode", bytes_out))
        for method in ("evaluate", "sweep"):
            patches.set(service.CostService, method, _traced(
                recorder, getattr(service.CostService, method),
                "serve.service"))
        patches.set(api, "evaluate_many", _traced(
            recorder, api.evaluate_many, "api.evaluate_many", scenarios,
            op_of=queued_op))
        patches.set(api.Scenario, "sweep", _traced(
            recorder, api.Scenario.sweep, "api.sweep"))
        evaluate_grid = _traced(recorder, engine_core.evaluate_grid,
                                "engine.evaluate_grid", grid)
        for module in _GRID_IMPORTERS:
            patches.set(module, "evaluate_grid", evaluate_grid)
        for cls in _KERNELS:
            patches.set(cls, "batch", _traced(recorder, cls.batch,
                                              "kernels.batch", points))
            patches.set(cls, "point", _traced(recorder, cls.point,
                                              "kernels.point"))

        submit = batcher.MicroBatcher.submit

        def queued_submit(self, item):
            op = recorder.current_op()
            if op is not None:
                with queued_lock:
                    queued[id(item)] = op
            return submit(self, item)

        patches.set(batcher.MicroBatcher, "submit", queued_submit)

        capture = DiagnosticLog.capture

        def counted_capture(self, exc, **kwargs):
            absorbed = capture(self, exc, **kwargs)
            if absorbed and recorder.current_op() is not None:
                counts.add_diagnostic()
            return absorbed

        patches.set(DiagnosticLog, "capture", counted_capture)

        parse_request = http.server.BaseHTTPRequestHandler.parse_request

        def bind_operation(handler):
            ok = parse_request(handler)
            op = handler.headers.get(OP_HEADER) if ok else None
            recorder.bind(int(op) if op else None)
            return ok

        patches.set(http.server.BaseHTTPRequestHandler, "parse_request",
                    bind_operation)
        yield counts
    finally:
        patches.restore()
