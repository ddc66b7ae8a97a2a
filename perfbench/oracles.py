"""Correctness oracles: every answer the benchmark times is checked.

Each check returns ``None`` for a correct answer and a one-line reason
otherwise; the measuring loops count every reason into ``failed``. The
references are computed in-process through the ``Scenario`` facade,
outside the timed region.
"""

from __future__ import annotations

import json
import math

from repro.api import Scenario

#: Relative tolerance of the ``lib_study`` sweep against per-point
#: evaluation (the pooled batch and the scalar path may round apart).
STUDY_RTOL = 1e-12


def evaluate_reference(request, memo: dict):
    """``(cost, area, die cost)`` per scenario of a RAISE ``/evaluate``
    request via ``Scenario.evaluate``; ``memo`` keeps each point's
    answer across the requests of a run."""
    if request.policy == "mask":
        return None
    out = []
    for scenario in request.scenarios:
        key = tuple(sorted(scenario.items()))
        if key not in memo:
            result = Scenario(**scenario).evaluate()
            memo[key] = (result.cost_per_transistor_usd, result.area_cm2,
                         result.die_cost_usd)
        out.append(memo[key])
    return out


def check_evaluate(request, status: int, body: bytes,
                   reference) -> str | None:
    """An ``http_evaluate`` answer.

    RAISE answers must equal the in-process reference exactly, point by
    point (JSON float repr round-trips); a MASK answer must be
    ``ok: false`` with no price and one diagnostic per infeasible point.
    """
    if status != 200:
        return f"status {status}"
    try:
        doc = json.loads(body)
        results = doc["results"]
        diagnostics = doc["diagnostics"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed response: {exc!r}"
    if len(results) != len(request.scenarios):
        return (f"{len(results)} results for {len(request.scenarios)} "
                "scenarios")
    if request.policy == "mask":
        if any(point.get("ok") is not False
               or point.get("cost_per_transistor_usd") is not None
               for point in results):
            return "infeasible MASK point was priced"
        if len(diagnostics) != request.masked:
            return (f"MASK answer carries {len(diagnostics)} diagnostics "
                    f"for {request.masked} infeasible points")
        return None
    if diagnostics:
        return f"RAISE answer carries {len(diagnostics)} diagnostics"
    for i, (point, want) in enumerate(zip(results, reference)):
        got = (point.get("cost_per_transistor_usd"), point.get("area_cm2"),
               point.get("die_cost_usd"))
        if point.get("ok") is not True or got != want:
            return f"scenario {i}: answer {got} != in-process {want}"
    return None


def sweep_reference(request, memo: dict):
    """The in-process ``Scenario.sweep`` a ``/sweep`` request asks for
    (every request is fresh, so ``memo`` is unused)."""
    return Scenario(**request.scenario).sweep(parameter=request.parameter,
                                              values=request.values,
                                              policy=request.policy)


def check_sweep(request, status: int, body: bytes, reference) -> str | None:
    """An ``http_sweep`` answer.

    ``x``, ``cost`` and ``x_opt`` must equal the in-process reference
    exactly; a MASK answer must null exactly the infeasible points and
    carry one diagnostic for each.
    """
    if status != 200:
        return f"status {status}"
    try:
        doc = json.loads(body)
        x, cost, x_opt = doc["x"], doc["cost"], doc["x_opt"]
        n_masked, diagnostics = doc["n_masked"], doc["diagnostics"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed response: {exc!r}"
    if x != request.values or x != reference.x.tolist():
        return "swept x differs from the requested values"
    want = [None if math.isnan(c) else c for c in reference.cost.tolist()]
    if cost != want:
        return "cost curve differs from in-process Scenario.sweep"
    if x_opt != reference.x_opt:
        return f"x_opt {x_opt} != in-process {reference.x_opt}"
    if not n_masked == len(diagnostics) == request.masked:
        return (f"{n_masked} masked points and {len(diagnostics)} "
                f"diagnostics for {request.masked} infeasible values")
    return None


def _close(got: float, want: float) -> bool:
    return (math.isfinite(got)
            and abs(got - want) <= STUDY_RTOL * abs(want))


def check_study(study, sweep, priced) -> str | None:
    """A ``lib_study`` answer.

    The sweep at the study's sampled indices must match
    ``Scenario.replace(sd=x).evaluate()`` to ``STUDY_RTOL``. At the
    same positions, the portfolio result must carry the scenario built
    from the study's inputs, priced as that scenario's own
    ``evaluate()`` to the same tolerance.
    """
    base = Scenario(**study.design)
    if sweep.cost.shape != study.grid.shape:
        return f"sweep returned {sweep.cost.shape} points"
    if len(priced) != study.n_wafers.size:
        return f"evaluate_many returned {len(priced)} results"
    for raw in study.checks:
        i = int(raw)
        x = float(study.grid[i])
        want = base.replace(sd=x).evaluate().cost_per_transistor_usd
        got = float(sweep.cost[i])
        if float(sweep.x[i]) != x or not _close(got, want):
            return f"sweep at sd={x!r}: {got!r} != {want!r}"
        j = i % study.n_wafers.size
        scenario = base.replace(n_wafers=float(study.n_wafers[j]),
                                yield_fraction=float(study.yield_fraction[j]))
        if priced[j].scenario != scenario:
            return f"portfolio result {j} is for another scenario"
        want = scenario.evaluate().cost_per_transistor_usd
        got = priced[j].cost_per_transistor_usd
        if not _close(got, want):
            return f"portfolio scenario {j}: {got!r} != {want!r}"
    return None
