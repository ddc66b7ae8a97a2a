"""Each correctness oracle passes a right answer and flags a perturbed one."""

import dataclasses
import json
import math
from itertools import islice

import numpy as np

from perfbench import oracles, workloads
from perfbench.study import portfolio, run_study
from repro.serve import CostService, EvaluateRequest, SweepRequest


def _nudge(value: float) -> float:
    return math.nextafter(value, math.inf)


def _evaluate_case(policy="raise"):
    request = next(r for r in islice(workloads.evaluate_requests(5), 2, None)
                   if r.policy == policy)
    with CostService() as service:
        body = service.evaluate(EvaluateRequest.from_json(
            request.body.decode())).to_json().encode()
    return request, body, oracles.evaluate_reference(request, {})


def test_evaluate_oracle_flags_a_perturbed_price():
    request, body, reference = _evaluate_case()
    assert oracles.check_evaluate(request, 200, body, reference) is None
    for field in ("cost_per_transistor_usd", "area_cm2", "die_cost_usd"):
        wrong = json.loads(body)
        wrong["results"][9][field] = _nudge(wrong["results"][9][field])
        assert oracles.check_evaluate(request, 200,
                                      json.dumps(wrong).encode(),
                                      reference) is not None
    short = json.loads(body)
    short["results"] = short["results"][1:]
    assert oracles.check_evaluate(request, 200, json.dumps(short).encode(),
                                  reference) is not None
    assert oracles.check_evaluate(request, 422, body, reference) is not None


def test_mask_evaluate_oracle_wants_one_diagnostic_and_no_price():
    request, body, reference = _evaluate_case("mask")
    assert reference is None
    assert oracles.check_evaluate(request, 200, body, None) is None
    doc = json.loads(body)
    assert doc["results"][0]["ok"] is False
    two = json.loads(body)
    two["diagnostics"] = two["diagnostics"] * 2
    assert oracles.check_evaluate(request, 200, json.dumps(two).encode(),
                                  None) is not None
    priced = json.loads(body)
    priced["results"][0].update(ok=True, cost_per_transistor_usd=1e-9)
    assert oracles.check_evaluate(request, 200, json.dumps(priced).encode(),
                                  None) is not None


def _sweep_case(policy="raise"):
    request = next(r for r in workloads.sweep_requests(5)
                   if r.policy == policy)
    with CostService() as service:
        body = service.sweep(SweepRequest.from_json(
            request.body.decode())).to_json().encode()
    return request, body, oracles.sweep_reference(request, {})


def test_sweep_oracle_flags_a_perturbed_curve():
    request, body, reference = _sweep_case()
    assert oracles.check_sweep(request, 200, body, reference) is None
    doc = json.loads(body)
    for field, index in (("cost", 17), ("x", 3)):
        wrong = json.loads(body)
        wrong[field][index] = _nudge(wrong[field][index])
        assert oracles.check_sweep(request, 200, json.dumps(wrong).encode(),
                                   reference) is not None
    doc["x_opt"] = _nudge(doc["x_opt"])
    assert oracles.check_sweep(request, 200, json.dumps(doc).encode(),
                               reference) is not None


def test_mask_sweep_oracle_wants_each_infeasible_point_nulled():
    request, body, reference = _sweep_case("mask")
    assert oracles.check_sweep(request, 200, body, reference) is None
    doc = json.loads(body)
    masked = [i for i, c in enumerate(doc["cost"]) if c is None]
    assert len(masked) == request.masked
    priced = json.loads(body)
    priced["cost"][masked[0]] = 1e-9
    assert oracles.check_sweep(request, 200, json.dumps(priced).encode(),
                               reference) is not None
    silent = json.loads(body)
    silent["diagnostics"] = silent["diagnostics"][1:]
    assert oracles.check_sweep(request, 200, json.dumps(silent).encode(),
                               reference) is not None


def _small_study():
    study = next(workloads.studies(11))
    grid = study.grid[:2000]
    return dataclasses.replace(study, grid=grid,
                               checks=np.arange(0, 2000, 125))


def test_study_oracle_flags_a_perturbed_sweep_point():
    study = _small_study()
    sweep, priced = run_study(study, portfolio(study))
    assert oracles.check_study(study, sweep, priced) is None
    cost = sweep.cost.copy()
    i = int(study.checks[5])
    cost[i] *= 1.0 + 1e-9
    wrong = dataclasses.replace(sweep, cost=cost)
    assert oracles.check_study(study, wrong, priced) is not None


def test_study_oracle_flags_a_perturbed_portfolio_price():
    study = _small_study()
    sweep, priced = run_study(study, portfolio(study))
    j = int(study.checks[3]) % len(priced)
    wrong = list(priced)
    wrong[j] = dataclasses.replace(
        priced[j], cost_per_transistor_usd=priced[j].cost_per_transistor_usd
        * (1.0 + 1e-9))
    assert oracles.check_study(study, sweep, wrong) is not None


def test_study_oracle_flags_a_price_for_another_scenario():
    study = _small_study()
    sweep, priced = run_study(study, portfolio(study))
    j = int(study.checks[2]) % len(priced)
    other = priced[j].scenario.replace(
        yield_fraction=priced[j].scenario.yield_fraction * 0.5)
    wrong = list(priced)
    wrong[j] = dataclasses.replace(
        priced[j], scenario=other,
        cost_per_transistor_usd=other.evaluate().cost_per_transistor_usd)
    assert oracles.check_study(study, sweep, wrong) is not None
