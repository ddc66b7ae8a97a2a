"""Seeded input generators for the workloads.

Every generator is an endless, deterministic stream: the same seed
yields the same sequence of inputs, whichever client thread consumes
which item. The program under test only ever sees the generated
request bodies (HTTP) or the generated arrays and scenarios (library).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

from repro.constants import EQ6_SD0

#: ``http_evaluate``: scenarios per ``POST /evaluate`` batch, and the
#: distinct fresh points a repeat may draw from. Every RAISE batch holds
#: exactly ``EVALUATE_REPEATS`` repeats, dealt among fresh points, so
#: the repeat share is fixed. Traffic is dealt in shuffled blocks of
#: ``EVALUATE_BLOCK`` requests, one of which is a MASK request for one
#: infeasible point.
EVALUATE_BATCH = 64
EVALUATE_REPEATS = 32
REPEAT_WINDOW = 64
EVALUATE_BLOCK = 20
REPEAT_SHARE = EVALUATE_REPEATS / EVALUATE_BATCH
MASK_SHARE = 1 / EVALUATE_BLOCK

#: Values per ``/sweep`` request. ``http_sweep`` traffic is dealt in
#: shuffled blocks: one request in four sweeps ``n_wafers``, the rest
#: sweep ``sd``, and one ``sd`` sweep per block asks for the MASK policy
#: over values of which ``SWEEP_MASKED`` are infeasible.
SWEEP_VALUES = 1000
SWEEP_BLOCK = ("sd",) * 14 + ("sd_mask",) + ("n_wafers",) * 5
SWEEP_MASKED = 10

#: ``lib_study``: points in the ``sd`` sweep (above the engine's 100k
#: process-pool threshold) and scenarios priced by ``evaluate_many``.
STUDY_GRID = 1_000_000
STUDY_SCENARIOS = 1000


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def fresh_point(rng: random.Random) -> dict:
    """One feasible eq.-(4) operating point from continuous ranges."""
    return {
        "n_transistors": _log_uniform(rng, 1e6, 1e9),
        "feature_um": rng.uniform(0.05, 0.35),
        "sd": rng.uniform(EQ6_SD0 + 50.0, 1500.0),
        "n_wafers": _log_uniform(rng, 1e3, 1e5),
        "yield_fraction": rng.uniform(0.3, 0.95),
    }


@dataclass(frozen=True)
class EvaluateRequest:
    """One ``POST /evaluate`` request of ``http_evaluate``.

    ``kinds`` gives, per scenario, ``"fresh"``, ``"repeat"`` or
    ``"mask"`` (an infeasible point sent under the MASK policy).
    """

    scenarios: tuple
    kinds: tuple
    policy: str
    body: bytes

    @property
    def masked(self) -> int:
        """Infeasible points the request carries."""
        return self.kinds.count("mask")


def _evaluate_body(scenarios, policy: str) -> bytes:
    doc = {"scenarios": list(scenarios)}
    if policy != "raise":
        doc["policy"] = policy
    return json.dumps(doc).encode("utf-8")


def evaluate_requests(seed: int):
    """The ``http_evaluate`` stream.

    It opens with two requests of fresh points (the warm-up that fills
    the repeat window), then deals shuffled blocks of RAISE batches,
    each ``EVALUATE_REPEATS`` repeats shuffled among fresh points, and
    one MASK request for a point at an infeasible ``sd <= s_d0``. A
    repeat names one of the last ``REPEAT_WINDOW`` distinct fresh points
    sent before the previous request.
    """
    rng = random.Random(seed)
    # Fresh points of the requests before the last one, and of the last
    # one: a repeat never names a point of its own request or of the
    # previous one, which concurrent clients may still have in flight.
    older: list = []
    last: list = []

    def batch(kinds) -> EvaluateRequest:
        nonlocal older, last
        window = tuple(older)
        fresh = []
        scenarios = []
        for kind in kinds:
            if kind == "fresh":
                fresh.append(fresh_point(rng))
                scenarios.append(fresh[-1])
            else:
                scenarios.append(rng.choice(window))
        older = (older + last)[-REPEAT_WINDOW:]
        last = fresh
        return EvaluateRequest(tuple(scenarios), tuple(kinds), "raise",
                               _evaluate_body(scenarios, "raise"))

    yield batch(["fresh"] * REPEAT_WINDOW)
    yield batch(["fresh"] * EVALUATE_BATCH)
    kinds = (["repeat"] * EVALUATE_REPEATS
             + ["fresh"] * (EVALUATE_BATCH - EVALUATE_REPEATS))
    while True:
        block = ["raise"] * (EVALUATE_BLOCK - 1) + ["mask"]
        rng.shuffle(block)
        for policy in block:
            if policy == "mask":
                point = fresh_point(rng)
                point["sd"] = rng.uniform(0.1 * EQ6_SD0, 0.95 * EQ6_SD0)
                yield EvaluateRequest((point,), ("mask",), "mask",
                                      _evaluate_body((point,), "mask"))
            else:
                rng.shuffle(kinds)
                yield batch(kinds)


def realised_shares(requests) -> dict:
    """Realised repeat share (of the points in RAISE requests) and MASK
    share (of the requests) of a sent ``http_evaluate`` stream."""
    requests = list(requests)
    points = [kind for r in requests if r.policy == "raise"
              for kind in r.kinds]
    masks = sum(1 for r in requests if r.policy == "mask")
    return {"repeat": points.count("repeat") / len(points) if points else 0.0,
            "mask": masks / len(requests) if requests else 0.0,
            "n": len(requests)}


def shares_on_target(requests) -> bool:
    """Whether a sent stream's repeat and MASK shares match the targets.

    Any run of consecutive requests of the block-dealt stream holds
    within two of the exact number of MASK requests, so that is the
    tolerance; every RAISE batch holds the exact repeat share.
    """
    shares = realised_shares(requests)
    if shares["n"] < EVALUATE_BLOCK:
        return False
    return (shares["repeat"] == REPEAT_SHARE
            and abs(shares["mask"] - MASK_SHARE) * shares["n"] <= 2)


@dataclass(frozen=True)
class SweepRequest:
    """One ``POST /sweep`` request of ``http_sweep``.

    The swept values live only in ``body``: a run keeps every request
    it sent until the answers are checked, and one copy is enough.
    ``masked`` counts the infeasible values of a MASK request.
    """

    scenario: dict
    parameter: str
    policy: str
    masked: int
    body: bytes

    @property
    def values(self) -> list:
        return json.loads(self.body)["values"]


def sweep_requests(seed: int):
    """The ``http_sweep`` stream: a fresh operating point per request,
    dealt in shuffled :data:`SWEEP_BLOCK` blocks, each request over
    ``SWEEP_VALUES`` seeded values."""
    rng = random.Random(seed)
    while True:
        block = list(SWEEP_BLOCK)
        rng.shuffle(block)
        for kind in block:
            scenario = fresh_point(rng)
            doc = {"scenario": scenario}
            masked = 0
            if kind == "n_wafers":
                doc["parameter"] = "n_wafers"
                doc["values"] = [_log_uniform(rng, 1e2, 1e6)
                                 for _ in range(SWEEP_VALUES)]
            else:
                doc["parameter"] = "sd"
                doc["values"] = [rng.uniform(EQ6_SD0 + 5.0, 3000.0)
                                 for _ in range(SWEEP_VALUES)]
            if kind == "sd_mask":
                masked = SWEEP_MASKED
                for i in rng.sample(range(SWEEP_VALUES), masked):
                    doc["values"][i] = rng.uniform(0.1 * EQ6_SD0,
                                                   0.95 * EQ6_SD0)
                doc["policy"] = "mask"
            yield SweepRequest(scenario, doc["parameter"],
                               doc.get("policy", "raise"), masked,
                               json.dumps(doc).encode("utf-8"))


@dataclass(frozen=True)
class Study:
    """The inputs of one ``lib_study`` operation.

    ``design`` fixes ``n_transistors``/``feature_um``/``sd``/
    ``cost_per_cm2``; ``grid`` is the ``sd`` sweep; ``n_wafers`` and
    ``yield_fraction`` vary across the ``evaluate_many`` portfolio;
    ``checks`` are the sweep indices the oracle samples.
    """

    design: dict
    grid: np.ndarray
    n_wafers: np.ndarray
    yield_fraction: np.ndarray
    checks: np.ndarray


def studies(seed: int):
    """The ``lib_study`` stream: one fresh design per operation."""
    rng = np.random.default_rng(seed)
    while True:
        design = {
            "n_transistors": float(10.0 ** rng.uniform(6.0, 9.0)),
            "feature_um": float(rng.uniform(0.05, 0.35)),
            "sd": float(rng.uniform(EQ6_SD0 + 50.0, 1500.0)),
            "n_wafers": float(10.0 ** rng.uniform(3.0, 5.0)),
            "yield_fraction": float(rng.uniform(0.3, 0.95)),
            "cost_per_cm2": float(rng.uniform(4.0, 16.0)),
        }
        grid = rng.uniform(EQ6_SD0 + 5.0, 3000.0, STUDY_GRID)
        n_wafers = 10.0 ** rng.uniform(2.0, 6.0, STUDY_SCENARIOS)
        yield_fraction = rng.uniform(0.3, 0.95, STUDY_SCENARIOS)
        checks = rng.choice(STUDY_GRID, size=16, replace=False)
        yield Study(design, grid, n_wafers, yield_fraction, checks)
