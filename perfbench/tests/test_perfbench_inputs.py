"""The workload generators are seeded and deterministic."""

import dataclasses
from itertools import islice

import numpy as np

from perfbench import workloads


def test_same_seed_gives_identical_evaluate_requests():
    first = [r.body for r in islice(workloads.evaluate_requests(7), 60)]
    second = [r.body for r in islice(workloads.evaluate_requests(7), 60)]
    assert first == second
    assert first != [r.body for r in
                     islice(workloads.evaluate_requests(8), 60)]


def test_same_seed_gives_identical_sweep_requests():
    first = [r.body for r in islice(workloads.sweep_requests(7), 8)]
    second = [r.body for r in islice(workloads.sweep_requests(7), 8)]
    assert first == second
    assert first != [r.body for r in islice(workloads.sweep_requests(8), 8)]


def test_same_seed_gives_identical_studies():
    first = list(islice(workloads.studies(7), 2))
    second = list(islice(workloads.studies(7), 2))
    for a, b in zip(first, second):
        assert a.design == b.design
        for name in ("grid", "n_wafers", "yield_fraction", "checks"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    other = next(workloads.studies(8))
    assert not np.array_equal(first[0].grid, other.grid)


def test_sweep_stream_mixes_parameters_and_mask():
    block = len(workloads.SWEEP_BLOCK)
    requests = list(islice(workloads.sweep_requests(4), 3 * block))
    assert [r.parameter for r in requests].count("n_wafers") == 3 * 5
    masked = [r for r in requests if r.policy == "mask"]
    assert len(masked) == 3
    for request in masked:
        assert request.parameter == "sd"
        assert sum(v < 100.0 for v in request.values) == request.masked == 10
    for request in requests:
        if request.policy == "raise":
            assert request.masked == 0
            assert min(request.values) > (100.0 if request.parameter == "sd"
                                          else 0.0)


def test_evaluate_stream_meets_its_shares():
    requests = list(islice(workloads.evaluate_requests(3), 2 + 300))
    assert workloads.shares_on_target(requests[2:])
    first_sent = {}
    for index, request in enumerate(requests):
        for kind, point in zip(request.kinds, request.scenarios):
            key = tuple(sorted(point.items()))
            if kind == "fresh":
                first_sent[key] = index
            elif kind == "repeat":
                assert first_sent[key] <= index - 2
            else:
                assert request.policy == "mask" and point["sd"] < 100.0
    for request in requests[2:]:
        if request.policy == "raise":
            assert len(request.scenarios) == workloads.EVALUATE_BATCH
            assert request.kinds.count("repeat") == workloads.EVALUATE_REPEATS


def test_share_check_flags_a_skewed_stream():
    requests = list(islice(workloads.evaluate_requests(5), 2 + 100))[2:]
    assert workloads.shares_on_target(requests)
    no_masks = [r for r in requests if r.policy == "raise"]
    assert not workloads.shares_on_target(no_masks)
    fresh_only = [dataclasses.replace(r, kinds=("fresh",) * len(r.kinds))
                  if r.policy == "raise" else r for r in requests]
    assert not workloads.shares_on_target(fresh_only)
