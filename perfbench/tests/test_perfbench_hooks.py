"""The span hooks attribute every layer's calls to the right operation
and leave the program as they found it."""

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from pathlib import Path

from perfbench import hooks, workloads
from perfbench.http_load import sender
from perfbench.ledger import PER_LAYER
from perfbench.run import END_TO_END, WORKLOADS
from perfbench.spans import Recorder, by_operation, self_sum_gap
from repro import api, serve
from repro.engine import core
from repro.serve import CostService, MicroBatcher

ROOT = Path(__file__).resolve().parents[2]


def _entry_points():
    return (api.evaluate_many, api.Scenario.sweep, core.evaluate_grid,
            api.evaluate_grid, CostService.evaluate, CostService.sweep,
            vars(serve.EvaluateRequest).get("from_json"),
            vars(serve.SweepRequest).get("from_json"),
            vars(serve.SweepResponse).get("to_json"),
            vars(MicroBatcher).get("submit"))


def test_hooks_restore_every_entry_point():
    before = _entry_points()
    with hooks.instrumented(Recorder()):
        assert api.evaluate_many is not before[0]
        assert vars(serve.SweepRequest).get("from_json") is not None
    assert _entry_points() == before


def test_library_calls_nest_down_to_the_kernel():
    recorder = Recorder()
    base = api.Scenario(n_transistors=1e7, feature_um=0.18)
    with hooks.instrumented(recorder):
        base.evaluate()  # outside any operation: not recorded
        with recorder.operation("bench.study"):
            base.sweep(values=[150.0 + i for i in range(200)])
            api.evaluate_many([base.replace(n_wafers=w)
                               for w in (1e3, 2e3, 4e3)])
    names = {s.name for s in recorder.spans}
    assert names == {"bench.study", "api.sweep", "api.evaluate_many",
                     "engine.evaluate_grid", "kernels.batch"}
    assert len(by_operation(recorder.spans)) == 1
    assert self_sum_gap(recorder.spans) == 0.0


def test_coalesced_batches_are_recorded_once():
    recorder = Recorder()
    # Four fresh points each, so that one request cannot fill a batch.
    requests = []
    for request in islice(workloads.evaluate_requests(2), 2, 9):
        if request.policy == "raise" and len(requests) < 6:
            fresh = tuple(p for p, kind in zip(request.scenarios,
                                               request.kinds)
                          if kind == "fresh")[:4]
            requests.append(workloads.EvaluateRequest(
                fresh, ("fresh",) * 4, "raise",
                workloads._evaluate_body(fresh, "raise")))
    with serve.start_server(port=0, batch_wait_s=0.05) as handle:
        send = sender("127.0.0.1", handle.port, "/evaluate", recorder)
        with hooks.instrumented(recorder):
            with ThreadPoolExecutor(max_workers=len(requests)) as pool:
                answers = list(pool.map(send, requests))
    assert all(status == 200 for status, _ in answers)
    ops = by_operation(recorder.spans)
    assert len(ops) == len(requests)
    for root, layers in ops.values():
        assert root.name == "serve.app"
        assert {"serve.schemas.parse", "serve.service",
                "serve.schemas.encode"} <= set(layers)
    batches = [s for s in recorder.spans if s.name == "api.evaluate_many"]
    raise_points = sum(len(r.scenarios) for r in requests)
    assert len(batches) < len(requests), "the 50 ms window should coalesce"
    assert sum(s.attrs["scenarios"] for s in batches) <= raise_points
    for span in batches:
        kernel = [s for s in recorder.spans if s.op == span.op
                  and s.name == "engine.evaluate_grid"]
        assert kernel, "the batch's engine call nests under its operation"
    assert self_sum_gap(recorder.spans) == 0.0


def test_sweep_spans_follow_the_request_into_the_server():
    recorder = Recorder()
    requests = [r for r in islice(workloads.sweep_requests(6), 20)
                if r.policy == "mask" or r.parameter == "n_wafers"][:3]
    with serve.start_server(port=0) as handle:
        send = sender("127.0.0.1", handle.port, "/sweep", recorder)
        with hooks.instrumented(recorder) as counts:
            answers = [send(r) for r in requests]
    assert all(status == 200 for status, _ in answers)
    ops = by_operation(recorder.spans)
    assert len(ops) == len(requests)
    for root, layers in ops.values():
        assert {"serve.app", "serve.schemas.parse", "serve.service",
                "serve.schemas.encode", "api.sweep", "engine.evaluate_grid",
                "kernels.batch"} <= set(layers)
    masked = sum(r.masked for r in requests)
    assert masked and counts.diagnostics == masked
    points = [s for s in recorder.spans if s.name == "kernels.point"]
    assert len(points) == masked
    assert self_sum_gap(recorder.spans) == 0.0


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "http_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
