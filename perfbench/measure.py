"""Measure a workload: set up, warm up, time it, check every answer.

Each entry point returns a :class:`Outcome`. Timed runs (``trace=False``)
measure the end-to-end metrics with no hooks installed. Traced runs
measure the same workload twice in one process, first plain and then
with the span hooks of :mod:`perfbench.hooks`, and report the
per-layer metrics of the second half plus the ratio of the two
throughputs.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import islice

from repro import engine, obs, serve

from . import hooks, oracles, study, workloads
from .http_load import (ServerProcess, closed_loop, program_env, send_all,
                        sender)
from .ledger import Snapshot, invariants, layer_metrics
from .spans import Recorder, self_sum_gap

#: Set-ups measured per timed run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: A timed run is cut into this many equal windows by completion time;
#: each end-to-end metric is the median of its per-window values, so a
#: burst of outside load that spans under half the run does not move
#: it.
WINDOWS = 8
#: The traced run's self times must add up to each operation's wall
#: time to within this share.
SELF_SUM_TOLERANCE = 1e-9


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int
    failures: list
    metrics: dict
    samples: dict
    notes: list = field(default_factory=list)
    spans: Recorder | None = None


def quantile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def windowed_metrics(samples, start: float, end: float,
                     busy: bool = False) -> tuple[dict, dict]:
    """``ops_per_s``, ``latency_p50_ms`` and ``latency_p90_ms`` of a
    timed loop, each the median of its :data:`WINDOWS` per-window
    values.

    ``samples`` are ``(end, seconds)`` pairs per operation. A window's
    rate is its operations over its wall time, or over its summed
    operation time when ``busy`` (a single-threaded loop that does
    untimed work between operations).
    """
    span = (end - start) / WINDOWS
    windows = [[] for _ in range(WINDOWS)]
    for done, seconds in samples:
        windows[min(WINDOWS - 1, int((done - start) / span))].append(seconds)
    if min(len(w) for w in windows) < 10:
        raise RuntimeError("run too short: a window holds under 10 operations")
    rates = [len(w) / (sum(w) if busy else span) for w in windows]
    metrics = {
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(
            statistics.median(w) for w in windows) * 1e3,
        "latency_p90_ms": statistics.median(
            quantile(w, 90) for w in windows) * 1e3,
    }
    counts = {"ops": len(samples), "window_ops": [len(w) for w in windows],
              "window_ops_per_s": rates}
    return metrics, counts


# -- HTTP workloads ---------------------------------------------------------

@dataclass(frozen=True)
class HttpSpec:
    path: str
    stream: object
    warmup: int
    reference: object
    check: object
    #: Closed-loop client threads.
    clients: int


HTTP = {
    # One client: with two, client and server threads saturate a 2-vCPU
    # machine, and 15% of each CPU taken away moved throughput by 21%
    # and p90 by 29%, against 13% and 16% with one client.
    "http_evaluate": HttpSpec(
        "/evaluate", workloads.evaluate_requests,
        2 + workloads.EVALUATE_BLOCK, oracles.evaluate_reference,
        oracles.check_evaluate, clients=1),
    "http_sweep": HttpSpec(
        "/sweep", workloads.sweep_requests, len(workloads.SWEEP_BLOCK),
        oracles.sweep_reference, oracles.check_sweep, clients=2),
}


def _check_records(name: str, records) -> tuple[list, list]:
    """Failures of a run's answers, and notes on what was sent."""
    spec = HTTP[name]
    memo: dict = {}
    failures = []
    for sent in records:
        reason = spec.check(sent.request, sent.status, sent.body,
                            spec.reference(sent.request, memo))
        if reason is not None:
            failures.append(reason)
    if name != "http_evaluate":
        return failures, []
    requests = [sent.request for sent in records]
    shares = workloads.realised_shares(requests)
    note = (f"realised shares over {shares['n']} requests: repeat "
            f"{shares['repeat']:.4f} of points (target "
            f"{workloads.REPEAT_SHARE}), mask {shares['mask']:.4f} of "
            f"requests (target {workloads.MASK_SHARE})")
    if not workloads.shares_on_target(requests):
        failures.append("realised repeat/MASK shares off target")
    return failures, [note]


def _warm_up(spec: HttpSpec, stream, send) -> None:
    for sent in send_all(islice(stream, spec.warmup), send):
        if sent.status != 200:
            raise RuntimeError(f"warm-up request answered {sent.status}")


def timed_http(name: str, seed: int, seconds: float, root) -> Outcome:
    """End-to-end metrics of an HTTP workload against a server process."""
    spec = HTTP[name]
    setups = []
    server = None
    try:
        for _ in range(SETUP_SAMPLES):
            if server is not None:
                server.stop()
            server = ServerProcess(root)
            setups.append(server.setup_s)
        stream = spec.stream(seed)
        send = sender(server.host, server.port, spec.path)
        _warm_up(spec, stream, send)
        records, start, end = closed_loop(stream, send, spec.clients,
                                          seconds)
    finally:
        if server is not None:
            server.stop()
    failures, notes = _check_records(name, records)
    metrics, samples = windowed_metrics(
        [(r.end, r.seconds) for r in records], start, end)
    metrics["setup_s"] = statistics.median(setups)
    samples["setup_samples"] = len(setups)
    samples["setup_s_each"] = setups
    return Outcome(len(records), failures, metrics, samples, notes)


def traced_http(name: str, seed: int, seconds: float, root) -> Outcome:
    """Per-layer metrics of an HTTP workload against an in-process server."""
    spec = HTTP[name]
    recorder = Recorder()
    with obs.enabled(), serve.start_server(port=0) as handle:
        stream = spec.stream(seed)
        _warm_up(spec, stream, sender("127.0.0.1", handle.port, spec.path))
        plain, plain_start, plain_end = closed_loop(
            stream, sender("127.0.0.1", handle.port, spec.path),
            spec.clients, seconds / 2)
        before = Snapshot.take(handle.service)
        with hooks.instrumented(recorder) as counts:
            traced, traced_start, traced_end = closed_loop(
                stream, sender("127.0.0.1", handle.port, spec.path,
                               recorder), spec.clients, seconds / 2)
        delta = Snapshot.take(handle.service).minus(before)
    masked = sum(sent.request.masked for sent in traced)
    overhead = ((len(plain) / (plain_end - plain_start))
                / (len(traced) / (traced_end - traced_start)))
    metrics = layer_metrics(recorder.spans, delta=delta,
                            diagnostics=counts.diagnostics, masked=masked,
                            overhead_ratio=overhead)
    failures, notes = _check_records(name, plain + traced)
    trace_notes, trace_failures = _trace_checks(recorder, delta)
    return Outcome(len(plain) + len(traced), failures + trace_failures,
                   metrics, {"plain_ops": len(plain),
                             "traced_ops": len(traced),
                             "masked_points": masked},
                   notes + trace_notes, recorder)


def _trace_checks(recorder: Recorder, delta: Snapshot) -> tuple[list, list]:
    """Notes and failures of a traced phase: the engine invariants, and
    each operation's self times summing to its wall time."""
    notes, failures = invariants(delta)
    gap = self_sum_gap(recorder.spans)
    notes.append(f"trace.self_sum_gap {gap:.3g} (must be 0)")
    if gap > SELF_SUM_TOLERANCE:
        failures.append(f"self times miss an operation's wall time by "
                        f"{gap:.3g}")
    return notes, failures


# -- lib_study --------------------------------------------------------------

#: Measures ``lib_study`` set-up in a fresh interpreter: importing
#: ``repro.api``, then one warm-up operation, which starts the engine's
#: process pool. Generating the inputs and checking the answer are left
#: out of the time. Prints the seconds.
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import repro.api
imported = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from perfbench import oracles, study, workloads
inputs = next(workloads.studies(int(sys.argv[2])))
scenarios = study.portfolio(inputs)
begin = time.perf_counter()
sweep, priced = study.run_study(inputs, scenarios)
end = time.perf_counter()
reason = oracles.check_study(inputs, sweep, priced)
if reason is not None:
    sys.exit(f"warm-up study failed its check: {reason}")
print((imported - start) + (end - begin))
"""


def warm_up_study(inputs) -> None:
    """One checked ``lib_study`` operation (starts the process pool)."""
    sweep, priced = study.run_study(inputs, study.portfolio(inputs))
    reason = oracles.check_study(inputs, sweep, priced)
    if reason is not None:
        raise RuntimeError(f"warm-up study failed its check: {reason}")


def _setup_probe(root, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(root), str(seed)],
        cwd=root, env=program_env(root), capture_output=True, text=True,
        timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _study_loop(stream, seconds: float, recorder: Recorder | None = None):
    """Run checked studies for ``seconds``.

    Only the operation is timed: generating its inputs and checking
    its answers happen outside the measured interval. Returns
    ``(samples, failures, start, end)`` with ``(end, seconds)``
    samples.
    """
    samples, failures = [], []
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    while time.perf_counter() < deadline:
        inputs = next(stream)
        scenarios = study.portfolio(inputs)
        start = time.perf_counter()
        if recorder is None:
            sweep, priced = study.run_study(inputs, scenarios)
        else:
            with recorder.operation("bench.study"):
                sweep, priced = study.run_study(inputs, scenarios)
        end = time.perf_counter()
        samples.append((end, end - start))
        reason = oracles.check_study(inputs, sweep, priced)
        if reason is not None:
            failures.append(reason)
    return samples, failures, loop_start, time.perf_counter()


def timed_study(seed: int, seconds: float, root) -> Outcome:
    """End-to-end metrics of ``lib_study``."""
    setups = [_setup_probe(root, seed) for _ in range(SETUP_SAMPLES)]
    stream = workloads.studies(seed)
    try:
        warm_up_study(next(stream))
        samples, failures, start, end = _study_loop(stream, seconds)
    finally:
        engine.parallel.shutdown()
    metrics, counts = windowed_metrics(samples, start, end, busy=True)
    metrics["setup_s"] = statistics.median(setups)
    counts["setup_samples"] = len(setups)
    counts["setup_s_each"] = setups
    return Outcome(len(samples), failures, metrics, counts)


def traced_study(seed: int, seconds: float, root) -> Outcome:
    """Per-layer metrics of ``lib_study``."""
    recorder = Recorder()
    stream = workloads.studies(seed)
    try:
        warm_up_study(next(stream))
        plain, plain_failures, _, _ = _study_loop(stream, seconds / 2)
        before = Snapshot.take()
        with hooks.instrumented(recorder) as counts:
            traced, traced_failures, _, _ = _study_loop(
                stream, seconds / 2, recorder)
        delta = Snapshot.take().minus(before)
    finally:
        engine.parallel.shutdown()
    overhead = ((len(plain) / sum(s for _, s in plain))
                / (len(traced) / sum(s for _, s in traced)))
    metrics = layer_metrics(recorder.spans, delta=delta,
                            diagnostics=counts.diagnostics, masked=0,
                            overhead_ratio=overhead)
    notes, trace_failures = _trace_checks(recorder, delta)
    failures = plain_failures + traced_failures + trace_failures
    return Outcome(len(plain) + len(traced), failures, metrics,
                   {"plain_ops": len(plain), "traced_ops": len(traced)},
                   notes, recorder)


def run(workload: str, seed: int, seconds: float, trace: bool,
        root) -> Outcome:
    if workload == "lib_study":
        return (traced_study if trace else timed_study)(seed, seconds, root)
    return (traced_http if trace else timed_http)(workload, seed, seconds,
                                                  root)
