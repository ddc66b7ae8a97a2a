"""Supervised chunk execution — deadlines, retries, breaker, checkpoints.

The engine's process-pool path used to be all-or-nothing: one worker
crash (``BrokenProcessPool``), one hung chunk, or one corrupted result
killed the entire grid evaluation and threw away every completed
chunk. This module supplies the supervision vocabulary the pool is
rewired through (:mod:`repro.engine.parallel`):

* :class:`ChunkRetryPolicy` — how hard the supervisor may try: a
  per-chunk **deadline** (timeout → cancel + re-dispatch), per-chunk
  and total **retry budgets**, a deterministic capped **backoff**
  schedule, and the **breaker threshold**;
* :class:`CircuitBreaker` — after N consecutive faulty pool cycles the
  breaker opens and the pool is no longer trusted: runs degrade to
  in-process evaluation (MASK/COLLECT, with a
  :class:`~repro.robust.policy.Diagnostic`) or raise a taxonomized
  :class:`repro.errors.ExecutionError` (RAISE);
* :class:`ChunkSupervisor` — the generic retry loop. It owns no pool:
  the caller injects ``submit``/``restart``/``local_eval`` callables,
  so the loop is unit-testable with plain in-process futures and an
  artificial clock — no flaky sleeps;
* :class:`CheckpointSink` — opt-in persistence of completed chunk
  results keyed by a content fingerprint, so an interrupted sweep
  resumes by evaluating only the missing chunks.

Everything here is deterministic: retry budgets and backoff come from
the fixed policy, faults are replayed identically by the seeded chaos
modes of :mod:`repro.robust.faultinject`, and no global RNG is
touched.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass
from pathlib import Path

from ..errors import DomainError, ExecutionError
from .policy import Diagnostic

__all__ = [
    "ChunkFailure",
    "ChunkRetryPolicy",
    "ChunkSupervisor",
    "CheckpointSink",
    "CircuitBreaker",
    "DEFAULT_CHUNK_RETRY_POLICY",
    "SupervisionReport",
]

#: Fault reasons a supervised chunk can be retried for.
FAULT_REASONS = ("crash", "timeout", "corrupt")


@dataclass(frozen=True)
class ChunkRetryPolicy:
    """How much fault recovery a supervised chunk run may spend.

    Attributes
    ----------
    max_retries_per_chunk:
        Faults one chunk may survive before it is terminal (0 = fail on
        the first fault).
    max_total_retries:
        Fault budget across the whole run, catching pathological grids
        where every chunk limps individually but the run never ends.
    deadline_s:
        Wall-clock budget per chunk attempt; ``None`` (the default)
        disables deadlines. An expired chunk is cancelled and
        re-dispatched against a restarted pool, so one wedged worker
        cannot hang a sweep.
    backoff_s / backoff_growth / max_backoff_s:
        Deterministic capped exponential backoff between fault cycles:
        cycle ``k`` sleeps ``min(max_backoff_s, backoff_s *
        backoff_growth**k)``. Set ``backoff_s=0`` for no backoff
        (tests).
    breaker_threshold:
        Consecutive faulty pool cycles after which the circuit breaker
        opens and pooled execution is abandoned for the degraded
        in-process path.
    """

    max_retries_per_chunk: int = 2
    max_total_retries: int = 16
    deadline_s: float | None = None
    backoff_s: float = 0.05
    backoff_growth: float = 2.0
    max_backoff_s: float = 1.0
    breaker_threshold: int = 3

    def __post_init__(self) -> None:
        """Validate every knob (raises :class:`~repro.errors.DomainError`)."""
        if self.max_retries_per_chunk < 0:
            raise DomainError("max_retries_per_chunk must be >= 0; got "
                              f"{self.max_retries_per_chunk}")
        if self.max_total_retries < 0:
            raise DomainError(
                f"max_total_retries must be >= 0; got {self.max_total_retries}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise DomainError(f"deadline_s must be > 0; got {self.deadline_s}")
        if self.backoff_s < 0:
            raise DomainError(f"backoff_s must be >= 0; got {self.backoff_s}")
        if self.backoff_growth < 1.0:
            raise DomainError(
                f"backoff_growth must be >= 1; got {self.backoff_growth}")
        if self.max_backoff_s < 0:
            raise DomainError(
                f"max_backoff_s must be >= 0; got {self.max_backoff_s}")
        if self.breaker_threshold < 1:
            raise DomainError(
                f"breaker_threshold must be >= 1; got {self.breaker_threshold}")

    def backoff_for(self, cycle: int) -> float:
        """Backoff before re-dispatching fault cycle ``cycle`` (0-based)."""
        if self.backoff_s == 0.0:
            return 0.0
        return min(self.max_backoff_s,
                   self.backoff_s * self.backoff_growth ** cycle)


#: The policy the engine's pool path uses unless reconfigured.
DEFAULT_CHUNK_RETRY_POLICY = ChunkRetryPolicy()


@dataclass(frozen=True)
class ChunkFailure:
    """One fault observed while supervising a chunk.

    ``reason`` is one of ``"crash"`` (worker process death /
    ``BrokenProcessPool``), ``"timeout"`` (deadline exceeded) or
    ``"corrupt"`` (result failed shape/content validation);
    ``attempt`` is the attempt number the fault consumed (1 = the
    first retry is next).
    """

    chunk: int
    attempt: int
    reason: str
    message: str

    def __str__(self) -> str:
        return (f"chunk {self.chunk} attempt {self.attempt} "
                f"[{self.reason}]: {self.message}")


class CircuitBreaker:
    """Counts consecutive faulty pool cycles; opens at a threshold.

    ``record_failure`` is called once per fault *cycle* (not per
    chunk), ``record_success`` once per clean cycle that completed
    work. When the consecutive-failure count reaches ``threshold`` the
    breaker opens and stays open until :meth:`reset` — an open breaker
    means the pool is not to be trusted and supervised runs go
    straight to the degraded in-process path (or raise, under RAISE).
    """

    def __init__(self, threshold: int):
        if threshold < 1:
            raise DomainError(f"threshold must be >= 1; got {threshold}")
        self.threshold = threshold
        self._consecutive = 0
        self._open = False
        self.openings = 0

    @property
    def open(self) -> bool:
        """Whether the breaker is currently open (pool abandoned)."""
        return self._open

    @property
    def state(self) -> str:
        """``"open"`` or ``"closed"`` (for gauges and reports)."""
        return "open" if self._open else "closed"

    @property
    def consecutive_failures(self) -> int:
        """Faulty cycles seen since the last clean cycle or reset."""
        return self._consecutive

    def record_failure(self) -> bool:
        """Note one faulty cycle; returns True when this one opened it."""
        self._consecutive += 1
        if not self._open and self._consecutive >= self.threshold:
            self._open = True
            self.openings += 1
            return True
        return False

    def record_success(self) -> None:
        """Note one clean cycle (resets the consecutive count when closed)."""
        if not self._open:
            self._consecutive = 0

    def reset(self) -> None:
        """Close the breaker and clear the consecutive count."""
        self._open = False
        self._consecutive = 0


@dataclass(frozen=True)
class SupervisionReport:
    """What one supervised run actually did — attached to evaluations.

    Attributes
    ----------
    n_chunks:
        Chunks the run was split into.
    retries:
        Every :class:`ChunkFailure` observed, in observation order.
    restarts:
        Worker-pool restarts performed (crash/timeout recovery).
    degraded:
        Chunk indices that fell back to in-process evaluation.
    preloaded:
        Chunk indices served from a :class:`CheckpointSink` without
        evaluating.
    breaker_open:
        Breaker state at the end of the run.
    diagnostics:
        :class:`~repro.robust.policy.Diagnostic` records emitted for
        degradation events (MASK/COLLECT runs surface these on the
        evaluation result).
    """

    n_chunks: int
    retries: tuple = ()
    restarts: int = 0
    degraded: tuple = ()
    preloaded: tuple = ()
    breaker_open: bool = False
    diagnostics: tuple = ()

    @property
    def n_retries(self) -> int:
        """Total faults retried or degraded during the run."""
        return len(self.retries)

    @property
    def faulted(self) -> bool:
        """Whether the run saw any fault, restart, or degradation."""
        return bool(self.retries or self.restarts or self.degraded
                    or self.breaker_open)


class CheckpointSink:
    """Opt-in on-disk persistence of completed chunk results.

    Layout: ``root/<fingerprint>/chunk_<index>.npy`` plus a
    ``meta.json`` describing the run (fingerprint, chunk count, point
    count). The fingerprint is content-addressed over the kernel
    token, the grid bytes, and the chunk count
    (:func:`repro.engine.cache.grid_fingerprint`), so a resumed run
    only reuses chunks from the *identical* evaluation — any change to
    the model, the grid, or the chunking re-evaluates from scratch.

    Writes are atomic (tmp file + ``os.replace``), so an interrupt
    mid-save can never leave a truncated chunk that a resume would
    trust. Unreadable chunk files are dropped (and deleted) at load
    time. ``saved``/``loaded`` count lifetime chunk writes and reads.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.saved = 0
        self.loaded = 0

    def _dir(self, fingerprint: str) -> Path:
        return self.root / str(fingerprint)

    @staticmethod
    def _chunk_file(directory: Path, index: int) -> Path:
        return directory / f"chunk_{int(index):05d}.npy"

    def begin(self, fingerprint: str, *, n_chunks: int, points: int) -> None:
        """Ensure the run directory exists and carries its metadata."""
        directory = self._dir(fingerprint)
        directory.mkdir(parents=True, exist_ok=True)
        meta = directory / "meta.json"
        if not meta.exists():
            tmp = directory / ".meta.json.tmp"
            tmp.write_text(json.dumps(
                {"fingerprint": str(fingerprint), "n_chunks": int(n_chunks),
                 "points": int(points), "format": "repro-checkpoint/1"},
                indent=2) + "\n", encoding="utf-8")
            tmp.replace(meta)

    def save(self, fingerprint: str, index: int, values) -> None:
        """Atomically persist one completed chunk's values."""
        import numpy as np  # lazy: repro.obs imports this module
        directory = self._dir(fingerprint)
        directory.mkdir(parents=True, exist_ok=True)
        target = self._chunk_file(directory, index)
        tmp = directory / f".chunk_{int(index):05d}.tmp"
        with open(tmp, "wb") as fh:
            np.save(fh, np.asarray(values, dtype=float))
        tmp.replace(target)
        self.saved += 1

    def load(self, fingerprint: str, n_chunks: int) -> dict:
        """Chunk index → values for every readable persisted chunk."""
        import numpy as np  # lazy: repro.obs imports this module
        directory = self._dir(fingerprint)
        out: dict[int, object] = {}
        if not directory.is_dir():
            return out
        for index in range(int(n_chunks)):
            path = self._chunk_file(directory, index)
            if not path.exists():
                continue
            try:
                out[index] = np.load(path)
            except (OSError, ValueError, EOFError):
                # A torn or foreign file: drop it so the chunk re-evaluates.
                path.unlink(missing_ok=True)
                continue
        self.loaded += len(out)
        return out

    def chunks_on_disk(self, fingerprint: str) -> tuple:
        """Sorted chunk indices currently persisted for ``fingerprint``."""
        directory = self._dir(fingerprint)
        if not directory.is_dir():
            return ()
        indices = []
        for path in directory.glob("chunk_*.npy"):
            try:
                indices.append(int(path.stem.split("_", 1)[1]))
            except (IndexError, ValueError):
                continue
        return tuple(sorted(indices))

    def drop(self, fingerprint: str, index: int) -> bool:
        """Remove one persisted chunk; returns whether it existed."""
        path = self._chunk_file(self._dir(fingerprint), index)
        existed = path.exists()
        path.unlink(missing_ok=True)
        return existed

    def clear(self, fingerprint: str | None = None) -> None:
        """Remove one run's checkpoints, or every run under the root."""
        roots = ([self._dir(fingerprint)] if fingerprint is not None
                 else [p for p in self.root.iterdir() if p.is_dir()]
                 if self.root.is_dir() else [])
        for directory in roots:
            if not directory.is_dir():
                continue
            for path in directory.iterdir():
                path.unlink(missing_ok=True)
            directory.rmdir()


class ChunkSupervisor:
    """Drives a set of chunk tasks to completion under a retry policy.

    The supervisor is deliberately pool-agnostic — the caller injects
    the execution substrate:

    ``submit(index, attempt)``
        Dispatch one chunk attempt; returns a
        :class:`concurrent.futures.Future`.
    ``restart()``
        Tear down and replace the substrate after a crash or timeout
        (the next ``submit`` must land on a fresh pool).
    ``local_eval(index)``
        Evaluate one chunk in-process — the degraded path.
    ``extract(index, raw)`` (optional)
        Convert a future's raw result into chunk values (e.g. unwrap a
        telemetry payload); an exception here marks the result corrupt.
    ``validate(index, values)`` (optional)
        Return an error message for a corrupt result, else ``None``.
    ``observer(event, **info)`` (optional)
        Telemetry hook; events are ``"retry"`` (``chunk=``,
        ``reason=``), ``"restart"``, ``"degraded"`` (``chunk=``,
        ``reason=``) and ``"breaker_open"``.

    ``clock``/``sleep`` default to the real monotonic clock and are
    injectable so deadline logic tests run on an artificial timeline.
    """

    def __init__(self, *, submit, restart, local_eval,
                 policy: ChunkRetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 extract=None, validate=None, observer=None,
                 clock=time.monotonic, sleep=time.sleep,
                 where: str = "engine.parallel"):
        self._policy = policy if policy is not None else DEFAULT_CHUNK_RETRY_POLICY
        self._breaker = (breaker if breaker is not None
                         else CircuitBreaker(self._policy.breaker_threshold))
        self._submit = submit
        self._restart = restart
        self._local = local_eval
        self._extract = extract
        self._validate = validate
        self._observer = observer
        self._clock = clock
        self._sleep = sleep
        self._where = where

    def _note(self, event: str, **info) -> None:
        if self._observer is not None:
            self._observer(event, **info)

    def run(self, indices, *, allow_degraded: bool = False,
            preloaded: dict | None = None, on_result=None):
        """Supervise ``indices`` to completion; ``(results, report)``.

        ``results`` maps every chunk index to its values. Chunks found
        in ``preloaded`` are taken as-is (checkpoint resume) and never
        dispatched. ``on_result(index, values)`` fires for every chunk
        completed *by this run* (pool or degraded — not preloaded), in
        completion order: the checkpoint-persistence hook.

        When a chunk exhausts its retry budget — or the circuit
        breaker opens — the run either degrades the unfinished chunks
        to ``local_eval`` (``allow_degraded=True``, recording a
        :class:`~repro.robust.policy.Diagnostic` per event) or raises
        :class:`~repro.errors.ExecutionError` carrying every observed
        :class:`ChunkFailure`.
        """
        indices = [int(i) for i in indices]
        preloaded = dict(preloaded or {})
        results: dict[int, object] = {}
        used_preloaded: list[int] = []
        for index in indices:
            if index in preloaded:
                results[index] = preloaded[index]
                used_preloaded.append(index)
        todo = [i for i in indices if i not in results]
        attempts = {i: 0 for i in todo}
        total_retries = 0
        cycles = 0
        retries: list[ChunkFailure] = []
        restarts = 0
        degraded: list[int] = []
        diagnostics: list[Diagnostic] = []
        pending: dict = {}      # future -> chunk index
        deadlines: dict = {}    # chunk index -> absolute deadline (or None)

        def _report() -> SupervisionReport:
            return SupervisionReport(
                n_chunks=len(indices), retries=tuple(retries),
                restarts=restarts, degraded=tuple(sorted(degraded)),
                preloaded=tuple(sorted(used_preloaded)),
                breaker_open=self._breaker.open,
                diagnostics=tuple(diagnostics))

        def _degrade_or_raise(chunk_indices, cause: str) -> None:
            chunk_indices = sorted(set(chunk_indices))
            detail = "; ".join(str(f) for f in retries[-3:]) or "no faults logged"
            exc = ExecutionError(
                f"{self._where}: supervised execution failed ({cause}) for "
                f"chunk(s) {chunk_indices} after {len(retries)} fault(s): "
                f"{detail}", failures=tuple(retries))
            if not allow_degraded:
                raise exc
            for index in chunk_indices:
                results[index] = self._local(index)
                degraded.append(index)
                self._note("degraded", chunk=index, reason=cause)
                if on_result is not None:
                    on_result(index, results[index])
            diagnostics.append(Diagnostic.from_exception(
                exc, where=self._where, parameter="chunks",
                value=tuple(chunk_indices)))

        def _dispatch(chunk_indices) -> None:
            now = self._clock()
            for index in chunk_indices:
                future = self._submit(index, attempts[index])
                pending[future] = index
                deadlines[index] = (None if self._policy.deadline_s is None
                                    else now + self._policy.deadline_s)

        if self._breaker.open and todo:
            # The pool already lost its credit in an earlier run: no probe.
            _degrade_or_raise(todo, "breaker-open")
            return results, _report()

        _dispatch(todo)

        while pending:
            wait_timeout = None
            armed = [deadlines[i] for i in pending.values()
                     if deadlines[i] is not None]
            if armed:
                wait_timeout = max(0.0, min(armed) - self._clock())
            done, _ = wait(set(pending), timeout=wait_timeout,
                           return_when=FIRST_COMPLETED)
            crash_faults: dict[int, str] = {}
            corrupt_faults: dict[int, str] = {}
            for future in done:
                index = pending.pop(future)
                deadlines.pop(index, None)
                try:
                    raw = future.result()
                except BrokenExecutor as exc:
                    crash_faults[index] = (str(exc)
                                           or type(exc).__name__)
                    continue
                except OSError as exc:
                    # Pipe/queue teardown racing a dying pool.
                    crash_faults[index] = f"{type(exc).__name__}: {exc}"
                    continue
                try:
                    values = (self._extract(index, raw)
                              if self._extract is not None else raw)
                except Exception as exc:  # lint: disable=ERR002
                    # Deliberate swallow: whatever the decode raised, the
                    # chunk result is corrupt — it becomes a retried fault,
                    # never a silent success.
                    corrupt_faults[index] = (
                        f"result decode failed: {type(exc).__name__}: {exc}")
                    continue
                message = (self._validate(index, values)
                           if self._validate is not None else None)
                if message is not None:
                    corrupt_faults[index] = message
                    continue
                results[index] = values
                if on_result is not None:
                    on_result(index, values)
            now = self._clock()
            timeout_faults: dict[int, str] = {}
            for future, index in list(pending.items()):
                deadline = deadlines.get(index)
                if deadline is not None and now >= deadline:
                    timeout_faults[index] = (
                        f"chunk {index} exceeded its "
                        f"{self._policy.deadline_s:g}s deadline")

            if not (crash_faults or corrupt_faults or timeout_faults):
                if done:
                    self._breaker.record_success()
                continue

            # --- fault cycle -------------------------------------------
            pool_fault = bool(crash_faults or timeout_faults)
            collateral: list[int] = []
            if pool_fault:
                # The pool is broken (crash) or harbours a wedged worker
                # (timeout): every in-flight chunk must be re-dispatched
                # against a fresh pool. Chunks that did not fault keep
                # their attempt count — they are collateral, not guilty.
                for future, index in list(pending.items()):
                    future.cancel()
                    del pending[future]
                    deadlines.pop(index, None)
                    if index not in timeout_faults:
                        collateral.append(index)
                self._restart()
                restarts += 1
                self._note("restart")
            if self._breaker.record_failure():
                self._note("breaker_open")

            cycle_faults = (
                [(i, "crash", m) for i, m in sorted(crash_faults.items())]
                + [(i, "timeout", m) for i, m in sorted(timeout_faults.items())]
                + [(i, "corrupt", m) for i, m in sorted(corrupt_faults.items())])
            terminal: list[int] = []
            retry_now: list[int] = []
            for index, reason, message in cycle_faults:
                attempts[index] += 1
                total_retries += 1
                retries.append(ChunkFailure(
                    chunk=index, attempt=attempts[index], reason=reason,
                    message=message))
                self._note("retry", chunk=index, reason=reason)
                if (attempts[index] > self._policy.max_retries_per_chunk
                        or total_retries > self._policy.max_total_retries):
                    terminal.append(index)
                else:
                    retry_now.append(index)

            if self._breaker.open:
                unfinished = set(retry_now) | set(terminal) | set(collateral)
                unfinished |= set(pending.values())
                for future in list(pending):
                    future.cancel()
                pending.clear()
                _degrade_or_raise(unfinished, "breaker-open")
                break
            if terminal:
                _degrade_or_raise(terminal, "retry-budget-exhausted")
            backoff = self._policy.backoff_for(cycles)
            cycles += 1
            if backoff > 0:
                self._sleep(backoff)
            _dispatch(sorted(set(retry_now) | set(collateral)))

        return results, _report()
