"""The HTTP workload: a ``repro.serve`` server and a closed-loop client.

Timed runs start ``python -m repro.serve`` in its own process, exactly
as a deployment would. Traced runs start the server in-process through
``repro.serve.start_server`` (inside ``repro.obs.enabled()``, as the
CLI does) so the span hooks see the server's calls.
"""

from __future__ import annotations

import http.client
import os
import re
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

from . import hooks

#: Seconds a spawned server gets to answer ``/healthz``.
STARTUP_TIMEOUT_S = 60.0
#: Client socket timeout per request.
REQUEST_TIMEOUT_S = 30.0


def post(host: str, port: int, path: str, body: bytes,
         headers: dict | None = None) -> tuple[int, bytes]:
    """One request on a new connection; returns ``(status, body)``."""
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("POST", path, body, {"Content-Type": "application/json",
                                          **(headers or {})})
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()


def _healthz(host: str, port: int) -> int:
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", "/healthz")
        reply = conn.getresponse()
        reply.read()
        return reply.status
    finally:
        conn.close()


def program_env(root) -> dict:
    """Environment for a child interpreter running the program from
    ``root/src``, with run-history recording off."""
    env = dict(os.environ)
    env.pop("REPRO_HISTORY", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


class ServerProcess:
    """``python -m repro.serve`` on an ephemeral port, in its own process."""

    def __init__(self, root) -> None:
        start = time.perf_counter()
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--history="],
            cwd=root, env=program_env(root), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            self.host, self.port = self._await_ready(start)
        except BaseException:
            self.stop()
            raise
        #: Seconds from spawning the process to the first 200 from
        #: ``/healthz``.
        self.setup_s = time.perf_counter() - start

    def _await_ready(self, start: float) -> tuple[str, int]:
        deadline = start + STARTUP_TIMEOUT_S
        ready, _, _ = select.select([self._proc.stdout], [], [],
                                    max(0.0, deadline - time.perf_counter()))
        line = self._proc.stdout.readline() if ready else ""
        match = re.search(r"listening on (http://\S+)", line)
        if match is None:
            raise RuntimeError(f"repro.serve did not start: {line!r}")
        url = urlsplit(match.group(1))
        while True:
            try:
                if _healthz(url.hostname, url.port) == 200:
                    return url.hostname, url.port
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("repro.serve never answered /healthz")
            time.sleep(0.001)

    def stop(self) -> None:
        """Terminate the server and wait for the process to end.

        SIGTERM, not the CLI's graceful SIGINT: the server keeps no
        state worth flushing (history recording is off), and the
        graceful path idles up to 0.7 s in poll intervals.
        """
        if self._proc.poll() is None:
            self._proc.terminate()
        try:
            self._proc.communicate(timeout=10.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()


@dataclass
class Sent:
    """One request as sent and answered; ``end`` is the
    ``perf_counter`` reading when the answer was read."""

    request: object
    status: int
    body: bytes
    seconds: float
    end: float


def send_all(requests, send) -> list[Sent]:
    """Send ``requests`` one after another (warm-up)."""
    out = []
    for request in requests:
        start = time.perf_counter()
        status, body = send(request)
        end = time.perf_counter()
        out.append(Sent(request, status, body, end - start, end))
    return out


def closed_loop(stream, send, clients: int, seconds: float):
    """``clients`` threads each send their next request as soon as the
    previous one is answered, until ``seconds`` have passed.

    Requests are taken from ``stream`` in order under a lock, so the
    sequence sent is the seed's sequence whichever thread sends what.
    Requests in flight at the deadline complete and count. Returns
    ``(records, start, end)`` with ``perf_counter`` readings.
    """
    lock = threading.Lock()
    records: list[Sent] = []
    start = time.perf_counter()
    deadline = start + seconds

    def client() -> None:
        while time.perf_counter() < deadline:
            with lock:
                request = next(stream)
            begin = time.perf_counter()
            try:
                status, body = send(request)
            except (OSError, http.client.HTTPException) as exc:
                status, body = 0, repr(exc).encode("utf-8")
            end = time.perf_counter()
            records.append(Sent(request, status, body, end - begin, end))

    threads = [threading.Thread(target=client, name=f"bench-client-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish")
    return records, start, time.perf_counter()


def sender(host: str, port: int, path: str, recorder=None):
    """A ``send(request)`` for the loop; with a ``recorder``, each
    request is one traced operation whose id travels in a header."""
    if recorder is None:
        return lambda request: post(host, port, path, request.body)

    def traced(request):
        with recorder.operation("serve.app") as op:
            return post(host, port, path, request.body,
                        {hooks.OP_HEADER: str(op)})

    return traced
