"""Shared fixtures for the benchmark/reproduction harness.

Each bench regenerates one paper artifact (table or figure), asserts
its shape, and writes the regenerated rows/series to
``benchmarks/output/<name>.txt`` so the numbers behind EXPERIMENTS.md
are inspectable without re-running anything.

The harness also times every bench with the monotonic
:class:`repro.obs.Stopwatch` and, at session end, writes the wall
times to ``benchmarks/output/bench_report.json`` — the
schema-versioned ``repro-bench/1`` document (schema id, git SHA,
python version, repeat count) that ``python -m repro.bench --compare``
understands.

The pytest harness measures each bench once (``repeats = 1``, so MAD
is 0); the statistical trajectory with warmup and repeats comes from
``python -m repro.bench``.
"""

import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.obs import Stopwatch  # noqa: E402  (needs the sys.path bootstrap)
from repro.bench import make_report, write_report  # noqa: E402

OUTPUT_DIR = Path(__file__).resolve().parent / "output"

#: Per-test wall times (seconds), filled as the session runs.
_BENCH_TIMES: dict[str, float] = {}


@pytest.fixture(scope="session")
def output_dir() -> Path:
    """Directory collecting the regenerated tables/series."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture()
def save_artifact(output_dir):
    """Callable writing a named artifact and echoing it to stdout."""

    def _save(name: str, text: str) -> None:
        path = output_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n[{name}] -> {path}\n{text}")

    return _save


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Time each bench body (call phase only, setup/teardown excluded)."""
    stopwatch = Stopwatch().start()
    yield
    _BENCH_TIMES[item.nodeid.split("::", 1)[-1]] = stopwatch.stop()


def pytest_sessionfinish(session):
    """Dump the collected wall times as a schema report."""
    if not _BENCH_TIMES:
        return
    OUTPUT_DIR.mkdir(exist_ok=True)
    benches = {
        name: {"min": seconds, "median": seconds, "mad": 0.0, "repeats": 1}
        for name, seconds in _BENCH_TIMES.items()
    }
    write_report(OUTPUT_DIR / "bench_report.json",
                 make_report(benches, repeats=1, warmup=0))
