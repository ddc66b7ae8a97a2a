"""Guard: disabled instrumentation must cost (almost) nothing.

Compares a traced entry point against its unwrapped original
(``__wrapped__``) with tracing globally off. The decorator's disabled
path is a single module-attribute load plus one branch, so the traced
call should be within a few percent of the bare call.

Shared CI boxes drift, so bare and traced repeats are interleaved (drift
hits both series equally) and min-of-repeats is used as the noise-floor
estimate for each. The test skips itself when the bare series cannot
even reproduce its own baseline between its first and second half.
"""

import timeit

import pytest

from repro import obs
from repro.cost import PAPER_FIGURE4_MODEL
from repro.optimize import sd_sweep

#: Maximum tolerated relative overhead of the disabled-tracing path.
MAX_OVERHEAD = 0.05
#: Baseline jitter above which the measurement is declared meaningless.
MAX_NOISE = 0.10
#: Interleaved (bare, traced) measurement pairs / calls per measurement.
REPEATS = 10
CALLS = 30


@pytest.fixture(autouse=True)
def tracing_off():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def test_disabled_tracing_overhead_under_five_percent():
    bare = sd_sweep.__wrapped__

    def run_traced():
        sd_sweep(PAPER_FIGURE4_MODEL, 1e7, 0.18, 5000.0, 0.4, 8.0)

    def run_bare():
        bare(PAPER_FIGURE4_MODEL, 1e7, 0.18, 5000.0, 0.4, 8.0)

    # Warm caches before measuring anything.
    run_traced()
    run_bare()

    bare_times: list[float] = []
    traced_times: list[float] = []
    for _ in range(REPEATS):
        bare_times.append(timeit.timeit(run_bare, number=CALLS))
        traced_times.append(timeit.timeit(run_traced, number=CALLS))

    half = REPEATS // 2
    noise = (abs(min(bare_times[:half]) - min(bare_times[half:]))
             / min(bare_times))
    if noise > MAX_NOISE:
        pytest.skip(f"timing too noisy to judge overhead ({noise:.1%} jitter)")

    overhead = min(traced_times) / min(bare_times) - 1.0
    assert overhead < MAX_OVERHEAD, (
        f"disabled tracing costs {overhead:.1%} "
        f"(traced {min(traced_times):.4f}s vs bare {min(bare_times):.4f}s)")


def test_disabled_observe_is_guard_only():
    """``observe`` while disabled must be one global check.

    Same interleaved min-of-repeats protocol as above, compared against
    a same-shape no-op call; the generous 3x bound only trips if the
    guard pattern breaks (e.g. the sketch is created before the check).
    """

    def noop(name, value, labels=None):
        return None

    def run_observed():
        for _ in range(500):
            obs.observe("overhead_probe", 1e-3)

    def run_noop():
        for _ in range(500):
            noop("overhead_probe", 1e-3)

    run_observed()
    run_noop()

    noop_times: list[float] = []
    observed_times: list[float] = []
    for _ in range(REPEATS):
        noop_times.append(timeit.timeit(run_noop, number=5))
        observed_times.append(timeit.timeit(run_observed, number=5))

    half = REPEATS // 2
    noise = (abs(min(noop_times[:half]) - min(noop_times[half:]))
             / min(noop_times))
    if noise > 0.5:
        pytest.skip(f"timing too noisy to judge overhead ({noise:.1%} jitter)")

    ratio = min(observed_times) / min(noop_times)
    assert ratio < 3.0, (
        f"disabled observe costs {ratio:.2f}x a no-op call")
    # And nothing must have been recorded while disabled.
    assert obs.get_registry().is_empty()
