"""Verdict logic and end-to-end exit codes of the perf-regression gate.

``compare_reports`` gets synthetic-report golden tests for every
verdict; the CLI gets a tmp-path bench suite whose speed is controlled
through an environment variable, so a 10x fault-injected slowdown must
flip the exit code from 0 to 1.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import (
    IMPROVEMENT,
    MISSING,
    NEW,
    REGRESSION,
    WITHIN_NOISE,
    compare_reports,
    make_report,
)
from repro.bench.cli import main
from repro.errors import DomainError
from repro.obs.history import noise_band

ENV = {"git_sha": "test", "python": "3.x", "platform": "test"}


def report(**medians) -> dict:
    """A report whose benches all have tiny MAD (noise band = min_rel)."""
    benches = {
        name: {"min": median * 0.98, "median": median,
               "mad": median * 0.001, "repeats": 5}
        for name, median in medians.items()
    }
    return make_report(benches, repeats=5, warmup=1, environment=ENV,
                       generated="2026-08-06T00:00:00Z")


# -- verdicts ----------------------------------------------------------

def test_verdict_regression_improvement_within_noise():
    base = report(slow=0.100, fast=0.100, same=0.100)
    cur = report(slow=0.150, fast=0.050, same=0.105)
    comparison = compare_reports(base, cur)
    status = {v.name: v.status for v in comparison.verdicts}
    assert status == {"slow": REGRESSION, "fast": IMPROVEMENT,
                      "same": WITHIN_NOISE}
    assert not comparison.ok
    assert [v.name for v in comparison.regressions] == ["slow"]
    assert comparison.counts()[REGRESSION] == 1


def test_verdict_tenfold_regression_is_unambiguous():
    comparison = compare_reports(report(bench=0.010), report(bench=0.100))
    (verdict,) = comparison.verdicts
    assert verdict.status == REGRESSION
    assert verdict.ratio == pytest.approx(10.0)
    assert "10.00x" in verdict.describe()


def test_noisy_bench_widens_its_band():
    # A 40% swing with a huge MAD is noise, not regression.
    base = report(jittery=0.100)
    base["benches"]["jittery"]["mad"] = 0.020  # 3*1.4826*0.2 ≈ ±59%
    cur = report(jittery=0.140)
    (verdict,) = compare_reports(base, cur).verdicts
    assert verdict.status == WITHIN_NOISE
    assert verdict.threshold > 0.5


def test_new_and_missing_never_fail_the_gate():
    comparison = compare_reports(report(old=0.1), report(fresh=0.1))
    status = {v.name: v.status for v in comparison.verdicts}
    assert status == {"old": MISSING, "fresh": NEW}
    assert comparison.ok
    assert math.isnan(comparison.verdicts[0].ratio)
    text = comparison.format()
    assert "gate: ok" in text and "missing" in text and "new" in text


def test_compare_parameters_validated():
    with pytest.raises(DomainError):
        compare_reports(report(a=0.1), report(a=0.1), min_rel=-0.1)
    with pytest.raises(DomainError):
        compare_reports(report(a=0.1), report(a=0.1), mad_scale=0.0)


# -- the shared noise band ---------------------------------------------

_POSITIVE = st.floats(min_value=1e-12, max_value=1e6, allow_nan=False,
                      allow_infinity=False)
_MAD = st.floats(min_value=0.0, max_value=1e3, allow_nan=False,
                 allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(median=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
       base_median=_POSITIVE, mad=_MAD,
       min_rel=st.floats(min_value=0.0, max_value=9.99),
       mad_scale=st.floats(min_value=1e-3, max_value=10.0),
       min_abs=st.floats(min_value=0.0, max_value=1.0))
def test_noise_band_equals_both_former_band_formulas(
        median, base_median, mad, min_rel, mad_scale, min_abs):
    # Oracle 1: the run-history drift band, as detect_drift computed it.
    drift_band = max(min_rel * abs(median), float(min_abs),
                     mad_scale * 1.4826 * mad)
    assert noise_band(median, mad, min_rel=min_rel, mad_scale=mad_scale,
                      min_abs=min_abs) == drift_band
    # Oracle 2: the bench gate's relative threshold, as compare computed it.
    denom = max(base_median, 1e-9)
    gate_threshold = max(min_rel, mad_scale * 1.4826 * mad / denom)
    threshold = noise_band(1.0, mad / denom, min_rel=min_rel,
                           mad_scale=mad_scale, min_abs=0.0)
    assert threshold == pytest.approx(gate_threshold, rel=1e-12)
    if min_rel > mad_scale * 1.4826 * mad / denom * (1 + 1e-9):
        assert threshold == gate_threshold  # the floor is reproduced exactly
    # compare_reports reports exactly the band it judged against.
    row = {"min": base_median, "median": base_median, "mad": mad,
           "repeats": 5}
    doc = make_report({"b": row}, repeats=5, warmup=1, environment=ENV,
                      generated="2026-08-06T00:00:00Z")
    (verdict,) = compare_reports(doc, doc, min_rel=min_rel,
                                 mad_scale=mad_scale).verdicts
    assert verdict.threshold == threshold


#: Per-bench verdicts of the committed baseline against itself with every
#: median scaled by the key, pinned from the gate before it shared
#: ``noise_band`` with the drift detector (unlisted benches: within-noise).
_REPLAY_VERDICTS = {
    0.5: {IMPROVEMENT: {
        "ablation_designcost", "ablation_node", "ablation_regularity",
        "ablation_scenarios", "ablation_ttm", "ablation_utilization",
        "ablation_yield", "engine", "figure1", "figure2", "figure4",
        "obs_overhead", "serve", "supervision", "table_a1",
        "validation_yield"}},
    0.79: {IMPROVEMENT: {
        "ablation_node", "ablation_regularity", "ablation_ttm",
        "ablation_utilization", "engine", "figure1", "figure2",
        "obs_overhead", "serve", "supervision", "table_a1"}},
    0.81: {},
    1.19: {},
    1.21: {REGRESSION: {
        "ablation_node", "ablation_regularity", "ablation_ttm",
        "ablation_utilization", "engine", "figure1", "figure2",
        "obs_overhead", "serve", "supervision", "table_a1"}},
    2.0: {REGRESSION: {
        "ablation_designcost", "ablation_node", "ablation_regularity",
        "ablation_scenarios", "ablation_ttm", "ablation_utilization",
        "ablation_yield", "engine", "figure1", "figure2", "figure3",
        "figure4", "obs_overhead", "serve", "supervision", "table_a1",
        "validation_yield"}},
}


@pytest.mark.parametrize("factor", sorted(_REPLAY_VERDICTS))
def test_baseline_replay_verdicts_are_pinned(factor):
    baseline_path = Path(__file__).resolve().parent.parent / \
        "benchmarks" / "baseline.json"
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    current = copy.deepcopy(baseline)
    for row in current["benches"].values():
        row["median"] *= factor
    status = {v.name: v.status
              for v in compare_reports(baseline, current).verdicts}
    assert len(status) == 18
    expected = {name: WITHIN_NOISE for name in status}
    for verdict, names in _REPLAY_VERDICTS[factor].items():
        expected.update(dict.fromkeys(names, verdict))
    assert status == expected


def test_format_marks_failures():
    text = compare_reports(report(bench=0.01), report(bench=0.1)).format()
    assert "gate: FAIL" in text
    assert "regression" in text


# -- CLI end-to-end ----------------------------------------------------

BENCH_SOURCE = '''
"""Synthetic bench whose cost is set by REPRO_TEST_BENCH_COST_MS."""

import os
import time


def regenerate_sleepy():
    time.sleep(float(os.environ.get("REPRO_TEST_BENCH_COST_MS", "2")) / 1e3)
    return 1
'''


@pytest.fixture()
def bench_dir(tmp_path):
    (tmp_path / "bench_sleepy.py").write_text(BENCH_SOURCE)
    return tmp_path


def run_cli(bench_dir, *extra: str) -> int:
    return main(["--bench-dir", str(bench_dir), "--repeats", "3",
                 "--warmup", "0", "--quiet", *extra])


def test_cli_first_run_writes_baseline_then_compares_clean(
        bench_dir, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_TEST_BENCH_COST_MS", "5")
    assert run_cli(bench_dir) == 0
    baseline = bench_dir / "baseline.json"
    assert baseline.exists()
    assert list((bench_dir / "output").glob("BENCH_*.json"))

    # Same cost again: the gate passes.
    assert run_cli(bench_dir, "--compare", str(baseline)) == 0
    out = capsys.readouterr().out
    assert "gate: ok" in out


def test_cli_detects_injected_tenfold_slowdown(bench_dir, monkeypatch,
                                               capsys):
    monkeypatch.setenv("REPRO_TEST_BENCH_COST_MS", "5")
    assert run_cli(bench_dir) == 0

    # Fault injection: the same bench now takes 10x longer.
    monkeypatch.setenv("REPRO_TEST_BENCH_COST_MS", "50")
    code = run_cli(bench_dir, "--compare", str(bench_dir / "baseline.json"))
    assert code == 1
    captured = capsys.readouterr()
    assert "gate: FAIL" in captured.out
    assert "regression: sleepy" in captured.err


def test_cli_update_baseline_accepts_new_cost(bench_dir, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_BENCH_COST_MS", "5")
    assert run_cli(bench_dir) == 0
    monkeypatch.setenv("REPRO_TEST_BENCH_COST_MS", "50")
    assert run_cli(bench_dir, "--update-baseline") == 0
    # The rebaselined cost is now the reference: same speed passes.
    assert run_cli(bench_dir, "--compare",
                   str(bench_dir / "baseline.json")) == 0


def test_cli_errors_exit_2(tmp_path, capsys):
    assert main(["--bench-dir", str(tmp_path / "nowhere"), "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err

    (tmp_path / "bench_ok.py").write_text(
        "def regenerate_ok():\n    return 1\n")
    bad_baseline = tmp_path / "corrupt.json"
    bad_baseline.write_text("{not json")
    assert main(["--bench-dir", str(tmp_path), "--repeats", "1",
                 "--warmup", "0", "--quiet",
                 "--compare", str(bad_baseline)]) == 2
    assert "error:" in capsys.readouterr().err
