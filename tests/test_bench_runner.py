"""Discovery, timing statistics, and report schema of ``repro.bench``.

Discovery runs against both the real ``benchmarks/`` directory (the
suite this gate protects) and synthetic tmp-path bench modules; timing
tests inject a fake timer so the statistics are exact.
"""

from __future__ import annotations

import math
import textwrap

import pytest

from repro.bench import (
    SCHEMA_ID,
    BenchCase,
    BenchResult,
    default_bench_dir,
    discover,
    load_report,
    make_report,
    run_case,
    run_suite,
    validate_report,
    write_report,
)
from repro.errors import DataError, DomainError
from repro.obs.history import run_environment


# -- discovery ---------------------------------------------------------

def test_discover_real_benchmarks_dir():
    cases = discover()
    names = [c.name for c in cases]
    assert len(cases) >= 14
    assert names == sorted(names)
    assert "figure4" in names
    assert "table_a1" in names
    assert "obs_overhead" in names
    assert all(callable(c.func) for c in cases)


def test_discover_filter_substring():
    cases = discover(filter_substring="figure")
    assert {c.name for c in cases} == {"figure1", "figure2", "figure3",
                                       "figure4"}


def test_discover_synthetic_dir(tmp_path):
    (tmp_path / "bench_alpha.py").write_text(textwrap.dedent("""
        def regenerate_alpha():
            return 1
    """))
    (tmp_path / "bench_multi.py").write_text(textwrap.dedent("""
        def regenerate_first():
            return 1

        def regenerate_second():
            return 2

        def helper():
            return 0
    """))
    cases = discover(tmp_path)
    assert [c.name for c in cases] == ["alpha", "multi:first", "multi:second"]


def test_discover_errors(tmp_path):
    with pytest.raises(DataError):
        discover(tmp_path / "nowhere")
    with pytest.raises(DataError):
        discover(tmp_path)  # exists but holds no bench modules
    (tmp_path / "bench_broken.py").write_text("import does_not_exist_xyz\n")
    with pytest.raises(DataError):
        discover(tmp_path)


def test_default_bench_dir_is_the_repo_benchmarks():
    assert default_bench_dir().name == "benchmarks"
    assert (default_bench_dir() / "bench_figure4.py").exists()


# -- timing statistics -------------------------------------------------

def test_bench_result_statistics_golden():
    result = BenchResult(name="g", times=(0.010, 0.013, 0.011, 0.030, 0.012))
    assert result.min == 0.010
    assert result.median == 0.012
    # MAD around the median 0.012: |devs| = (2,1,1,18,0) ms -> median 1 ms
    assert result.mad == pytest.approx(0.001)
    assert result.to_row() == {
        "min": 0.010, "median": 0.012,
        "mad": pytest.approx(0.001), "repeats": 5,
    }


def test_run_case_with_fake_timer_counts_warmup_and_repeats():
    calls = []
    ticks = iter(range(100))

    case = BenchCase(name="fake", path=None,
                     func=lambda: calls.append(1))
    result = run_case(case, repeats=3, warmup=2,
                      timer=lambda: float(next(ticks)))
    assert len(calls) == 5  # 2 warmup + 3 timed
    assert result.times == (1.0, 1.0, 1.0)  # consecutive fake ticks
    assert result.mad == 0.0


def test_run_case_validates_arguments():
    case = BenchCase(name="x", path=None, func=lambda: None)
    with pytest.raises(DomainError):
        run_case(case, repeats=0)
    with pytest.raises(DomainError):
        run_case(case, warmup=-1)


def test_run_suite_progress_callback():
    seen = []
    cases = [BenchCase(name=n, path=None, func=lambda: None)
             for n in ("a", "b")]
    results = run_suite(cases, repeats=2, warmup=0, progress=seen.append)
    assert [r.name for r in results] == ["a", "b"]
    assert seen == results


# -- report schema -----------------------------------------------------

def report_of(**benches) -> dict:
    return make_report(benches, repeats=5, warmup=1)


def test_make_report_shape_and_environment():
    doc = report_of(beta={"min": 0.1, "median": 0.11, "mad": 0.001,
                          "repeats": 5},
                    alpha={"min": 0.2, "median": 0.21, "mad": 0.002,
                           "repeats": 5})
    assert doc["schema"] == SCHEMA_ID
    assert list(doc["benches"]) == ["alpha", "beta"]  # name-sorted
    assert doc["repeats"] == 5 and doc["warmup"] == 1
    env = doc["environment"]
    assert set(env) >= {"git_sha", "python", "platform"}
    assert env == run_environment()
    validate_report(doc, where="fresh report")


def test_report_roundtrip_via_file(tmp_path):
    doc = report_of(alpha={"min": 0.1, "median": 0.11, "mad": 0.0,
                           "repeats": 3})
    path = tmp_path / "out" / "report.json"
    write_report(path, doc)
    assert load_report(path) == doc


def test_validate_report_rejects_malformed():
    good_row = {"min": 0.1, "median": 0.11, "mad": 0.0, "repeats": 3}
    with pytest.raises(DataError):
        validate_report({"schema": "other/1", "benches": {}}, where="t")
    with pytest.raises(DataError):
        validate_report({"schema": SCHEMA_ID}, where="t")
    doc = report_of(alpha=good_row)
    doc["benches"]["alpha"] = {"min": 0.1}  # missing keys
    with pytest.raises(DataError):
        validate_report(doc, where="t")
    with pytest.raises(DataError):
        make_report({"alpha": {"min": 0.1, "median": math.nan,
                               "mad": 0.0, "repeats": 3}},
                    repeats=3, warmup=0)


def test_load_report_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_report(tmp_path / "absent.json")
