"""Engine parity: batched evaluation must reproduce the scalar loops.

The reproduction contract of :mod:`repro.engine` is numerical and
behavioural identity with the per-point loops it replaced: same values
(to <=1e-12 relative), same diagnostics under MASK/COLLECT, same
results from the chunked pool path. ``kernel.point`` is the scalar
reference every batch result is held to.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import DEFAULT_GENERALIZED_MODEL, PAPER_FIGURE4_MODEL
from repro.data import DesignRegistry, load_itrs_1999
from repro.engine import (
    cache_stats,
    clear_cache,
    configure_parallel,
    evaluate_grid,
    parallel_settings,
)
from repro.engine import parallel as engine_parallel
from repro.engine.kernels import (
    DesignObjectivesKernel,
    Eq4SdKernel,
    Eq4VolumeKernel,
    Eq7SdKernel,
    OperatingPointsKernel,
)
from repro.errors import CollectedErrors
from repro.optimize import sd_grid
from repro.robust import DiagnosticLog, ErrorPolicy

FIG4A = dict(n_transistors=1e7, feature_um=0.18, n_wafers=5_000,
             yield_fraction=0.4, cost_per_cm2=8.0)

_SD0 = PAPER_FIGURE4_MODEL.design_model.sd0

#: Real-data grids: Table-A1 logic densities and ITRS-implied densities.
TABLE_A1_SD = np.asarray(
    sorted(sd for sd in DesignRegistry.table_a1().sd_logic_values()
           if sd > _SD0), dtype=float)
ITRS_SD = np.asarray(
    sorted(node.implied_sd() for node in load_itrs_1999()), dtype=float)
GRIDS = {
    "table_a1": TABLE_A1_SD,
    "itrs": ITRS_SD,
    "figure4": sd_grid(_SD0, sd_max=1200.0, n=120),
}


def max_relative_error(values, reference):
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(np.asarray(values) - reference)
                        / np.abs(reference)))


def scalar_reference(kernel, grid):
    return np.array([kernel.point(float(x)) for x in grid], dtype=float).T


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestBatchScalarParity:
    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    def test_eq4_matches_scalar(self, grid_name):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = GRIDS[grid_name]
        evaluation = evaluate_grid(kernel, grid, where="test.parity",
                                   equation="4", parameter="sd", cache=False)
        assert evaluation.backend == "numpy"
        assert max_relative_error(
            evaluation.values, scalar_reference(kernel, grid)) <= 1e-12

    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    def test_eq7_matches_scalar(self, grid_name):
        kernel = Eq7SdKernel(DEFAULT_GENERALIZED_MODEL, n_transistors=1e7,
                             feature_um=0.18, n_wafers=5_000)
        grid = GRIDS[grid_name]
        evaluation = evaluate_grid(kernel, grid, where="test.parity",
                                   equation="7", parameter="sd", cache=False)
        assert max_relative_error(
            evaluation.values, scalar_reference(kernel, grid)) <= 1e-12

    def test_volume_kernel_matches_scalar(self):
        kernel = Eq4VolumeKernel(PAPER_FIGURE4_MODEL, sd=300.0,
                                 n_transistors=1e7, feature_um=0.18,
                                 yield_fraction=0.4, cost_per_cm2=8.0)
        grid = np.geomspace(1e2, 5e5, 80)
        evaluation = evaluate_grid(kernel, grid, where="test.parity",
                                   equation="4", parameter="n_wafers",
                                   cache=False)
        assert max_relative_error(
            evaluation.values, scalar_reference(kernel, grid)) <= 1e-12

    def test_objectives_kernel_matches_scalar_rows(self):
        kernel = DesignObjectivesKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = GRIDS["figure4"]
        evaluation = evaluate_grid(kernel, grid, where="test.parity",
                                   equation="4", parameter="sd", cache=False)
        assert evaluation.values.shape == (3, grid.size)
        assert max_relative_error(
            evaluation.values, scalar_reference(kernel, grid)) <= 1e-12


#: Hypothesis draw ranges. ``s_d`` spans the Table-A1 and ITRS grids;
#: the operating point spans Table-A1 and ITRS feature sizes and
#: paper-era volumes, yields and $/cm².
_SD_LO = float(min(TABLE_A1_SD.min(), ITRS_SD.min()))
_SD_HI = float(max(TABLE_A1_SD.max(), ITRS_SD.max()))
feasible_sds = st.floats(min_value=_SD_LO, max_value=_SD_HI)
infeasible_sds = st.floats(min_value=1.0, max_value=_SD0)
any_sds = st.one_of(feasible_sds, infeasible_sds)
operating_points = st.fixed_dictionaries({
    "n_transistors": st.floats(min_value=1e5, max_value=2e9),
    "feature_um": st.floats(min_value=0.035, max_value=1.5),
    "n_wafers": st.floats(min_value=100.0, max_value=1e6),
    "yield_fraction": st.floats(min_value=0.05, max_value=1.0),
    "cost_per_cm2": st.floats(min_value=1.0, max_value=50.0),
})


def _draw_case(draw, kernel_name, sd):
    """One kernel plus a grid of its swept parameter; ``sd`` draws s_d."""
    op = draw(operating_points)
    sd_grids = st.lists(sd, min_size=1, max_size=12)
    if kernel_name == "eq4_sd":
        return Eq4SdKernel(PAPER_FIGURE4_MODEL, **op), draw(sd_grids)
    if kernel_name == "objectives":
        return DesignObjectivesKernel(PAPER_FIGURE4_MODEL, **op), draw(sd_grids)
    if kernel_name == "eq7_sd":
        kernel = Eq7SdKernel(
            DEFAULT_GENERALIZED_MODEL, n_transistors=op["n_transistors"],
            feature_um=op["feature_um"], n_wafers=op["n_wafers"],
            maturity=draw(st.floats(min_value=0.05, max_value=1.0)))
        return kernel, draw(sd_grids)
    if kernel_name == "eq4_volume":
        volumes = st.floats(min_value=100.0, max_value=1e6)
        op.pop("n_wafers")
        kernel = Eq4VolumeKernel(PAPER_FIGURE4_MODEL, sd=draw(sd), **op)
        return kernel, draw(st.lists(volumes, min_size=1, max_size=12))
    rows = draw(st.lists(st.tuples(sd, operating_points),
                         min_size=1, max_size=12))
    columns = {name: np.array([row[name] for _, row in rows])
               for name in rows[0][1]}
    kernel = OperatingPointsKernel(
        PAPER_FIGURE4_MODEL, sd=np.array([x for x, _ in rows]), **columns)
    return kernel, list(range(len(rows)))


KERNEL_NAMES = ("eq4_sd", "eq7_sd", "eq4_volume", "objectives",
                "operating_points")


def per_point_loop(kernel, grid, where, equation, parameter):
    """The per-point MASK loop: ``kernel.point`` with diagnostic capture."""
    log = DiagnosticLog(ErrorPolicy.MASK, where, equation=equation)
    results = []
    for i, x in enumerate(grid):
        try:
            results.append(kernel.point(float(x)))
        except Exception as exc:  # noqa: BLE001 — capture() re-raises non-ReproError
            if not log.capture(exc, parameter=parameter, value=float(x),
                               index=i):
                raise
            results.append(np.full(kernel.n_outputs, np.nan)
                           if kernel.n_outputs > 1 else np.nan)
    return np.array(results, dtype=float).T, log.finish()


def assert_close_where_finite(values, reference):
    values = np.asarray(values, dtype=float)
    np.testing.assert_array_equal(np.isnan(values), np.isnan(reference))
    finite = ~np.isnan(reference)
    if finite.any():
        assert max_relative_error(values[finite], reference[finite]) <= 1e-12


@pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
class TestScalarBatchProperty:
    """Batch vs ``kernel.point`` agreement as a property, per kernel."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_batch_matches_point(self, kernel_name, data):
        kernel, grid = _draw_case(data.draw, kernel_name, feasible_sds)
        evaluation = evaluate_grid(kernel, grid, where="test.property",
                                   cache=False)
        assert evaluation.backend == "numpy"
        assert max_relative_error(
            evaluation.values, scalar_reference(kernel, grid)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mask_diagnostics_match_per_point_loop(self, kernel_name, data):
        kernel, grid = _draw_case(data.draw, kernel_name, any_sds)
        evaluation = evaluate_grid(kernel, grid, policy=ErrorPolicy.MASK,
                                   where="test.property", equation="4",
                                   parameter="x", cache=False)
        reference, diagnostics = per_point_loop(kernel, grid, "test.property",
                                                "4", "x")
        assert_close_where_finite(evaluation.values, reference)
        assert ([str(d) for d in evaluation.diagnostics]
                == [str(d) for d in diagnostics])


class TestMaskCollect:
    def test_mask_nans_infeasible_points_in_order(self):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = np.array([50.0, 300.0, 400.0, 60.0])
        evaluation = evaluate_grid(kernel, grid, policy=ErrorPolicy.MASK,
                                   where="test.parity", equation="4",
                                   parameter="sd", cache=False)
        assert np.isnan(evaluation.values[[0, 3]]).all()
        assert np.isfinite(evaluation.values[[1, 2]]).all()
        assert [d.index for d in evaluation.diagnostics] == [0, 3]
        assert all(d.where == "test.parity" for d in evaluation.diagnostics)

    def test_mask_values_match_scalar_on_feasible_points(self):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = np.array([50.0, 300.0, 400.0])
        evaluation = evaluate_grid(kernel, grid, policy=ErrorPolicy.MASK,
                                   where="test.parity", cache=False)
        expected = scalar_reference(kernel, grid[1:])
        assert max_relative_error(evaluation.values[1:], expected) <= 1e-12

    def test_mask_whole_batch_failure_falls_back_to_scalar_loop(self):
        # yield_fraction=0 is infeasible for every point: the batch call
        # raises and the dispatch must degrade to per-point diagnostics.
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, n_transistors=1e7,
                             feature_um=0.18, n_wafers=5_000,
                             yield_fraction=0.0, cost_per_cm2=8.0)
        grid = np.array([200.0, 300.0, 400.0])
        evaluation = evaluate_grid(kernel, grid, policy=ErrorPolicy.MASK,
                                   where="test.parity", parameter="sd",
                                   cache=False)
        assert np.isnan(evaluation.values).all()
        assert len(evaluation.diagnostics) == grid.size

    def test_collect_raises_aggregate_after_trying_everything(self):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = np.array([50.0, 300.0, 60.0])
        with pytest.raises(CollectedErrors, match=r"2 point\(s\) failed"):
            evaluate_grid(kernel, grid, policy=ErrorPolicy.COLLECT,
                          where="test.parity", parameter="sd", cache=False)


class TestCache:
    def test_identical_evaluation_hits_cache(self):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = GRIDS["figure4"]
        first = evaluate_grid(kernel, grid, where="test.cache")
        second = evaluate_grid(kernel, grid, where="test.cache")
        assert not first.cache_hit
        assert second.cache_hit
        np.testing.assert_array_equal(first.values, second.values)
        assert cache_stats().hits == 1

    def test_changed_grid_misses(self):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = GRIDS["figure4"].copy()
        evaluate_grid(kernel, grid, where="test.cache")
        grid[0] += 1e-9
        second = evaluate_grid(kernel, grid, where="test.cache")
        assert not second.cache_hit

    def test_changed_operating_point_misses(self):
        grid = GRIDS["figure4"]
        evaluate_grid(Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A), grid,
                      where="test.cache")
        other = dict(FIG4A, n_wafers=50_000)
        second = evaluate_grid(Eq4SdKernel(PAPER_FIGURE4_MODEL, **other),
                               grid, where="test.cache")
        assert not second.cache_hit

    def test_cache_false_opts_out(self):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = GRIDS["figure4"]
        evaluate_grid(kernel, grid, where="test.cache", cache=False)
        second = evaluate_grid(kernel, grid, where="test.cache", cache=False)
        assert not second.cache_hit
        stats = cache_stats()
        assert stats.hits == 0 and stats.misses == 0


class TestParallel:
    @pytest.fixture()
    def lowered_threshold(self):
        saved = parallel_settings()
        configure_parallel(threshold=1_000, max_workers=2)
        yield
        configure_parallel(threshold=saved["threshold"],
                           enabled=saved["enabled"])
        engine_parallel._max_workers = saved["max_workers"]
        engine_parallel.shutdown()

    def test_below_threshold_single_chunk(self):
        assert engine_parallel.plan_chunks(100) == 1

    def test_disabled_forces_single_chunk(self):
        saved = parallel_settings()
        configure_parallel(enabled=False)
        try:
            assert engine_parallel.plan_chunks(10_000_000) == 1
        finally:
            configure_parallel(enabled=saved["enabled"])

    def test_chunked_path_matches_single_process(self, lowered_threshold):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = np.linspace(150.0, 1200.0, 25_000)
        evaluation = evaluate_grid(kernel, grid, where="test.parallel",
                                   cache=False)
        assert evaluation.chunks > 1
        np.testing.assert_array_equal(evaluation.values, kernel.batch(grid))
