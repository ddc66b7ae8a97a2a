"""Batched kernels — adapters from the model dataclasses to grid arrays.

A *kernel* freezes one model plus its fixed operating point and knows
how to evaluate a 1-D grid of the swept parameter three ways:

* :meth:`batch` — one vectorized NumPy call over the whole grid (the
  models are already array-friendly; the kernel just pins the fixed
  arguments);
* :meth:`point` — one scalar model call, byte-identical to the legacy
  per-point loops (used for diagnostics parity under MASK/COLLECT);
* :meth:`feasible` — a cheap vectorized predicate marking grid points
  the batch call can safely include; the dispatch re-runs the rest
  through :meth:`point` so every infeasible point produces the exact
  legacy diagnostic.

:meth:`token` returns the kernel's content identity (model repr plus
fixed operating point) for the content-addressed cache. Kernels are
frozen dataclasses of frozen models, so they pickle cheaply for the
process-pool path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cost.generalized import GeneralizedCostModel
from ..cost.total import TotalCostModel
from ..density.metrics import area_from_sd

__all__ = [
    "Eq4SdKernel",
    "Eq7SdKernel",
    "Eq4VolumeKernel",
    "DesignObjectivesKernel",
    "OperatingPointsKernel",
]


def _part(value):
    """A cache-token part: numeric values hash as floats, anything else
    by repr (so a not-yet-validated garbage argument still builds a key
    and fails later in the model's own validation)."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return repr(value)


@dataclass(frozen=True, eq=False)
class Eq4SdKernel:
    """Eq. (4) total transistor cost over an ``s_d`` grid."""

    model: TotalCostModel
    n_transistors: float
    feature_um: float
    n_wafers: float
    yield_fraction: float
    cost_per_cm2: float

    #: Output rows per grid point (a plain cost curve).
    n_outputs = 1

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized eq. (4) over the grid."""
        return np.asarray(self.model.transistor_cost(
            xs, self.n_transistors, self.feature_um, self.n_wafers,
            self.yield_fraction, self.cost_per_cm2), dtype=float)

    def point(self, x: float) -> float:
        """Scalar eq. (4) — the legacy per-point path."""
        return float(self.model.transistor_cost(
            x, self.n_transistors, self.feature_um, self.n_wafers,
            self.yield_fraction, self.cost_per_cm2))

    def feasible(self, xs: np.ndarray) -> np.ndarray:
        """Points strictly above the eq.-(6) divergence at ``s_d0``."""
        return np.isfinite(xs) & (xs > self.model.design_model.sd0)

    def token(self) -> tuple:
        """Cache identity: model configuration + fixed operating point."""
        return ("Eq4SdKernel", repr(self.model), _part(self.n_transistors),
                _part(self.feature_um), _part(self.n_wafers),
                _part(self.yield_fraction), _part(self.cost_per_cm2))


@dataclass(frozen=True, eq=False)
class Eq7SdKernel:
    """Eq. (7) generalized transistor cost over an ``s_d`` grid."""

    model: GeneralizedCostModel
    n_transistors: float
    feature_um: float
    n_wafers: float
    maturity: float = 1.0

    n_outputs = 1

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized eq. (7) over the grid."""
        return np.asarray(self.model.transistor_cost(
            xs, self.n_transistors, self.feature_um, self.n_wafers,
            self.maturity), dtype=float)

    def point(self, x: float) -> float:
        """Scalar eq. (7) — the legacy per-point path."""
        return float(self.model.transistor_cost(
            x, self.n_transistors, self.feature_um, self.n_wafers,
            self.maturity))

    def feasible(self, xs: np.ndarray) -> np.ndarray:
        """Points strictly above the eq.-(6) divergence at ``s_d0``."""
        return np.isfinite(xs) & (xs > self.model.design_model.sd0)

    def token(self) -> tuple:
        """Cache identity: model configuration + fixed operating point."""
        return ("Eq7SdKernel", repr(self.model), _part(self.n_transistors),
                _part(self.feature_um), _part(self.n_wafers),
                _part(self.maturity))


@dataclass(frozen=True, eq=False)
class Eq4VolumeKernel:
    """Eq. (4) total transistor cost over a wafer-volume grid."""

    model: TotalCostModel
    sd: float
    n_transistors: float
    feature_um: float
    yield_fraction: float
    cost_per_cm2: float

    n_outputs = 1

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized eq. (4) over the volume grid."""
        return np.asarray(self.model.transistor_cost(
            self.sd, self.n_transistors, self.feature_um, xs,
            self.yield_fraction, self.cost_per_cm2), dtype=float)

    def point(self, x: float) -> float:
        """Scalar eq. (4) — the legacy per-point path."""
        return float(self.model.transistor_cost(
            self.sd, self.n_transistors, self.feature_um, x,
            self.yield_fraction, self.cost_per_cm2))

    def feasible(self, xs: np.ndarray) -> np.ndarray:
        """Volumes must be strictly positive (eq.-5 amortisation)."""
        return np.isfinite(xs) & (xs > 0)

    def token(self) -> tuple:
        """Cache identity: model configuration + fixed operating point."""
        return ("Eq4VolumeKernel", repr(self.model), _part(self.sd),
                _part(self.n_transistors), _part(self.feature_um),
                _part(self.yield_fraction), _part(self.cost_per_cm2))


@dataclass(frozen=True, eq=False)
class DesignObjectivesKernel:
    """Pareto objective vectors (area, total cost, design cost) over ``s_d``.

    Three output rows per grid point, in the order
    :class:`repro.optimize.pareto.DesignPoint` stores them.
    """

    model: TotalCostModel
    n_transistors: float
    feature_um: float
    n_wafers: float
    yield_fraction: float
    cost_per_cm2: float

    n_outputs = 3

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized objective triple over the grid, shape ``(3, n)``."""
        area = area_from_sd(xs, self.n_transistors, self.feature_um)
        cost = self.model.transistor_cost(
            xs, self.n_transistors, self.feature_um, self.n_wafers,
            self.yield_fraction, self.cost_per_cm2)
        design = self.model.design_model.cost(self.n_transistors, xs)
        return np.stack([np.asarray(area, dtype=float),
                         np.asarray(cost, dtype=float),
                         np.asarray(design, dtype=float)])

    def point(self, x: float) -> tuple[float, float, float]:
        """Scalar objective triple — legacy evaluation order preserved."""
        area = float(area_from_sd(x, self.n_transistors, self.feature_um))
        cost = float(self.model.transistor_cost(
            x, self.n_transistors, self.feature_um, self.n_wafers,
            self.yield_fraction, self.cost_per_cm2))
        design = float(self.model.design_model.cost(self.n_transistors, x))
        return (area, cost, design)

    def feasible(self, xs: np.ndarray) -> np.ndarray:
        """Points strictly above the eq.-(6) divergence at ``s_d0``."""
        return np.isfinite(xs) & (xs > self.model.design_model.sd0)

    def token(self) -> tuple:
        """Cache identity: model configuration + fixed operating point."""
        return ("DesignObjectivesKernel", repr(self.model),
                _part(self.n_transistors), _part(self.feature_um),
                _part(self.n_wafers), _part(self.yield_fraction),
                _part(self.cost_per_cm2))


@dataclass(frozen=True, eq=False)
class OperatingPointsKernel:
    """Eq. (4) over heterogeneous operating points (the Scenario batch).

    Every parameter is an equal-length array; the evaluation grid is
    the index vector ``0..n-1``. One vectorized model call covers all
    points that share this kernel's model.
    """

    model: TotalCostModel
    sd: np.ndarray
    n_transistors: np.ndarray
    feature_um: np.ndarray
    n_wafers: np.ndarray
    yield_fraction: np.ndarray
    cost_per_cm2: np.ndarray

    n_outputs = 1

    def _pick(self, indices) -> tuple:
        i = np.asarray(indices, dtype=int)
        return (self.sd[i], self.n_transistors[i], self.feature_um[i],
                self.n_wafers[i], self.yield_fraction[i], self.cost_per_cm2[i])

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized eq. (4) over the selected scenario indices."""
        sd, n_tr, feature, n_w, y, c = self._pick(xs)
        return np.asarray(self.model.transistor_cost(
            sd, n_tr, feature, n_w, y, c), dtype=float)

    def point(self, x: float) -> float:
        """Scalar eq. (4) at one scenario index."""
        i = int(x)
        return float(self.model.transistor_cost(
            float(self.sd[i]), float(self.n_transistors[i]),
            float(self.feature_um[i]), float(self.n_wafers[i]),
            float(self.yield_fraction[i]), float(self.cost_per_cm2[i])))

    def feasible(self, xs: np.ndarray) -> np.ndarray:
        """Scenarios whose every parameter sits in the model domain."""
        i = np.asarray(xs, dtype=int)
        sd, n_tr, feature, n_w, y, c = (self.sd[i], self.n_transistors[i],
                                        self.feature_um[i], self.n_wafers[i],
                                        self.yield_fraction[i],
                                        self.cost_per_cm2[i])
        ok = np.isfinite(sd) & (sd > self.model.design_model.sd0)
        for positive in (n_tr, feature, n_w, c):
            ok &= np.isfinite(positive) & (positive > 0)
        ok &= np.isfinite(y) & (y > 0) & (y <= 1)
        return ok

    def token(self) -> tuple:
        """Cache identity: model configuration + all parameter arrays."""
        return ("OperatingPointsKernel", repr(self.model), self.sd,
                self.n_transistors, self.feature_um, self.n_wafers,
                self.yield_fraction, self.cost_per_cm2)
