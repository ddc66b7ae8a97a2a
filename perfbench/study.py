"""The ``lib_study`` operation, kept apart from the measuring code so
that the set-up probe imports nothing but the program and the inputs."""

from __future__ import annotations

from repro import api


def portfolio(study) -> list:
    """The study's ``evaluate_many`` input: its design at each volume
    and yield."""
    base = api.Scenario(**study.design)
    return [base.replace(n_wafers=float(w), yield_fraction=float(y))
            for w, y in zip(study.n_wafers, study.yield_fraction)]


def run_study(study, scenarios):
    """One ``lib_study`` operation: the ``sd`` sweep, then the
    portfolio."""
    sweep = api.Scenario(**study.design).sweep(parameter="sd",
                                               values=study.grid)
    priced = api.evaluate_many(scenarios)
    return sweep, priced
