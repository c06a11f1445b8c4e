"""Scripted shock scenarios and Monte Carlo survival experiments.

A scenario fixes a decision maker (individual firms or a planner), an
information environment (known shock odds vs an ambiguous interval) and a
scripted realisation, one of the branches in ``shocks.BRANCHES`` (no
shock, East hit, South hit).  The allocation is chosen once; the shock
state resets every period, so the stationary rule would reproduce the same
split each morning.  At the shock period the scripted draw destroys the hit
location's labour for exactly one period, and the run records supplier
counts, survival and welfare period by period.  Every other period is calm,
so an allocation's shock branches are evaluated once, by ``sourcing``'s one
survival rule, and every realisation's run is laid out from that evaluation.

Welfare is the destination household's real wage scaled by the love-of-
variety factor of the surviving supplier basket relative to the full one,
and drops to zero in any period the chain is dead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .chains import EconomyParams, _JsonConfig, _checked_costs, _whole
from .equilibrium import EquilibriumSolution, SolverConfig, solve_equilibrium
from .shocks import BRANCHES, EAST, SOUTH, ShockParams, _draw_branches
from .sourcing import (
    DEFAULT_GRID,
    DEFAULT_SUPPLIERS,
    BeliefSet,
    SourcingAllocation,
    UtilitySpec,
    _branch_outcomes,
    _check_locations,
    individual_sourcing,
    planner_ambiguity_sourcing,
    supplier_counts,
)

DECISION_MODES = ("individual", "planner")
INFO_ENVS = ("risk", "ambiguity")
REALIZATIONS = tuple(draw.label for draw in BRANCHES)


@dataclass
class ScenarioConfig(_JsonConfig):
    """Everything a scripted run needs; validated on construction."""

    economy: EconomyParams
    shock: ShockParams
    decision_mode: str = "individual"
    info_env: str = "risk"
    realization: str = "none"
    shock_period: int = 10
    horizon: int = 20
    suppliers_per_tier: int = DEFAULT_SUPPLIERS
    grid_resolution: int = DEFAULT_GRID
    destination: int = 0
    seed: int = 0
    utility: UtilitySpec = field(default_factory=UtilitySpec)
    beliefs: BeliefSet = field(default_factory=lambda: BeliefSet(0.0, 1.0))

    kind = "scenario"

    def __post_init__(self):
        if self.economy.n_locations != 2:
            raise ValueError("scenarios use a two-location East/South economy")
        for name, allowed in (("decision_mode", DECISION_MODES), ("info_env", INFO_ENVS),
                              ("realization", REALIZATIONS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        self.horizon = _whole(self.horizon, "horizon", "[1, inf)")
        for name, spec in (("shock_period", f"[1, {self.horizon}]"),
                           ("suppliers_per_tier", "[1, inf)"), ("grid_resolution", "[2, inf)"),
                           ("destination", f"[0, {self.economy.n_locations - 1}]"),
                           ("seed", "[0, inf)")):
            setattr(self, name, _whole(getattr(self, name), name, spec))


@dataclass
class TimeSeries:
    """One scripted run.  Supplier columns track the most upstream tier."""

    period: np.ndarray
    suppliers_east: np.ndarray
    suppliers_south: np.ndarray
    suppliers_total: np.ndarray
    chain_alive: np.ndarray
    welfare: np.ndarray
    allocation: SourcingAllocation
    decision_mode: str
    info_env: str
    realization: str

    COLUMNS = ("period", "suppliers_east", "suppliers_south",
               "suppliers_total", "chain_alive", "welfare")

    def rows(self):
        for t in range(len(self.period)):
            yield (int(self.period[t]), int(self.suppliers_east[t]),
                   int(self.suppliers_south[t]), int(self.suppliers_total[t]),
                   bool(self.chain_alive[t]), float(self.welfare[t]))


def choose_allocation(config: ScenarioConfig,
                      solution: EquilibriumSolution) -> SourcingAllocation:
    """Apply the configured decision rule; individuals ignore the info env,
    and a planner's beliefs under risk are the known odds {zeta}."""
    if config.decision_mode == "individual":
        return individual_sourcing(config.economy, config.shock,
                                   suppliers_per_tier=config.suppliers_per_tier,
                                   costs=solution.costs)
    beliefs = (config.beliefs if config.info_env == "ambiguity"
               else BeliefSet.singleton(config.shock.zeta))
    return planner_ambiguity_sourcing(config.economy, config.shock, beliefs, config.utility,
                                      config.grid_resolution, config.suppliers_per_tier,
                                      solution.costs)


def _realization_runs(config: ScenarioConfig, solution: EquilibriumSolution | None = None,
                      allocation: SourcingAllocation | None = None) -> tuple[TimeSeries, ...]:
    """:func:`run_scenario` for every realisation, in ``REALIZATIONS`` order.

    Each shock branch is evaluated once; a run takes the calm branch in
    every period but the shock period, which takes its scripted one.
    """
    if allocation is not None:          # before the solve it would waste
        _check_locations(config.economy, allocation)
    if solution is None:
        solution = solve_equilibrium(config.economy, SolverConfig())
    if allocation is None:
        allocation = choose_allocation(config, solution)
    costs = _checked_costs(config.economy, solution.costs)
    left, alive, values = _branch_outcomes(supplier_counts(allocation), config.economy, costs)
    real_wage = float(solution.real_wages[config.destination])
    periods = np.arange(1, config.horizon + 1)
    runs = []
    for k, realization in enumerate(REALIZATIONS):
        branch = np.where(periods == config.shock_period, k, 0)
        east, south = left[branch, EAST, 0], left[branch, SOUTH, 0]
        # A dead chain is worth 0, so its welfare is 0 as well.
        runs.append(TimeSeries(period=periods, suppliers_east=east, suppliers_south=south,
                               suppliers_total=east + south, chain_alive=alive[branch],
                               welfare=real_wage * values[branch] / values[0],
                               allocation=allocation, decision_mode=config.decision_mode,
                               info_env=config.info_env, realization=realization))
    return tuple(runs)


def run_scenario(config: ScenarioConfig,
                 solution: EquilibriumSolution | None = None,
                 allocation: SourcingAllocation | None = None) -> TimeSeries:
    """Simulate one scripted realisation over the horizon.

    The equilibrium and the allocation do not depend on the realisation;
    either can be passed in to reuse it.
    """
    return _realization_runs(config, solution, allocation)[REALIZATIONS.index(config.realization)]


def run_matrix(config: ScenarioConfig) -> dict:
    """All six cells (realisation x info environment) of one decision mode.

    Returns a dict keyed by (realization, info_env).  The equilibrium is
    shared, and each info environment's allocation is chosen and evaluated
    once, since the scripted realisation never feeds back into the choice.
    """
    solution = solve_equilibrium(config.economy, SolverConfig())
    out = {}
    for env in INFO_ENVS:
        runs = _realization_runs(replace(config, info_env=env), solution)
        out.update({(realization, env): ts for realization, ts in zip(REALIZATIONS, runs)})
    return out


@dataclass
class MonteCarloSummary:
    survival_rate: float
    mean_welfare: float
    stderr: float
    n_runs: int


def monte_carlo_survival(config: ScenarioConfig, n_runs: int,
                         seed: int) -> MonteCarloSummary:
    """Survival frequency when the shock realisation is drawn per run.

    One generator seeded with ``seed`` (a whole number, at least 0) draws
    all ``n_runs`` uniforms at once; run r's shock is the :func:`draw_shock`
    outcome of element r.  Only three realisations exist, so the
    allocation's three scripted runs are laid out once and the runs are
    tallied per realisation.  A run counts as surviving when the chain is
    alive in every period.
    ``stderr`` is the binomial standard error of the survival rate.
    """
    n_runs = _whole(n_runs, "n_runs", "[1, inf)")
    seed = _whole(seed, "seed", "[0, inf)")
    runs = _realization_runs(config)
    alive = np.array([ts.chain_alive.all() for ts in runs], dtype=float)
    welfare = np.array([ts.welfare.mean() for ts in runs])

    u = np.random.default_rng(seed).random(n_runs)
    tally = np.bincount(_draw_branches(config.shock, u), minlength=len(REALIZATIONS))

    rate = float(tally @ alive) / n_runs
    stderr = float(np.sqrt(rate * (1.0 - rate) / n_runs))
    return MonteCarloSummary(survival_rate=rate,
                             mean_welfare=float(tally @ welfare) / n_runs,
                             stderr=stderr, n_runs=n_runs)
