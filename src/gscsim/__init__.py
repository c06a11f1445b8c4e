"""Global supply chain simulator.

A toolkit for studying how multi-tier sourcing chains trade off efficiency
against robustness: a Frechet trade model over production chains, a wage
equilibrium, disaster shocks, sourcing rules under risk and ambiguity,
scripted scenario runs, and reliance metrics for world input-output tables.
"""

__version__ = "0.1.0"

from .chains import (
    EconomyParams,
    chain_cost_scale,
    chain_productivity_cdf,
    chain_productivity_location,
    chain_productivity_theta_sensitivity,
    composite_cost,
    enumerate_paths,
    final_demand_shares,
    intermediate_flow_shares,
    kappa,
    local_chain_real_wage,
    path_scale_matrix,
    path_share,
    path_share_matrix,
    price_index,
    price_indices,
    tier_participation,
)
from .equilibrium import (
    EquilibriumConvergenceError,
    EquilibriumSolution,
    SolverConfig,
    labor_market_residuals,
    solve_costs,
    solve_equilibrium,
)
from .shocks import (
    EAST,
    NORMAL,
    SHOCK,
    SOUTH,
    RegimeState,
    ShockDraw,
    ShockParams,
    apply_shock,
    draw_shock,
    simulate_regime,
    stationary_share,
    step_regime,
)
from .sourcing import (
    BeliefSet,
    SourcingAllocation,
    UtilitySpec,
    allocation_value,
    ambiguity_objective,
    chain_survives,
    crra_utility,
    individual_sourcing,
    planner_ambiguity_sourcing,
    planner_risk_sourcing,
    risk_objective,
    supplier_counts,
)
from .scenarios import (
    MonteCarloSummary,
    ScenarioConfig,
    TimeSeries,
    choose_allocation,
    monte_carlo_survival,
    run_matrix,
    run_scenario,
)
from .iotables import (
    RelianceMatrix,
    TableFormatError,
    WorldIOTable,
    compute_fir,
    compute_fmr,
    leontief_inverse,
    load_table,
    reliance_change,
    technical_coefficients,
    write_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
