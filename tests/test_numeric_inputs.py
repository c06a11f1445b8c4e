"""Every numeric input rejects NaN, infinities and out-of-range values.

One table covers each numeric field of the config objects, through the
constructor and through ``from_dict`` where one exists, and the costs and
count arguments of the public sourcing functions.  Integer fields also get
a fraction, which must not be truncated into a different experiment.
"""

import json
import math
import re

import numpy as np
import pytest

from gscsim import (
    BeliefSet,
    EconomyParams,
    EquilibriumConvergenceError,
    RegimeState,
    ScenarioConfig,
    ShockDraw,
    ShockParams,
    SolverConfig,
    SourcingAllocation,
    TableFormatError,
    UtilitySpec,
    WorldIOTable,
    allocation_value,
    ambiguity_objective,
    apply_shock,
    chain_cost_scale,
    chain_productivity_cdf,
    chain_productivity_location,
    chain_productivity_theta_sensitivity,
    chain_survives,
    compute_fmr,
    crra_utility,
    draw_shock,
    individual_sourcing,
    intermediate_flow_shares,
    local_chain_real_wage,
    monte_carlo_survival,
    path_share,
    planner_ambiguity_sourcing,
    planner_risk_sourcing,
    price_index,
    risk_objective,
    simulate_regime,
    solve_costs,
    solve_equilibrium,
    step_regime,
)
from gscsim.chains import _positive_array
from gscsim.cli import main

from conftest import oracle_economy, symmetric_two_tier

BAD = (math.nan, math.inf, -math.inf, 0.0, -1.0)
FRACTION = 2.5

ECONOMY = symmetric_two_tier().to_dict()
SHOCK = {"eta": 0.2, "lam": 1.0, "zeta": 0.9}
BELIEFS = {"zeta_lo": 0.2, "zeta_hi": 0.8}
SCENARIO = {"economy": ECONOMY, "shock": SHOCK, "decision_mode": "planner",
            "shock_period": 5, "horizon": 8, "suppliers_per_tier": 10,
            "grid_resolution": 101, "destination": 0, "seed": 0}
SCENARIO_INTS = ("shock_period", "horizon", "suppliers_per_tier",
                 "grid_resolution", "destination", "seed")


def _set(d: dict, key: str, index, value) -> dict:
    """Copy of ``d`` with ``d[key]`` (or its entry at ``index``) set to value."""
    out = json.loads(json.dumps(d))
    if index is None:
        out[key] = value
    else:
        arr = np.array(out[key], dtype=float)
        arr[index] = value
        out[key] = arr.tolist()
    return out


def _economy_rows():
    for key, index in (("T", (0, 1)), ("L", 1), ("tau", (0, 1)), ("alpha", 1),
                       ("beta", 0), ("theta", None), ("sigma", None), ("gamma", None)):
        for v in BAD:
            yield (f"EconomyParams.{key}", v,
                   lambda v=v, k=key, i=index: EconomyParams(**_set(ECONOMY, k, i, v)))
            yield (f"EconomyParams.from_dict.{key}", v,
                   lambda v=v, k=key, i=index: EconomyParams.from_dict(_set(ECONOMY, k, i, v)))


def _solver_rows():
    for key in ("tolerance", "damping", "world_income"):
        for v in BAD:
            yield f"SolverConfig.{key}", v, lambda v=v, k=key: SolverConfig(**{k: v})
    # A zero budget is valid: it only checks the initial guess.
    for v in (math.nan, math.inf, -math.inf, -1.0, FRACTION):
        yield "SolverConfig.max_iterations", v, lambda v=v: SolverConfig(max_iterations=v)
        yield ("solve_costs.max_iterations", v,
               lambda v=v: solve_costs([1.0, 1.0], symmetric_two_tier(), max_iterations=v))
    # initial_wages is checked when the solve starts.
    for v in BAD:
        yield ("SolverConfig.initial_wages", v,
               lambda v=v: solve_equilibrium(symmetric_two_tier(),
                                             SolverConfig(initial_wages=[1.0, v])))


def _odds_rows():
    # Zero is a valid probability, so it is left out.
    odds = (math.nan, math.inf, -math.inf, -1.0)
    for key in SHOCK:
        for v in odds:
            yield f"ShockParams.{key}", v, lambda v=v, k=key: ShockParams(**{**SHOCK, k: v})
            yield (f"ShockParams.from_dict.{key}", v,
                   lambda v=v, k=key: ShockParams.from_dict({**SHOCK, k: v}))
    for key in BELIEFS:
        for v in odds:
            yield f"BeliefSet.{key}", v, lambda v=v, k=key: BeliefSet(**{**BELIEFS, k: v})
            yield (f"BeliefSet.from_dict.{key}", v,
                   lambda v=v, k=key: BeliefSet.from_dict({**BELIEFS, k: v}))
    # rho = 0 is risk neutrality.
    for v in odds:
        yield "UtilitySpec.rho", v, lambda v=v: UtilitySpec(rho=v)
        yield ("ScenarioConfig.from_dict.utility.rho", v,
               lambda v=v: ScenarioConfig.from_dict({**SCENARIO, "utility": {"rho": v}}))


def _allocation_rows():
    # A zero fraction is valid; the column sums catch the other values.
    for v in (math.nan, math.inf, -math.inf, -1.0):
        yield ("SourcingAllocation.phi", v,
               lambda v=v: SourcingAllocation(phi=[[v, 0.5], [0.5, 0.5]], M=[10, 10]))
    for v in BAD + (FRACTION,):
        yield ("SourcingAllocation.M", v,
               lambda v=v: SourcingAllocation(phi=[[0.5, 0.5], [0.5, 0.5]], M=[10, v]))
        yield ("SourcingAllocation.uniform_tiers.suppliers_per_tier", v,
               lambda v=v: SourcingAllocation.uniform_tiers([0.5, 0.5], v, 2))


def _sourcing_rows():
    params = symmetric_two_tier()
    shock = ShockParams(**SHOCK)
    beliefs = BeliefSet(**BELIEFS)
    utility = UtilitySpec(rho=2.0)
    alloc = SourcingAllocation.uniform_tiers([0.5, 0.5], 10, 2)
    calls = {
        "allocation_value": lambda c: allocation_value(alloc, ShockDraw(None), params, c),
        "risk_objective": lambda c: risk_objective(alloc, params, shock, utility, c),
        "ambiguity_objective": lambda c: ambiguity_objective(alloc, params, shock,
                                                             beliefs, utility, c),
        "individual_sourcing": lambda c: individual_sourcing(params, shock, costs=c),
        "planner_risk_sourcing": lambda c: planner_risk_sourcing(
            params, shock, utility, grid_resolution=11, costs=c),
        "planner_ambiguity_sourcing": lambda c: planner_ambiguity_sourcing(
            params, shock, beliefs, grid_resolution=11, costs=c),
    }
    for name, call in calls.items():
        for v in BAD:
            yield f"{name}.costs", v, lambda v=v, call=call: call([1.0, v])
    unit = np.ones(2)
    for v in BAD + (FRACTION,):
        yield ("individual_sourcing.suppliers_per_tier", v,
               lambda v=v: individual_sourcing(params, shock, suppliers_per_tier=v, costs=unit))
        yield ("planner_risk_sourcing.suppliers_per_tier", v,
               lambda v=v: planner_risk_sourcing(params, shock, utility, grid_resolution=11,
                                                 suppliers_per_tier=v, costs=unit))
        yield ("planner_risk_sourcing.grid_resolution", v,
               lambda v=v: planner_risk_sourcing(params, shock, utility,
                                                 grid_resolution=v, costs=unit))


def _scenario_rows():
    for key in SCENARIO_INTS:
        for v in BAD + (FRACTION,):
            # Location 0 is a destination, and the seed is only recorded,
            # so any whole number is a valid seed.
            if (key == "destination" and v == 0.0) or (key == "seed" and v in (0.0, -1.0)):
                continue
            yield f"ScenarioConfig.{key}", v, lambda v=v, k=key: ScenarioConfig(
                economy=EconomyParams.from_dict(ECONOMY), shock=ShockParams(**SHOCK),
                **{**{k2: SCENARIO[k2] for k2 in SCENARIO_INTS}, k: v})
            yield (f"ScenarioConfig.from_dict.{key}", v,
                   lambda v=v, k=key: ScenarioConfig.from_dict({**SCENARIO, k: v}))
    cfg = ScenarioConfig.from_dict({**SCENARIO, "grid_resolution": 11})
    for v in BAD + (FRACTION,):
        yield ("monte_carlo_survival.n_runs", v,
               lambda v=v: monte_carlo_survival(cfg, n_runs=v, seed=0))
        if v != 0.0:
            yield ("monte_carlo_survival.seed", v,
                   lambda v=v: monte_carlo_survival(cfg, n_runs=10, seed=v))


def _location_index_rows():
    # -1 used to read the last location, 0.5 was truncated to location 0,
    # and 2 escaped as an IndexError.
    params = symmetric_two_tier()
    unit = np.ones(2)
    by_path = {
        "chain_cost_scale.path": lambda p: chain_cost_scale(p, 0, params, unit),
        "path_share.path": lambda p: path_share(p, 0, params, unit),
        "chain_productivity_location.path": lambda p: chain_productivity_location(p, params),
        "chain_productivity_cdf.path": lambda p: chain_productivity_cdf(1.5, p, params),
        "chain_productivity_cdf.path.z=0": lambda p: chain_productivity_cdf(0.0, p, params),
        "chain_productivity_theta_sensitivity.path":
            lambda p: chain_productivity_theta_sensitivity(1.5, p, params),
    }
    by_index = {
        "chain_cost_scale.dest": lambda d: chain_cost_scale([0, 1], d, params, unit),
        "path_share.dest": lambda d: path_share([0, 1], d, params, unit),
        "price_index.dest": lambda d: price_index(d, params, unit),
        "local_chain_real_wage.j": lambda j: local_chain_real_wage(j, params, 0.5),
    }
    for v in (-1, 2, math.nan, math.inf, 0.5):
        for name, call in by_path.items():
            yield name, v, lambda v=v, call=call: call([v, 0])
        for name, call in by_index.items():
            yield name, v, lambda v=v, call=call: call(v)
    # A shock at -1 used to hit South, and 2 or 0.5 escaped as an IndexError.
    alloc = SourcingAllocation(phi=[[1.0, 1.0], [0.0, 0.0]], M=[3, 3])
    by_shock = {
        "apply_shock.location": lambda d: apply_shock([1.0, 1.0], d),
        "chain_survives.location": lambda d: chain_survives(alloc, d),
        "allocation_value.location": lambda d: allocation_value(alloc, d, params, unit),
    }
    for v in (-1, 2, 0.5, math.nan):
        for name, call in by_shock.items():
            yield name, v, lambda v=v, call=call: call(ShockDraw(v))


def _regime_rows():
    # Both fields used to be truncated to integers, 0.5 to a NORMAL flag.
    for v in (0.5, 1.7, math.nan, math.inf, -1.0, 2.0):
        yield "RegimeState.state", v, lambda v=v: RegimeState([0, v], [0, 0])
    for v in (-3.0, -1.0, 2.9, math.nan, math.inf):
        yield ("RegimeState.periods_in_state", v,
               lambda v=v: RegimeState([0, 1], [0, v]))
    # True used to pass as SHOCK, since True == 1.
    shock = ShockParams(0.3, 0.5, 0.5)
    for v in (True, False, 0.5, math.nan, math.inf, -1, 2, 2.0):
        yield ("simulate_regime.initial", v,
               lambda v=v: simulate_regime(shock, [0.1, 0.9], initial=v))


def _uniform_draw_rows():
    # NaN used to pass both regime checks and act as "no event".
    shock = ShockParams(0.3, 0.5, 0.5)
    for v in (math.nan, math.inf, -math.inf, -0.1, 1.0):
        yield "simulate_regime.draws", v, lambda v=v: simulate_regime(shock, [0.1, v, 0.9])
        yield ("step_regime.rand", v,
               lambda v=v: step_regime(RegimeState.all_normal(2), shock, [v, 0.1]))
        yield "draw_shock.rand", v, lambda v=v: draw_shock(shock, v)


ROWS = [*_economy_rows(), *_solver_rows(), *_odds_rows(), *_allocation_rows(),
        *_sourcing_rows(), *_scenario_rows(), *_location_index_rows(), *_regime_rows(),
        *_uniform_draw_rows()]


@pytest.mark.parametrize("field,value,call", ROWS,
                         ids=[f"{field}={value}" for field, value, _ in ROWS])
def test_numeric_input_rejects_out_of_range_value(field, value, call):
    with pytest.raises(ValueError):
        call()


# Seed 1000 of the census recipe at gamma 0.05 (J 2, N 2, theta 5.62): the
# inner cost loop contracts with modulus 1 - gamma and spends its 500 passes.
COST_STALL = {
    "T": [[1.6773544933056348, 1.008119856361697], [1.8218975640501316, 0.9775907002019719]],
    "L": [0.9223183979627776, 1.630522328287391],
    "tau": [[1.0, 1.6909776605667108], [1.6442977767247373, 1.0]],
    "alpha": [0.35188592966523224, 0.9871964655137377],
    "beta": [1.0463170622275724, 0.6400101397290342],
    "theta": 5.6230510820379775, "sigma": 2.19117043250983, "gamma": 0.05}


def _io_table(**overrides) -> WorldIOTable:
    """Two countries, one sector; BET adds no value, so it supplies no content."""
    table = {"countries": ["ALP", "BET"], "sectors": ["MFG"],
             "Z": [[0.0, 50.0], [40.0, 0.0]], "F": [[50.0, 0.0], [0.0, 10.0]],
             "v": [60.0, 0.0], "x": [100.0, 50.0]}
    return WorldIOTable(**{**table, **overrides})


def _guard_rows():
    params = symmetric_two_tier()
    unit = np.ones(2)
    shock = ShockParams(**SHOCK)
    yield ("EconomyParams.T.empty", lambda: EconomyParams(**{**ECONOMY, "T": np.ones((0, 2))}),
           ValueError, "need at least one location and one tier")
    yield ("EconomyParams.alpha", lambda: EconomyParams(**{**ECONOMY, "alpha": [1.5, 0.5]}),
           ValueError, "labour shares alpha must lie in (0, 1]")
    for v in (0.0, 1.0):
        yield (f"EconomyParams.two_tier.alpha2={v}",
               lambda v=v: EconomyParams.two_tier(T1=[1.0, 1.0], T2=[1.0, 1.0], L=[1.0, 1.0],
                                                  tau=np.ones((2, 2)), alpha2=v,
                                                  theta=4.0, sigma=2.0),
               ValueError, "alpha2 must lie strictly between 0 and 1")
    yield ("chain_cost_scale.path.length", lambda: chain_cost_scale([0], 0, params, unit),
           ValueError, "path must list one location per tier, got (1,)")
    yield ("intermediate_flow_shares.one_tier",
           lambda: intermediate_flow_shares(oracle_economy(), np.ones(3)),
           ValueError, "intermediate flows need at least two tiers")
    for v in (0.0, 1.5):
        yield (f"local_chain_real_wage.pi_jj={v}", lambda v=v: local_chain_real_wage(0, params, v),
               ValueError, "pi_jj must lie in (0, 1]")
    yield ("RegimeState.shapes", lambda: RegimeState([0, 1], [0]),
           ValueError, "state and periods_in_state must align")
    yield ("simulate_regime.draws.2d", lambda: simulate_regime(shock, [[0.1, 0.9]]),
           ValueError, "draws must be a 1-d sequence of uniforms")
    yield ("SourcingAllocation.phi.1d", lambda: SourcingAllocation(phi=[0.5, 0.5], M=[10]),
           ValueError, "phi must have shape (locations, tiers)")
    yield ("SourcingAllocation.M.length",
           lambda: SourcingAllocation(phi=[[0.5], [0.5]], M=[10, 10]),
           ValueError, "M must give one supplier count per tier")
    yield ("WorldIOTable.Z", lambda: _io_table(Z=np.zeros((3, 3))),
           TableFormatError, "Z must be 2x2, got (3, 3)")
    yield ("WorldIOTable.F", lambda: _io_table(F=[[50.0], [10.0]]),
           TableFormatError, "F must be 2x2, got (2, 1)")
    for key in ("v", "x"):
        yield (f"WorldIOTable.{key}", lambda k=key: _io_table(**{k: [1.0]}),
               TableFormatError, "v and x must have one entry per country-sector")
    yield ("WorldIOTable.countries", lambda: _io_table(countries=["ALP", "ALP"]),
           TableFormatError, "duplicate country or sector labels")
    yield ("compute_fmr.no_content", lambda: compute_fmr(_io_table(), "MFG"),
           ValueError, "BET supplies no content to MFG")
    yield ("solve_equilibrium.cost_stall",
           lambda: solve_equilibrium(EconomyParams.from_dict(COST_STALL)),
           EquilibriumConvergenceError, "composite cost loop stalled at log-gap ")


GUARD_ROWS = list(_guard_rows())


@pytest.mark.parametrize("call,error,message", [row[1:] for row in GUARD_ROWS],
                         ids=[row[0] for row in GUARD_ROWS])
def test_shape_and_range_guards_name_the_problem(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        call()


@pytest.mark.parametrize("key", SCENARIO_INTS)
@pytest.mark.parametrize("token", ("Infinity", "NaN", "0.5"))
def test_cli_rejects_non_whole_integer_field(tmp_path, capsys, key, token):
    # json reads Infinity and NaN; int() of either used to escape as an
    # OverflowError or ValueError traceback, and 0.5 was truncated to 0.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SCENARIO, key: float(token)}))
    assert token in cfg.read_text()
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_whole_floats_and_large_seeds_are_kept():
    cfg = ScenarioConfig.from_dict({**SCENARIO, "horizon": 20.0, "seed": 2**60 + 1})
    assert cfg.horizon == 20 and isinstance(cfg.horizon, int)
    assert cfg.seed == 2**60 + 1
    assert SourcingAllocation(phi=[[0.5], [0.5]], M=[4.0]).M.dtype == np.intp


def _floor_rows():
    """(field, floor, call) of every count with a floor; ``call(v)`` passes
    ``v`` as that count."""
    params, shock, unit = symmetric_two_tier(), ShockParams(**SHOCK), np.ones(2)
    cfg = ScenarioConfig.from_dict({**SCENARIO, "grid_resolution": 11})
    for key, floor in (("horizon", 1), ("suppliers_per_tier", 1), ("grid_resolution", 2)):
        yield key, floor, lambda v, k=key: ScenarioConfig.from_dict(
            {**SCENARIO, "shock_period": 1, k: v})
    yield "grid_resolution", 2, lambda v: planner_risk_sourcing(
        params, shock, UtilitySpec(2.0), grid_resolution=v, costs=unit)
    yield "suppliers_per_tier", 1, lambda v: planner_ambiguity_sourcing(
        params, shock, BeliefSet(**BELIEFS), grid_resolution=11, suppliers_per_tier=v,
        costs=unit)
    yield "suppliers_per_tier", 1, lambda v: individual_sourcing(
        params, shock, suppliers_per_tier=v, costs=unit)
    yield "suppliers_per_tier", 1, lambda v: SourcingAllocation.uniform_tiers(unit / 2, v, 2)
    yield "M", 1, lambda v: SourcingAllocation(phi=[[0.5, 0.5], [0.5, 0.5]], M=[v, 3])
    yield "max_iterations", 0, lambda v: SolverConfig(max_iterations=v)
    yield "max_iterations", 1, lambda v: solve_costs(unit, params, max_iterations=v)
    yield "n_runs", 1, lambda v: monte_carlo_survival(cfg, n_runs=v, seed=0)
    yield "seed", 0, lambda v: monte_carlo_survival(cfg, n_runs=10, seed=v)


FLOOR_ROWS = list(_floor_rows())


@pytest.mark.parametrize("field,floor,call", FLOOR_ROWS,
                         ids=[f"{field}-{k}" for k, (field, _, _) in enumerate(FLOOR_ROWS)])
def test_whole_number_floors_share_one_message(field, floor, call):
    # The floor itself passes, as an int or a whole float; one below it, or
    # far below it, is refused with one message naming the count.
    call(floor)
    call(float(floor))
    for below in (floor - 1, float(floor - 1), floor - 7):
        with pytest.raises(ValueError, match=f"^{field} must be at least {floor}$"):
            call(below)


def test_location_indices_name_their_field_and_whole_floats_convert():
    params = symmetric_two_tier()
    unit = np.ones(2)
    with pytest.raises(ValueError, match="^path must be a whole number"):
        chain_productivity_location([0.5, 0], params)
    with pytest.raises(ValueError, match="^path contains an unknown location"):
        chain_cost_scale([-1, 0], 0, params, unit)
    with pytest.raises(ValueError, match="^dest must be a whole number"):
        chain_cost_scale([0, 1], 0.5, params, unit)
    with pytest.raises(ValueError, match="^dest must be a whole number"):
        price_index(0.5, params, unit)
    with pytest.raises(ValueError, match="^j must be a whole number"):
        local_chain_real_wage(0.5, params, 0.5)
    assert (chain_cost_scale([0.0, 1.0], 1.0, params, unit)
            == chain_cost_scale((0, 1), 1, params, unit))
    assert chain_productivity_location([1.0, 0.0], params) == \
        chain_productivity_location(np.array([1, 0]), params)
    assert price_index(1.0, params, unit) == price_index(1, params, unit)
    assert local_chain_real_wage(1.0, params, 0.5) == local_chain_real_wage(1, params, 0.5)


def test_out_of_range_locations_share_one_message():
    params = symmetric_two_tier()
    unit = np.ones(2)
    calls = (("dest", lambda i: chain_cost_scale([0, 1], i, params, unit)),
             ("dest", lambda i: price_index(i, params, unit)),
             ("j", lambda i: local_chain_real_wage(i, params, 0.5)),
             ("destination", lambda i: ScenarioConfig.from_dict({**SCENARIO, "destination": i})),
             ("shock location", lambda i: apply_shock([1.0, 1.0], ShockDraw(i))))
    for name, call in calls:
        for i in (-1, 2):
            with pytest.raises(ValueError, match=f"^{name} {i} out of range$"):
                call(i)


def test_shock_locations_and_regimes_name_their_field():
    alloc = SourcingAllocation(phi=[[1.0, 1.0], [0.0, 0.0]], M=[3, 3])
    for v in (-1, 2):
        with pytest.raises(ValueError, match=f"^shock location {v} out of range$"):
            chain_survives(alloc, ShockDraw(v))
    with pytest.raises(ValueError, match="^shock location must be a whole number"):
        allocation_value(alloc, ShockDraw(0.5), symmetric_two_tier(), np.ones(2))
    assert not chain_survives(alloc, ShockDraw(0.0))
    assert chain_survives(alloc, ShockDraw(1.0))
    assert apply_shock([1.0, 2.0], ShockDraw(1.0)).tolist() == [1.0, 0.0]
    with pytest.raises(ValueError, match="^state must be a whole number"):
        RegimeState([0.5, 1.7], [0, 0])
    with pytest.raises(ValueError, match="^periods_in_state must be a whole number"):
        RegimeState([0, 1], [3, 2.9])
    with pytest.raises(ValueError, match="^periods_in_state must be nonnegative"):
        RegimeState([0, 1], [-3, 2])
    state = RegimeState([0.0, 1.0], [4.0, 0.0])
    assert state.state.dtype == state.periods_in_state.dtype == np.intp
    assert state.state.tolist() == [0, 1] and state.periods_in_state.tolist() == [4, 0]


def test_simulate_regime_initial_names_its_field():
    shock = ShockParams(0.3, 0.5, 0.5)
    for v in (0.5, math.nan):
        with pytest.raises(ValueError, match="^initial must be a whole number, got "):
            simulate_regime(shock, [0.9], initial=v)
    for v in (2, -1, 2.0, [0, 1]):
        with pytest.raises(ValueError, match="^initial regime must be NORMAL or SHOCK$"):
            simulate_regime(shock, [0.9], initial=v)
    for v in (1, 1.0, np.int64(1)):
        assert simulate_regime(shock, [0.9, 0.1], initial=v).tolist() == [1, 0]


def test_scalar_functions_reject_nan():
    params = symmetric_two_tier()
    with pytest.raises(ValueError):
        crra_utility(math.nan, 2.0)
    for fn in (chain_productivity_cdf, chain_productivity_theta_sensitivity):
        with pytest.raises(ValueError):
            fn(math.nan, [0, 1], params)
    assert chain_productivity_cdf(math.inf, [0, 1], params) == 1.0


# ---------------------------------------------------------------------------
# non-numeric values name their field

TEXT = (["a", "b"], "abc", [[1.0, 2.0], [3.0]], {"x": 1})


@pytest.mark.parametrize("key", ("T", "L", "tau", "alpha", "beta"))
@pytest.mark.parametrize("value", TEXT, ids=repr)
def test_non_numeric_vector_names_its_field(key, value):
    # T's shape sets J and N, so T is checked for two dimensions first.
    with pytest.raises(ValueError, match=f"^{key} must be "):
        EconomyParams.from_dict({**ECONOMY, key: value})


@pytest.mark.parametrize("key", SCENARIO_INTS)
@pytest.mark.parametrize("value", TEXT, ids=repr)
def test_non_numeric_integer_names_its_field(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be a whole number"):
        ScenarioConfig.from_dict({**SCENARIO, key: value})


SCALAR_TEXT = ("abc", [1.0, 2.0], {"x": 1}, None)


@pytest.mark.parametrize("field,build", [
    *[(k, lambda v, k=k: EconomyParams.from_dict({**ECONOMY, k: v}))
      for k in ("theta", "sigma", "gamma")],
    ("alpha2", lambda v: EconomyParams.two_tier([1.0, 1.0], [1.0, 1.0], [1.0, 1.0],
                                                 np.ones((2, 2)), v, 4.0, 3.0)),
    ("rho", lambda v: UtilitySpec(rho=v)),
    *[(k, lambda v, k=k: BeliefSet.from_dict({**BELIEFS, k: v}))
      for k in ("zeta_lo", "zeta_hi")],
    *[(k, lambda v, k=k: ShockParams.from_dict({**SHOCK, k: v}))
      for k in ("eta", "lam", "zeta")],
    *[(k, lambda v, k=k: SolverConfig(**{k: v}))
      for k in ("tolerance", "damping", "world_income")],
])
@pytest.mark.parametrize("value", SCALAR_TEXT, ids=repr)
def test_non_numeric_scalar_names_its_field(field, build, value):
    with pytest.raises(ValueError, match=f"^{field} must be a number, got "):
        build(value)


def test_tier_constructors_name_non_numeric_technology():
    with pytest.raises(ValueError, match="^T must be strictly positive"):
        EconomyParams.one_tier(["a", "b"], [1.0, 1.0], np.ones((2, 2)), 4.0, 3.0)
    with pytest.raises(ValueError, match="^T must be strictly positive"):
        EconomyParams.two_tier(["a", "b"], [1.0, 1.0], [1.0, 1.0], np.ones((2, 2)), 0.5, 4.0, 3.0)


def test_non_numeric_costs_name_their_field():
    params = symmetric_two_tier()
    with pytest.raises(ValueError, match="^costs must be strictly positive"):
        planner_risk_sourcing(params, ShockParams(**SHOCK), UtilitySpec(rho=2.0),
                              grid_resolution=11, costs=["a", "b"])
    with pytest.raises(ValueError, match="^suppliers_per_tier must be a whole number"):
        SourcingAllocation.uniform_tiers([0.5, 0.5], "ten", 2)


def test_numeric_strings_still_convert():
    cfg = ScenarioConfig.from_dict({**SCENARIO, "horizon": "20"})
    assert cfg.horizon == 20 and isinstance(cfg.horizon, int)
    params = EconomyParams.from_dict({**ECONOMY, "L": ["1", "2.5"]})
    assert params.L.tolist() == [1.0, 2.5]
    assert EconomyParams.from_dict({**ECONOMY, "theta": "4.5"}).theta == 4.5


def test_cli_names_non_numeric_field(tmp_path, capsys):
    econ = tmp_path / "econ.json"
    econ.write_text(json.dumps({**ECONOMY, "L": ["a", "b"]}))
    out = tmp_path / "out"
    assert main(["equilibrium", "--params", str(econ), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "L must be strictly positive and finite" in err
    assert "could not convert" not in err
    assert not out.exists()
    econ.write_text(json.dumps({**ECONOMY, "theta": "abc"}))
    assert main(["equilibrium", "--params", str(econ), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "theta must be a number, got 'abc'" in err
    assert "could not convert" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# booleans are not numbers, though bool is an int subclass

def _boolean_scalar_rows():
    params = symmetric_two_tier()
    unit = np.ones(2)
    cfg = ScenarioConfig.from_dict({**SCENARIO, "grid_resolution": 11})
    for key in SCENARIO_INTS:
        yield key, lambda v, k=key: ScenarioConfig.from_dict({**SCENARIO, k: v})
    for key in ("theta", "sigma", "gamma"):
        yield key, lambda v, k=key: EconomyParams.from_dict({**ECONOMY, k: v})
    for key in SHOCK:
        yield key, lambda v, k=key: ShockParams.from_dict({**SHOCK, k: v})
    for key in BELIEFS:
        yield key, lambda v, k=key: BeliefSet.from_dict({**BELIEFS, k: v})
    for key in ("tolerance", "damping", "world_income", "max_iterations"):
        yield key, lambda v, k=key: SolverConfig(**{k: v})
    yield "max_iterations", lambda v: solve_costs(unit, params, max_iterations=v)
    yield "rho", lambda v: UtilitySpec(rho=v)
    yield "alpha2", lambda v: EconomyParams.two_tier([1.0, 1.0], [1.0, 1.0], [1.0, 1.0],
                                                     np.ones((2, 2)), v, 4.0, 3.0)
    yield "shock location", lambda v: apply_shock([1.0, 2.0], ShockDraw(v))
    yield "dest", lambda v: price_index(v, params, unit)
    yield "j", lambda v: local_chain_real_wage(v, params, 0.5)
    yield "pi_jj", lambda v: local_chain_real_wage(0, params, v)
    yield "z", lambda v: chain_productivity_cdf(v, [0, 1], params)
    yield "z", lambda v: chain_productivity_theta_sensitivity(v, [0, 1], params)
    # A one-sector table of booleans used to read as a valid table of ones.
    for name in ("Z", "F", "v", "x"):
        yield name, lambda v, k=name: WorldIOTable(
            countries=["A"], sectors=["M"],
            **{"Z": [[0.0]], "F": [[1.0]], "v": [1.0], "x": [1.0],
               k: [[v]] if k in ("Z", "F") else [v]})
    yield "n_runs", lambda v: monte_carlo_survival(cfg, n_runs=v, seed=0)
    yield "initial", lambda v: simulate_regime(ShockParams(**SHOCK), [0.1], initial=v)
    yield ("suppliers_per_tier",
           lambda v: SourcingAllocation.uniform_tiers([0.5, 0.5], v, 2))
    # False used to read as 0.0: a valid draw, and a valid share next to True.
    shock = ShockParams(**SHOCK)
    yield "rand", lambda v: draw_shock(shock, v)
    yield "rand", lambda v: step_regime(RegimeState.all_normal(2), shock, [v, v])
    yield "draws", lambda v: simulate_regime(shock, [v, v])
    yield "phi", lambda v: SourcingAllocation(phi=[[v], [not v]], M=[3])
    yield "weights", lambda v: SourcingAllocation.uniform_tiers([v, not v], 3, 2)
    yield "labor", lambda v: apply_shock([v, v], ShockDraw(None))


BOOLEAN_SCALAR_ROWS = list(_boolean_scalar_rows())


@pytest.mark.parametrize("value", (True, False, np.True_, np.array(False)), ids=repr)
@pytest.mark.parametrize("field,call", BOOLEAN_SCALAR_ROWS,
                         ids=[field for field, _ in BOOLEAN_SCALAR_ROWS])
def test_boolean_scalar_names_its_field(field, call, value):
    with pytest.raises(ValueError, match=f"^{field} must be a (whole )?number, got "):
        call(value)


@pytest.mark.parametrize("value", ([True, False], np.array([False, True])), ids=repr)
@pytest.mark.parametrize("field,call", [
    ("path", lambda v: chain_productivity_location(v, symmetric_two_tier())),
    ("M", lambda v: SourcingAllocation(phi=[[0.5, 0.5], [0.5, 0.5]], M=v)),
    ("state", lambda v: RegimeState(v, [0, 0])),
    ("periods_in_state", lambda v: RegimeState([0, 1], v)),
], ids=("path", "M", "state", "periods_in_state"))
def test_boolean_array_names_its_field(field, call, value):
    with pytest.raises(ValueError, match=f"^{field} must be a whole number, got "):
        call(value)


def test_cli_rejects_boolean_horizon(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SCENARIO, "horizon": True}))
    assert '"horizon": true' in cfg.read_text()
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "horizon must be a whole number, got True" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ("T", "L", "tau"))
def test_boolean_vector_names_its_field(tmp_path, capsys, key):
    # All true reads as all ones, a valid T, L and tau of this economy.
    value = np.ones(np.shape(ECONOMY[key]), dtype=bool).tolist()
    with pytest.raises(ValueError, match=f"^{key} must be strictly positive and finite"):
        EconomyParams.from_dict({**ECONOMY, key: value})
    econ = tmp_path / "econ.json"
    econ.write_text(json.dumps({**ECONOMY, key: value}))
    assert "true" in econ.read_text()
    out = tmp_path / "out"
    assert main(["equilibrium", "--params", str(econ), "--out", str(out)]) == 2
    assert f"{key} must be strictly positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ([True, True], np.array([True, True])), ids=repr)
@pytest.mark.parametrize("field,call", [
    ("initial_wages", lambda v: solve_equilibrium(symmetric_two_tier(),
                                                  SolverConfig(initial_wages=v))),
    ("costs", lambda v: allocation_value(SourcingAllocation.uniform_tiers([0.5, 0.5], 10, 2),
                                         ShockDraw(None), symmetric_two_tier(), v)),
    ("costs", lambda v: planner_risk_sourcing(symmetric_two_tier(), ShockParams(**SHOCK),
                                              UtilitySpec(rho=2.0), grid_resolution=11,
                                              costs=v)),
], ids=("initial_wages", "allocation_value.costs", "planner_risk_sourcing.costs"))
def test_boolean_positive_array_names_its_field(field, call, value):
    with pytest.raises(ValueError, match=f"^{field} must be strictly positive and finite"):
        call(value)


# ---------------------------------------------------------------------------
# the positive-array rule: a float64 array is checked as it is, anything
# else is converted to float64 first, and both meet one value test

def test_positive_array_returns_float64_input_itself():
    arr = np.array([[0.5, 2.0], [1.0, 3.0]])
    assert _positive_array(arr, (2, 2), "x") is arr
    strided = arr[:, 1]
    assert not strided.flags.c_contiguous
    assert _positive_array(strided, (2,), "x") is strided


@pytest.mark.parametrize("value", (np.array([0.5, 3.0], dtype=np.float32), np.array([1, 3]),
                                   [0.5, 3.0], [1, 3]), ids=repr)
def test_positive_array_converts_other_input_to_float64(value):
    arr = _positive_array(value, (2,), "x")
    assert type(arr) is np.ndarray and arr.dtype == np.float64
    assert arr.tobytes() == np.array([float(v) for v in value]).tobytes()


@pytest.mark.parametrize("shape,value", [
    ((2,), [1.0, math.nan]), ((2,), [math.inf, 1.0]), ((2,), [-math.inf, 1.0]),
    ((2,), [0.0, 1.0]), ((2,), [1.0, -0.5]), ((2,), [1.0, 2.0, 3.0]), ((2,), [[1.0, 2.0]]),
    ((2,), []), ((2,), 1.0), ((2, 2), [[1.0, 2.0], [math.nan, 1.0]]),
    ((2, 2), [[1.0, 2.0], [3.0, 0.0]]),
], ids=repr)
@pytest.mark.parametrize("form", (list, np.array, lambda v: np.array(v, dtype=np.float32)),
                         ids=("list", "float64", "float32"))
def test_positive_array_refusals_keep_their_message(shape, value, form):
    message = re.escape(f"costs must be strictly positive and finite with shape {shape}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        _positive_array(form(value) if np.ndim(value) else value, shape, "costs")


@pytest.mark.parametrize("value", ([True, True], np.array([True, True]),
                                   np.array([math.nan, 1.0, 2.0, 1.0])[::2],
                                   np.array([1.0, 2.0, 0.0, 2.0])[::2]), ids=repr)
def test_positive_array_refuses_booleans_and_strided_faults(value):
    with pytest.raises(ValueError,
                       match=r"^costs must be strictly positive and finite with shape \(2,\)$"):
        price_index(0, symmetric_two_tier(), value)
