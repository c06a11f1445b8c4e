"""Every numeric input rejects NaN, infinities and out-of-range values.

One table covers each numeric field of the config objects, through the
constructor and through ``from_dict`` where one exists, and the costs and
count arguments of the public sourcing functions.  Integer fields also get
a fraction, which must not be truncated into a different experiment.
"""

import functools
import json
import math
import re
import warnings
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Callable, NamedTuple

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
    composite_cost,
    compute_fmr,
    crra_utility,
    draw_shock,
    individual_sourcing,
    intermediate_flow_shares,
    kappa,
    labor_market_residuals,
    local_chain_real_wage,
    monte_carlo_survival,
    path_share,
    planner_ambiguity_sourcing,
    planner_risk_sourcing,
    price_index,
    price_indices,
    risk_objective,
    simulate_regime,
    solve_costs,
    solve_equilibrium,
    step_regime,
)
from gscsim.chains import _whole, _within
from gscsim.cli import main

from conftest import oracle_economy, symmetric_two_tier
from test_identity import load_tool

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
            # Location 0 is a destination and seed 0 a seed; a negative seed,
            # which monte_carlo_survival refuses, was accepted here.
            if key in ("destination", "seed") and v == 0.0:
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
           ValueError, "alpha must lie in (0, 1], got 1.5")
    for v in (0.0, 1.0):
        yield (f"EconomyParams.two_tier.alpha2={v}",
               lambda v=v: EconomyParams.two_tier(T1=[1.0, 1.0], T2=[1.0, 1.0], L=[1.0, 1.0],
                                                  tau=np.ones((2, 2)), alpha2=v,
                                                  theta=4.0, sigma=2.0),
               ValueError, f"alpha2 must lie in (0, 1), got {v}")
    yield ("chain_cost_scale.path.length", lambda: chain_cost_scale([0], 0, params, unit),
           ValueError, "path must have shape (2,), got (1,)")
    yield ("intermediate_flow_shares.one_tier",
           lambda: intermediate_flow_shares(oracle_economy(), np.ones(3)),
           ValueError, "intermediate flows need at least two tiers")
    for v in (0.0, 1.5):
        yield (f"local_chain_real_wage.pi_jj={v}", lambda v=v: local_chain_real_wage(0, params, v),
               ValueError, "pi_jj must lie in (0, 1]")
    yield ("RegimeState.shapes", lambda: RegimeState([0, 1], [0]),
           ValueError, "state and periods_in_state must align")
    yield ("simulate_regime.draws.2d", lambda: simulate_regime(shock, [[0.1, 0.9]]),
           ValueError, "draws must have shape (n,), got (1, 2)")
    yield ("SourcingAllocation.phi.1d", lambda: SourcingAllocation(phi=[0.5, 0.5], M=[10]),
           ValueError, "phi must have shape (locations, tiers), got (2,)")
    yield ("SourcingAllocation.M.length",
           lambda: SourcingAllocation(phi=[[0.5], [0.5]], M=[10, 10]),
           ValueError, "M must have shape (1,), got (2,)")
    # An allocation with no tiers used to be accepted, and survived an East hit.
    yield ("SourcingAllocation.no_tiers", lambda: SourcingAllocation(phi=np.zeros((2, 0)), M=[]),
           ValueError, "an allocation needs at least one tier")
    # uniform_tiers used to build that allocation from n_tiers = 0, and let
    # numpy refuse 2.5 and -1 in its own words.
    for v, message in ((0, "lie in [1, inf), got 0"), (-1, "lie in [1, inf), got -1"),
                       (2.5, "be a whole number, got 2.5")):
        yield (f"SourcingAllocation.uniform_tiers.n_tiers={v}",
               lambda v=v: SourcingAllocation.uniform_tiers([0.5, 0.5], 3, v),
               ValueError, f"n_tiers must {message}")
    # apply_shock used to return [0, nan] here, and took a 2-d array.
    yield ("apply_shock.labor", lambda: apply_shock([-1.0, math.nan], ShockDraw(0)),
           ValueError, "labor must lie in [0, inf), got -1.0")
    yield ("apply_shock.labor.2d", lambda: apply_shock([[1.0, 1.0]], ShockDraw(0)),
           ValueError, "labor must have shape (locations,), got (1, 2)")
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


def test_integer_input_stays_exact_past_2_53(monkeypatch):
    # Integer arrays used to pass through float64: 2**60 + 1 became 2**60,
    # and a uint64 past the intp maximum wrapped to a negative count.
    big = 2**60 + 1
    assert _whole(np.array([big]), "M", "[1, inf)", array=True).tolist() == [big]
    assert _whole([big], "M", "[1, inf)", array=True).tolist() == [big]
    assert _whole(np.array(big), "x", "[-inf, inf]") == big
    assert _whole(np.array([3], dtype=np.uint64), "M", "[1, inf)", array=True).dtype == np.intp
    # Bounds compare as Python ints too: one past a bound of 2**60 + 1 is refused.
    cfg = ScenarioConfig.from_dict({**SCENARIO, "horizon": big, "shock_period": big})
    assert cfg.horizon == cfg.shock_period == big
    message = f"shock_period must lie in [1, {big}], got {big + 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ScenarioConfig.from_dict({**SCENARIO, "horizon": big, "shock_period": big + 1})
    top, huge = np.iinfo(np.intp).max, 2**63 + 5
    for field, call in (
            ("M", lambda: SourcingAllocation(phi=[[0.5], [0.5]],
                                             M=np.array([huge], dtype=np.uint64))),
            ("periods_in_state", lambda: RegimeState([0], np.array([huge], dtype=np.uint64)))):
        with pytest.raises(ValueError, match=f"^{field} must be at most {top}$"):
            call()
    # A path's own bound comes first.
    with pytest.raises(ValueError, match=f"^path must lie in \\[0, 1\\], got {huge}$"):
        chain_productivity_location(np.array([0, huge], dtype=np.uint64), symmetric_two_tier())
    seeds, default_rng = [], np.random.default_rng

    def spy(seed):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    cfg = ScenarioConfig.from_dict({**SCENARIO, "grid_resolution": 11})
    monte_carlo_survival(cfg, 10, np.array(big))
    assert seeds == [big] and type(seeds[0]) is int


@pytest.mark.parametrize("M", ([1e30], [2**70], [2.0**63], np.array([2.0**63])), ids=repr)
def test_whole_arrays_refuse_entries_past_intp(M):
    # A float or object array used to be cast to intp unchecked: under -W
    # error the cast raised a RuntimeWarning, and without it the count
    # wrapped to a negative number that then read as too small.
    top = np.iinfo(np.intp).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^M must be at most {top}$"):
            SourcingAllocation(phi=[[0.5], [0.5]], M=M)


def _range_values(spec: str, whole: bool) -> tuple[list, list]:
    """(accepted, refused) values of the interval ``spec``: each closed bound
    is accepted, and for whole numbers its float too; each open bound and
    NaN are refused, and past each finite bound the next float, or for
    whole numbers one and seven further, as an int and as a float."""
    low, high = (float(bound) for bound in spec[1:-1].split(","))
    accepted, refused = [], [math.nan]
    for bound, closed, outward in ((low, spec[0] == "[", -1), (high, spec[-1] == "]", 1)):
        if closed:
            accepted += [int(bound), bound] if whole else [bound]
        else:
            refused.append(bound)
        if math.isfinite(bound) and whole:
            refused += [int(bound) + outward, bound + outward, int(bound) + 7 * outward]
        elif math.isfinite(bound):
            refused.append(float(np.nextafter(bound, outward * math.inf)))
    return accepted, refused


class Input(NamedTuple):
    """A numeric input: its name, its range as the message writes it, and
    ``call(v)``, which passes ``v`` as the input or as one entry of it.  An
    array input also gives ``put(a)``, which passes ``a`` as the whole
    array, a valid ``good`` value, and its shape as the message writes it
    (None where any shape is taken); ``scalar`` marks an array input that
    also takes one number for every entry."""
    field: str
    spec: str
    call: Callable
    whole: bool = False
    put: Callable | None = None
    good: list | None = None
    shape: str | None = None
    scalar: bool = False


def _array(field, spec, put, good, index, shape, whole=False, scalar=False) -> Input:
    """The input ``put`` takes, with ``call(v)`` setting entry ``index`` of ``good``."""
    def call(v):
        value = np.array(good, dtype=object)
        value[index] = v
        return put(value.tolist())
    return Input(field, spec, call, whole, put, good, shape, scalar)


def _refusal(row: Input, value) -> str:
    """The message refusing ``value``: a whole input first needs a whole number."""
    if row.whole and not math.isfinite(value):
        return f"^{row.field} must be a whole number, got "
    number = int(value) if row.whole else float(value)
    return f"^{re.escape(f'{row.field} must lie in {row.spec}, got {number}')}$"


def _check_input(row: Input) -> None:
    accepted, refused = _range_values(row.spec, row.whole)
    for value in accepted:
        row.call(value)
    for value in refused:
        with pytest.raises(ValueError, match=_refusal(row, value)):
            row.call(value)
    if row.put is None:
        return
    lone = np.ravel(row.good)[0].item()
    if row.scalar:
        row.put(lone)
    if row.shape is not None:
        # One dimension too many, and a lone number where an array belongs.
        for wrong in [[row.good]] + [lone] * (not row.scalar):
            message = f"{row.field} must have shape {row.shape}, got {np.shape(wrong)}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                row.put(wrong)
    text = np.array(row.good, dtype=object)
    text.flat[0] = "abc"
    for value in (text.tolist(), [row.good, [np.ravel(row.good)[0]]]):
        with pytest.raises(ValueError, match=f"^{row.field} must be a (whole )?number, got "):
            row.put(value)


# The index of each economy array that a row sets; an off-diagonal tau entry,
# and alpha's first entry, whose value 1 keeps sum(alpha * beta) = 1.
ECONOMY_ENTRY = {"T": (0, 1), "L": 1, "tau": (0, 1), "alpha": 0, "beta": 0}
ECONOMY_SHAPE = {"T": "(locations, tiers)", "L": "(2,)", "tau": "(2, 2)", "alpha": "(2,)",
                 "beta": "(2,)"}


def _economy_inputs():
    for key, spec in (("T", "(0, inf)"), ("L", "(0, inf)"), ("tau", "[1, inf)"),
                      ("alpha", "(0, 1]"), ("beta", "(0, inf)"), ("theta", "(0, inf)"),
                      ("sigma", "(1, inf)"), ("gamma", "(0, 1]")):
        for build in (lambda d: EconomyParams(**d), EconomyParams.from_dict):
            if key in ECONOMY_ENTRY:
                yield _array(key, spec, lambda a, k=key, b=build: b({**ECONOMY, k: a}),
                             ECONOMY[key], ECONOMY_ENTRY[key], ECONOMY_SHAPE[key])
            else:
                yield Input(key, spec, lambda v, k=key, b=build: b({**ECONOMY, k: v}))
    yield Input("alpha2", "(0, 1)", lambda v: EconomyParams.two_tier(
        T1=[1.0, 1.0], T2=[1.0, 1.0], L=[1.0, 1.0], tau=np.ones((2, 2)), alpha2=v,
        theta=4.0, sigma=2.0))
    yield Input("theta", "(0, inf)", lambda v: kappa(v, 2.0))
    yield Input("sigma", "(1, inf)", lambda v: kappa(4.0, v))


def _chain_inputs():
    params, unit = symmetric_two_tier(), np.ones(2)
    yield Input("pi_jj", "(0, 1]", lambda v: local_chain_real_wage(0, params, v))
    yield Input("z", "[-inf, inf]", lambda v: chain_productivity_cdf(v, [0, 1], params))
    for name, call in (("dest", lambda d: chain_cost_scale([0, 1], d, params, unit)),
                       ("dest", lambda d: path_share([0, 1], d, params, unit)),
                       ("dest", lambda d: price_index(d, params, unit)),
                       ("j", lambda j: local_chain_real_wage(j, params, 0.5))):
        yield Input(name, "[0, 1]", call, whole=True)
    for put in (lambda p: chain_cost_scale(p, 0, params, unit),
                lambda p: path_share(p, 0, params, unit),
                lambda p: chain_productivity_location(p, params),
                lambda p: chain_productivity_cdf(1.5, p, params),
                lambda p: chain_productivity_theta_sensitivity(1.5, p, params)):
        yield _array("path", "[0, 1]", put, [0, 1], 1, "(2,)", whole=True)
    for name, put in (("costs", lambda c: price_indices(params, c)),
                      ("costs", lambda c: solve_costs(c, params)),
                      ("wages", lambda w: labor_market_residuals(w, params)),
                      ("initial_wages", lambda w: solve_equilibrium(
                          params, SolverConfig(initial_wages=w))),
                      ("expenditure_weights",
                       lambda w: intermediate_flow_shares(params, unit, w))):
        yield _array(name, "(0, inf)", put, [1.0, 1.0], 1, "(2,)")
    for name, put in (("wages", lambda w: composite_cost(w, unit, 0.5)),
                      ("prices", lambda P: composite_cost(unit, P, 0.5))):
        yield _array(name, "(0, inf)", put, [1.0, 1.0], 1, None, scalar=True)
    yield Input("gamma", "(0, 1]", lambda g: composite_cost(unit, unit, g))


def _solver_inputs():
    for key, spec in (("tolerance", "(0, inf)"), ("damping", "(0, 1]"),
                      ("world_income", "(0, inf)")):
        yield Input(key, spec, lambda v, k=key: SolverConfig(**{k: v}))
    yield Input("max_iterations", "[0, inf)", lambda v: SolverConfig(max_iterations=v), whole=True)
    yield Input("max_iterations", "[1, inf)",
                lambda v: solve_costs(np.ones(2), symmetric_two_tier(), max_iterations=v),
                whole=True)
    # At gamma 1 no cost loop runs, so this shows the check runs before any.
    yield Input("tolerance", "(0, inf)",
                lambda v: solve_costs(np.ones(2), symmetric_two_tier(), tolerance=v))


def _odds_inputs():
    for cls, base, spec in ((ShockParams, SHOCK, "[0, 1]"), (UtilitySpec, {"rho": 2.0}, "[0, inf)"),
                            (BeliefSet, {"zeta_lo": 0.0, "zeta_hi": 1.0}, "[0, 1]")):
        for key in base:
            yield Input(key, spec, lambda v, c=cls, b=base, k=key: c(**{**b, k: v}))
            yield Input(key, spec, lambda v, c=cls, b=base, k=key: c.from_dict({**b, k: v}))


def _sourcing_inputs():
    params, shock, unit = symmetric_two_tier(), ShockParams(**SHOCK), np.ones(2)
    beliefs, utility = BeliefSet(**BELIEFS), UtilitySpec(rho=2.0)
    alloc = SourcingAllocation.uniform_tiers([0.5, 0.5], 10, 2)
    yield Input("phi", "[0, 1]", lambda v: SourcingAllocation(phi=[[v, 0.5], [1.0 - v, 0.5]],
                                                               M=[3, 3]),
                put=lambda p: SourcingAllocation(phi=p, M=[3, 3]),
                good=[[0.5, 0.5], [0.5, 0.5]], shape="(locations, tiers)")
    yield _array("M", "[1, inf)", lambda m: SourcingAllocation(phi=[[0.5, 0.5], [0.5, 0.5]], M=m),
                 [10, 10], 0, "(2,)", whole=True)
    yield Input("weights", "[0, 1]",
                lambda v: SourcingAllocation.uniform_tiers([v, 1.0 - v], 3, 2),
                put=lambda w: SourcingAllocation.uniform_tiers(w, 3, 2),
                good=[0.5, 0.5], shape="(locations,)")
    yield Input("suppliers_per_tier", "[1, inf)",
                lambda v: SourcingAllocation.uniform_tiers(unit / 2, v, 2), whole=True)
    yield Input("n_tiers", "[1, inf)",
                lambda v: SourcingAllocation.uniform_tiers(unit / 2, 3, v), whole=True)
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
    for put in calls.values():
        yield _array("costs", "(0, inf)", put, [1.0, 1.0], 1, "(2,)")
    for call in (lambda v: individual_sourcing(params, shock, suppliers_per_tier=v, costs=unit),
                 lambda v: planner_risk_sourcing(params, shock, utility, grid_resolution=11,
                                                 suppliers_per_tier=v, costs=unit),
                 lambda v: planner_ambiguity_sourcing(params, shock, beliefs, grid_resolution=11,
                                                      suppliers_per_tier=v, costs=unit)):
        yield Input("suppliers_per_tier", "[1, inf)", call, whole=True)
    yield Input("grid_resolution", "[2, inf)", lambda v: planner_risk_sourcing(
        params, shock, utility, grid_resolution=v, costs=unit), whole=True)


def _scenario_inputs():
    # shock_period 1 lets the horizon reach its own floor.
    base = {**SCENARIO, "shock_period": 1}
    for key, spec in (("horizon", "[1, inf)"), ("suppliers_per_tier", "[1, inf)"),
                      ("grid_resolution", "[2, inf)"), ("destination", "[0, 1]"),
                      ("seed", "[0, inf)")):
        yield Input(key, spec, lambda v, k=key: ScenarioConfig.from_dict({**base, k: v}),
                    whole=True)
        yield Input(key, spec, lambda v, k=key: ScenarioConfig(
            economy=EconomyParams.from_dict(ECONOMY), shock=ShockParams(**SHOCK),
            **{**{k2: base[k2] for k2 in SCENARIO_INTS}, k: v}), whole=True)
    yield Input("shock_period", f"[1, {SCENARIO['horizon']}]",
                lambda v: ScenarioConfig.from_dict({**SCENARIO, "shock_period": v}), whole=True)
    cfg = ScenarioConfig.from_dict({**SCENARIO, "grid_resolution": 11})
    yield Input("n_runs", "[1, inf)", lambda v: monte_carlo_survival(cfg, n_runs=v, seed=0),
                whole=True)
    yield Input("seed", "[0, inf)", lambda v: monte_carlo_survival(cfg, n_runs=10, seed=v),
                whole=True)


def _shock_inputs():
    params, unit = symmetric_two_tier(), np.ones(2)
    shock = ShockParams(0.3, 0.5, 0.5)
    alloc = SourcingAllocation(phi=[[1.0, 1.0], [0.0, 0.0]], M=[3, 3])
    for call in (lambda d: apply_shock([1.0, 1.0], ShockDraw(d)),
                 lambda d: chain_survives(alloc, ShockDraw(d)),
                 lambda d: allocation_value(alloc, ShockDraw(d), params, unit)):
        yield Input("shock location", "[0, 1]", call, whole=True)
    yield _array("labor", "[0, inf)", lambda a: apply_shock(a, ShockDraw(0)), [1.0, 1.0], 1,
                 "(locations,)")
    yield _array("state", "[0, 1]", lambda s: RegimeState(s, [0, 0]), [0, 1], 1, None, whole=True)
    yield _array("periods_in_state", "[0, inf)", lambda p: RegimeState([0, 1], p), [0, 4], 0,
                 None, whole=True)
    yield Input("initial", "[0, 1]", lambda v: simulate_regime(shock, [0.9], initial=v),
                whole=True)
    yield _array("draws", "[0, 1)", lambda u: simulate_regime(shock, u), [0.1, 0.5, 0.9], 1,
                 "(n,)")
    yield _array("rand", "[0, 1)", lambda u: step_regime(RegimeState.all_normal(2), shock, u),
                 [0.1, 0.1], 0, "(2,)", scalar=True)
    yield Input("rand", "[0, 1)", lambda v: draw_shock(shock, v))


INPUT_ROWS = [*_economy_inputs(), *_chain_inputs(), *_solver_inputs(), *_odds_inputs(),
              *_sourcing_inputs(), *_scenario_inputs(), *_shock_inputs()]


@pytest.mark.parametrize("row", INPUT_ROWS,
                         ids=[f"{row.field}-{k}" for k, row in enumerate(INPUT_ROWS)])
def test_numeric_inputs_share_one_range_rule(row):
    # Each closed bound passes; each open bound, one step past each finite
    # bound and NaN are refused with one message naming the range, real or
    # whole, scalar or array.  An array of the wrong shape, of text or
    # ragged is refused with a message naming the field.
    _check_input(row)


# (section, field, numbers, range, default) of each row of the README's
# config ranges, read as the identity tool reads them for its range records.
README_ROWS = load_tool().RANGE_ROW.findall(
    (Path(__file__).resolve().parent.parent / "README.md").read_text())
SECTIONS = {"economy": EconomyParams, "shock": ShockParams, "utility": UtilitySpec,
            "beliefs": BeliefSet, "scenario": ScenarioConfig, "solver": SolverConfig}


def _section_call(section: str, key: str, value):
    """The config of ``section`` built from its JSON form with ``key`` (or
    one entry of it) set to ``value``; the solver takes keywords."""
    if section == "economy":
        return EconomyParams.from_dict(_set(ECONOMY, key, ECONOMY_ENTRY.get(key), value))
    if section == "solver":
        return SolverConfig(**{key: value})
    base = {"shock": SHOCK, "utility": {}, "beliefs": {"zeta_lo": 0.0, "zeta_hi": 1.0},
            "scenario": {**SCENARIO, "shock_period": 1}}[section]
    return SECTIONS[section].from_dict({**base, key: value})


def test_readme_range_table_has_one_row_per_bounded_field():
    # Every field with a bound, and nothing else; fields without one, such as
    # the scenario's modes and the solver's initial wages, have no row.
    unbounded = {("scenario", name) for name in ("economy", "shock", "decision_mode", "info_env",
                                                 "realization", "utility", "beliefs")}
    unbounded.add(("solver", "initial_wages"))
    rows = [(section, key) for section, key, *_ in README_ROWS]
    assert len(rows) == len(set(rows))
    assert set(rows) == {(section, f.name) for section, cls in SECTIONS.items()
                         for f in fields(cls)} - unbounded


@pytest.mark.parametrize("section,key,numbers,spec,default", README_ROWS,
                         ids=[f"{row[0]}.{row[1]}" for row in README_ROWS])
def test_readme_config_ranges_hold(section, key, numbers, spec, default):
    declared = {f.name: f.default for f in fields(SECTIONS[section])}[key]
    assert default == ("required" if declared is MISSING else f"`{declared}`")
    call = functools.partial(_section_call, section, key)
    spec = spec.replace("horizon", str(SCENARIO["horizon"]))
    _check_input(Input(key, spec, call, whole=numbers == "whole"))


HUGE = 10**400      # a JSON integer past float64's range
# The rows a config file sets; the CLI reads no solver section.
CLI_ROWS = [row[:3] for row in README_ROWS if row[0] != "solver"]


@pytest.mark.parametrize("section,key,numbers", CLI_ROWS,
                         ids=[f"{section}.{key}" for section, key, _ in CLI_ROWS])
def test_cli_refuses_integers_past_float64(tmp_path, capsys, section, key, numbers):
    # float() of such an integer raised OverflowError, which escaped main as
    # a traceback with exit 1.  A whole field takes it as a one-entry list.
    value = [HUGE] if numbers == "whole" else HUGE
    if section == "economy" and key in ECONOMY_ENTRY:
        entries = np.array(ECONOMY[key], dtype=object)
        entries[ECONOMY_ENTRY[key]] = HUGE
        value = entries.tolist()
    scenario = {**SCENARIO, "utility": {"rho": 2.0}, "beliefs": {"zeta_lo": 0.0, "zeta_hi": 1.0}}
    if section == "scenario":
        scenario[key] = value
    else:
        scenario[section] = {**scenario[section], key: value}
    runs = [("simulate", "--config", scenario)]
    if section == "economy":
        runs.append(("equilibrium", "--params", scenario["economy"]))
    for command, flag, config in runs:
        path, out = tmp_path / f"{command}.json", tmp_path / command
        path.write_text(json.dumps(config))
        assert main([command, flag, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{key} must be a " in err and "Traceback" not in err
        assert not out.exists()


def _single_value_rows():
    """(field, call) of whole numbers that take one value, not a sequence."""
    params, unit = symmetric_two_tier(), np.ones(2)
    cfg = ScenarioConfig.from_dict({**SCENARIO, "grid_resolution": 11})
    yield "dest", lambda v: price_index(v, params, unit)
    yield "j", lambda v: local_chain_real_wage(v, params, 0.5)
    yield "shock location", lambda v: apply_shock([1.0, 1.0], ShockDraw(v))
    yield "initial", lambda v: simulate_regime(ShockParams(0.3, 0.5, 0.5), [0.9], initial=v)
    for key in SCENARIO_INTS:
        yield key, lambda v, k=key: ScenarioConfig.from_dict({**SCENARIO, k: v})
    yield "max_iterations", lambda v: SolverConfig(max_iterations=v)
    yield "n_runs", lambda v: monte_carlo_survival(cfg, n_runs=v, seed=0)
    yield "seed", lambda v: monte_carlo_survival(cfg, n_runs=10, seed=v)
    yield "suppliers_per_tier", lambda v: SourcingAllocation.uniform_tiers(unit / 2, v, 2)


SINGLE_VALUE_ROWS = list(_single_value_rows())


@pytest.mark.parametrize("value", ([0, 1], [1], [], [[1]]), ids=repr)
@pytest.mark.parametrize("field,call", SINGLE_VALUE_ROWS,
                         ids=[f"{row[0]}-{k}" for k, row in enumerate(SINGLE_VALUE_ROWS)])
def test_single_whole_numbers_refuse_sequences(field, call, value):
    # A one-element list location used to pass (ShockDraw([1]) zeroed row
    # 1, j=[1] gave an array of real wages), and a list seed ran the
    # scenario, then broke the manifest.
    with pytest.raises(ValueError, match=f"^{field} must be a single value, "
                                         f"got {re.escape(str(value))}$"):
        call(value)


def test_location_indices_name_their_field_and_whole_floats_convert():
    params = symmetric_two_tier()
    unit = np.ones(2)
    with pytest.raises(ValueError, match="^path must be a whole number"):
        chain_productivity_location([0.5, 0], params)
    with pytest.raises(ValueError, match=r"^path must lie in \[0, 1\], got -1$"):
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
            with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\], got {i}$"):
                call(i)


def test_shock_locations_and_regimes_name_their_field():
    alloc = SourcingAllocation(phi=[[1.0, 1.0], [0.0, 0.0]], M=[3, 3])
    for v in (-1, 2):
        with pytest.raises(ValueError, match=rf"^shock location must lie in \[0, 1\], got {v}$"):
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
    with pytest.raises(ValueError, match=r"^periods_in_state must lie in \[0, inf\), got -3$"):
        RegimeState([0, 1], [-3, 2])
    state = RegimeState([0.0, 1.0], [4.0, 0.0])
    assert state.state.dtype == state.periods_in_state.dtype == np.intp
    assert state.state.tolist() == [0, 1] and state.periods_in_state.tolist() == [4, 0]


def test_simulate_regime_initial_names_its_field():
    shock = ShockParams(0.3, 0.5, 0.5)
    for v in (0.5, math.nan):
        with pytest.raises(ValueError, match="^initial must be a whole number, got "):
            simulate_regime(shock, [0.9], initial=v)
    for v, message in ((2, r"lie in \[0, 1\], got 2"), (-1, r"lie in \[0, 1\], got -1"),
                       (2.0, r"lie in \[0, 1\], got 2"),
                       ([0, 1], r"be a single value, got \[0, 1\]")):
        with pytest.raises(ValueError, match=f"^initial must {message}$"):
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

TEXT = (["a", "b"], "abc", [[1.0, 2.0], [3.0]], {"x": 1}, "3", ["1", "2"], b"2")


@pytest.mark.parametrize("key", ("T", "L", "tau", "alpha", "beta"))
@pytest.mark.parametrize("value", TEXT, ids=repr)
def test_non_numeric_vector_names_its_field(key, value):
    # T's shape sets J and N, so T is checked for two dimensions first.
    with pytest.raises(ValueError, match=f"^{key} must be "):
        EconomyParams.from_dict({**ECONOMY, key: value})


@pytest.mark.parametrize("key", ("Z", "F", "v", "x"))
@pytest.mark.parametrize("value", (["a", "b"], [[1.0, 2.0], [3.0]]), ids=repr)
def test_non_numeric_table_array_names_its_field(key, value):
    # numpy's own "could not convert string to float" and "setting an array
    # element with a sequence" used to escape here.
    with pytest.raises(ValueError, match=f"^{key} must be a number, got "):
        _io_table(**{key: value})


def test_non_numeric_array_message_is_abridged():
    # The message quotes an abridged value, not every entry of a large table.
    Z = np.zeros((300, 300)).tolist()
    Z[5][7] = "a"
    with pytest.raises(ValueError, match=r"^Z must be a number, got \[\[0\.0, ") as err:
        WorldIOTable(countries=[f"C{i}" for i in range(300)], sectors=["M"], Z=Z,
                     F=np.zeros((300, 300)), v=np.zeros(300), x=np.zeros(300))
    assert len(str(err.value)) < 300


@pytest.mark.parametrize("key", SCENARIO_INTS)
@pytest.mark.parametrize("value", TEXT, ids=repr)
def test_non_numeric_integer_names_its_field(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be a whole number"):
        ScenarioConfig.from_dict({**SCENARIO, key: value})


SCALAR_TEXT = ("abc", [1.0, 2.0], {"x": 1}, None, "3", b"2")


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
    with pytest.raises(ValueError, match="^T must be a number, got "):
        EconomyParams.one_tier(["a", "b"], [1.0, 1.0], np.ones((2, 2)), 4.0, 3.0)
    with pytest.raises(ValueError, match="^T must be a number, got "):
        EconomyParams.two_tier(["a", "b"], [1.0, 1.0], [1.0, 1.0], np.ones((2, 2)), 0.5, 4.0, 3.0)


def test_non_numeric_costs_name_their_field():
    params = symmetric_two_tier()
    with pytest.raises(ValueError, match=r"^costs must be a number, got \['a', 'b'\]$"):
        planner_risk_sourcing(params, ShockParams(**SHOCK), UtilitySpec(rho=2.0),
                              grid_resolution=11, costs=["a", "b"])
    with pytest.raises(ValueError, match="^suppliers_per_tier must be a whole number"):
        SourcingAllocation.uniform_tiers([0.5, 0.5], "ten", 2)


@pytest.mark.parametrize("value", [
    "1", b"1", bytearray(b"1"), np.str_("1"), ["1"], (1.0, "1"),
    np.array(["1"]), np.array([b"1"]), np.array([1.0, "1"], dtype=object),
], ids=repr)
def test_numeric_text_is_not_a_number(value):
    # float and numpy read "1" as 1, so text in a config used to load.
    array = isinstance(value, (list, tuple, np.ndarray))
    with pytest.raises(ValueError, match="^x must be a number, got "):
        _within(value, "x", "(0, 1]", array=array)
    with pytest.raises(ValueError, match="^n must be a whole number, got "):
        _whole(value, "n", "[1, inf)", array=array)


def test_cli_names_non_numeric_field(tmp_path, capsys):
    econ = tmp_path / "econ.json"
    econ.write_text(json.dumps({**ECONOMY, "L": ["a", "b"]}))
    out = tmp_path / "out"
    assert main(["equilibrium", "--params", str(econ), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "L must be a number, got ['a', 'b']" in err
    assert "could not convert" not in err
    assert not out.exists()
    econ.write_text(json.dumps({**ECONOMY, "theta": "abc"}))
    assert main(["equilibrium", "--params", str(econ), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "theta must be a number, got 'abc'" in err
    assert "could not convert" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    ("simulate", {**SCENARIO, "horizon": "3", "shock_period": "2"},
     "horizon must be a whole number, got '3'"),
    ("equilibrium", {**ECONOMY, "L": ["1", "2"]}, "L must be a number, got ['1', '2']"),
])
def test_cli_refuses_numeric_text(tmp_path, capsys, command, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    flag = "--config" if command == "simulate" else "--params"
    assert main([command, flag, str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
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


# [True, 1] and [1.0, True] mix a boolean among numbers, which numpy reads as 1
@pytest.mark.parametrize("value", ([True, False], np.array([False, True]), [True, 1], [1.0, True]),
                         ids=repr)
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


@pytest.mark.parametrize("mixed", (False, True), ids=("all", "mixed"))
@pytest.mark.parametrize("key", ("T", "L", "tau"))
def test_boolean_vector_names_its_field(tmp_path, capsys, key, mixed):
    # All true reads as all ones, a valid T, L and tau of this economy; so
    # does a first entry of true among the economy's own numbers.
    value = np.ones(np.shape(ECONOMY[key]), dtype=bool).tolist()
    if mixed:
        value = np.array(ECONOMY[key], dtype=object)
        value.flat[0] = True
        value = value.tolist()
    with pytest.raises(ValueError, match=f"^{key} must be a number, got "):
        EconomyParams.from_dict({**ECONOMY, key: value})
    econ = tmp_path / "econ.json"
    econ.write_text(json.dumps({**ECONOMY, key: value}))
    assert "true" in econ.read_text()
    out = tmp_path / "out"
    assert main(["equilibrium", "--params", str(econ), "--out", str(out)]) == 2
    assert f"{key} must be a number, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ([True, True], np.array([True, True]), [True, 1.0]), ids=repr)
@pytest.mark.parametrize("field,call", [
    ("initial_wages", lambda v: solve_equilibrium(symmetric_two_tier(),
                                                  SolverConfig(initial_wages=v))),
    ("costs", lambda v: allocation_value(SourcingAllocation.uniform_tiers([0.5, 0.5], 10, 2),
                                         ShockDraw(None), symmetric_two_tier(), v)),
    ("costs", lambda v: planner_risk_sourcing(symmetric_two_tier(), ShockParams(**SHOCK),
                                              UtilitySpec(rho=2.0), grid_resolution=11,
                                              costs=v)),
    ("labor", lambda v: apply_shock(v, ShockDraw(None))),
    ("T", lambda v: EconomyParams.one_tier(T=v, L=[1.0, 1.0], tau=np.ones((2, 2)),
                                           theta=4.0, sigma=2.0)),
    ("T", lambda v: EconomyParams.two_tier(T1=v, T2=[1.0, 1.0], L=[1.0, 1.0],
                                           tau=np.ones((2, 2)), alpha2=0.5, theta=4.0,
                                           sigma=2.0)),
    ("wages", lambda v: composite_cost(v, [1.0, 1.0], 0.5)),
], ids=("initial_wages", "allocation_value.costs", "planner_risk_sourcing.costs",
        "apply_shock.labor", "one_tier.T", "two_tier.T", "composite_cost.wages"))
def test_boolean_real_array_names_its_field(field, call, value):
    with pytest.raises(ValueError, match=f"^{field} must be a number, got "):
        call(value)


# ---------------------------------------------------------------------------
# the interval rule on arrays: a float64 array is checked as it is, anything
# else is converted to float64 first, and both meet one shape and value test

def test_within_returns_float64_input_itself():
    arr = np.array([[0.5, 2.0], [1.0, 3.0]])
    assert _within(arr, "x", "(0, inf)", array=(2, 2)) is arr
    strided = arr[:, 1]
    assert not strided.flags.c_contiguous
    assert _within(strided, "x", "(0, inf)", array=(2,)) is strided


@pytest.mark.parametrize("value", (np.array([0.5, 3.0], dtype=np.float32), np.array([1, 3]),
                                   [0.5, 3.0], [1, 3]), ids=repr)
def test_within_converts_other_input_to_float64(value):
    arr = _within(value, "x", "(0, inf)", array=(2,))
    assert type(arr) is np.ndarray and arr.dtype == np.float64
    assert arr.tobytes() == np.array([float(v) for v in value]).tobytes()


@pytest.mark.parametrize("shape,value,message", [
    ((2,), [1.0, math.nan], "lie in (0, inf), got nan"),
    ((2,), [math.inf, 1.0], "lie in (0, inf), got inf"),
    ((2,), [-math.inf, 1.0], "lie in (0, inf), got -inf"),
    ((2,), [0.0, 1.0], "lie in (0, inf), got 0.0"),
    ((2,), [1.0, -0.5], "lie in (0, inf), got -0.5"),
    ((2,), [1.0, 2.0, 3.0], "have shape (2,), got (3,)"),
    ((2,), [[1.0, 2.0]], "have shape (2,), got (1, 2)"),
    ((2,), [], "have shape (2,), got (0,)"),
    ((2,), 1.0, "have shape (2,), got ()"),
    ((2, 2), [[1.0, 2.0], [math.nan, 1.0]], "lie in (0, inf), got nan"),
    ((2, 2), [[1.0, 2.0], [3.0, 0.0]], "lie in (0, inf), got 0.0"),
], ids=repr)
@pytest.mark.parametrize("form", (list, np.array, lambda v: np.array(v, dtype=np.float32)),
                         ids=("list", "float64", "float32"))
def test_within_array_refusals_name_the_shape_or_the_value(shape, value, message, form):
    with pytest.raises(ValueError, match=f"^{re.escape(f'costs must {message}')}$"):
        _within(form(value) if np.ndim(value) else value, "costs", "(0, inf)", array=shape)


@pytest.mark.parametrize("value,message", [
    ([True, True], r"be a number, got \[True, True\]"),
    (np.array([True, True]), r"be a number, got array\(\[ True,  True\]\)"),
    (np.array([math.nan, 1.0, 2.0, 1.0])[::2], r"lie in \(0, inf\), got nan"),
    (np.array([1.0, 2.0, 0.0, 2.0])[::2], r"lie in \(0, inf\), got 0.0"),
], ids=repr)
def test_costs_refuse_booleans_and_strided_faults(value, message):
    with pytest.raises(ValueError, match=f"^costs must {message}$"):
        price_index(0, symmetric_two_tier(), value)
