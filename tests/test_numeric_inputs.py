"""Every public numeric input refuses what is not a number in its range.

One table, ``INPUTS``, lists each numeric input once: each field of the
config objects in the README's config-ranges table, through the constructor
and through ``from_dict`` (the solver has its constructor only), and each
numeric argument of the public functions.  One check, ``_check_input``, lists
every generic case of every row, each run as a test of its own: the range,
booleans, text, a sequence where one number belongs, and for an array its
shape.  Integer inputs also get a fraction, which must not be truncated into
a different experiment.
"""

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

from conftest import COST_STALL, oracle_economy, symmetric_two_tier
from test_identity import load_tool

ECONOMY = symmetric_two_tier().to_dict()
SHOCK = {"eta": 0.2, "lam": 1.0, "zeta": 0.9}
BELIEFS = {"zeta_lo": 0.2, "zeta_hi": 0.8}
SCENARIO = {"economy": ECONOMY, "shock": SHOCK, "decision_mode": "planner",
            "shock_period": 5, "horizon": 8, "suppliers_per_tier": 10,
            "grid_resolution": 101, "destination": 0, "seed": 0}
SCENARIO_INTS = ("shock_period", "horizon", "suppliers_per_tier",
                 "grid_resolution", "destination", "seed")

TOOL = load_tool()
# (section, field, numbers, range, default) of each row of the README's
# config ranges, read as the identity tool reads them for its range records.
README_ROWS = TOOL.RANGE_ROW.findall(
    (Path(__file__).resolve().parent.parent / "README.md").read_text())
SECTIONS = {"economy": EconomyParams, "shock": ShockParams, "utility": UtilitySpec,
            "beliefs": BeliefSet, "scenario": ScenarioConfig, "solver": SolverConfig}
# The entry of each economy array that a row sets, as in the identity tool's
# range records: T's and L's first, an off-diagonal tau entry, and alpha's
# first, whose value 1 keeps sum(alpha * beta) = 1.
ECONOMY_ENTRY = TOOL.ECONOMY_ENTRY
ECONOMY_SHAPE = {"T": "(locations, tiers)", "L": "(2,)", "tau": "(2, 2)", "alpha": "(2,)",
                 "beta": "(2,)"}

BOOLEANS = (True, False, np.True_, np.array(False))
# Text, numeric text and a mapping, and lists of text or ragged lists.
TEXT = ("abc", "3", b"2", {"x": 1}, ["a", "b"], ["1", "2"], [[1.0, 2.0], [3.0]])
# Sequences where one number belongs.
SEQUENCES = ([0, 1], [1], [], [[1]])


def _range_values(spec: str, whole: bool) -> tuple[list, list]:
    """(accepted, refused) values of the interval ``spec``: each closed bound
    is accepted, and for whole numbers its float too; each open bound and
    NaN are refused, and past each finite bound the next float, or for
    whole numbers one and seven further, as an int and as a float, and the
    infinity on that side.  A whole input also refuses a fraction."""
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
        if math.isfinite(bound):
            refused.append(outward * math.inf)
    return accepted, refused + [low + 0.5] * whole


class Input(NamedTuple):
    """A numeric input: its name, its range as the message writes it (None
    where it has none), and ``call(v)``, which passes ``v`` as the input or
    as one entry of it.  An array input also gives ``put(a)``, which passes
    ``a`` as the whole array, a valid ``good`` value, and its shape as the
    message writes it (None where any shape is taken); ``scalar`` marks an
    array input that also takes one number for every entry."""
    field: str
    spec: str | None
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
    if row.whole and not float(value).is_integer():
        return f"^{re.escape(row.field)} must be a whole number, got "
    number = int(value) if row.whole else float(value)
    return f"^{re.escape(f'{row.field} must lie in {row.spec}, got {number}')}$"


def _check_input(row: Input):
    """(kind, call, value, message) of every generic case of ``row``:
    ``call(value)`` must raise a ``ValueError`` matching ``message``, or,
    where ``message`` is None, return."""
    not_a_number = f"^{re.escape(row.field)} must be a {'whole ' * row.whole}number, got "
    if row.spec is not None:
        accepted, refused = _range_values(row.spec, row.whole)
        for value in accepted:
            yield "accepted", row.call, value, None
        for value in refused:
            yield "range", row.call, value, _refusal(row, value)
    # A boolean is not a number, though bool is an int subclass: alone, as
    # one entry of an array, or as a whole boolean array.
    for value in BOOLEANS:
        yield "boolean", row.call, value, not_a_number
    if row.put is None:
        # None is no number to a real input; a shock location takes it as no shock.
        for value in TEXT + (None,) * (not row.whole):
            yield "text", row.call, value, not_a_number
        for value in SEQUENCES:
            message = (f"^{re.escape(f'{row.field} must be a single value, got {value}')}$"
                       if row.whole else not_a_number)
            yield "sequence", row.call, value, message
        return
    booleans = [np.full(np.shape(row.good), value) for value in BOOLEANS]
    text = np.array(row.good, dtype=object)
    text.flat[0] = "abc"
    for value in (*BOOLEANS, *booleans, *(b.tolist() for b in booleans), *TEXT, text.tolist(),
                  [row.good, [np.ravel(row.good)[0]]]):
        yield "array", row.put, value, not_a_number
    lone = np.ravel(row.good)[0].item()
    if row.scalar:
        yield "accepted", row.put, lone, None
    if row.shape is not None:
        # One dimension too many, and a lone number where an array belongs.
        for wrong in [[row.good]] + [lone] * (not row.scalar):
            message = f"{row.field} must have shape {row.shape}, got {np.shape(wrong)}"
            yield "shape", row.put, wrong, f"^{re.escape(message)}$"


def _config_inputs():
    """Each row of the README's config ranges, through the constructor and
    through ``from_dict``; the solver has its constructor only.  The
    scenario's shock period 1 lets the horizon reach its own floor."""
    scenario = {**SCENARIO, "shock_period": 1}
    bases = {"economy": ECONOMY, "shock": SHOCK, "utility": {"rho": 2.0},
             "beliefs": {"zeta_lo": 0.0, "zeta_hi": 1.0}, "scenario": scenario, "solver": {}}
    built = {**scenario, "economy": EconomyParams.from_dict(ECONOMY),
             "shock": ShockParams(**SHOCK)}
    for section, key, numbers, spec, _ in README_ROWS:
        cls, base = SECTIONS[section], bases[section]
        forms = [(lambda d, c=cls: c(**d), built if section == "scenario" else base)]
        if section != "solver":
            forms.append((cls.from_dict, base))
        spec = spec.replace("horizon", str(scenario["horizon"]))
        for build, start in forms:
            call = lambda v, build=build, start=start, k=key: build({**start, k: v})
            if section == "economy" and key in ECONOMY_ENTRY:
                yield _array(key, spec, call, start[key], ECONOMY_ENTRY[key], ECONOMY_SHAPE[key])
            else:
                yield Input(key, spec, call, whole=numbers == "whole")
    yield Input("utility: rho", "[0, inf)",
                lambda v: ScenarioConfig.from_dict({**SCENARIO, "utility": {"rho": v}}))


def _chain_inputs():
    params, unit = symmetric_two_tier(), np.ones(2)
    yield Input("theta", "(0, inf)", lambda v: kappa(v, 2.0))
    yield Input("sigma", "(1, inf)", lambda v: kappa(4.0, v))
    yield Input("alpha2", "(0, 1)", lambda v: EconomyParams.two_tier(
        T1=[1.0, 1.0], T2=[1.0, 1.0], L=[1.0, 1.0], tau=np.ones((2, 2)), alpha2=v,
        theta=4.0, sigma=2.0))
    yield _array("T", "(0, inf)", lambda t: EconomyParams.one_tier(
        t, [1.0, 1.0], np.ones((2, 2)), 4.0, 2.0), [1.0, 1.0], 0, "(locations,)")
    yield _array("T", "(0, inf)", lambda t: EconomyParams.two_tier(
        t, [1.0, 1.0], [1.0, 1.0], np.ones((2, 2)), 0.5, 4.0, 2.0), [1.0, 1.0], 0, None)
    yield Input("pi_jj", "(0, 1]", lambda v: local_chain_real_wage(0, params, v))
    yield Input("z", "[-inf, inf]", lambda v: chain_productivity_cdf(v, [0, 1], params))
    yield Input("z", "[-inf, inf]",
                lambda v: chain_productivity_theta_sensitivity(v, [0, 1], params))
    for name, call in (("dest", lambda d: chain_cost_scale([0, 1], d, params, unit)),
                       ("dest", lambda d: path_share([0, 1], d, params, unit)),
                       ("dest", lambda d: price_index(d, params, unit)),
                       ("j", lambda j: local_chain_real_wage(j, params, 0.5))):
        yield Input(name, "[0, 1]", call, whole=True)
    # chain_productivity_cdf checks the path at z = 0 too, where it is 0.
    for put in (lambda p: chain_cost_scale(p, 0, params, unit),
                lambda p: path_share(p, 0, params, unit),
                lambda p: chain_productivity_location(p, params),
                lambda p: chain_productivity_cdf(1.5, p, params),
                lambda p: chain_productivity_cdf(0.0, p, params),
                lambda p: chain_productivity_theta_sensitivity(1.5, p, params)):
        yield _array("path", "[0, 1]", put, [0, 1], 1, "(2,)", whole=True)
    for name, put in (("costs", lambda c: price_indices(params, c)),
                      ("expenditure_weights",
                       lambda w: intermediate_flow_shares(params, unit, w))):
        yield _array(name, "(0, inf)", put, [1.0, 1.0], 1, "(2,)")
    for name, put in (("wages", lambda w: composite_cost(w, unit, 0.5)),
                      ("prices", lambda P: composite_cost(unit, P, 0.5))):
        yield _array(name, "(0, inf)", put, [1.0, 1.0], 1, None, scalar=True)
    yield Input("gamma", "(0, 1]", lambda g: composite_cost(unit, unit, g))


def _solver_inputs():
    params = symmetric_two_tier()
    for name, put in (("costs", lambda c: solve_costs(c, params)),
                      ("wages", lambda w: labor_market_residuals(w, params)),
                      ("initial_wages", lambda w: solve_equilibrium(
                          params, SolverConfig(initial_wages=w)))):
        yield _array(name, "(0, inf)", put, [1.0, 1.0], 1, "(2,)")
    yield Input("max_iterations", "[1, inf)",
                lambda v: solve_costs(np.ones(2), params, max_iterations=v), whole=True)
    # At gamma 1 no cost loop runs, so this shows the check runs before any.
    yield Input("tolerance", "(0, inf)", lambda v: solve_costs(np.ones(2), params, tolerance=v))


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


def _io_table(**overrides) -> WorldIOTable:
    """Two countries, one sector; BET adds no value, so it supplies no content."""
    table = {"countries": ["ALP", "BET"], "sectors": ["MFG"],
             "Z": [[0.0, 50.0], [40.0, 0.0]], "F": [[50.0, 0.0], [0.0, 10.0]],
             "v": [60.0, 0.0], "x": [100.0, 50.0]}
    return WorldIOTable(**{**table, **overrides})


def _table_inputs():
    # A table's arrays have no range; a table of booleans used to read as a
    # valid table of ones.
    for key, index in (("Z", (0, 1)), ("F", (0, 0)), ("v", 0), ("x", 0)):
        put = lambda a, k=key: _io_table(**{k: a})
        yield _array(key, None, put, getattr(_io_table(), key).tolist(), index, None)


INPUTS = [*_config_inputs(), *_chain_inputs(), *_solver_inputs(), *_sourcing_inputs(),
          *_scenario_inputs(), *_shock_inputs(), *_table_inputs()]
# One case a test, named by its row and its place in the row, so that a
# failure names the input and the value.
CASES = [(f"{row.field}-{k}-{kind}-{n}", case) for k, row in enumerate(INPUTS)
         for n, (kind, *case) in enumerate(_check_input(row))]


@pytest.mark.parametrize("call,value,message", [case for _, case in CASES],
                         ids=[name for name, _ in CASES])
def test_numeric_inputs_share_one_range_rule(call, value, message):
    # Each closed bound passes; each open bound, one step past each finite
    # bound, the infinity past it, NaN and a whole input's fraction are
    # refused with one message naming the range, real or whole, scalar or
    # array.  Booleans, text, a sequence where one number belongs, and an
    # array of the wrong shape or ragged are refused naming the field.
    if message is None:
        call(value)
    else:
        with pytest.raises(ValueError, match=message):
            call(value)


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
    # Each row's default is the field's own.
    for section, key, _, _, default in README_ROWS:
        declared = {f.name: f.default for f in fields(SECTIONS[section])}[key]
        assert default == ("required" if declared is MISSING else f"`{declared}`"), key


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


HUGE = 10**400      # a JSON integer past float64's range


def _cli_cases():
    """(id, command, config, message) of config files that exit 2 naming the field."""
    # json reads Infinity and NaN; int() of either used to escape as an
    # OverflowError or ValueError traceback, and 0.5 was truncated to 0.
    for key in SCENARIO_INTS:
        for value in (math.inf, math.nan, 0.5):
            yield (f"{key}={value}", "simulate", {**SCENARIO, key: value},
                   f"{key} must be a whole number, got {value}")
    # float() of such an integer raised OverflowError, which escaped main as
    # a traceback with exit 1.  A whole field takes it as a one-entry list.
    # A config file sets every row but the solver's.
    scenario = {**SCENARIO, "utility": {"rho": 2.0}, "beliefs": {"zeta_lo": 0.0, "zeta_hi": 1.0}}
    for section, key, numbers, _, _ in README_ROWS:
        value = [HUGE] if numbers == "whole" else HUGE
        if section == "economy" and key in ECONOMY_ENTRY:
            entries = np.array(ECONOMY[key], dtype=object)
            entries[ECONOMY_ENTRY[key]] = HUGE
            value = entries.tolist()
        message = f"{key} must be a {'whole ' * (numbers == 'whole')}number, got "
        if section == "scenario":
            yield f"{section}.{key}=huge", "simulate", {**scenario, key: value}, message
        elif section != "solver":
            config = {**scenario, section: {**scenario[section], key: value}}
            yield f"{section}.{key}=huge", "simulate", config, message
        if section == "economy":
            yield f"{section}.{key}=huge", "equilibrium", config["economy"], message
    yield ("L=text", "equilibrium", {**ECONOMY, "L": ["a", "b"]},
           "L must be a number, got ['a', 'b']")
    yield ("theta=text", "equilibrium", {**ECONOMY, "theta": "abc"},
           "theta must be a number, got 'abc'")
    # float and numpy read "1" as 1, so numeric text used to load.
    yield ("horizon=numeric-text", "simulate", {**SCENARIO, "horizon": "3", "shock_period": "2"},
           "horizon must be a whole number, got '3'")
    yield ("L=numeric-text", "equilibrium", {**ECONOMY, "L": ["1", "2"]},
           "L must be a number, got ['1', '2']")
    yield ("horizon=true", "simulate", {**SCENARIO, "horizon": True},
           "horizon must be a whole number, got True")
    # All true reads as all ones, a valid T, L and tau of this economy; so
    # does a first entry of true among the economy's own numbers.
    for key in ("T", "L", "tau"):
        mixed = np.array(ECONOMY[key], dtype=object)
        mixed.flat[0] = True
        for name, value in (("all", np.ones(np.shape(ECONOMY[key]), dtype=bool).tolist()),
                            ("mixed", mixed.tolist())):
            yield (f"{key}={name}-true", "equilibrium", {**ECONOMY, key: value},
                   f"{key} must be a number, got {value}")


CLI_CASES = list(_cli_cases())


@pytest.mark.parametrize("command,config,message", [case[1:] for case in CLI_CASES],
                         ids=[f"{case[1]}-{case[0]}" for case in CLI_CASES])
def test_cli_refuses_a_config_value_naming_its_field(tmp_path, capsys, command, config, message):
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    flag = "--config" if command == "simulate" else "--params"
    assert main([command, flag, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # One error line: numpy's own words and tracebacks stay out.
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_whole_floats_and_large_seeds_are_kept():
    cfg = ScenarioConfig.from_dict({**SCENARIO, "horizon": 20.0, "seed": 2**60 + 1})
    assert cfg.horizon == 20 and isinstance(cfg.horizon, int)
    assert cfg.seed == 2**60 + 1
    assert SourcingAllocation(phi=[[0.5], [0.5]], M=[4.0]).M.dtype == np.intp
    # A whole float gives what its int gives.
    params = symmetric_two_tier()
    unit = np.ones(2)
    assert (chain_cost_scale([0.0, 1.0], 1.0, params, unit)
            == chain_cost_scale((0, 1), 1, params, unit))
    assert chain_productivity_location([1.0, 0.0], params) == \
        chain_productivity_location(np.array([1, 0]), params)
    assert price_index(1.0, params, unit) == price_index(1, params, unit)
    assert local_chain_real_wage(1.0, params, 0.5) == local_chain_real_wage(1, params, 0.5)
    alloc = SourcingAllocation(phi=[[1.0, 1.0], [0.0, 0.0]], M=[3, 3])
    assert not chain_survives(alloc, ShockDraw(0.0))
    assert chain_survives(alloc, ShockDraw(1.0))
    assert apply_shock([1.0, 2.0], ShockDraw(1.0)).tolist() == [1.0, 0.0]
    state = RegimeState([0.0, 1.0], [4.0, 0.0])
    assert state.state.dtype == state.periods_in_state.dtype == np.intp
    assert state.state.tolist() == [0, 1] and state.periods_in_state.tolist() == [4, 0]
    shock = ShockParams(0.3, 0.5, 0.5)
    for v in (1, 1.0, np.int64(1)):
        assert simulate_regime(shock, [0.9, 0.1], initial=v).tolist() == [1, 0]


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


def test_non_numeric_array_message_is_abridged():
    # The message quotes an abridged value, not every entry of a large table.
    Z = np.zeros((300, 300)).tolist()
    Z[5][7] = "a"
    with pytest.raises(ValueError, match=r"^Z must be a number, got \[\[0\.0, ") as err:
        WorldIOTable(countries=[f"C{i}" for i in range(300)], sectors=["M"], Z=Z,
                     F=np.zeros((300, 300)), v=np.zeros(300), x=np.zeros(300))
    assert len(str(err.value)) < 300


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
