import re
from dataclasses import replace

import numpy as np
import pytest

from gscsim import (
    BeliefSet,
    ScenarioConfig,
    ShockParams,
    SolverConfig,
    TimeSeries,
    UtilitySpec,
    choose_allocation,
    monte_carlo_survival,
    run_matrix,
    run_scenario,
    solve_equilibrium,
)

from gscsim import scenarios, sourcing
from gscsim.shocks import EAST, SOUTH, ShockDraw, _branch_odds, _draw_branches, draw_shock
from gscsim.sourcing import (
    SourcingAllocation,
    allocation_value,
    chain_survives,
    supplier_counts,
)

from conftest import random_economy, symmetric_two_tier


def make_config(**overrides) -> ScenarioConfig:
    base = dict(economy=symmetric_two_tier(),
                shock=ShockParams(eta=0.2, lam=1.0, zeta=0.9),
                decision_mode="individual", info_env="risk",
                realization="none", shock_period=5, horizon=8,
                suppliers_per_tier=10, grid_resolution=101)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_individual_south_shock_kills_chain_for_one_period():
    cfg = make_config(realization="south")
    ts = run_scenario(cfg)
    sol = solve_equilibrium(cfg.economy, SolverConfig())
    rw = float(sol.real_wages[0])
    # firms pile onto South (zeta = 0.9 makes East the risky one)
    np.testing.assert_array_equal(ts.allocation.phi[:, 0], [0.0, 1.0])
    for t, e, s, total, alive, welfare in ts.rows():
        if t == cfg.shock_period:
            assert (e, s, total) == (0, 0, 0)
            assert not alive
            assert welfare == 0.0
        else:
            assert (e, s, total) == (0, 10, 10)
            assert alive
            assert welfare == pytest.approx(rw, rel=1e-12)


def test_individual_east_shock_is_harmless():
    ts_none = run_scenario(make_config(realization="none"))
    ts_east = run_scenario(make_config(realization="east"))
    assert ts_east.chain_alive.all() and ts_none.chain_alive.all()
    np.testing.assert_array_equal(ts_east.suppliers_total, 10)
    np.testing.assert_allclose(ts_east.welfare, ts_none.welfare, rtol=1e-14)


def period_loop_oracle(config, solution, allocation):
    """The scripted run as a loop that evaluates every period's draw."""
    draws = {"none": ShockDraw(None), "east": ShockDraw(EAST), "south": ShockDraw(SOUTH)}
    base_counts = supplier_counts(allocation)
    draw_hit = draws[config.realization]
    none_draw = draws["none"]
    real_wage = float(solution.real_wages[config.destination])
    full_value = allocation_value(allocation, none_draw, config.economy,
                                  solution.costs)
    T = config.horizon
    periods = np.arange(1, T + 1)
    east = np.empty(T, dtype=np.intp)
    south = np.empty(T, dtype=np.intp)
    alive = np.empty(T, dtype=bool)
    welfare = np.empty(T)
    for idx, t in enumerate(periods):
        draw = draw_hit if t == config.shock_period else none_draw
        counts = base_counts.copy()
        if draw.location is not None:
            counts[draw.location, :] = 0
        east[idx] = counts[EAST, 0]
        south[idx] = counts[SOUTH, 0]
        alive[idx] = chain_survives(allocation, draw)
        if alive[idx]:
            value = allocation_value(allocation, draw, config.economy,
                                     solution.costs)
            welfare[idx] = real_wage * value / full_value
        else:
            welfare[idx] = 0.0
    return periods, east, south, east + south, alive, welfare


def test_run_scenario_matches_period_loop():
    # Evaluating each shock branch once and picking a branch per period
    # must give the per-period loop's arrays bit for bit.
    rng = np.random.default_rng(404)
    cases = [dict(), dict(shock_period=1), dict(shock_period=8),
             dict(horizon=1, shock_period=1), dict(suppliers_per_tier=1),
             dict(suppliers_per_tier=1, shock_period=1, horizon=3)]
    for k, case in enumerate(cases * 2):
        economy = symmetric_two_tier() if k < len(cases) else random_economy(rng, J=2)
        shock = ShockParams(eta=float(rng.uniform(0.05, 0.9)), lam=1.0,
                            zeta=float(rng.uniform(0.05, 0.95)))
        solution = solve_equilibrium(economy, SolverConfig())
        for mode in ("individual", "planner"):
            for env in ("risk", "ambiguity"):
                for realization in ("none", "east", "south"):
                    cfg = make_config(economy=economy, shock=shock, decision_mode=mode,
                                      info_env=env, realization=realization,
                                      destination=k % 2, **case)
                    ts = run_scenario(cfg, solution=solution)
                    want = period_loop_oracle(cfg, solution, ts.allocation)
                    got = (ts.period, ts.suppliers_east, ts.suppliers_south,
                           ts.suppliers_total, ts.chain_alive, ts.welfare)
                    for column, g, w in zip(TimeSeries.COLUMNS, got, want):
                        assert g.dtype == w.dtype, (k, mode, env, realization, column)
                        assert g.tobytes() == w.tobytes(), (k, mode, env, realization, column)


def test_run_scenario_validates_allocation_and_costs():
    cfg = make_config()
    solution = solve_equilibrium(cfg.economy, SolverConfig())
    three = SourcingAllocation.uniform_tiers([0.2, 0.3, 0.5], 10, 2)
    with pytest.raises(ValueError, match="disagree on the number of locations"):
        run_scenario(cfg, solution=solution, allocation=three)
    for costs, message in ((-solution.costs, "costs must lie in (0, inf), got "),
                           (solution.costs[:1], "costs must have shape (2,), got (1,)")):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_scenario(cfg, solution=replace(solution, costs=costs))


def _no_solve(*args, **kwargs):
    raise AssertionError("solve_equilibrium called")


def test_run_scenario_checks_the_allocation_before_the_solve(monkeypatch):
    monkeypatch.setattr(scenarios, "solve_equilibrium", _no_solve)
    three = SourcingAllocation.uniform_tiers([0.2, 0.3, 0.5], 10, 2)
    with pytest.raises(ValueError,
                       match="^allocation and economy disagree on the number of locations$"):
        run_scenario(make_config(), allocation=three)


def test_planner_south_shock_degrades_but_survives():
    cfg = make_config(decision_mode="planner", realization="south",
                      utility=UtilitySpec(rho=2.0))
    ts = run_scenario(cfg)
    hit = cfg.shock_period - 1
    np.testing.assert_array_equal(ts.allocation.phi[:, 0], [0.35, 0.65])
    assert ts.chain_alive.all()
    assert ts.suppliers_east[hit] == 3 and ts.suppliers_south[hit] == 0
    assert ts.suppliers_total[hit] == 3
    full = ts.welfare[0]
    assert 0.0 < ts.welfare[hit] < full
    # full recovery the following period
    assert ts.welfare[hit + 1] == pytest.approx(full, rel=1e-12)
    assert ts.suppliers_total[hit + 1] == 10


def test_mirror_realizations_with_even_odds():
    east = run_scenario(make_config(shock=ShockParams(0.2, 1.0, 0.5),
                                    realization="east"))
    south = run_scenario(make_config(shock=ShockParams(0.2, 1.0, 0.5),
                                     realization="south"))
    np.testing.assert_array_equal(east.suppliers_east, south.suppliers_south)
    np.testing.assert_array_equal(east.suppliers_south, south.suppliers_east)
    np.testing.assert_allclose(east.welfare, south.welfare, rtol=1e-14)
    np.testing.assert_array_equal(east.chain_alive, south.chain_alive)


def test_run_matrix_individual_allocations_identical():
    cells = run_matrix(make_config())
    assert set(cells) == {(r, e) for r in ("none", "east", "south")
                          for e in ("risk", "ambiguity")}
    base = cells[("none", "risk")].allocation.phi
    for ts in cells.values():
        np.testing.assert_array_equal(ts.allocation.phi, base)
        assert ts.decision_mode == "individual"
    assert not cells[("south", "risk")].chain_alive.all()
    assert cells[("east", "risk")].chain_alive.all()


def test_run_matrix_planner_always_survives():
    cells = run_matrix(make_config(decision_mode="planner",
                                   utility=UtilitySpec(rho=2.0)))
    for (realization, env), ts in cells.items():
        assert ts.chain_alive.all(), (realization, env)
        assert ts.suppliers_total.min() >= 1
        assert ts.welfare.min() > 0.0
    risk_alloc = cells[("none", "risk")].allocation
    amb_alloc = cells[("none", "ambiguity")].allocation
    np.testing.assert_allclose(risk_alloc.phi[:, 0], [0.35, 0.65], atol=1e-12)
    assert amb_alloc.phi[1, 0] == 0.5


def test_timeseries_rows_match_columns():
    ts = run_scenario(make_config())
    rows = list(ts.rows())
    assert len(rows) == 8
    assert len(rows[0]) == len(TimeSeries.COLUMNS)
    assert [r[0] for r in rows] == list(range(1, 9))
    for r in rows:
        assert r[3] == r[1] + r[2]


def test_monte_carlo_individual_matches_exposure():
    # eta = 1: a shock is certain, the firm corner dies iff South is drawn
    cfg = make_config(shock=ShockParams(eta=1.0, lam=1.0, zeta=0.9))
    summary = monte_carlo_survival(cfg, n_runs=20_000, seed=7)
    assert summary.n_runs == 20_000
    assert abs(summary.survival_rate - 0.9) < 3.0 * summary.stderr
    assert 0.0 < summary.mean_welfare


def test_monte_carlo_planner_never_dies():
    cfg = make_config(decision_mode="planner",
                      shock=ShockParams(eta=1.0, lam=1.0, zeta=0.9),
                      utility=UtilitySpec(rho=2.0))
    summary = monte_carlo_survival(cfg, n_runs=5_000, seed=7)
    assert summary.survival_rate == 1.0
    assert summary.stderr == 0.0


def test_monte_carlo_deterministic_in_seed():
    cfg = make_config(shock=ShockParams(eta=1.0, lam=1.0, zeta=0.9))
    a = monte_carlo_survival(cfg, n_runs=2_000, seed=123)
    b = monte_carlo_survival(cfg, n_runs=2_000, seed=123)
    assert a == b
    # a whole float or numpy integer seed is the same seed
    assert monte_carlo_survival(cfg, n_runs=2_000, seed=123.0) == a
    assert monte_carlo_survival(cfg, n_runs=2_000, seed=np.int64(123)) == a
    with pytest.raises(ValueError):
        monte_carlo_survival(cfg, n_runs=0, seed=1)


@pytest.mark.parametrize("kw,message", [
    ({"n_runs": 0}, "^n_runs must lie in \\[1, inf\\), got 0$"),
    ({"seed": True}, "^seed must be a whole number, got True$"),
    ({"seed": -1}, "^seed must lie in \\[0, inf\\), got -1$"),
    ({"seed": 2.5}, "^seed must be a whole number, got 2.5$"),
    ({"seed": None}, "^seed must be a whole number, got None$"),
], ids=("runs-0", "seed-true", "seed-negative", "seed-fraction", "seed-none"))
def test_monte_carlo_checks_its_inputs_before_the_solve(monkeypatch, kw, message):
    # seed=True used to run as seed 1 and seed=None to draw fresh entropy.
    monkeypatch.setattr(scenarios, "solve_equilibrium", _no_solve)
    with pytest.raises(ValueError, match=message):
        monte_carlo_survival(make_config(), **{"n_runs": 10, "seed": 0, **kw})


def test_monte_carlo_classifier_matches_draw_shock():
    labels = ("none", "east", "south")
    rng = np.random.default_rng(11)
    for eta in (0.0, 1.0, 0.3):
        for zeta in (0.0, 1.0, 0.6):
            shock = ShockParams(eta=eta, lam=1.0, zeta=zeta)
            cuts = [c for c in np.cumsum(_branch_odds(eta, zeta)[:2]) if c < 1.0]
            u = np.concatenate([rng.random(500), cuts, np.nextafter(cuts, 0.0),
                                [0.0, np.nextafter(1.0, 0.0)]])
            got = [labels[b] for b in _draw_branches(shock, u)]
            assert got == [draw_shock(shock, x).label for x in u], (eta, zeta)


def test_monte_carlo_tallies_scripted_outcomes():
    # run r draws element r of one stream seeded with the run seed; the
    # summary weights each scripted realisation's outcome by its tally
    n, seed = 3_000, 29
    for mode, shock in [("individual", ShockParams(eta=0.6, lam=1.0, zeta=0.3)),
                        ("planner", ShockParams(eta=0.4, lam=1.0, zeta=0.8))]:
        cfg = make_config(decision_mode=mode, shock=shock)
        tally = {"none": 0, "east": 0, "south": 0}
        for x in np.random.default_rng(seed).random(n):
            tally[draw_shock(shock, float(x)).label] += 1
        solution = solve_equilibrium(cfg.economy, SolverConfig())
        survived, welfare = 0, 0.0
        for realization, count in tally.items():
            ts = run_scenario(make_config(decision_mode=mode, shock=shock,
                                          realization=realization), solution=solution)
            survived += count * bool(ts.chain_alive.all())
            welfare += count * float(ts.welfare.mean())
        summary = monte_carlo_survival(cfg, n_runs=n, seed=seed)
        assert summary.survival_rate == survived / n
        assert summary.mean_welfare == pytest.approx(welfare / n, rel=1e-12)


def test_each_allocation_is_evaluated_once(monkeypatch):
    # The scripted realisation never feeds back into an allocation's
    # outcomes: run_matrix evaluates one allocation per info environment
    # and the Monte Carlo one, each shock branch valued once per allocation.
    calls = {"counts": 0, "values": 0}

    def spy(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    counts = spy("counts", sourcing.supplier_counts)
    monkeypatch.setattr(sourcing, "supplier_counts", counts)
    monkeypatch.setattr(scenarios, "supplier_counts", counts)
    monkeypatch.setattr(sourcing, "_value_from_counts",
                        spy("values", sourcing._value_from_counts))
    for mode in ("individual", "planner"):
        for run, want in ((run_matrix, 2), (lambda c: monte_carlo_survival(c, 100, seed=1), 1)):
            calls.update(counts=0, values=0)
            run(make_config(decision_mode=mode))
            assert calls["counts"] == want, (mode, run)
            if mode == "individual":     # the planner's grid search values candidates too
                assert calls["values"] == 3 * want, (mode, run)


def test_choose_allocation_dispatch():
    sol = solve_equilibrium(symmetric_two_tier(), SolverConfig())
    ind_risk = choose_allocation(make_config(info_env="risk"), sol)
    ind_amb = choose_allocation(make_config(info_env="ambiguity"), sol)
    np.testing.assert_array_equal(ind_risk.phi, ind_amb.phi)
    amb = choose_allocation(make_config(decision_mode="planner",
                                        info_env="ambiguity",
                                        beliefs=BeliefSet(0.0, 1.0)), sol)
    assert amb.phi[1, 0] == 0.5


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(shock_period=0)
    with pytest.raises(ValueError):
        make_config(shock_period=9)        # beyond the 8-period horizon
    with pytest.raises(ValueError):
        make_config(horizon=0)
    with pytest.raises(ValueError):
        make_config(decision_mode="committee")
    with pytest.raises(ValueError):
        make_config(info_env="certainty")
    with pytest.raises(ValueError):
        make_config(realization="west")
    with pytest.raises(ValueError):
        make_config(destination=2)
    with pytest.raises(ValueError):
        make_config(suppliers_per_tier=0)
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        make_config(economy=random_economy(rng, J=3, N=2))


def test_config_round_trip_and_errors():
    cfg = make_config(decision_mode="planner", info_env="ambiguity",
                      beliefs=BeliefSet(0.2, 0.8), utility=UtilitySpec(rho=1.0))
    clone = ScenarioConfig.from_dict(cfg.to_dict())
    assert clone.to_dict() == cfg.to_dict()
    with pytest.raises(ValueError, match="^scenario config missing key: economy$"):
        ScenarioConfig.from_dict({"shock": {"eta": 0.2, "lam": 1.0, "zeta": 0.9}})
    with pytest.raises(ValueError, match="^shock:"):
        bad = cfg.to_dict()
        bad["shock"]["eta"] = 2.0
        ScenarioConfig.from_dict(bad)


def test_config_utility_section_errors():
    bad = make_config().to_dict()
    bad["utility"] = {}
    assert ScenarioConfig.from_dict(bad).utility == UtilitySpec(rho=2.0)
    bad["utility"] = {"rho": float("nan")}
    with pytest.raises(ValueError, match=r"^utility: rho must lie in \[0, inf\), got nan$"):
        ScenarioConfig.from_dict(bad)
