import csv
import math
import pathlib
import re

import numpy as np
import pytest

from gscsim import (
    EconomyParams,
    EquilibriumConvergenceError,
    SolverConfig,
    composite_cost,
    labor_market_residuals,
    price_indices,
    solve_costs,
    solve_equilibrium,
)
from gscsim import chains, equilibrium
from gscsim.chains import _chain_sums, _hop_factors, _prices, _tier_factors, kappa
from gscsim.equilibrium import _residual_pass

from conftest import oracle_economy, random_costs, random_economy, symmetric_two_tier

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def read_oracle_wages():
    with open(FIXTURES / "equilibrium_oracle.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([float(r["wage"]) for r in rows])


def test_symmetric_two_locations():
    sol = solve_equilibrium(symmetric_two_tier())
    np.testing.assert_allclose(sol.wages, 0.5, atol=1e-12)
    np.testing.assert_allclose(sol.prices[0], sol.prices[1], rtol=1e-12)
    assert sol.wages @ np.array([1.0, 1.0]) == pytest.approx(1.0, abs=1e-14)


def test_technology_raises_relative_wage():
    params = EconomyParams.two_tier(T1=[2.0, 1.0], T2=[2.0, 1.0], L=[1.0, 1.0],
                                    tau=np.ones((2, 2)), alpha2=0.5,
                                    theta=4.0, sigma=2.0)
    sol = solve_equilibrium(params)
    assert sol.wages[0] > sol.wages[1]
    assert sol.real_wages[0] > sol.real_wages[1]


def test_walras_identity_at_arbitrary_wages():
    rng = np.random.default_rng(11)
    for _ in range(50):
        params = random_economy(rng)
        wages = rng.uniform(0.2, 3.0, size=params.n_locations)
        residuals = labor_market_residuals(wages, params)
        assert abs(float(residuals.sum())) < 1e-12 * float(wages @ params.L)


def test_walras_identity_along_solver_path():
    sol = solve_equilibrium(oracle_economy())
    assert len(sol.walras_history) == sol.iterations + 1
    assert max(abs(v) for v in sol.walras_history) < 1e-12


def test_single_tier_closed_form():
    # tau = 1, N = 1: w_i proportional to (T_i / L_i)^(1/(1+theta))
    T = np.array([2.0, 1.0, 0.5])
    L = np.array([1.0, 1.5, 0.8])
    theta = 4.0
    params = EconomyParams.one_tier(T=T, L=L, tau=np.ones((3, 3)), theta=theta, sigma=2.0)
    sol = solve_equilibrium(params)
    w = (T / L) ** (1.0 / (1.0 + theta))
    w /= w @ L
    np.testing.assert_allclose(sol.wages, w, atol=1e-9)


def test_matches_committed_oracle():
    sol = solve_equilibrium(oracle_economy())
    np.testing.assert_allclose(sol.wages, read_oracle_wages(), atol=1e-8)


def test_idempotent_restart():
    sol = solve_equilibrium(oracle_economy())
    again = solve_equilibrium(oracle_economy(), SolverConfig(initial_wages=sol.wages))
    assert again.iterations <= 2
    np.testing.assert_allclose(again.wages, sol.wages, rtol=1e-9)


def test_world_income_scale_invariance():
    base = solve_equilibrium(oracle_economy())
    scaled = solve_equilibrium(oracle_economy(), SolverConfig(world_income=2.0))
    np.testing.assert_allclose(scaled.wages, 2.0 * base.wages, rtol=1e-10)
    np.testing.assert_allclose(scaled.prices, 2.0 * base.prices, rtol=1e-10)
    np.testing.assert_allclose(scaled.real_wages, base.real_wages, rtol=1e-10)


def test_non_convergence_raises_with_context():
    with pytest.raises(EquilibriumConvergenceError) as err:
        solve_equilibrium(oracle_economy(),
                          SolverConfig(tolerance=1e-10, max_iterations=2))
    assert err.value.iterations == 2
    assert err.value.residual_norm > 0.0


def test_gamma_below_one_consistency():
    rng = np.random.default_rng(22)
    params = random_economy(rng, J=2, N=2, gamma=0.6)
    sol = solve_equilibrium(params)
    # composite costs reproduce themselves through the price index
    np.testing.assert_allclose(
        sol.costs, composite_cost(sol.wages, sol.prices, params.gamma), rtol=1e-10)
    np.testing.assert_allclose(sol.prices, price_indices(params, sol.costs), rtol=1e-12)
    assert max(abs(v) for v in sol.walras_history) < 1e-12


def test_solve_costs_gamma_one_passthrough():
    params = symmetric_two_tier()
    wages = np.array([0.7, 1.1])
    costs, prices = solve_costs(wages, params)
    np.testing.assert_allclose(costs, wages)
    np.testing.assert_allclose(prices, price_indices(params, wages))


def test_solve_costs_rejects_empty_iteration_budget():
    params = EconomyParams.two_tier(T1=[1.0, 1.0], T2=[1.0, 1.0], L=[1.0, 1.0],
                                    tau=np.ones((2, 2)), alpha2=0.5,
                                    theta=4.0, sigma=2.0, gamma=0.7)
    with pytest.raises(ValueError):
        solve_costs(np.array([0.7, 1.1]), params, max_iterations=0)


def test_wage_validation():
    params = symmetric_two_tier()
    with pytest.raises(ValueError):
        labor_market_residuals(np.array([1.0, -0.5]), params)
    with pytest.raises(ValueError):
        labor_market_residuals(np.array([1.0, np.inf]), params)
    with pytest.raises(ValueError):
        solve_equilibrium(params, SolverConfig(initial_wages=np.array([1.0, 0.0])))
    with pytest.raises(ValueError):
        SolverConfig(damping=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=-1.0)


def test_solver_config_rejects_non_finite_values_and_negative_budget():
    # tolerance = nan used to run the whole budget and then report a
    # residual of zero; max_iterations = -1 ran no iteration at all.
    for kw in ({"tolerance": math.nan}, {"tolerance": math.inf},
               {"world_income": math.nan}, {"world_income": math.inf},
               {"world_income": 0.0}, {"max_iterations": -1}):
        with pytest.raises(ValueError):
            SolverConfig(**kw)
    # A zero budget only checks the initial guess.
    with pytest.raises(EquilibriumConvergenceError) as err:
        solve_equilibrium(oracle_economy(), SolverConfig(max_iterations=0))
    assert err.value.iterations == 0


def test_random_economies_converge():
    rng = np.random.default_rng(33)
    for _ in range(25):
        params = random_economy(rng)
        sol = solve_equilibrium(params)
        assert sol.residual_norm < 1e-10
        assert np.all(sol.wages > 0.0) and np.all(sol.prices > 0.0)
        assert float(sol.wages @ params.L) == pytest.approx(1.0, abs=1e-12)


def test_initial_wages_must_be_finite():
    params = symmetric_two_tier()
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="initial_wages must be strictly positive "
                                             "with one entry per location"):
            solve_equilibrium(params, SolverConfig(initial_wages=np.array([1.0, bad])))


# ---------------------------------------------------------------------------
# one chain pass per residual

def spy_chain_halves(monkeypatch) -> list:
    """Log "F", "B" and "H" for each forward half, backward half and hop build."""
    calls = []
    for name, tag in (("_forward", "F"), ("_backward", "B"), ("_hop_factors", "H")):
        def spy(*args, _real=getattr(chains, name), _tag=tag, **kwargs):
            calls.append(_tag)
            return _real(*args, **kwargs)
        for module in (chains, equilibrium):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    return calls


def test_one_chain_pass_per_residual(monkeypatch):
    calls = spy_chain_halves(monkeypatch)
    params = oracle_economy()
    labor_market_residuals(np.array([0.3, 0.4, 0.5]), params)
    assert calls == ["H", "F", "B"]
    calls.clear()
    sol = solve_equilibrium(params)
    assert sol.iterations > 5
    assert "".join(calls) == "H" + "FB" * (sol.iterations + 1)


def test_inner_cost_loop_runs_forward_halves_only(monkeypatch):
    calls = spy_chain_halves(monkeypatch)
    params = random_economy(np.random.default_rng(5), J=3, N=3, gamma=0.6)
    sol = solve_equilibrium(params)
    trail = "".join(calls)
    assert trail.count("H") == 1 and trail[0] == "H"
    sweeps = re.findall("F+B", trail[1:])
    assert "".join(sweeps) == trail[1:]
    assert len(sweeps) == sol.iterations + 1
    # Each sweep runs the cost fixed point, then one full pass at its costs.
    assert all(len(sweep) > 3 for sweep in sweeps)
    calls.clear()
    solve_costs(sol.wages, params)
    price_indices(params, sol.costs)
    assert "B" not in calls


def reference_solve(params, cfg):
    """The damped fixed point written with the public residual and cost maps.

    Every sweep calls :func:`labor_market_residuals` on its own, and the
    converged wages get their costs and prices from :func:`solve_costs`.
    """
    w = np.full(params.n_locations, 1.0)
    w *= cfg.world_income / float(w @ params.L)
    walras = []
    residual_norm = np.inf
    previous_norm = np.inf
    step = cfg.damping
    for it in range(cfg.max_iterations + 1):
        residual = labor_market_residuals(w, params)
        walras.append(float(residual.sum()))
        residual_norm = float(np.max(np.abs(residual))) / cfg.world_income
        if residual_norm < cfg.tolerance:
            costs, prices = solve_costs(w, params)
            return w, prices, costs, it, walras
        if residual_norm >= previous_norm and step > cfg.damping / 256.0:
            step *= 0.5
        previous_norm = residual_norm
        target = (residual + w * params.L) / params.L
        w = (1.0 - step) * w + step * target
        w *= cfg.world_income / float(w @ params.L)
    raise EquilibriumConvergenceError("no convergence", residual_norm, cfg.max_iterations)


def test_solver_matches_reference_loop_bit_for_bit():
    rng = np.random.default_rng(606)
    cfg = SolverConfig(max_iterations=120)
    seen = {"converged_gamma_below_one": 0, "raised": 0, "stiff": 0}
    for k in range(50):
        gamma = (1.0, 0.7, float(rng.uniform(0.3, 1.0)))[k % 3]
        params = random_economy(rng, gamma=gamma)
        if k % 2:
            # sigma - 1 < 8.2 for these draws, so any theta in [8, 20] is valid
            params = EconomyParams.from_dict(
                {**params.to_dict(), "theta": float(rng.uniform(8.0, 20.0))})
            seen["stiff"] += 1
        try:
            expected = reference_solve(params, cfg)
        except EquilibriumConvergenceError as err:
            with pytest.raises(EquilibriumConvergenceError) as got:
                solve_equilibrium(params, cfg)
            assert (got.value.residual_norm, got.value.iterations) == \
                (err.residual_norm, err.iterations)
            seen["raised"] += 1
            continue
        sol = solve_equilibrium(params, cfg)
        wages, prices, costs, iterations, walras = expected
        assert sol.wages.tobytes() == wages.tobytes()
        assert sol.prices.tobytes() == prices.tobytes()
        assert sol.costs.tobytes() == costs.tobytes()
        assert (sol.iterations, sol.walras_history) == (iterations, walras)
        seen["converged_gamma_below_one"] += gamma < 1.0
    assert min(seen.values()) >= 3, seen


def test_forward_prices_match_full_pass():
    rng = np.random.default_rng(1106)
    params = random_economy(rng, J=11, N=6)
    costs = random_costs(rng, 11)
    # The chain sums as one forward-backward sweep, totals from the forward sums.
    F, G = _tier_factors(params, costs)
    fwd = [np.ones(11)]
    for Fn in F:
        fwd.append(fwd[-1] @ Fn)
    bwd = [G]
    for Fn in reversed(F):
        bwd.insert(0, Fn @ bwd[0])
    full = kappa(params.theta, params.sigma) * (fwd[-1] @ G) ** (-1.0 / params.theta)
    prices = price_indices(params, costs)
    np.testing.assert_array_equal(prices, full)
    np.testing.assert_array_equal(prices, _prices(params, _chain_sums(params, costs)[-1]))
    np.testing.assert_array_equal(prices, _residual_pass(costs, params, _hop_factors(params))[2])
    # the backward half reaches the same totals
    np.testing.assert_allclose(np.ones(11) @ bwd[0], fwd[-1] @ G, rtol=1e-12)
