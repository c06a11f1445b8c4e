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
    tier_participation,
)
from gscsim import chains
from gscsim.chains import _Chain, kappa
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
        with pytest.raises(ValueError, match=r"^initial_wages must be strictly positive "
                                             r"and finite with shape \(2,\)$"):
            solve_equilibrium(params, SolverConfig(initial_wages=np.array([1.0, bad])))


# ---------------------------------------------------------------------------
# one chain pass per residual

def spy_chain_halves(monkeypatch) -> list:
    """Log "F", "B" and "H" for each forward half, backward half and build
    of the per-solve chain constants."""
    calls = []
    for name, tag in (("forward", "F"), ("backward", "B"), ("__init__", "H")):
        def spy(*args, _real=getattr(chains._Chain, name), _tag=tag, **kwargs):
            calls.append(_tag)
            return _real(*args, **kwargs)
        monkeypatch.setattr(chains._Chain, name, spy)
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


# ---------------------------------------------------------------------------
# frozen chain arithmetic: the reference the solver must reproduce bit for bit

def frozen_chain_sums(params, costs):
    """Forward sums, backward sums and totals, every factor rebuilt per call."""
    ab = params.alpha * params.beta
    tech = params.T ** ab * costs[:, None] ** (-params.theta * ab)
    hop = params.tau[None, :, :] ** (-params.theta * params.beta[:, None, None])
    F = [tech[:, n, None] * hop[n] for n in range(params.n_tiers - 1)]
    G = tech[:, -1, None] * hop[-1]
    fwd = [np.ones(params.n_locations)]
    for Fn in F:
        fwd.append(fwd[-1] @ Fn)
    bwd = [G]
    for Fn in reversed(F):
        bwd.insert(0, Fn @ bwd[0])
    return fwd, bwd, fwd[-1] @ G


def frozen_prices(params, S):
    return kappa(params.theta, params.sigma) * S ** (-1.0 / params.theta)


def frozen_costs(w, params):
    if params.gamma == 1.0:
        return w.copy()
    c = w.copy()
    for _ in range(500):
        P = frozen_prices(params, frozen_chain_sums(params, c)[-1])
        c_next = w ** params.gamma * P ** (1.0 - params.gamma)
        gap = float(np.max(np.abs(np.log(c_next) - np.log(c))))
        c = c_next
        if gap < 1e-14:
            return c
    raise EquilibriumConvergenceError("cost loop stalled", gap, 500)


def frozen_residual_pass(w, params):
    """Residuals, costs and prices at wages ``w``."""
    costs = frozen_costs(w, params)
    fwd, bwd, S = frozen_chain_sums(params, costs)
    part = np.stack([f[:, None] * b / S for f, b in zip(fwd, bwd)])
    spending = w * params.L
    income = np.einsum("n,nij,j->i", params.alpha * params.beta, part, spending)
    return income - spending, costs, frozen_prices(params, S)


def reference_solve(params, cfg):
    """The damped fixed point written out on the frozen chain arithmetic."""
    w = np.full(params.n_locations, 1.0)
    w *= cfg.world_income / float(w @ params.L)
    walras = []
    residual_norm = np.inf
    previous_norm = np.inf
    step = cfg.damping
    for it in range(cfg.max_iterations + 1):
        residual, costs, prices = frozen_residual_pass(w, params)
        walras.append(float(residual.sum()))
        residual_norm = float(np.max(np.abs(residual))) / cfg.world_income
        if residual_norm < cfg.tolerance:
            return w, prices, costs, it, walras
        if residual_norm >= previous_norm and step > cfg.damping / 256.0:
            step *= 0.5
        previous_norm = residual_norm
        target = (residual + w * params.L) / params.L
        w = (1.0 - step) * w + step * target
        w *= cfg.world_income / float(w @ params.L)
    raise EquilibriumConvergenceError("no convergence", residual_norm, cfg.max_iterations)


def assert_solver_matches_reference(params, cfg) -> bool:
    """Bitwise check of one solve; True when the reference converged."""
    try:
        expected = reference_solve(params, cfg)
    except EquilibriumConvergenceError as err:
        with pytest.raises(EquilibriumConvergenceError) as got:
            solve_equilibrium(params, cfg)
        assert (got.value.residual_norm, got.value.iterations) == \
            (err.residual_norm, err.iterations)
        return False
    sol = solve_equilibrium(params, cfg)
    wages, prices, costs, iterations, walras = expected
    assert sol.wages.tobytes() == wages.tobytes()
    assert sol.prices.tobytes() == prices.tobytes()
    assert sol.costs.tobytes() == costs.tobytes()
    assert (sol.iterations, sol.walras_history) == (iterations, walras)
    return True


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
        if assert_solver_matches_reference(params, cfg):
            seen["converged_gamma_below_one"] += gamma < 1.0
        else:
            seen["raised"] += 1
    assert min(seen.values()) >= 3, seen
    # the largest bench rung, with the gamma < 1 inner loop on every sweep
    assert assert_solver_matches_reference(
        random_economy(rng, J=10, N=4, gamma=0.7), SolverConfig())


# stiff09_j2n1 of the eq_ladder benchmark (seed 0), as in CI: it exits 4.
STIFF09_J2N1 = {
    "T": [[0.6655296205119072], [1.165997734333227]],
    "L": [1.0981232360624997, 0.464613693413318],
    "tau": [[1.0, 1.7333717931306722], [1.0594061776523371, 1.0]],
    "alpha": [0.27586463257917426], "beta": [3.6249663128273464],
    "theta": 8.59393049254594, "sigma": 6.225287562955225}


def stiff_single_tier(seed, gamma):
    """A J = 3, N = 1 draw at theta in [8, 20]."""
    rng = np.random.default_rng(seed)
    params = random_economy(rng, J=3, N=1, gamma=gamma)
    return EconomyParams.from_dict({**params.to_dict(), "theta": float(rng.uniform(8.0, 20.0))})


@pytest.mark.parametrize("params, converges", [
    (EconomyParams.from_dict(STIFF09_J2N1), False),
    (stiff_single_tier(0, gamma=1.0), False),       # theta 13.1
    (stiff_single_tier(1, gamma=0.7), True),        # 578 sweeps
], ids=["stiff09_j2n1", "j3n1_stiff", "j3n1_gamma0.7"])
def test_single_tier_solver_matches_reference_over_full_budget(params, converges):
    # Every sweep of the default budget, damping halvings included, through
    # the single-tier shortcuts of the forward, backward and participation steps.
    assert assert_solver_matches_reference(params, SolverConfig()) is converges


def test_public_chain_functions_match_frozen_arithmetic():
    rng = np.random.default_rng(808)
    for k in range(30):
        params = random_economy(rng, gamma=(1.0, 0.6)[k % 2])
        costs = random_costs(rng, params.n_locations)
        fwd, bwd, S = frozen_chain_sums(params, costs)
        part = np.stack([f[:, None] * b / S for f, b in zip(fwd, bwd)])
        assert price_indices(params, costs).tobytes() == frozen_prices(params, S).tobytes()
        assert tier_participation(params, costs).tobytes() == part.tobytes()
        residual, want_costs, want_prices = frozen_residual_pass(costs, params)
        assert labor_market_residuals(costs, params).tobytes() == residual.tobytes()
        got_costs, got_prices = solve_costs(costs, params)
        assert got_costs.tobytes() == want_costs.tobytes()
        # solve_costs prices its converged costs with one more forward pass
        assert got_prices.tobytes() == frozen_prices(
            params, frozen_chain_sums(params, want_costs)[-1]).tobytes()


def test_forward_prices_match_full_pass():
    rng = np.random.default_rng(1106)
    params = random_economy(rng, J=11, N=6)
    costs = random_costs(rng, 11)
    # The chain sums as one forward-backward sweep, totals from the forward sums.
    fwd, bwd, S = frozen_chain_sums(params, costs)
    full = kappa(params.theta, params.sigma) * S ** (-1.0 / params.theta)
    prices = price_indices(params, costs)
    np.testing.assert_array_equal(prices, full)
    chain = _Chain(params)
    np.testing.assert_array_equal(prices, chain.prices(chain.forward(costs)[-1]))
    np.testing.assert_array_equal(prices, chain.prices(_residual_pass(costs, chain)[3]))
    # the backward half reaches the same totals
    np.testing.assert_allclose(np.ones(11) @ bwd[0], S, rtol=1e-12)


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, 0.0, -1.0))
def test_costs_check_runs_on_every_pass(bad):
    message = re.escape("costs must be strictly positive and finite with shape (2,)")
    costs = np.array([1.0, bad])
    for gamma in (1.0, 0.7):
        params = EconomyParams.from_dict({**symmetric_two_tier().to_dict(), "gamma": gamma})
        with pytest.raises(ValueError, match=message):
            solve_costs(costs, params)
    for fn in (price_indices, tier_participation):
        with pytest.raises(ValueError, match=message):
            fn(symmetric_two_tier(), costs)


def single_tier_two_locations(gamma=1.0) -> EconomyParams:
    return EconomyParams.one_tier(T=[2.0, 1.0], L=[1.0, 1.5], tau=[[1.0, 1.3], [1.2, 1.0]],
                                  theta=4.0, sigma=2.0, gamma=gamma)


def strided(values) -> np.ndarray:
    """A non-contiguous float64 view holding ``values``."""
    out = np.full(2 * len(values), 7.0)
    out[::2] = values
    return out[::2]


# float64 takes the fast path of _Chain.factors; the others are converted.
COST_INPUTS = {
    "float64": lambda v: np.array(v, dtype=np.float64),
    "float32": lambda v: np.array(v, dtype=np.float32),
    "int": lambda v: np.array(v, dtype=np.int64),
    "list": list,
    "strided": strided,
}
ECONOMIES = {"two_tier": symmetric_two_tier, "single_tier": single_tier_two_locations}
# Two-tier float64 costs are the cases of test_costs_check_runs_on_every_pass.
BAD_COST_CASES = [(economy, kind, bad) for economy in ECONOMIES for kind in COST_INPUTS
                  for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0)
                  if (kind != "int" or math.isfinite(bad))
                  and (economy, kind) != ("two_tier", "float64")]


@pytest.mark.parametrize("economy, kind, bad", BAD_COST_CASES)
def test_costs_check_runs_on_every_pass_for_each_input_type(economy, kind, bad):
    economy = ECONOMIES[economy]
    costs = COST_INPUTS[kind]([1.0, bad])
    message = "^" + re.escape("costs must be strictly positive and finite with shape (2,)") + "$"
    for gamma in (1.0, 0.7):
        params = EconomyParams.from_dict({**economy().to_dict(), "gamma": gamma})
        with pytest.raises(ValueError, match=message):
            solve_costs(costs, params)
    for fn in (price_indices, tier_participation):
        with pytest.raises(ValueError, match=message):
            fn(economy(), costs)


@pytest.mark.parametrize("economy", ECONOMIES)
def test_converted_costs_give_the_float64_bytes(economy):
    params = ECONOMIES[economy]()
    want = [fn(params, np.array([1.0, 2.0])).tobytes() for fn in (price_indices, tier_participation)]
    for costs in ([1.0, 2.0], np.array([1, 2]), strided([1.0, 2.0])):
        assert [fn(params, costs).tobytes() for fn in (price_indices, tier_participation)] == want


# ---------------------------------------------------------------------------
# no output shares memory with another, or with the next call

def test_solution_arrays_share_no_memory():
    for params in (oracle_economy(), single_tier_two_locations(gamma=0.7), symmetric_two_tier()):
        sol = solve_equilibrium(params)
        arrays = (sol.wages, sol.costs, sol.prices)
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


@pytest.mark.parametrize("economy", ECONOMIES)
def test_outputs_are_fresh_writeable_arrays(economy):
    params = ECONOMIES[economy]()
    costs = np.array([0.8, 1.3])
    for fn in (tier_participation, price_indices,
               lambda p, c: labor_market_residuals(c, p)):
        first = fn(params, costs)
        want = first.tobytes()
        assert first.flags.writeable
        first[...] = -1.0
        assert fn(params, costs).tobytes() == want
    assert costs.tolist() == [0.8, 1.3]


def test_chain_head_row_is_read_only():
    chain = _Chain(single_tier_two_locations())
    fwd = chain.forward(np.array([0.8, 1.3]))[1]
    assert fwd is chain.head and not fwd.flags.writeable
    np.testing.assert_array_equal(fwd, np.ones((1, 2)))
    with pytest.raises(ValueError):
        fwd[0, 0] = 2.0
    fwd = _Chain(symmetric_two_tier()).forward(np.array([0.8, 1.3]))[1]
    np.testing.assert_array_equal(fwd[0], np.ones(2))


def test_solver_costs_skip_the_conversion(monkeypatch):
    # The solver's own costs pass the value test alone; public inputs are
    # converted and checked.
    economies = (oracle_economy(), symmetric_two_tier(),
                 random_economy(np.random.default_rng(5), J=3, N=3, gamma=0.6))
    calls = []

    def spy(x, shape, name, _real=chains._positive_array):
        calls.append(name)
        return _real(x, shape, name)
    monkeypatch.setattr(chains, "_positive_array", spy)
    for params in economies:
        solve_equilibrium(params)
    assert calls == []
    price_indices(economies[0], [1.0, 2.0, 3.0])
    assert calls == ["costs"]
