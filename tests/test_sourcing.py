import math

import numpy as np
import pytest

from gscsim import (
    EAST,
    SOUTH,
    BeliefSet,
    ShockDraw,
    ShockParams,
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

from gscsim.sourcing import _branch_values, _score

from conftest import random_economy, symmetric_two_tier

UNIT_COSTS = np.ones(2)
SHOCKS = ShockParams(eta=0.2, lam=1.0, zeta=0.9)


def counts_for(weights, total, n_tiers=1):
    alloc = SourcingAllocation.uniform_tiers(np.asarray(weights, dtype=float),
                                             total, n_tiers)
    return supplier_counts(alloc)[:, 0]


# ---------------------------------------------------------------------------
# integer apportionment

def test_supplier_counts_frozen_cases():
    np.testing.assert_array_equal(counts_for([0.5, 0.5], 10), [5, 5])
    np.testing.assert_array_equal(counts_for([0.3, 0.7], 10), [3, 7])
    np.testing.assert_array_equal(counts_for([1.0, 0.0], 10), [10, 0])
    # the at-least-one floor keeps a toehold wherever phi is positive
    np.testing.assert_array_equal(counts_for([0.02, 0.98], 10), [1, 9])
    np.testing.assert_array_equal(counts_for([0.999, 0.001], 10), [9, 1])


def test_supplier_counts_half_tie_trims_first():
    # raw (3.5, 6.5) rounds up twice; the surplus is trimmed from the first
    # location, so the mirrored input is intentionally not mirrored output.
    np.testing.assert_array_equal(counts_for([0.35, 0.65], 10), [3, 7])
    np.testing.assert_array_equal(counts_for([0.65, 0.35], 10), [6, 4])


def test_supplier_counts_single_supplier():
    # guarantee infeasible with two positive weights: plain rounding wins
    np.testing.assert_array_equal(counts_for([0.5, 0.5], 1), [0, 1])
    np.testing.assert_array_equal(counts_for([0.9, 0.1], 1), [1, 0])


def test_supplier_counts_preserve_totals():
    rng = np.random.default_rng(55)
    for _ in range(300):
        J = int(rng.integers(2, 6))
        w = rng.dirichlet(np.ones(J) * rng.uniform(0.3, 3.0))
        total = int(rng.integers(1, 40))
        counts = counts_for(w, total)
        assert counts.sum() == total
        assert np.all(counts >= 0)
        if (w > 0).sum() <= total:
            assert np.all(counts[w > 0] >= 1)
        if np.all(w * total >= 1.0):
            # floors not binding: counts stay within one of plain rounding
            assert np.max(np.abs(counts - w * total)) < 2.0


def test_allocation_validation():
    with pytest.raises(ValueError):
        SourcingAllocation(phi=np.array([[0.6], [0.6]]), M=np.array([10]))
    with pytest.raises(ValueError):
        SourcingAllocation(phi=np.array([[1.2], [-0.2]]), M=np.array([10]))
    with pytest.raises(ValueError):
        SourcingAllocation(phi=np.array([[0.5], [0.5]]), M=np.array([0]))


# ---------------------------------------------------------------------------
# utility and survival

def test_crra_utility():
    assert crra_utility(2.0, 0.0) == 2.0
    assert crra_utility(2.0, 1.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert crra_utility(2.0, 2.0) == pytest.approx(-0.5, rel=1e-15)
    assert crra_utility(0.0, 1.0) == -math.inf
    assert crra_utility(0.0, 2.0) == -math.inf
    assert crra_utility(0.0, 0.5) == 0.0
    with pytest.raises(ValueError):
        crra_utility(-1.0, 2.0)
    with pytest.raises(ValueError):
        UtilitySpec(rho=-0.5)


def test_utility_rejects_non_finite_rho():
    # A NaN rho used to pass, and the planner then put every supplier in East.
    for rho in (math.nan, math.inf):
        with pytest.raises(ValueError, match="rho must be finite"):
            UtilitySpec(rho=rho)


def test_chain_survival():
    south_only = SourcingAllocation.uniform_tiers([0.0, 1.0], 10, 2)
    split = SourcingAllocation.uniform_tiers([0.5, 0.5], 10, 2)
    assert not chain_survives(south_only, ShockDraw(SOUTH))
    assert chain_survives(south_only, ShockDraw(EAST))
    assert chain_survives(south_only, ShockDraw(None))
    assert chain_survives(split, ShockDraw(SOUTH))
    assert chain_survives(split, ShockDraw(EAST))


def test_allocation_value_frozen():
    params = symmetric_two_tier()
    # two tiers, two suppliers each, all East, unit costs, sigma = 2:
    # four varieties of quantity one aggregate to 4^2 = 16
    alloc = SourcingAllocation.uniform_tiers([1.0, 0.0], 2, 2)
    assert allocation_value(alloc, ShockDraw(None), params, UNIT_COSTS) == pytest.approx(16.0, rel=1e-12)
    assert allocation_value(alloc, ShockDraw(EAST), params, UNIT_COSTS) == 0.0
    assert allocation_value(alloc, ShockDraw(SOUTH), params, UNIT_COSTS) == pytest.approx(16.0, rel=1e-12)


def test_allocation_value_loves_variety():
    params = symmetric_two_tier()
    values = []
    for m in (2, 4, 8, 16):
        alloc = SourcingAllocation.uniform_tiers([0.5, 0.5], m, 2)
        values.append(allocation_value(alloc, ShockDraw(None), params, UNIT_COSTS))
    assert all(b > a for a, b in zip(values, values[1:]))


def test_allocation_value_prefers_cheap_suppliers():
    params = symmetric_two_tier()
    costs = np.array([1.0, 0.9])
    east = SourcingAllocation.uniform_tiers([1.0, 0.0], 10, 2)
    south = SourcingAllocation.uniform_tiers([0.0, 1.0], 10, 2)
    v_east = allocation_value(east, ShockDraw(None), params, costs)
    v_south = allocation_value(south, ShockDraw(None), params, costs)
    assert v_south > v_east
    # frozen: 20 varieties at cost 0.9, sigma = 2 -> (20 / sqrt(0.9))^2
    assert v_south == pytest.approx(400.0 / 0.9, rel=1e-12)


def test_allocation_value_validation():
    params = symmetric_two_tier()
    alloc = SourcingAllocation.uniform_tiers([0.5, 0.5], 10, 2)
    with pytest.raises(ValueError):
        allocation_value(alloc, ShockDraw(None), params, np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        allocation_value(alloc, ShockDraw(None), params, np.ones(3))


def test_objectives_reject_non_finite_and_zero_costs():
    params = symmetric_two_tier()
    alloc = SourcingAllocation.uniform_tiers([0.5, 0.5], 10, 2)
    utility = UtilitySpec(rho=2.0)
    calls = (
        lambda c: allocation_value(alloc, ShockDraw(None), params, c),
        lambda c: risk_objective(alloc, params, SHOCKS, utility, c),
        lambda c: ambiguity_objective(alloc, params, SHOCKS,
                                      BeliefSet(0.2, 0.8), utility, c),
    )
    for bad in (math.nan, math.inf, 0.0):
        for call in calls:
            with pytest.raises(ValueError, match="costs must be strictly positive"):
                call(np.array([1.0, bad]))


# ---------------------------------------------------------------------------
# atomistic firms

def test_individual_sourcing_chases_safety():
    params = symmetric_two_tier()
    # East bears 90% of the shock odds: everyone sources South
    alloc = individual_sourcing(params, ShockParams(0.2, 1.0, 0.9), costs=UNIT_COSTS)
    np.testing.assert_allclose(alloc.phi[:, 0], [0.0, 1.0])
    # and the reverse
    alloc = individual_sourcing(params, ShockParams(0.2, 1.0, 0.1), costs=UNIT_COSTS)
    np.testing.assert_allclose(alloc.phi[:, 0], [1.0, 0.0])


def test_individual_sourcing_tie_splits():
    params = symmetric_two_tier()
    alloc = individual_sourcing(params, ShockParams(0.2, 1.0, 0.5), costs=UNIT_COSTS)
    np.testing.assert_allclose(alloc.phi[:, 0], [0.5, 0.5])
    np.testing.assert_array_equal(supplier_counts(alloc), [[5, 5], [5, 5]])


def test_individual_sourcing_price_breaks_ties():
    params = symmetric_two_tier()
    alloc = individual_sourcing(params, ShockParams(0.2, 1.0, 0.5),
                                costs=np.array([1.0, 0.9]))
    np.testing.assert_allclose(alloc.phi[:, 0], [0.0, 1.0])


def test_individual_sourcing_ignores_shock_when_eta_zero():
    params = symmetric_two_tier()
    alloc = individual_sourcing(params, ShockParams(0.0, 1.0, 0.9),
                                costs=np.array([0.8, 1.0]))
    np.testing.assert_allclose(alloc.phi[:, 0], [1.0, 0.0])


# ---------------------------------------------------------------------------
# independent grid oracle for the planner rules

def oracle_counts(weights, total):
    raw = [w * total for w in weights]
    counts = [math.floor(r + 0.5) for r in raw]
    need = [1 if w > 0.0 else 0 for w in weights]
    if sum(need) > total:
        need = [0] * len(weights)
    counts = [max(c, nd) for c, nd in zip(counts, need)]
    while sum(counts) > total:
        best, besti = None, None
        for i, c in enumerate(counts):
            if c <= need[i]:
                continue
            over = c - raw[i]
            if best is None or over > best:
                best, besti = over, i
        counts[besti] -= 1
    while sum(counts) < total:
        best, besti = None, None
        for i, c in enumerate(counts):
            under = raw[i] - c
            if best is None or under > best:
                best, besti = under, i
        counts[besti] += 1
    return counts


def oracle_value(counts_by_tier, sigma, costs):
    # counts_by_tier: per-tier list of per-location survivors
    if any(sum(tier) < 1 for tier in counts_by_tier):
        return 0.0
    basket = 0.0
    for tier in counts_by_tier:
        for loc, c in enumerate(tier):
            basket += c * (1.0 / costs[loc]) ** ((sigma - 1.0) / sigma)
    return basket ** (sigma / (sigma - 1.0))


def oracle_crra(v, rho):
    if v == 0.0:
        return -math.inf if rho >= 1.0 else 0.0
    if rho == 1.0:
        return math.log(v)
    return v ** (1.0 - rho) / (1.0 - rho)


def oracle_score(x, M, n_tiers, sigma, costs, eta, zeta, rho):
    tier = oracle_counts([1.0 - x, x], M)
    branches = []
    for hit in (None, EAST, SOUTH):
        left = [list(tier) for _ in range(n_tiers)]
        if hit is not None:
            for t in left:
                t[hit] = 0
        branches.append(oracle_value(left, sigma, costs))
    probs = (1.0 - eta, eta * zeta, eta * (1.0 - zeta))
    eu, ev, survived = 0.0, 0.0, 0
    for p, v in zip(probs, branches):
        if p == 0.0:
            continue
        eu += p * oracle_crra(v, rho)
        ev += p * v
        if v > 0.0:
            survived += 1
    return (eu, survived, ev)


def oracle_risk_planner(grid, M, n_tiers, sigma, costs, eta, zeta, rho):
    best, best_x = None, None
    for k in range(grid):
        x = k / (grid - 1)
        rank = (oracle_score(x, M, n_tiers, sigma, costs, eta, zeta, rho),
                -abs(x - 0.5), -x)
        if best is None or rank > best:
            best, best_x = rank, x
    return best_x


def test_supplier_counts_match_oracle():
    rng = np.random.default_rng(66)
    for _ in range(200):
        J = int(rng.integers(2, 5))
        w = rng.dirichlet(np.ones(J))
        total = int(rng.integers(1, 30))
        np.testing.assert_array_equal(counts_for(w, total),
                                      oracle_counts(list(w), total))


def test_supplier_counts_keep_each_tier_total():
    # Each tier is apportioned against its own M: random splits, corners and
    # exact halves mixed across tiers, each column checked on its own.
    rng = np.random.default_rng(77)
    for k in range(400):
        J = int(rng.integers(1, 7))
        N = int(rng.integers(1, 5))
        phi = rng.dirichlet(np.ones(J), size=N).T
        for n in range(N):
            kind = int(rng.integers(3))
            if kind == 1:
                phi[:, n] = 0.0
                phi[rng.integers(J), n] = 1.0
            elif kind == 2 and J > 1:
                phi[:, n] = 0.0
                phi[rng.choice(J, 2, replace=False), n] = 0.5
        M = rng.integers(1, 40, size=N)
        counts = supplier_counts(SourcingAllocation(phi=phi, M=M))
        assert counts.shape == (J, N)
        for n in range(N):
            assert counts[:, n].tolist() == oracle_counts(list(phi[:, n]), int(M[n])), (k, n)


def test_planner_risk_matches_grid_oracle():
    params = symmetric_two_tier()
    for zeta, rho, costs in [(0.9, 2.0, UNIT_COSTS),
                             (0.5, 2.0, UNIT_COSTS),
                             (0.9, 1.0, np.array([1.0, 0.9])),
                             (0.3, 3.0, np.array([1.1, 1.0]))]:
        shocks = ShockParams(eta=0.2, lam=1.0, zeta=zeta)
        alloc = planner_risk_sourcing(params, shocks, UtilitySpec(rho),
                                      grid_resolution=101, costs=costs)
        want = oracle_risk_planner(101, 10, 2, params.sigma, list(costs),
                                   0.2, zeta, rho)
        assert alloc.phi[SOUTH, 0] == pytest.approx(want, abs=1e-15)


def full_grid_phi(params, key_fn, grid, M, costs):
    """The planner search as a scalar loop that scores every grid point."""
    best_rank, best_x = None, None
    for x in np.linspace(0.0, 1.0, grid):
        counts1 = np.array(oracle_counts([1.0 - x, x], M))
        counts = np.repeat(counts1[:, None], params.n_tiers, axis=1)
        rank = (key_fn(_branch_values(counts, params, costs)), -abs(x - 0.5), -x)
        if best_rank is None or rank > best_rank:
            best_rank, best_x = rank, x
    return SourcingAllocation.uniform_tiers(
        np.array([1.0 - best_x, best_x]), M, params.n_tiers).phi


def test_planner_search_matches_full_grid():
    # Scoring each distinct count vector once must return the very phi a
    # sweep over every grid point returns, ties included.
    rng = np.random.default_rng(303)
    edges = [(eta, zeta) for eta in (0.0, 1.0, None) for zeta in (0.0, 1.0, None)]
    for k in range(18):
        eta, zeta = edges[k % len(edges)]
        eta = float(rng.random()) if eta is None else eta
        zeta = float(rng.random()) if zeta is None else zeta
        rho = (0.0, 1.0, 0.5, 3.0)[k % 4]
        M = 1 if k % 5 == 0 else int(rng.integers(2, 31))
        grid = {0: 2, 1: 2001}.get(k % 6, int(rng.integers(3, 300)))
        params = random_economy(rng, J=2) if k % 2 else symmetric_two_tier()
        costs = UNIT_COSTS if k % 6 == 0 else rng.uniform(0.5, 2.0, size=2)
        lo = float(rng.uniform(0.0, zeta))
        beliefs = BeliefSet.singleton(lo) if k % 7 == 0 else \
            BeliefSet(lo, float(rng.uniform(zeta, 1.0)))
        shocks = ShockParams(eta=eta, lam=1.0, zeta=zeta)
        utility = UtilitySpec(rho)
        kw = dict(grid_resolution=grid, suppliers_per_tier=M, costs=costs)

        def risk_key(values):
            return _score(values, eta, zeta, rho)

        def ambiguity_key(values):
            return min(_score(values, eta, z, rho) for z in beliefs.endpoints)

        risk = planner_risk_sourcing(params, shocks, utility, **kw)
        assert risk.phi.tobytes() == full_grid_phi(
            params, risk_key, grid, M, costs).tobytes(), k
        amb = planner_ambiguity_sourcing(params, shocks, beliefs, utility, **kw)
        assert amb.phi.tobytes() == full_grid_phi(
            params, ambiguity_key, grid, M, costs).tobytes(), k


def test_planner_tie_goes_to_smaller_south_share():
    # On a 10-point grid 4/9 and 5/9 lie exactly as far from one half and
    # both give one supplier per location: the smaller South share wins.
    params = symmetric_two_tier()
    xs = np.linspace(0.0, 1.0, 10)
    assert abs(xs[4] - 0.5) == abs(xs[5] - 0.5)
    alloc = planner_risk_sourcing(params, SHOCKS, UtilitySpec(rho=2.0),
                                  grid_resolution=10, suppliers_per_tier=2,
                                  costs=UNIT_COSTS)
    assert alloc.phi[SOUTH, 0] == xs[4]

    def key(values):
        return _score(values, SHOCKS.eta, SHOCKS.zeta, 2.0)

    assert alloc.phi.tobytes() == full_grid_phi(params, key, 10, 2, UNIT_COSTS).tobytes()


def test_planner_risk_diversifies():
    params = symmetric_two_tier()
    alloc = planner_risk_sourcing(params, SHOCKS, UtilitySpec(rho=2.0), costs=UNIT_COSTS)
    np.testing.assert_allclose(alloc.phi[:, 0], [0.35, 0.65], atol=1e-12)
    np.testing.assert_array_equal(supplier_counts(alloc), [[3, 3], [7, 7]])


def test_planner_risk_neutral_goes_corner():
    params = symmetric_two_tier()
    alloc = planner_risk_sourcing(params, SHOCKS, UtilitySpec(rho=0.0), costs=UNIT_COSTS)
    np.testing.assert_allclose(alloc.phi[:, 0], [0.0, 1.0])


def test_planner_extreme_aversion_evens_out():
    params = symmetric_two_tier()
    alloc = planner_risk_sourcing(params, SHOCKS, UtilitySpec(rho=50.0), costs=UNIT_COSTS)
    assert alloc.phi[SOUTH, 0] == pytest.approx(0.5, abs=1e-15)


def test_planner_no_shock_risk_ties_to_even_split():
    # with eta = 0 every split scores the same total-variety value, so the
    # diversification tie-break must land exactly on one half
    params = symmetric_two_tier()
    alloc = planner_risk_sourcing(params, ShockParams(0.0, 1.0, 0.5),
                                  UtilitySpec(rho=2.0), costs=UNIT_COSTS)
    assert alloc.phi[SOUTH, 0] == 0.5


def test_planner_risk_is_grid_optimal():
    params = symmetric_two_tier()
    alloc = planner_risk_sourcing(params, SHOCKS, UtilitySpec(rho=2.0), costs=UNIT_COSTS)
    best = risk_objective(alloc, params, SHOCKS, UtilitySpec(rho=2.0), UNIT_COSTS)
    for x in np.linspace(0.0, 1.0, 101):
        rival = SourcingAllocation.uniform_tiers([1.0 - x, x], 10, 2)
        assert risk_objective(rival, params, SHOCKS, UtilitySpec(rho=2.0), UNIT_COSTS) <= best + 1e-12


def test_planner_ambiguity_even_split():
    params = symmetric_two_tier()
    for lo, hi in [(0.0, 1.0), (0.2, 0.8)]:
        alloc = planner_ambiguity_sourcing(params, SHOCKS, BeliefSet(lo, hi),
                                           costs=UNIT_COSTS)
        assert alloc.phi[SOUTH, 0] == 0.5   # exact grid point, not approx


def test_planner_ambiguity_singleton_equals_risk():
    params = symmetric_two_tier()
    u = UtilitySpec(rho=2.0)
    amb = planner_ambiguity_sourcing(params, SHOCKS, BeliefSet.singleton(0.9),
                                     utility=u, costs=UNIT_COSTS)
    risk = planner_risk_sourcing(params, SHOCKS, u, costs=UNIT_COSTS)
    np.testing.assert_allclose(amb.phi, risk.phi, atol=1e-15)


def test_planner_ambiguity_ignores_realized_odds():
    params = symmetric_two_tier()
    beliefs = BeliefSet(0.1, 0.9)
    allocs = [planner_ambiguity_sourcing(params, ShockParams(0.2, 1.0, z),
                                         beliefs, costs=UNIT_COSTS)
              for z in (0.1, 0.5, 0.9)]
    for other in allocs[1:]:
        np.testing.assert_allclose(other.phi, allocs[0].phi, atol=1e-15)


def test_planner_ambiguity_is_maximin():
    params = symmetric_two_tier()
    beliefs = BeliefSet(0.0, 1.0)
    u = UtilitySpec(rho=1.0)
    alloc = planner_ambiguity_sourcing(params, SHOCKS, beliefs, utility=u,
                                       costs=UNIT_COSTS)
    best = ambiguity_objective(alloc, params, SHOCKS, beliefs, u, UNIT_COSTS)
    for x in np.linspace(0.0, 1.0, 101):
        rival = SourcingAllocation.uniform_tiers([1.0 - x, x], 10, 2)
        worst = ambiguity_objective(rival, params, SHOCKS, beliefs, u, UNIT_COSTS)
        assert worst <= best + 1e-12


def test_planner_requires_two_locations():
    rng = np.random.default_rng(77)
    from conftest import random_economy
    params = random_economy(rng, J=3, N=2)
    with pytest.raises(ValueError):
        planner_risk_sourcing(params, SHOCKS, UtilitySpec(2.0), costs=np.ones(3))


def test_diversification_costs_efficiency():
    # cheaper South: firms concentrate there and enjoy a higher no-shock
    # value than the diversified planner basket
    params = symmetric_two_tier()
    costs = np.array([1.0, 0.9])
    firms = individual_sourcing(params, SHOCKS, costs=costs)
    planner = planner_risk_sourcing(params, SHOCKS, UtilitySpec(rho=2.0), costs=costs)
    v_firms = allocation_value(firms, ShockDraw(None), params, costs)
    v_planner = allocation_value(planner, ShockDraw(None), params, costs)
    assert v_firms == pytest.approx(400.0 / 0.9, rel=1e-12)
    assert v_planner < v_firms
    # but the planner never dies, while the firm corner dies with the South
    assert not chain_survives(firms, ShockDraw(SOUTH))
    assert chain_survives(planner, ShockDraw(SOUTH))
    assert chain_survives(planner, ShockDraw(EAST))
