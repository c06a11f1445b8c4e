import itertools
import math

import numpy as np
import pytest

from gscsim import (
    EconomyParams,
    chain_cost_scale,
    chain_productivity_cdf,
    chain_productivity_location,
    chain_productivity_theta_sensitivity,
    enumerate_paths,
    final_demand_shares,
    intermediate_flow_shares,
    kappa,
    labor_market_residuals,
    local_chain_real_wage,
    path_share,
    path_share_matrix,
    path_scale_matrix,
    price_index,
    price_indices,
    tier_participation,
)

from conftest import random_costs, random_economy, symmetric_two_tier


# ---------------------------------------------------------------------------
# plain-loop oracle, independent of the package internals

def oracle_scale(path, dest, params, costs):
    T, tau = params.T, params.tau
    alpha, beta, theta = params.alpha, params.beta, params.theta
    N = len(path)
    value = 1.0
    for n in range(N):
        loc = path[n]
        nxt = path[n + 1] if n + 1 < N else dest
        tech = T[loc, n] ** alpha[n] * (costs[loc] ** alpha[n] * tau[loc, nxt]) ** (-theta)
        value *= tech ** beta[n]
    return value


def oracle_all(params, costs, dest):
    J, N = params.n_locations, params.n_tiers
    out = {}
    for path in itertools.product(range(J), repeat=N):
        out[path] = oracle_scale(path, dest, params, costs)
    return out


def oracle_price_index(params, costs, dest):
    total = sum(oracle_all(params, costs, dest).values())
    return kappa(params.theta, params.sigma) * total ** (-1.0 / params.theta)


def oracle_final_demand(params, costs):
    J = params.n_locations
    mat = np.zeros((J, J))
    for dest in range(J):
        scales = oracle_all(params, costs, dest)
        total = sum(scales.values())
        for path, s in scales.items():
            mat[path[-1], dest] += s / total
    return mat


def oracle_participation(params, costs):
    J, N = params.n_locations, params.n_tiers
    part = np.zeros((N, J, J))
    for dest in range(J):
        scales = oracle_all(params, costs, dest)
        total = sum(scales.values())
        for path, s in scales.items():
            for n, loc in enumerate(path):
                part[n, loc, dest] += s / total
    return part


def oracle_flows(params, costs, weights):
    J, N = params.n_locations, params.n_tiers
    flows = np.zeros((J, J))
    for dest in range(J):
        scales = oracle_all(params, costs, dest)
        total = sum(scales.values())
        for path, s in scales.items():
            share = s / total
            for n in range(N - 1):
                flows[path[n], path[n + 1]] += params.beta[n] * share * weights[dest]
    cols = flows.sum(axis=0)
    out = np.zeros_like(flows)
    np.divide(flows, cols, out=out, where=cols > 0.0)
    return out


# ---------------------------------------------------------------------------
# frozen single-location values

def test_price_index_single_location_frozen():
    # J=1, N=1, T=1, w=1, theta=4, sigma=2: P = kappa = 1 / Gamma(3/4)
    params = EconomyParams.one_tier(T=[1.0], L=[1.0], tau=[[1.0]], theta=4.0, sigma=2.0)
    P = price_index(0, params, np.array([1.0]))
    assert P == pytest.approx(1.0 / math.gamma(0.75), rel=1e-15)
    assert P == pytest.approx(0.8160489390982628, rel=1e-15)


def test_kappa_values_and_domain():
    assert kappa(4.0, 2.0) == pytest.approx(1.0 / math.gamma(0.75), rel=1e-15)
    # sigma - 1 >= theta leaves the basket integral undefined, and kappa
    # refuses every theta and sigma EconomyParams refuses, with its message.
    # NaN, inf, a complex power, ZeroDivisionError and OverflowError were
    # what some of these used to give.
    nan, inf = math.nan, math.inf
    for theta, sigma in ((2.0, 3.0), (2.0, 3.5), (nan, 2.0), (inf, 2.0), (-inf, 2.0),
                         (4.0, nan), (4.0, inf), (nan, nan), (-1.0, -0.5), (0.0, 1.5),
                         (4.0, 1.0), (4.0, 0.5), (1e-300, 0.9999), (True, 2.0), (4.0, False)):
        with pytest.raises(ValueError) as refused:
            kappa(theta, sigma)
        with pytest.raises(ValueError) as economy:
            EconomyParams.one_tier(T=[1.0], L=[1.0], tau=[[1.0]], theta=theta, sigma=sigma)
        assert str(refused.value) == str(economy.value), (theta, sigma)
    # just inside the domain kappa is finite and positive
    for theta, sigma in ((2.0, 2.999), (0.5, 1.25), (1e6, 1.5)):
        assert 0.0 < kappa(theta, sigma) < inf


def test_single_tier_share_frozen():
    # two sources, T = (2, 1), equal costs, tau = 1, theta arbitrary: the
    # technology scale is linear in T so shares are 2/3 and 1/3.
    params = EconomyParams.one_tier(T=[2.0, 1.0], L=[1.0, 1.0],
                                    tau=np.ones((2, 2)), theta=4.0, sigma=2.0)
    costs = np.ones(2)
    shares = final_demand_shares(params, costs)
    assert shares[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert shares[1, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_doubling_trade_cost_halves_scale():
    # theta = 1, single tier: the scale is proportional to tau^(-1)
    params = EconomyParams.one_tier(T=[1.0, 1.0], L=[1.0, 1.0],
                                    tau=[[1.0, 2.0], [1.5, 1.0]],
                                    theta=1.0, sigma=1.5)
    costs = np.ones(2)
    base = chain_cost_scale((0,), 1, params, costs)
    params2 = EconomyParams.one_tier(T=[1.0, 1.0], L=[1.0, 1.0],
                                     tau=[[1.0, 4.0], [1.5, 1.0]],
                                     theta=1.0, sigma=1.5)
    assert chain_cost_scale((0,), 1, params2, costs) == pytest.approx(base / 2.0, rel=1e-15)


# ---------------------------------------------------------------------------
# oracle equivalence on random economies

# (J, N) shapes appended to the small random draws of the oracle tests, so
# the tier recursion is checked against enumeration on longer chains too.
LARGE_SHAPES = [(4, 4), (5, 2), (2, 5), (5, 5)]


def test_chain_cost_scale_matches_oracle():
    rng = np.random.default_rng(101)
    for _ in range(30):
        params = random_economy(rng)
        costs = random_costs(rng, params.n_locations)
        dest = int(rng.integers(params.n_locations))
        paths, scales = path_scale_matrix(params, costs)
        for k in range(paths.shape[0]):
            path = tuple(int(v) for v in paths[k])
            want = oracle_scale(path, dest, params, costs)
            assert scales[k, dest] == pytest.approx(want, rel=1e-12)
            assert chain_cost_scale(path, dest, params, costs) == pytest.approx(want, rel=1e-12)


def test_path_shares_sum_to_one():
    rng = np.random.default_rng(202)
    for _ in range(40):
        params = random_economy(rng)
        costs = random_costs(rng, params.n_locations)
        paths, shares = path_share_matrix(params, costs)
        assert shares.shape == (paths.shape[0], params.n_locations)
        assert np.all(shares >= 0.0)
        np.testing.assert_allclose(shares.sum(axis=0), 1.0, atol=1e-12)


def test_price_index_matches_oracle():
    rng = np.random.default_rng(303)
    for J, N in [(None, None)] * 20 + LARGE_SHAPES:
        params = random_economy(rng, J=J, N=N)
        costs = random_costs(rng, params.n_locations)
        P = price_indices(params, costs)
        for dest in range(params.n_locations):
            assert P[dest] == pytest.approx(oracle_price_index(params, costs, dest), rel=1e-12)


def test_final_demand_shares_match_oracle():
    rng = np.random.default_rng(404)
    for _ in range(20):
        params = random_economy(rng)
        costs = random_costs(rng, params.n_locations)
        got = final_demand_shares(params, costs)
        np.testing.assert_allclose(got, oracle_final_demand(params, costs), atol=1e-12)
        np.testing.assert_allclose(got.sum(axis=0), 1.0, atol=1e-12)


def test_tier_participation_matches_oracle():
    rng = np.random.default_rng(505)
    for J, N in [(None, None)] * 15 + LARGE_SHAPES:
        params = random_economy(rng, J=J, N=N)
        costs = random_costs(rng, params.n_locations)
        got = tier_participation(params, costs)
        np.testing.assert_allclose(got, oracle_participation(params, costs), atol=1e-12)
        np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-12)


def test_intermediate_flow_shares_match_oracle():
    rng = np.random.default_rng(606)
    for J, N in [(None, None)] * 15 + LARGE_SHAPES:
        N = int(rng.integers(2, 4)) if N is None else N
        params = random_economy(rng, J=J, N=N)
        costs = random_costs(rng, params.n_locations)
        weights = rng.uniform(0.5, 2.0, size=params.n_locations)
        weights /= weights.sum()
        got = intermediate_flow_shares(params, costs, expenditure_weights=weights)
        np.testing.assert_allclose(got, oracle_flows(params, costs, weights), atol=1e-12)


def test_aggregates_past_enumeration_cap():
    # 11**6 chains exceed MAX_PATHS; aggregates never enumerate them
    rng = np.random.default_rng(1106)
    params = random_economy(rng, J=11, N=6)
    costs = random_costs(rng, 11)
    part = tier_participation(params, costs)
    np.testing.assert_allclose(part.sum(axis=1), 1.0, atol=1e-12)
    assert abs(float(labor_market_residuals(costs, params).sum())) < 1e-12
    prices = price_indices(params, costs)
    for j in range(params.n_locations):
        pi_jj = path_share((j,) * params.n_tiers, j, params, costs)
        got = local_chain_real_wage(j, params, pi_jj)
        assert got == pytest.approx(costs[j] / prices[j], rel=1e-10)


def test_intermediate_flow_shares_symmetric_and_autarkic():
    params = symmetric_two_tier()
    flows = intermediate_flow_shares(params, np.ones(2))
    np.testing.assert_allclose(flows, 0.5, atol=1e-14)
    # near-autarky: chains stay home, so each column loads on its own row
    aut = EconomyParams.two_tier(T1=[1.0, 1.0], T2=[1.0, 1.0], L=[1.0, 1.0],
                                 tau=[[1.0, 1e6], [1e6, 1.0]], alpha2=0.5,
                                 theta=4.0, sigma=2.0)
    flows = intermediate_flow_shares(aut, np.ones(2))
    np.testing.assert_allclose(flows, np.eye(2), atol=1e-9)


def test_single_path_share_lookup():
    rng = np.random.default_rng(707)
    params = random_economy(rng, J=2, N=2)
    costs = random_costs(rng, 2)
    paths, shares = path_share_matrix(params, costs)
    for k in range(paths.shape[0]):
        path = tuple(int(v) for v in paths[k])
        assert path_share(path, 1, params, costs) == pytest.approx(shares[k, 1], rel=1e-14)


# ---------------------------------------------------------------------------
# homogeneity: scaling all input costs moves prices one for one and leaves
# every share untouched

def test_degree_zero_homogeneity_of_shares():
    rng = np.random.default_rng(808)
    for _ in range(10):
        params = random_economy(rng)
        costs = random_costs(rng, params.n_locations)
        s = float(rng.uniform(1.5, 4.0))
        _, base_shares = path_share_matrix(params, costs)
        base_prices = price_indices(params, costs)
        _, scaled_shares = path_share_matrix(params, s * costs)
        scaled_prices = price_indices(params, s * costs)
        np.testing.assert_allclose(scaled_shares, base_shares, atol=1e-12)
        np.testing.assert_allclose(scaled_prices, s * base_prices, rtol=1e-12)
        np.testing.assert_allclose(final_demand_shares(params, s * costs),
                                   final_demand_shares(params, costs), atol=1e-12)


# ---------------------------------------------------------------------------
# local-chain real wage identity

def test_local_chain_real_wage_identity():
    rng = np.random.default_rng(909)
    for _ in range(20):
        params = random_economy(rng)
        costs = random_costs(rng, params.n_locations)
        prices = price_indices(params, costs)
        paths, shares = path_share_matrix(params, costs)
        for j in range(params.n_locations):
            home = np.all(paths == j, axis=1)
            pi_jj = float(shares[home, j].sum())
            got = local_chain_real_wage(j, params, pi_jj)
            assert got == pytest.approx(costs[j] / prices[j], rel=1e-10)


def test_local_chain_real_wage_autarky():
    params = EconomyParams.two_tier(T1=[1.5, 1.0], T2=[1.0, 2.0], L=[1.0, 1.0],
                                    tau=[[1.0, 1e6], [1e6, 1.0]], alpha2=0.4,
                                    theta=4.0, sigma=2.0)
    costs = np.array([1.0, 1.3])
    prices = price_indices(params, costs)
    for j in range(2):
        got = local_chain_real_wage(j, params, 1.0)
        assert got == pytest.approx(costs[j] / prices[j], rel=1e-6)


# ---------------------------------------------------------------------------
# chain productivity distribution

def test_chain_productivity_cdf_frozen():
    # location scale exp(-z^-theta * prod T^(alpha beta)); with unit T and
    # theta = 1 the cdf at z = 1 is e^-1, at z = 0.5 it is e^-2.
    params = EconomyParams.two_tier(T1=[1.0, 1.0], T2=[1.0, 1.0], L=[1.0, 1.0],
                                    tau=np.ones((2, 2)), alpha2=0.5,
                                    theta=1.0, sigma=1.5)
    home = (0, 0)
    assert chain_productivity_location(home, params) == pytest.approx(1.0, rel=1e-15)
    assert chain_productivity_cdf(1.0, home, params) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert chain_productivity_cdf(0.5, home, params) == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert chain_productivity_cdf(0.0, home, params) == 0.0
    assert chain_productivity_cdf(-3.0, home, params) == 0.0
    assert chain_productivity_cdf(math.inf, home, params) == 1.0


def test_chain_productivity_cdf_monotone():
    rng = np.random.default_rng(111)
    params = random_economy(rng, J=2, N=2)
    d = params.to_dict()
    d["theta"], d["sigma"] = 3.0, 2.0   # keeps the lower tail representable
    params = EconomyParams.from_dict(d)
    z = np.linspace(0.4, 6.0, 200)
    vals = np.array([chain_productivity_cdf(float(zi), (0, 1), params) for zi in z])
    assert np.all(np.diff(vals) > 0.0)
    assert 0.0 < vals[0] < vals[-1] < 1.0


def test_theta_sensitivity_matches_finite_difference():
    rng = np.random.default_rng(222)
    for _ in range(10):
        params = random_economy(rng, J=2, N=2)
        z = float(rng.uniform(0.4, 3.0))
        if abs(z - 1.0) < 0.05:
            z += 0.1   # derivative vanishes near z = 1, keep the ratio stable
        path = tuple(int(v) for v in rng.integers(0, 2, size=2))
        got = chain_productivity_theta_sensitivity(z, path, params)
        h = 1e-5 * params.theta
        d = params.to_dict()
        d["theta"] = params.theta + h
        hi = EconomyParams.from_dict(d)
        d["theta"] = params.theta - h
        lo = EconomyParams.from_dict(d)
        fd = (chain_productivity_cdf(z, path, hi) - chain_productivity_cdf(z, path, lo)) / (2 * h)
        assert got == pytest.approx(fd, rel=1e-6)


def test_theta_sensitivity_vanishes_at_infinite_productivity():
    # F(inf) = 1 and z**(-theta) * log(z) -> 0; evaluating 0 * log(inf) gave NaN.
    params = symmetric_two_tier()
    assert chain_productivity_theta_sensitivity(math.inf, [0, 1], params) == 0.0
    assert chain_productivity_theta_sensitivity(1e300, [0, 1], params) == 0.0


# ---------------------------------------------------------------------------
# parameter validation and enumeration limits

def test_parameter_validation():
    ones = np.ones((2, 2))
    with pytest.raises(ValueError):   # sigma - 1 >= theta
        EconomyParams.one_tier(T=[1.0, 1.0], L=[1.0, 1.0], tau=ones, theta=2.0, sigma=3.5)
    with pytest.raises(ValueError):   # tau below one
        EconomyParams.one_tier(T=[1.0, 1.0], L=[1.0, 1.0],
                               tau=[[1.0, 0.5], [1.2, 1.0]], theta=4.0, sigma=2.0)
    with pytest.raises(ValueError):   # tau diagonal must be one
        EconomyParams.one_tier(T=[1.0, 1.0], L=[1.0, 1.0],
                               tau=[[1.1, 1.2], [1.2, 1.0]], theta=4.0, sigma=2.0)
    with pytest.raises(ValueError):   # tier weights must aggregate to one
        EconomyParams(T=np.ones((2, 2)), L=[1.0, 1.0], tau=ones,
                      alpha=[1.0, 0.5], beta=[1.0, 1.0], theta=4.0, sigma=2.0)
    with pytest.raises(ValueError):   # nonpositive technology
        EconomyParams.one_tier(T=[1.0, 0.0], L=[1.0, 1.0], tau=ones, theta=4.0, sigma=2.0)
    with pytest.raises(ValueError):   # gamma outside (0, 1]
        EconomyParams.one_tier(T=[1.0, 1.0], L=[1.0, 1.0], tau=ones,
                               theta=4.0, sigma=2.0, gamma=0.0)


@pytest.mark.parametrize("J", (4, 2))
def test_one_tier_refuses_a_two_dimensional_technology(J):
    # Reshaping first read a (2, 2) T as four locations, or blamed L.
    with pytest.raises(ValueError, match=r"^T must have shape \(locations,\), got \(2, 2\)$"):
        EconomyParams.one_tier(T=[[1, 2], [3, 4]], L=[1] * J, tau=np.ones((J, J)),
                               theta=4, sigma=2)


def test_parameter_validation_rejects_non_finite_theta_and_sigma():
    # NaN fails no "<=" comparison, so a NaN sigma used to pass validation.
    base = symmetric_two_tier().to_dict()
    for key, value, message in (("theta", math.nan, r"theta must lie in \(0, inf\), got nan"),
                                ("theta", math.inf, r"theta must lie in \(0, inf\), got inf"),
                                ("sigma", math.nan, r"sigma must lie in \(1, inf\), got nan"),
                                ("sigma", math.inf, r"sigma must lie in \(1, inf\), got inf")):
        with pytest.raises(ValueError, match=message):
            EconomyParams.from_dict({**base, key: value})
        kwargs = {"theta": 4.0, "sigma": 2.0, key: value}
        with pytest.raises(ValueError, match=message):
            EconomyParams.one_tier(T=[1.0, 1.0], L=[1.0, 1.0], tau=np.ones((2, 2)), **kwargs)


def test_two_tier_weights():
    params = EconomyParams.two_tier(T1=[1.0, 1.0], T2=[1.0, 1.0], L=[1.0, 1.0],
                                    tau=np.ones((2, 2)), alpha2=0.3,
                                    theta=4.0, sigma=2.0)
    np.testing.assert_allclose(params.alpha, [1.0, 0.3])
    np.testing.assert_allclose(params.beta, [0.7, 1.0])
    assert params.alpha @ params.beta == pytest.approx(1.0, abs=1e-15)


def test_enumeration_order_and_cap():
    paths = enumerate_paths(2, 2)
    np.testing.assert_array_equal(paths, [[0, 0], [0, 1], [1, 0], [1, 1]])
    assert enumerate_paths(4, 3).shape == (64, 3)
    with pytest.raises(ValueError):
        enumerate_paths(11, 6)          # 11^6 exceeds the path budget


def test_round_trip_dict():
    rng = np.random.default_rng(333)
    params = random_economy(rng)
    clone = EconomyParams.from_dict(params.to_dict())
    np.testing.assert_allclose(clone.T, params.T)
    np.testing.assert_allclose(clone.tau, params.tau)
    assert clone.theta == params.theta and clone.sigma == params.sigma
