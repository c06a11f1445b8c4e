"""Multi-tier sourcing chains with Frechet productivity draws.

A final good assembled for destination j can be produced along any chain of
locations l = (l1, ..., lN), one per production tier.  Tier n combines local
labour with the tier n-1 input under a Cobb-Douglas technology (labour share
alpha[n]), and idea-level productivities are Frechet so that chain-level
trade shares take the usual CES-gravity form.  This module computes chain
cost scales, path-level trade shares, price indices and the tier
participation shares that the wage equilibrium needs.  Sums over the J**N
chains come from a tier-by-tier matrix recursion in two halves: a forward
half that yields the chain totals, and so the price indices, and a backward
half that only participation and flow shares need.  Only the functions that
return one value per chain enumerate the chains.

Conventions used throughout:

* ``T[i, n]`` is the technology level of location i at tier n,
* ``tau[i, j]`` is the iceberg cost of shipping from i to j (diagonal 1),
* ``costs[i]`` is the composite input cost of location i,
* ``alpha[n] * beta[n]`` is the share of final-good value paid to tier-n
  labour, and the betas cumulate downstream intermediate shares so that
  ``sum(alpha * beta) == 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Per-path output needs one row per chain, exponential in the number of
# tiers; refuse silently huge problems instead of sampling.
MAX_PATHS = 1_000_000


def _positive_array(x, shape, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != shape or not (np.isfinite(arr) & (arr > 0.0)).all():
        raise ValueError(f"{name} must be strictly positive and finite with shape {shape}")
    return arr


def _whole(x, name: str):
    """``x`` as an int (an ``intp`` array if array-like).  NaN, inf and fractions
    raise; whole floats pass, and Python ints are kept exact, large seeds too."""
    if isinstance(x, (int, np.integer)):
        return int(x)
    arr = np.asarray(x, dtype=float)
    if not (np.isfinite(arr) & (arr == np.floor(arr))).all():
        raise ValueError(f"{name} must be a whole number, got {x}")
    return int(arr) if arr.ndim == 0 else arr.astype(np.intp)


@dataclass
class EconomyParams:
    """Primitives of the chain economy.

    Parameters
    ----------
    T : array (J, N)
        Technology level per location and tier.
    L : array (J,)
        Labour endowments.
    tau : array (J, J)
        Iceberg trade costs, all >= 1 with a unit diagonal.
    alpha : array (N,)
        Labour share of tier-n production, each in (0, 1].
    beta : array (N,)
        Downstream weight of tier n; ``sum(alpha * beta)`` must equal 1 so
        that labour payments exhaust final-good value.
    theta : float
        Frechet dispersion of chain productivity (trade elasticity).
    sigma : float
        Elasticity of substitution across varieties; requires
        ``sigma - 1 < theta`` for the price index to exist.
    gamma : float
        Labour share of the composite input cost, ``c = w**gamma *
        P**(1 - gamma)``.  Default 1 (labour-only costs).
    """

    T: np.ndarray
    L: np.ndarray
    tau: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    theta: float
    sigma: float
    gamma: float = 1.0

    def __post_init__(self):
        self.T = np.asarray(self.T, dtype=float)
        if self.T.ndim != 2:
            raise ValueError("T must be a 2-d array of shape (locations, tiers)")
        J, N = self.T.shape
        if J < 1 or N < 1:
            raise ValueError("need at least one location and one tier")
        self.T = _positive_array(self.T, (J, N), "T")
        self.L = _positive_array(self.L, (J,), "L")
        self.tau = _positive_array(self.tau, (J, J), "tau")
        if np.any(self.tau < 1.0):
            raise ValueError("iceberg costs tau must be >= 1")
        if not np.allclose(np.diag(self.tau), 1.0):
            raise ValueError("tau must have a unit diagonal")
        self.alpha = _positive_array(self.alpha, (N,), "alpha")
        self.beta = _positive_array(self.beta, (N,), "beta")
        if np.any(self.alpha > 1.0):
            raise ValueError("labour shares alpha must lie in (0, 1]")
        weight = float(np.sum(self.alpha * self.beta))
        if abs(weight - 1.0) > 1e-9:
            raise ValueError(
                f"tier labour weights must exhaust output value: "
                f"sum(alpha * beta) = {weight:.12g}, expected 1"
            )
        self.theta = float(self.theta)
        self.sigma = float(self.sigma)
        self.gamma = float(self.gamma)
        # Written so that NaN fails each range check.
        if not 0.0 < self.theta < np.inf:
            raise ValueError("theta must be positive and finite")
        if not 1.0 < self.sigma < np.inf:
            raise ValueError("sigma must exceed 1 and be finite")
        if self.sigma - 1.0 >= self.theta:
            raise ValueError(
                f"price index requires sigma - 1 < theta, "
                f"got sigma={self.sigma}, theta={self.theta}"
            )
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")

    @property
    def n_locations(self) -> int:
        return self.T.shape[0]

    @property
    def n_tiers(self) -> int:
        return self.T.shape[1]

    @classmethod
    def one_tier(cls, T, L, tau, theta, sigma, gamma=1.0) -> "EconomyParams":
        """Single-tier economy: plain sourcing with alpha = beta = 1."""
        T = np.asarray(T, dtype=float).reshape(-1, 1)
        return cls(T=T, L=L, tau=tau, alpha=np.ones(1), beta=np.ones(1),
                   theta=theta, sigma=sigma, gamma=gamma)

    @classmethod
    def two_tier(cls, T1, T2, L, tau, alpha2, theta, sigma, gamma=1.0) -> "EconomyParams":
        """Two-tier chain: upstream suppliers feed final assembly.

        The upstream tier is pure labour (alpha1 = 1) and the assembly tier
        spends share ``alpha2`` on labour and ``1 - alpha2`` on the upstream
        input, so beta = (1 - alpha2, 1).
        """
        alpha2 = float(alpha2)
        if not 0.0 < alpha2 < 1.0:
            raise ValueError("alpha2 must lie strictly between 0 and 1")
        T = np.column_stack([np.asarray(T1, dtype=float),
                             np.asarray(T2, dtype=float)])
        return cls(T=T, L=L, tau=tau,
                   alpha=np.array([1.0, alpha2]),
                   beta=np.array([1.0 - alpha2, 1.0]),
                   theta=theta, sigma=sigma, gamma=gamma)

    def to_dict(self) -> dict:
        return {
            "T": self.T.tolist(),
            "L": self.L.tolist(),
            "tau": self.tau.tolist(),
            "alpha": self.alpha.tolist(),
            "beta": self.beta.tolist(),
            "theta": self.theta,
            "sigma": self.sigma,
            "gamma": self.gamma,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EconomyParams":
        keys = ("T", "L", "tau", "alpha", "beta", "theta", "sigma")
        missing = [k for k in keys if k not in d]
        if missing:
            raise ValueError(f"economy config missing keys: {', '.join(missing)}")
        return cls(**{k: d[k] for k in keys}, gamma=d.get("gamma", 1.0))


def kappa(theta: float, sigma: float) -> float:
    """CES constant of the Frechet price index.

    kappa = Gamma((theta + 1 - sigma) / theta) ** (1 / (1 - sigma)), which is
    finite exactly when sigma - 1 < theta.
    """
    if sigma - 1.0 >= theta:
        raise ValueError("kappa requires sigma - 1 < theta")
    return math.gamma((theta + 1.0 - sigma) / theta) ** (1.0 / (1.0 - sigma))


def composite_cost(wages, prices, gamma: float) -> np.ndarray:
    """Cobb-Douglas input cost c = w**gamma * P**(1 - gamma)."""
    w = np.asarray(wages, dtype=float)
    P = np.asarray(prices, dtype=float)
    return w ** gamma * P ** (1.0 - gamma)


def enumerate_paths(n_locations: int, n_tiers: int) -> np.ndarray:
    """All location assignments, one row per chain, shape (J**N, N).

    Rows are in lexicographic order with the upstream tier varying slowest.
    Raises if the enumeration would exceed ``MAX_PATHS``.
    """
    count = n_locations ** n_tiers
    if count > MAX_PATHS:
        raise ValueError(
            f"{n_locations}**{n_tiers} = {count} chains exceeds the "
            f"enumeration cap of {MAX_PATHS}"
        )
    grids = np.indices((n_locations,) * n_tiers).reshape(n_tiers, count)
    return grids.T.astype(np.intp)


def _hop_factors(params: EconomyParams) -> np.ndarray:
    """Cost-free shipping factors ``tau**(-theta * beta[n])``, shape (N, J, J)."""
    return params.tau[None, :, :] ** (-params.theta * params.beta[:, None, None])


def _tier_factors(params: EconomyParams, costs: np.ndarray, hop=None):
    """Per-tier contribution matrices of the chain cost scale.

    For tiers below the last, ``F[n][a, b]`` multiplies a chain that runs
    tier n in location a and tier n+1 in location b.  ``G[a, j]`` is the
    last-tier factor including the final shipment to destination j.  A
    caller that holds ``_hop_factors(params)`` may pass it as ``hop``.
    """
    ab = params.alpha * params.beta
    tech = params.T ** ab * costs[:, None] ** (-params.theta * ab)  # (J, N)
    if hop is None:
        hop = _hop_factors(params)
    F = [tech[:, n, None] * hop[n] for n in range(params.n_tiers - 1)]
    G = tech[:, -1, None] * hop[-1]
    return F, G


def _forward(params: EconomyParams, costs, hop=None):
    """Forward half of the chain sums.

    Returns the tier factors ``F`` and ``G``; ``fwd[n][a]``, summed over
    chain heads that place tier n in a; and the totals ``S[j]`` over every
    chain serving j, which is all that prices need.
    """
    costs = _positive_array(costs, (params.n_locations,), "costs")
    F, G = _tier_factors(params, costs, hop)
    fwd = [np.ones(params.n_locations)]
    for Fn in F:
        fwd.append(fwd[-1] @ Fn)
    return F, G, fwd, fwd[-1] @ G


def _backward(F, G):
    """Backward half: ``bwd[n][a, j]``, summed from tier n in a down to j."""
    bwd = [G]
    for Fn in reversed(F):
        bwd.insert(0, Fn @ bwd[0])
    return bwd


def _chain_sums(params: EconomyParams, costs, hop=None):
    """Sums of chain cost scales over all J**N paths, tier by tier.

    A chain's scale is the product of its hop factors, so the sums factorise
    (Antras & de Gortari 2020; the forward-backward pass of Rabiner 1989).
    Runs :func:`_forward` and then :func:`_backward` and returns ``F``,
    ``fwd``, ``bwd`` and ``S``.
    """
    F, G, fwd, S = _forward(params, costs, hop)
    return F, fwd, _backward(F, G), S


def _prices(params: EconomyParams, S: np.ndarray) -> np.ndarray:
    return kappa(params.theta, params.sigma) * S ** (-1.0 / params.theta)


def _participation(fwd, bwd, S: np.ndarray) -> np.ndarray:
    return np.stack([f[:, None] * b / S for f, b in zip(fwd, bwd)])


def path_scale_matrix(params: EconomyParams, costs) -> tuple[np.ndarray, np.ndarray]:
    """Chain cost scales for every path and destination.

    Returns
    -------
    paths : array (P, N)
        Output of :func:`enumerate_paths`.
    scales : array (P, J)
        ``scales[p, j]`` is the cost scale of chain ``paths[p]`` serving
        destination j; trade shares are scales normalised per column.
    """
    costs = _positive_array(costs, (params.n_locations,), "costs")
    paths = enumerate_paths(params.n_locations, params.n_tiers)
    F, G = _tier_factors(params, costs)
    base = np.ones(len(paths))
    for n in range(params.n_tiers - 1):
        base = base * F[n][paths[:, n], paths[:, n + 1]]
    scales = base[:, None] * G[paths[:, -1], :]
    return paths, scales


def chain_cost_scale(path, dest: int, params: EconomyParams, costs) -> float:
    """Cost scale of a single chain serving ``dest``.

    The scale multiplies technology gains against cost and shipping
    penalties tier by tier,

        prod_n [ T[l_n, n]**alpha_n * (costs[l_n]**alpha_n
                 * tau[l_n, next_n])**(-theta) ]**beta_n ,

    where next_n is the next tier's location and the last hop ships to the
    destination.  It is decreasing in every cost and every trade friction
    along the chain.
    """
    costs = _positive_array(costs, (params.n_locations,), "costs")
    path = np.asarray(path, dtype=np.intp)
    if path.shape != (params.n_tiers,):
        raise ValueError(f"path must list one location per tier, got {path.shape}")
    if np.any(path < 0) or np.any(path >= params.n_locations):
        raise ValueError("path contains an unknown location index")
    if not 0 <= dest < params.n_locations:
        raise ValueError(f"unknown destination {dest}")
    F, G = _tier_factors(params, costs)
    scale = 1.0
    for n in range(params.n_tiers - 1):
        scale *= F[n][path[n], path[n + 1]]
    return float(scale * G[path[-1], dest])


def path_share(path, dest: int, params: EconomyParams, costs) -> float:
    """Probability that destination ``dest`` sources along ``path``."""
    S = _forward(params, costs)[-1]
    return chain_cost_scale(path, dest, params, costs) / float(S[dest])


def path_share_matrix(params: EconomyParams, costs) -> tuple[np.ndarray, np.ndarray]:
    """All path shares at once; columns (destinations) each sum to 1."""
    paths, scales = path_scale_matrix(params, costs)
    return paths, scales / scales.sum(axis=0, keepdims=True)


def price_indices(params: EconomyParams, costs) -> np.ndarray:
    """CES price index of the final good in every destination."""
    return _prices(params, _forward(params, costs)[-1])


def price_index(dest: int, params: EconomyParams, costs) -> float:
    if not 0 <= dest < params.n_locations:
        raise ValueError(f"unknown destination {dest}")
    return float(price_indices(params, costs)[dest])


def final_demand_shares(params: EconomyParams, costs) -> np.ndarray:
    """Share of each destination's final spending by assembly location.

    Returns an array indexed ``[src, dest]`` whose columns sum to 1: the
    fraction of dest's final-good purchases assembled in src, aggregated
    over every upstream configuration.
    """
    return tier_participation(params, costs)[-1]


def tier_participation(params: EconomyParams, costs) -> np.ndarray:
    """Probability that location i hosts tier n of dest j's supply chain.

    Returns an array of shape (N, J, J) indexed ``[tier, location, dest]``;
    each (tier, dest) slice sums to 1 over locations.
    """
    _, fwd, bwd, S = _chain_sums(params, costs)
    return _participation(fwd, bwd, S)


def intermediate_flow_shares(params: EconomyParams, costs,
                             expenditure_weights=None) -> np.ndarray:
    """Sourcing shares of cross-tier input purchases, ``[src, buyer]``.

    Each hop between contiguous tiers moves tier-n output worth ``beta[n]``
    per unit of final-good value.  Flows are aggregated over hops and over
    final destinations (weighted by ``expenditure_weights``, uniform when
    omitted) and normalised per buying location, so columns sum to 1.
    Requires at least two tiers.
    """
    if params.n_tiers < 2:
        raise ValueError("intermediate flows need at least two tiers")
    J = params.n_locations
    if expenditure_weights is None:
        w = np.full(J, 1.0 / J)
    else:
        w = _positive_array(expenditure_weights, (J,), "expenditure_weights")
        w = w / w.sum()
    F, fwd, bwd, S = _chain_sums(params, costs)
    flows = sum(params.beta[n] * fwd[n][:, None] * F[n] * (bwd[n + 1] @ (w / S))
                for n in range(params.n_tiers - 1))
    total = flows.sum(axis=0, keepdims=True)
    return np.divide(flows, total, out=np.zeros_like(flows), where=total > 0)


def local_chain_real_wage(j: int, params: EconomyParams, pi_jj: float) -> float:
    """Real income implied by the purely local chain share.

    Given the probability ``pi_jj`` that j sources its final good through a
    chain run entirely at home, real income satisfies

        w_j / P_j = (kappa * tau_jj**sum(beta))**(-1)
                    * (prod_n T[j, n]**(alpha_n beta_n) / pi_jj)**(1/theta),

    an identity that lets the gains from fragmentation be read off a single
    observable share.  With composite costs it returns c_j / P_j.
    """
    if not 0 <= j < params.n_locations:
        raise ValueError(f"unknown location {j}")
    if not 0.0 < pi_jj <= 1.0:
        raise ValueError("pi_jj must lie in (0, 1]")
    k = kappa(params.theta, params.sigma)
    tech = float(np.prod(params.T[j] ** (params.alpha * params.beta)))
    tau_jj = params.tau[j, j] ** float(np.sum(params.beta))
    return (tech / pi_jj) ** (1.0 / params.theta) / (k * tau_jj)


def chain_productivity_location(path, params: EconomyParams) -> float:
    """Frechet location parameter of a chain's end-to-end productivity."""
    path = np.asarray(path, dtype=np.intp)
    if path.shape != (params.n_tiers,):
        raise ValueError(f"path must list one location per tier, got {path.shape}")
    ab = params.alpha * params.beta
    return float(np.prod(params.T[path, np.arange(params.n_tiers)] ** ab))


def chain_productivity_cdf(z: float, path, params: EconomyParams) -> float:
    """P(chain productivity <= z); Frechet with the tier-weighted location.

    The chain draw combines tier-level Frechet draws so that

        F(z) = exp(-z**(-theta) * prod_n T[l_n, n]**(alpha_n beta_n)).
    """
    if math.isnan(z):
        raise ValueError("z must be a number, got nan")
    if z <= 0.0:
        return 0.0
    loc = chain_productivity_location(path, params)
    return math.exp(-(z ** (-params.theta)) * loc)


def chain_productivity_theta_sensitivity(z: float, path, params: EconomyParams) -> float:
    """Analytic derivative of the chain productivity CDF in theta."""
    F = chain_productivity_cdf(z, path, params)
    if z <= 0.0:
        return 0.0
    loc = chain_productivity_location(path, params)
    return F * loc * z ** (-params.theta) * math.log(z)
