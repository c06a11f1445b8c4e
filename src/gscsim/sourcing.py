"""Sourcing rules: who picks suppliers, and how they spread them.

Three decision makers are compared.  Atomistic firms chase the highest
expected continuation value and pile onto a single location.  A risk-averse
planner maximises expected CRRA utility over the three shock branches (no
shock, East hit, South hit) and diversifies.  An ambiguity-averse planner
only knows an interval for the East-conditional shock odds and plays the
max-min allocation, which for symmetric beliefs is an even split.

Allocations are fractions phi per location and tier, backed by an integer
number of suppliers.  Supplier counts use half-away-from-zero rounding,
keep at least one supplier wherever phi is positive, and are rebalanced so
each tier's total is preserved (independent rounding would occasionally
mint an extra supplier out of thin air, and a free extra variety distorts
every comparison downstream).  One routine apportions every tier of an
allocation and every point of the planner grid.  A chain survives a shock
if every tier still has at least one live supplier; the shock branches are
``shocks.BRANCHES``.  Both planners maximise the worst expected utility
over a set of East-conditional odds; the risk planner's set is one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import EconomyParams, _JsonConfig, _positive_array, _real, _real_array, _whole
from .equilibrium import SolverConfig, solve_equilibrium
from .shocks import BRANCHES, ShockDraw, ShockParams, _branch_odds, _knock_out

DEFAULT_GRID = 1001
DEFAULT_SUPPLIERS = 10

# Relative tolerance for calling two location scores a tie.
_TIE_RTOL = 1e-9


@dataclass
class UtilitySpec(_JsonConfig):
    """CRRA utility with relative risk aversion rho (log at rho = 1)."""

    rho: float = 2.0

    kind = "utility"

    def __post_init__(self):
        self.rho = _real(self.rho, "rho")
        if not 0.0 <= self.rho < math.inf:
            raise ValueError(f"rho must be finite and nonnegative, got {self.rho}")

    def of(self, value: float) -> float:
        return crra_utility(value, self.rho)


def crra_utility(value: float, rho: float) -> float:
    """CRRA felicity; a dead chain (value 0) is -inf once rho >= 1."""
    if not value >= 0.0:
        raise ValueError("utility is defined for nonnegative values")
    if value == 0.0:
        return -math.inf if rho >= 1.0 else 0.0
    if rho == 1.0:
        return math.log(value)
    return value ** (1.0 - rho) / (1.0 - rho)


@dataclass
class BeliefSet(_JsonConfig):
    """Interval of East-conditional shock odds the planner deems possible."""

    zeta_lo: float
    zeta_hi: float

    kind = "belief"

    def __post_init__(self):
        self.zeta_lo = _real(self.zeta_lo, "zeta_lo")
        self.zeta_hi = _real(self.zeta_hi, "zeta_hi")
        if not 0.0 <= self.zeta_lo <= self.zeta_hi <= 1.0:
            raise ValueError("beliefs must satisfy 0 <= zeta_lo <= zeta_hi <= 1")

    @classmethod
    def singleton(cls, zeta: float) -> "BeliefSet":
        return cls(zeta_lo=zeta, zeta_hi=zeta)

    @property
    def endpoints(self) -> tuple[float, ...]:
        if self.zeta_lo == self.zeta_hi:
            return (self.zeta_lo,)
        return (self.zeta_lo, self.zeta_hi)


@dataclass
class SourcingAllocation:
    """Sourcing fractions phi[location, tier] over M[tier] suppliers."""

    phi: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        self.phi = _real_array(self.phi, "phi")
        if self.phi.ndim != 2:
            raise ValueError("phi must have shape (locations, tiers)")
        if np.any(self.phi < 0.0) or np.any(self.phi > 1.0):
            raise ValueError("sourcing fractions must lie in [0, 1]")
        col = self.phi.sum(axis=0)
        if not np.allclose(col, 1.0, atol=1e-9):
            raise ValueError("sourcing fractions must sum to 1 at every tier")
        self.M = _whole(self.M, "M")
        if np.shape(self.M) != (self.phi.shape[1],):
            raise ValueError("M must give one supplier count per tier")
        if np.any(self.M < 1):
            raise ValueError("each tier needs at least one supplier")

    @classmethod
    def uniform_tiers(cls, weights, suppliers_per_tier: int, n_tiers: int) -> "SourcingAllocation":
        """Same location split at every tier, M suppliers each."""
        w = _real_array(weights, "weights")
        phi = np.repeat(w[:, None], n_tiers, axis=1)
        M = _whole(suppliers_per_tier, "suppliers_per_tier")
        return cls(phi=phi, M=np.full(n_tiers, M, dtype=np.intp))

    @property
    def n_tiers(self) -> int:
        return self.phi.shape[1]


def _apportion(weights: np.ndarray, totals) -> np.ndarray:
    """Integer supplier counts, one row of ``weights`` per tier.

    ``weights`` has shape (K, J) and ``totals`` gives each row's supplier
    total (a scalar serves every row).  Rounds half away from zero per
    location, floors every positive weight at one supplier in rows whose
    total allows it, then restores each row's exact total one supplier per
    pass: trimming the most over-rounded count above its floor, or topping
    up the most under-rounded one.  Ties go to the first location.
    """
    totals = np.asarray(totals)
    raw = weights * np.reshape(totals, (-1, 1))
    counts = np.floor(raw + 0.5).astype(np.intp)
    need = (weights > 0.0).astype(np.intp)
    need[need.sum(axis=1) > totals] = 0   # guarantee infeasible, plain rounding
    counts = np.maximum(counts, need)
    rows = np.arange(len(weights))
    while True:
        excess = counts.sum(axis=1) - totals
        if not excess.any():
            return counts
        over = np.where(counts <= need, -np.inf, counts - raw)
        pick = np.where(excess > 0, over.argmax(axis=1), (raw - counts).argmax(axis=1))
        counts[rows, pick] -= np.sign(excess)


def supplier_counts(alloc: SourcingAllocation) -> np.ndarray:
    """Integer suppliers per location and tier, shape (J, n_tiers)."""
    return _apportion(alloc.phi.T, alloc.M).T


def _survives(counts: np.ndarray):
    """Whether every tier keeps a live supplier, for counts shaped (..., J, n_tiers)."""
    return (counts.sum(axis=-2) >= 1).all(axis=-1)


def chain_survives(alloc: SourcingAllocation, shock: ShockDraw) -> bool:
    """True when every tier retains at least one live supplier."""
    return bool(_survives(_knock_out(supplier_counts(alloc), shock)))


def _value_from_counts(counts: np.ndarray, params: EconomyParams,
                       costs: np.ndarray) -> float:
    if not _survives(counts):
        return 0.0
    s = (params.sigma - 1.0) / params.sigma
    per_location = (1.0 / costs) ** s          # variety quantity q = 1/c
    basket = float(counts.sum(axis=1) @ per_location)
    return basket ** (params.sigma / (params.sigma - 1.0))


def allocation_value(alloc: SourcingAllocation, shock: ShockDraw,
                     params: EconomyParams, costs) -> float:
    """Love-of-variety value of the surviving supplier basket.

    Zero when any tier loses all suppliers.  Otherwise every surviving
    supplier contributes one variety with quantity 1 / cost of its
    location, aggregated CES with elasticity sigma:

        Q = (sum_k q_k ** ((sigma-1)/sigma)) ** (sigma/(sigma-1)).

    Strictly increasing in the number of surviving varieties.
    """
    costs = _checked_costs(params, costs, alloc)
    return _value_from_counts(_knock_out(supplier_counts(alloc), shock), params, costs)


def _checked_costs(params: EconomyParams, costs,
                   alloc: SourcingAllocation | None = None) -> np.ndarray:
    costs = _positive_array(costs, (params.n_locations,), "costs")
    if alloc is not None and alloc.phi.shape[0] != params.n_locations:
        raise ValueError("allocation and economy disagree on the number of locations")
    return costs


def _branch_values(left, params: EconomyParams, costs: np.ndarray) -> tuple:
    """Chain value of each branch's surviving counts ``left``."""
    return tuple(_value_from_counts(counts, params, costs) for counts in left)


def _branch_counts(counts: np.ndarray) -> list[np.ndarray]:
    """Surviving counts under each of ``shocks.BRANCHES``: none, East, South."""
    return [_knock_out(counts, draw) for draw in BRANCHES]


def _branch_outcomes(counts: np.ndarray, params: EconomyParams, costs: np.ndarray):
    """Surviving counts (3, J, n_tiers), survival and value under each branch."""
    left = np.stack(_branch_counts(counts))
    return left, _survives(left), np.array(_branch_values(left, params, costs))


def _score(values: tuple[float, float, float], eta: float, zeta: float,
           rho: float) -> tuple[float, int, float]:
    """Ranking key (expected utility, branches survived, expected value).

    Zero-probability branches are skipped so that eta = 0 or degenerate
    zeta never produce 0 * inf.  The trailing fields only matter when every
    candidate is ruined (-inf expected utility): then allocations are
    ranked by how many shock branches they survive and by expected value
    with death counted as zero.
    """
    eu = ev = 0.0
    survived = 0
    for p, v in zip(_branch_odds(eta, zeta), values):
        if p == 0.0:
            continue
        eu += p * crra_utility(v, rho)
        ev += p * v
        if v > 0.0:
            survived += 1
    return (eu, survived, ev)


def _worst_score(values: tuple[float, float, float], eta: float, zetas,
                 rho: float) -> tuple[float, int, float]:
    """The lowest :func:`_score` over the East-conditional odds ``zetas``.

    Expected utility is linear in zeta for fixed branch values, so the
    endpoints of a belief interval are the only odds worth checking.
    """
    return min(_score(values, eta, z, rho) for z in zetas)


def risk_objective(alloc: SourcingAllocation, params: EconomyParams,
                   shock_params: ShockParams, utility: UtilitySpec, costs) -> float:
    """Expected CRRA utility of an allocation over the three shock branches."""
    return ambiguity_objective(alloc, params, shock_params,
                               BeliefSet.singleton(shock_params.zeta), utility, costs)


def ambiguity_objective(alloc: SourcingAllocation, params: EconomyParams,
                        shock_params: ShockParams, beliefs: BeliefSet,
                        utility: UtilitySpec, costs) -> float:
    """Worst-case expected utility over the belief interval's endpoints."""
    values = _branch_values(_branch_counts(supplier_counts(alloc)), params,
                            _checked_costs(params, costs, alloc))
    return _worst_score(values, shock_params.eta, beliefs.endpoints, utility.rho)[0]


def _default_costs(params: EconomyParams, costs) -> np.ndarray:
    if costs is not None:
        return _checked_costs(params, costs)
    return solve_equilibrium(params, SolverConfig()).costs


def individual_sourcing(params: EconomyParams, shock_params: ShockParams,
                        suppliers_per_tier: int = DEFAULT_SUPPLIERS,
                        costs=None) -> SourcingAllocation:
    """Corner allocation of atomistic firms.

    Each firm sources where the expected continuation value
    (1 - P(location hit)) / cost is highest, so all mass lands on the
    safest location, or the cheapest one when hit odds tie.  Exact ties
    are split equally.  Locations beyond the East/South pair are never hit
    by the one-shot draw, so only cost ranks them.
    """
    c = _default_costs(params, costs)
    J = params.n_locations
    hit = np.zeros(J)
    for draw, p in zip(BRANCHES[1:J + 1], _branch_odds(shock_params.eta, shock_params.zeta)[1:]):
        hit[draw.location] = p
    scores = (1.0 - hit) / c
    top = scores.max()
    winners = scores >= top * (1.0 - _TIE_RTOL)
    phi = winners / winners.sum()
    return SourcingAllocation.uniform_tiers(phi, suppliers_per_tier, params.n_tiers)


def planner_risk_sourcing(params: EconomyParams, shock_params: ShockParams,
                          utility: UtilitySpec,
                          grid_resolution: int = DEFAULT_GRID,
                          suppliers_per_tier: int = DEFAULT_SUPPLIERS,
                          costs=None) -> SourcingAllocation:
    """Expected-utility maximising split over the allocation grid.

    With rho >= 1 a dead branch carries -inf utility, so any allocation
    that concentrates a tier in one shockable location is dominated and
    the optimum is interior.  The returned point is grid-optimal: no other
    grid allocation scores higher.  The max-min planner over the single
    belief {zeta} finds it.
    """
    return planner_ambiguity_sourcing(params, shock_params, BeliefSet.singleton(shock_params.zeta),
                                      utility, grid_resolution, suppliers_per_tier, costs)


def planner_ambiguity_sourcing(params: EconomyParams, shock_params: ShockParams,
                               beliefs: BeliefSet,
                               utility: UtilitySpec | None = None,
                               grid_resolution: int = DEFAULT_GRID,
                               suppliers_per_tier: int = DEFAULT_SUPPLIERS,
                               costs=None) -> SourcingAllocation:
    """Max-min allocation over the belief interval for the shock odds.

    Maximises :func:`_worst_score`, the worst belief endpoint's score, over
    the two-location allocation grid (Gilboa-Schmeidler).  With symmetric
    costs and beliefs spanning [0, 1] the answer is an exact half split,
    whatever odds later materialise.  Defaults to log utility.

    Ties (plateaus of identical integer counts are common) go to the most
    diversified allocation, then to the smaller South share.  The score only
    sees the integer supplier counts, so the grid is grouped by count
    vector, each group keeps its tie-rule winner, and every distinct count
    vector is scored once.
    """
    costs = _default_costs(params, costs)
    rho = (utility if utility is not None else UtilitySpec(rho=1.0)).rho
    if params.n_locations != 2:
        raise ValueError("the planner grid search handles exactly two locations")
    grid_resolution = _whole(grid_resolution, "grid_resolution")
    if grid_resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    M = _whole(suppliers_per_tier, "suppliers_per_tier")
    xs = np.linspace(0.0, 1.0, grid_resolution)
    counts = _apportion(np.stack([1.0 - xs, xs], axis=1), M)
    # The counts keep the tier total, so the South count names the vector.
    # Its group's first point in tie order (nearest an even split, then the
    # smaller South share) is the group's candidate.
    by_tie = np.lexsort((xs, np.abs(xs - 0.5)))
    _, lead = np.unique(counts[by_tie, 1], return_index=True)
    winners = by_tie[lead]

    def rank(i):
        x = float(xs[i])
        tiers = np.repeat(counts[i][:, None], params.n_tiers, axis=1)
        values = _branch_values(_branch_counts(tiers), params, costs)
        return (_worst_score(values, shock_params.eta, beliefs.endpoints, rho),
                -abs(x - 0.5), -x)

    best_x = float(xs[max(winners, key=rank)])
    return SourcingAllocation.uniform_tiers(
        np.array([1.0 - best_x, best_x]), M, params.n_tiers)
