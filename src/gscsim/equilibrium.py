"""Wage equilibrium of the chain economy.

Labour market clearing requires that every location's wage bill equals the
labour payments earned through all the supply chains it participates in:

    w_i L_i = sum_j sum_n alpha_n beta_n Pr(i hosts tier n for j) w_j L_j .

Because participation probabilities sum to one over locations at every tier,
the right hand side redistributes world income without leaking, so the
residuals sum to zero at any wage vector (Walras's law).  Wages are only
determined up to scale and are pinned down by normalising world income.

The solver is a damped fixed point on that map.  Every cost-free chain
constant (technology and hop factors, exponents, the CES constant) is built
once per solve.  Each sweep makes one full forward-backward chain pass at
the composite costs for the residual; prices come from the last pass's
chain totals when the solve returns.  With gamma < 1 composite costs feed
back through the price index, so each sweep first runs an inner cost/price
fixed point on forward passes alone.

Sweeps are kept cheap by cutting numpy calls, never by changing arithmetic:
every floating-point operation and its order match the plain loop written
out, so results are the same bit for bit.  No product is regrouped and no
einsum or matmul is rewritten, as either changes the last bits.  In-place
updates repeat the operations they replace (``target *= step`` is
``step * target``), and the single-tier shortcuts of ``_Chain`` are exact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .chains import EconomyParams, _Chain, _positive_array, _real, _whole

logger = logging.getLogger(__name__)


class EquilibriumConvergenceError(RuntimeError):
    """Raised when the damped iteration fails to reach tolerance."""

    def __init__(self, message: str, residual_norm: float, iterations: int):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


@dataclass
class SolverConfig:
    tolerance: float = 1e-10
    damping: float = 0.5          # weight on the new iterate
    max_iterations: int = 5000
    world_income: float = 1.0     # normalisation target for sum(w * L)
    initial_wages: np.ndarray | None = None

    def __post_init__(self):
        for name in ("tolerance", "damping", "world_income"):
            setattr(self, name, _real(getattr(self, name), name))
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if not (0.0 < self.tolerance < np.inf and 0.0 < self.world_income < np.inf):
            raise ValueError("tolerance and world_income must be finite and positive")
        self.max_iterations = _whole(self.max_iterations, "max_iterations", 0)


@dataclass
class EquilibriumSolution:
    """Converged wages plus the prices and costs consistent with them."""

    wages: np.ndarray
    prices: np.ndarray
    costs: np.ndarray
    residual_norm: float
    iterations: int
    world_income: float
    walras_history: list = field(default_factory=list, repr=False)

    @property
    def real_wages(self) -> np.ndarray:
        return self.wages / self.prices


def _composite_costs(w: np.ndarray, chain: _Chain,
                     tolerance: float = 1e-14, max_iterations: int = 500) -> np.ndarray:
    """Composite costs at wages ``w``; prices come from forward passes only."""
    gamma = chain.params.gamma
    if gamma == 1.0:
        return w.copy()
    c = w.copy()
    log_c = np.log(c)
    # composite_cost(w, P, gamma) with its loop-invariant half hoisted
    w_gamma, p_share = w ** gamma, 1.0 - gamma
    for _ in range(max_iterations):
        P = chain.prices(chain.forward(c)[-1])
        c = w_gamma * P ** p_share
        log_next = np.log(c)
        gap = float(np.maximum.reduce(np.abs(log_next - log_c)))
        log_c = log_next
        if gap < tolerance:
            return c
    raise EquilibriumConvergenceError(
        f"composite cost loop stalled at log-gap {gap:.3e}", gap, max_iterations)


def solve_costs(wages, params: EconomyParams,
                tolerance: float = 1e-14, max_iterations: int = 500) -> tuple[np.ndarray, np.ndarray]:
    """Composite costs and price indices consistent with a wage vector.

    With gamma = 1 costs are the wages themselves.  Otherwise iterate
    c -> w**gamma * P(c)**(1-gamma), a log-space contraction with modulus
    1 - gamma.  Returns (costs, prices).
    """
    max_iterations = _whole(max_iterations, "max_iterations", 1)
    chain = _Chain(params)
    # Checked before w**gamma and log(w): bad wages are bad costs.
    w = _positive_array(wages, chain.shape, "costs")
    costs = _composite_costs(w, chain, tolerance, max_iterations)
    return costs, chain.prices(chain.forward(costs)[-1])


def _residual_pass(w: np.ndarray, chain: _Chain):
    """Residuals, spending ``w * L``, costs and chain totals at ``w``, one full pass."""
    costs = _composite_costs(w, chain)
    facs, fwd, S = chain.forward(costs)
    spending = w * chain.params.L                      # (J,)
    part = chain.participation(fwd, chain.backward(facs), S)
    income = np.einsum("n,nij,j->i", chain.ab, part, spending)
    income -= spending
    return income, spending, costs, S


def labor_market_residuals(wages, params: EconomyParams) -> np.ndarray:
    """Excess labour earnings at the given wages.

    residual_i = (chain labour income accruing to i) - w_i L_i, with prices
    and composite costs computed consistently from the wages.  The entries
    sum to zero for any strictly positive wage vector.
    """
    w = _positive_array(wages, (params.n_locations,), "wages")
    return _residual_pass(w, _Chain(params))[0]


def solve_equilibrium(params: EconomyParams,
                      config: SolverConfig | None = None) -> EquilibriumSolution:
    """Damped fixed point on the labour market clearing map.

    Each sweep replaces wages with a convex combination of the implied
    labour earnings per worker and renormalises world income.  Raises
    :class:`EquilibriumConvergenceError` with the last residual norm when
    the tolerance is not met within the iteration budget.
    """
    cfg = config or SolverConfig()
    J = params.n_locations
    w = np.full(J, 1.0, dtype=float)
    if cfg.initial_wages is not None:
        w = _positive_array(cfg.initial_wages, (J,), "initial_wages").copy()
    w *= cfg.world_income / float(w @ params.L)

    chain = _Chain(params)
    walras = []
    residual_norm = np.inf
    previous_norm = np.inf
    step = cfg.damping
    for it in range(cfg.max_iterations + 1):
        residual, spending, costs, S = _residual_pass(w, chain)
        walras.append(float(np.add.reduce(residual)))
        residual_norm = float(np.maximum.reduce(np.abs(residual))) / cfg.world_income
        if residual_norm < cfg.tolerance:
            logger.debug("equilibrium converged after %d iterations (residual %.3e)",
                         it, residual_norm)
            return EquilibriumSolution(
                wages=w, prices=chain.prices(S), costs=costs,
                residual_norm=residual_norm, iterations=it,
                world_income=cfg.world_income, walras_history=walras)
        # A fixed step can lock into a two-cycle when theta is large; halve
        # it whenever the residual stops shrinking.
        if residual_norm >= previous_norm and step > cfg.damping / 256.0:
            step *= 0.5
            logger.debug("residual stalled at %.3e, damping reduced to %.4f",
                         residual_norm, step)
        previous_norm = residual_norm
        # w = (1 - step) * w + step * target, in place; target is the
        # earnings per worker, (residual + spending) / L
        target = residual
        target += spending
        target /= params.L
        target *= step
        w *= 1.0 - step
        w += target
        w *= cfg.world_income / float(w @ params.L)

    raise EquilibriumConvergenceError(
        f"no convergence after {cfg.max_iterations} iterations "
        f"(residual norm {residual_norm:.3e})",
        residual_norm, cfg.max_iterations)
