"""Wage equilibrium of the chain economy.

Labour market clearing requires that every location's wage bill equals the
labour payments earned through all the supply chains it participates in:

    w_i L_i = sum_j sum_n alpha_n beta_n Pr(i hosts tier n for j) w_j L_j .

Because participation probabilities sum to one over locations at every tier,
the right hand side redistributes world income without leaking, so the
residuals sum to zero at any wage vector (Walras's law).  Wages are only
determined up to scale and are pinned down by normalising world income.

The solver is a damped fixed point on that map, one stream of sweeps
(``_sweeps``) that ``solve_equilibrium`` reads until it converges and
``labor_market_residuals`` reads for one sweep.  Every cost-free chain
constant (technology and hop factors, exponents, the CES constant) is built
once per solve.  Each sweep makes one full forward-backward chain pass at
the composite costs for the residual; prices come from the last pass's
chain totals when the solve returns.  With gamma < 1 composite costs feed
back through the price index, so each sweep first runs an inner cost/price
fixed point on forward passes alone.  Inputs are checked on entry, and one
``np.errstate`` per call makes a float fault in any pass a failed solve.

Sweeps are kept cheap by cutting numpy calls, never by changing arithmetic:
every floating-point operation and its order match the plain loop written
out, so results are the same bit for bit.  No product is regrouped and no
einsum or matmul is rewritten, as either changes the last bits.  In-place
updates repeat the operations they replace (``x *= step`` is ``step * x``),
and the single-tier shortcuts of ``_Chain`` are exact.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass, field

import numpy as np

from .chains import EconomyParams, _Chain, _checked_costs, _whole, _within

logger = logging.getLogger(__name__)


class EquilibriumConvergenceError(RuntimeError):
    """A failed solve.  A spent budget gives ``iterations``, the budget, and
    ``residual_norm``, the last norm; a float fault, the sweep it hit and the
    previous sweep's norm (inf at sweep 0); a stalled inner cost loop, its own
    budget, 500, and its log-gap, not the outer sweep."""

    def __init__(self, message: str, residual_norm: float, iterations: int):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


@contextlib.contextmanager
def _trapped():
    """An overflow, a division by zero or a NaN in the block, raised as the
    solve that failed at ``(residual norm, sweep)``, the list it yields."""
    progress = [np.inf, 0]
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield progress
    except FloatingPointError as err:
        raise EquilibriumConvergenceError(f"{err} at sweep {progress[1]}", *progress) from None


@dataclass
class SolverConfig:
    tolerance: float = 1e-10
    damping: float = 0.5          # weight on the new iterate
    max_iterations: int = 5000
    world_income: float = 1.0     # normalisation target for sum(w * L)
    initial_wages: np.ndarray | None = None

    def __post_init__(self):
        for name, spec in (("tolerance", "(0, inf)"), ("damping", "(0, 1]"),
                           ("world_income", "(0, inf)")):
            setattr(self, name, _within(getattr(self, name), name, spec))
        self.max_iterations = _whole(self.max_iterations, "max_iterations", "[0, inf)")


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
    """Composite costs at wages ``w``, ``w`` itself at gamma = 1; forward passes only."""
    gamma = chain.params.gamma
    if gamma == 1.0:
        return w
    c, log_c = w, np.log(w)
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
    1 - gamma, until the largest log-gap is below ``tolerance`` (in (0, inf)),
    for at most ``max_iterations`` (in [1, inf)) passes.  Returns (costs, prices).
    """
    tolerance = _within(tolerance, "tolerance", "(0, inf)")
    max_iterations = _whole(max_iterations, "max_iterations", "[1, inf)")
    # Checked before w**gamma and log(w): bad wages are bad costs.
    w = _checked_costs(params, wages)
    with _trapped():
        chain = _Chain(params)
        costs = _composite_costs(w, chain, tolerance, max_iterations)
        return costs.copy(), chain.prices(chain.forward(costs)[-1])


def _sweeps(chain: _Chain, w: np.ndarray, cfg: SolverConfig, progress: list):
    """Sweeps from ``w``, updated in place on each resume: yields (sweep, residual,
    norm, costs, chain totals) and keeps (last norm, sweep) in ``progress``."""
    L, step = chain.params.L, cfg.damping
    for it in range(cfg.max_iterations + 1):
        progress[1] = it
        costs = _composite_costs(w, chain)
        facs, fwd, S = chain.forward(costs)
        spending = w * L                                   # (J,)
        part = chain.participation(fwd, chain.backward(facs), S)
        residual = np.einsum("n,nij,j->i", chain.ab, part, spending)
        residual -= spending
        residual_norm = float(np.maximum.reduce(np.abs(residual))) / cfg.world_income
        yield it, residual, residual_norm, costs, S
        # A fixed step can lock into a two-cycle at large theta; halve it on a stall.
        if residual_norm >= progress[0] and step > cfg.damping / 256.0:
            step *= 0.5
            logger.debug("residual stalled at %.3e, damping reduced to %.4f",
                         residual_norm, step)
        progress[0] = residual_norm
        # w = (1 - step) * w + step * target, in place; the residual becomes
        # the target, the earnings per worker (residual + spending) / L
        residual += spending
        residual /= L
        residual *= step
        w *= 1.0 - step
        w += residual
        w *= cfg.world_income / float(w @ L)
    raise EquilibriumConvergenceError(f"no convergence after {it} iterations (residual norm "
                                      f"{residual_norm:.3e})", residual_norm, it)


def labor_market_residuals(wages, params: EconomyParams) -> np.ndarray:
    """Excess labour earnings at the given wages, the solver's first sweep.

    residual_i = (chain labour income accruing to i) - w_i L_i, with prices
    and composite costs computed consistently from the wages.  The entries
    sum to zero for any strictly positive wage vector.
    """
    w = _within(wages, "wages", "(0, inf)", array=(params.n_locations,))
    with _trapped() as progress:
        return next(_sweeps(_Chain(params), w, SolverConfig(), progress))[1]


def solve_equilibrium(params: EconomyParams,
                      config: SolverConfig | None = None) -> EquilibriumSolution:
    """Damped fixed point on the labour market clearing map.

    Each sweep replaces wages with a convex combination of the implied
    labour earnings per worker and renormalises world income.  Raises
    :class:`EquilibriumConvergenceError` when the budget runs out first, or
    when a sweep leaves the float range.
    """
    cfg = config or SolverConfig()
    J = params.n_locations
    w = (np.full(J, 1.0) if cfg.initial_wages is None else
         _within(cfg.initial_wages, "initial_wages", "(0, inf)", array=(J,)).copy())
    with _trapped() as progress:
        w *= cfg.world_income / float(w @ params.L)
        chain, walras = _Chain(params), []
        for it, residual, residual_norm, costs, S in _sweeps(chain, w, cfg, progress):
            walras.append(float(np.add.reduce(residual)))
            if residual_norm < cfg.tolerance:
                logger.debug("equilibrium converged after %d iterations (residual %.3e)",
                             it, residual_norm)
                return EquilibriumSolution(
                    wages=w, prices=chain.prices(S), costs=costs.copy(),
                    residual_norm=residual_norm, iterations=it,
                    world_income=cfg.world_income, walras_history=walras)
