"""Two-state disaster regimes and one-shot shock draws.

Each location sits in a "normal" or "shock" regime.  Per period a normal
location is hit with probability eta and a hit location recovers with
probability lam, giving a stationary shock share of eta / (eta + lam).
For the scenario experiments a single world-level draw is used instead: no
shock with probability 1 - eta, otherwise the shock lands on East with
conditional probability zeta and on South with 1 - zeta.  A shock destroys
the local labour force for exactly one period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chains import _JsonConfig, _shaped, _whole, _within

NORMAL = 0
SHOCK = 1
_FLAGS = f"[{NORMAL}, {SHOCK}]"

# Location conventions of the two-region experiments.
EAST = 0
SOUTH = 1


@dataclass
class ShockParams(_JsonConfig):
    """Arrival rate eta, recovery rate lam and East-conditional odds zeta."""

    eta: float
    lam: float
    zeta: float

    kind = "shock"

    def __post_init__(self):
        for name in ("eta", "lam", "zeta"):
            setattr(self, name, _within(getattr(self, name), name, "[0, 1]"))


@dataclass
class RegimeState:
    """Per-location regime flags plus the time spent in the current regime."""

    state: np.ndarray
    periods_in_state: np.ndarray

    def __post_init__(self):
        for name, spec in (("state", _FLAGS), ("periods_in_state", "[0, inf)")):
            setattr(self, name, _whole(getattr(self, name), name, spec, array=True))
        if self.state.shape != self.periods_in_state.shape:
            raise ValueError("state and periods_in_state must align")

    @classmethod
    def all_normal(cls, n_locations: int) -> "RegimeState":
        return cls(state=np.zeros(n_locations, dtype=np.intp),
                   periods_in_state=np.zeros(n_locations, dtype=np.intp))


def step_regime(state: RegimeState, params: ShockParams, rand) -> RegimeState:
    """Advance every location one period using uniform draws in [0, 1).

    ``rand`` takes one draw per location (a scalar is broadcast, which
    correlates locations and is only meant for single-location chains).
    Normal locations flip on rand < eta, shocked ones recover on
    rand < lam.
    """
    u = _within(rand, "rand", "[0, 1)", array=True)
    u = np.broadcast_to(_shaped(u, state.state.shape, "rand") if u.ndim else u, state.state.shape)
    is_shock = state.state == SHOCK
    flip = np.where(is_shock, u < params.lam, u < params.eta)
    new_state = np.where(flip, 1 - state.state, state.state)
    periods = np.where(flip, 0, state.periods_in_state + 1)
    return RegimeState(state=new_state, periods_in_state=periods)


def simulate_regime(params: ShockParams, draws, initial: int = NORMAL) -> np.ndarray:
    """Single-location regime path over a sequence of uniform draws.

    Applies the same transition rule as :func:`step_regime` to the whole
    path at once.  A draw below both eta and lam flips the regime, a draw
    below exactly one of them sets it (SHOCK when only eta's test passes,
    NORMAL when only lam's does), and any other draw keeps it.  So the
    regime XOR the parity of flips so far changes only at a set draw,
    where it becomes the value set XOR that parity.  The path takes two
    scans: one for the flip parity and one for the latest set draw, whose
    key (or ``initial`` before any) XOR the parity is the regime.  Returns
    the regime after each draw.
    """
    initial = _whole(initial, "initial", _FLAGS)
    u = _within(draws, "draws", "[0, 1)", array=("n",))
    hit = u < params.eta
    recover = u < params.lam
    parity = np.logical_xor.accumulate(hit & recover)
    # key[k] is the regime XOR parity from draw k-1 until the next set
    # draw; slot 0 holds the start.
    key = np.empty(u.size + 1, dtype=bool)
    key[0] = initial
    np.not_equal(hit, parity, out=key[1:])
    # last[t] is 1 + the latest set draw up to t, or 0 before any.
    last = np.arange(1, u.size + 1, dtype=np.intp)
    last *= hit != recover
    np.maximum.accumulate(last, out=last)
    # The path overwrites the index it is gathered by, which saves
    # faulting in a fresh intp array.
    return np.bitwise_xor(key[last], parity, out=last)


@dataclass(frozen=True)
class ShockDraw:
    """Outcome of one world draw; ``location`` is None when nothing is hit."""

    location: Optional[int]

    @property
    def label(self) -> str:
        if self.location is None:
            return "none"
        return {EAST: "east", SOUTH: "south"}.get(self.location, str(self.location))


# The three branches of a world draw, indexed as _draw_branches numbers
# them.  Every module that walks the branches iterates this tuple.
BRANCHES = (ShockDraw(None), ShockDraw(EAST), ShockDraw(SOUTH))


def draw_shock(params: ShockParams, rand: float) -> ShockDraw:
    """Single world-level draw: none / East / South.

    Splits [0, 1) into [0, 1-eta) -> none, then a zeta : 1-zeta split of
    the remaining mass between East and South.
    """
    u = _within(rand, "rand", "[0, 1)")
    return BRANCHES[int(_draw_branches(params, u))]


def _branch_odds(eta: float, zeta: float) -> tuple[float, float, float]:
    """Odds of the BRANCHES (no shock, East hit, South hit) at East odds zeta."""
    return (1.0 - eta, eta * zeta, eta * (1.0 - zeta))


def _draw_cuts(params: ShockParams) -> np.ndarray:
    """Cut points of [0, 1) for a world draw, the running sum of the first two
    odds: none below the first, East below the second, South from the second on."""
    return np.cumsum(_branch_odds(params.eta, params.zeta)[:2])


def _draw_branches(params: ShockParams, u: np.ndarray) -> np.ndarray:
    """Indices into BRANCHES of the uniforms ``u``: the one cut rule, for
    :func:`draw_shock` and for arrays of draws.  The index is the count of
    cuts at or below u; the cuts are ordered since eta * zeta >= 0."""
    cuts = _draw_cuts(params)
    return np.add(u >= cuts[0], u >= cuts[1], dtype=np.intp)


def _knock_out(rows: np.ndarray, draw: ShockDraw) -> np.ndarray:
    """A copy of the per-location ``rows`` with the hit location's row zeroed."""
    out = rows.copy()
    if draw.location is not None:
        out[_whole(draw.location, "shock location", f"[0, {len(out) - 1}]")] = 0
    return out


def apply_shock(labor, draw: ShockDraw) -> np.ndarray:
    """Labour endowments after the draw: the hit location loses everything."""
    return _knock_out(_within(labor, "labor", "[0, inf)", array=("locations",)), draw)


def stationary_share(params: ShockParams) -> float:
    """Long-run fraction of periods a location spends in the shock regime."""
    total = params.eta + params.lam
    if total == 0.0:
        raise ValueError("stationary share undefined when eta = lam = 0")
    return params.eta / total
