import math

import numpy as np
import pytest

from gscsim import (
    EAST,
    NORMAL,
    SHOCK,
    SOUTH,
    RegimeState,
    ShockDraw,
    ShockParams,
    apply_shock,
    draw_shock,
    simulate_regime,
    stationary_share,
    step_regime,
)
from gscsim.shocks import _draw_branches, _draw_cuts


def occupancy_stderr(params: ShockParams, n: int) -> float:
    """Standard error of the mean occupancy of a two-state chain.

    For a stationary two-state Markov chain with flip probabilities eta and
    lam the indicator autocorrelation decays as rho^k with rho = 1-eta-lam,
    so var(mean) = p(1-p)/n * (1+rho)/(1-rho).
    """
    p = params.eta / (params.eta + params.lam)
    rho = 1.0 - params.eta - params.lam
    return math.sqrt(p * (1.0 - p) * (1.0 + rho) / (1.0 - rho) / n)


def test_step_regime_transitions():
    params = ShockParams(eta=0.3, lam=0.6, zeta=0.5)
    state = RegimeState(state=[NORMAL, SHOCK, NORMAL, SHOCK],
                        periods_in_state=[2, 1, 0, 4])
    # draws chosen to force flip, flip, stay, stay
    nxt = step_regime(state, params, np.array([0.1, 0.2, 0.9, 0.95]))
    np.testing.assert_array_equal(nxt.state, [SHOCK, NORMAL, NORMAL, SHOCK])
    np.testing.assert_array_equal(nxt.periods_in_state, [0, 0, 1, 5])


def test_step_regime_degenerate_rates():
    never = ShockParams(eta=0.0, lam=1.0, zeta=0.5)
    state = RegimeState.all_normal(3)
    for u in (0.0, 0.5, 0.999):
        state = step_regime(state, never, u)
    np.testing.assert_array_equal(state.state, NORMAL)

    always = ShockParams(eta=1.0, lam=1.0, zeta=0.5)
    flip = step_regime(RegimeState.all_normal(2), always, 0.7)
    np.testing.assert_array_equal(flip.state, SHOCK)
    back = step_regime(flip, always, 0.7)
    np.testing.assert_array_equal(back.state, NORMAL)


def test_step_regime_rejects_bad_draws():
    params = ShockParams(eta=0.2, lam=0.4, zeta=0.5)
    with pytest.raises(ValueError):
        step_regime(RegimeState.all_normal(1), params, 1.0)
    with pytest.raises(ValueError):
        step_regime(RegimeState.all_normal(1), params, -0.1)


def test_simulate_regime_agrees_with_step_regime():
    params = ShockParams(eta=0.25, lam=0.45, zeta=0.5)
    rng = np.random.default_rng(99)
    draws = rng.random(5000)
    fast = simulate_regime(params, draws)
    state = RegimeState.all_normal(1)
    slow = np.empty(5000, dtype=int)
    for t, u in enumerate(draws):
        state = step_regime(state, params, u)
        slow[t] = state.state[0]
    np.testing.assert_array_equal(fast, slow)


def step_regime_path(params, draws, initial):
    state = RegimeState(state=[initial], periods_in_state=[0])
    out = []
    for u in draws:
        state = step_regime(state, params, u)
        out.append(int(state.state[0]))
    return out


def test_simulate_regime_edge_cases():
    rng = np.random.default_rng(5)
    cases = [
        # every draw flips: 600 alternations, past uint8's 255 wrap
        (1.0, 1.0, rng.random(600)),
        # 300 flips after a draw that sets the regime, so the flip count
        # wraps between that draw and the ones after it
        (0.5, 0.9, np.concatenate([rng.uniform(0.0, 0.5, 300), [0.7],
                                   rng.uniform(0.0, 0.5, 300), [0.95],
                                   rng.uniform(0.0, 0.5, 300)])),
        (0.0, 0.4, rng.random(300)),
        (0.4, 0.0, rng.random(300)),
        (0.0, 0.0, rng.random(50)),
        (0.3, 0.3, rng.random(300)),
        # draws sitting exactly on eta or lam never pass that test
        (0.25, 0.6, np.tile([0.25, 0.6, 0.1, 0.25, 0.9, 0.6], 60)),
        (0.6, 0.25, np.tile([0.25, 0.6, 0.1, 0.6, 0.9, 0.25], 60)),
        (0.5, 0.5, np.array([0.5, 0.2, 0.5, 0.2, 0.2, 0.7, 0.0])),
        (0.3, 0.7, np.array([])),
    ]
    for eta, lam, draws in cases:
        params = ShockParams(eta=eta, lam=lam, zeta=0.5)
        for initial in (NORMAL, SHOCK):
            path = simulate_regime(params, draws, initial=initial)
            assert path.dtype == np.intp
            assert path.tolist() == step_regime_path(params, draws, initial), \
                (eta, lam, initial)


def masked_scatter_path(params, draws, initial):
    """The earlier whole-path algorithm: a masked scatter of set draws, a
    running maximum and a uint8 flip count."""
    u = np.asarray(draws, dtype=float)
    hit = u < params.eta
    recover = u < params.lam
    # set_to[k] is the regime set by draw k-1; slot 0 holds the start.
    set_to = np.empty(u.size + 1, dtype=np.uint8)
    set_to[0] = initial
    set_to[1:] = hit
    last = np.arange(1, u.size + 1)
    last[hit == recover] = 0
    np.maximum.accumulate(last, out=last)
    # Flip counts wrap at 256 in uint8, which keeps their parity.
    flips = np.zeros(u.size + 1, dtype=np.uint8)
    np.cumsum(hit & recover, dtype=np.uint8, out=flips[1:])
    since = flips[1:] - flips[last]
    return ((since & 1) ^ set_to[last]).astype(np.intp)


@pytest.mark.parametrize("eta,lam", [
    (0.07, 0.59), (0.6, 0.25), (0.4, 0.4), (0.0, 0.5), (1.0, 0.5),
    (0.5, 0.0), (0.5, 1.0), (0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0),
])
def test_simulate_regime_matches_masked_scatter_on_long_paths(eta, lam):
    params = ShockParams(eta=eta, lam=lam, zeta=0.5)
    draws = np.random.default_rng(2024).random(10**6)
    # some draws sit exactly on eta or lam
    draws[::97] = eta if eta < 1.0 else 0.5
    draws[::89] = lam if lam < 1.0 else 0.5
    for initial in (NORMAL, SHOCK):
        path = simulate_regime(params, draws, initial=initial)
        assert path.dtype == np.intp
        np.testing.assert_array_equal(path, masked_scatter_path(params, draws, initial))


def test_simulate_regime_occupancy():
    params = ShockParams(eta=0.1, lam=0.3, zeta=0.5)
    rng = np.random.default_rng(4242)
    n = 100_000
    path = simulate_regime(params, rng.random(n))
    share = float(path.mean())
    assert abs(share - stationary_share(params)) < 3.0 * occupancy_stderr(params, n)


def test_draw_shock_partition_boundaries():
    params = ShockParams(eta=0.2, lam=0.5, zeta=0.75)
    # P(none) = 0.8, P(east) = 0.15, P(south) = 0.05
    assert draw_shock(params, 0.0).location is None
    assert draw_shock(params, 0.7999).location is None
    assert draw_shock(params, 0.8).location == EAST
    assert draw_shock(params, 0.9499).location == EAST
    # the east/south split sits at 0.95 up to one float rounding step
    assert draw_shock(params, 0.9501).location == SOUTH
    assert draw_shock(params, 0.9999).location == SOUTH
    with pytest.raises(ValueError):
        draw_shock(params, 1.0)


@pytest.mark.parametrize("eta", [0.0, 1.0, 0.2, 0.7])
@pytest.mark.parametrize("zeta", [0.0, 1.0, 0.75, 0.3])
def test_draw_branches_count_cuts_like_searchsorted(eta, zeta):
    params = ShockParams(eta=eta, lam=0.5, zeta=zeta)
    cuts = _draw_cuts(params)
    u = np.concatenate([np.random.default_rng(3).random(1000), cuts,
                        np.nextafter(cuts, 0.0), np.nextafter(cuts, 2.0),
                        [0.0, np.nextafter(1.0, 0.0)]])
    u = u[u < 1.0]
    got = _draw_branches(params, u)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, np.searchsorted(cuts, u, side="right"))
    for x in u[1000:]:
        assert draw_shock(params, float(x)).location == [None, EAST, SOUTH][
            int(np.searchsorted(cuts, x, side="right"))]


def test_draw_shock_frequencies():
    params = ShockParams(eta=0.2, lam=0.5, zeta=0.75)
    probs = {"none": 0.8, "east": 0.15, "south": 0.05}
    rng = np.random.default_rng(777)
    n = 200_000
    counts = {"none": 0, "east": 0, "south": 0}
    for u in rng.random(n):
        counts[draw_shock(params, float(u)).label] += 1
    for label, p in probs.items():
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(counts[label] / n - p) < 3.0 * se, label


def test_shock_draw_labels():
    assert ShockDraw(location=None).label == "none"
    assert ShockDraw(location=EAST).label == "east"
    assert ShockDraw(location=SOUTH).label == "south"


def test_apply_shock():
    labor = np.array([1.0, 1.5, 0.8])
    hit = apply_shock(labor, ShockDraw(location=1))
    np.testing.assert_array_equal(hit, [1.0, 0.0, 0.8])
    np.testing.assert_array_equal(labor, [1.0, 1.5, 0.8])   # input untouched
    same = apply_shock(labor, ShockDraw(location=None))
    np.testing.assert_array_equal(same, labor)
    assert same is not labor
    with pytest.raises(ValueError):
        apply_shock(labor, ShockDraw(location=7))


def test_stationary_share():
    assert stationary_share(ShockParams(eta=0.1, lam=0.3, zeta=0.5)) == pytest.approx(0.25)
    assert stationary_share(ShockParams(eta=0.0, lam=0.5, zeta=0.5)) == 0.0
    assert stationary_share(ShockParams(eta=0.5, lam=0.0, zeta=0.5)) == 1.0
    with pytest.raises(ValueError):
        stationary_share(ShockParams(eta=0.0, lam=0.0, zeta=0.5))


def test_params_validation_and_round_trip():
    with pytest.raises(ValueError):
        ShockParams(eta=1.2, lam=0.5, zeta=0.5)
    with pytest.raises(ValueError):
        ShockParams(eta=0.2, lam=-0.1, zeta=0.5)
    with pytest.raises(ValueError):
        ShockParams.from_dict({"eta": 0.2, "lam": 0.5})
    p = ShockParams(eta=0.2, lam=0.5, zeta=0.75)
    assert ShockParams.from_dict(p.to_dict()) == p
