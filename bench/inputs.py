"""Seeded inputs of the three benchmark workloads.

Each generator takes the run seed and returns plain data; the writers put it
on disk in the formats the gscsim CLI reads.  Nothing is downloaded.
"""

from __future__ import annotations

import json

import numpy as np

from gscsim import EconomyParams, SourcingAllocation, WorldIOTable, supplier_counts

# --- eq_ladder ---------------------------------------------------------------

LADDER = ((3, 2), (5, 3), (8, 3), (6, 4), (10, 4))
SMOKE_LADDER = ((3, 2),)
GAMMAS = (1.0, 0.7)
N_STIFF = 12
SMOKE_STIFF = 2

# The ladder's economies are one fixed draw of the recipe below.  The run seed
# relabels locations and rescales labour, exact symmetries of the wage
# equilibrium that leave every solve's iteration count unchanged.  Drawing the
# economies afresh per seed swings damped-Picard iteration counts so much
# (quartile spread 60% of the median over 40 seeds, with failures landing on
# different rungs) that no regression bound of at most 25% could hold.
LADDER_DRAW_SEED = 0


def random_economy(rng, J: int, N: int, theta: float, gamma: float) -> EconomyParams:
    """The random parameterisation of tests/conftest.py at a given theta."""
    T = rng.uniform(0.5, 3.0, size=(J, N))
    L = rng.uniform(0.5, 2.0, size=J)
    tau = 1.0 + rng.uniform(0.0, 0.8, size=(J, J))
    np.fill_diagonal(tau, 1.0)
    alpha = rng.uniform(0.2, 1.0, size=N)
    weights = rng.uniform(0.5, 2.0, size=N)
    beta = weights / float(alpha @ weights)
    sigma = float(rng.uniform(1.2, 1.0 + 0.9 * theta))
    return EconomyParams(T=T, L=L, tau=tau, alpha=alpha, beta=beta,
                         theta=theta, sigma=sigma, gamma=gamma)


def ladder(seed: int, smoke: bool = False) -> list[tuple[str, EconomyParams]]:
    """Ladder rungs at theta in [2, 8] for both gammas, then stiff draws.

    The stiff draws have J, N <= 3 and theta in [8, 20]; some of them do not
    converge under the damped fixed point, and that failure is measured.
    """
    draw = np.random.default_rng(LADDER_DRAW_SEED)
    base = []
    for J, N in (SMOKE_LADDER if smoke else LADDER):
        for gamma in GAMMAS:
            theta = float(draw.uniform(2.0, 8.0))
            base.append((f"j{J}n{N}g{gamma:g}", random_economy(draw, J, N, theta, gamma)))
    for k in range(SMOKE_STIFF if smoke else N_STIFF):
        J = int(draw.integers(1, 4))
        N = int(draw.integers(1, 4))
        theta = float(draw.uniform(8.0, 20.0))
        base.append((f"stiff{k:02d}_j{J}n{N}", random_economy(draw, J, N, theta, 1.0)))

    rng = np.random.default_rng(seed)
    out = []
    for name, e in base:
        p = rng.permutation(e.n_locations)
        scale = float(np.exp(rng.uniform(-1.0, 1.0)))
        out.append((name, EconomyParams(
            T=e.T[p], L=e.L[p] * scale, tau=e.tau[np.ix_(p, p)],
            alpha=e.alpha, beta=e.beta, theta=e.theta, sigma=e.sigma,
            gamma=e.gamma)))
    return out


# --- shock_sourcing ----------------------------------------------------------

# (suppliers_per_tier, grid_resolution): grid points per distinct count vector
# range from 1001/11 to 2001/7, so a search over distinct counts shows.
PLANNER_GRIDS = ((10, 1001), (20, 501), (6, 2001))
INDIVIDUAL_SUPPLIERS = (10, 30)
SMOKE_PLANNER_GRIDS = ((4, 21),)
SMOKE_INDIVIDUAL_SUPPLIERS = (4,)
RHOS = (0.5, 1.0, 2.0, 4.0)
MC_RUNS = 100_000
SMOKE_MC_RUNS = 2_000
REGIME_DRAWS = 1_000_000
SMOKE_REGIME_DRAWS = 10_000


def two_location_economy(rng) -> EconomyParams:
    # theta stays low so the 2x2 wage solve takes few iterations: the
    # sourcing, scenario and shock layers dominate this workload.
    tau = 1.0 + rng.uniform(0.1, 0.5, size=(2, 2))
    np.fill_diagonal(tau, 1.0)
    theta = float(rng.uniform(2.0, 4.0))
    return EconomyParams.two_tier(
        T1=rng.uniform(0.7, 1.5, size=2), T2=rng.uniform(0.7, 1.5, size=2),
        L=rng.uniform(0.8, 1.25, size=2), tau=tau,
        alpha2=float(rng.uniform(0.35, 0.65)), theta=theta,
        sigma=float(rng.uniform(1.2, min(2.5, theta))))


def scenario_configs(seed: int, smoke: bool = False) -> list[tuple[str, dict]]:
    """Planner configs first, then individual ones; each its own economy."""
    rng = np.random.default_rng(seed)
    modes = ([("planner", m, g) for m, g in (SMOKE_PLANNER_GRIDS if smoke else PLANNER_GRIDS)]
             + [("individual", m, 101) for m in
                (SMOKE_INDIVIDUAL_SUPPLIERS if smoke else INDIVIDUAL_SUPPLIERS)])
    out = []
    for k, (mode, suppliers, grid) in enumerate(modes):
        zeta = float(rng.uniform(0.1, 0.9))
        cfg = {
            "economy": two_location_economy(rng).to_dict(),
            "shock": {"eta": float(rng.uniform(0.05, 0.5)),
                      "lam": float(rng.uniform(0.2, 1.0)), "zeta": zeta},
            "decision_mode": mode,
            "info_env": "risk",
            "realization": "none",
            "shock_period": 10,
            "horizon": 20,
            "suppliers_per_tier": suppliers,
            "grid_resolution": grid,
            "seed": seed,
            "utility": {"rho": RHOS[int(rng.integers(len(RHOS)))]},
            "beliefs": {"zeta_lo": float(rng.uniform(0.0, zeta)),
                        "zeta_hi": float(rng.uniform(zeta, 1.0))},
        }
        out.append((f"{mode}{k}", cfg))
    return out


def regime_inputs(seed: int, smoke: bool = False) -> tuple[dict, np.ndarray]:
    rng = np.random.default_rng([seed, 1])
    params = {"eta": float(rng.uniform(0.01, 0.2)),
              "lam": float(rng.uniform(0.1, 0.9)), "zeta": 0.5}
    return params, rng.random(SMOKE_REGIME_DRAWS if smoke else REGIME_DRAWS)


def distinct_count_vectors(suppliers: int, grid: int) -> int:
    """Distinct integer supplier splits the planner's allocation grid maps to."""
    return len({tuple(supplier_counts(SourcingAllocation.uniform_tiers(
        [1.0 - x, x], suppliers, 1))[:, 0]) for x in np.linspace(0.0, 1.0, grid)})


# --- reliance_tables ---------------------------------------------------------

N_COUNTRIES, N_SECTORS = 40, 30
SMOKE_COUNTRIES, SMOKE_SECTORS = 4, 3
N_FOCUS = 3
TARGET_SECTOR = "MFG"


def balanced_table(rng, countries, sectors) -> WorldIOTable:
    """Exactly balanced table with a productive A (tests/test_iotables.py)."""
    C, S = len(countries), len(sectors)
    n = C * S
    A = rng.uniform(0.0, 1.0, size=(n, n))
    A *= rng.uniform(0.3, 0.6) / A.sum(axis=0)
    F = rng.uniform(0.5, 2.0, size=(n, C))
    x = np.linalg.solve(np.eye(n) - A, F.sum(axis=1))
    Z = A * x[None, :]
    v = x - Z.sum(axis=0)
    return WorldIOTable(countries=list(countries), sectors=list(sectors),
                        Z=Z, F=F, v=v, x=x)


def table_pair(seed: int, smoke: bool = False):
    """Two tables on the same axes plus the focus countries of the FIR run."""
    rng = np.random.default_rng(seed)
    C, S = (SMOKE_COUNTRIES, SMOKE_SECTORS) if smoke else (N_COUNTRIES, N_SECTORS)
    countries = [f"C{i:02d}" for i in range(C)]
    sectors = [TARGET_SECTOR] + [f"S{k:02d}" for k in range(1, S)]
    focus = [countries[i] for i in sorted(rng.choice(C, N_FOCUS, replace=False))]
    return (balanced_table(rng, countries, sectors),
            balanced_table(rng, countries, sectors), focus)


def write_table_csv(table: WorldIOTable, path) -> None:
    """The CLI's table layout, every number written as its exact repr."""
    labels = table.labels()
    blank = "," * len(table.countries)
    with open(path, "w") as fh:
        fh.write(",".join(["table"] + labels
                          + [f"FD:{c}" for c in table.countries]) + "\n")
        for label, row in zip(labels, np.hstack([table.Z, table.F]).tolist()):
            fh.write(label + "," + ",".join(map(repr, row)) + "\n")
        fh.write("VA," + ",".join(map(repr, table.v.tolist())) + blank + "\n")
        fh.write("OUT," + ",".join(map(repr, table.x.tolist())) + blank + "\n")


def write_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)
