import numpy as np
import pytest

from gscsim import EconomyParams

# Asymmetric single-tier economy pinned by the committed oracle file
# (tests/fixtures/equilibrium_oracle.csv, produced by make_equilibrium_oracle.py).
ORACLE_T = [2.0, 1.0, 0.5]
ORACLE_L = [1.0, 1.5, 0.8]
ORACLE_TAU = [[1.0, 1.3, 1.6],
              [1.2, 1.0, 1.4],
              [1.5, 1.25, 1.0]]
ORACLE_THETA = 4.0
ORACLE_SIGMA = 2.0


def oracle_economy() -> EconomyParams:
    return EconomyParams.one_tier(T=ORACLE_T, L=ORACLE_L, tau=ORACLE_TAU,
                                  theta=ORACLE_THETA, sigma=ORACLE_SIGMA)


def symmetric_two_tier(theta=4.0, sigma=2.0, alpha2=0.5) -> EconomyParams:
    return EconomyParams.two_tier(T1=[1.0, 1.0], T2=[1.0, 1.0], L=[1.0, 1.0],
                                  tau=np.ones((2, 2)), alpha2=alpha2,
                                  theta=theta, sigma=sigma)


def random_economy(rng, J=None, N=None, gamma=1.0) -> EconomyParams:
    """A valid random parameterisation with J <= 3 locations, N <= 3 tiers."""
    J = int(rng.integers(1, 4)) if J is None else J
    N = int(rng.integers(1, 4)) if N is None else N
    T = rng.uniform(0.5, 3.0, size=(J, N))
    L = rng.uniform(0.5, 2.0, size=J)
    tau = 1.0 + rng.uniform(0.0, 0.8, size=(J, J))
    np.fill_diagonal(tau, 1.0)
    alpha = rng.uniform(0.2, 1.0, size=N)
    weights = rng.uniform(0.5, 2.0, size=N)
    beta = weights / float(alpha @ weights)   # makes sum(alpha * beta) = 1
    theta = float(rng.uniform(2.0, 8.0))
    sigma = float(rng.uniform(1.2, 1.0 + 0.9 * theta))
    return EconomyParams(T=T, L=L, tau=tau, alpha=alpha, beta=beta,
                         theta=theta, sigma=sigma, gamma=gamma)


def random_costs(rng, J) -> np.ndarray:
    return rng.uniform(0.4, 2.5, size=J)


# Seed 1000 of the census recipe at gamma 0.05 (J 2, N 2, theta 5.62): the
# inner cost loop contracts with modulus 1 - gamma and spends its 500 passes.
COST_STALL = {
    "T": [[1.6773544933056348, 1.008119856361697], [1.8218975640501316, 0.9775907002019719]],
    "L": [0.9223183979627776, 1.630522328287391],
    "tau": [[1.0, 1.6909776605667108], [1.6442977767247373, 1.0]],
    "alpha": [0.35188592966523224, 0.9871964655137377],
    "beta": [1.0463170622275724, 0.6400101397290342],
    "theta": 5.6230510820379775, "sigma": 2.19117043250983, "gamma": 0.05}
