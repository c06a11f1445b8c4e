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
return one value per chain enumerate the chains.  Every config dataclass of
the package, nested ones too, takes its JSON form from ``_JsonConfig``.

Conventions used throughout:

* ``T[i, n]`` is the technology level of location i at tier n,
* ``tau[i, j]`` is the iceberg cost of shipping from i to j (diagonal 1),
* ``costs[i]`` is the composite input cost of location i,
* ``alpha[n] * beta[n]`` is the share of final-good value paid to tier-n
  labour, and the betas cumulate downstream intermediate shares so that
  ``sum(alpha * beta) == 1``.
"""

from __future__ import annotations

import functools
import math
import operator
import reprlib
from dataclasses import MISSING, asdict, dataclass, fields
from typing import get_type_hints

import numpy as np

# Per-path output needs one row per chain, exponential in the number of
# tiers; refuse silently huge problems instead of sampling.
MAX_PATHS = 1_000_000

def _not_number(x) -> bool:
    """Whether ``x`` is or holds a boolean or text, which numpy reads as a number."""
    if isinstance(x, np.ndarray):       # only an object array is scanned
        return x.dtype.kind in "bUS" or (x.dtype == object and any(map(_not_number, x.flat)))
    return isinstance(x, (bool, np.bool_, str, bytes, bytearray)) or (
        isinstance(x, (list, tuple)) and any(map(_not_number, x)))


def _real_array(x, name: str) -> np.ndarray:
    """``x`` as a float array; booleans, text and ragged lists raise, as in :func:`_real`."""
    try:
        if not _not_number(x):
            return np.asarray(x).astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):     # not numeric, ragged, or past float64
        pass
    raise ValueError(f"{name} must be a number, got {reprlib.repr(x)}")     # abridged


@functools.lru_cache(maxsize=256)     # a spec may carry a horizon or a location count
def _interval(spec: str) -> tuple:
    """Bounds of ``spec`` and the test of each: "(0, 1]" gives (0, 1, lt, le).
    A whole bound reads as an int, so that it compares exactly."""
    low, high = (int(bound) if bound.strip().isdigit() else float(bound)
                 for bound in spec[1:-1].split(","))
    return (low, high, operator.le if spec[0] == "[" else operator.lt,
            operator.le if spec[-1] == "]" else operator.lt)


def _shaped(arr: np.ndarray, shape, name: str) -> np.ndarray:
    """``arr`` if it has the shape ``shape``, in which a named entry, such as
    ``"locations"``, takes any size and True stands for any shape; one
    message otherwise."""
    if shape is True or arr.shape == shape or (arr.ndim == len(shape) and all(
            isinstance(want, str) or want == got for want, got in zip(shape, arr.shape))):
        return arr
    wanted = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
    raise ValueError(f"{name} must have shape ({wanted}), got {arr.shape}")


def _inside(out, name: str, spec: str):
    """``out``, a number or an array, if it lies in the interval ``spec``;
    otherwise ``{name} must lie in {spec}, got {value}``, an array's first
    entry out of range.  Arrays take two passes, min and max, which carry
    NaN, and NaN fails every test."""
    low, high, lower, upper = _interval(spec)
    if type(out) is not np.ndarray:
        if lower(low, out) and upper(out, high):
            return out
    elif not out.size or (lower(low, np.minimum.reduce(out, axis=None))
                          and upper(np.maximum.reduce(out, axis=None), high)):
        return out
    else:
        out = out[~(lower(low, out) & upper(out, high))][0]
    raise ValueError(f"{name} must lie in {spec}, got {out}")


def _within(x, name: str, spec: str, array=False):
    """``x`` as a float in the interval ``spec``, written as it reads
    (``"(0, 1]"``, ``"[1, inf)"``, ``"[-inf, inf]"``), or, unless ``array``
    is False, a float array of the shape ``array`` (see :func:`_shaped`),
    such as ``(J, J)`` or ``("locations", "tiers")``; a float64 ndarray
    comes back as it is.  NaN, booleans, text and ragged lists raise."""
    if array is False:
        return _inside(_real(x, name), name, spec)
    return _inside(_shaped(_real_array(x, name), array, name), name, spec)


def _whole(x, name: str, spec: str, array=False):
    """``x`` as an int in the interval ``spec`` (``"[1, inf)"``,
    ``f"[0, {J - 1}]"``), or, unless ``array`` is False, an ``intp`` array
    shaped as in :func:`_within`.  NaN, inf, fractions, booleans, text and,
    without ``array``, sequences raise.  Values and bounds compare exactly,
    never through float64; an entry past ``intp`` is refused, not cast."""
    if array is False and isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return _inside(int(x), name, spec)
    try:
        arr = np.asarray(x)
        if arr.dtype.kind not in "iu" or _not_number(x):  # integers skip float64
            arr = _real_array(x, name)
            whole = (np.isfinite(arr) & (arr == np.floor(arr))).all()
            arr = np.frompyfunc(int, 1, 1)(arr) if whole else None     # exact Python ints
    except (TypeError, ValueError):     # boolean, not numeric, or ragged
        arr = None
    if arr is None:
        raise ValueError(f"{name} must be a whole number, "
                         f"got {repr(x) if isinstance(x, str) else x}")
    if array is False:
        if np.ndim(arr):
            raise ValueError(f"{name} must be a single value, got {x}")
        return _inside(int(arr), name, spec)
    arr = _inside(_shaped(np.asarray(arr), array, name), name, spec)
    if arr.dtype != np.intp and arr.size and (
            int(np.maximum.reduce(arr, axis=None)) > (top := np.iinfo(np.intp).max)):
        raise ValueError(f"{name} must be at most {top}")     # an intp cast would wrap
    return arr.astype(np.intp)


def _checked_path(path, params: EconomyParams) -> np.ndarray:
    """``path`` as location indices, one per tier, each a known location."""
    return _whole(path, "path", f"[0, {params.n_locations - 1}]", array=(params.n_tiers,))


def _checked_costs(params: EconomyParams, costs) -> np.ndarray:
    """``costs`` checked once, where a public function takes them."""
    return _within(costs, "costs", "(0, inf)", array=(params.n_locations,))


def _real(x, name: str) -> float:
    try:
        if not _not_number(x):              # float(True) would read 1.0, float("3") 3.0
            return float(x)
    except (TypeError, ValueError, OverflowError):     # not numeric, or an int past float64
        pass
    raise ValueError(f"{name} must be a number, got {x!r}")


def _json_object(d, kind: str) -> dict:
    if not isinstance(d, dict):
        raise ValueError(f"{kind} config must be a JSON object, got {type(d).__name__}")
    return d


class _JsonConfig:
    """JSON form of a config dataclass: one key per field in field order,
    arrays as lists and nested configs as dicts.  Loading ignores unknown
    keys, refuses anything but a JSON object, names every missing key without
    a default after the class's ``kind``, and loads each field annotated with
    a config class through that class, its errors prefixed with the field."""

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=lambda items: {
            k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in items})

    @classmethod
    def from_dict(cls, d: dict):
        d = _json_object(d, cls.kind)
        missing = [f.name for f in fields(cls) if f.name not in d
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            noun = "key" if len(missing) == 1 else "keys"
            raise ValueError(f"{cls.kind} config missing {noun}: {', '.join(missing)}")
        values = {f.name: d[f.name] for f in fields(cls) if f.name in d}
        for name, config in _nested_configs(cls):
            if name in values:
                try:
                    values[name] = config.from_dict(values[name])
                except (ValueError, TypeError) as err:
                    raise ValueError(f"{name}: {err}") from None
        return cls(**values)


@functools.cache
def _nested_configs(cls) -> tuple:
    """(name, class) of each field of ``cls`` annotated with a config class."""
    return tuple((name, t) for name, t in get_type_hints(cls).items()
                 if isinstance(t, type) and issubclass(t, _JsonConfig))


@dataclass
class EconomyParams(_JsonConfig):
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

    kind = "economy"

    def __post_init__(self):
        self.T = _within(self.T, "T", "(0, inf)", array=("locations", "tiers"))
        J, N = self.T.shape
        if J < 1 or N < 1:
            raise ValueError("need at least one location and one tier")
        self.L = _within(self.L, "L", "(0, inf)", array=(J,))
        self.tau = _within(self.tau, "tau", "[1, inf)", array=(J, J))
        if not np.allclose(np.diag(self.tau), 1.0):
            raise ValueError("tau must have a unit diagonal")
        self.alpha = _within(self.alpha, "alpha", "(0, 1]", array=(N,))
        self.beta = _within(self.beta, "beta", "(0, inf)", array=(N,))
        weight = float(np.sum(self.alpha * self.beta))
        if abs(weight - 1.0) > 1e-9:
            raise ValueError(
                f"tier labour weights must exhaust output value: "
                f"sum(alpha * beta) = {weight:.12g}, expected 1"
            )
        self.theta, self.sigma = _real(self.theta, "theta"), _real(self.sigma, "sigma")
        kappa(self.theta, self.sigma)       # the price index must exist
        self.gamma = _within(self.gamma, "gamma", "(0, 1]")

    @property
    def n_locations(self) -> int:
        return self.T.shape[0]

    @property
    def n_tiers(self) -> int:
        return self.T.shape[1]

    @classmethod
    def one_tier(cls, T, L, tau, theta, sigma, gamma=1.0) -> "EconomyParams":
        """Single-tier economy: plain sourcing with alpha = beta = 1."""
        T = _shaped(_real_array(T, "T"), ("locations",), "T")[:, None]
        return cls(T=T, L=L, tau=tau, alpha=np.ones(1), beta=np.ones(1),
                   theta=theta, sigma=sigma, gamma=gamma)

    @classmethod
    def two_tier(cls, T1, T2, L, tau, alpha2, theta, sigma, gamma=1.0) -> "EconomyParams":
        """Two-tier chain: upstream suppliers feed final assembly.

        The upstream tier is pure labour (alpha1 = 1) and the assembly tier
        spends share ``alpha2`` on labour and ``1 - alpha2`` on the upstream
        input, so beta = (1 - alpha2, 1).
        """
        alpha2 = _within(alpha2, "alpha2", "(0, 1)")
        return cls(T=np.column_stack([_real_array(T1, "T"), _real_array(T2, "T")]), L=L,
                   tau=tau, alpha=np.array([1.0, alpha2]), beta=np.array([1.0 - alpha2, 1.0]),
                   theta=theta, sigma=sigma, gamma=gamma)


def kappa(theta: float, sigma: float) -> float:
    """CES constant of the Frechet price index.

    kappa = Gamma((theta + 1 - sigma) / theta) ** (1 / (1 - sigma)), which
    exists for finite theta > 0 and sigma > 1 with sigma - 1 < theta; any
    other theta or sigma raises."""
    theta, sigma = _within(theta, "theta", "(0, inf)"), _within(sigma, "sigma", "(1, inf)")
    if sigma - 1.0 >= theta:
        raise ValueError(f"price index requires sigma - 1 < theta, "
                         f"got sigma={sigma}, theta={theta}")
    return math.gamma((theta + 1.0 - sigma) / theta) ** (1.0 / (1.0 - sigma))


def composite_cost(wages, prices, gamma: float) -> np.ndarray:
    """Cobb-Douglas input cost c = w**gamma * P**(1 - gamma)."""
    w = _within(wages, "wages", "(0, inf)", array=True)
    P = _within(prices, "prices", "(0, inf)", array=True)
    gamma = _within(gamma, "gamma", "(0, 1]")
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


class _Chain:
    """The cost-free factors of one economy's chain sums, built once per solve.

    A chain's cost scale is the product of its hop factors, so sums over the
    J**N chains factorise tier by tier (Antras & de Gortari 2020; the
    forward-backward pass of Rabiner 1989).  Only the costs change from one
    pass to the next: :meth:`forward` yields the chain totals ``S[j]``, which
    is all that prices need, and :meth:`backward` adds what participation
    and flow shares need.  Public functions check costs on entry; no pass does.

    Each pass does the same floating-point operations, in the same order,
    as the plain recursion: no product is regrouped and no matmul is
    rewritten, since either changes the last bits.  The single-tier (N = 1)
    shortcuts are exact: the head row ``fwd[0]`` is all ones, so the totals
    are ``ones @ facs[0]``, ``bwd`` is ``facs`` itself and participation is
    ``bwd / S``, because ``1.0 * x == x``.
    """

    def __init__(self, params: EconomyParams):
        self.params = params
        self.ab = params.alpha * params.beta
        self.tech = (params.T ** self.ab).T[:, :, None]                  # (N, J, 1)
        self.exponent = (-params.theta * self.ab)[:, None, None]
        self.hop = params.tau[None, :, :] ** (-params.theta * params.beta[:, None, None])
        self.kappa = kappa(params.theta, params.sigma)
        self.inv_theta = -1.0 / params.theta
        if params.n_tiers == 1:
            # fwd of every pass; read-only, as the passes return it
            self.head = np.ones((1, params.n_locations))
            self.head.flags.writeable = False

    def factors(self, costs) -> np.ndarray:
        """Tier factors, (N, J, J): ``facs[n][a, b]`` multiplies a chain with
        tier n in a and tier n+1 in b, and ``facs[-1][a, j]`` includes the
        final shipment to j.  ``costs`` come checked, as float64."""
        return self.tech * costs[:, None] ** self.exponent * self.hop

    def forward(self, costs):
        """Tier factors; ``fwd[n][a]``, summed over chain heads that place
        tier n in a; and the totals ``S[j]`` over every chain serving j."""
        facs = self.factors(costs)
        if len(facs) == 1:
            return facs, self.head, self.head[0] @ facs[0]
        fwd = np.ones(facs.shape[:2])
        for n in range(len(facs) - 1):
            fwd[n + 1] = fwd[n] @ facs[n]
        return facs, fwd, fwd[-1] @ facs[-1]

    def backward(self, facs) -> np.ndarray:
        """``bwd[n][a, j]``, summed from tier n in a down to j."""
        if len(facs) == 1:
            return facs
        bwd = np.empty_like(facs)
        bwd[-1] = facs[-1]
        for n in range(len(facs) - 2, -1, -1):
            bwd[n] = facs[n] @ bwd[n + 1]
        return bwd

    def prices(self, S: np.ndarray) -> np.ndarray:
        return self.kappa * S ** self.inv_theta

    def participation(self, fwd, bwd, S: np.ndarray) -> np.ndarray:
        """``fwd[:, :, None] * bwd / S``, a new array."""
        if len(bwd) == 1:
            return bwd / S
        part = fwd[:, :, None] * bwd
        part /= S
        return part


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
    facs = _Chain(params).factors(_checked_costs(params, costs))
    paths = enumerate_paths(params.n_locations, params.n_tiers)
    return paths, _path_product(facs, paths)


def _path_product(facs: np.ndarray, paths: np.ndarray) -> np.ndarray:
    """Cost scales (P, J) of the chains ``paths`` (P, N) for every destination:
    the hop factors multiplied tier by tier, the last one shipping to j."""
    base = np.ones(len(paths))
    for n in range(len(facs) - 1):
        base = base * facs[n][paths[:, n], paths[:, n + 1]]
    return base[:, None] * facs[-1][paths[:, -1], :]


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
    return _chain_scale(_Chain(params).factors(_checked_costs(params, costs)), path, dest, params)


def _chain_scale(facs, path, dest: int, params: EconomyParams, totals=None) -> float:
    """:func:`chain_cost_scale` from the tier factors, over ``totals[dest]``
    if given; checks path, then dest."""
    path = _checked_path(path, params)
    dest = _whole(dest, "dest", f"[0, {params.n_locations - 1}]")
    scale = float(_path_product(facs, path[None])[0, dest])
    return scale if totals is None else scale / float(totals[dest])


def path_share(path, dest: int, params: EconomyParams, costs) -> float:
    """Probability that destination ``dest`` sources along ``path``."""
    facs, _, S = _Chain(params).forward(_checked_costs(params, costs))
    return _chain_scale(facs, path, dest, params, S)


def path_share_matrix(params: EconomyParams, costs) -> tuple[np.ndarray, np.ndarray]:
    """All path shares at once; columns (destinations) each sum to 1."""
    paths, scales = path_scale_matrix(params, costs)
    return paths, scales / scales.sum(axis=0, keepdims=True)


def price_indices(params: EconomyParams, costs) -> np.ndarray:
    """CES price index of the final good in every destination."""
    chain = _Chain(params)
    return chain.prices(chain.forward(_checked_costs(params, costs))[-1])


def price_index(dest: int, params: EconomyParams, costs) -> float:
    dest = _whole(dest, "dest", f"[0, {params.n_locations - 1}]")
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
    chain = _Chain(params)
    facs, fwd, S = chain.forward(_checked_costs(params, costs))
    return chain.participation(fwd, chain.backward(facs), S)


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
        w = _within(expenditure_weights, "expenditure_weights", "(0, inf)", array=(J,))
        w = w / w.sum()
    chain = _Chain(params)
    facs, fwd, S = chain.forward(_checked_costs(params, costs))
    bwd = chain.backward(facs)
    flows = sum(params.beta[n] * fwd[n][:, None] * facs[n] * (bwd[n + 1] @ (w / S))
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
    j = _whole(j, "j", f"[0, {params.n_locations - 1}]")
    pi_jj = _within(pi_jj, "pi_jj", "(0, 1]")
    k = kappa(params.theta, params.sigma)
    tech = chain_productivity_location([j] * params.n_tiers, params)
    tau_jj = params.tau[j, j] ** float(np.sum(params.beta))
    return (tech / pi_jj) ** (1.0 / params.theta) / (k * tau_jj)


def chain_productivity_location(path, params: EconomyParams) -> float:
    """Frechet location parameter of a chain's end-to-end productivity."""
    path = _checked_path(path, params)
    ab = params.alpha * params.beta
    return float(np.prod(params.T[path, np.arange(params.n_tiers)] ** ab))


def chain_productivity_cdf(z: float, path, params: EconomyParams) -> float:
    """P(chain productivity <= z); Frechet with the tier-weighted location.

    The chain draw combines tier-level Frechet draws so that

        F(z) = exp(-z**(-theta) * prod_n T[l_n, n]**(alpha_n beta_n)).
    """
    z = _within(z, "z", "[-inf, inf]")
    loc = chain_productivity_location(path, params)
    if z <= 0.0:
        return 0.0
    return math.exp(-(z ** (-params.theta)) * loc)


def chain_productivity_theta_sensitivity(z: float, path, params: EconomyParams) -> float:
    """Analytic derivative of the chain productivity CDF in theta."""
    z = _real(z, "z")
    F = chain_productivity_cdf(z, path, params)
    if z <= 0.0 or z == math.inf:      # the limits at both ends are 0
        return 0.0
    loc = chain_productivity_location(path, params)
    return F * loc * z ** (-params.theta) * math.log(z)
