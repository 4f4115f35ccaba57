"""Service-time distributions.

Each distribution supplies sampling, density/CDF, quantiles of its tilted
law and truncated Taylor expansions of its moment generating function
M(t) = E[exp(t*U)] at non-positive arguments. The expansion coefficients
E[U^k exp(t0*U)] / k! are the single analytic primitive every AoI formula
consumes.

Exponential, gamma and deterministic laws use closed-form derivative
formulas. The log-normal law has no closed-form MGF; its coefficients are
computed by Gauss-Hermite quadrature after substituting U = exp(loc +
scale*Z) with Z standard normal, doubling the node count until the result
stabilizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import betainc, gammainc, gammaincinv, lambertw, roots_hermite

from .jets import DEFAULT_ORDER, Jet

__all__ = [
    "ServiceDistribution",
    "Exponential",
    "Gamma",
    "Deterministic",
    "LogNormal",
    "MgfDomainError",
    "UnsupportedDensity",
    "ConvergenceError",
    "substream",
    "parse_distribution",
]

SQRT2 = math.sqrt(2.0)
SQRT_PI = math.sqrt(math.pi)

# Gauss-Hermite node doubling: start small, stop when successive relative
# change per coefficient drops below the tolerance.
_GH_START_NODES = 64
_GH_MAX_NODES = 4096
_GH_RTOL = 1e-9

# Keep-away margin from the MGF pole of exponential/gamma laws, relative
# to the rate: jet coefficients blow up as the pole is approached.
_POLE_MARGIN = 1e-9

# The survival transform at a positive argument t0 is formed as
# (M(t) - 1)/t, which cancels about -log10(t0) digits; closer to 0 it is
# refused.
_SURVIVAL_GAP = 1e-9


class MgfDomainError(ValueError):
    """MGF requested outside the distribution's convergence region."""


class UnsupportedDensity(ValueError):
    """The distribution has no density (deterministic point mass)."""


class ConvergenceError(RuntimeError):
    """Quadrature failed to stabilize within the node budget."""


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible random substream for a (seed, key) pair.

    Every (replication, source, purpose) triple in the simulator gets its
    own substream so that policy logic never perturbs unrelated draws.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@lru_cache(maxsize=None)
def _hermite_nodes(n: int):
    x, w = roots_hermite(n)
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
    return x, log_w


def _until_stable(coeffs_at, what: str, t0: float, order: int) -> list[float]:
    """Log-normal ``what`` coefficients, doubling the node count until stable.

    ``coeffs_at(n)`` evaluates the coefficients by Gauss-Hermite quadrature
    with ``n`` nodes; the loop stops once no coefficient moves by more than
    the relative tolerance between successive node counts.
    """
    prev = None
    n = _GH_START_NODES
    while n <= _GH_MAX_NODES:
        coeffs = coeffs_at(n)
        if prev is not None and all(
            abs(c - p) <= _GH_RTOL * abs(c) for c, p in zip(coeffs, prev)
        ):
            return coeffs
        prev = coeffs
        n *= 2
    raise ConvergenceError(
        f"log-normal {what} quadrature did not stabilize within {_GH_MAX_NODES} nodes "
        f"(t0={t0}, order={order})"
    )


class ServiceDistribution:
    """Common interface; concrete laws are the frozen dataclasses below."""

    def mean(self) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.sample_n(rng, 1)[0])

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def pdf(self, t: float) -> float:
        raise NotImplementedError

    def cdf(self, t: float) -> float:
        raise NotImplementedError

    def mgf_point(self, t: float) -> float:
        """E[exp(t*U)]; exactly 1 at t = 0."""
        return 1.0 if t == 0.0 else self.mgf_jet(t, 1).coeffs[0]

    def mgf_jet(self, t0: float, order: int = DEFAULT_ORDER) -> Jet:
        """Jet of the MGF at t0: coeffs[k] = E[U^k exp(t0*U)] / k!."""
        raise NotImplementedError

    def survival_mgf_jet(self, t0: float, order: int = DEFAULT_ORDER) -> Jet:
        """Jet at t0 of the survival transform H(t) = (1 - M(t)) / (-t).

        H is the integral of exp(t*v) against the survival function
        1 - F(v), so its k-th derivative is E[v^k exp(t*v)] integrated
        against the tail; for t0 < 0, in regularized-incomplete-gamma form

            coeffs[k] = E[P(k+1, -t0*U)] / (-t0)^(k+1),

        which is a mean of values in [0, 1] divided by an exact power:
        stable for arbitrarily small -t0, unlike forming (1 - M)/( -t) in
        truncated-series arithmetic, whose rounding blows up like
        (-t0)^-k. Every ratio-of-polynomials expression containing the
        factor (1 - M(s - r))/(r - s) should be built from this jet.

        For t0 > 0, inside the MGF's domain, the jet is (M(t) - 1)/t in
        series arithmetic; it loses about -log10(t0) digits, so t0 below
        ``_SURVIVAL_GAP`` is refused.
        """
        if t0 > 0:
            if t0 < _SURVIVAL_GAP:
                raise MgfDomainError(
                    f"survival transform refused for 0 < t0 < {_SURVIVAL_GAP}, got {t0}"
                )
            return (self.mgf_jet(t0, order) - 1.0) / Jet.variable(order, t0)
        if t0 == 0.0:
            return Jet(0.0, self.mgf_jet(0.0, order + 1).coeffs[1:])
        return self._survival_jet_neg(t0, order)

    def _survival_jet_neg(self, t0: float, order: int) -> Jet:
        raise NotImplementedError

    def tilted_quantiles(self, rate: float, qs) -> np.ndarray:
        """Quantiles at levels ``qs`` of the density f_U(t) exp(-rate t) / M_U(-rate):
        the system time of a delivered packet when preemptions come at ``rate``."""
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(ServiceDistribution):
    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"exponential rate must be positive, got {self.rate}")

    def mean(self) -> float:
        return 1.0 / self.rate

    def sample_n(self, rng, n):
        return rng.exponential(1.0 / self.rate, n)

    def pdf(self, t):
        return self.rate * math.exp(-self.rate * t) if t >= 0 else 0.0

    def cdf(self, t):
        return -math.expm1(-self.rate * t) if t > 0 else 0.0

    def _check_domain(self, t):
        if t + _POLE_MARGIN * self.rate >= self.rate:
            raise MgfDomainError(
                f"exponential MGF diverges at t={t} (rate {self.rate})"
            )

    def mgf_jet(self, t0, order=DEFAULT_ORDER):
        self._check_domain(t0)
        # M(t) = r/(r-t): the k-th normalized coefficient at t0 is
        # r / (r-t0)^(k+1), a geometric progression.
        gap = self.rate - t0
        coeffs = [self.rate / gap]
        for _ in range(order):
            coeffs.append(coeffs[-1] / gap)
        return Jet(t0, tuple(coeffs))

    def _survival_jet_neg(self, t0, order):
        # H(t) = 1/(rate - t) exactly for the exponential law
        gap = self.rate - t0
        coeffs = [1.0 / gap]
        for _ in range(order):
            coeffs.append(coeffs[-1] / gap)
        return Jet(t0, tuple(coeffs))

    def tilted_quantiles(self, rate, qs):
        return -np.log1p(-qs) / (self.rate + rate)  # Exp(rate + tilt)

    def label(self):
        return f"exponential(rate={self.rate:g})"


@dataclass(frozen=True)
class Gamma(ServiceDistribution):
    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and self.rate > 0):
            raise ValueError(f"gamma shape/rate must be positive, got {self}")

    def mean(self) -> float:
        return self.shape / self.rate

    def sample_n(self, rng, n):
        return rng.gamma(self.shape, 1.0 / self.rate, n)

    def pdf(self, t):
        if t <= 0:
            return 0.0
        k, b = self.shape, self.rate
        return math.exp(
            k * math.log(b) + (k - 1.0) * math.log(t) - b * t - math.lgamma(k)
        )

    def cdf(self, t):
        return float(gammainc(self.shape, self.rate * t)) if t > 0 else 0.0

    def _check_domain(self, t):
        if t + _POLE_MARGIN * self.rate >= self.rate:
            raise MgfDomainError(f"gamma MGF diverges at t={t} (rate {self.rate})")

    def mgf_jet(self, t0, order=DEFAULT_ORDER):
        self._check_domain(t0)
        # M(t) = (r/(r-t))^k; successive normalized coefficients follow the
        # rising-factorial recursion c_j = c_{j-1} * (k+j-1) / (j*(r-t0)).
        gap = self.rate - t0
        coeffs = [(self.rate / gap) ** self.shape]
        for j in range(1, order + 1):
            coeffs.append(coeffs[-1] * (self.shape + j - 1.0) / (j * gap))
        return Jet(t0, tuple(coeffs))

    def _survival_jet_neg(self, t0, order):
        # E[P(k+1, c*U)] for gamma U is a beta tail probability: with
        # G1 ~ Gamma(k+1), G2 ~ Gamma(shape) independent, the event
        # G1 <= (c/rate) G2 has probability I_x(k+1, shape), x = c/(c+rate).
        c = -t0
        x = c / (c + self.rate)
        coeffs = [float(betainc(k + 1, self.shape, x)) / c ** (k + 1) for k in range(order + 1)]
        return Jet(t0, tuple(coeffs))

    def tilted_quantiles(self, rate, qs):
        return gammaincinv(self.shape, qs) * (1.0 / (self.rate + rate))  # Gamma(shape, rate + tilt)

    def label(self):
        return f"gamma(shape={self.shape:g}, rate={self.rate:g})"


@dataclass(frozen=True)
class Deterministic(ServiceDistribution):
    value: float

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError(f"deterministic duration must be positive, got {self.value}")

    def mean(self) -> float:
        return self.value

    def sample_n(self, rng, n):
        return np.full(n, self.value)

    def pdf(self, t):
        raise UnsupportedDensity("a point mass has no density")

    def cdf(self, t):
        return 1.0 if t >= self.value else 0.0

    def mgf_jet(self, t0, order=DEFAULT_ORDER):
        # M(t) = exp(t*d): coefficients exp(t0*d) * d^k / k!.
        base = math.exp(t0 * self.value)
        coeffs = [base]
        for k in range(1, order + 1):
            coeffs.append(coeffs[-1] * self.value / k)
        return Jet(t0, tuple(coeffs))

    def _survival_jet_neg(self, t0, order):
        c = -t0
        coeffs = [
            float(gammainc(k + 1, c * self.value)) / c ** (k + 1) for k in range(order + 1)
        ]
        return Jet(t0, tuple(coeffs))

    def tilted_quantiles(self, rate, qs):
        raise UnsupportedDensity("a point mass has no density")

    def label(self):
        return f"deterministic(value={self.value:g})"


@dataclass(frozen=True)
class LogNormal(ServiceDistribution):
    loc: float
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"log-normal scale must be positive, got {self.scale}")

    def mean(self) -> float:
        return math.exp(self.loc + 0.5 * self.scale**2)

    def sample_n(self, rng, n):
        return rng.lognormal(self.loc, self.scale, n)

    def pdf(self, t):
        if t <= 0:
            return 0.0
        z = (math.log(t) - self.loc) / self.scale
        return math.exp(-0.5 * z * z) / (t * self.scale * math.sqrt(2 * math.pi))

    def cdf(self, t):
        if t <= 0:
            return 0.0
        z = (math.log(t) - self.loc) / self.scale
        return 0.5 * math.erfc(-z / SQRT2)

    def _quadrature_coeffs(self, t0: float, order: int, nodes: int) -> list[float]:
        x, log_w = _hermite_nodes(nodes)
        log_u = self.loc + self.scale * SQRT2 * x
        u = np.exp(log_u)
        base = log_w + t0 * u
        coeffs = []
        log_fact = 0.0
        for k in range(order + 1):
            if k > 0:
                log_fact += math.log(k)
            with np.errstate(over="ignore"):
                terms = np.exp(base + k * log_u - log_fact)
            coeffs.append(float(np.sum(terms)) / SQRT_PI)
        return coeffs

    def _check_domain(self, t):
        if t > 0:
            raise MgfDomainError(f"log-normal MGF diverges for t > 0 (got t={t})")

    def mgf_jet(self, t0, order=DEFAULT_ORDER):
        """E[U^k exp(t0*U)] / k! for k = 0..order, by Gauss-Hermite.

        With U = exp(loc + scale*Z) the integrand in the standard-normal
        variable is smooth, so Hermite-weighted quadrature converges fast;
        node doubling until the per-coefficient relative change drops below
        the tolerance guards the slower convergence near t0 = 0 with large
        orders. Terms are assembled in log space: at extreme nodes the
        weight underflows or U^k overflows individually while the product
        stays negligible.
        """
        self._check_domain(t0)
        coeffs = _until_stable(
            lambda n: self._quadrature_coeffs(t0, order, n), "MGF", t0, order
        )
        return Jet(t0, tuple(coeffs))

    def _tail_prob_coeffs(self, t0: float, order: int, nodes: int) -> list[float]:
        c = -t0
        x, log_w = _hermite_nodes(nodes)
        w = np.exp(log_w)
        u = np.exp(self.loc + self.scale * SQRT2 * x)
        coeffs = []
        for k in range(order + 1):
            mean_p = float(np.sum(w * gammainc(k + 1, c * u))) / SQRT_PI
            coeffs.append(mean_p / c ** (k + 1))
        return coeffs

    def _survival_jet_neg(self, t0, order):
        coeffs = _until_stable(
            lambda n: self._tail_prob_coeffs(t0, order, n), "survival-transform", t0, order
        )
        return Jet(t0, tuple(coeffs))

    def tilted_quantiles(self, rate, qs):
        """In z = (ln u - loc)/scale the tilted density is proportional to g(z) =
        exp(-z^2/2 - rate*exp(loc + scale*z)): log-concave, curvature <= -1, mode
        z* = -W(rate*scale^2*exp(loc))/scale. So g/g(z*) < e^-72 off z* +- 12, where 96
        Gauss-Legendre panels sum it; every level takes Newton steps from the panel
        that holds it, kept in a shrinking bracket by bisection, all levels at once."""
        s, (nodes, weights) = self.scale, leggauss(32)
        mode = -lambertw(rate * s * s * math.exp(self.loc)).real / s
        log_peak = -0.5 * mode * mode - rate * math.exp(self.loc + s * mode)

        def g(z):
            return np.exp(-0.5 * z * z - rate * np.exp(self.loc + s * z) - log_peak)

        def integral(a, b):  # of g over [a, b], elementwise
            half = 0.5 * (b - a)
            return half * (g(a[:, None] + half[:, None] * (nodes + 1.0)) @ weights)

        starts = mode + np.linspace(-12.0, 12.0, 97)
        cum = np.concatenate(([0.0], np.cumsum(integral(starts[:-1], starts[1:]))))
        target = np.asarray(qs) * cum[-1]
        k = np.searchsorted(cum, target, side="right") - 1
        lo, hi = starts[k], starts[k + 1]
        z = lo + (hi - lo) * (target - cum[k]) / (cum[k + 1] - cum[k])
        for _ in range(64):  # enough for bisection alone
            excess = cum[k] + integral(starts[k], z) - target
            lo, hi = np.where(excess < 0, z, lo), np.where(excess > 0, z, hi)
            step = z - excess / g(z)
            z_next = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
            if np.all(np.abs(excess) <= 4e-15 * cum[-1]):
                return np.exp(self.loc + s * z_next)
            z = z_next
        raise ConvergenceError(f"tilted log-normal quantiles did not converge (rate={rate})")

    def label(self):
        return f"lognormal(loc={self.loc:g}, scale={self.scale:g})"


_DIST_BUILDERS = {
    "exponential": (Exponential, ("rate",)),
    "gamma": (Gamma, ("shape", "rate")),
    "deterministic": (Deterministic, ("value",)),
    "lognormal": (LogNormal, ("loc", "scale")),
}

_PARAM_ALIASES = {
    "mu": "rate",
    "alpha": "loc",
    "omega": "scale",
    "sigma": "scale",
    "k": "shape",
    "beta": "rate",
    "d": "value",
}


def parse_distribution(text: str) -> ServiceDistribution:
    """Parse a spec like ``lognormal(loc=-1, scale=1)`` into a distribution.

    Accepts a few conventional aliases for the parameter names (mu, alpha,
    omega, ...).
    """
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise ValueError(
            f"bad distribution spec {text!r}; expected name(param=value, ...)"
        )
    name, _, arglist = text.partition("(")
    name = name.strip().lower()
    if name not in _DIST_BUILDERS:
        raise ValueError(
            f"unknown distribution {name!r}; choices: {sorted(_DIST_BUILDERS)}"
        )
    cls, fields = _DIST_BUILDERS[name]
    kwargs = {}
    body = arglist[:-1].strip()
    if body:
        for piece in body.split(","):
            key, eq, value = piece.partition("=")
            if not eq:
                raise ValueError(f"bad distribution parameter {piece!r}; expected key=value")
            key = key.strip().lower()
            key = _PARAM_ALIASES.get(key, key)
            if key not in fields:
                raise ValueError(f"unknown parameter {key!r} for {name}; expected {fields}")
            if key in kwargs:
                raise ValueError(f"duplicate parameter {key!r} for {name}")
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ValueError(f"non-numeric value {value.strip()!r} for {name}.{key}") from None
    missing = [f for f in fields if f not in kwargs]
    if missing:
        raise ValueError(f"missing parameters {missing} for {name}")
    return cls(**kwargs)
