"""Service-time distributions.

Each distribution supplies sampling and truncated Taylor expansions of
its moment generating function M(t) = E[exp(t*U)] at non-positive
arguments. The expansion coefficients E[U^k exp(t0*U)] / k! are the
single analytic primitive every AoI formula consumes; coefficient k never
depends on the order requested.

Exponential, gamma and deterministic laws use closed-form derivative
formulas. The log-normal law has no closed-form MGF. In z = (ln u -
loc)/scale each of its integrals is log-concave with its mode at a
Lambert-W point (Asmussen, Jensen and Rojas-Nandayapa, Methodol. Comput.
Appl. Probab. 18, 2016), so one fixed Gauss-Legendre panel rule over a
window fitted to that mode computes every coefficient, within 1e-14
relative of 40-digit quadrature.

``jet_pairs`` gives the (M, H) coefficients at many shifts, as a batch of
systems reads them; the log-normal rules take a vector of shifts, a fixed
number of nodes per numpy call, with the bits of each shift alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from ._special import (
    ConvergenceError, beta_orders, erfcx, gamma_p_orders, log_factorials, wright_omega,
)
from .jets import DEFAULT_ORDER, Jet

__all__ = [
    "ServiceDistribution",
    "Exponential",
    "Gamma",
    "Deterministic",
    "LogNormal",
    "MgfDomainError",
    "ConvergenceError",
    "substream",
    "parse_distribution",
]

SQRT2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)

# The log-normal integrals run over a window reaching 12 curvature scales
# from the mode of a log-concave integrand, where it has fallen below e^-72,
# split into 32 equal panels of 16 Gauss-Legendre nodes.
_REACH = 12.0
_PANELS = 32
_NODES = 16
# Nodes per call of those rules in ``jet_pairs`` (8 shifts at order 2): such
# (shifts, order + 1, 512) arrays spread numpy's per-call cost; larger ones cost more.
_CHUNK_NODES = 12288

# Keep-away margin from the MGF pole of exponential/gamma laws, relative
# to the rate: jet coefficients blow up as the pole is approached.
_POLE_MARGIN = 1e-9

# The survival transform at a positive argument t0 is formed as
# (M(t) - 1)/t, which cancels about -log10(t0) digits; closer to 0 it is
# refused.
_SURVIVAL_GAP = 1e-9


class MgfDomainError(ValueError):
    """MGF requested outside the distribution's convergence region."""


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible random substream for a (seed, key) pair.

    Every (replication, source, purpose) triple in the simulator gets its
    own substream so that policy logic never perturbs unrelated draws.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@lru_cache(maxsize=None)
def _unit_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    from numpy.polynomial.legendre import leggauss  # loaded by the first log-normal rule

    x, w = leggauss(_NODES)
    nodes = (np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels
    return nodes.ravel(), np.tile(w, panels) / (2 * panels)


def _gauss_legendre(lo, hi, panels: int = _PANELS) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``panels`` equal 16-node Gauss-Legendre panels over
    [lo, hi]; the nodes run along a trailing axis, against which lo and hi broadcast."""
    x, w = _unit_rule(panels)
    return lo + (hi - lo) * x, (hi - lo) * w


class ServiceDistribution:
    """Common interface; concrete laws are the frozen dataclasses below."""

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def mgf_point(self, t: float) -> float:
        """E[exp(t*U)]; exactly 1 at t = 0."""
        return 1.0 if t == 0.0 else self.mgf_jet(t, 0).coeffs[0]

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

    def jet_pairs(self, shifts, order: int):
        """The coefficients (M, H) of ``mgf_jet`` and ``survival_mgf_jet`` at each
        shift, raising as they do: one dict shift -> (M, H) per call of the law's rule."""
        for t in shifts:
            yield {t: (self.mgf_jet(t, order).coeffs, self.survival_mgf_jet(t, order).coeffs)}


@dataclass(frozen=True)
class Exponential(ServiceDistribution):
    rate: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError(f"exponential rate must be positive finite, got {self.rate}")

    def sample_n(self, rng, n):
        return rng.exponential(1.0 / self.rate, n)

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


@dataclass(frozen=True)
class Gamma(ServiceDistribution):
    shape: float
    rate: float

    def __post_init__(self):
        if not (0 < self.shape < math.inf and 0 < self.rate < math.inf):
            raise ValueError(f"gamma shape/rate must be positive finite, got {self}")

    def sample_n(self, rng, n):
        return rng.gamma(self.shape, 1.0 / self.rate, n)

    def _check_domain(self, t):
        if t + _POLE_MARGIN * self.rate >= self.rate:
            raise MgfDomainError(f"gamma MGF diverges at t={t} (rate {self.rate})")

    def mgf_jet(self, t0, order=DEFAULT_ORDER):
        self._check_domain(t0)
        # M(t) = (r/(r-t))^k = exp(-k log1p(-t/r)), whose rounding k does not multiply;
        # the normalized coefficients follow c_j = c_{j-1} * (k+j-1) / (j*(r-t0)).
        gap = self.rate - t0
        coeffs = [math.exp(-self.shape * math.log1p(-t0 / self.rate))]
        for j in range(1, order + 1):
            coeffs.append(coeffs[-1] * (self.shape + j - 1.0) / (j * gap))
        return Jet(t0, tuple(coeffs))

    def _survival_jet_neg(self, t0, order):
        # E[P(k+1, c*U)] for gamma U is a beta tail probability: with
        # G1 ~ Gamma(k+1), G2 ~ Gamma(shape) independent, the event
        # G1 <= (c/rate) G2 has probability I_x(k+1, shape), x = c/(c+rate).
        c = -t0
        x = c / (c + self.rate)
        coeffs = beta_orders(order + 1, self.shape, x) / c ** np.arange(1.0, order + 2.0)
        return Jet(t0, tuple(coeffs.tolist()))


@dataclass(frozen=True)
class Deterministic(ServiceDistribution):
    value: float

    def __post_init__(self):
        if not 0 < self.value < math.inf:
            raise ValueError(f"deterministic duration must be positive finite, got {self.value}")

    def sample_n(self, rng, n):
        return np.full(n, self.value)

    def mgf_jet(self, t0, order=DEFAULT_ORDER):
        # M(t) = exp(t*d): coefficients exp(t0*d) * d^k / k!.
        base = math.exp(t0 * self.value)
        coeffs = [base]
        for k in range(1, order + 1):
            coeffs.append(coeffs[-1] * self.value / k)
        return Jet(t0, tuple(coeffs))

    def _survival_jet_neg(self, t0, order):
        c = -t0
        coeffs = gamma_p_orders(order + 1, c * self.value) / c ** np.arange(1.0, order + 2.0)
        return Jet(t0, tuple(coeffs.tolist()))


@dataclass(frozen=True)
class LogNormal(ServiceDistribution):
    loc: float
    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.loc) and 0 < self.scale < math.inf):
            raise ValueError(f"log-normal loc must be finite, scale positive finite, got {self}")

    def sample_n(self, rng, n):
        return rng.lognormal(self.loc, self.scale, n)

    def _check_domain(self, t):
        if t > 0:
            raise MgfDomainError(f"log-normal MGF diverges for t > 0 (got t={t})")

    def _laplace(self, t0, k):
        """The log of the integrand exp(-z^2/2 + k(loc + scale z) + t0 e^(loc + scale z))
        of sqrt(2 pi) E[U^k exp(t0 U)] in z = (ln u - loc)/scale; its mode; and the w
        with curvature -(1 + w) at the mode. The curvature is at most -1 everywhere and
        at most -(1 + w) right of the mode, where it falls by 72 within 12/sqrt(1 + w)."""
        s = self.scale
        with np.errstate(divide="ignore"):  # t0 = 0: w = W(0) = 0
            # W(-t0 s^2 e^(loc + k s^2))
            w = wright_omega(np.log(-t0 * s * s) + self.loc + k * s * s)

        def log_weight(z):
            u = self.loc + s * z  # ln of the service time
            return -0.5 * z * z + k * u + t0 * np.exp(u)

        return log_weight, k * s - w / s, w

    def _mgf_rows(self, t0: np.ndarray, order: int) -> np.ndarray:
        """E[U^k exp(t0*U)] / k! for k = 0..order (columns) at each shift of t0 (rows),
        each over its own window [mode - 12, mode + 12/sqrt(1 + w)] by the panel rule,
        all at once. The integrand is scaled by its peak, so no node overflows or
        underflows while the coefficient is representable."""
        log_weight, mode, w = self._laplace(t0[:, None, None], np.arange(order + 1.0)[:, None])
        log_peak = log_weight(mode)
        z, weights = _gauss_legendre(mode - _REACH, mode + _REACH / np.sqrt(1.0 + w))
        mass = np.sum(np.exp(log_weight(z) - log_peak) * weights, axis=-1)
        return mass * np.exp(log_peak[..., 0] - log_factorials(order + 1)) / SQRT_2PI

    def _survival_rows(self, t0: np.ndarray, order: int) -> np.ndarray:
        """E[P(k+1, cU)] / c^(k+1) with c = -t0 > 0, laid out as ``_mgf_rows``, integrated
        by parts into (scale/k!) times the integral over z of exp((k+1)(loc + scale z) +
        t0 e^(loc + scale z)) against the normal tail Q(z). Below z = -12, Q = 1 to within
        1e-33 and that part is P(k+1, c e^(loc - 12 scale)) / c^(k+1) in closed form. Above
        it the integrand is the MGF's at k+1 times Q(z) e^(z^2/2) = erfcx(z/sqrt 2)/2, which
        only falls, so the window ends where the MGF's does."""
        c = -t0
        k = np.arange(order + 1.0)
        log_weight, mode, w = self._laplace(t0[:, None, None], k[:, None] + 1.0)
        log_peak = log_weight(mode)
        z, weights = _gauss_legendre(-_REACH, np.maximum(mode + _REACH / np.sqrt(1.0 + w), -_REACH))
        mass = np.sum(np.exp(log_weight(z) - log_peak) * erfcx(z / SQRT2) * weights, axis=-1)
        head = np.array([gamma_p_orders(order + 1, x)
                         for x in (c * math.exp(self.loc - _REACH * self.scale)).tolist()])
        head /= c[:, None] ** (k + 1.0)
        return head + 0.5 * self.scale * mass * np.exp(log_peak[..., 0] - log_factorials(order + 1))

    def mgf_jet(self, t0, order=DEFAULT_ORDER):
        self._check_domain(t0)
        return Jet(t0, tuple(self._mgf_rows(np.array([t0]), order)[0].tolist()))

    def _survival_jet_neg(self, t0, order):
        return Jet(t0, tuple(self._survival_rows(np.array([t0]), order)[0].tolist()))

    def jet_pairs(self, shifts, order):
        """Negative shifts through the panel rules, ``_CHUNK_NODES`` nodes a call, checked as Jets."""
        negative = np.array([t for t in shifts if t < 0.0])
        step = max(1, _CHUNK_NODES // ((order + 1) * _PANELS * _NODES))
        for i in range(0, len(negative), step):
            t0 = negative[i:i + step]
            yield {t: (Jet(t, tuple(m)).coeffs, Jet(t, tuple(h)).coeffs) for t, m, h in zip(
                t0.tolist(), self._mgf_rows(t0, order).tolist(), self._survival_rows(t0, order).tolist())}
        yield from super().jet_pairs([t for t in shifts if not t < 0.0], order)


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
