"""Helpers shared across test modules: a deterministic randomized
configuration grid, and the Bonferroni t quantile of the statistical gates."""

import numpy as np
from scipy import stats as sps

from aoiq import (
    Deterministic,
    Exponential,
    Gamma,
    LogNormal,
    SystemConfig,
)

THETAS = (0.0, 0.28, 0.5, 1.0)
SOURCE_COUNTS = (1, 2, 3, 4)


def _distribution(kind: str, rng) -> object:
    if kind == "exponential":
        return Exponential(rng.uniform(0.5, 2.0))
    if kind == "gamma":
        return Gamma(rng.uniform(0.7, 3.0), rng.uniform(0.5, 2.0))
    if kind == "deterministic":
        return Deterministic(rng.uniform(0.3, 1.5))
    return LogNormal(rng.uniform(-1.0, 0.0), rng.uniform(0.5, 1.0))


def config_grid(seed: int = 0) -> list[SystemConfig]:
    """64 configs covering all source counts, thetas and service variants."""
    rng = np.random.default_rng(seed)
    configs = []
    for n_src in SOURCE_COUNTS:
        for theta in THETAS:
            for kind in ("exponential", "gamma", "deterministic", "lognormal"):
                rates = tuple(rng.uniform(0.5, 3.0, n_src))
                configs.append(SystemConfig(rates, theta, _distribution(kind, rng)))
    return configs


def bonferroni(family_rate: float, claims: int, df: int) -> float:
    """The two-sided t quantile, with ``df`` degrees of freedom, of each of
    ``claims`` simultaneous intervals whose family misses a correct value with
    probability at most ``family_rate``; ``bonferroni(0.05, 1, df)`` is the
    plain 95% one."""
    return float(sps.t.ppf(1 - family_rate / (2 * claims), df))
