"""Cross-validation suite tying all derivation routes together.

Runs, for one experiment spec, four check families: the closed-form
interdeparture transform against the graph solver
(``closed_form_vs_graph``, whose detail gives the solve's smallest
|pivot|), the two moment routes against each other (``moment_routes``),
analytic against simulated mean AoI and peak AoI (``analytic_vs_sim``),
and the simulator's goodness-of-fit checks (``distribution_fit``). The
first two also run under global preemption, named
``<family>:globally_preemptive:source<c>``; they are deterministic, and
the graph reads that policy off the model, not off the closed form's
preemption rates; where the numerics cannot reach that system, its checks
fail with the error. Each check reports pass/fail/skip with its measured
discrepancy. A planted-defect suite in the tests shows which family
catches which slip in the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import analytic, semimarkov
from .analytic import OutsideConvergenceRegion, SystemConfig, moments_both_routes
from .config import ExperimentSpec
from .jets import DivisionBySingularJet, Jet, NonFiniteJet
from .semimarkov import SingularSystem
from .service import ConvergenceError, MgfDomainError
from .sim import CheckResult, InsufficientSamples, Policy, empirical_checks, run, verdict

__all__ = ["NUMERICAL_ERRORS", "ValidationReport", "validation_suite"]

# what the numerics raise where a system is out of their reach
NUMERICAL_ERRORS = (
    ConvergenceError,
    MgfDomainError,
    DivisionBySingularJet,
    NonFiniteJet,
    SingularSystem,
    OutsideConvergenceRegion,
)


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _rel_gap(a: Jet, b: Jet, orders: int) -> float:
    gap = 0.0
    for x, y in zip(a.coeffs[: orders + 1], b.coeffs[: orders + 1]):
        gap = max(gap, abs(x - y) / max(abs(x), abs(y), 1.0))
    return gap


def _per_source(family: str, gap, tolerance: float, cfg: SystemConfig, policy: str,
                errors: tuple) -> list[CheckResult]:
    """A check per source, named ``<family>:<policy>source<c>``, of ``gap(c)``,
    a (discrepancy, detail) pair; an error of the ``errors`` types fails it."""
    out = []
    for c in range(cfg.num_sources):
        name = f"{family}:{policy}source{c}"
        try:
            discrepancy, detail = gap(c)
        except errors as exc:
            out.append(CheckResult(name, "fail", math.nan, tolerance, f"{type(exc).__name__}: {exc}"))
            continue
        out.append(verdict(name, discrepancy, tolerance, detail))
    return out


def _check_graph(cfg: SystemConfig, policy: str = "", errors: tuple = ()) -> list[CheckResult]:
    def gap(c):
        closed = analytic.interdeparture_mgf_jet(cfg, c)
        solved = semimarkov.transfer_functions(semimarkov.build_interdeparture_graph(cfg, c))
        return _rel_gap(closed, solved["delivered"], 8), (
            f"interdeparture MGF, orders 0..8, smallest pivot {solved.min_pivot:.3g}")

    return _per_source("closed_form_vs_graph", gap, 1e-9, cfg, policy, errors)


def _check_moment_routes(cfg: SystemConfig, policy: str = "", errors: tuple = ()) -> list[CheckResult]:
    gap = lambda c: (moments_both_routes(cfg, c, 4)[2], "orders 1..4")
    return _per_source("moment_routes", gap, 1e-8, cfg, policy, errors)


def _check_against_simulation(spec: ExperimentSpec, workers: int) -> list[CheckResult]:
    cfg = spec.system
    policy = Policy.probabilistic(cfg.theta)
    report = run(cfg, policy, spec.sim, workers=workers)
    per_source = [analytic.moments(cfg, c, 2) for c in range(cfg.num_sources)]
    out = []
    for c, m in enumerate(per_source):
        s = report.per_source[c]
        for label, sim_val, ana_val, hw in (
            ("aoi", s.time_avg_aoi, m.mean_aoi, s.aoi_ci_halfwidth),
            ("paoi", s.paoi_moments[0], m.mean_paoi, s.paoi_ci_halfwidth),
        ):
            name = f"analytic_vs_sim:{label}:source{c}"
            if math.isnan(sim_val):  # no delivery counted: nothing to compare
                out.append(CheckResult(name, "skip", math.nan, math.nan, (
                    f"source {c} has no counted delivery ({s.delivered} delivered), "
                    f"so no simulated {label}; analytic {ana_val:.6g}")))
                continue
            band = max(0.02 * ana_val, hw if not math.isnan(hw) else 0.0)
            out.append(
                verdict(name, abs(sim_val - ana_val), band,
                        f"simulated {sim_val:.6g} vs analytic {ana_val:.6g}")
            )
    try:
        summary = empirical_checks(report, cfg, policy)
    except InsufficientSamples as exc:
        return out + [CheckResult("distribution_fit", "skip", math.nan, math.nan, str(exc))]
    return out + [replace(r, name=f"distribution_fit:{r.name}") for r in summary.results]


def validation_suite(spec: ExperimentSpec, workers: int = 1) -> ValidationReport:
    """Run every cross-check for the spec's system configuration, and the
    deterministic ones for global preemption on its rates and law too. That
    system is not the spec's, so where the numerics cannot reach it, its
    checks fail with the error rather than the spec's checks being lost."""
    cfg = spec.system
    everyone = Policy.globally_preemptive().system(cfg)
    name = "globally_preemptive:"
    checks = _check_graph(cfg) + _check_graph(everyone, name, NUMERICAL_ERRORS)
    checks += _check_moment_routes(cfg) + _check_moment_routes(everyone, name, NUMERICAL_ERRORS)
    checks += _check_against_simulation(spec, workers)
    return ValidationReport(tuple(checks))
