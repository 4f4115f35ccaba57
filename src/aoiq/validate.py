"""Cross-validation suite tying all derivation routes together.

Runs, for one experiment spec, four check families: the closed-form
interdeparture transform against the graph solver
(``closed_form_vs_graph``), the two moment routes against each other
(``moment_routes``), analytic against simulated mean AoI and peak AoI
(``analytic_vs_sim``), and the simulator's goodness-of-fit checks
(``distribution_fit``). Each check reports pass/fail/skip with its
measured discrepancy. A planted-defect suite in the tests shows which
family catches which slip in the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import analytic, semimarkov
from .analytic import SystemConfig, moments_both_routes
from .config import ExperimentSpec
from .jets import Jet
from .sim import CheckResult, InsufficientSamples, Policy, empirical_checks, run, verdict

__all__ = ["ValidationReport", "validation_suite"]


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


def _check_graph(cfg: SystemConfig) -> list[CheckResult]:
    out = []
    for c in range(cfg.num_sources):
        closed = analytic.interdeparture_mgf_jet(cfg, c)
        graph = semimarkov.build_interdeparture_graph(cfg, c)
        solved = semimarkov.transfer_functions(graph)["delivered"]
        out.append(
            verdict(
                f"closed_form_vs_graph:source{c}",
                _rel_gap(closed, solved, 8),
                1e-9,
                "interdeparture MGF, orders 0..8",
            )
        )
    return out


def _check_moment_routes(cfg: SystemConfig) -> list[CheckResult]:
    out = []
    for c in range(cfg.num_sources):
        _, _, gap = moments_both_routes(cfg, c, 4)
        out.append(verdict(f"moment_routes:source{c}", gap, 1e-8, "orders 1..4"))
    return out


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
    """Run every cross-check for the spec's system configuration."""
    cfg = spec.system
    checks: list[CheckResult] = []
    checks += _check_graph(cfg)
    checks += _check_moment_routes(cfg)
    checks += _check_against_simulation(spec, workers)
    return ValidationReport(tuple(checks))
