"""Cross-validation suite tying all derivation routes together.

Runs, for one experiment spec: jet normalization at s = 0, closed form
against the graph solver, the two moment routes against each other, the
sojourn-kit algebraic identities, analytic-vs-simulated means, and the
distributional goodness-of-fit checks. Each check reports pass/fail/skip
with its measured discrepancy.
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


def _check_normalization(cfg: SystemConfig) -> list[CheckResult]:
    out = []
    for c in range(cfg.num_sources):
        t_jet = analytic.system_time_mgf_jet(cfg, c)
        y_jet = analytic.interdeparture_mgf_jet(cfg, c)
        p_jet = analytic.paoi_mgf_jet(cfg, c)
        a_jet = analytic.aoi_mgf_jet(cfg, c)
        gap = max(abs(j.coeffs[0] - 1.0) for j in (t_jet, y_jet, p_jet))
        out.append(verdict(f"normalization:source{c}", gap, 1e-10))
        out.append(
            verdict(f"normalization_aoi:source{c}", abs(a_jet.coeffs[0] - 1.0), 1e-8)
        )
    return out


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


def _check_sojourn(cfg: SystemConfig) -> list[CheckResult]:
    kit = semimarkov.sojourn_kit(cfg)
    gap = abs(sum(kit.race) - 1.0)
    for d, p in zip(kit.delivery, kit.preempt):
        gap = max(gap, abs(d + p - 1.0))
    out = [verdict("sojourn:probabilities", gap, 1e-12)]
    gain_gap = 0.0
    for c in range(cfg.num_sources):
        order = kit.delivered_mgf[c].order
        _, services, survivals, *_ = analytic._system_terms(cfg, 0.0, order)
        service = services[c]
        loop = survivals[c] * (cfg.theta * cfg.arrival_rates[c])
        exit_via_kit = kit.delivered_mgf[c] * kit.delivery[c]
        loop_via_kit = kit.preempted_mgf[c] * kit.preempt[c]
        gain_gap = max(
            gain_gap, _rel_gap(exit_via_kit, service, order), _rel_gap(loop_via_kit, loop, order)
        )
    out.append(
        verdict(
            "sojourn:gain_identities",
            gain_gap,
            1e-12,
            "sojourn MGFs times their probabilities reproduce M_c and r_c * H_c",
        )
    )
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
            ("paoi", s.paoi_mean, m.mean_paoi, s.paoi_ci_halfwidth),
        ):
            band = max(0.02 * ana_val, hw if not math.isnan(hw) else 0.0)
            out.append(
                verdict(
                    f"analytic_vs_sim:{label}:source{c}",
                    abs(sim_val - ana_val),
                    band,
                    f"simulated {sim_val:.6g} vs analytic {ana_val:.6g}",
                )
            )
    for c, m in enumerate(per_source):
        y = analytic.interdeparture_mgf_jet(cfg, c, 4)
        ey, ey2 = y.derivative_value(1), y.derivative_value(2)
        want = (2.0 * ey * ey - ey2) / (2.0 * ey)
        got = m.mean_paoi - m.mean_aoi
        out.append(
            verdict(
                f"peak_mean_gap_identity:source{c}",
                abs(got - want) / max(1.0, abs(want)),
                1e-8,
                "peak-minus-mean AoI equals (mean(Y)^2 - Var(Y)) / (2 mean(Y))",
            )
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
    checks += _check_normalization(cfg)
    checks += _check_graph(cfg)
    checks += _check_moment_routes(cfg)
    checks += _check_sojourn(cfg)
    checks += _check_against_simulation(spec, workers)
    return ValidationReport(tuple(checks))
