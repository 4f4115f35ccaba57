from dataclasses import replace

import pytest

import aoiq.validate as validate_mod
from aoiq.config import parse_spec
from aoiq.jets import Jet
from aoiq.sim import Policy, empirical_checks, run
from aoiq.validate import validation_suite

# horizon 40000 gives source 0 (rate 1) about 12,500 delivered system times
# and the run about 40,000 idle-server races: the distribution-fit checks
# need 10,000 of each, so they run instead of being skipped
EXP_SPEC = parse_spec(
    """
    [system]
    arrival_rates = 1, 2
    theta = 0.5
    service = exponential(rate=1.5)

    [simulation]
    horizon = 40000
    seed = 42
    warmup_fraction = 0.05
    """
)


@pytest.fixture(scope="module")
def suite_report():
    return validation_suite(EXP_SPEC, workers=2)


class TestSuite:
    def test_default_suite_passes(self, suite_report):
        failures = [c for c in suite_report.checks if not c.passed]
        assert suite_report.all_passed, failures

    def test_covers_all_check_families(self, suite_report):
        names = {c.name.split(":")[0] for c in suite_report.checks}
        assert names >= {
            "normalization",
            "normalization_aoi",
            "closed_form_vs_graph",
            "moment_routes",
            "sojourn",
            "analytic_vs_sim",
            "peak_mean_gap_identity",
            "distribution_fit",
        }
        fits = [c for c in suite_report.checks if c.name.startswith("distribution_fit")]
        assert any(c.status != "skip" for c in fits), fits

    def test_distribution_fit_is_empirical_checks(self):
        # the suite reports the simulator's checks as they are, under a
        # prefix; at this horizon every source has enough samples to check
        spec = replace(EXP_SPEC, sim=replace(EXP_SPEC.sim, horizon=50_000.0))
        cfg = spec.system
        policy = Policy.probabilistic(cfg.theta)
        want = empirical_checks(run(cfg, policy, spec.sim), cfg, policy).results
        prefix = "distribution_fit:"
        got = [
            replace(c, name=c.name[len(prefix):])
            for c in validate_mod._check_against_simulation(spec, workers=1)
            if c.name.startswith(prefix)
        ]
        assert len(got) == 4 * cfg.num_sources
        assert got == list(want)


class TestMutationSensitivity:
    def test_route_disagreement_fails_the_check(self, monkeypatch):
        # the two moment routes share nothing past the T/Y jets; skew the
        # jet route and every source's moment_routes check must fail
        import aoiq.analytic as analytic_mod

        original = analytic_mod._moments_from_jet

        def skewed(jet, max_order):
            return tuple(v * 1.001 for v in original(jet, max_order))

        monkeypatch.setattr(analytic_mod, "_moments_from_jet", skewed)
        checks = validate_mod._check_moment_routes(EXP_SPEC.system)
        assert [c.name for c in checks] == ["moment_routes:source0", "moment_routes:source1"]
        assert all(c.status == "fail" for c in checks)

    def test_corrupted_closed_form_detected(self, monkeypatch):
        # flip the sign of one Taylor coefficient of the closed-form
        # interdeparture transform: the graph cross-check must fail
        import aoiq.analytic as analytic_mod

        original = analytic_mod.interdeparture_mgf_jet

        def corrupted(cfg, source, order=8):
            jet = original(cfg, source, order)
            coeffs = list(jet.coeffs)
            coeffs[2] = -coeffs[2]
            return Jet.from_coeffs(coeffs, center=jet.center)

        monkeypatch.setattr(validate_mod.analytic, "interdeparture_mgf_jet", corrupted)
        checks = validate_mod._check_graph(EXP_SPEC.system)
        assert any(not c.passed for c in checks)
