import inspect
import logging
import math
import sys
from dataclasses import replace

import pytest

import aoiq.analytic as analytic_mod
import aoiq.validate as validate_mod
from aoiq import Deterministic, Gamma, LogNormal, SystemConfig
from aoiq.analytic import GloballyPreemptiveConfig, Transform
from aoiq.config import parse_spec
from aoiq.jets import Jet
from aoiq.service import ServiceDistribution
from aoiq.sim import Policy, empirical_checks, run
from aoiq.semimarkov import build_interdeparture_graph, transfer_functions
from aoiq.validate import NUMERICAL_ERRORS, validation_suite
from test_analytic_reference import SOURCE_LOCAL_FAILURES

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

FAMILIES = {"closed_form_vs_graph", "moment_routes", "analytic_vs_sim", "distribution_fit"}


@pytest.fixture(scope="module")
def suite_report():
    return validation_suite(EXP_SPEC, workers=2)


class TestSuite:
    def test_default_suite_passes(self, suite_report):
        failures = [c for c in suite_report.checks if not c.passed]
        assert suite_report.all_passed, failures

    def test_covers_all_check_families(self, suite_report):
        names = {c.name.split(":")[0] for c in suite_report.checks}
        assert names == FAMILIES
        fits = [c for c in suite_report.checks if c.name.startswith("distribution_fit")]
        assert any(c.status != "skip" for c in fits), fits

    def test_one_pass_rule(self, suite_report):
        # every check that is not skipped, the system-time fit included,
        # passes exactly when its discrepancy is within its tolerance; the run
        # checked against the wrong theta gives failures of every check kind
        cfg = EXP_SPEC.system
        report = run(cfg, Policy.probabilistic(cfg.theta), EXP_SPEC.sim)
        wrong = empirical_checks(report, cfg, Policy.probabilistic(0.9)).results
        checks = [c for c in suite_report.checks + wrong if c.status != "skip"]
        assert {c.name.split(":")[-1] for c in checks if c.status == "fail"} == {
            "system_time_fit", "delivery_probability", "preemption_rate"}
        assert any(c.name.endswith("system_time_fit") and c.passed for c in checks)
        for c in checks:
            assert (c.status == "pass") == (c.discrepancy <= c.tolerance), c

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


def test_undelivered_source_skips_with_its_reason():
    # M_U(-20) = e^-20: at this horizon neither source has a delivery, so there
    # is no simulated mean to compare; the checks skip instead of comparing NaN
    spec = parse_spec(
        """
        [system]
        arrival_rates = 20, 1
        theta = 1
        service = deterministic(value=1)

        [simulation]
        horizon = 1e4
        seed = 1
        """
    )
    checks = [c for c in validate_mod._check_against_simulation(spec, workers=1)
              if c.name.startswith("analytic_vs_sim")]
    assert [(c.name, c.status) for c in checks] == [
        (f"analytic_vs_sim:{label}:source{c}", "skip") for c in (0, 1) for label in ("aoi", "paoi")
    ]
    assert all("no counted delivery (0 delivered)" in c.detail for c in checks)


def test_graph_check_reports_its_smallest_pivot(caplog):
    # rates (20, 1), theta = 1, unit service: the graph divides by its pivot
    # 1 - loop gain = M_U(-20) ~ 2e-9, formed by a subtraction; the check's
    # detail and the solver's DEBUG record both give it
    cfg = SystemConfig((20.0, 1.0), 1.0, Deterministic(1.0))
    with caplog.at_level(logging.DEBUG, logger="aoiq.semimarkov"):
        checks = validate_mod._check_graph(cfg)
    pivots = [r.min_pivot for r in caplog.records if r.name == "aoiq.semimarkov"]
    assert len(pivots) == len(checks) == 2
    for check, pivot in zip(checks, pivots):
        assert pivot == pytest.approx(2.061e-9, rel=1e-3)
        assert check.detail.endswith(f"smallest pivot {pivot:.3g}")


# Systems out of the numerics' reach: the closed forms' own failures, a law
# whose jets overflow, and theta = 1e-120, where the survival jets' divisor
# (theta lambda_c)^3 underflows although the theta -> 0 limit is finite
TYPED_FAILURES = {
    **{name: cfg for name, (cfg, _) in SOURCE_LOCAL_FAILURES.items()},
    "deterministic_1e300": SystemConfig((2.0, 6.0), 0.0, Deterministic(1e300)),
    **{f"theta_1e-120_{name}": SystemConfig((2.0, 6.0), 1e-120, law) for name, law in (
        ("deterministic", Deterministic(1.0)), ("gamma", Gamma(2.0, 4.0)),
        ("lognormal", LogNormal(-1.0, 1.0)))},
}


@pytest.mark.parametrize("name", TYPED_FAILURES)
def test_every_numerical_failure_is_typed(name):
    # each call returns finite numbers or raises one of NUMERICAL_ERRORS, which
    # the CLI reports with exit code 3; a numpy RuntimeWarning is an error here
    cfg = TYPED_FAILURES[name]

    def numbers(value):
        if isinstance(value, Jet):
            return value.coeffs
        if isinstance(value, dict):  # the graph's transfer functions
            return [x for jet in value.values() for x in jet.coeffs] + [value.min_pivot]
        if isinstance(value, float):
            return [value]
        return value.aoi_moments + value.paoi_moments + (value.mean_system_time,
                                                          value.mean_interdeparture)

    for c in range(cfg.num_sources):
        calls = [(analytic_mod.moments, cfg, c), (analytic_mod.aoi_mgf_jet, cfg, c, 8),
                 (lambda *args: transfer_functions(build_interdeparture_graph(*args)), cfg, c)]
        calls += [(analytic_mod.mgf_point_eval, cfg, c, s, which)
                  for s in (-0.7, 0.05) for which in Transform]
        for fn, *args in calls:
            try:
                value = fn(*args)
            except NUMERICAL_ERRORS:
                continue
            assert all(map(math.isfinite, numbers(value))), (fn, args)


# Planted defects. Each slips a sign or a factor into the closed forms, or
# into a service-law jet they read, as a transcription error would. Every
# one must fail at least one of the suite's four families, on every system;
# the table below records which. It is the power study that retired the
# analytic-only families (jet normalization at s = 0, the sojourn-kit
# identities, the peak-minus-mean AoI identity): each defect they caught,
# a retained family catches too.


def _spec(rates, theta, service, horizon):
    return parse_spec(
        f"""
        [system]
        arrival_rates = {rates}
        theta = {theta}
        service = {service}

        [simulation]
        horizon = {horizon}
        seed = 42
        warmup_fraction = 0.05
        """
    )


# the paper's system, the suite's default one and three gamma sources; each
# horizon gives every source the 10,000 samples the distribution fit needs
SYSTEMS = {
    "paper": _spec("2, 6", 0.28, "lognormal(loc=-1, scale=1)", 40000),
    "exp": EXP_SPEC,
    "gamma": _spec("1, 2, 3", 0.7, "gamma(shape=2, rate=4)", 50000),
}


def _rewrite(function, old, new):
    """Plant: ``function``, a module-level function whose source holds ``old``
    exactly once, with ``old`` rewritten to ``new``."""

    def plant(monkeypatch, cfg):
        module = sys.modules[function.__module__]
        source = inspect.getsource(function)
        assert source.count(old) == 1, (function.__name__, old)
        namespace = {}
        exec(compile(source.replace(old, new), module.__file__, "exec"), vars(module), namespace)
        monkeypatch.setattr(module, function.__name__, namespace[function.__name__])

    return plant


def _scale_coefficient(owner, name, k, factor):
    """Plant: coefficient ``k`` of every jet that ``owner.name`` returns times
    ``factor``; an owner of None stands for the class of the system's law. A
    planted law method reaches the closed forms too: the law's ``jet_pairs``
    reads it, one shift at a time, as the laws without a batched rule do."""

    def plant(monkeypatch, cfg):
        target = type(cfg.service) if owner is None else owner
        original = getattr(target, name)
        if owner is not analytic_mod:
            monkeypatch.setattr(type(cfg.service), "jet_pairs", ServiceDistribution.jet_pairs)

        def planted(*args, **kwargs):
            jet = original(*args, **kwargs)
            coeffs = list(jet.coeffs)
            if k < len(coeffs):
                coeffs[k] *= factor
            return Jet.from_coeffs(coeffs, center=jet.center)

        monkeypatch.setattr(target, name, planted)

    return plant


def _global_rate_times_1_01(monkeypatch, cfg):
    rates = property(lambda self: (self.total_rate * 1.01,) * self.num_sources)
    monkeypatch.setattr(GloballyPreemptiveConfig, "preemption_rates", rates)


def _skew_jet_route(monkeypatch, cfg):
    original = analytic_mod._derivatives

    def skewed(coeffs, max_order):
        return tuple(v * 1.001 for v in original(coeffs, max_order))

    monkeypatch.setattr(analytic_mod, "_derivatives", skewed)


GRAPH, ROUTES, SIM = "closed_form_vs_graph", "moment_routes", "analytic_vs_sim"

# name: (plant, the families it fails on every system). A family that fails
# on some systems only is left out: the M_Y slip moves the mean by 1%, inside
# the simulation's 2% band, yet fails it on the paper system.
DEFECTS = {
    "K_c_prefix_minus_suffix": (
        _rewrite(analytic_mod._build, "(prefix + suffix", "(prefix - suffix"),
        {GRAPH, SIM},
    ),
    "H_c_times_1.01": (
        _rewrite(analytic_mod._build, "for rate in cfg.arrival_rates])",
                 "for rate in cfg.arrival_rates]); survival = survival * 1.01"),
        {GRAPH},
    ),
    "AoI_numerator_times_1.01": (
        _rewrite(analytic_mod._build, "numerator = scaled + k", "numerator = scaled * 1.01 + k"),
        {ROUTES},
    ),
    # moves the mean AoI by 5e-5 of itself, far inside the simulation's band
    "AoI_numerator_times_1.0001": (
        _rewrite(analytic_mod._build, "numerator = scaled + k",
                 "numerator = scaled * 1.0001 + k"),
        {ROUTES},
    ),
    "M_T_squared": (
        _rewrite(analytic_mod._build, "t = service * (1.0 / service[0])",
                 "t = service * (1.0 / service[0]); t = np.array(mul_rows(t, t))"),
        {SIM},
    ),
    "M_Y_numerator_times_1.01": (
        _rewrite(analytic_mod._build, "scaled_service = service * rates",
                 "scaled_service = service * rates * 1.01"),
        {GRAPH, ROUTES},
    ),
    "1-h_c=M_c+s*H_c": (
        _rewrite(analytic_mod._build, "service - s_survival", "service + s_survival"),
        {GRAPH, ROUTES, SIM},
    ),
    "AoI_over_E[Y]_times_1.01": (
        _rewrite(analytic_mod._build, "(1.0 / y[1])", "(1.01 / y[1])"),
        {ROUTES},
    ),
    "PAoI=T*Y*Y": (
        _rewrite(analytic_mod._build, "aoi = t_excess * (1.0 / y[1])",
                 "aoi = t_excess * (1.0 / y[1]); peak = np.array(mul_rows(peak, y))"),
        {ROUTES, SIM},
    ),
    "mgf_jet_coefficient_2_times_1.001": (_scale_coefficient(None, "mgf_jet", 2, 1.001), {GRAPH}),
    "survival_coefficient_0_times_1.001": (
        _scale_coefficient(ServiceDistribution, "survival_mgf_jet", 0, 1.001), {GRAPH}
    ),
    "survival_coefficient_1_times_1.001": (
        _scale_coefficient(ServiceDistribution, "survival_mgf_jet", 1, 1.001), {GRAPH}
    ),
    "jet_moment_route_times_1.001": (_skew_jet_route, {ROUTES}),
    "interdeparture_coefficient_2_sign": (
        _scale_coefficient(analytic_mod, "interdeparture_mgf_jet", 2, -1.0),
        {GRAPH},
    ),
    # the global closed form's reduction slips; the global graph, which
    # reads who preempts whom, catches it
    "global_r_c=Lambda*1.01": (_global_rate_times_1_01, {GRAPH}),
}

# the systems a defect is caught on, where not all three: under exponential
# service no source's interdeparture transform depends on r_c, so no graph
# sees the global slip there, though the global AoI moments move
ONLY_ON = {"global_r_c=Lambda*1.01": ("paper", "gamma")}
CAUGHT = [(d, s) for s in SYSTEMS for d in DEFECTS if s in ONLY_ON.get(d, SYSTEMS)]


@pytest.fixture(scope="module")
def simulations():
    """Each system's run, made once: no planted defect reaches the simulator."""
    return {
        name: run(spec.system, Policy.probabilistic(spec.system.theta), spec.sim)
        for name, spec in SYSTEMS.items()
    }


def _suite(monkeypatch, simulations, system):
    monkeypatch.setattr(validate_mod, "run", lambda *args, **kwargs: simulations[system])
    return validation_suite(SYSTEMS[system])


# the systems the suite checks, by the infix of their checks' names: the
# spec's own, and global preemption on its rates and law; and the families
# that run on each
KINDS = {"": FAMILIES, "globally_preemptive:": {GRAPH, ROUTES}}


def _outputs(cfg, c):
    """Source c's transform jets and moments, as the package gives them, for
    each system of KINDS in turn."""
    out = []
    for system in (cfg, Policy.globally_preemptive().system(cfg)):
        jets = [getattr(analytic_mod, f"{transform}_mgf_jet")(system, c, 4).coeffs
                for transform in ("system_time", "interdeparture", "paoi", "aoi")]
        metrics = analytic_mod.moments(system, c, 4)
        out.append((jets, metrics.aoi_moments + metrics.paoi_moments))
    return out


class TestPlantedDefects:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_unmodified_code_passes(self, monkeypatch, simulations, system):
        report = _suite(monkeypatch, simulations, system)
        assert {c.name.split(":")[0] for c in report.checks} == FAMILIES
        assert [c for c in report.checks if c.status != "pass"] == []

    @pytest.mark.parametrize("defect, system", CAUGHT, ids=[f"{d}-{s}" for d, s in CAUGHT])
    def test_caught(self, monkeypatch, simulations, defect, system):
        # on each system of KINDS, every source whose transforms or moments
        # the defect changes fails each of the defect's families run there
        plant, families = DEFECTS[defect]
        cfg = SYSTEMS[system].system
        sources = range(cfg.num_sources)
        clean = [_outputs(cfg, c) for c in sources]
        try:
            with monkeypatch.context() as planted:
                analytic_mod._system_jets.cache_clear()
                plant(planted, cfg)
                changed = [(kind, c) for c in sources
                           for kind, out, was in zip(KINDS, _outputs(cfg, c), clean[c]) if out != was]
                report = _suite(planted, simulations, system)
        finally:
            # the cache may hold jets built from a planted service law
            analytic_mod._system_jets.cache_clear()
        assert changed
        failed = set()  # (family, kind, source) of each failing check
        for check in report.checks:
            if not check.passed:
                family, *middle, source = check.name.split(":")
                kind = "globally_preemptive:" if "globally_preemptive" in middle else ""
                failed.add((family, kind, source))
        missed = [(f, kind, c) for f in sorted(families) for kind, c in changed
                  if f in KINDS[kind] and (f, kind, f"source{c}") not in failed]
        assert missed == [], failed
