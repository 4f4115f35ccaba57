"""The system builder of ``aoiq.analytic`` against the one-source chain.

``analytic_reference`` keeps the chain that built each source's closed
forms one at a time in scalar ``Jet`` arithmetic. Every source of a
system, built at once over coefficient rows, must give the same bits for
every public transform jet, moment and pointwise value, and the same
error type and message where the chain raised.
"""

import logging
import math

import numpy as np
import pytest

import analytic_reference as reference
from aoiq import Deterministic, Exponential, Gamma, LogNormal, SystemConfig
from aoiq import analytic
from aoiq.analytic import GloballyPreemptiveConfig, OutsideConvergenceRegion, Transform
from aoiq.jets import Jet

LAWS = {
    "exponential": Exponential(2.0),
    "gamma": Gamma(2.0, 4.0),
    "deterministic": Deterministic(0.5),
    "lognormal": LogNormal(-1.0, 1.0),
}
JETS = ("system_time_mgf_jet", "interdeparture_mgf_jet", "paoi_mgf_jet", "aoi_mgf_jet")
ORDERS = (2, 5, 8)
S0 = -0.7


def _outcome(fn, *args):
    """What a call gives: its value's repr (bits, signed zeros included), or
    its error's type and message."""
    try:
        value = fn(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    if isinstance(value, Jet):
        return "jet", value.center, repr(value.coeffs)
    return "value", repr(value)


def _terms(cfg, source, s0, order):
    """The package's M_Y and (M_Y - 1)/s of ``source`` at s0, as jets."""
    y, excess = analytic._coefficients(cfg, source, s0, order, analytic._Y, analytic._EXCESS)
    return Jet(float(s0), tuple(y)), Jet(float(s0), tuple(excess))


def _mismatches(cfg, orders=ORDERS, points=(S0, 0.05)):
    """Every (call, package outcome, reference outcome) that differs, over all
    sources of ``cfg``."""
    out = []

    def compare(what, ours, theirs):
        a, b = _outcome(*ours), _outcome(*theirs)
        if a != b:
            out.append((what, a, b))

    for order in orders:
        for c in range(cfg.num_sources):
            for name in JETS:
                compare((name, c, order), (getattr(analytic, name), cfg, c, order),
                        (getattr(reference, name), cfg, c, order))
            compare(("terms at s0", c, order), (_terms, cfg, c, S0, order),
                    (reference.terms, cfg, c, S0, order))
            compare(("moments", c, order), (analytic.moments, cfg, c, order),
                    (reference.moments, cfg, c, order))
            compare(("moments_both_routes", c, order - 1),
                    (analytic.moments_both_routes, cfg, c, order - 1),
                    (reference.moments_both_routes, cfg, c, order - 1))
    for s in points:
        for c in range(cfg.num_sources):
            for which in Transform:
                compare(("mgf_point_eval", c, s, which), (analytic.mgf_point_eval, cfg, c, s, which),
                        (reference.mgf_point_eval, cfg, c, s, which))
    return out


def _systems(law, seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 8, 33):
        rates = tuple(float(r) for r in rng.uniform(0.2, 2.0, n))
        for theta in (0.0, 0.28, 1.0):
            yield SystemConfig(rates, theta, law)
        yield GloballyPreemptiveConfig(rates, law)


@pytest.mark.parametrize("law", LAWS)
def test_bit_for_bit_with_the_one_source_chain(law):
    for cfg in _systems(LAWS[law], seed=len(law)):
        assert _mismatches(cfg) == [], cfg


def test_equal_rates_share_one_shift():
    # every source at one shift: the builder's columns repeat, the chain's jets are shared
    for law in LAWS.values():
        assert _mismatches(SystemConfig((0.75,) * 8, 0.28, law), orders=(2,)) == []


def test_jet_product_is_the_zero_skipping_product():
    rng = np.random.default_rng(11)
    for order in (1, 2, 5, 8):
        for _ in range(200):
            coeffs = rng.uniform(-2.0, 2.0, (2, order + 1))
            # zeros of either sign, and products that underflow to a signed zero
            coeffs[rng.random(coeffs.shape) < 0.3] = 0.0
            coeffs[rng.random(coeffs.shape) < 0.1] = -0.0
            coeffs[rng.random(coeffs.shape) < 0.1] *= 1e-200
            a, b = (Jet.from_coeffs(row) for row in coeffs)
            assert repr((a * b).coeffs) == repr(reference.mul_skipping_zeros(a, b).coeffs)


class TestSourceLocalFailures:
    def test_detour_fails_only_its_source(self):
        cfg = SystemConfig((0.1, 5.0), 0.5, Exponential(2.0))
        for which in (Transform.INTERDEPARTURE, Transform.PAOI, Transform.AOI):
            with pytest.raises(OutsideConvergenceRegion) as info:
                analytic.mgf_point_eval(cfg, 0, 0.5, which)
            assert str(info.value) == "detour denominator nonpositive at s=0.5"
        assert analytic.mgf_point_eval(cfg, 1, 0.5, Transform.INTERDEPARTURE) == 1.4925373134328357
        assert analytic.mgf_point_eval(cfg, 1, 0.5, Transform.AOI) == 1.5608576834139163

    @pytest.mark.parametrize("cfg, points", [
        # s0 at or beyond the total rate, with a law defined there and one that is not
        (SystemConfig((1.0, 2.0), 0.5, Deterministic(1.0)), (3.0, 4.0)),
        (SystemConfig((1.0, 2.0), 0.5, Exponential(5.0)), (3.0, 5.5)),
        # M_U(-theta lambda D) = e^-30, and e^-750, which underflows to 0
        (SystemConfig((30.0, 1.0), 1.0, Deterministic(1.0)), (S0, 0.5)),
        (SystemConfig((750.0, 1.0), 1.0, Deterministic(1.0)), (S0, 0.5)),
        # e^-720 is subnormal; at e^-700, g_c overflows
        (SystemConfig((1.0, 720.0), 1.0, Deterministic(1.0)), (S0, 0.5)),
        (SystemConfig((1.0, 700.0, 2.0), 1.0, Deterministic(1.0)), (S0, 0.5)),
        # a vanishing share of the arrival rate
        (SystemConfig((1e-9, 1.0), 0.5, Gamma(2.0, 4.0)), (S0, 0.5)),
        (SystemConfig((20.0, 1.0), 1.0, Deterministic(1.0)), (S0, 0.5, 20.0)),
        (SystemConfig((0.1, 5.0), 0.5, Exponential(2.0)), (S0, 0.5, 1.9)),
    ], ids=["beyond_total_rate", "beyond_pole", "e-30", "e-750", "e-720", "e-700", "share_1e-9",
            "20_1", "detour"])
    def test_errors_match_the_chain_per_source(self, cfg, points):
        assert _mismatches(cfg, points=points) == []

    def test_a_failing_source_leaves_the_others_computed(self):
        # source 0's detour fails at s = 0.5; source 1's jets there are unaffected
        cfg = SystemConfig((0.1, 5.0), 0.5, Exponential(2.0))
        with pytest.raises(OutsideConvergenceRegion):
            _terms(cfg, 0, 0.5, 2)
        assert [j.coeffs for j in _terms(cfg, 1, 0.5, 2)] == [
            j.coeffs for j in reference.terms(cfg, 1, 0.5, 2)
        ]


def test_one_debug_record_per_built_system(caplog):
    analytic._system_jets.cache_clear()
    cfg = SystemConfig((1.0, 2.0, 2.0), 0.5, Gamma(2.0, 4.0))
    with caplog.at_level(logging.DEBUG, logger="aoiq.analytic"):
        for c in range(cfg.num_sources):
            analytic.moments(cfg, c, 2)
            analytic.aoi_mgf_jet(cfg, c, 4)
    records = [r for r in caplog.records if r.name == "aoiq.analytic"]
    # two systems: order 2 for the moments, order 4 for the jets
    assert [(r.levelno, r.sources, r.shifts, r.order) for r in records] == [
        (logging.DEBUG, 3, 2, 2), (logging.DEBUG, 3, 2, 4)
    ]
    for r in records:
        assert r.service_s >= 0.0 and r.terms_s > 0.0
        # M_c(0) = 1 - h_c(0) and (1 - h_c)(lambda_c - 0) are the divisors at 0
        divisors = [cfg.service.mgf_jet(-rate, 1).coeffs[0] for rate in cfg.preemption_rates]
        divisors += [d * rate for d, rate in zip(divisors, cfg.arrival_rates)]
        assert r.min_divisor == min(divisors)
        assert math.isfinite(r.min_divisor) and "smallest |constant term|" in r.getMessage()
