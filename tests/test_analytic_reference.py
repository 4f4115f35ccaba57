"""The system builder of ``aoiq.analytic`` against the one-source chain.

``analytic_reference`` keeps the chain that built each source's closed
forms one at a time in scalar ``Jet`` arithmetic. Every source of a
system, built at once over coefficient rows, must give the same bits for
every public transform jet, moment and pointwise value, and raise exactly
where the chain raised: outside the convergence region with the chain's
type and message, and where the chain's jet algebra failed (a singular
or overflowing quotient, a non-finite coefficient) with
``DivisionBySingularJet``.
"""

import logging
import math
from functools import partial

import numpy as np
import pytest

import analytic_reference as reference
from aoiq import Deterministic, Exponential, Gamma, LogNormal, SystemConfig
from aoiq import analytic
from aoiq.analytic import GloballyPreemptiveConfig, OutsideConvergenceRegion, Transform
from aoiq.jets import DivisionBySingularJet, Jet, NonFiniteJet

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


def _agree(ours, theirs):
    """The same outcome, or the package's ``DivisionBySingularJet`` where the
    chain's jet algebra raised."""
    return ours == theirs or (ours[0] is DivisionBySingularJet
                              and theirs[0] in (DivisionBySingularJet, ZeroDivisionError, NonFiniteJet))


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
        if not _agree(a, b):
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


def _vanished_deliveries(cfg, points):
    """The one place the package's outcome departs from the chain's beyond
    ``_agree``: where a source's delivery probability M_U(-r_c) underflows to 0,
    its pointwise values raise ``OutsideConvergenceRegion`` instead of the
    chain's bare float division."""
    out = []
    for s in points:
        for c, rate in enumerate(cfg.preemption_rates):
            if cfg.service.mgf_point(-rate) == 0.0:
                out += [(("mgf_point_eval", c, s, which), (OutsideConvergenceRegion, (
                    f"delivery probability M_U(-r_c) of source {c} underflows to 0")),
                         (ZeroDivisionError, "float division by zero")) for which in Transform]
    return out


# Systems where the closed forms fail for one source or for all, with the
# points at which the pointwise values are compared
SOURCE_LOCAL_FAILURES = {
    # s0 at or beyond the total rate, with a law defined there and one that is not
    "beyond_total_rate": (SystemConfig((1.0, 2.0), 0.5, Deterministic(1.0)), (3.0, 4.0)),
    "beyond_pole": (SystemConfig((1.0, 2.0), 0.5, Exponential(5.0)), (3.0, 5.5)),
    # M_U(-theta lambda D) = e^-30, and e^-750, which underflows to 0
    "e-30": (SystemConfig((30.0, 1.0), 1.0, Deterministic(1.0)), (S0, 0.5)),
    "e-750": (SystemConfig((750.0, 1.0), 1.0, Deterministic(1.0)), (S0, 0.5)),
    # e^-720 is subnormal; at e^-700, g_c overflows
    "e-720": (SystemConfig((1.0, 720.0), 1.0, Deterministic(1.0)), (S0, 0.5)),
    "e-700": (SystemConfig((1.0, 700.0, 2.0), 1.0, Deterministic(1.0)), (S0, 0.5)),
    # a vanishing share of the arrival rate
    "share_1e-9": (SystemConfig((1e-9, 1.0), 0.5, Gamma(2.0, 4.0)), (S0, 0.5)),
    "20_1": (SystemConfig((20.0, 1.0), 1.0, Deterministic(1.0)), (S0, 0.5, 20.0)),
    "detour": (SystemConfig((0.1, 5.0), 0.5, Exponential(2.0)), (S0, 0.5, 1.9)),
}


class TestSourceLocalFailures:
    def test_detour_fails_only_its_source(self):
        cfg = SystemConfig((0.1, 5.0), 0.5, Exponential(2.0))
        for which in (Transform.INTERDEPARTURE, Transform.PAOI, Transform.AOI):
            with pytest.raises(OutsideConvergenceRegion) as info:
                analytic.mgf_point_eval(cfg, 0, 0.5, which)
            assert str(info.value) == "detour denominator nonpositive at s=0.5"
        assert analytic.mgf_point_eval(cfg, 1, 0.5, Transform.INTERDEPARTURE) == 1.4925373134328357
        assert analytic.mgf_point_eval(cfg, 1, 0.5, Transform.AOI) == 1.5608576834139163

    @pytest.mark.parametrize("name", SOURCE_LOCAL_FAILURES)
    def test_errors_match_the_chain_per_source(self, name):
        cfg, points = SOURCE_LOCAL_FAILURES[name]
        assert _mismatches(cfg, points=points) == _vanished_deliveries(cfg, points)

    def test_singular_terms_fail_by_the_rule(self):
        # e^-720 is subnormal: 1 - h_1 is singular, so every source of the system fails
        cfg = SOURCE_LOCAL_FAILURES["e-720"][0]
        for c in range(2):
            for q in range(5):
                with pytest.raises(DivisionBySingularJet) as info:
                    analytic._coefficients(cfg, c, 0.0, 2, q)
                assert str(info.value) == "1 - h_c or g_c of source 1 singular or not finite at s=0.0"
        # lambda_0 = 1e200 puts 5e199 into K_1 and K_2, and M_Y's second coefficient
        # overflows: sources 1 and 2 fail, with their peak-age and AoI jets, not M_T
        cfg = SystemConfig((1e200, 2.0, 3.0), 0.0, Exponential(2.0))
        assert _mismatches(cfg, orders=(2,), points=(S0,)) == []
        for c in range(3):
            failing = (analytic._Y, analytic._EXCESS, analytic._PEAK, analytic._AOI) if c else ()
            for q in range(5):
                outcome = _outcome(analytic._coefficients, cfg, c, 0.0, 2, q)
                assert outcome[0] == (DivisionBySingularJet if q in failing else "value")
                if q in failing:
                    assert outcome[1] == f"M_Y of source {c} singular or not finite at s=0.0"

    def test_a_failing_source_leaves_the_others_computed(self):
        # source 0's detour fails at s = 0.5; source 1's jets there are unaffected
        cfg = SystemConfig((0.1, 5.0), 0.5, Exponential(2.0))
        with pytest.raises(OutsideConvergenceRegion):
            _terms(cfg, 0, 0.5, 2)
        assert [j.coeffs for j in _terms(cfg, 1, 0.5, 2)] == [
            j.coeffs for j in reference.terms(cfg, 1, 0.5, 2)
        ]


# Batches of one law and source count, each with a failing system in the
# middle: (750, 1), theta 1, whose self-loop gain reaches 1 (M_U(-750) = 0);
# a law undefined at a shift (theta 0 puts the exponential's pole inside
# s0 = 2.5); and a system whose total rate is at most s0. A source-local
# failure in a later system must stay with that source.
BATCHES = {
    "deterministic": ([
        SystemConfig((0.5, 1.0), 0.28, Deterministic(1.0)),
        SystemConfig((750.0, 1.0), 1.0, Deterministic(1.0)),
        SystemConfig((0.1, 0.3), 0.5, Deterministic(1.0)),
        GloballyPreemptiveConfig((2.0, 1.0), Deterministic(1.0)),
        SystemConfig((0.5, 1.0), 0.0, Deterministic(1.0)),
    ], (0.5, 0.0, S0)),
    "exponential": ([
        SystemConfig((3.0, 3.0), 1.0, Exponential(2.0)),
        SystemConfig((3.0, 3.0), 0.0, Exponential(2.0)),
        SystemConfig((1.0, 1.0), 0.5, Exponential(2.0)),
        SystemConfig((2.0, 4.0), 0.5, Exponential(2.0)),
        SystemConfig((0.1, 5.0), 0.5, Exponential(2.0)),  # source 0's detour fails at 0.5
    ], (2.5, 0.5, 0.0)),
}


@pytest.mark.parametrize("batch", BATCHES)
def test_a_batch_is_its_systems_built_alone(batch):
    cfgs, points = BATCHES[batch]
    for s0 in points:
        quantities = range(5) if s0 == 0.0 else (analytic._Y, analytic._EXCESS)
        for order in (2, 5):
            built = analytic._solve(cfgs, s0, order)
            for cfg, system in zip(cfgs, built):
                analytic._system_jets.cache_clear()
                read = partial(analytic._coefficients, system=system)
                for c in range(cfg.num_sources):
                    for q in quantities:
                        assert (_outcome(read, cfg, c, s0, order, q)
                                == _outcome(analytic._coefficients, cfg, c, s0, order, q))
    failing = analytic._solve(cfgs, points[0], 2)[1]
    message = {"deterministic": "self-loop gain of source 0 reaches 1 at s=0.5",
               "exponential": "exponential MGF diverges at t=2.5 (rate 2.0)"}[batch]
    for c in range(2):
        with pytest.raises(ValueError) as info:  # both types are ValueErrors
            analytic._coefficients(cfgs[1], c, points[0], 2, analytic._Y, system=failing)
        assert str(info.value) == message


def test_one_debug_record_per_batch(caplog):
    analytic._system_jets.cache_clear()
    cfg = SystemConfig((1.0, 2.0, 2.0), 0.5, Gamma(2.0, 4.0))
    other = SystemConfig((1.0, 2.0, 3.0), 0.5, Gamma(2.0, 4.0))
    with caplog.at_level(logging.DEBUG, logger="aoiq.analytic"):
        for c in range(cfg.num_sources):
            analytic.moments(cfg, c, 2)
            analytic.aoi_mgf_jet(cfg, c, 4)
        list(analytic.solve_moments([cfg, other, cfg], 2))
    records = [r for r in caplog.records if r.name == "aoiq.analytic"]
    # two systems of one: order 2 for the moments, order 4 for the jets; then
    # one batch of three systems with shifts 0.5, 1.0 and 1.5, one call each
    assert [(r.levelno, r.systems, r.sources, r.shifts, r.calls, r.order) for r in records] == [
        (logging.DEBUG, 1, 3, 2, 2, 2), (logging.DEBUG, 1, 3, 2, 2, 4),
        (logging.DEBUG, 3, 3, 3, 3, 2),
    ]
    for r, systems in zip(records, ([cfg], [cfg], [cfg, other])):
        # M_c(0) = 1 - h_c(0) and (1 - h_c)(lambda_c - 0) are the divisors at 0
        divisors = []
        for system in systems:
            delivered = [system.service.mgf_point(-rate) for rate in system.preemption_rates]
            divisors += delivered + [d * rate for d, rate in zip(delivered, system.arrival_rates)]
        assert r.service_s >= 0.0 and r.terms_s > 0.0
        assert r.min_divisor == min(divisors)
        assert math.isfinite(r.min_divisor) and "smallest |constant term|" in r.getMessage()


def test_lognormal_batch_takes_its_shifts_a_chunk_at_a_time(caplog):
    from aoiq.service import _CHUNK_NODES

    law = LogNormal(-1.0, 1.0)
    cfgs = [SystemConfig((rate, 2.25), 0.28, law) for rate in np.linspace(0.5, 7.5, 15)]
    with caplog.at_level(logging.DEBUG, logger="aoiq.analytic"):
        solved = list(analytic.solve_moments(cfgs, 2))
    (record,) = [r for r in caplog.records if r.name == "aoiq.analytic"]
    # 15 distinct shifts for source 0 and one, 0.28 * 2.25, for source 1
    per_call = _CHUNK_NODES // (3 * 512)  # order 2: 3 coefficients of 512 nodes
    assert (record.systems, record.shifts, record.calls) == (15, 16, -(-16 // per_call))
    for cfg, metrics in zip(cfgs, solved):
        assert metrics == [reference.moments(cfg, c, 2) for c in range(2)]
