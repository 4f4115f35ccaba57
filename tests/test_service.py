import math

import numpy as np
import pytest

from aoiq.service import (
    Deterministic,
    Exponential,
    Gamma,
    LogNormal,
    MgfDomainError,
    _CHUNK_NODES,
    parse_distribution,
    substream,
)

# each must be refused when the law is built: past that point it would give
# NaN moments, empty CSV cells or a misleading domain error
NON_FINITE_SPECS = [
    "lognormal(loc=inf, scale=1)",
    "lognormal(loc=nan, scale=1)",
    "lognormal(loc=-1, scale=inf)",
    "gamma(shape=inf, rate=1)",
    "deterministic(value=inf)",
    "exponential(rate=inf)",
]

ALL_VARIANTS = [
    Exponential(1.0),
    Exponential(2.5),
    Gamma(2.0, 3.0),
    Gamma(0.7, 1.2),
    Deterministic(1.5),
    LogNormal(-1.0, 1.0),
    LogNormal(0.3, 0.6),
]


class TestSampling:
    def test_deterministic_always_same(self):
        rng = substream(0, 1)
        d = Deterministic(1.5)
        assert [d.sample_n(rng, 1)[0] for _ in range(5)] == [1.5] * 5

    def test_same_seed_same_draw(self):
        for dist in ALL_VARIANTS:
            a = dist.sample_n(substream(42, 3), 1)[0]
            b = dist.sample_n(substream(42, 3), 1)[0]
            assert a == b
            assert a > 0

    def test_exponential_mean_lln(self):
        # CLT band: sd = 1/rate, n = 1e6 -> 4 sigma ~ 0.002
        rng = substream(7, 0)
        draws = Exponential(2.0).sample_n(rng, 1_000_000)
        assert np.mean(draws) == pytest.approx(0.5, abs=0.002)

    def test_lognormal_mean_lln(self):
        # closed-form mean exp(loc + scale^2/2) as the Monte Carlo oracle
        rng = substream(8, 0)
        draws = LogNormal(-1.0, 1.0).sample_n(rng, 1_000_000)
        want = math.exp(-0.5)
        assert np.mean(draws) == pytest.approx(want, abs=0.005)

    def test_substreams_differ(self):
        assert substream(1, 0).random() != substream(1, 1).random()
        assert substream(1, 0).random() != substream(2, 0).random()


class TestMgfPoint:
    def test_exponential_closed_form(self):
        assert Exponential(1.0).mgf_point(-1.0) == pytest.approx(0.5, rel=1e-12)

    def test_deterministic(self):
        assert Deterministic(1.0).mgf_point(-0.5) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_normalization_at_zero(self):
        for dist in ALL_VARIANTS:
            assert dist.mgf_point(0.0) == 1.0

    def test_monotone_in_t(self):
        for dist in ALL_VARIANTS:
            ts = [-4.0, -2.0, -1.0, -0.25, 0.0]
            vals = [dist.mgf_point(t) for t in ts]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(MgfDomainError):
            Exponential(1.0).mgf_point(1.0)
        with pytest.raises(MgfDomainError):
            Gamma(2.0, 1.0).mgf_point(1.0)
        with pytest.raises(MgfDomainError):
            LogNormal(0.0, 1.0).mgf_point(1e-6)
        # deterministic MGF is entire
        assert Deterministic(1.0).mgf_point(5.0) == pytest.approx(math.exp(5.0))

    def test_lognormal_against_monte_carlo(self):
        dist = LogNormal(-1.0, 1.0)
        got = dist.mgf_point(-1.0)
        draws = dist.sample_n(substream(9, 0), 10_000_000)
        vals = np.exp(-draws)
        mc = float(np.mean(vals))
        se = float(np.std(vals) / math.sqrt(draws.size))
        assert abs(got - mc) < 3 * se


class TestMgfJet:
    def test_exponential_closed_form_coeffs(self):
        dist = Exponential(1.0)
        j = dist.mgf_jet(-1.0, 4)
        # analytic integral: E[U e^{-U}] = 1/4 for a unit-rate exponential
        assert j.derivative_value(1) == pytest.approx(0.25, rel=1e-14)
        # full geometric pattern (rate/(rate-t0)) * (rate-t0)^{-k}
        for k, c in enumerate(j.coeffs):
            assert c == pytest.approx(0.5 * 0.5**k, rel=1e-14)

    def test_deterministic_coeffs(self):
        d = 1.5
        j = Deterministic(d).mgf_jet(-0.5, 5)
        for k, c in enumerate(j.coeffs):
            assert c == pytest.approx(math.exp(-0.5 * d) * d**k / math.factorial(k), rel=1e-13)

    def test_constant_term_is_mgf_point(self):
        for dist in ALL_VARIANTS:
            for t0 in (-3.0, -1.0, -0.2, 0.0):
                j = dist.mgf_jet(t0, 6)
                assert j.coeffs[0] == pytest.approx(dist.mgf_point(t0), rel=1e-12)
                assert j.center == t0

    def test_gamma_one_matches_exponential(self):
        g = Gamma(1.0, 2.0)
        e = Exponential(2.0)
        for t0 in (-2.0, -0.5, 0.0):
            jg = g.mgf_jet(t0, 8)
            je = e.mgf_jet(t0, 8)
            for a, b in zip(jg.coeffs, je.coeffs):
                assert a == pytest.approx(b, rel=1e-12)

    def test_lognormal_coeffs_against_monte_carlo(self):
        # E[U^k e^{-2U}] / k! per coefficient, 3-sigma Monte Carlo band
        dist = LogNormal(-1.0, 1.0)
        t0 = -2.0
        j = dist.mgf_jet(t0, 6)
        draws = dist.sample_n(substream(10, 0), 10_000_000)
        weight = np.exp(t0 * draws)
        for k in range(7):
            vals = draws**k * weight / math.factorial(k)
            mc = float(np.mean(vals))
            se = float(np.std(vals) / math.sqrt(draws.size))
            assert abs(j.coeffs[k] - mc) < 3 * se, f"coefficient {k}"

    def test_pole_margin(self):
        with pytest.raises(MgfDomainError):
            Exponential(1.0).mgf_jet(1.0 - 1e-12, 4)


class TestSurvivalTransform:
    def test_exponential_closed_form(self):
        # (1 - M(t))/(-t) = 1/(rate - t) for the exponential law
        j = Exponential(2.0).survival_mgf_jet(-1.0, 5)
        for k, c in enumerate(j.coeffs):
            assert c == pytest.approx(3.0 ** -(k + 1), rel=1e-14)

    def test_matches_direct_ratio_at_moderate_rate(self):
        # at rate 1 the naive series division is accurate; the stable
        # route must agree with it for every variant
        from aoiq.jets import Jet

        order = 8
        for dist in ALL_VARIANTS:
            t0 = -1.0
            m = dist.mgf_jet(t0, order).recenter(0.0)
            denom = Jet.from_coeffs((-t0, -1.0) + (0.0,) * (order - 1))
            direct = (1.0 - m) / denom
            stable = dist.survival_mgf_jet(t0, order).recenter(0.0)
            for a, b in zip(direct.coeffs, stable.coeffs):
                assert a == pytest.approx(b, rel=1e-9)

    def test_zero_argument_is_shifted_moments(self):
        for dist in ALL_VARIANTS:
            j = dist.survival_mgf_jet(0.0, 6)
            m = dist.mgf_jet(0.0, 7)
            for k in range(7):
                assert j.coeffs[k] == pytest.approx(m.coeffs[k + 1], rel=1e-12)

    def test_tiny_rate_limit(self):
        # as t0 -> 0 the coefficients approach the shifted moment values
        # smoothly; the series-division route loses all digits here
        for dist in ALL_VARIANTS:
            at_zero = dist.survival_mgf_jet(0.0, 6)
            tiny = dist.survival_mgf_jet(-1e-9, 6)
            for a, b in zip(at_zero.coeffs, tiny.coeffs):
                assert b == pytest.approx(a, rel=1e-5)

    def test_lognormal_against_monte_carlo(self):
        # coeffs[k] = E[integral of v^k e^{t0 v} over v in (0, U)] / k!,
        # with the inner integral in regularized incomplete gamma form
        from scipy.special import gammainc as reg_lower_gamma

        dist = LogNormal(-1.0, 1.0)
        t0 = -0.5
        j = dist.survival_mgf_jet(t0, 5)
        draws = dist.sample_n(substream(11, 0), 2_000_000)
        for k in range(6):
            vals = reg_lower_gamma(k + 1, -t0 * draws) / (-t0) ** (k + 1)
            mc = float(np.mean(vals))
            se = float(np.std(vals) / math.sqrt(draws.size))
            assert abs(j.coeffs[k] - mc) < 3 * se, f"coefficient {k}"

    def test_positive_argument_rejected(self):
        with pytest.raises(MgfDomainError):
            LogNormal(0.0, 1.0).survival_mgf_jet(0.5, 4)


def _pairs(law, shifts, order):
    """What ``jet_pairs`` gives: shift -> (M, H), and the number of calls."""
    pairs, calls = {}, 0
    for chunk in law.jet_pairs(shifts, order):
        pairs.update(chunk)
        calls += 1
    return pairs, calls


class TestJetPairs:
    @pytest.mark.parametrize("order", [1, 2, 8])
    @pytest.mark.parametrize("count", [1, 2, 7, 8, 9, 33])
    def test_lognormal_batch_is_each_shift_alone(self, count, order):
        # the counts cross the seams between the panel rules' calls; the shifts
        # run from next to 0 through the paper's to far out
        rng = np.random.default_rng(count)
        shifts = [-1e-9, -0.28, -750.0, *(-(10.0 ** rng.uniform(-6.0, 2.0, count)))][:count]
        for law in (LogNormal(-1.0, 1.0), LogNormal(0.0, 2.0)):
            pairs, calls = _pairs(law, shifts, order)
            per_call = _CHUNK_NODES // ((order + 1) * 512)  # 12, 8 and 2 shifts
            assert calls == -(-count // per_call)
            assert list(pairs) == shifts
            for t in shifts:
                alone = law.mgf_jet(t, order).coeffs, law.survival_mgf_jet(t, order).coeffs
                assert repr(pairs[t]) == repr(alone)

    def test_shifts_outside_the_rule_go_one_at_a_time(self):
        law = LogNormal(-1.0, 1.0)
        pairs, calls = _pairs(law, [-0.5, 0.0, -0.25], 3)
        assert calls == 2
        assert pairs[0.0] == (law.mgf_jet(0.0, 3).coeffs, law.survival_mgf_jet(0.0, 3).coeffs)
        with pytest.raises(MgfDomainError):
            _pairs(law, [-0.5, 0.5], 3)

    @pytest.mark.parametrize("law", [Exponential(2.0), Gamma(2.0, 4.0), Deterministic(0.5)])
    def test_closed_form_laws_take_one_shift_per_call(self, law):
        pairs, calls = _pairs(law, [-0.5, 0.0, 0.25], 4)
        assert calls == 3
        for t, (m, h) in pairs.items():
            assert (m, h) == (law.mgf_jet(t, 4).coeffs, law.survival_mgf_jet(t, 4).coeffs)


class TestParseDistribution:
    def test_round_trip(self):
        assert parse_distribution("exponential(rate=2)") == Exponential(2.0)
        assert parse_distribution("gamma(shape=2, rate=3)") == Gamma(2.0, 3.0)
        assert parse_distribution("deterministic(value=1.5)") == Deterministic(1.5)
        assert parse_distribution("lognormal(loc=-1, scale=1)") == LogNormal(-1.0, 1.0)

    def test_aliases(self):
        assert parse_distribution("lognormal(alpha=-1, omega=1)") == LogNormal(-1.0, 1.0)
        assert parse_distribution("exponential(mu=2)") == Exponential(2.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_distribution("weibull(k=1)")
        with pytest.raises(ValueError):
            parse_distribution("exponential(rate=fast)")
        with pytest.raises(ValueError):
            parse_distribution("exponential()")
        with pytest.raises(ValueError):
            parse_distribution("gamma(shape=1)")
        with pytest.raises(ValueError):
            parse_distribution("exponential(rate=1, rate=2)")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            LogNormal(0.0, 0.0)
        with pytest.raises(ValueError):
            Deterministic(-2.0)

    @pytest.mark.parametrize("spec", NON_FINITE_SPECS)
    def test_non_finite_parameters_rejected(self, spec):
        with pytest.raises(ValueError, match="finite"):
            parse_distribution(spec)

    @pytest.mark.parametrize("spec, message", [
        ("exponential", "bad distribution spec 'exponential'; expected name(param=value, ...)"),
        ("gamma(shape=1, 2)", "bad distribution parameter ' 2'; expected key=value"),
        ("exponential(scale=1)", "unknown parameter 'scale' for exponential; expected ('rate',)"),
    ], ids=["no parentheses", "no equals sign", "unknown parameter"])
    def test_malformed_specs_rejected(self, spec, message):
        with pytest.raises(ValueError) as info:
            parse_distribution(spec)
        assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("law", [Exponential(2.0), LogNormal(-1.0, 1.0)])
@pytest.mark.parametrize("t0", [1e-10, 5e-324])
def test_survival_jet_refused_just_above_zero(law, t0):
    # (M(t) - 1) / t would lose about -log10(t0) digits there
    with pytest.raises(MgfDomainError) as info:
        law.survival_mgf_jet(t0, 2)
    assert str(info.value) == f"survival transform refused for 0 < t0 < 1e-09, got {t0}"
