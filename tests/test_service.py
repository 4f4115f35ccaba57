import math

import numpy as np
import pytest

from aoiq.service import (
    Deterministic,
    Exponential,
    Gamma,
    LogNormal,
    MgfDomainError,
    UnsupportedDensity,
    parse_distribution,
    substream,
)

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
        assert [d.sample(rng) for _ in range(5)] == [1.5] * 5

    def test_same_seed_same_draw(self):
        for dist in ALL_VARIANTS:
            a = dist.sample(substream(42, 3))
            b = dist.sample(substream(42, 3))
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


class TestDensities:
    def test_deterministic_density_unsupported(self):
        with pytest.raises(UnsupportedDensity):
            Deterministic(1.0).tilted_quantiles(0.5, np.array([0.5]))


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
