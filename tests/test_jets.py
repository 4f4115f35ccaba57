import math
import sys

import numpy as np
import pytest

from aoiq.jets import DivisionBySingularJet, Jet, JetMismatchError


def jet(*coeffs, center=0.0):
    return Jet.from_coeffs(coeffs, center=center)


def random_jet(rng, order, center=0.0, floor=0.0):
    coeffs = rng.uniform(-2.0, 2.0, order + 1)
    if floor > 0.0:
        while abs(coeffs[0]) < floor:
            coeffs[0] = rng.uniform(-2.0, 2.0)
    return Jet.from_coeffs(coeffs, center=center)


class TestLinear:
    def test_add(self):
        assert (jet(1, 2) + jet(3, 4)).coeffs == (4, 6)

    def test_sub_self_is_zero(self):
        rng = np.random.default_rng(0)
        a = random_jet(rng, 6)
        assert all(c == 0.0 for c in (a - a).coeffs)

    def test_scale(self):
        assert (jet(1, 1, 1) * 2).coeffs == (2, 2, 2)
        assert (2 * jet(1, 1, 1)).coeffs == (2, 2, 2)

    def test_center_mismatch(self):
        with pytest.raises(JetMismatchError):
            jet(1, 2) + jet(1, 2, center=1.0)

    def test_order_mismatch(self):
        with pytest.raises(JetMismatchError):
            jet(1, 2) + jet(1, 2, 3)


class TestMul:
    def test_difference_of_squares(self):
        one_plus = jet(1, 1, 0)
        one_minus = jet(1, -1, 0)
        assert (one_plus * one_minus).coeffs == (1, 0, -1)

    def test_identity(self):
        rng = np.random.default_rng(1)
        a = random_jet(rng, 8)
        one = Jet.constant(1.0, 8)
        assert (a * one).coeffs == a.coeffs

    def test_s_squared_truncation(self):
        s = jet(0, 1, 0)
        assert (s * s).coeffs == (0, 0, 1)


class TestDiv:
    def test_geometric_series(self):
        one = Jet.constant(1.0, 6)
        one_minus_s = jet(1, -1, 0, 0, 0, 0, 0)
        assert (one / one_minus_s).coeffs == (1.0,) * 7

    def test_self_quotient(self):
        rng = np.random.default_rng(2)
        a = random_jet(rng, 8, floor=0.1)
        q = a / a
        assert q.coeffs[0] == 1.0
        assert max(abs(c) for c in q.coeffs[1:]) < 1e-14

    def test_mul_div_round_trip(self):
        # randomized oracle: div(mul(a, b), b) must reproduce a. The
        # denominator tail is drawn proportional to its constant term,
        # matching the conditioning of the transform denominators this
        # library actually divides by (highly skewed tails amplify the
        # recursion's rounding beyond any fixed tolerance).
        rng = np.random.default_rng(3)
        for _ in range(500):
            a = random_jet(rng, 8)
            b0 = rng.uniform(0.1, 1.1) * (1.0 if rng.random() < 0.5 else -1.0)
            b = Jet.from_coeffs([b0, *(b0 * rng.uniform(-0.9, 0.9, 8))])
            back = (a * b) / b
            assert max(
                abs(x - y) for x, y in zip(back.coeffs, a.coeffs)
            ) < 1e-11

    def test_singular_denominator(self):
        with pytest.raises(DivisionBySingularJet):
            jet(1, 2, 3) / jet(0.0, 1, 1)

    def test_floor_is_strict(self):
        # just above the floor still divides
        q = jet(1, 0, 0) / jet(1e-12, 1, 1)
        assert math.isfinite(q.coeffs[0])

    @pytest.mark.parametrize("b0", [-0.0, 5e-324, -sys.float_info.min / 2])
    def test_zero_or_subnormal_denominator(self, b0):
        with pytest.raises(DivisionBySingularJet):
            jet(1, 2, 3) / jet(b0, 1, 1)

    def test_small_normal_denominators_divide(self):
        # a constant term e^-30 is a legitimate delivery probability
        q = jet(1, 0, 0) / jet(math.exp(-30.0), 1, 0)
        assert q.coeffs == pytest.approx((math.exp(30.0), -math.exp(60.0), math.exp(90.0)), rel=1e-15)
        assert (Jet.from_coeffs([1.0]) / Jet.from_coeffs([sys.float_info.min])).coeffs[0] > 1e307

    @pytest.mark.parametrize("num, den", [((1e300, 0, 0), (1e-10, 0, 0)), ((1, 0, 0), (1e-200, 1, 0))])
    def test_overflowing_quotient(self, num, den):
        # a DivisionBySingularJet, not the ValueError of a non-finite jet
        with pytest.raises(DivisionBySingularJet):
            jet(*num) / jet(*den)


class TestRingLaws:
    def test_laws_randomized(self):
        rng = np.random.default_rng(4)
        for order in (1, 2, 4, 8):
            for _ in range(50):
                a = random_jet(rng, order)
                b = random_jet(rng, order)
                c = random_jet(rng, order)

                def close(x, y):
                    return all(
                        abs(p - q) <= 1e-12 * max(1.0, abs(p), abs(q))
                        for p, q in zip(x.coeffs, y.coeffs)
                    )

                assert close(a + b, b + a)
                assert close((a + b) + c, a + (b + c))
                assert close(a * b, b * a)
                assert close((a * b) * c, a * (b * c))
                assert close(a * (b + c), a * b + a * c)


class TestDerivativeValue:
    def test_normalized_to_raw(self):
        assert jet(1, 1, 0.5).derivative_value(2) == 1.0

    def test_zeroth(self):
        rng = np.random.default_rng(6)
        a = random_jet(rng, 4)
        assert a.derivative_value(0) == a.coeffs[0]

    def test_geometric_third_derivative(self):
        geo = Jet.from_coeffs([1.0] * 9)  # 1/(1-s)
        assert geo.derivative_value(3) == 6.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            jet(1, 2).derivative_value(2)
        with pytest.raises(ValueError):
            jet(1, 2).derivative_value(-1)


class TestConstruction:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            jet(1.0, math.nan)
        with pytest.raises(ValueError):
            jet(math.inf, 1.0)

    def test_variable(self):
        s = Jet.variable(3, center=2.0)
        assert s.coeffs == (2.0, 1.0, 0.0, 0.0)

    def test_recenter_keeps_coeffs(self):
        a = jet(1, 2, 3, center=-0.5)
        assert a.recenter(0.0).coeffs == a.coeffs
        assert a.recenter(0.0).center == 0.0
