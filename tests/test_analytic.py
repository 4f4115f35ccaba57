import pytest

from aoiq import (
    Deterministic,
    Exponential,
    Gamma,
    LogNormal,
    SystemConfig,
    interdeparture_mgf_jet,
    moments,
)
from aoiq.analytic import (
    GloballyPreemptiveConfig,
    OutsideConvergenceRegion,
    Transform,
    aoi_mgf_jet,
    mgf_point_eval,
    moments_both_routes,
    paoi_mgf_jet,
    system_time_mgf_jet,
    solve_moments,
)
from aoiq.analytic import _solve
from grid_helpers import config_grid

# the single-source fully preemptive exponential anchor: all four
# transforms reduce to elementary closed forms
ANCHOR = SystemConfig((1.0,), 1.0, Exponential(1.0))


class TestSystemTime:
    def test_anchor_is_exponential_of_summed_rates(self):
        # T ~ Exponential(rate + arrival rate): jet of 2/(2-s)
        j = system_time_mgf_jet(ANCHOR, 0)
        for k, c in enumerate(j.coeffs):
            assert c == pytest.approx(2.0**-k, rel=1e-12)
        assert j.derivative_value(1) == pytest.approx(0.5, rel=1e-12)

    def test_no_preemption_reduces_to_service_mgf(self):
        for dist in (Exponential(1.3), LogNormal(-1.0, 1.0)):
            cfg = SystemConfig((2.0, 1.0), 0.0, dist)
            j = system_time_mgf_jet(cfg, 0)
            ref = dist.mgf_jet(0.0, j.order)
            for a, b in zip(j.coeffs, ref.coeffs):
                assert a == pytest.approx(b, rel=1e-12)

    def test_constant_term_one_everywhere(self):
        for cfg in config_grid():
            for c in range(cfg.num_sources):
                assert system_time_mgf_jet(cfg, c).coeffs[0] == pytest.approx(1.0, abs=1e-12)


class TestInterdeparture:
    def test_anchor_mean(self):
        # renewal argument: delivery rate lambda*mu/(lambda+mu) = 1/2
        j = interdeparture_mgf_jet(ANCHOR, 0)
        assert j.derivative_value(1) == pytest.approx(2.0, rel=1e-12)

    def test_anchor_is_erlang_two(self):
        # Y ~ sum of two unit-rate exponentials: MGF (1-s)^-2
        j = interdeparture_mgf_jet(ANCHOR, 0)
        for k, c in enumerate(j.coeffs):
            assert c == pytest.approx(k + 1.0, rel=1e-12)

    def test_constant_term_one_on_grid(self):
        for cfg in config_grid():
            for c in range(cfg.num_sources):
                j = interdeparture_mgf_jet(cfg, c)
                assert j.coeffs[0] == pytest.approx(1.0, abs=1e-9)


class TestPaoiAndAoi:
    def test_paoi_mean_is_sum(self):
        for cfg in config_grid()[::5]:
            for c in range(cfg.num_sources):
                t = system_time_mgf_jet(cfg, c)
                y = interdeparture_mgf_jet(cfg, c)
                p = paoi_mgf_jet(cfg, c)
                assert p.derivative_value(1) == pytest.approx(
                    t.derivative_value(1) + y.derivative_value(1), rel=1e-10
                )

    def test_anchor_paoi_mean(self):
        assert paoi_mgf_jet(ANCHOR, 0).derivative_value(1) == pytest.approx(2.5, rel=1e-12)

    def test_anchor_aoi_mean(self):
        # classical single-source always-preempt M/M/1/1 value 1/rate + 1/mu
        assert aoi_mgf_jet(ANCHOR, 0).derivative_value(1) == pytest.approx(2.0, rel=1e-12)

    def test_aoi_normalization_on_grid(self):
        for cfg in config_grid():
            for c in range(cfg.num_sources):
                assert aoi_mgf_jet(cfg, c).coeffs[0] == pytest.approx(1.0, abs=1e-8)

    def test_aoi_order_matches_request(self):
        j = aoi_mgf_jet(ANCHOR, 0, 6)
        assert j.order == 6

    def test_continuity_at_full_preemption(self):
        cfg_hi = SystemConfig((1.0,), 1.0 - 1e-9, Exponential(1.0))
        a = aoi_mgf_jet(ANCHOR, 0).derivative_value(1)
        b = aoi_mgf_jet(cfg_hi, 0).derivative_value(1)
        assert abs(a - b) / a < 1e-6

    def test_theta_continuity_at_endpoints(self):
        # finite differences in theta of every AoI coefficient converge to
        # a slope at both endpoints, so the jets vary continuously there
        rates = (1.5, 0.5)
        dist = LogNormal(-1.0, 1.0)

        def coeffs(theta):
            return aoi_mgf_jet(SystemConfig(rates, theta, dist), 0).coeffs

        for at, direction in ((0.0, 1.0), (1.0, -1.0)):
            ref = coeffs(at)
            slopes = []
            for h in (1e-5, 1e-6, 1e-7):
                stepped = coeffs(at + direction * h)
                slopes.append([(y - x) / (direction * h) for x, y in zip(ref, stepped)])
            for d1, d2 in zip(slopes[1], slopes[2]):
                assert d1 == pytest.approx(d2, rel=2e-2, abs=1e-8)

    def test_source_relabeling_symmetry(self):
        # swapping the two sources' rates must swap their metrics exactly
        for theta in (0.0, 0.35, 1.0):
            fwd = SystemConfig((0.8, 2.1), theta, LogNormal(-1.0, 1.0))
            rev = SystemConfig((2.1, 0.8), theta, LogNormal(-1.0, 1.0))
            a = aoi_mgf_jet(fwd, 0)
            b = aoi_mgf_jet(rev, 1)
            for x, y in zip(a.coeffs, b.coeffs):
                assert x == pytest.approx(y, rel=1e-12)

    def test_vanishing_other_sources_reduce_to_single(self):
        # with the second source's rate pushed to zero the tracked source
        # behaves exactly like a single-source system at its own rate
        for theta in (0.0, 0.28, 1.0):
            multi = SystemConfig((1.7, 1e-9), theta, Exponential(1.2))
            single = SystemConfig((1.7,), theta, Exponential(1.2))
            am = aoi_mgf_jet(multi, 0)
            asg = aoi_mgf_jet(single, 0)
            for x, y in zip(am.coeffs, asg.coeffs):
                assert abs(x - y) <= 1e-6 * max(1.0, abs(y))
            pm = paoi_mgf_jet(multi, 0)
            psg = paoi_mgf_jet(single, 0)
            for x, y in zip(pm.coeffs, psg.coeffs):
                assert abs(x - y) <= 1e-6 * max(1.0, abs(y))


class TestMoments:
    def test_routes_agree_on_grid(self):
        for cfg in config_grid():
            for c in range(cfg.num_sources):
                _, _, gap = moments_both_routes(cfg, c, 4)
                assert gap <= 1e-8

    def test_anchor_all_values(self):
        m = moments(ANCHOR, 0, 2)
        assert m.mean_aoi == pytest.approx(2.0, rel=1e-12)
        assert m.mean_paoi == pytest.approx(2.5, rel=1e-12)
        assert m.mean_system_time == pytest.approx(0.5, rel=1e-12)
        assert m.mean_interdeparture == pytest.approx(2.0, rel=1e-12)

    def test_first_paoi_moment_is_decomposition(self):
        for cfg in config_grid()[::7]:
            for c in range(cfg.num_sources):
                m = moments(cfg, c, 1)
                assert m.mean_paoi == pytest.approx(
                    m.mean_system_time + m.mean_interdeparture, rel=1e-10
                )

    def test_positivity_and_variance(self):
        for cfg in config_grid()[::3]:
            for c in range(cfg.num_sources):
                m = moments(cfg, c, 2)
                assert m.mean_aoi > 0
                assert m.mean_paoi > 0
                assert m.mean_system_time > 0
                assert m.mean_interdeparture > 0
                assert m.aoi_moments[1] >= m.aoi_moments[0] ** 2
                assert m.paoi_moments[1] >= m.paoi_moments[0] ** 2

    def test_peak_vs_mean_gap_identity(self):
        # the sawtooth average is length-biased: mean peak minus mean AoI
        # equals (mean(Y)^2 - Var(Y)) / (2 mean(Y)), so the peak dominates
        # exactly when the interdeparture time has unit or less CV. Both
        # signs genuinely occur on the grid (confirmed by simulation for
        # high-variability configs), so the signed identity is the
        # invariant, not blanket dominance.
        signs = set()
        for cfg in config_grid():
            for c in range(cfg.num_sources):
                m = moments(cfg, c, 2)
                y = interdeparture_mgf_jet(cfg, c, 4)
                ey, ey2 = y.derivative_value(1), y.derivative_value(2)
                want = (2.0 * ey * ey - ey2) / (2.0 * ey)
                assert m.mean_paoi - m.mean_aoi == pytest.approx(
                    want, rel=1e-8, abs=1e-10 * max(1.0, m.mean_aoi)
                )
                if ey2 <= 2.0 * ey * ey:
                    assert m.mean_paoi >= m.mean_aoi - 1e-10 * m.mean_aoi
                    signs.add("peak_dominates")
                else:
                    signs.add("mean_dominates")
        assert signs == {"peak_dominates", "mean_dominates"}

    def test_bad_orders_rejected(self):
        with pytest.raises(ValueError):
            moments(ANCHOR, 0, 0)
        with pytest.raises(ValueError):
            moments(ANCHOR, 1, 2)

    @pytest.mark.parametrize("call, message", [
        (lambda: SystemConfig((), 0.5, Exponential(1.0)), "need at least one source"),
        (lambda: _solve([ANCHOR], 0.0, 0), "jet order must be >= 1, got 0"),
        (lambda: _solve([ANCHOR, SystemConfig((1.0,), 1.0, Exponential(2.0))], 0.0, 2),
         "the systems of a batch share one service law and one source count"),
        (lambda: _solve([ANCHOR, SystemConfig((1.0, 1.0), 1.0, Exponential(1.0))], 0.0, 2),
         "the systems of a batch share one service law and one source count"),
        (lambda: list(solve_moments([ANCHOR], 0)), "moment order must be >= 1"),
    ], ids=["no sources", "order 0", "mixed laws", "mixed source counts", "moment order 0"])
    def test_malformed_requests_rejected(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError and str(info.value) == message

    def test_empty_batch_builds_nothing(self):
        assert _solve([], 0.0, 2) == [] and list(solve_moments([], 2)) == []


class TestGlobalPreemption:
    """Global preemption is every source preempted at the total rate."""

    @pytest.mark.parametrize("rates, mu", [((1.0, 3.0), 2.0), ((0.5, 1.0, 2.0), 0.7), ((4.0,), 1.5)])
    def test_mm11_identity(self, rates, mu):
        # Yates and Kaul, IEEE T-IT 65(3), 2019: M/M/1/1 with preemption in
        # service gives source c the mean AoI (1/mu)(1 + rho)/rho_c
        cfg = GloballyPreemptiveConfig(rates, Exponential(mu))
        rho = sum(rates) / mu
        for c, rate in enumerate(rates):
            want = (1.0 + rho) / (rate / mu) / mu
            assert moments(cfg, c, 2).mean_aoi == pytest.approx(want, rel=1e-13)

    def test_paper_system(self):
        # the values a 10 x 2e5 simulation at seeds 4 and 5 covered
        cfg = GloballyPreemptiveConfig((2.0, 6.0), LogNormal(-1.0, 1.0))
        got = [moments(cfg, c, 2) for c in range(2)]
        assert [round(m.mean_aoi, 6) for m in got] == [3.486307, 1.162102]
        assert [round(m.mean_paoi, 6) for m in got] == [3.631234, 1.307030]

    def test_single_source_is_self_preemptive(self):
        for dist in (Exponential(1.3), Deterministic(0.9), LogNormal(-1.0, 1.0)):
            glob = GloballyPreemptiveConfig((1.7,), dist)
            assert moments(glob, 0, 3) == moments(SystemConfig((1.7,), 1.0, dist), 0, 3)

    def test_preemption_matrix(self):
        # who may preempt whom: the own source with probability theta, or
        # every arrival; each row sums to the reduced rate r_c
        law = Gamma(2.0, 3.0)
        prob = SystemConfig((1.0, 2.0, 0.5), 0.4, law)
        glob = GloballyPreemptiveConfig((1.0, 2.0, 0.5), law)
        assert prob.preemption_matrix == ((0.4, 0.0, 0.0), (0.0, 0.8, 0.0), (0.0, 0.0, 0.2))
        assert glob.preemption_matrix == ((1.0, 2.0, 0.5),) * 3
        for cfg in (prob, glob):
            assert tuple(sum(row) for row in cfg.preemption_matrix) == cfg.preemption_rates

    def test_mean_interdeparture(self):
        # E[Y_c] = 1 / (lambda_c M_U(-Lambda)): the episodes are i.i.d. and
        # each delivers source c with probability lambda_c / Lambda
        law = Gamma(2.0, 3.0)
        cfg = GloballyPreemptiveConfig((1.0, 2.0, 0.5), law)
        for c, rate in enumerate(cfg.arrival_rates):
            want = 1.0 / (rate * law.mgf_point(-3.5))
            assert moments(cfg, c, 1).mean_interdeparture == pytest.approx(want, rel=1e-13)


class TestOneServicePass:
    """Every source's service jets belong to the configuration: they are
    built once per configuration, not once per tracked source."""

    @staticmethod
    def _count_requests(monkeypatch):
        counts = {"mgf_jet": 0, "survival_mgf_jet": 0}
        for name in counts:
            original = getattr(Gamma, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(Gamma, name, counted)
        return counts

    @staticmethod
    def _config(n, offset):
        # distinct rates, so that no two sources share a service jet
        rates = tuple(0.1 + offset + 0.01 * c for c in range(n))
        return SystemConfig(rates, 0.28, Gamma(2.0, 4.0))

    def test_one_request_per_source_and_kind(self, monkeypatch):
        counts = self._count_requests(monkeypatch)
        cfg = self._config(32, 0.123)
        for c in range(cfg.num_sources):
            moments(cfg, c, 2)
        assert counts == {"mgf_jet": 32, "survival_mgf_jet": 32}

    def test_memo_is_bounded(self, monkeypatch):
        from aoiq.analytic import _system_jets

        maxsize = _system_jets.cache_info().maxsize
        assert maxsize is not None
        counts = self._count_requests(monkeypatch)
        first = self._config(3, 0.456)
        moments(first, 0, 2)
        for i in range(maxsize - 1):
            moments(self._config(3, 1.0 + i), 0, 2)
        moments(first, 1, 2)  # still held, and now the most recent
        assert counts["mgf_jet"] == 3 * maxsize
        for i in range(maxsize + 1):
            moments(self._config(3, 100.0 + i), 0, 2)
        moments(first, 2, 2)
        assert counts["mgf_jet"] == 3 * (2 * maxsize + 2)
        assert counts["survival_mgf_jet"] == counts["mgf_jet"]

    def test_batch_requests_each_shift_once_and_keeps_nothing(self, monkeypatch):
        from aoiq.analytic import _system_jets, solve_moments

        _system_jets.cache_clear()
        counts = self._count_requests(monkeypatch)
        # theta * rate = 0.28 * 2.0 in both systems; 0.28 * 3.0 and 0.28 * 5.0 once each
        first = SystemConfig((2.0, 3.0), 0.28, Gamma(2.0, 4.0))
        second = SystemConfig((2.0, 5.0), 0.28, Gamma(2.0, 4.0))
        solved = list(solve_moments([first, second], 2))
        assert counts == {"mgf_jet": 3, "survival_mgf_jet": 3}
        assert solved == [[moments(cfg, c, 2) for c in range(2)] for cfg in (first, second)]
        assert counts == {"mgf_jet": 7, "survival_mgf_jet": 7}  # the batch left nothing behind
        # nor does a second batch find anything kept: it requests every shift again
        assert list(solve_moments([first, second], 2)) == solved
        assert counts == {"mgf_jet": 10, "survival_mgf_jet": 10}
        assert _system_jets.cache_info().currsize == 2


class TestPointEval:
    def test_normalization(self):
        cfg = SystemConfig((2.0, 6.0), 0.28, LogNormal(-1.0, 1.0))
        for which in Transform:
            for c in range(2):
                assert mgf_point_eval(cfg, c, 0.0, which) == 1.0

    def test_anchor_system_time_closed_form(self):
        # (mu + lambda)/(mu + lambda - s) at s = -1 -> 2/3
        got = mgf_point_eval(ANCHOR, 0, -1.0, Transform.SYSTEM_TIME)
        assert got == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_matches_jets_at_small_s(self):
        # Taylor series of each transform should track pointwise values
        cfg = SystemConfig((1.0, 0.5), 0.5, Exponential(2.0))
        s = -0.01
        for which, jet in (
            (Transform.SYSTEM_TIME, system_time_mgf_jet(cfg, 0, 10)),
            (Transform.INTERDEPARTURE, interdeparture_mgf_jet(cfg, 0, 10)),
            (Transform.PAOI, paoi_mgf_jet(cfg, 0, 10)),
            (Transform.AOI, aoi_mgf_jet(cfg, 0, 10)),
        ):
            series = sum(c * s**k for k, c in enumerate(jet.coeffs))
            assert mgf_point_eval(cfg, 0, s, which) == pytest.approx(series, rel=1e-9)

    def test_monotone_for_negative_s(self):
        cfg = SystemConfig((2.0, 6.0), 0.28, LogNormal(-1.0, 1.0))
        vals = [mgf_point_eval(cfg, 0, s, Transform.AOI) for s in (-2.0, -1.0, -0.5, -0.1)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_total_rate_pole_rejected(self):
        cfg = SystemConfig((1.0, 1.0), 0.5, Exponential(5.0))
        with pytest.raises(OutsideConvergenceRegion):
            mgf_point_eval(cfg, 0, 2.0, Transform.INTERDEPARTURE)

    def test_service_domain_rejected(self):
        cfg = SystemConfig((1.0,), 0.5, LogNormal(-1.0, 1.0))
        # s beyond the preemption rate pushes the service MGF argument positive
        with pytest.raises(OutsideConvergenceRegion):
            mgf_point_eval(cfg, 0, 0.6, Transform.SYSTEM_TIME)

    def test_sources_validated(self):
        with pytest.raises(ValueError):
            mgf_point_eval(ANCHOR, 2, -1.0, Transform.AOI)
