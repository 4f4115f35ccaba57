import dataclasses
import logging
import math

import numpy as np
import pytest

from aoiq import (
    Deterministic,
    Exponential,
    Gamma,
    InsufficientSamples,
    InvalidConfig,
    LogNormal,
    Policy,
    PolicyKind,
    PositiveExponentRejected,
    SimConfig,
    SourceStats,
    SystemConfig,
    Transform,
    empirical_aoi_mgf,
    empirical_checks,
    empirical_mgf,
    mgf_point_eval,
    moments,
    run,
)
from aoiq import sim as sim_mod
from aoiq.service import substream
from aoiq.sim import RESERVOIR_CAPACITY, _simulate_once
from sim_reference import reference_run

ANCHOR = SystemConfig((1.0,), 1.0, Exponential(1.0))
TWO_EXP = SystemConfig((1.0, 2.0), 0.5, Exponential(1.5))


def small_sim(seed=3, horizon=4000.0, **kw):
    return SimConfig(seed=seed, horizon=horizon, **kw)


class TestConfigValidation:
    def test_stop_rule_exclusive(self):
        with pytest.raises(InvalidConfig):
            SimConfig(seed=1)
        with pytest.raises(InvalidConfig):
            SimConfig(seed=1, horizon=10.0, delivered_per_source=5)

    def test_ranges(self):
        with pytest.raises(InvalidConfig):
            SimConfig(seed=1, horizon=-1.0)
        with pytest.raises(InvalidConfig):
            SimConfig(seed=1, horizon=10.0, warmup_fraction=1.0)
        with pytest.raises(InvalidConfig):
            SimConfig(seed=1, horizon=10.0, batches=5)
        with pytest.raises(InvalidConfig):
            SimConfig(seed=1, horizon=10.0, replications=0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_horizon_must_be_finite(self, horizon):
        with pytest.raises(InvalidConfig):
            SimConfig(seed=1, horizon=horizon)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("delivered_per_source", 2.5),
            ("delivered_per_source", True),
            ("batches", 10.5),
            ("batches", True),
            ("replications", 2.0),
            ("replications", True),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        kw = {"horizon": 10.0, field: value}
        if field == "delivered_per_source":
            kw.pop("horizon")
        with pytest.raises(InvalidConfig):
            SimConfig(seed=1, **kw)

    def test_numpy_integer_counts_accepted(self):
        sim = SimConfig(seed=1, delivered_per_source=np.int64(5), replications=np.int32(2))
        assert sim.replications == 2

    def test_policy_validation(self):
        with pytest.raises(InvalidConfig):
            Policy.probabilistic(1.5)
        with pytest.raises(InvalidConfig):
            Policy(PolicyKind.NON_PREEMPTIVE, theta=0.5)


class TestCounters:
    @pytest.mark.parametrize(
        "policy",
        [
            Policy.probabilistic(0.3),
            Policy.non_preemptive(),
            Policy.self_preemptive(),
            Policy.globally_preemptive(),
        ],
        ids=lambda p: p.label(),
    )
    def test_conservation(self, policy):
        report = run(TWO_EXP, policy, small_sim())
        for s in report.per_source:
            assert s.arrivals == s.delivered + s.preempted + s.discarded + s.in_flight
            assert s.entered_service == s.delivered + s.preempted + s.in_flight

    def test_non_preemptive_never_preempts(self):
        report = run(TWO_EXP, Policy.non_preemptive(), small_sim())
        assert all(s.preempted == 0 for s in report.per_source)

    def test_self_preemptive_only_same_source(self):
        # under self preemption busy-time bookkeeping still balances and
        # discards only happen for cross-source collisions
        report = run(TWO_EXP, Policy.self_preemptive(), small_sim())
        assert any(s.preempted > 0 for s in report.per_source)
        assert all(s.discarded > 0 for s in report.per_source)

    def test_globally_preemptive_no_discards(self):
        report = run(TWO_EXP, Policy.globally_preemptive(), small_sim())
        assert all(s.discarded == 0 for s in report.per_source)

    def test_aoi_at_least_system_time(self):
        report = run(TWO_EXP, Policy.probabilistic(0.4), small_sim(horizon=20000.0))
        for s in report.per_source:
            assert s.time_avg_aoi >= s.system_time_mean

    def test_four_source_run(self):
        # more sources than the other systems here, each with deliveries
        cfg = SystemConfig((0.5, 1.0, 1.5, 0.3), 0.6, Exponential(2.0))
        report = run(cfg, Policy.probabilistic(0.6), small_sim(horizon=8000.0))
        assert len(report.per_source) == 4
        for s in report.per_source:
            assert s.arrivals == s.delivered + s.preempted + s.discarded + s.in_flight
            assert s.delivered > 100
        a = run(cfg, Policy.probabilistic(0.6), small_sim(horizon=8000.0))
        assert report.stats_identical(a)


class TestReproducibility:
    def test_bit_identical_reports(self):
        a = run(TWO_EXP, Policy.probabilistic(0.5), small_sim())
        b = run(TWO_EXP, Policy.probabilistic(0.5), small_sim())
        assert a.stats_identical(b)

    def test_workers_do_not_change_results(self):
        sim = small_sim(horizon=2000.0, replications=4)
        a = run(TWO_EXP, Policy.probabilistic(0.5), sim, workers=1)
        b = run(TWO_EXP, Policy.probabilistic(0.5), sim, workers=2)
        assert a.stats_identical(b)

    def test_seed_changes_results(self):
        a = run(TWO_EXP, Policy.probabilistic(0.5), small_sim(seed=1))
        b = run(TWO_EXP, Policy.probabilistic(0.5), small_sim(seed=2))
        assert not a.stats_identical(b)

    def test_policy_limit_theta_zero(self):
        sim = small_sim(seed=9)
        a = run(TWO_EXP, Policy.probabilistic(0.0), sim)
        b = run(TWO_EXP, Policy.non_preemptive(), sim)
        assert a.stats_identical(b)

    def test_policy_limit_theta_one(self):
        sim = small_sim(seed=9)
        a = run(TWO_EXP, Policy.probabilistic(1.0), sim)
        b = run(TWO_EXP, Policy.self_preemptive(), sim)
        assert a.stats_identical(b)


def _perturbed(value):
    if isinstance(value, tuple):
        return (value[0] + 1,) + value[1:]
    if isinstance(value, float) and math.isnan(value):
        return 0.0
    return value + 1  # numbers, and arrays element by element


class TestStatsIdentical:
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SourceStats)])
    def test_every_source_field_counts(self, field):
        report = run(TWO_EXP, Policy.probabilistic(0.5), small_sim(horizon=1000.0))
        assert report.stats_identical(dataclasses.replace(report))
        first = report.per_source[0]
        assert all(np.size(getattr(first, f.name)) for f in dataclasses.fields(SourceStats))
        changed = dataclasses.replace(first, **{field: _perturbed(getattr(first, field))})
        other = dataclasses.replace(report, per_source=(changed,) + report.per_source[1:])
        assert not report.stats_identical(other)


class TestSampleIdentities:
    def test_paoi_identity_exact(self):
        # every recorded peak equals previous system time plus the
        # interdeparture gap, bit for bit
        report = run(TWO_EXP, Policy.probabilistic(0.7), small_sim())
        for s in report.per_source:
            rec = s.delivery_records
            assert rec.shape[0] > 100
            assert np.all(rec[:, 0] + rec[:, 1] == rec[:, 2])

    def test_sawtooth_area_consistency(self):
        # with no warmup, accumulated area between first and last delivery
        # equals the closed form from the recorded samples
        cfg = SystemConfig((0.8,), 1.0, Exponential(1.0))
        report = run(cfg, Policy.probabilistic(1.0), small_sim(warmup_fraction=0.0))
        s = report.per_source[0]
        rec = s.delivery_records
        want_between = float(np.sum(rec[:, 0] * rec[:, 1] + 0.5 * rec[:, 1] ** 2))
        end, measure_from, area, first_del, last_del, last_t = s.rep_windows[0]
        tail_dt = end - last_del
        tail = last_t * tail_dt + 0.5 * tail_dt * tail_dt
        assert area - tail == pytest.approx(want_between, rel=1e-9)

    def test_delivery_dump_columns(self):
        report = run(
            TWO_EXP, Policy.probabilistic(0.5), small_sim(), collect_deliveries=True
        )
        rows = report.deliveries
        assert rows is not None and rows.shape[1] == 6
        mask = ~np.isnan(rows[:, 4])
        # system time = delivery - generation; paoi = prevT + interdep
        assert np.allclose(rows[:, 3], rows[:, 2] - rows[:, 1], rtol=0, atol=1e-12)
        delivered_total = sum(s.delivered for s in report.per_source)
        assert rows.shape[0] == delivered_total

    def test_count_stop_rule(self):
        sim = SimConfig(seed=4, delivered_per_source=500, warmup_fraction=0.0)
        report = run(TWO_EXP, Policy.probabilistic(0.5), sim)
        assert all(s.delivered >= 500 for s in report.per_source)
        assert min(s.delivered for s in report.per_source) == 500


class TestAccumulatorsMatchReservoirs:
    # below the reservoir capacity a reservoir holds every counted sample,
    # so the running sums behind the reported means and PAoI moments must
    # reproduce the sample averages up to summation rounding
    @pytest.mark.parametrize("replications", [1, 3])
    @pytest.mark.parametrize(
        "stop",
        [{"horizon": 4000.0}, {"delivered_per_source": 3000}],
        ids=["horizon", "delivered"],
    )
    def test_sums_match_samples(self, stop, replications):
        sim = SimConfig(seed=5, replications=replications, **stop)
        report = run(TWO_EXP, Policy.probabilistic(0.5), sim)
        for s in report.per_source:
            assert 1000 < s.delivered < RESERVOIR_CAPACITY
            rec = s.delivery_records
            assert s.system_times.mean() == pytest.approx(s.system_time_mean, rel=1e-12)
            assert rec[:, 1].mean() == pytest.approx(s.interdeparture_mean, rel=1e-12)
            assert rec[:, 2].mean() == pytest.approx(s.paoi_mean, rel=1e-12)
            assert (rec[:, 2] ** 2).mean() == pytest.approx(s.paoi_moments[1], rel=1e-12)


def _algorithm_r(samples, cap, rng):
    """Reservoir of ``cap`` items over ``samples``, one uniform draw per
    sample past the capacity."""
    items = list(samples[:cap])
    draws = rng.random(max(len(samples) - cap, 0))
    for seen in range(cap, len(samples)):
        j = int(draws[seen - cap] * (seen + 1))
        if j < cap:
            items[j] = samples[seen]
    return np.array(items, dtype=float)


class TestReservoirSubstreams:
    # each reservoir draws its replacement indices from a substream of its
    # own, purpose 3 for system times and 4 for delivery records, so either
    # is Algorithm R replayed over its counted samples with that stream
    @pytest.mark.parametrize(
        "stop",
        [{"horizon": 3000.0}, {"delivered_per_source": 2000}],
        ids=["horizon", "delivered"],
    )
    def test_each_reservoir_replays_algorithm_r(self, monkeypatch, stop):
        cap = 200
        monkeypatch.setattr(sim_mod, "RESERVOIR_CAPACITY", cap)
        sim = SimConfig(seed=7, warmup_fraction=0.1, **stop)
        report = run(TWO_EXP, Policy.probabilistic(0.5), sim, collect_deliveries=True)
        dump = report.deliveries  # source, generation, delivery, T, Y, A
        for c, s in enumerate(report.per_source):
            rows = dump[dump[:, 0] == c]
            if "horizon" in stop:
                counted = rows[:, 2] > sim.warmup_fraction * sim.horizon
            else:
                counted = np.arange(1, len(rows) + 1) > round(0.1 * sim.delivered_per_source)
            times = rows[counted, 3]
            records = np.column_stack([rows[:-1, 3], rows[1:, 4], rows[1:, 5]])[counted[1:]]
            assert len(records) > 4 * cap
            want_times = _algorithm_r(times, cap, substream(sim.seed, 0, c, 3))
            want_records = _algorithm_r(records, cap, substream(sim.seed, 0, c, 4))
            assert np.array_equal(s.system_times, want_times)
            assert np.array_equal(s.delivery_records, want_records)


class TestBatchCounts:
    # with no warmup every delivery counts, a source's first one included;
    # the within-run batches of T, and of Y and the peak age, must hold
    # exactly the samples behind the reported means
    @pytest.mark.parametrize(
        "stop",
        [{"horizon": 4000.0}, {"delivered_per_source": 3000}],
        ids=["horizon", "delivered"],
    )
    def test_batches_total_the_sums(self, stop):
        sim = SimConfig(seed=5, warmup_fraction=0.0, **stop)
        rep = _simulate_once(TWO_EXP, Policy.probabilistic(0.5), sim, 0, True, False)
        for c in range(TWO_EXP.num_sources):
            t_sum, t_cnt, y_sum, a_sum, cnt = rep.batch_sums[c]
            assert sum(t_cnt) == rep.t_sums[c][0]
            assert sum(t_sum) == pytest.approx(rep.t_sums[c][1], rel=1e-12)
            assert sum(cnt) == rep.y_sums[c][0] == rep.a_sums[c][0]
            assert sum(y_sum) == pytest.approx(rep.y_sums[c][1], rel=1e-12)
            assert sum(a_sum) == pytest.approx(rep.a_sums[c][1], rel=1e-12)


class TestAgainstAnalytic:
    def test_anchor_aoi_and_interdeparture(self):
        sim = SimConfig(seed=21, horizon=2e5, warmup_fraction=0.1, batches=20)
        report = run(ANCHOR, Policy.probabilistic(1.0), sim)
        s = report.per_source[0]
        assert abs(s.time_avg_aoi - 2.0) < max(2 * s.aoi_ci_halfwidth, 0.04)
        assert abs(s.interdeparture_mean - 2.0) < max(
            2 * s.interdeparture_ci_halfwidth, 0.04
        )

    def test_grid_means_within_band(self):
        # a few representative configs: simulated AoI and peak age within
        # max(2%, CI) of the analytic values
        cases = [
            SystemConfig((1.0, 2.0), 0.5, Exponential(1.5)),
            SystemConfig((2.0, 6.0), 0.28, LogNormal(-1.0, 1.0)),
            SystemConfig((1.0,), 0.0, Deterministic(0.8)),
            SystemConfig((0.7, 1.1, 0.4), 1.0, Exponential(2.0)),
        ]
        sim = SimConfig(seed=6, horizon=3e4, warmup_fraction=0.1, replications=4)
        for cfg in cases:
            report = run(cfg, Policy.probabilistic(cfg.theta), sim, workers=2)
            for c in range(cfg.num_sources):
                m = moments(cfg, c, 1)
                s = report.per_source[c]
                band = max(0.02 * m.mean_aoi, s.aoi_ci_halfwidth)
                assert abs(s.time_avg_aoi - m.mean_aoi) <= band, (cfg, c)
                band = max(0.02 * m.mean_paoi, s.paoi_ci_halfwidth)
                assert abs(s.paoi_mean - m.mean_paoi) <= band, (cfg, c)

    @pytest.mark.parametrize(
        "cfg",
        [TWO_EXP, SystemConfig((2.0, 6.0), 0.28, LogNormal(-1.0, 1.0))],
        ids=["two_exp", "paper"],
    )
    def test_second_moments_within_band(self, cfg):
        # the CSV's aoi_m2 and paoi_m2 columns against the closed forms.
        # Over seeds 1-40 of this run size, on both systems, the largest
        # relative gaps were 3.6% (aoi_m2) and 2.3% (paoi_m2); the bands
        # are a little over twice that
        sim = SimConfig(seed=6, horizon=3e4, warmup_fraction=0.1, replications=4)
        report = run(cfg, Policy.probabilistic(cfg.theta), sim, workers=2)
        for c in range(cfg.num_sources):
            m = moments(cfg, c, 2)
            s = report.per_source[c]
            assert s.time_avg_aoi_sq == pytest.approx(m.aoi_moments[1], rel=0.075), c
            assert s.paoi_moments[1] == pytest.approx(m.paoi_moments[1], rel=0.05), c

    def test_system_time_mgf_pointwise(self):
        cfg = TWO_EXP
        sim = SimConfig(seed=8, horizon=3e4, warmup_fraction=0.05)
        report = run(cfg, Policy.probabilistic(cfg.theta), sim)
        s_val = -0.7
        want = mgf_point_eval(cfg, 0, s_val, Transform.SYSTEM_TIME)
        est, se = empirical_mgf(report.per_source[0].system_times, s_val)
        assert abs(est - want) < 3 * se

    def test_aoi_mgf_pointwise(self):
        # stationary-AoI transform against the exact per-segment sawtooth
        # integral of e^{s * age}
        cfg = TWO_EXP
        sim = SimConfig(seed=13, horizon=6e4, warmup_fraction=0.05)
        report = run(cfg, Policy.probabilistic(cfg.theta), sim)
        s_val = -0.5
        want = mgf_point_eval(cfg, 0, s_val, Transform.AOI)
        est, se = empirical_aoi_mgf(report.per_source[0].delivery_records, s_val)
        assert abs(est - want) < 3 * se


class TestEmpiricalMgf:
    def test_normalization(self):
        est, se = empirical_mgf(np.ones(200), 0.0)
        assert est == 1.0 and se == 0.0

    def test_degenerate_samples(self):
        est, se = empirical_mgf(np.full(150, 2.0), -1.0)
        assert est == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert se == 0.0

    def test_exponential_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.exponential(1.0, 1_000_000)
        est, se = empirical_mgf(x, -1.0)
        assert abs(est - 0.5) < 3 * se

    def test_positive_exponent_rejected(self):
        with pytest.raises(PositiveExponentRejected):
            empirical_mgf(np.ones(200), 0.1)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientSamples):
            empirical_mgf(np.ones(50), -1.0)


@pytest.fixture(scope="module")
def report():
    sim = SimConfig(seed=17, delivered_per_source=30_000, warmup_fraction=0.0)
    return run(TWO_EXP, Policy.probabilistic(0.5), sim)


class TestEmpiricalChecks:
    def test_all_pass_on_matched_run(self, report):
        summary = empirical_checks(report, TWO_EXP, Policy.probabilistic(0.5))
        assert summary.all_passed, summary.failures()
        names = {r.name for r in summary.results}
        assert "source0:system_time_fit" in names
        assert "source1:preemption_rate" in names

    def test_delivery_fraction_example(self, report):
        # unit-rate exponential with preemption rate 1: delivery odds 1/2
        cfg = SystemConfig((2.0, 1.0), 0.5, Exponential(1.0))
        sim = SimConfig(seed=18, delivered_per_source=20_000, warmup_fraction=0.0)
        rep = run(cfg, Policy.probabilistic(0.5), sim)
        s = rep.per_source[0]
        frac = s.delivered / (s.delivered + s.preempted)
        assert frac == pytest.approx(0.5, abs=0.01)
        summary = empirical_checks(rep, cfg, Policy.probabilistic(0.5))
        assert summary.all_passed, summary.failures()

    def test_mismatched_theory_fails(self, report):
        # same run checked against a wrong preemption probability: the
        # delivery-probability and preemption-rate checks must trip
        wrong = empirical_checks(report, TWO_EXP, Policy.probabilistic(0.9))
        failed = {r.name for r in wrong.failures()}
        assert any("delivery_probability" in n for n in failed)
        assert any("preemption_rate" in n for n in failed)

    def test_non_probabilistic_rejected(self, report):
        with pytest.raises(InvalidConfig):
            empirical_checks(report, TWO_EXP, Policy.self_preemptive())

    def test_insufficient_samples(self):
        tiny = run(TWO_EXP, Policy.probabilistic(0.5), small_sim(horizon=200.0))
        with pytest.raises(InsufficientSamples):
            empirical_checks(tiny, TWO_EXP, Policy.probabilistic(0.5))

    def test_deterministic_density_skipped(self):
        cfg = SystemConfig((1.0, 1.0), 0.5, Deterministic(0.5))
        sim = SimConfig(seed=19, delivered_per_source=15_000, warmup_fraction=0.0)
        rep = run(cfg, Policy.probabilistic(0.5), sim)
        summary = empirical_checks(rep, cfg, Policy.probabilistic(0.5))
        fits = [r for r in summary.results if "system_time_fit" in r.name]
        assert all(r.status == "skip" for r in fits)
        assert summary.all_passed

    def test_theta_zero_tilt_reduces_to_plain_law(self):
        # no preemption: system times are plain service draws
        cfg = SystemConfig((1.0, 1.0), 0.0, LogNormal(-0.5, 0.7))
        sim = SimConfig(seed=23, delivered_per_source=12_000, warmup_fraction=0.0)
        rep = run(cfg, Policy.probabilistic(0.0), sim)
        summary = empirical_checks(rep, cfg, Policy.probabilistic(0.0))
        assert summary.all_passed, summary.failures()


REFERENCE_SYSTEMS = {
    "one-exp": SystemConfig((1.5,), 0.5, Exponential(1.0)),
    "two-gamma": SystemConfig((1.0, 2.0), 0.5, Gamma(2.0, 3.0)),
    "two-det": SystemConfig((1.5, 1.0), 0.5, Deterministic(0.4)),
    "sixteen-lognormal": SystemConfig((0.5,) * 16, 0.3, LogNormal(-1.5, 0.8)),
}
EVERY_POLICY = [
    Policy.probabilistic(0.4),
    Policy.probabilistic(0.0),
    Policy.probabilistic(1.0),
    Policy.non_preemptive(),
    Policy.self_preemptive(),
    Policy.globally_preemptive(),
]
REFERENCE_RUNS = {
    "horizon": SimConfig(seed=11, horizon=600.0, warmup_fraction=0.1),
    "horizon-3reps-no-warmup": SimConfig(
        seed=12, horizon=200.0, warmup_fraction=0.0, replications=3
    ),
    "count": SimConfig(seed=13, delivered_per_source=250, warmup_fraction=0.1),
    "count-3reps-no-warmup": SimConfig(
        seed=14, delivered_per_source=80, warmup_fraction=0.0, replications=3
    ),
}


def _same_report(a, b):
    return a.stats_identical(b) and np.array_equal(a.deliveries, b.deliveries, equal_nan=True)


class TestAgainstReference:
    # the attempt-level core against a plain one-event-at-a-time loop:
    # every statistic, reservoir and dumped delivery bit for bit. A
    # capacity of 200 sends the reservoirs past capacity
    @pytest.mark.parametrize("stop", REFERENCE_RUNS.values(), ids=REFERENCE_RUNS.keys())
    @pytest.mark.parametrize("policy", EVERY_POLICY, ids=lambda p: p.label())
    @pytest.mark.parametrize("cfg", REFERENCE_SYSTEMS.values(), ids=REFERENCE_SYSTEMS.keys())
    def test_bit_identical(self, monkeypatch, cfg, policy, stop):
        monkeypatch.setattr(sim_mod, "RESERVOIR_CAPACITY", 200)
        got = run(cfg, policy, stop, collect_deliveries=True)
        want = reference_run(cfg, policy, stop, collect_deliveries=True)
        assert _same_report(got, want)
        for s in got.per_source:
            assert s.arrivals == s.delivered + s.preempted + s.discarded + s.in_flight

    def test_past_capacity_reached(self, monkeypatch):
        monkeypatch.setattr(sim_mod, "RESERVOIR_CAPACITY", 200)
        report = run(REFERENCE_SYSTEMS["two-gamma"], EVERY_POLICY[0], REFERENCE_RUNS["count"])
        assert all(len(s.system_times) == 200 for s in report.per_source)
        assert all(s.delivered > 220 for s in report.per_source)


class TestBlockSeams:
    # a block of 7 puts a seam between draws, attempts and statistics
    # every few events; the reports must not see it
    @pytest.mark.parametrize(
        "stop",
        [
            SimConfig(seed=21, horizon=400.0),
            SimConfig(seed=22, delivered_per_source=120, warmup_fraction=0.2),
        ],
        ids=["horizon", "count"],
    )
    @pytest.mark.parametrize("policy", EVERY_POLICY, ids=lambda p: p.label())
    def test_tiny_blocks_change_nothing(self, monkeypatch, policy, stop):
        cfg = SystemConfig((0.7, 1.1, 0.4), 0.5, Exponential(2.0))
        want = run(cfg, policy, stop, collect_deliveries=True)
        monkeypatch.setattr(sim_mod, "_BLOCK", 7)
        got = run(cfg, policy, stop, collect_deliveries=True)
        assert _same_report(got, want)


class TestRunLog:
    def test_one_debug_record_per_replication(self, caplog):
        sim = small_sim(horizon=500.0, replications=2)
        with caplog.at_level(logging.DEBUG, logger="aoiq.sim"):
            report = run(TWO_EXP, Policy.probabilistic(0.5), sim)
        records = [r for r in caplog.records if r.name == "aoiq.sim"]
        assert [r.levelno for r in records] == [logging.DEBUG] * 2
        assert [r.replication for r in records] == [0, 1]
        total = sum(s.arrivals for s in report.per_source)
        assert sum(r.arrivals for r in records) == total
        assert sum(r.attempts for r in records) == sum(
            s.entered_service for s in report.per_source
        )
        assert sum(r.deliveries for r in records) == sum(s.delivered for s in report.per_source)
        for r in records:
            assert r.blocks >= 1 and r.seconds > 0
            assert "arrivals/s" in r.getMessage()
