import dataclasses
import functools
import logging
import math

import numpy as np
import pytest
from scipy import stats as sps

from aoiq import (
    Deterministic,
    Exponential,
    Gamma,
    InsufficientSamples,
    LogNormal,
    Policy,
    PolicyKind,
    SimConfig,
    SystemConfig,
    empirical_checks,
    moments,
    run,
)
from aoiq import sim as sim_mod
from aoiq.analytic import GloballyPreemptiveConfig, Transform, mgf_point_eval
from aoiq.sim import InvalidConfig, SourceStats, _fit_points, _simulate_once
from grid_helpers import bonferroni
from sim_reference import arrival_loop, reference_run

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

    @pytest.mark.parametrize("call, message", [
        (lambda: SimConfig(seed=1, delivered_per_source=0),
         "delivered_per_source must be positive, got 0"),
        (lambda: run(TWO_EXP, "probabilistic", small_sim()), "not a policy: 'probabilistic'"),
        # M_U(-750) underflows to 0: source 0 would never deliver, and the run never end
        (lambda: run(SystemConfig((750.0, 1.0), 1.0, Deterministic(1.0)), Policy.probabilistic(1.0),
                     SimConfig(seed=1, delivered_per_source=10)),
         "source 0 never reaches delivered_per_source = 10: "
         "its delivery probability M_U(-750.0) underflows to 0"),
        (lambda: run(SystemConfig((750.0, 1.0), 0.0, Deterministic(1.0)),
                     Policy.globally_preemptive(), SimConfig(seed=1, delivered_per_source=10)),
         "source 0 never reaches delivered_per_source = 10: "
         "its delivery probability M_U(-751.0) underflows to 0"),
    ], ids=["no deliveries asked", "not a policy", "undeliverable", "undeliverable global"])
    def test_invalid_run_rejected(self, call, message):
        with pytest.raises(InvalidConfig) as info:
            call()
        assert str(info.value) == message

    def test_undeliverable_source_under_the_time_rule_runs(self, report):
        cfg = SystemConfig((750.0, 1.0), 1.0, Deterministic(1.0))
        starved = run(cfg, Policy.probabilistic(1.0), small_sim(horizon=2.0))
        assert starved.per_source[0].delivered == 0
        # M_U(-750) underflows, so E[T] = M_U'(-750) / M_U(-750) is 0 / 0: the fit
        # point is 0, not NaN, the tally's sums stay finite, and no T is counted
        points = _fit_points(starved.system)
        assert points.tolist() == [0.0, -0.5]
        assert np.isfinite(_simulate_once(starved.system, starved.sim, 0, points, False).sums).all()
        point, n, *means = starved.per_source[0].system_time_transform
        assert (point, n) == (0.0, 0) and all(map(math.isnan, means))
        # that source's field in a matched run: its fit skips, the other's verdict stands
        first, second = report.per_source
        swapped = dataclasses.replace(first, system_time_transform=(point, n, *means))
        fits = [[r for r in empirical_checks(dataclasses.replace(report, per_source=(s, second)),
                                             TWO_EXP, MATCHED, min_samples=0).results
                 if r.name.endswith("system_time_fit")] for s in (first, swapped)]
        assert fits[1][0].status == "skip" and fits[0][0].status == "pass"
        assert fits[1][1] == fits[0][1] and fits[0][1].status == "pass"

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
            ("seed", 1.5),
            ("seed", True),
            ("seed", None),
            ("batches", None),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        kw = {"seed": 1, "horizon": 10.0, field: value}
        if field == "delivered_per_source":
            kw.pop("horizon")
        with pytest.raises(InvalidConfig):
            SimConfig(**kw)

    @pytest.mark.parametrize("seed", [-1, -3, -(2**63), 2**64])
    def test_seed_outside_the_seed_sequence_range(self, seed):
        # SeedSequence takes entropy in [0, 2**64) here, no negative one
        with pytest.raises(InvalidConfig, match="seed"):
            SimConfig(seed=seed, horizon=100.0)

    def test_largest_seed_runs(self):
        report = run(ANCHOR, Policy.probabilistic(1.0), SimConfig(seed=2**64 - 1, horizon=100.0))
        assert report.per_source[0].delivered > 0

    def test_numpy_integer_counts_accepted(self):
        sim = SimConfig(seed=1, delivered_per_source=np.int64(5), replications=np.int32(2))
        assert sim.replications == 2

    def test_policy_validation(self):
        with pytest.raises(InvalidConfig):
            Policy.probabilistic(1.5)
        with pytest.raises(InvalidConfig):
            Policy(PolicyKind.NON_PREEMPTIVE, theta=0.5)

    @pytest.mark.parametrize(
        "kind, theta",
        [
            (PolicyKind.PROBABILISTIC, 0.3),
            (PolicyKind.NON_PREEMPTIVE, 0.0),
            (PolicyKind.SELF_PREEMPTIVE, 1.0),
            (PolicyKind.GLOBALLY_PREEMPTIVE, None),
        ],
    )
    def test_policy_of_kind(self, kind, theta):
        # only the probabilistic policy takes the spec's theta; each policy acts
        # as the probabilistic system at its theta, or as global preemption
        policy = Policy.of(kind, 0.3)
        assert policy.kind is kind
        rates, law = TWO_EXP.arrival_rates, TWO_EXP.service
        want = (GloballyPreemptiveConfig(rates, law) if theta is None
                else SystemConfig(rates, theta, law))
        assert policy.system(TWO_EXP) == want


def _policy_id(policy):
    if policy.kind is PolicyKind.PROBABILISTIC:
        return f"probabilistic(theta={policy.theta:g})"
    return policy.kind.value


class TestCounters:
    @pytest.mark.parametrize(
        "policy",
        [
            Policy.probabilistic(0.3),
            Policy.non_preemptive(),
            Policy.self_preemptive(),
            Policy.globally_preemptive(),
        ],
        ids=_policy_id,
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
        report = run(TWO_EXP, Policy.probabilistic(0.4), small_sim(horizon=20000.0),
                     collect_deliveries=True)
        for c, s in enumerate(report.per_source):
            assert s.time_avg_aoi >= report.deliveries[report.deliveries[:, 0] == c, 3].mean()

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


class TestStatsIdenticalEdges:
    def test_one_dump_cell_counts(self):
        report = run(TWO_EXP, Policy.probabilistic(0.5), small_sim(horizon=1000.0),
                     collect_deliveries=True)
        dump = report.deliveries.copy()  # the first delivery of each source has NaN Y and A
        assert np.isnan(dump).any()
        assert report.stats_identical(dataclasses.replace(report, deliveries=dump.copy()))
        dump[3, 2] += 1.0
        assert not report.stats_identical(dataclasses.replace(report, deliveries=dump))
        assert not report.stats_identical(dataclasses.replace(report, deliveries=None))

    def test_nan_statistics_equal_themselves(self):
        # a source with no delivery has NaN means, and so has the sum-AoI CI
        cfg = SystemConfig((1.0, 0.01), 0.5, Exponential(1.5))
        report = run(cfg, Policy.probabilistic(0.5), small_sim(seed=1, horizon=20.0))
        assert math.isnan(report.per_source[1].time_avg_aoi)
        assert math.isnan(report.sum_aoi_ci_halfwidth)
        assert report.stats_identical(report)


def counted_rows(report, c):
    """Source c's rows of the delivery dump of a run made with
    ``collect_deliveries=True``, and the mask of its counted deliveries with a
    previous one in their replication. A NaN Y marks a replication's first
    delivery, where the per-replication delivery index of the count rule
    restarts."""
    sim = report.sim
    rows = report.deliveries[report.deliveries[:, 0] == c]
    fresh = np.isnan(rows[:, 4])
    if sim.horizon is not None:
        counted = rows[:, 2] > sim.warmup_fraction * sim.horizon
    else:
        pos = np.arange(len(rows))
        idx = pos - np.maximum.accumulate(np.where(fresh, pos, 0)) + 1
        counted = idx > int(round(sim.warmup_fraction * sim.delivered_per_source))
    return rows, counted & ~fresh


def dump_records(report, c):
    """Source c's (prev T, Y, peak) records, one per delivery ``counted_rows`` marks."""
    rows, keep = counted_rows(report, c)
    return np.column_stack((rows[:-1, 3], rows[1:, 4], rows[1:, 5]))[keep[1:]]


class PositiveExponentRejected(ValueError):
    """Empirical MGF requested at s > 0, where summands are unbounded."""


def empirical_mgf(samples, s: float) -> tuple[float, float]:
    """Sample mean and standard error of exp(s * x) for s <= 0."""
    if s > 0:
        raise PositiveExponentRejected(f"empirical MGF requires s <= 0, got {s}")
    x = np.asarray(samples, dtype=float)
    if x.size < 100:
        raise InsufficientSamples(f"need >= 100 samples, got {x.size}")
    vals = np.exp(s * x)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(x.size))


def empirical_aoi_mgf(records: np.ndarray, s: float, groups: int = 20) -> tuple[float, float]:
    """Stationary-AoI MGF estimate from delivery records, plus standard error.

    ``records`` has one row per segment of the sawtooth: the previous
    delivery's system time, the interdeparture time and the peak age, as
    ``dump_records`` builds them from a delivery dump.
    Over one sawtooth segment the age runs linearly from the previous
    system time up to the peak, so the time integral of exp(s * age) has a
    closed form per record; the estimate is a ratio of segment sums and
    its error comes from grouped batch means.
    """
    rec = np.asarray(records, dtype=float)
    if rec.ndim != 2 or rec.shape[1] != 3:
        raise ValueError("records must have columns (prev system time, interdep, peak)")
    if rec.shape[0] < groups * 2:
        raise InsufficientSamples(f"need >= {groups * 2} records, got {rec.shape[0]}")
    if s == 0.0:
        return 1.0, 0.0
    prev_t, y, peak = rec[:, 0], rec[:, 1], rec[:, 2]
    vals = (np.exp(s * peak) - np.exp(s * prev_t)) / s
    est = float(np.sum(vals) / np.sum(y))
    idx = np.arange(rec.shape[0]) * groups // rec.shape[0]
    ratios = np.array(
        [np.sum(vals[idx == g]) / np.sum(y[idx == g]) for g in range(groups)]
    )
    se = float(np.std(ratios, ddof=1) / math.sqrt(groups))
    return est, se


class TestSampleIdentities:
    def test_paoi_identity_exact(self):
        # every recorded peak equals previous system time plus the
        # interdeparture gap, bit for bit
        report = run(TWO_EXP, Policy.probabilistic(0.7), small_sim(), collect_deliveries=True)
        for c in range(TWO_EXP.num_sources):
            rec = dump_records(report, c)
            assert rec.shape[0] > 100
            assert np.all(rec[:, 0] + rec[:, 1] == rec[:, 2])

    def test_sawtooth_area_consistency(self):
        # with no warmup, accumulated area between first and last delivery
        # equals the closed form from the recorded samples
        cfg = SystemConfig((0.8,), 1.0, Exponential(1.0))
        report = run(cfg, Policy.probabilistic(1.0), small_sim(warmup_fraction=0.0),
                     collect_deliveries=True)
        s = report.per_source[0]
        rec = dump_records(report, 0)
        want_between = float(np.sum(rec[:, 0] * rec[:, 1] + 0.5 * rec[:, 1] ** 2))
        end, measure_from, area, last_del, last_t = s.rep_windows[0]
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

    def test_records_stay_within_a_replication(self):
        # each replication's records, built from its own stretch of the
        # dump, and nothing that pairs one replication's last delivery with
        # the next one's first
        sim = SimConfig(seed=5, delivered_per_source=600, warmup_fraction=0.1, replications=3)
        report = run(TWO_EXP, Policy.probabilistic(0.5), sim, collect_deliveries=True)
        for c in range(TWO_EXP.num_sources):
            rows = report.deliveries[report.deliveries[:, 0] == c]
            starts = np.flatnonzero(np.isnan(rows[:, 4]))
            assert len(starts) == sim.replications
            # a replication's i-th delivery (from 1) counts past the 60 warm
            # ones and holds its record i - 2 (from 0)
            want = [np.column_stack((r[:-1, 3], r[1:, 4], r[1:, 5]))[60 - 1:]
                    for r in np.split(rows, starts[1:])]
            assert all(len(w) > 400 for w in want)
            assert np.array_equal(dump_records(report, c), np.concatenate(want))

    def test_count_stop_rule(self):
        sim = SimConfig(seed=4, delivered_per_source=500, warmup_fraction=0.0)
        report = run(TWO_EXP, Policy.probabilistic(0.5), sim)
        assert all(s.delivered >= 500 for s in report.per_source)
        assert min(s.delivered for s in report.per_source) == 500


class TestAccumulatorsMatchReservoirs:
    # the dump holds every delivery, so the running sums behind the reported
    # interdeparture mean, PAoI moments and system-time transform must
    # reproduce the sample averages up to summation rounding
    @pytest.mark.parametrize("replications", [1, 3])
    @pytest.mark.parametrize(
        "stop",
        [{"horizon": 4000.0}, {"delivered_per_source": 3000}],
        ids=["horizon", "delivered"],
    )
    def test_sums_match_samples(self, stop, replications):
        sim = SimConfig(seed=5, replications=replications, **stop)
        report = run(TWO_EXP, Policy.probabilistic(0.5), sim, collect_deliveries=True)
        for c, s in enumerate(report.per_source):
            assert s.delivered > 1000
            rec = dump_records(report, c)
            assert rec[:, 1].mean() == pytest.approx(s.interdeparture_mean, rel=1e-12)
            assert rec[:, 2].mean() == pytest.approx(s.paoi_moments[0], rel=1e-12)
            assert (rec[:, 2] ** 2).mean() == pytest.approx(s.paoi_moments[1], rel=1e-12)
            # at s = -1 / (2 E[T]), T ~ Exp(1.5 + r_c) for exponential service
            point, n, *means = s.system_time_transform
            assert point == pytest.approx(-0.5 * (1.5 + TWO_EXP.preemption_rates[c]), rel=1e-15)
            rows, keep = counted_rows(report, c)
            assert n == len(rec) == np.count_nonzero(keep)
            want = [np.exp(k * point * rows[keep, 3]).mean() for k in (1, 2, 4)]
            assert means == pytest.approx(want, rel=1e-12)


class TestSystemTimeSample:
    # the counted system times reach the report as (s, n, and the means of
    # e^(sT), e^(2sT), e^(4sT)); a source without one has n = 0 and no means
    def test_no_counted_delivery_leaves_an_empty_sample(self):
        cfg = SystemConfig((1.0, 0.01), 0.5, Exponential(1.5))
        report = run(cfg, Policy.probabilistic(0.5), small_sim(seed=1, horizon=20.0, replications=2))
        assert report.per_source[1].delivered == 0
        point, n, *means = report.per_source[1].system_time_transform
        assert point == pytest.approx(-0.5 * (1.5 + 0.005), rel=1e-15)
        assert n == 0 and all(map(math.isnan, means))
        assert report.per_source[0].system_time_transform[1] > 0


class TestBatchCounts:
    # with no warmup every delivery counts; the within-run batches of Y and
    # the peak age must hold exactly the samples behind the reported means
    @pytest.mark.parametrize(
        "stop",
        [{"horizon": 4000.0}, {"delivered_per_source": 3000}],
        ids=["horizon", "delivered"],
    )
    def test_batches_total_the_sums(self, stop):
        sim = SimConfig(seed=5, warmup_fraction=0.0, **stop)
        rep = _simulate_once(TWO_EXP, sim, 0, _fit_points(TWO_EXP), False)
        for c in range(TWO_EXP.num_sources):
            y_sum, a_sum, cnt = rep.batch[c, :3].sum(axis=1)
            ya_n, y_total, a_total, _ = rep.sums[c, :4]
            assert cnt == ya_n
            assert y_sum == pytest.approx(y_total, rel=1e-12)
            assert a_sum == pytest.approx(a_total, rel=1e-12)


def anchor_gate(seed):
    """The single-source anchor's AoI and interdeparture mean at one seed."""
    sim = SimConfig(seed=seed, horizon=2e5, warmup_fraction=0.1, batches=20)
    s = run(ANCHOR, Policy.probabilistic(1.0), sim).per_source[0]
    ok = abs(s.time_avg_aoi - 2.0) < max(2 * s.aoi_ci_halfwidth, 0.04) and abs(
        s.interdeparture_mean - 2.0
    ) < max(2 * s.interdeparture_ci_halfwidth, 0.04)
    return ok, (f"AoI {s.time_avg_aoi:.4f}+-{s.aoi_ci_halfwidth:.4f}, "
                f"Y {s.interdeparture_mean:.4f}+-{s.interdeparture_ci_halfwidth:.4f}")


GRID_CASES = [
    SystemConfig((1.0, 2.0), 0.5, Exponential(1.5)),
    SystemConfig((2.0, 6.0), 0.28, LogNormal(-1.0, 1.0)),
    SystemConfig((1.0,), 0.0, Deterministic(0.8)),
    SystemConfig((0.7, 1.1, 0.4), 1.0, Exponential(2.0)),
]


def grid_gate(seed):
    """Simulated AoI and peak age of a few representative configs within
    max(2%, CI) of the analytic values, at one seed."""
    sim = SimConfig(seed=seed, horizon=3e4, warmup_fraction=0.1, replications=4)
    misses = []
    for i, cfg in enumerate(GRID_CASES):
        report = run(cfg, Policy.probabilistic(cfg.theta), sim, workers=2)
        for c in range(cfg.num_sources):
            m = moments(cfg, c, 1)
            s = report.per_source[c]
            for what, got, want, hw in (("aoi", s.time_avg_aoi, m.mean_aoi, s.aoi_ci_halfwidth),
                                        ("paoi", s.paoi_moments[0], m.mean_paoi, s.paoi_ci_halfwidth)):
                if abs(got - want) > max(0.02 * want, hw):
                    misses.append(f"case {i} source {c} {what}: {got:.4f} vs {want:.4f}")
    return not misses, "; ".join(misses) or "all within band"


def second_moment_gate(cfg, seed):
    """The CSV's aoi_m2 and paoi_m2 columns against the closed forms.
    Over seeds 1-40 of this run size, on both systems, the largest
    relative gaps were 3.6% (aoi_m2) and 2.3% (paoi_m2); the bands
    are a little over twice that. The episode sampler's largest gaps
    over seeds 1-50 were 3.9% and 2.7%."""
    sim = SimConfig(seed=seed, horizon=3e4, warmup_fraction=0.1, replications=4)
    report = run(cfg, Policy.probabilistic(cfg.theta), sim, workers=2)
    gaps = []
    for c in range(cfg.num_sources):
        m = moments(cfg, c, 2)
        s = report.per_source[c]
        gaps.append((abs(s.time_avg_aoi_sq - m.aoi_moments[1]) / m.aoi_moments[1],
                     abs(s.paoi_moments[1] - m.paoi_moments[1]) / m.paoi_moments[1]))
    ok = all(a <= 0.075 and p <= 0.05 for a, p in gaps)
    return ok, "relative gaps (aoi_m2, paoi_m2) " + ", ".join(f"({a:.4f}, {p:.4f})" for a, p in gaps)


def system_time_mgf_gate(seed):
    """Source 0's mean of e^(sT) at the run's s against the closed form, its
    standard error from the mean of e^(2sT)."""
    sim = SimConfig(seed=seed, horizon=3e4, warmup_fraction=0.05)
    report = run(TWO_EXP, Policy.probabilistic(TWO_EXP.theta), sim)
    s, n, est, second, _ = report.per_source[0].system_time_transform
    want = mgf_point_eval(TWO_EXP, 0, s, Transform.SYSTEM_TIME)
    se = math.sqrt((second - est * est) / n)
    return abs(est - want) < 3 * se, f"z = {(est - want) / se:.2f}"


def aoi_mgf_gate(seed):
    """The stationary-AoI transform against the exact per-segment sawtooth
    integral of e^{s * age}."""
    sim = SimConfig(seed=seed, horizon=6e4, warmup_fraction=0.05)
    report = run(TWO_EXP, Policy.probabilistic(TWO_EXP.theta), sim, collect_deliveries=True)
    want = mgf_point_eval(TWO_EXP, 0, -0.5, Transform.AOI)
    est, se = empirical_aoi_mgf(dump_records(report, 0), -0.5)
    return abs(est - want) < 3 * se, f"z = {(est - want) / se:.2f}"


PAPER = SystemConfig((2.0, 6.0), 0.28, LogNormal(-1.0, 1.0))


def global_gate(seed):
    """Globally preemptive runs of the paper system and TWO_EXP against the
    closed form with every source preempted at the total rate: each source's
    mean AoI and peak AoI, 8 claims from 10 replication means each, at a
    family-wise false-alarm rate of 1% (Bonferroni t intervals)."""
    sim = SimConfig(seed=seed, horizon=2e4, warmup_fraction=0.1, replications=10)
    df = sim.replications - 1
    scale = bonferroni(0.01, 8, df) / bonferroni(0.05, 1, df)
    misses, worst = [], 0.0
    for name, cfg in (("paper", PAPER), ("two_exp", TWO_EXP)):
        report = run(cfg, Policy.globally_preemptive(), sim)
        exact = GloballyPreemptiveConfig(cfg.arrival_rates, cfg.service)
        for c, s in enumerate(report.per_source):
            m = moments(exact, c, 1)
            for what, got, want, hw in (("aoi", s.time_avg_aoi, m.mean_aoi, s.aoi_ci_halfwidth),
                                        ("paoi", s.paoi_moments[0], m.mean_paoi, s.paoi_ci_halfwidth)):
                worst = max(worst, abs(got - want) / hw)
                if abs(got - want) > scale * hw:
                    misses.append(f"{name} source {c} {what}: {got:.4f}+-{hw:.4f} vs {want:.4f}")
    return not misses, "; ".join(misses) or f"largest gap {worst:.2f} of {scale:.2f} half-widths"


def policy_checks_gate(seed):
    """``empirical_checks`` on runs of the paper system and TWO_EXP under the
    non-, self- and globally preemptive policies, each against the system it
    acts as: 6 runs of 12,000 deliveries a source, 48 checks, at one seed."""
    sim = SimConfig(seed=seed, delivered_per_source=12_000, warmup_fraction=0.0)
    misses, count = [], 0
    for name, cfg in (("paper", PAPER), ("two_exp", TWO_EXP)):
        for policy in (Policy.non_preemptive(), Policy.self_preemptive(),
                       Policy.globally_preemptive()):
            results = empirical_checks(run(cfg, policy, sim), cfg, policy).results
            count += sum(r.status != "skip" for r in results)
            misses += [f"{name} {policy.kind.value} {r.name}: {r.discrepancy:.3g} > {r.tolerance:.3g}"
                       for r in results if r.status == "fail"]
    return not misses, "; ".join(misses) or f"{count} checks passed"


class TestAgainstAnalytic:
    # each gate's seed is fixed here; tests/gate_rates.py reruns them over seeds
    def test_anchor_aoi_and_interdeparture(self):
        ok, detail = anchor_gate(21)
        assert ok, detail

    def test_grid_means_within_band(self):
        ok, detail = grid_gate(6)
        assert ok, detail

    @pytest.mark.parametrize("cfg", [TWO_EXP, PAPER], ids=["two_exp", "paper"])
    def test_second_moments_within_band(self, cfg):
        ok, detail = second_moment_gate(cfg, 6)
        assert ok, detail

    def test_system_time_mgf_pointwise(self):
        ok, detail = system_time_mgf_gate(8)
        assert ok, detail

    def test_aoi_mgf_pointwise(self):
        ok, detail = aoi_mgf_gate(13)
        assert ok, detail

    def test_globally_preemptive_means_within_band(self):
        ok, detail = global_gate(17)
        assert ok, detail


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


MATCHED = Policy.probabilistic(0.5)


def transform_of(draws, point):
    """The ``system_time_transform`` of system times ``draws`` at fit point s = ``point``."""
    e = np.exp(point * draws)
    return point, draws.size, e.mean(), (e * e).mean(), np.square(e * e).mean()


def matched_run(seed):
    """TWO_EXP at theta = 0.5, 30,000 deliveries a source."""
    return run(TWO_EXP, MATCHED, SimConfig(seed=seed, delivered_per_source=30_000, warmup_fraction=0.0))


def matched_checks_gate(seed, report=None):
    """``empirical_checks`` of ``matched_run(seed)`` (or of ``report``, that
    run) against its own system: 8 checks at one seed."""
    results = empirical_checks(report or matched_run(seed), TWO_EXP, MATCHED).results
    misses = [f"{r.name}: {r.discrepancy:.3g} > {r.tolerance:.3g}" for r in results if r.status == "fail"]
    return not misses, "; ".join(misses) or f"{len(results)} checks passed"


def long_fit_gate(seed):
    """``system_time_fit`` of one replication of the paper system at horizon
    1.5e5, each source's fit against its own system: source 1 sums about
    145,000 counted system times, past the 100,000 a run once kept."""
    policy = Policy.probabilistic(PAPER.theta)
    report = run(PAPER, policy, SimConfig(seed=seed, horizon=1.5e5))
    fits = [r for r in empirical_checks(report, PAPER, policy).results
            if r.name.endswith("system_time_fit")]
    n = report.per_source[1].system_time_transform[1]
    return n > 100_000 and all(r.status == "pass" for r in fits), (
        f"source 1 n={n}; " + ", ".join(f"{r.name} {r.discrepancy:.2f}" for r in fits))


@pytest.fixture(scope="module")
def report():
    return matched_run(17)


class TestEmpiricalChecks:
    def test_all_pass_on_matched_run(self, report):
        ok, detail = matched_checks_gate(17, report)
        assert ok, detail
        names = {r.name for r in empirical_checks(report, TWO_EXP, MATCHED).results}
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

    def test_every_policy_passes(self, report):
        # each policy's run is checked against the system it acts as
        assert empirical_checks(report, TWO_EXP, Policy.probabilistic(0.5)).all_passed
        ok, detail = policy_checks_gate(3)
        assert ok, detail

    @pytest.mark.parametrize("policy", [
        Policy.probabilistic(0.3), Policy.non_preemptive(), Policy.self_preemptive(),
        Policy.globally_preemptive()], ids=_policy_id)
    def test_report_carries_the_system_it_acted_as(self, policy):
        got = run(TWO_EXP, policy, small_sim(horizon=50.0)).system
        assert got == policy.system(TWO_EXP)
        assert type(got) is type(policy.system(TWO_EXP))

    def test_too_few_service_entries(self, report):
        starved = dataclasses.replace(report, per_source=(
            report.per_source[0], dataclasses.replace(report.per_source[1], entered_service=9_999)))
        with pytest.raises(InsufficientSamples, match="service entries for source 1, got 9999"):
            empirical_checks(starved, TWO_EXP, Policy.probabilistic(0.5))

    def test_rate_check_skips_under_100_expected_preemptions(self, report):
        # exposure 90 at r_1 = theta * lambda_1 = 1 expects 90 preemptions
        short = dataclasses.replace(report, per_source=(
            report.per_source[0], dataclasses.replace(report.per_source[1], busy_time=90.0)))
        result = {r.name: r for r in empirical_checks(short, TWO_EXP, Policy.probabilistic(0.5)).results}
        check = result["source1:preemption_rate"]
        assert (check.status, check.discrepancy, check.tolerance) == ("skip", 90.0, 100.0)
        assert check.detail == "expected preemption count too small for a rate test"
        assert check.passed

    def test_fit_past_the_old_cap(self):
        ok, detail = long_fit_gate(5)
        assert ok, detail

    def test_fit_tolerance_is_the_chi_square_quantile(self):
        import mpmath

        p = mpmath.mpf(1.0 - 1e-3)  # the level as a float, exactly
        with mpmath.workdps(40):
            want = 2 * mpmath.findroot(
                lambda x: mpmath.gammainc(1.5, 0, x, regularized=True) - p, 8)
        assert sim_mod._FIT_TOLERANCE == float(want) == 16.26623619623813

    def test_fit_against_exact_exponential_draws(self, report):
        # for exponential service the delivered system time is Exp(mu + r_c):
        # no simulator, only the fit's statistic on draws of that law, and of
        # one 10% faster
        rng = np.random.default_rng(5)

        def fits(speed):
            per_source = tuple(
                dataclasses.replace(s, system_time_transform=transform_of(
                    rng.exponential(1 / (speed * (1.5 + r)), 30_000), point))
                for s, r, point in zip(report.per_source, TWO_EXP.preemption_rates,
                                       _fit_points(TWO_EXP)))
            results = empirical_checks(dataclasses.replace(report, per_source=per_source),
                                       TWO_EXP, MATCHED).results
            return [r for r in results if r.name.endswith("system_time_fit")]

        assert [r.status for r in fits(1.0)] == ["pass", "pass"]
        assert all(r.discrepancy > 2 * r.tolerance for r in fits(1.1))

    @pytest.mark.parametrize("law, status", [
        (LogNormal(0.0, 1e-3), "skip"),
        (LogNormal(0.0, 1e-8), "skip"),
        (LogNormal(-1.0, 1.0), "pass"),
        (Gamma(2.0, 8.0), "pass"),
        (Exponential(1.5), "pass"),
    ], ids=str)
    def test_fit_skips_a_covariance_lost_to_rounding(self, report, law, status):
        # exact delivered system times, no simulator: a service draw U is
        # delivered with probability e^(-r_c U), when no preemption comes first.
        # A nearly deterministic law's covariance is rounding and the fit skips
        # (at 1e-8 its statistic read -0.75 and passed); wider laws still run
        cfg = dataclasses.replace(TWO_EXP, service=law)
        rng = np.random.default_rng(11)

        def delivered(r):
            u = law.sample_n(rng, 300_000)
            return u[rng.random(u.size) < np.exp(-r * u)][:30_000]

        per_source = tuple(dataclasses.replace(s, system_time_transform=transform_of(delivered(r), point))
                           for s, r, point in zip(report.per_source, cfg.preemption_rates,
                                                  _fit_points(cfg)))
        fits = [r for r in empirical_checks(dataclasses.replace(report, per_source=per_source),
                                            cfg, MATCHED).results if r.name.endswith("system_time_fit")]
        assert [r.status for r in fits] == [status, status]
        if status == "skip":
            assert all(r.detail.startswith("covariance lost to rounding: smallest eigenvalue")
                       for r in fits)

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

    @pytest.mark.parametrize("hits, n, p, z", [
        (5, 10, 1.0, math.inf), (10, 10, 1.0, 0.0), (1, 10, 0.0, math.inf), (0, 10, 0.0, 0.0)])
    def test_certain_share_fails_on_any_miss(self, hits, n, p, z):
        # a share expected to be 0 or 1 has no spread: any other share fails
        check = sim_mod._share_check("x", hits, n, p)
        assert check.discrepancy == z and check.passed is (z == 0.0)

    def test_preempted_run_fails_a_non_preemptive_theory(self, report):
        # r_c = 0 expects every decided packet delivered
        failed = {r.name for r in empirical_checks(report, TWO_EXP, Policy.non_preemptive()).failures()}
        assert {"source0:delivery_probability", "source1:delivery_probability"} <= failed


class _Draws:
    """A generator with some of its methods replaced."""

    def __init__(self, rng, **methods):
        self.__dict__.update(methods, rng=rng)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _plant_draws(monkeypatch, purpose, **methods):
    """Every substream of ``purpose`` with ``methods``, each called as
    method(generator, key, *args)."""
    substream = sim_mod.substream

    def planted(seed, *key):
        rng = substream(seed, *key)
        if key[-1] != purpose:
            return rng
        return _Draws(rng, **{name: functools.partial(m, rng, key) for name, m in methods.items()})

    monkeypatch.setattr(sim_mod, "substream", planted)


def _plant_attempts(monkeypatch, edit):
    """``_attempts`` on the system ``edit(system)`` returns."""
    attempts = sim_mod._attempts
    monkeypatch.setattr(sim_mod, "_attempts", lambda system, *a: attempts(edit(system), *a))


def rate_times_1_1(monkeypatch):
    _plant_draws(monkeypatch, 2, standard_exponential=lambda g, key, k: g.standard_exponential(k) / 1.1)


def gamma_2_gaps(monkeypatch):  # the same mean gap, 1 / r_c
    _plant_draws(monkeypatch, 2, standard_exponential=lambda g, key, k: g.gamma(2.0, 0.5, k))


def idle_rate_times_1_05(monkeypatch):
    _plant_draws(monkeypatch, 0, exponential=lambda g, key, scale, k: g.exponential(scale / 1.05, k))


def equal_winner_shares(monkeypatch):
    # u in [c/n, (c+1)/n) maps onto source c's cell of the shares; only the
    # winners' substream draws uniforms under purpose 1
    rates = np.asarray(TWO_EXP.arrival_rates)
    low, n = np.cumsum(rates) - rates, len(rates)

    def random(g, key, k):
        u = g.random(k) * n
        c = u.astype(np.intp)
        return (low[c] + (u - c) * rates[c]) / rates.sum()

    _plant_draws(monkeypatch, 1, random=random)


def unthinned_discards(monkeypatch):
    # source c's discards at mean lambda_c x (total busy time), its own included
    busy = {}
    attempts = sim_mod._attempts

    def recording(system, seed, rep, limit):
        busy[rep] = 0.0
        for block in attempts(system, seed, rep, limit):
            busy[rep] += float(np.sum(block[2] - block[1]))
            yield block

    monkeypatch.setattr(sim_mod, "_attempts", recording)
    _plant_draws(monkeypatch, 0, poisson=lambda g, key, mu: g.poisson(
        TWO_EXP.arrival_rates[key[1]] * busy[key[0]]))


class _KeepsPoolLabels(GloballyPreemptiveConfig):
    """Preempted at Lambda, but not by every arrival: a failed attempt keeps its pool's label."""

    @property
    def preemption_matrix(self):
        return ((),) * self.num_sources


def global_label_kept(monkeypatch):
    _plant_attempts(monkeypatch, lambda system: _KeepsPoolLabels(system.arrival_rates, system.service))


def same_mean_gamma_service(monkeypatch):  # Exp(1.5) -> Gamma(2, 3)
    _plant_attempts(monkeypatch, lambda system: dataclasses.replace(system, service=Gamma(2.0, 3.0)))


def stamped_at_previous_start(monkeypatch):
    # a delivery after a preemption takes the preempted attempt's start as its own
    attempts = sim_mod._attempts

    def planted(*args):
        last = (0.0, -1)
        for src, start, end, outcome in attempts(*args):
            before = np.concatenate(([last[0]], start[:-1]))
            after_preemption = np.concatenate(([last[1]], outcome[:-1])) == sim_mod._PREEMPTED
            last = (start[-1], outcome[-1])
            hit = (outcome == sim_mod._DELIVERED) & after_preemption
            yield src, np.where(hit, before, start), end, outcome

    monkeypatch.setattr(sim_mod, "_attempts", planted)


BOTH = ("source0:", "source1:")
# defect -> its policy, and the checks it fails by at least twice their
# tolerance on TWO_EXP at seed 17 (30,000 deliveries a source); an empty set:
# no empirical check sees it
SAMPLER_DEFECTS = {
    "rate_times_1.1": (rate_times_1_1, MATCHED, {
        "source0:delivery_probability", "source0:preemption_rate", "source1:system_time_fit",
        "source1:delivery_probability", "source1:preemption_rate"}),
    "idle_rate_times_1.05": (idle_rate_times_1_05, MATCHED, set()),
    "unthinned_discards": (unthinned_discards, MATCHED, set()),
    "equal_winner_shares": (equal_winner_shares, MATCHED, {c + "race_frequency" for c in BOTH}),
    "global_label_kept": (global_label_kept, Policy.globally_preemptive(), set()),
    "same_mean_gamma_service": (same_mean_gamma_service, MATCHED, {
        c + check for c in BOTH for check in ("system_time_fit", "delivery_probability")}),
    "stamped_at_previous_start": (stamped_at_previous_start, MATCHED, {
        c + check for c in BOTH for check in ("system_time_fit", "preemption_rate")}),
    "gamma_2_gaps": (gamma_2_gaps, MATCHED, {
        c + check for c in BOTH
        for check in ("system_time_fit", "delivery_probability", "preemption_rate")}),
}


class TestPlantedSamplerDefects:
    # each defect planted in the sampler from outside, through _attempts or
    # substream; the table of what each check sees is in CHANGES.md
    @pytest.mark.parametrize("plant, policy, caught", SAMPLER_DEFECTS.values(), ids=SAMPLER_DEFECTS)
    def test_checks_that_see_it(self, monkeypatch, report, plant, policy, caught):
        sim = report.sim
        clean = report if policy == MATCHED else run(TWO_EXP, policy, sim)
        with monkeypatch.context() as m:
            plant(m)
            planted = run(TWO_EXP, policy, sim)
        assert not planted.stats_identical(clean)  # the defect acted
        results = {r.name: r for r in empirical_checks(planted, TWO_EXP, policy).results}
        for name in caught:
            assert results[name].discrepancy >= 2 * results[name].tolerance, results[name]
        if not caught:
            assert all(r.passed for r in results.values()), results

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
    # from 8 replications on, numpy's pairwise sum of one source's values
    # over the replication axis no longer adds them in order
    "horizon-9reps-no-warmup": SimConfig(
        seed=15, horizon=100.0, warmup_fraction=0.0, replications=9
    ),
}


class TestAgainstReference:
    # the attempt-level core and the numpy merge against a plain
    # one-event-at-a-time loop and a plain Python merge: every statistic,
    # system-time transform and dumped delivery bit for bit
    @pytest.mark.parametrize("stop", REFERENCE_RUNS.values(), ids=REFERENCE_RUNS.keys())
    @pytest.mark.parametrize("policy", EVERY_POLICY, ids=_policy_id)
    @pytest.mark.parametrize("cfg", REFERENCE_SYSTEMS.values(), ids=REFERENCE_SYSTEMS.keys())
    def test_bit_identical(self, cfg, policy, stop):
        got = run(cfg, policy, stop, collect_deliveries=True)
        want = reference_run(cfg, policy, stop, collect_deliveries=True)
        assert got.stats_identical(want)
        for s in got.per_source:
            assert s.arrivals == s.delivered + s.preempted + s.discarded + s.in_flight

    @pytest.mark.parametrize(
        "policy", [Policy.probabilistic(0.4), Policy.globally_preemptive()], ids=_policy_id
    )
    def test_bit_identical_past_one_byte_of_sources(self, policy):
        # from 257 sources on, the sorts key the sources as uint16, not uint8
        cfg, stop = SystemConfig((0.01,) * 300, 0.4, Exponential(1.0)), REFERENCE_RUNS["horizon"]
        got = run(cfg, policy, stop, collect_deliveries=True)
        assert got.stats_identical(reference_run(cfg, policy, stop, collect_deliveries=True))
        assert max(got.deliveries[:, 0]) > 255


class TestWinners:
    @pytest.mark.parametrize(
        "policy", [Policy.probabilistic(0.4), Policy.globally_preemptive()], ids=_policy_id
    )
    def test_uneven_rates_bit_identical(self, policy):
        # shares 2.2, 2.23 and 2.26 of 5 fall in one of the winner table's 32
        # cells, so a draw in it may lie up to three shares past the cell's
        # least winner; the winners must still be the reference loop's
        cfg = SystemConfig((0.2, 2.0, 0.03, 0.03, 2.74), 0.4, Exponential(1.0))
        stop = SimConfig(seed=16, horizon=3000.0)
        got = run(cfg, policy, stop, collect_deliveries=True)
        assert got.stats_identical(reference_run(cfg, policy, stop, collect_deliveries=True))
        assert min(s.race_entries for s in got.per_source) >= 5


def route_z_scores(policy, reps=40, horizon=2e3):
    """Welch z of ``run`` against the arrival loop: per source, the
    replication means of the AoI, the peak AoI and the delivered,
    preempted and discarded counts, from ``reps`` single-replication runs a
    side, each side on seeds of its own."""
    sides = [
        [run(PAPER, policy, SimConfig(seed=1000 + i, horizon=horizon)) for i in range(reps)],
        [reference_run(PAPER, policy, SimConfig(seed=2000 + i, horizon=horizon), loop=arrival_loop)
         for i in range(reps)],
    ]
    def stats(s):
        return s.time_avg_aoi, s.paoi_moments[0], s.delivered, s.preempted, s.discarded

    values = np.array([[[stats(s) for s in r.per_source] for r in side]
                       for side in sides], dtype=float)  # side, replication, source, statistic
    mean, var = values.mean(axis=1), values.var(axis=1, ddof=1)
    diff, se = mean[0] - mean[1], np.sqrt((var[0] + var[1]) / reps)
    assert np.all(diff[se == 0] == 0)  # a count that is 0 on both sides
    return np.divide(diff, se, out=np.zeros_like(diff), where=se > 0)


def test_gates_share_one_bonferroni_quantile():
    # each gate's factor or bound is the float it formed on its own before
    t = sps.t.ppf
    for claims, df in ((2, 19), (11, 19), (8, 9)):  # criteria 4 and 7, global_gate
        got = bonferroni(0.01, claims, df) / bonferroni(0.05, 1, df)
        assert got == float(t(1 - 0.01 / (2 * claims), df) / t(0.975, df))
    assert bonferroni(1e-3, 10, 39) == t(1 - 1e-3 / (2 * 10), 39)  # the arrival loop's bound


class TestAgainstArrivalLoop:
    # The sampler draws the path from its regenerative decomposition, the
    # one the closed form and the graph solver use; the arrival loop reads
    # the model literally, one arrival at a time, so it is the model's
    # independent oracle. Per policy, 10 statistics at a family-wise
    # false-alarm rate of 1e-3 (Bonferroni; the t quantile at one side's 39
    # degrees of freedom, 4.33, is a conservative stand-in for the Welch
    # one). Scaling the sampler's preemption rate by 1.1 gives |z| > 10.
    @pytest.mark.parametrize(
        "policy", [Policy.probabilistic(0.28), Policy.globally_preemptive()], ids=_policy_id
    )
    def test_same_distribution_as_the_model(self, policy):
        z = route_z_scores(policy)
        bound = bonferroni(1e-3, z.size, 39)
        assert np.abs(z).max() <= bound, z


class TestBlockSeams:
    # a block of 7, or of 1, puts a seam between draws, episodes and
    # statistics every few events, and cuts episodes in the middle; the
    # reports must not see it
    @pytest.mark.parametrize(
        "stop",
        [
            SimConfig(seed=21, horizon=400.0),
            SimConfig(seed=22, delivered_per_source=120, warmup_fraction=0.2),
        ],
        ids=["horizon", "count"],
    )
    @pytest.mark.parametrize("policy", EVERY_POLICY, ids=_policy_id)
    @pytest.mark.parametrize("block", [7, 1])
    def test_tiny_blocks_change_nothing(self, monkeypatch, block, policy, stop):
        cfg = SystemConfig((0.7, 1.1, 0.4), 0.5, Exponential(2.0))
        want = run(cfg, policy, stop, collect_deliveries=True)
        monkeypatch.setattr(sim_mod, "_BLOCK", block)
        got = run(cfg, policy, stop, collect_deliveries=True)
        assert got.stats_identical(want)


class TestBoundedDraws:
    @pytest.mark.parametrize(
        "policy", [Policy.probabilistic(1.0), Policy.globally_preemptive()],
        ids=["probabilistic", "globally_preemptive"],
    )
    def test_a_source_draws_at_most_a_block_per_block(self, monkeypatch, policy):
        # one delivery in e^6 ~ 400 attempts, and an episode of ~66 time
        # units outlasts the horizon: drawing each win's attempts up to its
        # delivery would ask for ~400 * _BLOCK ~ 3M service times
        requested = []
        sample_n = Deterministic.sample_n

        def counting(self, rng, n):
            requested.append(n)
            return sample_n(self, rng, n)

        monkeypatch.setattr(Deterministic, "sample_n", counting)
        cfg = SystemConfig((6.0,), 1.0, Deterministic(1.0))
        s = run(cfg, policy, SimConfig(seed=1, horizon=50.0)).per_source[0]
        assert sum(requested) <= 2 * sim_mod._BLOCK
        assert s.entered_service > 100
        assert s.arrivals == s.delivered + s.preempted + s.discarded + s.in_flight


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
            assert r.sample_s >= 0 and r.tally_s >= 0 and r.sample_s + r.tally_s <= r.seconds
            assert "arrivals/s" in r.getMessage()
