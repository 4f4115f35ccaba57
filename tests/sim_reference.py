"""Plain one-step-per-iteration references for the simulator in ``aoiq.sim``.

Two loops share one way of adding up statistics, event by event, and a
plain-Python merge of the replications, one statistic at a time. They are
written to be read, not to be fast.

``episode_loop`` takes one service attempt per iteration and draws each
value, one at a time, from the substreams ``aoiq.sim`` draws: after a
delivery an idle wait and a winning source, per attempt a service time
and a preemption gap, and at the end each source's discards. The tests
hold ``aoiq.sim.run`` to it bit for bit, so the blocked sampler, the numpy
statistics and the numpy merge are checked exactly.

``arrival_loop`` is the model read literally, one event per iteration:
the earlier of the next delivery and the next arrival, where a delivery
wins a tie with an arrival and the lower source index wins a tie between
arrivals; a busy server's policy decides each arrival's fate by a coin.
It shares no draws and no decomposition with the sampler, so the tests
compare the two in distribution only.
"""

import bisect
import collections
import functools
import itertools
import math
import operator

import numpy as np

from aoiq import sim as sim_mod
from aoiq._special import t_quantile
from aoiq.service import substream
from aoiq.sim import PolicyKind

INF = math.inf


class Draws:
    """One substream, handed out one value at a time (numpy draws do not
    depend on how they are chunked)."""

    def __init__(self, rng, draw):
        self._rng = rng
        self._draw = draw
        self._values = iter(())

    def __call__(self):
        for value in self._values:
            return value
        self._values = iter(self._draw(self._rng, 1000).tolist())
        return next(self._values)


class Source:
    """Counters and accumulators of one source in one replication."""

    def __init__(self, batches):
        self.system_times = []  # the first counted ones, up to the capacity
        self.arrivals = self.delivered = self.preempted = self.discarded = 0
        self.entered_service = self.race_entries = 0
        self.busy_time = self.aoi_area = self.aoi_area_sq = 0.0
        self.measure_from = self.last_delivery = INF
        self.last_system_time = 0.0
        self.y_sums = [0, 0.0]
        self.a_sums = [0, 0.0, 0.0]
        self.batch_area = [0.0] * batches
        self.batch_dur = [0.0] * batches
        self.batch_sums = [[0.0] * batches, [0.0] * batches, [0] * batches]


class Tally:
    """The statistics of one replication, added up as each event happens."""

    def __init__(self, cfg, sim, track_batches, collect_deliveries):
        self.sim, self.track_batches = sim, track_batches
        self.sources = [Source(sim.batches) for _ in range(cfg.num_sources)]
        self.deliveries = [] if collect_deliveries else None
        self.reached = 0  # sources at their delivery target
        if sim.horizon is not None:
            self.warmup_time = sim.warmup_fraction * sim.horizon
            self.batch_width = (sim.horizon - self.warmup_time) / sim.batches
        else:
            self.warm_count = int(round(sim.warmup_fraction * sim.delivered_per_source))
            self.counted_target = max(sim.delivered_per_source - self.warm_count, 1)

    def batch_of(self, t, idx):
        if self.sim.horizon is not None:
            k = int((t - self.warmup_time) / self.batch_width)
        else:
            k = ((idx - self.warm_count - 1) * self.sim.batches) // self.counted_target
        return min(k, self.sim.batches - 1)

    def add_segment(self, src, t, k):
        # exact area under the age and its square from the last delivery
        # (clipped to the measuring window) up to t
        prev = src.last_delivery
        lo = max(prev, src.measure_from)
        if t > lo:
            base = src.last_system_time + (lo - prev)
            dt = t - lo
            seg = dt * base + 0.5 * dt * dt
            src.aoi_area += seg
            top = base + dt
            src.aoi_area_sq += (top * top * top - base * base * base) / 3.0
            if self.track_batches and k >= 0:
                src.batch_area[k] += seg
                src.batch_dur[k] += dt

    def deliver(self, c, t, gen_time):
        """Account source c's delivery at t of a packet generated at
        gen_time; True once it completes the count rule."""
        horizon, track_batches = self.sim.horizon, self.track_batches
        src = self.sources[c]
        t_sys = t - gen_time
        src.delivered += 1
        idx = src.delivered
        counted = t > self.warmup_time if horizon is not None else idx > self.warm_count
        k = self.batch_of(t, idx)
        if counted and len(src.system_times) < sim_mod.RESERVOIR_CAPACITY:
            src.system_times.append(t_sys)
        if src.last_delivery == INF:
            row = (c, gen_time, t, t_sys, math.nan, math.nan)
        else:
            y = t - src.last_delivery
            a = src.last_system_time + y
            if counted:
                src.y_sums[0] += 1
                src.y_sums[1] += y
                src.a_sums[0] += 1
                src.a_sums[1] += a
                src.a_sums[2] += a * a
                if track_batches:
                    src.batch_sums[0][k] += y
                    src.batch_sums[1][k] += a
                    src.batch_sums[2][k] += 1
            self.add_segment(src, t, k)
            row = (c, gen_time, t, t_sys, y, a)
        if self.deliveries is not None:
            self.deliveries.append(row)
        # the delivery that opens the source's measuring window
        if horizon is not None and idx == 1:
            src.measure_from = max(t, self.warmup_time)
        elif horizon is None and idx == max(self.warm_count, 1):
            src.measure_from = t
        src.last_delivery = t
        src.last_system_time = t_sys
        if horizon is None and src.delivered == self.sim.delivered_per_source:
            self.reached += 1
        return self.reached == len(self.sources)

    def finish(self, end_time, serving, service_start):
        """Close the run at end_time, source ``serving`` (or -1) still in
        service since service_start."""
        in_flight = [0] * len(self.sources)
        if serving >= 0:
            in_flight[serving] = 1
            self.sources[serving].busy_time += end_time - service_start
        for src in self.sources:
            if src.last_delivery != INF:
                k = self.batch_of(end_time, 0) if self.sim.horizon is not None else self.sim.batches - 1
                self.add_segment(src, end_time, k)
        return Replication(end_time, self.sources, in_flight, self.deliveries)


def effective_theta(policy):
    """The policy as the sampler runs it: theta, or None under global preemption."""
    return {
        PolicyKind.NON_PREEMPTIVE: 0.0,
        PolicyKind.SELF_PREEMPTIVE: 1.0,
        PolicyKind.GLOBALLY_PREEMPTIVE: None,
    }.get(policy.kind, policy.theta)


def episode_loop(cfg, policy, sim, rep, track_batches, collect_deliveries):
    """One replication of the sampler's model, one attempt per iteration."""
    seed, n, total_rate = sim.seed, cfg.num_sources, cfg.total_rate
    theta = effective_theta(policy)
    horizon = sim.horizon if sim.horizon is not None else INF
    shares = list(itertools.accumulate(cfg.arrival_rates))
    wait = Draws(substream(seed, rep, n, 0), lambda g, k: g.exponential(1 / total_rate, k))
    uniform = Draws(substream(seed, rep, n, 1), lambda g, k: g.random(k))
    global_gap = Draws(substream(seed, rep, n, 2), lambda g, k: g.exponential(1 / total_rate, k))
    service = [Draws(substream(seed, rep, c, 1), cfg.service.sample_n) for c in range(n)]
    unit_gap = [Draws(substream(seed, rep, c, 2), lambda g, k: g.standard_exponential(k))
                for c in range(n)]
    tally = Tally(cfg, sim, track_batches, collect_deliveries)
    t, idle, c = 0.0, True, -1
    while True:
        if idle:
            t = t + wait()
        if idle or theta is None:
            c = bisect.bisect_right(shares, uniform() * shares[-1])
        if t > horizon:
            replication = tally.finish(horizon, -1, 0.0)
            break
        src = tally.sources[c]
        src.entered_service += 1
        src.race_entries += idle
        s = service[c]()
        if theta is None:
            g = global_gap()
        elif theta:
            g = unit_gap[c]() / (theta * cfg.arrival_rates[c])
        else:
            g = INF
        end = t + s if s <= g else t + g
        if end > horizon:
            replication = tally.finish(horizon, c, t)
            break
        src.busy_time += end - t
        idle = s <= g
        if not idle:
            src.preempted += 1
        elif tally.deliver(c, end, t):
            replication = tally.finish(end, -1, 0.0)
            break
        t = end
    busy = total(src.busy_time for src in replication.sources)
    for c, src in enumerate(replication.sources):
        if theta is not None:
            mean = cfg.arrival_rates[c] * (busy - theta * src.busy_time)
            src.discarded = int(substream(seed, rep, c, 0).poisson(mean))
        src.arrivals = src.entered_service + src.discarded
    return replication


def arrival_loop(cfg, policy, sim, rep, track_batches, collect_deliveries):
    """One replication of the model read literally, one event per iteration."""
    seed, horizon = sim.seed, sim.horizon
    tally = Tally(cfg, sim, track_batches, collect_deliveries)
    sources = tally.sources
    gap = [Draws(substream(seed, rep, c, 0), lambda g, n, r=rate: g.exponential(1.0 / r, n))
           for c, rate in enumerate(cfg.arrival_rates)]
    service = [Draws(substream(seed, rep, c, 1), cfg.service.sample_n) for c in range(len(sources))]
    coin = [Draws(substream(seed, rep, c, 2), lambda g, n: g.random(n)) for c in range(len(sources))]
    next_arrival = [draw() for draw in gap]
    serving = -1  # the source in service, or -1 when the server is idle
    dep_time = INF
    service_start = gen_time = 0.0
    while True:
        arrival_time = min(next_arrival)
        if dep_time <= arrival_time:
            t = dep_time
            if horizon is not None and t > horizon:
                break
            c = serving
            sources[c].busy_time += t - service_start
            serving, dep_time = -1, INF
            if tally.deliver(c, t, gen_time):
                return tally.finish(t, -1, 0.0)
            continue
        t = arrival_time
        if horizon is not None and t > horizon:
            break
        c = next_arrival.index(t)
        src = sources[c]
        next_arrival[c] = t + gap[c]()
        src.arrivals += 1
        if serving < 0:
            src.race_entries += 1
        elif policy.kind is PolicyKind.GLOBALLY_PREEMPTIVE:
            pass
        elif serving != c or policy.kind is PolicyKind.NON_PREEMPTIVE:
            src.discarded += 1
            continue
        elif policy.kind is PolicyKind.PROBABILISTIC and not coin[c]() < policy.theta:
            src.discarded += 1
            continue
        if serving >= 0:  # the packet in service is preempted
            sources[serving].busy_time += t - service_start
            sources[serving].preempted += 1
        serving, gen_time, service_start = c, t, t
        dep_time = t + service[c]()
        src.entered_service += 1
    return tally.finish(horizon, serving, service_start)


# one replication: its end, its Source objects, the packet in flight at the
# end, and the dumped deliveries
Replication = collections.namedtuple("Replication", "end_time sources in_flight deliveries")


def total(values):
    """Left-to-right sum from 0, one term after another."""
    return functools.reduce(operator.add, values, 0)


def ratio(num, den):
    return num / den if den > 0 else math.nan


def halfwidth(values):
    vals = [v for v in values if not math.isnan(v)]
    m = len(vals)
    if m < 2:
        return math.nan
    sd = float(np.std(vals, ddof=1))
    return t_quantile(m - 1, 0.975) * sd / math.sqrt(m)


def merge(cfg, policy, sim, reps):
    """The replications merged one statistic at a time: counts and sums
    in replication order, the CI of each mean over the batches of a single
    run or over the replications, and the sum-AoI CI over the per-batch sums
    across sources in source order, or over numpy's sum of each
    replication's per-source AoI."""
    n_src = cfg.num_sources
    n_rep = len(reps)
    single = n_rep == 1
    per_source = []
    rep_aoi = np.full((n_rep, n_src), math.nan)

    for c in range(n_src):
        runs = [(r.end_time, r.sources[c]) for r in reps]
        area = total(src.aoi_area for _, src in runs)
        area_sq = total(src.aoi_area_sq for _, src in runs)
        measured = total(
            max(end - src.measure_from, 0.0) for end, src in runs if src.measure_from != INF
        )
        for i, (end, src) in enumerate(runs):
            if src.measure_from != INF and end > src.measure_from:
                rep_aoi[i, c] = src.aoi_area / (end - src.measure_from)

        def pooled(sums_name):
            # raw moments m1.. of the counted samples of all replications
            tot = [total(col) for col in zip(*(getattr(src, sums_name) for _, src in runs))]
            n = tot[0]
            return tuple(v / n if n else math.nan for v in tot[1:])

        paoi_moments = pooled("a_sums")
        if single:
            src = runs[0][1]
            aoi_vals = [ratio(ar, dur) for ar, dur in zip(src.batch_area, src.batch_dur) if dur > 0]
            y_sum, a_sum, cnt = src.batch_sums
            y_vals = [s / n for s, n in zip(y_sum, cnt) if n > 0]
            a_vals = [s / n for s, n in zip(a_sum, cnt) if n > 0]
        else:
            aoi_vals = list(rep_aoi[:, c])
            y_vals = [ratio(src.y_sums[1], src.y_sums[0]) for _, src in runs]
            a_vals = [ratio(src.a_sums[1], src.a_sums[0]) for _, src in runs]

        per_source.append(
            sim_mod.SourceStats(
                arrivals=total(src.arrivals for _, src in runs),
                delivered=total(src.delivered for _, src in runs),
                preempted=total(src.preempted for _, src in runs),
                discarded=total(src.discarded for _, src in runs),
                in_flight=total(r.in_flight[c] for r in reps),
                entered_service=total(src.entered_service for _, src in runs),
                race_entries=total(src.race_entries for _, src in runs),
                busy_time=total(src.busy_time for _, src in runs),
                time_avg_aoi=ratio(area, measured),
                time_avg_aoi_sq=ratio(area_sq, measured),
                aoi_ci_halfwidth=halfwidth(aoi_vals),
                interdeparture_mean=pooled("y_sums")[0],
                interdeparture_ci_halfwidth=halfwidth(y_vals),
                paoi_moments=paoi_moments,
                paoi_ci_halfwidth=halfwidth(a_vals),
                system_times=np.array(
                    [t for _, src in runs for t in src.system_times], dtype=float
                ),
                rep_windows=np.array(
                    [
                        [end, src.measure_from, src.aoi_area, src.last_delivery,
                         src.last_system_time]
                        for end, src in runs
                    ]
                ),
            )
        )

    if single:
        sources = reps[0].sources
        sums = [
            total(src.batch_area[k] / src.batch_dur[k] for src in sources)
            for k in range(sim.batches)
            if all(src.batch_dur[k] > 0 for src in sources)
        ]
    else:
        sums = [float(np.sum(rep_aoi[i])) for i in range(n_rep)]
    deliveries = None
    if reps[0].deliveries is not None:
        deliveries = np.array([row for r in reps for row in r.deliveries], dtype=float)
        deliveries = deliveries.reshape(-1, 6)
    return sim_mod.SimReport(
        system=cfg,
        policy=policy,
        sim=sim,
        per_source=tuple(per_source),
        sum_time_avg_aoi=float(total(s.time_avg_aoi for s in per_source)),
        sum_aoi_ci_halfwidth=halfwidth(sums),
        deliveries=deliveries,
    )


def reference_run(cfg, policy, sim, collect_deliveries=False, loop=episode_loop):
    """``aoiq.sim.run`` computed by a reference loop and the plain merge."""
    track_batches = sim.replications == 1
    reps = [
        loop(cfg, policy, sim, rep, track_batches, collect_deliveries)
        for rep in range(sim.replications)
    ]
    return merge(cfg, policy, sim, reps)
