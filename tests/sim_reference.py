"""Plain event-by-event reference for the simulator in ``aoiq.sim``.

One event per loop iteration: the earlier of the next delivery and the
next arrival, where a delivery wins a tie with an arrival and the lower
source index wins a tie between arrivals. Each substream is drawn one
value at a time, and every statistic is added up as its event happens.
It is written to be read, not to be fast; the tests hold
``aoiq.sim.run`` to its reports bit for bit.
"""

import math

from aoiq import sim as sim_mod
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


class Reservoir:
    """Algorithm R: the first ``cap`` samples, then sample number ``seen``
    replaces slot int(u * (seen + 1)) if that is below ``cap``."""

    def __init__(self, rng, cap):
        self.items = []
        self.seen = 0
        self._cap = cap
        self._uniform = Draws(rng, lambda g, n: g.random(n))

    def add(self, item):
        if self.seen < self._cap:
            self.items.append(item)
        else:
            j = int(self._uniform() * (self.seen + 1))
            if j < self._cap:
                self.items[j] = item
        self.seen += 1


class Source:
    """Counters and accumulators of one source in one replication."""

    def __init__(self, seed, rep, c, rate, dist, cap, batches):
        self.arrival_gap = Draws(substream(seed, rep, c, 0), lambda g, n: g.exponential(1.0 / rate, n))
        self.service = Draws(substream(seed, rep, c, 1), dist.sample_n)
        self.coin = Draws(substream(seed, rep, c, 2), lambda g, n: g.random(n))
        self.system_times = Reservoir(substream(seed, rep, c, 3), cap)
        self.records = Reservoir(substream(seed, rep, c, 4), cap)
        self.next_arrival = self.arrival_gap()
        self.arrivals = self.delivered = self.preempted = self.discarded = 0
        self.entered_service = self.race_entries = 0
        self.busy_time = self.aoi_area = self.aoi_area_sq = 0.0
        self.measure_from = self.first_delivery = self.last_delivery = INF
        self.last_system_time = 0.0
        self.t_sums = [0, 0.0]
        self.y_sums = [0, 0.0]
        self.a_sums = [0, 0.0, 0.0]
        self.batch_area = [0.0] * batches
        self.batch_dur = [0.0] * batches
        self.batch_sums = [[0.0] * batches, [0] * batches, [0.0] * batches,
                           [0.0] * batches, [0] * batches]


def simulate_once(cfg, policy, sim, rep, track_batches, collect_deliveries):
    """One replication, returned as the simulator's raw accumulators."""
    horizon, target, batches = sim.horizon, sim.delivered_per_source, sim.batches
    if horizon is not None:
        warmup_time = sim.warmup_fraction * horizon
        batch_width = (horizon - warmup_time) / batches
    else:
        warm_count = int(round(sim.warmup_fraction * target))
        counted_target = max(target - warm_count, 1)
    sources = [
        Source(sim.seed, rep, c, rate, cfg.service, sim_mod.RESERVOIR_CAPACITY, batches)
        for c, rate in enumerate(cfg.arrival_rates)
    ]
    deliveries = [] if collect_deliveries else None

    def batch_of(t, idx):
        if horizon is not None:
            k = int((t - warmup_time) / batch_width)
        else:
            k = ((idx - warm_count - 1) * batches) // counted_target
        return min(k, batches - 1)

    def add_segment(src, t, k):
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
            if track_batches and k >= 0:
                src.batch_area[k] += seg
                src.batch_dur[k] += dt

    def deliver(c, t, gen_time):
        src = sources[c]
        t_sys = t - gen_time
        src.delivered += 1
        idx = src.delivered
        counted = t > warmup_time if horizon is not None else idx > warm_count
        k = batch_of(t, idx)
        if counted:
            src.t_sums[0] += 1
            src.t_sums[1] += t_sys
            if track_batches:
                src.batch_sums[0][k] += t_sys
                src.batch_sums[1][k] += 1
            src.system_times.add(t_sys)
        if src.last_delivery == INF:
            src.first_delivery = t
            row = (c, gen_time, t, t_sys, math.nan, math.nan)
        else:
            y = t - src.last_delivery
            prev_t = src.last_system_time
            a = prev_t + y
            if counted:
                src.y_sums[0] += 1
                src.y_sums[1] += y
                src.a_sums[0] += 1
                src.a_sums[1] += a
                src.a_sums[2] += a * a
                if track_batches:
                    src.batch_sums[2][k] += y
                    src.batch_sums[3][k] += a
                    src.batch_sums[4][k] += 1
                src.records.add((prev_t, y, a))
            add_segment(src, t, k)
            row = (c, gen_time, t, t_sys, y, a)
        if collect_deliveries:
            deliveries.append(row)
        # the delivery that opens the source's measuring window
        if horizon is not None and idx == 1:
            src.measure_from = max(t, warmup_time)
        elif horizon is None and idx == max(warm_count, 1):
            src.measure_from = t
        src.last_delivery = t
        src.last_system_time = t_sys

    serving = -1  # the source in service, or -1 when the server is idle
    dep_time = INF
    service_start = gen_time = 0.0
    reached = 0  # sources at their delivery target
    end_time = horizon
    while True:
        arrival_time = min(s.next_arrival for s in sources)
        if dep_time <= arrival_time:
            t = dep_time
            if horizon is not None and t > horizon:
                break
            c = serving
            sources[c].busy_time += t - service_start
            serving, dep_time = -1, INF
            deliver(c, t, gen_time)
            if target is not None and sources[c].delivered == target:
                reached += 1
                if reached == len(sources):
                    end_time = t
                    break
            continue
        t = arrival_time
        if horizon is not None and t > horizon:
            break
        c = [s.next_arrival for s in sources].index(t)
        src = sources[c]
        src.next_arrival = t + src.arrival_gap()
        src.arrivals += 1
        if serving < 0:
            src.race_entries += 1
        elif policy.kind is PolicyKind.GLOBALLY_PREEMPTIVE:
            pass
        elif serving != c or policy.kind is PolicyKind.NON_PREEMPTIVE:
            src.discarded += 1
            continue
        elif policy.kind is PolicyKind.PROBABILISTIC and not src.coin() < policy.theta:
            src.discarded += 1
            continue
        if serving >= 0:  # the packet in service is preempted
            sources[serving].busy_time += t - service_start
            sources[serving].preempted += 1
        serving, gen_time, service_start = c, t, t
        dep_time = t + src.service()
        src.entered_service += 1

    in_flight = [0] * len(sources)
    if serving >= 0:
        in_flight[serving] = 1
        sources[serving].busy_time += end_time - service_start
    for src in sources:
        if src.last_delivery != INF:
            k = batch_of(end_time, 0) if horizon is not None else batches - 1
            add_segment(src, end_time, k)

    def per_source(name):
        return [getattr(s, name) for s in sources]

    return sim_mod._RepStats(
        end_time=end_time,
        arrivals=per_source("arrivals"),
        delivered=per_source("delivered"),
        preempted=per_source("preempted"),
        discarded=per_source("discarded"),
        in_flight=in_flight,
        entered_service=per_source("entered_service"),
        race_entries=per_source("race_entries"),
        busy_time=per_source("busy_time"),
        aoi_area=per_source("aoi_area"),
        aoi_area_sq=per_source("aoi_area_sq"),
        measure_from=per_source("measure_from"),
        first_delivery=per_source("first_delivery"),
        last_delivery=per_source("last_delivery"),
        last_system_time=per_source("last_system_time"),
        t_sums=per_source("t_sums"),
        y_sums=per_source("y_sums"),
        a_sums=per_source("a_sums"),
        system_times=[s.system_times.items for s in sources],
        records=[s.records.items for s in sources],
        batch_aoi_area=per_source("batch_area") if track_batches else None,
        batch_aoi_dur=per_source("batch_dur") if track_batches else None,
        batch_sums=per_source("batch_sums") if track_batches else None,
        deliveries=deliveries,
    )


def reference_run(cfg, policy, sim, collect_deliveries=False):
    """``aoiq.sim.run`` computed by the reference loop, one worker."""
    track_batches = sim.replications == 1
    reps = [
        simulate_once(cfg, policy, sim, rep, track_batches, collect_deliveries)
        for rep in range(sim.replications)
    ]
    return sim_mod._merge(cfg, policy, sim, reps)
