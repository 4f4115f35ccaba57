"""Discrete-event simulation of the multi-source M/G/1/1 update system.

Faithful event-driven model: independent Poisson arrival streams per
source, a single server with no waiting room, and a pluggable packet
management policy deciding what an arrival does to a busy server. The
age-of-information sawtooth is integrated exactly per linear segment, so
simulation output is free of discretization error and serves as the
statistical oracle for the closed-form results.

Randomness discipline: every (replication, source, purpose) triple owns
an independent substream, and the preemption coin is consumed only when
the probabilistic policy actually faces a same-source collision. This
isolation makes the theta = 0 / theta = 1 runs bit-identical to the
non-preemptive / self-preemptive policies under shared seeds.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np
from scipy import stats as sps
from scipy.integrate import quad
from scipy.optimize import brentq

from .analytic import SystemConfig
from .service import (
    Deterministic,
    Exponential,
    Gamma,
    UnsupportedDensity,
    substream,
)

__all__ = [
    "Policy",
    "PolicyKind",
    "SimConfig",
    "SourceStats",
    "SimReport",
    "InvalidConfig",
    "InsufficientSamples",
    "PositiveExponentRejected",
    "run",
    "empirical_checks",
    "empirical_mgf",
    "empirical_aoi_mgf",
    "CheckResult",
    "CheckSummary",
]

RESERVOIR_CAPACITY = 100_000
_CHUNK = 8192
_INF = float("inf")


class InvalidConfig(ValueError):
    """Simulation configuration violates its invariants."""


class InsufficientSamples(ValueError):
    """Too few samples for the requested statistic."""


class PositiveExponentRejected(ValueError):
    """Empirical MGF requested at s > 0, where summands are unbounded."""


class PolicyKind(enum.Enum):
    PROBABILISTIC = "probabilistic"
    NON_PREEMPTIVE = "non_preemptive"
    SELF_PREEMPTIVE = "self_preemptive"
    GLOBALLY_PREEMPTIVE = "globally_preemptive"


@dataclass(frozen=True)
class Policy:
    kind: PolicyKind
    theta: float | None = None

    def __post_init__(self):
        if self.kind is PolicyKind.PROBABILISTIC:
            if self.theta is None or not 0.0 <= self.theta <= 1.0:
                raise InvalidConfig(
                    f"probabilistic policy needs theta in [0, 1], got {self.theta}"
                )
        elif self.theta is not None:
            raise InvalidConfig(f"{self.kind.value} policy takes no theta")

    @classmethod
    def probabilistic(cls, theta: float) -> "Policy":
        return cls(PolicyKind.PROBABILISTIC, float(theta))

    @classmethod
    def non_preemptive(cls) -> "Policy":
        return cls(PolicyKind.NON_PREEMPTIVE)

    @classmethod
    def self_preemptive(cls) -> "Policy":
        return cls(PolicyKind.SELF_PREEMPTIVE)

    @classmethod
    def globally_preemptive(cls) -> "Policy":
        return cls(PolicyKind.GLOBALLY_PREEMPTIVE)

    def label(self) -> str:
        if self.kind is PolicyKind.PROBABILISTIC:
            return f"probabilistic(theta={self.theta:g})"
        return self.kind.value


@dataclass(frozen=True)
class SimConfig:
    """Stop rule, warmup, seeding and batching for a simulation run."""

    seed: int
    horizon: float | None = None
    delivered_per_source: int | None = None
    warmup_fraction: float = 0.1
    replications: int = 1
    batches: int = 10

    def __post_init__(self):
        if (self.horizon is None) == (self.delivered_per_source is None):
            raise InvalidConfig("set exactly one of horizon / delivered_per_source")
        if self.horizon is not None and not self.horizon > 0:
            raise InvalidConfig(f"horizon must be positive, got {self.horizon}")
        if self.delivered_per_source is not None and not self.delivered_per_source > 0:
            raise InvalidConfig(
                f"delivered_per_source must be positive, got {self.delivered_per_source}"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise InvalidConfig(
                f"warmup fraction must lie in [0, 1), got {self.warmup_fraction}"
            )
        if self.replications < 1:
            raise InvalidConfig(f"replications must be >= 1, got {self.replications}")
        if self.batches < 10:
            raise InvalidConfig(f"batch count must be >= 10, got {self.batches}")
        if not -(2**63) <= int(self.seed) < 2**64:
            raise InvalidConfig(f"seed must fit in 64 bits, got {self.seed}")


# Buffered substream draws and reservoir upkeep are inlined in the event
# loop: per-stream chunk lists plus integer cursors, refilled every _CHUNK
# draws. The inlining matters; method dispatch per event dominated the
# profile before.


@dataclass
class _RepStats:
    """Raw accumulators of one replication, merged later in rep order."""

    end_time: float
    arrivals: list
    delivered: list
    preempted: list
    discarded: list
    in_flight: list
    entered_service: list
    race_entries: list
    busy_time: list
    aoi_area: list
    aoi_area_sq: list
    measure_from: list
    first_delivery: list
    last_delivery: list
    last_system_time: list
    t_sums: list  # per source: [n, sum]
    y_sums: list  # per source: [n, sum]
    a_sums: list  # per source: [n, sum, sum of squares]
    system_times: list  # per source: list of floats
    records: list  # per source: list of (prev_T, Y, A)
    batch_aoi_area: list | None  # per source: list of B floats
    batch_aoi_dur: list | None
    batch_sums: list | None  # per source, each [B]: T sum and count, Y and A sums and count
    deliveries: list | None  # (source, gen, delivery, T, Y, A) when collected


def _policy_code(policy: Policy) -> tuple[int, float]:
    if policy.kind is PolicyKind.NON_PREEMPTIVE:
        return 0, 0.0
    if policy.kind is PolicyKind.PROBABILISTIC:
        return 1, policy.theta
    if policy.kind is PolicyKind.SELF_PREEMPTIVE:
        return 2, 0.0
    return 3, 0.0


def _simulate_once(
    cfg: SystemConfig,
    policy: Policy,
    sim: SimConfig,
    rep: int,
    track_batches: bool,
    collect_deliveries: bool,
) -> _RepStats:
    n_src = cfg.num_sources
    rates = cfg.arrival_rates
    dist = cfg.service
    code, theta = _policy_code(policy)

    arr_fill = [
        (lambda n, r=rates[c], g=substream(sim.seed, rep, c, 0): g.exponential(1.0 / r, n))
        for c in range(n_src)
    ]
    svc_fill = [
        (lambda n, g=substream(sim.seed, rep, c, 1): dist.sample_n(g, n))
        for c in range(n_src)
    ]
    coin_fill = [
        (lambda n, g=substream(sim.seed, rep, c, 2): g.random(n))
        for c in range(n_src)
    ]
    # reservoir replacement draws: system times (3) and delivery records (4)
    sys_fill = [
        (lambda n, g=substream(sim.seed, rep, c, 3): g.random(n))
        for c in range(n_src)
    ]
    rec_fill = [
        (lambda n, g=substream(sim.seed, rep, c, 4): g.random(n))
        for c in range(n_src)
    ]
    arr_buf = [f(_CHUNK).tolist() for f in arr_fill]
    svc_buf = [f(_CHUNK).tolist() for f in svc_fill]
    coin_buf = [f(_CHUNK).tolist() for f in coin_fill]
    arr_i = [0] * n_src
    svc_i = [0] * n_src
    coin_i = [0] * n_src
    # a reservoir draws only once it is full, so its buffer fills on first use
    sys_buf = [None] * n_src
    rec_buf = [None] * n_src
    sys_i = [_CHUNK] * n_src
    rec_i = [_CHUNK] * n_src

    horizon = sim.horizon
    target = sim.delivered_per_source
    if horizon is not None:
        warmup_time = sim.warmup_fraction * horizon
        warm_count = 0
    else:
        warmup_time = 0.0
        warm_count = int(round(sim.warmup_fraction * target))

    batches = sim.batches
    if track_batches:
        if horizon is not None:
            batch_width = (horizon - warmup_time) / batches
        else:
            counted_target = max(target - warm_count, 1)
        b_area = [[0.0] * batches for _ in range(n_src)]
        b_dur = [[0.0] * batches for _ in range(n_src)]
        b_sums = [
            [[0.0] * batches, [0] * batches, [0.0] * batches, [0.0] * batches, [0] * batches]
            for _ in range(n_src)
        ]  # t_sum and its count, y_sum, a_sum and their count

    arrivals = [0] * n_src
    delivered = [0] * n_src
    preempted = [0] * n_src
    discarded = [0] * n_src
    entered_service = [0] * n_src
    race_entries = [0] * n_src
    busy_time = [0.0] * n_src
    aoi_area = [0.0] * n_src
    aoi_area_sq = [0.0] * n_src
    measure_from = [_INF] * n_src
    first_del = [_INF] * n_src
    last_del = [_INF] * n_src
    prev_t_sys = [0.0] * n_src
    t_sums = [[0, 0.0] for _ in range(n_src)]
    y_sums = [[0, 0.0] for _ in range(n_src)]
    a_sums = [[0, 0.0, 0.0] for _ in range(n_src)]
    cap = RESERVOIR_CAPACITY
    sys_items = [[] for _ in range(n_src)]
    sys_seen = [0] * n_src
    rec_items = [[] for _ in range(n_src)]
    rec_seen = [0] * n_src
    deliveries = [] if collect_deliveries else None

    next_arr = [arr_buf[c][0] for c in range(n_src)]
    for c in range(n_src):
        arr_i[c] = 1
    serving = -1
    dep_time = _INF
    service_start = 0.0
    gen_time = 0.0
    remaining = n_src if target is not None else -1
    end_time = horizon if horizon is not None else 0.0
    two_sources = n_src == 2

    while True:
        if two_sources:
            a0 = next_arr[0]
            a1 = next_arr[1]
            if a0 <= a1:
                ta = a0
                ca = 0
            else:
                ta = a1
                ca = 1
        elif n_src == 1:
            ta = next_arr[0]
            ca = 0
        else:
            ta = min(next_arr)
            ca = -1
        if dep_time <= ta:
            t = dep_time
            if horizon is not None and t > horizon:
                break
            # -- delivery of the in-service packet ------------------------
            c = serving
            busy_time[c] += t - service_start
            t_sys = t - gen_time
            delivered[c] += 1
            idx = delivered[c]
            serving = -1
            dep_time = _INF

            prev = last_del[c]
            if horizon is not None:
                counted = t > warmup_time
            else:
                counted = idx > warm_count
            if track_batches:
                if horizon is not None:
                    k = int((t - warmup_time) / batch_width)
                else:
                    k = ((idx - warm_count - 1) * batches) // counted_target
                if k >= batches:
                    k = batches - 1
            if counted:
                s = t_sums[c]
                s[0] += 1
                s[1] += t_sys
                if track_batches:
                    bs = b_sums[c]
                    bs[0][k] += t_sys
                    bs[1][k] += 1
                seen = sys_seen[c]
                if seen < cap:
                    sys_items[c].append(t_sys)
                else:
                    i = sys_i[c]
                    buf = sys_buf[c]
                    if i == _CHUNK:
                        buf = sys_fill[c](_CHUNK).tolist()
                        sys_buf[c] = buf
                        i = 0
                    j = int(buf[i] * (seen + 1))
                    sys_i[c] = i + 1
                    if j < cap:
                        sys_items[c][j] = t_sys
                sys_seen[c] = seen + 1
            if prev != _INF:
                y = t - prev
                pt = prev_t_sys[c]
                a = pt + y
                if counted:
                    s = y_sums[c]
                    s[0] += 1
                    s[1] += y
                    s = a_sums[c]
                    s[0] += 1
                    s[1] += a
                    s[2] += a * a
                    if track_batches:
                        bs = b_sums[c]
                        bs[2][k] += y
                        bs[3][k] += a
                        bs[4][k] += 1
                    seen = rec_seen[c]
                    if seen < cap:
                        rec_items[c].append((pt, y, a))
                    else:
                        i = rec_i[c]
                        buf = rec_buf[c]
                        if i == _CHUNK:
                            buf = rec_fill[c](_CHUNK).tolist()
                            rec_buf[c] = buf
                            i = 0
                        j = int(buf[i] * (seen + 1))
                        rec_i[c] = i + 1
                        if j < cap:
                            rec_items[c][j] = (pt, y, a)
                    rec_seen[c] = seen + 1
                # exact sawtooth area over [prev, t], clipped to the window
                lo = measure_from[c]
                aa = prev if prev > lo else lo
                if t > aa:
                    base = pt + (aa - prev)
                    dt = t - aa
                    seg = dt * base + 0.5 * dt * dt
                    aoi_area[c] += seg
                    top = base + dt
                    aoi_area_sq[c] += (top * top * top - base * base * base) / 3.0
                    if track_batches and k >= 0:
                        b_area[c][k] += seg
                        b_dur[c][k] += dt
                if collect_deliveries:
                    deliveries.append((c, gen_time, t, t_sys, y, a))
            else:
                first_del[c] = t
                if collect_deliveries:
                    deliveries.append((c, gen_time, t, t_sys, math.nan, math.nan))

            if measure_from[c] == _INF:
                if horizon is not None:
                    if idx == 1:
                        measure_from[c] = t if t > warmup_time else warmup_time
                elif idx == max(warm_count, 1):
                    measure_from[c] = t

            last_del[c] = t
            prev_t_sys[c] = t_sys

            if target is not None and idx == target:
                remaining -= 1
                if remaining == 0:
                    end_time = t
                    break
        else:
            if horizon is not None and ta > horizon:
                break
            t = ta
            c = ca if ca >= 0 else next_arr.index(ta)
            i = arr_i[c]
            buf = arr_buf[c]
            if i == _CHUNK:
                buf = arr_fill[c](_CHUNK).tolist()
                arr_buf[c] = buf
                i = 0
            next_arr[c] = t + buf[i]
            arr_i[c] = i + 1
            arrivals[c] += 1
            if serving < 0:
                serving = c
                gen_time = t
                service_start = t
                i = svc_i[c]
                buf = svc_buf[c]
                if i == _CHUNK:
                    buf = svc_fill[c](_CHUNK).tolist()
                    svc_buf[c] = buf
                    i = 0
                dep_time = t + buf[i]
                svc_i[c] = i + 1
                entered_service[c] += 1
                race_entries[c] += 1
            else:
                if code == 3:
                    preempt = True
                elif serving != c:
                    preempt = False
                elif code == 2:
                    preempt = True
                elif code == 1:
                    i = coin_i[c]
                    buf = coin_buf[c]
                    if i == _CHUNK:
                        buf = coin_fill[c](_CHUNK).tolist()
                        coin_buf[c] = buf
                        i = 0
                    preempt = buf[i] < theta
                    coin_i[c] = i + 1
                else:
                    preempt = False
                if preempt:
                    # the in-service packet vanishes
                    busy_time[serving] += t - service_start
                    preempted[serving] += 1
                    serving = c
                    gen_time = t
                    service_start = t
                    i = svc_i[c]
                    buf = svc_buf[c]
                    if i == _CHUNK:
                        buf = svc_fill[c](_CHUNK).tolist()
                        svc_buf[c] = buf
                        i = 0
                    dep_time = t + buf[i]
                    svc_i[c] = i + 1
                    entered_service[c] += 1
                else:
                    discarded[c] += 1

    # -- final accounting at the stop time --------------------------------
    in_flight = [0] * n_src
    if serving >= 0:
        in_flight[serving] = 1
        busy_time[serving] += end_time - service_start
    for c in range(n_src):
        prev = last_del[c]
        if prev == _INF:
            continue
        lo = measure_from[c]
        aa = prev if prev > lo else lo
        if end_time > aa:
            base = prev_t_sys[c] + (aa - prev)
            dt = end_time - aa
            seg = dt * base + 0.5 * dt * dt
            aoi_area[c] += seg
            top = base + dt
            aoi_area_sq[c] += (top * top * top - base * base * base) / 3.0
            if track_batches:
                if horizon is not None:
                    k = int((end_time - warmup_time) / batch_width)
                else:
                    k = batches - 1
                if k >= batches:
                    k = batches - 1
                if k >= 0:
                    b_area[c][k] += seg
                    b_dur[c][k] += dt

    return _RepStats(
        end_time=end_time,
        arrivals=arrivals,
        delivered=delivered,
        preempted=preempted,
        discarded=discarded,
        in_flight=in_flight,
        entered_service=entered_service,
        race_entries=race_entries,
        busy_time=busy_time,
        aoi_area=aoi_area,
        aoi_area_sq=aoi_area_sq,
        measure_from=measure_from,
        first_delivery=first_del,
        last_delivery=last_del,
        last_system_time=prev_t_sys,
        t_sums=t_sums,
        y_sums=y_sums,
        a_sums=a_sums,
        system_times=sys_items,
        records=rec_items,
        batch_aoi_area=b_area if track_batches else None,
        batch_aoi_dur=b_dur if track_batches else None,
        batch_sums=b_sums if track_batches else None,
        deliveries=deliveries,
    )


@dataclass
class SourceStats:
    """Merged per-source statistics of a simulation run."""

    arrivals: int
    delivered: int
    preempted: int
    discarded: int
    in_flight: int
    entered_service: int
    race_entries: int
    busy_time: float
    time_avg_aoi: float
    time_avg_aoi_sq: float
    aoi_ci_halfwidth: float
    system_time_mean: float
    system_time_ci_halfwidth: float
    interdeparture_mean: float
    interdeparture_ci_halfwidth: float
    paoi_mean: float
    paoi_moments: tuple[float, float]  # raw moments m1, m2
    paoi_ci_halfwidth: float
    system_times: np.ndarray
    delivery_records: np.ndarray  # columns: prev system time, interdep, peak age
    rep_windows: np.ndarray  # per rep: end, measure_from, area, first/last delivery, last T


@dataclass
class SimReport:
    """Merged output of all replications of one (config, policy) run."""

    system: SystemConfig
    policy: Policy
    sim: SimConfig
    per_source: tuple[SourceStats, ...]
    sum_time_avg_aoi: float
    sum_aoi_ci_halfwidth: float
    replication_aoi: np.ndarray  # (replications, sources) time-average AoI
    deliveries: np.ndarray | None = None

    def stats_identical(self, other: "SimReport") -> bool:
        """Bitwise equality of all statistical content (policy label aside)."""
        if len(self.per_source) != len(other.per_source):
            return False
        for a, b in zip(self.per_source, other.per_source):
            for field in fields(SourceStats):
                x, y = getattr(a, field.name), getattr(b, field.name)
                if not (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y):
                    return False
        return (
            self.sum_time_avg_aoi == other.sum_time_avg_aoi
            and self.sum_aoi_ci_halfwidth == other.sum_aoi_ci_halfwidth
            and np.array_equal(self.replication_aoi, other.replication_aoi)
        )


def _halfwidth(values: list[float]) -> float:
    vals = [v for v in values if not math.isnan(v)]
    m = len(vals)
    if m < 2:
        return math.nan
    sd = float(np.std(vals, ddof=1))
    return float(sps.t.ppf(0.975, m - 1)) * sd / math.sqrt(m)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else math.nan


def _merge(cfg: SystemConfig, policy: Policy, sim: SimConfig, reps: list[_RepStats]) -> SimReport:
    n_src = cfg.num_sources
    n_rep = len(reps)
    single = n_rep == 1
    per_source = []
    rep_aoi = np.full((n_rep, n_src), math.nan)

    for c in range(n_src):
        area = sum(r.aoi_area[c] for r in reps)
        area_sq = sum(r.aoi_area_sq[c] for r in reps)
        measured = sum(
            max(r.end_time - r.measure_from[c], 0.0)
            for r in reps
            if r.measure_from[c] != _INF
        )
        for i, r in enumerate(reps):
            if r.measure_from[c] != _INF and r.end_time > r.measure_from[c]:
                rep_aoi[i, c] = r.aoi_area[c] / (r.end_time - r.measure_from[c])

        def pooled(sums_name):
            # raw moments m1.. of the counted samples of all replications
            tot = [sum(col) for col in zip(*(getattr(r, sums_name)[c] for r in reps))]
            n = tot[0]
            return tuple(v / n if n else math.nan for v in tot[1:])

        paoi_moments = pooled("a_sums")

        if single:
            r = reps[0]
            aoi_vals = [
                _ratio(ar, dur)
                for ar, dur in zip(r.batch_aoi_area[c], r.batch_aoi_dur[c])
                if dur > 0
            ]
            t_sum, t_cnt, y_sum, a_sum, cnt = r.batch_sums[c]
            t_vals = [s / n for s, n in zip(t_sum, t_cnt) if n > 0]
            y_vals = [s / n for s, n in zip(y_sum, cnt) if n > 0]
            a_vals = [s / n for s, n in zip(a_sum, cnt) if n > 0]
        else:
            aoi_vals = [rep_aoi[i, c] for i in range(n_rep)]
            t_vals = [_ratio(r.t_sums[c][1], r.t_sums[c][0]) for r in reps]
            y_vals = [_ratio(r.y_sums[c][1], r.y_sums[c][0]) for r in reps]
            a_vals = [_ratio(r.a_sums[c][1], r.a_sums[c][0]) for r in reps]

        rep_windows = np.array(
            [
                [
                    r.end_time,
                    r.measure_from[c],
                    r.aoi_area[c],
                    r.first_delivery[c],
                    r.last_delivery[c],
                    r.last_system_time[c],
                ]
                for r in reps
            ]
        )
        per_source.append(
            SourceStats(
                arrivals=sum(r.arrivals[c] for r in reps),
                delivered=sum(r.delivered[c] for r in reps),
                preempted=sum(r.preempted[c] for r in reps),
                discarded=sum(r.discarded[c] for r in reps),
                in_flight=sum(r.in_flight[c] for r in reps),
                entered_service=sum(r.entered_service[c] for r in reps),
                race_entries=sum(r.race_entries[c] for r in reps),
                busy_time=sum(r.busy_time[c] for r in reps),
                time_avg_aoi=_ratio(area, measured),
                time_avg_aoi_sq=_ratio(area_sq, measured),
                aoi_ci_halfwidth=_halfwidth(aoi_vals),
                system_time_mean=pooled("t_sums")[0],
                system_time_ci_halfwidth=_halfwidth(t_vals),
                interdeparture_mean=pooled("y_sums")[0],
                interdeparture_ci_halfwidth=_halfwidth(y_vals),
                paoi_mean=paoi_moments[0],
                paoi_moments=paoi_moments,
                paoi_ci_halfwidth=_halfwidth(a_vals),
                system_times=np.concatenate(
                    [np.asarray(r.system_times[c], dtype=float) for r in reps]
                    or [np.empty(0)]
                ),
                delivery_records=(
                    np.array(
                        [rec for r in reps for rec in r.records[c]], dtype=float
                    ).reshape(-1, 3)
                ),
                rep_windows=rep_windows,
            )
        )

    sum_aoi = float(sum(s.time_avg_aoi for s in per_source))
    if single:
        r = reps[0]
        sums = []
        for k in range(sim.batches):
            ok = all(r.batch_aoi_dur[c][k] > 0 for c in range(n_src))
            if ok:
                sums.append(
                    sum(r.batch_aoi_area[c][k] / r.batch_aoi_dur[c][k] for c in range(n_src))
                )
        sum_hw = _halfwidth(sums)
    else:
        sum_rep_aoi = [float(np.sum(rep_aoi[i])) for i in range(n_rep)]
        sum_hw = _halfwidth(sum_rep_aoi)

    deliveries = None
    if reps[0].deliveries is not None:
        rows = [row for r in reps for row in r.deliveries]
        deliveries = np.array(rows, dtype=float).reshape(-1, 6)

    return SimReport(
        system=cfg,
        policy=policy,
        sim=sim,
        per_source=tuple(per_source),
        sum_time_avg_aoi=sum_aoi,
        sum_aoi_ci_halfwidth=sum_hw,
        replication_aoi=rep_aoi,
        deliveries=deliveries,
    )


def run(
    cfg: SystemConfig,
    policy: Policy,
    sim: SimConfig,
    workers: int = 1,
    collect_deliveries: bool = False,
) -> SimReport:
    """Simulate and merge all replications.

    Replications own disjoint substreams and merge in index order, so the
    report is bit-identical no matter how many workers execute them.
    """
    if not isinstance(policy, Policy):
        raise InvalidConfig(f"not a policy: {policy!r}")
    track_batches = sim.replications == 1
    args = [
        (cfg, policy, sim, rep, track_batches, collect_deliveries)
        for rep in range(sim.replications)
    ]
    if workers > 1 and sim.replications > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reps = list(pool.map(_simulate_once_star, args))
    else:
        reps = [_simulate_once(*a) for a in args]
    return _merge(cfg, policy, sim, reps)


def _simulate_once_star(args):
    return _simulate_once(*args)


# ---------------------------------------------------------------------------
# Empirical statistics and goodness-of-fit checks
# ---------------------------------------------------------------------------


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


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | skip
    statistic: float
    threshold: float
    detail: str

    @property
    def passed(self) -> bool:
        return self.status != "fail"


@dataclass(frozen=True)
class CheckSummary:
    results: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "fail"]


def _tilted_quantiles(dist, rate: float, n_bins: int) -> np.ndarray:
    """Inner bin edges of the exponentially tilted service law.

    The tilted density f_U(t) * exp(-rate * t) / M_U(-rate) is the system
    time of a delivered packet. Exponential and gamma tilts stay in
    family; other laws go through numeric CDF inversion.
    """
    qs = np.arange(1, n_bins) / n_bins
    if isinstance(dist, Exponential):
        return -np.log1p(-qs) / (dist.rate + rate)
    if isinstance(dist, Gamma):
        return sps.gamma.ppf(qs, dist.shape, scale=1.0 / (dist.rate + rate))
    if rate == 0.0:
        # no tilt: invert the plain CDF
        edges = []
        hi = dist.mean()
        for q in qs:
            while dist.cdf(hi) < q:
                hi *= 2.0
            edges.append(brentq(lambda t: dist.cdf(t) - q, 1e-12, hi, xtol=1e-12))
        return np.asarray(edges)
    norm = dist.mgf_point(-rate)

    def tilted_cdf(t: float) -> float:
        val, _ = quad(lambda u: dist.pdf(u) * math.exp(-rate * u), 0.0, t, limit=200)
        return val / norm

    edges = []
    hi = dist.mean()
    for q in qs:
        while tilted_cdf(hi) < q:
            hi *= 2.0
        edges.append(brentq(lambda t: tilted_cdf(t) - q, 1e-12, hi, xtol=1e-12))
    return np.asarray(edges)


def empirical_checks(
    report: SimReport,
    cfg: SystemConfig,
    policy: Policy,
    min_samples: int = 10_000,
    n_bins: int = 50,
) -> CheckSummary:
    """Goodness-of-fit of a probabilistic-policy run against the theory.

    Per source: (i) chi-square of delivered system times against the
    tilted service density on equal-probability bins, (ii) delivery
    probability of packets entering service against the service MGF at the
    negated preemption rate, (iii) idle-server race frequencies against
    the rate shares, (iv) observed preemption rate per unit of in-service
    exposure against the thinned arrival rate (a censoring-robust test of
    the exponential preemption-gap law).
    """
    if policy.kind is not PolicyKind.PROBABILISTIC:
        raise InvalidConfig("empirical checks are defined for the probabilistic policy")
    theta = policy.theta
    results: list[CheckResult] = []
    total_rate = cfg.total_rate
    total_races = sum(s.race_entries for s in report.per_source)
    if total_races < min_samples:
        raise InsufficientSamples(
            f"need >= {min_samples} idle-server races, got {total_races}"
        )

    for c, stats_c in enumerate(report.per_source):
        preempt_rate = theta * cfg.arrival_rates[c]

        # (i) system-time fit
        name = f"source{c}:system_time_fit"
        samples = stats_c.system_times
        if isinstance(cfg.service, Deterministic):
            results.append(
                CheckResult(name, "skip", math.nan, math.nan, "point-mass service has no density")
            )
        elif samples.size < min_samples:
            raise InsufficientSamples(
                f"need >= {min_samples} system-time samples for source {c}, got {samples.size}"
            )
        else:
            try:
                edges = _tilted_quantiles(cfg.service, preempt_rate, n_bins)
            except UnsupportedDensity:
                edges = None
            if edges is None:
                results.append(
                    CheckResult(name, "skip", math.nan, math.nan, "no density")
                )
            else:
                counts = np.bincount(
                    np.searchsorted(edges, samples), minlength=n_bins
                )
                expected = samples.size / n_bins
                stat = float(np.sum((counts - expected) ** 2) / expected)
                pval = float(sps.chi2.sf(stat, n_bins - 1))
                results.append(
                    CheckResult(
                        name,
                        "pass" if pval > 1e-3 else "fail",
                        pval,
                        1e-3,
                        f"chi2={stat:.1f} over {n_bins} bins, n={samples.size}",
                    )
                )

        # (ii) delivery probability
        name = f"source{c}:delivery_probability"
        n_entered = stats_c.entered_service
        if n_entered < min_samples:
            raise InsufficientSamples(
                f"need >= {min_samples} service entries for source {c}, got {n_entered}"
            )
        p_expect = cfg.service.mgf_point(-preempt_rate)
        # exclude the still-in-service packet: its outcome is undecided
        decided = stats_c.delivered + stats_c.preempted
        p_hat = stats_c.delivered / decided
        se = math.sqrt(p_expect * (1.0 - p_expect) / decided)
        z = abs(p_hat - p_expect) / se if se > 0 else 0.0
        results.append(
            CheckResult(
                name,
                "pass" if z <= 3.0 else "fail",
                z,
                3.0,
                f"empirical {p_hat:.5f} vs {p_expect:.5f} (n={decided})",
            )
        )

        # (iii) arrival-race frequency
        name = f"source{c}:race_frequency"
        p_expect = cfg.arrival_rates[c] / total_rate
        p_hat = stats_c.race_entries / total_races
        se = math.sqrt(p_expect * (1.0 - p_expect) / total_races)
        z = abs(p_hat - p_expect) / se if se > 0 else 0.0
        results.append(
            CheckResult(
                name,
                "pass" if z <= 3.0 else "fail",
                z,
                3.0,
                f"empirical {p_hat:.5f} vs {p_expect:.5f} (n={total_races})",
            )
        )

        # (iv) preemption rate over in-service exposure
        name = f"source{c}:preemption_rate"
        if preempt_rate == 0.0:
            status = "pass" if stats_c.preempted == 0 else "fail"
            results.append(
                CheckResult(
                    name, status, float(stats_c.preempted), 0.0,
                    "no preemption expected at theta*rate = 0",
                )
            )
        else:
            expect = preempt_rate * stats_c.busy_time
            if expect < 100.0:
                results.append(
                    CheckResult(
                        name, "skip", expect, 100.0,
                        "expected preemption count too small for a rate test",
                    )
                )
            else:
                z = abs(stats_c.preempted - expect) / math.sqrt(expect)
                results.append(
                    CheckResult(
                        name,
                        "pass" if z <= 3.0 else "fail",
                        z,
                        3.0,
                        f"{stats_c.preempted} preemptions vs {expect:.1f} expected "
                        f"over exposure {stats_c.busy_time:.1f}",
                    )
                )
    return CheckSummary(tuple(results))
