"""Discrete-event simulation of the multi-source M/G/1/1 update system.

Exact sample-path model: independent Poisson arrival streams per source,
a single server with no waiting room, and a packet management policy
deciding what an arrival does to a busy server. The age-of-information
sawtooth is integrated exactly per linear segment, so simulation output
is free of discretization error and serves as the statistical oracle for
the closed-form results.

The core steps through service attempts: per attempt, one scan over
the merged arrivals in service finds the one that preempts or, past the
delivery, the next to find the server idle. Under global preemption every
arrival enters service and is delivered iff it ends no later than the
next arrival, which needs no loop at all. Draws, attempts and the numpy
statistics move in blocks of ``_BLOCK``, so memory stays bounded, and the
reports are those of a one-event-at-a-time loop, bit for bit.

Randomness discipline: every (replication, source, purpose) triple owns
an independent substream, and a preemption coin is drawn only at a
same-source collision, where it alone decides. The non-preemptive and
self-preemptive policies run as the probabilistic one at theta = 0 / 1,
so those runs are bit-identical under shared seeds.
"""

from __future__ import annotations

import enum
import logging
import math
import time
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial

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
_BLOCK = 8192  # draws per substream refill; service attempts per statistics block
_INF = float("inf")
_PREEMPTED, _DELIVERED, _IN_FLIGHT = 0, 1, 2  # how a service attempt ends

_log = logging.getLogger(__name__)


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
        if self.horizon is not None and not 0 < self.horizon < _INF:
            raise InvalidConfig(f"horizon must be positive and finite, got {self.horizon}")
        for name in ("delivered_per_source", "replications", "batches"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer, type(None))):
                raise InvalidConfig(f"{name} must be an integer, got {value!r}")
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


@dataclass
class _Replication:
    """One replication's accumulators, merged later in replication order."""

    end_time: float
    counts: np.ndarray  # (7, sources): the _COUNTS
    times: np.ndarray  # (7, sources): the _TIMES
    sums: np.ndarray  # (sources, 6): T count and sum; Y/A count, Y, A and A^2 sums
    batch: np.ndarray  # (sources, 7, batches): see _Tally
    system_times: list  # per source, the reservoir of system times
    records: list  # per source, the (n, 3) reservoir of (prev T, Y, A)
    deliveries: np.ndarray | None  # (n, 6): source, generation, delivery, T, Y, A


# ---------------------------------------------------------------------------
# The attempt-level core
# ---------------------------------------------------------------------------


class _Arrivals:
    """The arrivals of all sources in event order: time, then lower source
    index, then arrival index. A source draws ``_BLOCK`` gaps at a time;
    ``np.cumsum`` of a block, the last time before it added to its first
    gap, is the one-at-a-time running sum exactly."""

    def __init__(self, cfg: SystemConfig, seed: int, rep: int, with_service: bool):
        n_src = cfg.num_sources
        self._gaps = [(substream(seed, rep, c, 0), 1 / r) for c, r in enumerate(cfg.arrival_rates)]
        self._service = cfg.service
        self._svc = [substream(seed, rep, c, 1) for c in range(n_src)] if with_service else None
        self._last = [0.0] * n_src  # each source's last drawn time
        self._pending = [(np.empty(0), np.empty(0))] * n_src  # unmerged times and services
        self.times, self.sources = [], []  # merged arrivals (see ``extend``)
        self.passed = np.zeros(n_src, np.int64)  # per source, arrivals trimmed off the lists
        for c in range(n_src):
            self._draw(c)

    def _draw(self, c: int) -> None:
        rng, scale = self._gaps[c]
        t = rng.exponential(scale, _BLOCK)
        t[0] += self._last[c]
        np.cumsum(t, out=t)
        self._last[c] = float(t[-1])
        svc = self._service.sample_n(self._svc[c], _BLOCK) if self._svc else t[:0]
        self._pending[c] = tuple(np.concatenate(x) for x in zip(self._pending[c], (t, svc)))

    def merge(self):
        """The next arrivals in event order as arrays of times, sources and
        services (None unless drawn): at most about ``_BLOCK``, all before the
        earliest last-drawn time, so no undrawn arrival comes before them."""
        frontier = min(self._last)
        cuts = [int(np.searchsorted(t, frontier)) for t, _ in self._pending]
        refill = sum(cuts) <= _BLOCK
        if not refill:  # stop at the (_BLOCK + 1)-th earliest time, ties included
            heads = np.concatenate([t[:k] for (t, _), k in zip(self._pending, cuts)])
            cutoff = np.partition(heads, _BLOCK)[_BLOCK]
            cuts = [int(np.searchsorted(t, cutoff, "right")) for t, _ in self._pending]
        times, svc = (np.concatenate([x[:k] for x, k in zip(xs, cuts)])
                      for xs in zip(*self._pending))
        self._pending = [(t[k:], s[k:]) for (t, s), k in zip(self._pending, cuts)]
        if refill:
            self._draw(self._last.index(frontier))
        order = np.argsort(times, kind="stable")
        src = np.repeat(np.arange(len(cuts)), cuts)[order]
        return times[order], src, svc[order] if self._svc else None

    def extend(self) -> None:
        times, src, _ = self.merge()
        self.times.extend(times.tolist())
        self.sources.extend(src.tolist())

    def count(self, t: float, inclusive: bool, trim: bool = False) -> np.ndarray:
        """Per source, the arrivals before t (or at t, when inclusive) that
        have reached the lists; ``trim`` drops those from the lists."""
        k = (bisect_right if inclusive else bisect_left)(self.times, t)
        seen = np.bincount(np.asarray(self.sources[:k], np.intp), minlength=len(self.passed))
        seen += self.passed
        if trim:
            self.passed = seen
            del self.times[:k], self.sources[:k]
        return seen


def _draws(draw):
    """The values of ``draw(_BLOCK)``, block after block."""
    while True:
        yield from draw(_BLOCK).tolist()


def _queue_attempts(arrivals: _Arrivals, cfg: SystemConfig, seed: int, rep: int, theta, limit):
    """Service attempts when only a same-source arrival can preempt: one
    whose coin falls below ``theta``. Yields flat lists of (source, start,
    end, outcome) in event order, a block at a time, up to the first event
    after ``limit``; an attempt still in service then ends the last block."""
    rngs = [[substream(seed, rep, c, k) for k in (1, 2)] for c in range(cfg.num_sources)]
    services = [_draws(partial(cfg.service.sample_n, svc)).__next__ for svc, _ in rngs]
    coins = [_draws(coin.random).__next__ for _, coin in rngs]
    times, sources = arrivals.times, arrivals.sources
    while not times:
        arrivals.extend()
    block = []
    add = block.extend
    p = 0  # the merged position of the attempt's arrival
    while times[p] <= limit:
        c, t0 = sources[p], times[p]
        if len(block) == 4 * _BLOCK:
            # keep the block's arrivals: a count-rule stop inside it counts them
            kept = len(times)
            arrivals.count(block[1], False, trim=True)
            p -= kept - len(times)
            yield block
            del block[:]
        dep = t0 + services[c]()
        while times[-1] < dep:
            arrivals.extend()
        i = p + 1  # the arrivals in service: one may preempt, the others are discarded
        while times[i] < dep and (sources[i] != c or not theta or coins[c]() >= theta):
            i += 1
        preempted = times[i] < dep
        end = times[i] if preempted else dep
        if end > limit:
            add((c, t0, limit, _IN_FLIGHT))
            break
        add((c, t0, end, _PREEMPTED if preempted else _DELIVERED))
        p = i  # the arrival that preempts, or the next to find the server idle
    yield block


def _global_attempts(arrivals: _Arrivals, limit):
    """Service attempts under global preemption, as (n, 4) arrays: every
    arrival enters service and is delivered iff no arrival comes first."""
    carry = [np.empty(0)] * 3  # the last arrival: its successor is not drawn yet
    while True:
        t, src, svc = (np.concatenate(pair) for pair in zip(carry, arrivals.merge()))
        carry = [t[-1:], src[-1:], svc[-1:]]
        n = int(np.searchsorted(t, limit, "right"))  # arrivals up to the limit
        final = n < len(t)
        n -= not final
        dep = t[:n] + svc[:n]
        delivered = dep <= t[1 : n + 1]
        end = np.where(delivered, dep, t[1 : n + 1])
        outcome = np.where(delivered, _DELIVERED, _PREEMPTED)
        if final and n and dep[-1] > limit:
            end[-1], outcome[-1] = limit, _IN_FLIGHT
        yield np.column_stack((src[:n], t[:n], end, outcome))
        if final:
            return


def _add_in_order(total: np.ndarray, keys, values) -> None:
    """total.flat[k] += v for each (k, v) pair, one after another: bincount
    adds its weights in input order, after each bin's running total."""
    m = total.size
    keys, values = np.concatenate((np.arange(m), keys)), np.concatenate((total.ravel(), values))
    total.flat[:] = np.bincount(keys, values, m)


def _columns(base, step, columns):
    """Keys and values for ``_add_in_order``: the i-th (mask, values) pair
    adds values[mask] at base[mask] + i * step."""
    keys = [base[m] + i * step for i, (m, _) in enumerate(columns)]
    values = [np.broadcast_to(v, base.shape)[m] for m, v in columns]
    return np.concatenate(keys), np.concatenate(values)


def _sawtooth(prev, prev_t, lo, t):
    """Exact areas under the age and its square from lo to t, the age
    growing from ``prev_t`` at the previous delivery ``prev`` <= lo."""
    base = prev_t + (lo - prev)
    dt = t - lo
    top = base + dt
    return dt * base + 0.5 * dt * dt, (top * top * top - base * base * base) / 3.0, dt


class _Reservoir:
    """Algorithm R: the first ``RESERVOIR_CAPACITY`` samples, then sample ``seen``
    (from 0) takes slot int(u * (seen + 1)) if below it, u from its own substream."""

    def __init__(self, rng, width: tuple):
        self._rng, self._cap, self.seen = rng, RESERVOIR_CAPACITY, 0
        self.items = np.empty((0,) + width)

    def add(self, values: np.ndarray) -> None:
        room = max(self._cap - self.seen, 0)
        if room and len(values):
            self.items = np.concatenate((self.items, values[:room]))
        rest = values[room:]
        if len(rest):
            seen = np.arange(self.seen + room, self.seen + len(values))
            slot = (self._rng.random(len(rest)) * (seen + 1)).astype(np.int64)
            keep = slot < self._cap
            # of the samples landing on one slot, the last stays
            slots, last = np.unique(slot[keep][::-1], return_index=True)
            self.items[slots] = rest[keep][::-1][last]
        self.seen += len(values)


# per-source counters and times of a _Tally, the counters in the order of SourceStats
_COUNTS = ("arrivals", "delivered", "preempted", "discarded", "in_flight", "entered_service",
           "race_entries")
_TIMES = ("busy_time", "aoi_area", "aoi_area_sq", "measure_from", "first_delivery",
          "last_delivery", "last_system_time")


class _Tally:
    """One replication's statistics, fed a block of attempts at a time."""

    def __init__(self, n_src: int, sim: SimConfig, rep: int, track_batches: bool, collect: bool):
        self.n, self.sim, self.b = n_src, sim, sim.batches if track_batches else 0
        if sim.horizon is not None:
            self.warmup = sim.warmup_fraction * sim.horizon
            self.width = (sim.horizon - self.warmup) / sim.batches
            self.opens_at = 1  # the delivery that opens a source's measuring window
        else:
            self.warm = int(round(sim.warmup_fraction * sim.delivered_per_source))
            self.opens_at = max(self.warm, 1)
        for name in _COUNTS + _TIMES:  # arrivals and discards are known at the end
            setattr(self, name, np.zeros(n_src, np.int64 if name in _COUNTS else float))
        self.measure_from, self.first_delivery, self.last_delivery = np.full((3, n_src), _INF)
        self.sums = np.zeros((n_src, 6))  # T count and sum; Y/A count, Y, A and A^2 sums
        # per source and batch: T sum and count, Y and A sums and count, area, duration
        self.batch = np.zeros((n_src, 7, self.b))
        self.reservoirs = [[_Reservoir(substream(sim.seed, rep, c, k), w)  # T; (prev T, Y, A)
                            for k, w in ((3, ()), (4, (3,)))] for c in range(n_src)]
        self.rows = [np.empty((0, 6))] if collect else None  # the dump, a block at a time
        self.after_delivery, self.blocks = True, 0  # the first attempt finds the server idle

    def add(self, block):
        """Account a block of attempts; the stop time if it holds the
        delivery that completes the count rule, else None."""
        src, start, end, outcome = np.asarray(block, dtype=float).reshape(-1, 4).T
        src, outcome = src.astype(np.intp), outcome.astype(np.intp)
        stop, target = None, self.sim.delivered_per_source
        if target is not None:  # stop at the delivery that brings the last source to it
            pos = np.flatnonzero(outcome == _DELIVERED)
            reach = [pos[src[pos] == c][target - self.delivered[c] - 1 :][:1]
                     for c in np.flatnonzero(self.delivered < target)]
            if all(len(r) for r in reach):
                cut = max(r[0] for r in reach) + 1
                src, start, end, outcome = src[:cut], start[:cut], end[:cut], outcome[:cut]
                stop = float(end[-1])
        if not len(src):
            return stop
        self.blocks += 1
        delivered = outcome == _DELIVERED
        count = lambda mask: np.bincount(src[mask], minlength=self.n)
        self.entered_service += count(slice(None))
        self.race_entries += count(np.concatenate(([self.after_delivery], delivered[:-1])))
        self.after_delivery = bool(delivered[-1])
        self.preempted += count(outcome == _PREEMPTED)
        self.in_flight += count(outcome == _IN_FLIGHT)
        _add_in_order(self.busy_time, src, end - start)
        if delivered.any():
            self._deliveries(src[delivered], start[delivered], end[delivered])
        return stop

    def _deliveries(self, src, gen, t):
        order = np.argsort(src, kind="stable")  # by source, in event order within each
        src, gen, t = src[order], gen[order], t[order]
        sys_t = t - gen
        counts = np.bincount(src, minlength=self.n)
        first = np.cumsum(counts) - counts  # each source's first row
        last = (first + counts - 1)[counts > 0]
        rank = np.arange(len(src)) - first[src]
        idx = self.delivered[src] + rank + 1  # the delivery's number within its source
        lead = rank == 0
        prev, prev_t = np.concatenate(([0.0], t[:-1])), np.concatenate(([0.0], sys_t[:-1]))
        prev[lead], prev_t[lead] = self.last_delivery[src[lead]], self.last_system_time[src[lead]]
        y = t - prev
        a = prev_t + y
        later = idx > 1  # y and a exist from a source's second delivery on
        opens = idx == self.opens_at
        if self.sim.horizon is not None:
            counted = t > self.warmup
            self.measure_from[src[opens]] = np.maximum(t[opens], self.warmup)
        else:
            counted = idx > self.warm
            self.measure_from[src[opens]] = t[opens]
        # the exact sawtooth over [prev, t], clipped to the measuring window
        lo = np.maximum(prev, np.where(idx > self.opens_at, self.measure_from[src], _INF))
        seg = t > lo
        area, area_sq, dt = np.zeros((3, len(t)))
        area[seg], area_sq[seg], dt[seg] = _sawtooth(prev[seg], prev_t[seg], lo[seg], t[seg])
        _add_in_order(self.aoi_area, src[seg], area[seg])
        _add_in_order(self.aoi_area_sq, src[seg], area_sq[seg])
        both = counted & later
        _add_in_order(self.sums, *_columns(src * 6, 1, [
            (counted, 1.0), (counted, sys_t), (both, 1.0), (both, y), (both, a), (both, a * a)]))
        if self.b:
            b = self.b
            if self.sim.horizon is not None:
                k = ((t - self.warmup) / self.width).astype(np.intp)
            else:
                counted_target = max(self.sim.delivered_per_source - self.warm, 1)
                k = ((idx - self.warm - 1) * b) // counted_target
            # a counted delivery, or one that ends a segment, has k >= 0
            _add_in_order(self.batch, *_columns(src * 7 * b + np.minimum(k, b - 1), b, [
                (counted, sys_t), (counted, 1.0), (both, y), (both, a), (both, 1.0),
                (seg, area), (seg, dt)]))
        records = np.column_stack((prev_t, y, a))
        for c in np.flatnonzero(counts):
            rows = slice(first[c], first[c] + counts[c])
            times, recs = self.reservoirs[c]
            times.add(sys_t[rows][counted[rows]])
            recs.add(records[rows][both[rows]])
        if self.rows is not None:
            dump = np.empty((len(t), 6))
            y[~later] = a[~later] = np.nan
            dump[order] = np.column_stack((src, gen, t, sys_t, y, a))
            self.rows.append(dump)
        self.first_delivery[src[~later]] = t[~later]
        self.last_delivery[src[last]], self.last_system_time[src[last]] = t[last], sys_t[last]
        self.delivered += counts

    def finish(self, end_time: float, arrivals: np.ndarray) -> _Replication:
        """Close every source's sawtooth at the end of the run and hand over
        the replication's arrays."""
        lo = np.maximum(self.last_delivery, self.measure_from)
        seg = np.flatnonzero(end_time > lo)  # lo is inf until a source's window opens
        prev, prev_t = self.last_delivery[seg], self.last_system_time[seg]
        area, area_sq, dt = _sawtooth(prev, prev_t, lo[seg], end_time)
        _add_in_order(self.aoi_area, seg, area)
        _add_in_order(self.aoi_area_sq, seg, area_sq)
        b = self.b
        if b:
            # the end falls in the last batch: under the time rule,
            # (end - warmup) / width is the batch count to within an ulp
            last = seg * 7 * b + b - 1
            _add_in_order(self.batch, np.r_[last + 5 * b, last + 6 * b], np.r_[area, dt])
        self.arrivals, self.discarded = arrivals, arrivals - self.entered_service
        return _Replication(
            end_time,
            np.stack([getattr(self, name) for name in _COUNTS]),
            np.stack([getattr(self, name) for name in _TIMES]),
            self.sums,
            self.batch,
            [times.items for times, _ in self.reservoirs],
            [recs.items for _, recs in self.reservoirs],
            None if self.rows is None else np.concatenate(self.rows),
        )


def _simulate_once(
    cfg: SystemConfig,
    policy: Policy,
    sim: SimConfig,
    rep: int,
    track_batches: bool,
    collect_deliveries: bool,
) -> _Replication:
    clock = time.perf_counter()
    limit = sim.horizon if sim.horizon is not None else _INF
    arrivals = _Arrivals(cfg, sim.seed, rep, policy.kind is PolicyKind.GLOBALLY_PREEMPTIVE)
    if policy.kind is PolicyKind.GLOBALLY_PREEMPTIVE:
        blocks = _global_attempts(arrivals, limit)
    else:
        theta = {PolicyKind.NON_PREEMPTIVE: 0.0, PolicyKind.SELF_PREEMPTIVE: 1.0}
        theta = theta.get(policy.kind, policy.theta)
        blocks = _queue_attempts(arrivals, cfg, sim.seed, rep, theta, limit)
    tally = _Tally(cfg.num_sources, sim, rep, track_batches, collect_deliveries)
    end_time = limit
    for block in blocks:
        stop = tally.add(block)
        if stop is not None:
            end_time = stop
            break
    if policy.kind is PolicyKind.GLOBALLY_PREEMPTIVE:  # every arrival enters service
        counts = tally.entered_service.copy()
    else:
        counts = arrivals.count(end_time, inclusive=sim.horizon is not None)
    stats = tally.finish(end_time, counts)
    seconds = time.perf_counter() - clock
    info = dict(replication=rep, arrivals=int(counts.sum()),
                attempts=int(tally.entered_service.sum()), deliveries=int(tally.delivered.sum()),
                blocks=tally.blocks, seconds=seconds)
    _log.debug(
        "replication %(replication)d: %(arrivals)d arrivals, %(attempts)d service attempts, "
        "%(deliveries)d deliveries, %(blocks)d blocks, %(seconds).3f s, %(rate).0f arrivals/s",
        dict(info, rate=info["arrivals"] / seconds if seconds > 0 else math.inf), extra=info)
    return stats


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
        )


def _ratio(num, den) -> np.ndarray:
    """num / den where den > 0, else NaN, elementwise, as a new C-ordered array."""
    out = np.full(np.broadcast_shapes(np.shape(num), np.shape(den)), math.nan)
    return np.divide(num, den, out=out, where=den > 0)


def _in_order(stack: np.ndarray) -> np.ndarray:
    """Totals over axis 0, adding one row after another; ``sum(axis=0)``
    may add the rows pairwise, which rounds differently."""
    return np.cumsum(stack, axis=0)[-1]


def _halfwidth(values: np.ndarray) -> float:
    """95% CI half-width of the mean of the group means that are not NaN."""
    vals = values[~np.isnan(values)]
    m = len(vals)
    if m < 2:
        return math.nan
    sd = float(np.std(vals, ddof=1))
    return float(sps.t.ppf(0.975, m - 1)) * sd / math.sqrt(m)


def _merge(cfg: SystemConfig, policy: Policy, sim: SimConfig, reps: list) -> SimReport:
    """The _Replication records stacked on axis 0, merged in replication order."""
    end = np.array([r.end_time for r in reps])[:, None]
    counts, times, sums = (
        np.stack([getattr(r, k) for r in reps]) for k in ("counts", "times", "sums"))
    busy, area, area_sq, measure_from, first, last, last_t = times.transpose(1, 0, 2)
    span = end - measure_from  # -inf until a source's measuring window opens
    rep_aoi = _ratio(area, span)  # (replications, sources)
    measured = _in_order(np.maximum(span, 0.0))
    aoi, aoi_sq = _ratio(_in_order(area), measured), _ratio(_in_order(area_sq), measured)
    tot = _in_order(sums)  # pooled over all replications: raw moments of the counted samples
    t_mean, (y_mean, a_m1, a_m2) = _ratio(tot[:, 1], tot[:, 0]), _ratio(tot[:, 3:], tot[:, 2:3]).T
    # CI groups per source, each (AoI, T, Y, peak AoI) x group: the batches of a
    # single run, else the replications; across sources the sum-AoI group
    # means add in order per batch, and with numpy's pairwise sum per replication
    if len(reps) == 1:
        b = reps[0].batch
        groups = _ratio(b[:, [5, 0, 2, 3]], b[:, [6, 1, 4, 4]])
        sum_groups = _in_order(groups[:, 0])
    else:
        groups = np.concatenate(
            (rep_aoi[..., None], _ratio(sums[..., [1, 3, 4]], sums[..., [0, 2, 2]])), axis=2
        ).transpose(1, 2, 0)
        sum_groups = np.sum(rep_aoi, axis=1)  # C-ordered: each row as np.sum of the row
    windows = np.stack(np.broadcast_arrays(end, measure_from, area, first, last, last_t), axis=2)
    counters = _in_order(counts).T.tolist()  # Python ints and floats from here on
    values = np.column_stack((_in_order(busy), aoi, aoi_sq, t_mean, y_mean, a_m1, a_m2)).tolist()
    per_source = []
    for c in range(cfg.num_sources):
        busy_c, aoi_c, aoi_sq_c, t_c, y_c, m1, m2 = values[c]
        hw_aoi, hw_t, hw_y, hw_a = (_halfwidth(g) for g in groups[c])
        per_source.append(
            SourceStats(
                **dict(zip(_COUNTS, counters[c])),
                busy_time=busy_c,
                time_avg_aoi=aoi_c,
                time_avg_aoi_sq=aoi_sq_c,
                aoi_ci_halfwidth=hw_aoi,
                system_time_mean=t_c,
                system_time_ci_halfwidth=hw_t,
                interdeparture_mean=y_c,
                interdeparture_ci_halfwidth=hw_y,
                paoi_mean=m1,
                paoi_moments=(m1, m2),
                paoi_ci_halfwidth=hw_a,
                system_times=np.concatenate([r.system_times[c] for r in reps]),
                delivery_records=np.concatenate([r.records[c] for r in reps]),
                rep_windows=windows[:, c],
            )
        )
    collected = reps[0].deliveries is not None
    return SimReport(
        system=cfg,
        policy=policy,
        sim=sim,
        per_source=tuple(per_source),
        sum_time_avg_aoi=float(_in_order(aoi)),
        sum_aoi_ci_halfwidth=_halfwidth(sum_groups),
        deliveries=np.concatenate([r.deliveries for r in reps]) if collected else None,
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
        cdf = dist.cdf  # no tilt: invert the plain CDF
    else:
        norm = dist.mgf_point(-rate)

        def cdf(t: float) -> float:
            val, _ = quad(lambda u: dist.pdf(u) * math.exp(-rate * u), 0.0, t, limit=200)
            return val / norm

    edges = []
    hi = dist.mean()
    for q in qs:
        while cdf(hi) < q:
            hi *= 2.0
        edges.append(brentq(lambda t: cdf(t) - q, 1e-12, hi, xtol=1e-12))
    return np.asarray(edges)


def _z_check(name: str, z: float, detail: str) -> CheckResult:
    return CheckResult(name, "pass" if z <= 3.0 else "fail", z, 3.0, detail)


def _share_check(name: str, hits: int, n: int, p_expect: float) -> CheckResult:
    """z-test of the share hits / n against p_expect."""
    p_hat = hits / n
    se = math.sqrt(p_expect * (1.0 - p_expect) / n)
    z = abs(p_hat - p_expect) / se if se > 0 else 0.0
    return _z_check(name, z, f"empirical {p_hat:.5f} vs {p_expect:.5f} (n={n})")


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
        results.append(_share_check(name, stats_c.delivered, decided, p_expect))

        # (iii) arrival-race frequency
        p_expect = cfg.arrival_rates[c] / total_rate
        name = f"source{c}:race_frequency"
        results.append(_share_check(name, stats_c.race_entries, total_races, p_expect))

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
                detail = (f"{stats_c.preempted} preemptions vs {expect:.1f} expected "
                          f"over exposure {stats_c.busy_time:.1f}")
                results.append(_z_check(name, z, detail))
    return CheckSummary(tuple(results))
