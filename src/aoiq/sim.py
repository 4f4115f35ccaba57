"""Discrete-event simulation of the multi-source M/G/1/1 update system.

Exact sample-path model: independent Poisson arrival streams per source,
a single server with no waiting room, and a packet management policy
deciding what an arrival does to a busy server. The age-of-information
sawtooth is integrated exactly per linear segment, so simulation output
is free of discretization error and serves as the statistical oracle for
the closed-form results.

The sampler draws service attempts, not arrivals (regenerative
simulation; Asmussen and Glynn, Stochastic Simulation, 2007, ch. IV).
An arrival to a busy server changes nothing unless it preempts, so by
Poisson thinning and memorylessness the path starts afresh at every
delivery: the server idles Exp(Lambda), source c wins with probability
lambda_c / Lambda, and each of its attempts, service S, is preempted at
G ~ Exp(theta lambda_c) if G < S, which starts its next attempt. Under
global preemption G ~ Exp(Lambda) and every attempt's source is a fresh
winner. Given the busy times, source c's discards are Poisson with mean
lambda_c (others' busy time) + (1 - theta) lambda_c (own busy time), one
draw at the end. Each piece has its exact law, so reports are exact in
distribution and the counter identity holds by construction.

Every policy runs through one pooled layout. Attempts are drawn ahead
into pools of (source, duration, delivered), and each episode, an idle
wait and then attempts up to a delivery, takes the attempts of its pool
up to that pool's next delivery. Under the probabilistic policy there is
a pool per source, which the episode's winner picks; under global
preemption one system pool serves every episode. A block lays out the
waiting episodes up to the first whose pool lacks its delivery: up to
``_BLOCK`` episodes, or about ``_BLOCK`` attempts where deliveries are
rare, as under global preemption. Blocks give the reports of a
one-attempt-at-a-time loop over the same substreams, bit for bit.

Substreams: ``substream(seed, rep, c, k)`` serves source c with k = 0
its discards, 1 service times, 2 unit-exponential preemption gaps
(divided by theta lambda_c); k = 3 and 4 are retired, and no new use
takes them over. The system key
``(rep, C, k)``, C the number of sources and so no source index, serves
k = 0 the idle waits, 1 the winners, 2 the global preemption gaps. The
non-preemptive and self-preemptive policies run as the probabilistic one
at theta = 0 / 1 (``Policy.effective_theta``), so those runs are
bit-identical under shared seeds.
"""

from __future__ import annotations

import contextlib
import enum
import logging
import math
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from ._special import gamma_pq, t_quantile
from .analytic import SystemConfig
from .service import UnsupportedDensity, substream

__all__ = [
    "Policy",
    "PolicyKind",
    "SimConfig",
    "SourceStats",
    "SimReport",
    "InvalidConfig",
    "InsufficientSamples",
    "run",
    "empirical_checks",
    "CheckResult",
    "CheckSummary",
    "verdict",
]

RESERVOIR_CAPACITY = 100_000
_BLOCK = 8192  # episodes waiting per block; a pool draws its share at a time, to _BLOCK attempts
_INF = float("inf")
_PREEMPTED, _DELIVERED, _IN_FLIGHT = 0, 1, 2  # how a service attempt ends

_log = logging.getLogger(__name__)


class InvalidConfig(ValueError):
    """Simulation configuration violates its invariants."""


class InsufficientSamples(ValueError):
    """Too few samples for the requested statistic."""


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

    @classmethod
    def of(cls, kind: PolicyKind, theta: float) -> "Policy":
        """The policy of ``kind``; only the probabilistic one takes ``theta``."""
        return cls.probabilistic(theta) if kind is PolicyKind.PROBABILISTIC else cls(kind)

    @property
    def effective_theta(self) -> float | None:
        """The preemption probability the policy acts with: theta, 0 for the
        non-preemptive and 1 for the self-preemptive policy; None under
        global preemption, where no theta applies."""
        return {PolicyKind.NON_PREEMPTIVE: 0.0, PolicyKind.SELF_PREEMPTIVE: 1.0,
                PolicyKind.GLOBALLY_PREEMPTIVE: None}.get(self.kind, self.theta)


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
        for name in ("seed", "delivered_per_source", "replications", "batches"):
            value = getattr(self, name)
            if value is None and name == "delivered_per_source":
                continue  # the time rule
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
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
        if not 0 <= int(self.seed) < 2**64:  # SeedSequence takes no negative entropy
            raise InvalidConfig(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass
class _Replication:
    """One replication's accumulators, merged later in replication order."""

    end_time: float
    counts: np.ndarray  # (7, sources): the _COUNTS
    times: np.ndarray  # (6, sources): the _TIMES
    sums: np.ndarray  # (sources, 4): Y/A count, Y, A and A^2 sums
    batch: np.ndarray  # (sources, 5, batches): see _Tally
    system_times: list  # per source, the chunks of its first counted system times
    deliveries: np.ndarray | None  # (n, 6): source, generation, delivery, T, Y, A


# ---------------------------------------------------------------------------
# The episode sampler
# ---------------------------------------------------------------------------


def _lay_out(t: float, src, wait, dur, delivered, limit: float):
    """Attempts on the clock from t, each after its wait (0 inside an
    episode), as one in-order running sum, as a one-at-a-time loop adds.
    Returns the (source, start, end, outcome) block up to the first event
    past ``limit`` (where one in service ends) and the clock, or None."""
    steps = np.column_stack((wait, dur)).ravel()
    steps[0] += t
    start, end = np.cumsum(steps).reshape(-1, 2).T
    outcome = np.where(delivered, _DELIVERED, _PREEMPTED)
    k = int(np.searchsorted(end, limit, "right"))  # the first attempt to end past limit
    if k == len(end):
        return (src, start, end, outcome), float(end[-1])
    k += bool(start[k] <= limit)
    src, start, end, outcome = src[:k], start[:k], end[:k], outcome[:k]
    if k and end[-1] > limit:
        end[-1], outcome[-1] = limit, _IN_FLIGHT
    return (src, start, end, outcome), None


def _attempts(cfg: SystemConfig, seed: int, rep: int, theta, limit: float):
    """Service attempts in event order, as blocks of (source, start, end,
    outcome) arrays, up to the first event after ``limit``. An episode takes
    the attempts of its pool up to and with the pool's next delivery: given
    ``theta``, the pool of the source that wins the episode; under global
    preemption (``theta`` None), the one system pool, whose every attempt
    has a winner of its own."""
    n, total = cfg.num_sources, cfg.total_rate
    rates = np.asarray(cfg.arrival_rates)
    narrow = np.min_scalar_type(n - 1)  # source and pool keys this narrow sort by radix
    shares = np.cumsum(rates)  # source c wins iff shares[c-1] <= u * Lambda < shares[c]
    waits, winners, global_gaps = (substream(seed, rep, n, k) for k in range(3))
    services = [substream(seed, rep, c, 1) for c in range(n)]
    wait = lambda k: waits.exponential(1 / total, k)
    # winner(k) is searchsorted(shares, u * Lambda, "right") for k uniforms u, mostly
    # without its branches: u * cells is exact for a power of two and u * Lambda rises
    # with u, so least[u * cells] is at most the winner, and is it unless shares[least]
    # <= u * Lambda; only those draws, under one in eight on average, are searched
    cells = 1 << (4 * n - 1).bit_length()
    least = np.searchsorted(shares, np.arange(cells) / cells * shares[-1], "right")

    def winner(k):
        u = winners.random(k)
        x, c = u * shares[-1], least[(u * cells).astype(np.intp)]
        up = np.flatnonzero(x >= shares[c])
        c[up] = np.searchsorted(shares, x[up], "right")
        return c

    if theta is None:
        pool_rates, pool_of = np.array([total]), lambda k: np.zeros(k, np.intp)

        def draw(p, k):  # k attempts of pool p: source, service time, preemption gap
            src = winner(k)
            svc, count = np.empty(k), np.bincount(src, minlength=n)
            # each source's service times go to its attempts in order
            svc[np.argsort(src.astype(narrow), kind="stable")] = np.concatenate(
                [cfg.service.sample_n(services[c], count[c]) for c in range(n)])
            return src, svc, global_gaps.exponential(1 / total, k)
    else:
        gaps = [substream(seed, rep, c, 2) for c in range(n)]
        pool_rates, pool_of = rates, winner

        def draw(p, k):
            gap = gaps[p].standard_exponential(k) / (theta * rates[p]) if theta else _INF
            return np.full(k, p), cfg.service.sample_n(services[p], k), gap
    npool = len(pool_rates)
    chunks = np.ceil(_BLOCK / total * pool_rates).astype(np.intp)  # a pool's share of a block
    # per pool, the attempts drawn but not laid out, in pieces of (source, duration,
    # delivered); their number and deliveries, and the episodes that wait for them
    pools = [[] for _ in range(npool)]
    sizes, found, need = np.zeros((3, npool), np.intp)
    v, begun = np.empty(0, np.intp), False  # the episodes not laid out, by pool; has v[0] begun
    t = 0.0
    while t is not None:
        fresh = pool_of(_BLOCK - len(v))
        v = np.concatenate((v, fresh))
        need += np.bincount(fresh, minlength=npool)
        for p in np.flatnonzero(found < need):  # a pool stays under two blocks
            while found[p] < need[p] and sizes[p] < _BLOCK:
                src, svc, gap = draw(p, max(chunks[p], sizes[p]))  # the pool at least doubles
                ok = svc <= gap
                pools[p].append((src, np.minimum(svc, gap), ok))
                sizes[p] += len(ok)
                found[p] += np.count_nonzero(ok)
        src, dur, ok = (np.concatenate(x) for x in zip(*(piece for pool in pools for piece in pool)))
        off, base = sizes.cumsum() - sizes, (found + 1).cumsum() - found - 1
        # pool p's r-th episode runs from attempt lo[base[p] + r] up to lo[base[p] + r + 1];
        # at r = found[p], what follows its last delivery, which ends no episode
        ends = np.flatnonzero(ok)  # the deliveries, pool by pool
        lo = np.empty(len(ends) + npool + 1, np.intp)
        lo[np.arange(1, len(ends) + 1) + np.repeat(np.arange(npool), found)] = ends + 1
        lo[base], lo[-1] = off, len(ok)
        # each episode's slot base[p] + r, r its rank in its pool p: episodes up to the
        # first whose pool lacks its delivery, that one in part; as no more episodes
        # complete than the pools hold deliveries, the first found.sum() + 1 decide
        head = v[: found.sum() + 1]
        order, count = np.argsort(head.astype(narrow), kind="stable"), np.bincount(head, minlength=npool)
        e = np.empty_like(order)
        e[order] = np.arange(len(head)) + (base - count.cumsum() + count)[head[order]]
        complete = e < (base + found)[head]
        m = len(head) - 1 if complete.all() else int(np.argmin(complete))
        e = e[: m + 1]
        size = lo[e + 1] - lo[e]
        heads = size.cumsum() - size
        idx = np.repeat(lo[e] - heads, size) + np.arange(heads[-1] + size[-1])
        pause = np.zeros(len(idx))  # each episode's wait, before its first attempt
        begins = heads[begun : m + bool(size[-1])]
        pause[begins] = wait(len(begins))
        block, t = _lay_out(t, src[idx], pause, dur[idx], ok[idx], limit)
        yield block
        done = np.bincount(head[: m + 1], minlength=npool)  # the episodes laid out
        cut = lo[base + done]  # each pool's first attempt left
        pools = [[(src[i:j], dur[i:j], ok[i:j])] for i, j in zip(cut, off + sizes)]
        done[v[m]] -= not complete[m]  # an incomplete v[m] waits on, having used no delivery,
        begun = bool(size[-1]) and not complete[m]  # and resumes without a wait if it began
        sizes, found, need = off + sizes - cut, found - done, need - done
        v = v[m + complete[m]:]


def _sawtooth(prev, prev_t, lo, t):
    """Exact areas under the age and its square from lo to t, the age
    growing from ``prev_t`` at the previous delivery ``prev`` <= lo."""
    base = prev_t + (lo - prev)
    dt = t - lo
    top = base + dt
    return dt * base + 0.5 * dt * dt, (top * top * top - base * base * base) / 3.0, dt


# per-source counters and times of a _Tally, the counters in the order of SourceStats
_COUNTS = ("arrivals", "delivered", "preempted", "discarded", "in_flight", "entered_service",
           "race_entries")
_TIMES = ("busy_time", "aoi_area", "aoi_area_sq", "measure_from", "last_delivery",
          "last_system_time")


class _Tally:
    """One replication's statistics, fed a block of attempts at a time."""

    def __init__(self, n_src: int, sim: SimConfig, collect: bool):
        # batches give a single run its CIs; replications give them otherwise
        self.n, self.sim, self.b = n_src, sim, sim.batches if sim.replications == 1 else 0
        if sim.horizon is not None:
            self.warmup = sim.warmup_fraction * sim.horizon
            self.width = (sim.horizon - self.warmup) / sim.batches
            self.opens_at = 1  # the delivery that opens a source's measuring window
        else:
            self.warm = int(round(sim.warmup_fraction * sim.delivered_per_source))
            self.opens_at = max(self.warm, 1)
        for name in _COUNTS:  # arrivals and discards are known at the end
            setattr(self, name, np.zeros(n_src, np.int64))
        self.measure_from, self.last_delivery = np.full((2, n_src), _INF)
        self.last_system_time = np.zeros(n_src)
        # per source: busy time, AoI area and its square; Y/A count, Y, A and A^2 sums;
        # per batch, Y and A sums and count, area, duration. A block adds to them in one
        # bincount, in input order after each bin's total: keys and values lead with
        # arange(len(flat)) and flat; they persist, as fresh pages fault
        self.flat = np.zeros(n_src * (7 + 5 * self.b))
        self.busy_time, self.aoi_area, self.aoi_area_sq = self.flat[: 3 * n_src].reshape(3, -1)
        self.sums = self.flat[3 * n_src : 7 * n_src].reshape(n_src, 4)
        self.batch = self.flat[7 * n_src :].reshape(n_src, 5, self.b)
        self.keys, self.values = np.arange(len(self.flat)), np.empty(len(self.flat))
        self.system_times = [[np.empty(0)] for _ in range(n_src)]  # a source with none: empty
        self.room = np.full(n_src, RESERVOIR_CAPACITY)
        self.rows = [np.empty((0, 6))] if collect else None  # the dump, a block at a time
        self.after_delivery, self.blocks = True, 0  # the first attempt finds the server idle

    def add(self, src, start, end, outcome):
        """Account a block of attempts; the stop time if it holds the
        delivery that completes the count rule, else None."""
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
        after = np.concatenate(([self.after_delivery], delivered[:-1]))
        self.after_delivery = bool(delivered[-1])
        # per source, the attempts by (after a delivery, outcome)
        kinds = np.bincount(src * 6 + 3 * after + outcome, minlength=6 * self.n).reshape(-1, 2, 3)
        self.entered_service += kinds.sum(axis=(1, 2))
        self.race_entries += kinds[:, 1].sum(axis=1)
        self.preempted += kinds[:, :, _PREEMPTED].sum(axis=1)
        self.in_flight += kinds[:, :, _IN_FLIGHT].sum(axis=1)
        m, na = len(self.flat), len(src)
        size = m + na + (11 if self.b else 6) * np.count_nonzero(delivered)
        if len(self.keys) < size:
            self.keys, self.values = np.arange(size + _BLOCK), np.empty(size + _BLOCK)
        keys, values = self.keys[:size], self.values[:size]
        values[:m], keys[m : m + na], values[m : m + na] = self.flat, src, end - start  # busy time
        if delivered.any():
            pos = np.flatnonzero(delivered)  # faster than a mask where deliveries are sparse
            self._deliveries(src[pos], start[pos], end[pos], keys[m + na :], values[m + na :])
        self.flat[:] = np.bincount(keys, values, m)
        return stop

    def _deliveries(self, src, gen, t, keys, values):
        """Account a block's deliveries; their sums go to ``keys`` and ``values``, a row each."""
        n, b = self.n, self.b
        order = np.argsort(src.astype(np.min_scalar_type(n - 1)), kind="stable")  # by source
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
        seg, both = t > lo, counted & later
        # +0.0, which leaves a sum as it is, where a row's mask is off; there
        # y, a and the sawtooth may be inf or NaN, so no row multiplies by a mask
        keys, x = keys.reshape(-1, len(t)), values.reshape(-1, len(t))
        x[:] = 0.0
        x[0, seg], x[1, seg], dt = _sawtooth(prev[seg], prev_t[seg], lo[seg], t[seg])
        for row, value in zip(x[2:9], [1.0, y, a, a * a, y, a, 1.0]):
            np.copyto(row, value, where=both)
        np.add([[n], [2 * n]], src, out=keys[:2])
        np.add(3 * n + np.arange(4)[:, None], 4 * src, out=keys[2:6])
        if b:
            x[9], x[10, seg] = x[0], dt
            if self.sim.horizon is not None:
                k = ((t - self.warmup) / self.width).astype(np.intp)
            else:
                counted_target = max(self.sim.delivered_per_source - self.warm, 1)
                k = ((idx - self.warm - 1) * b) // counted_target
            # k < 0 before the warm-up, where the batch rows hold +0.0
            k = 7 * n + 5 * b * src + np.clip(k, 0, b - 1)
            np.add(b * np.arange(5)[:, None], k, out=keys[6:])
        for c in np.flatnonzero(counts * self.room):
            rows = slice(first[c], first[c] + counts[c])
            kept = sys_t[rows][counted[rows]][: self.room[c]]
            self.system_times[c].append(kept)
            self.room[c] -= len(kept)
        if self.rows is not None:
            dump = np.empty((len(t), 6))
            y[~later] = a[~later] = np.nan
            dump[order] = np.column_stack((src, gen, t, sys_t, y, a))
            self.rows.append(dump)
        self.last_delivery[src[last]], self.last_system_time[src[last]] = t[last], sys_t[last]
        self.delivered += counts

    def finish(self, end_time: float, discarded: np.ndarray) -> _Replication:
        """Close every source's sawtooth at the end of the run and hand over
        the replication's arrays."""
        lo = np.maximum(self.last_delivery, self.measure_from)
        seg = np.flatnonzero(end_time > lo)  # lo is inf until a source's window opens
        prev, prev_t = self.last_delivery[seg], self.last_system_time[seg]
        area, area_sq, dt = _sawtooth(prev, prev_t, lo[seg], end_time)
        n, b, m = self.n, self.b, len(self.flat)
        keys, values = [np.arange(m), n + seg, 2 * n + seg], [self.flat, area, area_sq]
        if b:
            # the end falls in the last batch: under the time rule,
            # (end - warmup) / width is the batch count to within an ulp
            last = 7 * n + seg * 5 * b + b - 1
            keys, values = keys + [last + 3 * b, last + 4 * b], values + [area, dt]
        self.flat[:] = np.bincount(np.concatenate(keys), np.concatenate(values), m)
        self.arrivals, self.discarded = self.entered_service + discarded, discarded
        return _Replication(
            end_time,
            np.stack([getattr(self, name) for name in _COUNTS]),
            np.stack([getattr(self, name) for name in _TIMES]),
            self.sums,
            self.batch,
            self.system_times,
            None if self.rows is None else np.concatenate(self.rows),
        )


def _simulate_once(
    cfg: SystemConfig,
    policy: Policy,
    sim: SimConfig,
    rep: int,
    collect_deliveries: bool,
) -> _Replication:
    clock = time.perf_counter()
    limit = sim.horizon if sim.horizon is not None else _INF
    theta = policy.effective_theta
    tally = _Tally(cfg.num_sources, sim, collect_deliveries)
    # sample_s and tally_s: the seconds spent in the sampler and in the tally
    end_time, sample_s, tally_s, lap = limit, 0.0, 0.0, time.perf_counter()
    for block in _attempts(cfg, sim.seed, rep, theta, limit):
        sample_s += (sampled := time.perf_counter()) - lap
        stop = tally.add(*block)
        tally_s += (lap := time.perf_counter()) - sampled
        if stop is not None:
            end_time = stop
            break
    discarded = np.zeros(cfg.num_sources, np.int64)  # global preemption: every arrival enters
    if theta is not None:  # a busy server loses source c's arrivals but its preempting ones
        busy = tally.busy_time
        mean = np.asarray(cfg.arrival_rates) * (_in_order(busy) - theta * busy)
        discarded[:] = [substream(sim.seed, rep, c, 0).poisson(mu) for c, mu in enumerate(mean)]
    stats = tally.finish(end_time, discarded)
    seconds = time.perf_counter() - clock
    info = dict(replication=rep, arrivals=int(tally.arrivals.sum()),
                attempts=int(tally.entered_service.sum()), deliveries=int(tally.delivered.sum()),
                blocks=tally.blocks, seconds=seconds, sample_s=sample_s, tally_s=tally_s)
    _log.debug(
        "replication %(replication)d: %(arrivals)d arrivals, %(attempts)d service attempts, "
        "%(deliveries)d deliveries, %(blocks)d blocks, %(seconds).3f s (sampler %(sample_s).3f s, "
        "tally %(tally_s).3f s), %(rate).0f arrivals/s",
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
    interdeparture_mean: float
    interdeparture_ci_halfwidth: float
    paoi_moments: tuple[float, float]  # raw moments m1, m2
    paoi_ci_halfwidth: float
    system_times: np.ndarray
    rep_windows: np.ndarray  # per rep: end, measure_from, area, last delivery, last T


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
        """Bitwise equality of all statistical content, the delivery dump
        included (policy label aside); NaN equals NaN."""
        if len(self.per_source) != len(other.per_source):
            return False
        pairs = [(getattr(a, f.name), getattr(b, f.name))
                 for a, b in zip(self.per_source, other.per_source) for f in fields(SourceStats)]
        pairs += [(self.sum_time_avg_aoi, other.sum_time_avg_aoi),
                  (self.sum_aoi_ci_halfwidth, other.sum_aoi_ci_halfwidth)]
        x, y = self.deliveries, other.deliveries
        pairs.append((x, y) if x is not None and y is not None else (x is None, y is None))
        return all(np.array_equal(x, y, equal_nan=True) for x, y in pairs)


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
    return t_quantile(m - 1, 0.975) * sd / math.sqrt(m)


def _merge(cfg: SystemConfig, policy: Policy, sim: SimConfig, reps: list) -> SimReport:
    """The _Replication records stacked on axis 0, merged in replication order."""
    end = np.array([r.end_time for r in reps])[:, None]
    counts, times, sums = (
        np.stack([getattr(r, k) for r in reps]) for k in ("counts", "times", "sums"))
    busy, area, area_sq, measure_from, last, last_t = times.transpose(1, 0, 2)
    span = end - measure_from  # -inf until a source's measuring window opens
    rep_aoi = _ratio(area, span)  # (replications, sources)
    measured = _in_order(np.maximum(span, 0.0))
    aoi, aoi_sq = _ratio(_in_order(area), measured), _ratio(_in_order(area_sq), measured)
    tot = _in_order(sums)  # pooled over all replications: raw moments of the counted samples
    y_mean, a_m1, a_m2 = _ratio(tot[:, 1:], tot[:, :1]).T
    # CI groups per source, each (AoI, Y, peak AoI) x group: the batches of a
    # single run, else the replications; across sources the sum-AoI group
    # means add in order per batch, and with numpy's pairwise sum per replication
    if len(reps) == 1:
        b = reps[0].batch
        groups = _ratio(b[:, [3, 0, 1]], b[:, [4, 2, 2]])
        sum_groups = _in_order(groups[:, 0])
    else:
        groups = np.concatenate(
            (rep_aoi[..., None], _ratio(sums[..., 1:3], sums[..., :1])), axis=2
        ).transpose(1, 2, 0)
        sum_groups = np.sum(rep_aoi, axis=1)  # C-ordered: each row as np.sum of the row
    windows = np.stack(np.broadcast_arrays(end, measure_from, area, last, last_t), axis=2)
    counters = _in_order(counts).T.tolist()  # Python ints and floats from here on
    values = np.column_stack((_in_order(busy), aoi, aoi_sq, y_mean, a_m1, a_m2)).tolist()
    per_source = []
    for c in range(cfg.num_sources):
        busy_c, aoi_c, aoi_sq_c, y_c, m1, m2 = values[c]
        hw_aoi, hw_y, hw_a = (_halfwidth(g) for g in groups[c])
        per_source.append(
            SourceStats(
                **dict(zip(_COUNTS, counters[c])),
                busy_time=busy_c,
                time_avg_aoi=aoi_c,
                time_avg_aoi_sq=aoi_sq_c,
                aoi_ci_halfwidth=hw_aoi,
                interdeparture_mean=y_c,
                interdeparture_ci_halfwidth=hw_y,
                paoi_moments=(m1, m2),
                paoi_ci_halfwidth=hw_a,
                system_times=np.concatenate([x for r in reps for x in r.system_times[c]]),
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
    executor: Executor | None = None,
) -> SimReport:
    """Simulate and merge all replications.

    They run on ``executor`` if given, else on a pool of ``workers`` > 1.
    Replications own disjoint substreams and merge in index order, so the
    report is bit-identical no matter how many workers execute them.
    """
    if not isinstance(policy, Policy):
        raise InvalidConfig(f"not a policy: {policy!r}")
    args = [(cfg, policy, sim, rep, collect_deliveries) for rep in range(sim.replications)]
    with contextlib.ExitStack() as stack:
        if executor is None and workers > 1 and sim.replications > 1:
            executor = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
        mapper = map if executor is None or sim.replications == 1 else executor.map
        reps = list(mapper(_simulate_once, *zip(*args)))
    return _merge(cfg, policy, sim, reps)


# ---------------------------------------------------------------------------
# Goodness-of-fit checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | skip
    discrepancy: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status != "fail"


def verdict(name: str, discrepancy: float, tolerance: float, detail: str = "") -> CheckResult:
    """Pass iff ``discrepancy <= tolerance``; a NaN discrepancy fails."""
    status = "pass" if discrepancy <= tolerance else "fail"
    return CheckResult(name, status, discrepancy, tolerance, detail)


@dataclass(frozen=True)
class CheckSummary:
    results: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "fail"]


def _share_check(name: str, hits: int, n: int, p_expect: float) -> CheckResult:
    """z-test of the share hits / n against p_expect."""
    p_hat = hits / n
    se = math.sqrt(p_expect * (1.0 - p_expect) / n)
    z = abs(p_hat - p_expect) / se if se > 0 else 0.0
    return verdict(name, z, 3.0, f"empirical {p_hat:.5f} vs {p_expect:.5f} (n={n})")


_FIT_BINS = 50  # equal-probability bins of the system-time fit


def _bin_counts(samples: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The samples in each bin (e_{i-1}, e_i] of the increasing ``edges``, the
    first and last bins open-ended, as ``bincount(searchsorted(edges, x))``."""
    at = np.searchsorted(np.sort(samples), edges, "right")  # the samples up to each edge
    return np.diff(at, prepend=0, append=len(samples))


def empirical_checks(
    report: SimReport,
    cfg: SystemConfig,
    policy: Policy,
    min_samples: int = 10_000,
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

    edges_at, qs = {}, np.arange(1, _FIT_BINS) / _FIT_BINS  # the bin edges per preemption rate
    for c, stats_c in enumerate(report.per_source):
        preempt_rate = theta * cfg.arrival_rates[c]

        # (i) system-time fit
        name = f"source{c}:system_time_fit"
        samples = stats_c.system_times
        try:
            if preempt_rate not in edges_at:
                edges_at[preempt_rate] = cfg.service.tilted_quantiles(preempt_rate, qs)
            edges = edges_at[preempt_rate]
        except UnsupportedDensity:
            results.append(
                CheckResult(name, "skip", math.nan, math.nan, "point-mass service has no density")
            )
        else:
            if samples.size < min_samples:
                raise InsufficientSamples(
                    f"need >= {min_samples} system-time samples for source {c}, got {samples.size}"
                )
            counts = _bin_counts(samples, edges)
            expected = samples.size / _FIT_BINS
            stat = float(np.sum((counts - expected) ** 2) / expected)
            pval = float(gamma_pq(0.5 * (_FIT_BINS - 1), 0.5 * stat)[1])  # chi-square tail
            results.append(
                CheckResult(
                    name,
                    "pass" if pval > 1e-3 else "fail",
                    pval,
                    1e-3,
                    f"chi2={stat:.1f} over {_FIT_BINS} bins, n={samples.size}",
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
            results.append(
                verdict(name, float(stats_c.preempted), 0.0,
                        "no preemption expected at theta*rate = 0")
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
                results.append(verdict(name, z, 3.0, detail))
    return CheckSummary(tuple(results))
