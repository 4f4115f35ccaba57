"""Closed-form AoI/PAoI transforms and moments.

For each source c of a multi-source M/G/1/1 status-update queue, the MGFs
of the system time T, the interdeparture time Y, the peak age A and the
age delta reduce to algebra over M_c(s) = M_U(s - r_c) and the survival
transform H_c(s) = (1 - M_c(s)) / (r_c - s), where r_c is the preemption
rate of a source-c packet in service: theta * lambda_c, or Lambda under
global preemption (``GloballyPreemptiveConfig``):

    1 - h_c = M_c - s * H_c                  (h_c: self-loop gain)
    K_c     = 1 + sum_{c' != c} lambda_c' * H_c' / (1 - h_c')
    M_T(s)  = M_c(s) / M_c(0)
    M_Y(s)  = lambda_c * M_c / ((1 - h_c) * (lambda_c - s * K_c))
    (M_Y(s) - 1) / s = (lambda_c * H_c + K_c * (1 - h_c))
                       / ((1 - h_c) * (lambda_c - s * K_c))
    M_A(s)  = M_T(s) * M_Y(s)
    M_d(s)  = M_T(s) * ((M_Y(s) - 1) / s) / mean(Y)

The last is the sawtooth relation (Inoue, Masuyama, Takine and Tanaka,
IEEE T-IT 65(12), 2019). Near s = 0 no constant term is formed by a
subtraction, so a small delivery probability M_c(0) or rate share costs
no digits, and theta = 0 needs no special case.

One builder assembles them for a batch of systems of one law and source
count at an expansion point (at 0 exact derivatives, at s pointwise
values) from the law's M/H pairs at every distinct shift s - r_c, asked
at once. Its coefficient rows are vectors over (system, source) pairs, so
each product or quotient is one call of the row kernels that ``Jet`` uses
too; K_c comes from in-order cumulative sums within each system. Each
source keeps the bits of scalar jet arithmetic on it alone.
``solve_moments`` solves a sweep's systems as one batch; the other
functions read batches of one, the last 8 kept; a source's error is
raised when it is read. Each batch logs a DEBUG record on
``aoiq.analytic``: its size, shifts, service calls, seconds in the law
and in the term algebra, and the smallest |divisor|.

A term that fails raises ``OutsideConvergenceRegion`` where s >= Lambda
or 1 - h_c or lambda_c - s K_c has a constant term <= 0, else
``DivisionBySingularJet`` where a divisor's constant term is below the
floor or a term is not finite: for the whole system in 1 - h_c, g_c or
their sums, else for the source's jets that read M_Y, (M_Y - 1)/s or M_T.

``moments`` differentiates the AoI and peak-age jets at the order asked
for. ``moments_both_routes`` also combines T and Y moments binomially, a
second route that shares nothing past the T/Y jets; ``aoiq validate``
and the tests read the gap between the two as a transcription check.
"""

from __future__ import annotations

import enum
import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter

import numpy as np

from .jets import DEFAULT_ORDER, DIVISION_FLOOR, DivisionBySingularJet, Jet, div_rows, mul_rows
from .service import MgfDomainError, ServiceDistribution

__all__ = [
    "SystemConfig",
    "GloballyPreemptiveConfig",
    "AoiMetrics",
    "Transform",
    "OutsideConvergenceRegion",
    "system_time_mgf_jet",
    "interdeparture_mgf_jet",
    "paoi_mgf_jet",
    "aoi_mgf_jet",
    "moments",
    "moments_both_routes",
    "mgf_point_eval",
    "solve_moments",
]

_log = logging.getLogger(__name__)


class OutsideConvergenceRegion(ValueError):
    """Pointwise MGF evaluation outside the transform's convergence region."""


class Transform(enum.Enum):
    SYSTEM_TIME = "system_time"
    INTERDEPARTURE = "interdeparture"
    PAOI = "paoi"
    AOI = "aoi"


@dataclass(frozen=True)
class SystemConfig:
    """Arrival rates per source, preemption probability, shared service law."""

    arrival_rates: tuple[float, ...]
    theta: float
    service: ServiceDistribution

    def __post_init__(self):
        object.__setattr__(self, "arrival_rates", tuple(float(r) for r in self.arrival_rates))
        if len(self.arrival_rates) < 1:
            raise ValueError("need at least one source")
        if any(not (r > 0 and math.isfinite(r)) for r in self.arrival_rates):
            raise ValueError(f"arrival rates must be positive finite, got {self.arrival_rates}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"preemption probability must lie in [0, 1], got {self.theta}")

    @property
    def num_sources(self) -> int:
        return len(self.arrival_rates)

    @property
    def total_rate(self) -> float:
        return sum(self.arrival_rates)

    @property
    def preemption_rates(self) -> tuple[float, ...]:
        """Each r_c: same-source arrivals preempt with probability theta."""
        return tuple(self.theta * rate for rate in self.arrival_rates)

    @property
    def preemption_matrix(self) -> tuple[tuple[float, ...], ...]:
        """Who may preempt whom: q[c][d] is the rate at which source d's
        arrivals preempt a source-c packet in service, theta lambda_c on the
        diagonal and 0 elsewhere. The graph reads it, the closed forms the
        reduced ``preemption_rates``, so their agreement checks the reduction."""
        n = self.num_sources
        return tuple(tuple(self.theta * rate if d == c else 0.0 for d in range(n))
                     for c, rate in enumerate(self.arrival_rates))

    def _check_source(self, source: int) -> None:
        if not 0 <= source < self.num_sources:
            raise ValueError(f"source index {source} outside 0..{self.num_sources - 1}")


@dataclass(frozen=True)
class GloballyPreemptiveConfig(SystemConfig):
    """Global preemption: every arrival preempts; ``theta`` is fixed and unread.
    The path starts afresh at every delivery, whose source is the last entrant,
    c with probability lambda_c / Lambda whatever the duration (Najm and Telatar,
    IEEE INFOCOM Workshops 2018): in law, each packet is preempted at rate Lambda."""

    theta: float = field(default=1.0, init=False)

    @property
    def preemption_rates(self) -> tuple[float, ...]:
        return (self.total_rate,) * self.num_sources

    @property
    def preemption_matrix(self) -> tuple[tuple[float, ...], ...]:
        """Every arrival preempts: q[c][d] = lambda_d."""
        return (self.arrival_rates,) * self.num_sources


@dataclass(frozen=True)
class AoiMetrics:
    """Exact moments for one source; index m-1 holds the m-th moment."""

    source: int
    aoi_moments: tuple[float, ...]
    paoi_moments: tuple[float, ...]
    mean_system_time: float
    mean_interdeparture: float

    @property
    def mean_aoi(self) -> float:
        return self.aoi_moments[0]

    @property
    def mean_paoi(self) -> float:
        return self.paoi_moments[0]


# The quantities of a built system, by index: M_Y and (M_Y - 1)/s at every
# expansion point; M_T, the peak-age and the AoI MGF at 0 only.
_Y, _EXCESS, _T, _PEAK, _AOI = range(5)


def _build(cfgs, s0: float, order: int) -> list:
    """Each system's ``(coeffs, faults)`` at s0: ``coeffs[c][q]``, every source's jets
    of M_Y and (M_Y - 1)/s and, at 0, of M_T, M_T * M_Y (T and Y of a cycle are
    independent) and the AoI MGF, one column per (system, source) in the one-source
    chain's operand order; ``faults[q][c]``, None or the (type, message) reading q
    raises by the module's failure rule. Raises what the law raises."""
    start = perf_counter()
    law, n, m = cfgs[0].service, cfgs[0].num_sources, len(cfgs)
    # a system at or beyond its total rate asks for no jets: its columns are nan
    shifts = [s0 - rate if s0 < cfg.total_rate else None
              for cfg in cfgs for rate in cfg.preemption_rates]
    pairs, calls = {None: ((math.nan,) * (order + 1),) * 2}, 0
    wanted = [t for t in dict.fromkeys(shifts) if t is not None]
    for calls, chunk in enumerate(law.jet_pairs(wanted, order), 1):
        pairs.update(chunk)
    service_s = perf_counter() - start
    service, survival = np.array([pairs[shift] for shift in shifts]).transpose(1, 2, 0)
    rates = np.array([rate for cfg in cfgs for rate in cfg.arrival_rates])
    s = np.zeros((order + 1, m * n))  # the jet of s, one column per (system, source)
    s[0], s[1] = s0, 1.0
    with np.errstate(all="ignore"):
        s_survival = np.array(mul_rows(s, survival))
        loop_free = service - s_survival  # 1 - h_c
        scaled = survival * rates
        g = np.array(div_rows(scaled, loop_free))
        # within each system, 1 + sum_{c' < c} g_c' and sum_{c' > c} g_c', added from either end
        g_rows = g.reshape(order + 1, m, n)
        sums = np.zeros((order + 1, 2, m, n))
        sums[0, 0, :, 0] = 1.0
        sums[..., 0, :, 1:], sums[..., 1, :, 1:] = g_rows[..., :-1], g_rows[..., :0:-1]
        sums = sums.cumsum(axis=3)
        prefix, suffix = sums.transpose(1, 0, 2, 3)
        k = (prefix + suffix[..., ::-1]).reshape(order + 1, -1)  # K_c
        s_k = np.array(mul_rows(s, k))
        detour = 0.0 - s_k
        detour[0] = rates - s_k[0]
        denominator = np.array(mul_rows(loop_free, detour))
        k_loop_free = np.array(mul_rows(k, loop_free))
        scaled_service = service * rates
        numerator = scaled + k_loop_free
        y = np.array(div_rows(scaled_service, denominator))
        excess = np.array(div_rows(numerator, denominator))
        outputs = [y, excess]
        if s0 == 0.0:
            t = service * (1.0 / service[0])
            peak, t_excess = np.array(mul_rows(t, y)), np.array(mul_rows(t, excess))
            aoi = t_excess * (1.0 / y[1])
            outputs += [t, peak, aoi]
        results = np.array(outputs + [loop_free, denominator, g])
        divisors = results[len(outputs):-1, 0]
    shared, faults = [None] * m, [[None] * (m * n)] * 5  # by system, and by quantity and column
    # inf and nan pass through sums and products, and through a quotient unless its divisor's
    # constant term is not finite: the outputs, g and the divisors hold every non-finite term
    if not (np.isfinite(results).all() and divisors.min() >= DIVISION_FLOOR):
        def first(checks, key=lambda j: j, size=m * n):  # by key(column), the first check failed
            found = [None] * size
            for bad, kind, text in checks:
                for j in np.flatnonzero(bad).tolist():
                    message = text.format(c=j % n, s=s0, rate=cfgs[j // n].total_rate)
                    found[key(j)] = found[key(j)] or (kind, message)
            return found
        def singular(what, *rows, divisor=1.0):  # a term not finite, or a divisor below the floor
            bad = ~np.isfinite(np.concatenate(rows)).all(axis=0) | ~(np.abs(divisor) >= DIVISION_FLOOR)
            return bad, DivisionBySingularJet, what + " of source {c} singular or not finite at s={s}"
        shared = first([(np.repeat([s0 >= cfg.total_rate for cfg in cfgs], n), OutsideConvergenceRegion,
                         "s={s} at or beyond the total arrival rate {rate}"),
                        (loop_free[0] <= 0.0, OutsideConvergenceRegion,
                         "self-loop gain of source {c} reaches 1 at s={s}"),
                        singular("1 - h_c or g_c", loop_free, g, sums.reshape(-1, m * n),
                                 divisor=loop_free[0])], lambda j: j // n, m)
        y_checks = [(detour[0] <= 0.0, OutsideConvergenceRegion, "detour denominator nonpositive at s={s}"),
                    singular("M_Y", denominator, y, excess, divisor=denominator[0])]
        faults = [first(y_checks)] * 2
        if s0 == 0.0:
            t_check = singular("M_T", t)
            faults += [first([t_check])] + [first(y_checks + [t_check, singular(f"the {what} MGF", row)])
                                            for what, row in (("peak-age", peak), ("AoI", aoi))]
    if _log.isEnabledFor(logging.DEBUG):
        info = dict(systems=m, sources=n, shifts=len(pairs) - 1, calls=calls, order=order, s0=s0,
                    service_s=service_s, terms_s=perf_counter() - start - service_s,
                    min_divisor=float(np.fmin.reduce(np.abs(divisors).ravel())))
        _log.debug("%(systems)d systems of %(sources)d sources at s=%(s0)r, order %(order)d: "
                   "%(shifts)d shifts in %(calls)d service calls %(service_s).2e s, terms %(terms_s).2e"
                   " s, smallest |constant term| divided by %(min_divisor).3e", info, extra=info)
    columns = results[:len(outputs)].transpose(2, 0, 1).tolist()
    return [(columns[i * n:(i + 1) * n],
             [[shared[i]] * n] * 5 if shared[i] else [q[i * n:(i + 1) * n] for q in faults])
            for i in range(m)]


def _solve(cfgs, s0: float, order: int) -> list:
    """``_build`` of a batch, or of each system alone where the law raises at a shift."""
    if order < 1:
        raise ValueError(f"jet order must be >= 1, got {order}")
    if not cfgs:
        return []
    if any(cfg.service != cfgs[0].service or cfg.num_sources != cfgs[0].num_sources for cfg in cfgs):
        raise ValueError("the systems of a batch share one service law and one source count")
    try:
        return _build(cfgs, s0, order)
    except (ArithmeticError, RuntimeError, ValueError) as exc:  # a law undefined, or stuck
        if len(cfgs) > 1:
            return [system for cfg in cfgs for system in _solve([cfg], s0, order)]
        return [(None, [[(type(exc), str(exc))] * cfgs[0].num_sources] * 5)]


@lru_cache(maxsize=8)
def _system_jets(cfg: SystemConfig, s0: float, order: int) -> tuple[list, list]:
    """``_build`` of one system."""
    return _solve([cfg], s0, order)[0]


def _coefficients(cfg: SystemConfig, source: int, s0: float, order: int, *quantities,
                  system=None) -> list:
    """The coefficient lists (read only) at s0 of ``source``'s quantities, of ``system``
    if built, else cached; or the fault recorded for the first that has one."""
    cfg._check_source(source)
    coeffs, faults = system or _system_jets(cfg, s0, order)
    for q in quantities:
        if faults[q][source] is not None:
            raise faults[q][source][0](faults[q][source][1])
    return [coeffs[source][q] for q in quantities]


def _jet(cfg: SystemConfig, source: int, quantity: int, order: int) -> Jet:
    return Jet(0.0, tuple(_coefficients(cfg, source, 0.0, order, quantity)[0]))


def system_time_mgf_jet(cfg: SystemConfig, source: int, order: int = DEFAULT_ORDER) -> Jet:
    """Jet at 0 of the system-time MGF for one source: the service law tilted
    by r_c, since a delivered packet's service outlasted its preemption clock."""
    return _jet(cfg, source, _T, order)


def interdeparture_mgf_jet(cfg: SystemConfig, source: int, order: int = DEFAULT_ORDER) -> Jet:
    """Jet at 0 of the interdeparture-time MGF for one source."""
    return _jet(cfg, source, _Y, order)


def paoi_mgf_jet(cfg: SystemConfig, source: int, order: int = DEFAULT_ORDER) -> Jet:
    """Jet at 0 of the peak-age MGF."""
    return _jet(cfg, source, _PEAK, order)


def aoi_mgf_jet(cfg: SystemConfig, source: int, order: int = DEFAULT_ORDER) -> Jet:
    """Jet at 0 of the stationary AoI MGF."""
    return _jet(cfg, source, _AOI, order)


def _derivatives(coeffs, max_order: int) -> tuple[float, ...]:
    """Raw derivatives 1..max_order at the expansion point: k! * coeffs[k]."""
    return tuple(math.factorial(m) * coeffs[m] for m in range(1, max_order + 1))


def _direct_moments(cfg: SystemConfig, source: int, max_order: int, order: int, system=None):
    """Coefficients of order ``order`` at 0 of M_T and M_Y, and the moments
    1..max_order read off the AoI and peak-age jets (of ``system`` if given)."""
    if max_order < 1:
        raise ValueError("moment order must be >= 1")
    t, y, paoi, aoi = _coefficients(cfg, source, 0.0, order, _T, _Y, _PEAK, _AOI, system=system)
    metrics = AoiMetrics(source, _derivatives(aoi, max_order), _derivatives(paoi, max_order),
                         t[1], y[1])
    return t, y, metrics


def moments_both_routes(
    cfg: SystemConfig, source: int, max_order: int
) -> tuple[AoiMetrics, AoiMetrics, float]:
    """Moments by the binomial route and the jet route, plus their gap.

    Route one combines T and Y moments binomially (T and Y of a delivery
    cycle are independent); route two differentiates the assembled AoI and
    peak-age jets directly, as ``moments`` does. Returns (binomial, jet,
    max relative gap).
    """
    t, y, direct = _direct_moments(cfg, source, max_order, max_order + 1)
    t_moms = [t[0], *_derivatives(t, max_order + 1)]
    y_moms = [y[0], *_derivatives(y, max_order + 1)]
    mean_y = y_moms[1]

    def peak_moment(m: int) -> float:
        return sum(math.comb(m, i) * t_moms[i] * y_moms[m - i] for i in range(m + 1))

    paoi_binom = tuple(peak_moment(m) for m in range(1, max_order + 1))
    aoi_binom = tuple(
        (peak_moment(m + 1) - t_moms[m + 1]) / ((m + 1) * mean_y)
        for m in range(1, max_order + 1)
    )
    binom = AoiMetrics(source, aoi_binom, paoi_binom, t_moms[1], mean_y)

    gap = 0.0
    for a, b in zip(binom.aoi_moments + binom.paoi_moments, direct.aoi_moments + direct.paoi_moments):
        gap = max(gap, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return binom, direct, gap


def moments(cfg: SystemConfig, source: int, max_order: int = 2) -> AoiMetrics:
    """AoI and peak-age moments 1..max_order for one source, read off jets of
    order max_order."""
    return _direct_moments(cfg, source, max_order, max_order)[2]


def solve_moments(cfgs, max_order: int = 2) -> Iterator[list[AoiMetrics]]:
    """``moments`` of every source of each system, in order, built as one batch
    (one law and source count) when called. A system that fails raises its
    error at its turn, after the systems before it; nothing is kept once it
    is done."""
    if max_order < 1:
        raise ValueError("moment order must be >= 1")
    return ([_direct_moments(cfg, c, max_order, max_order, system)[2]
             for c in range(cfg.num_sources)]
            for cfg, system in zip(cfgs, _solve(cfgs, 0.0, max_order)))


def mgf_point_eval(cfg: SystemConfig, source: int, s: float, which: Transform) -> float:
    """Scalar MGF value at s for one of the four transforms, exactly 1 at s = 0.
    Outside the convergence region it raises ``OutsideConvergenceRegion``,
    naming the condition; where a term is singular, ``DivisionBySingularJet``."""
    cfg._check_source(source)
    which = Transform(which)
    if s == 0.0:
        return 1.0
    try:
        rate = cfg.preemption_rates[source]
        t_val, delivered = (cfg.service.mgf_jet(t, 1).coeffs[0] for t in (s - rate, -rate))
        if delivered == 0.0:
            raise OutsideConvergenceRegion(
                f"delivery probability M_U(-r_c) of source {source} underflows to 0")
        t_val /= delivered
        if which is Transform.SYSTEM_TIME:
            return t_val
        y, excess = _coefficients(cfg, source, s, 1, _Y, _EXCESS)
    except MgfDomainError as exc:
        raise OutsideConvergenceRegion(f"service transform undefined at s={s}: {exc}") from exc
    if which is Transform.INTERDEPARTURE:
        return y[0]
    if which is Transform.PAOI:
        return t_val * y[0]
    return t_val * excess[0] / _coefficients(cfg, source, 0.0, 1, _EXCESS)[0][0]
