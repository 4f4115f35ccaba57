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
no digits, and theta = 0 needs no special case. One term builder
assembles them in jet arithmetic at an expansion point: at 0 it gives
exact derivatives, at s the pointwise values; all sources' jets come from
one memoized service pass per configuration, one M/H pair per distinct
shift s - r_c, and K_c from prefix and suffix sums.

``moments`` differentiates the AoI and peak-age jets at the order asked
for. ``moments_both_routes`` also combines T and Y moments binomially, a
second route that shares nothing past the T/Y jets; ``aoiq validate``
and the tests read the gap between the two as a transcription check.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

from .jets import DEFAULT_ORDER, Jet
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
]

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


_shared_jets: dict | None = None


@contextmanager
def sharing_service_jets(memo: dict) -> Iterator[None]:
    """Within the block, systems that share a law and a shift r_c take
    its M and H jets from ``memo``, which keeps those built: the systems of one
    sweep repeat shifts. The caller owns ``memo``, so nothing outlives its command."""
    global _shared_jets
    outer, _shared_jets = _shared_jets, memo
    try:
        yield
    finally:
        _shared_jets = outer


@lru_cache(maxsize=8)
def _system_terms(cfg: SystemConfig, s0: float, order: int):
    """Jets at s0 that all sources share: s, every M_c, H_c and 1 - h_c, and the prefix
    and suffix sums 1 + sum_{c' < c} g_c', sum_{c' > c} g_c' of g_c = rate_c H_c / (1 - h_c)."""
    if s0 >= cfg.total_rate:
        raise OutsideConvergenceRegion(
            f"s={s0} at or beyond the total arrival rate {cfg.total_rate}"
        )
    s = Jet.variable(order, s0)
    shifts = [s0 - rate for rate in cfg.preemption_rates]
    law_jets = {} if _shared_jets is None else _shared_jets  # (law, shift, order) -> (M, H)
    pairs = {}  # shift -> (M_c, H_c, 1 - h_c), shared by the sources at that shift
    for shift in shifts:
        if shift not in pairs:
            key = (cfg.service, shift, order)
            if key not in law_jets:
                law_jets[key] = (cfg.service.mgf_jet(shift, order),
                                 cfg.service.survival_mgf_jet(shift, order))
            m, h = (jet.recenter(s0) for jet in law_jets[key])
            pairs[shift] = m, h, m - s * h
    service, survival, loop_free = zip(*(pairs[shift] for shift in shifts))
    for c, factor in enumerate(loop_free):
        if factor.coeffs[0] <= 0.0:
            raise OutsideConvergenceRegion(f"self-loop gain of source {c} reaches 1 at s={s0}")
    g = [h * rate / f for h, rate, f in zip(survival, cfg.arrival_rates, loop_free)]
    prefix, suffix = [Jet.constant(1.0, order, s0)], [Jet.constant(0.0, order, s0)]
    for c in range(cfg.num_sources - 1):
        prefix.append(prefix[-1] + g[c])
        suffix.append(g[-1 - c] + suffix[-1])
    return s, service, survival, loop_free, prefix, suffix[::-1]


def _terms(cfg: SystemConfig, source: int, s0: float, order: int) -> tuple[Jet, Jet]:
    """Jets at s0 of M_Y and (M_Y - 1)/s, the term builder that every
    transform of ``source`` but M_T reads, with K_c = prefix + suffix of the others.
    Raises OutsideConvergenceRegion where a denominator is not positive at s0
    (s0 at or beyond the total rate, a factor 1 - h_c, or rate_c - s * K)."""
    s, service, survival, loop_free, prefix, suffix = _system_terms(cfg, s0, order)
    k = prefix[source] + suffix[source]
    rate = cfg.arrival_rates[source]
    detour = rate - s * k
    if detour.coeffs[0] <= 0.0:
        raise OutsideConvergenceRegion(f"detour denominator nonpositive at s={s0}")
    denominator = loop_free[source] * detour
    return (
        service[source] * rate / denominator,
        (survival[source] * rate + k * loop_free[source]) / denominator,
    )


def system_time_mgf_jet(cfg: SystemConfig, source: int, order: int = DEFAULT_ORDER) -> Jet:
    """Jet at 0 of the system-time MGF for one source: the service law tilted
    by r_c, since a delivered packet's service outlasted its preemption clock."""
    cfg._check_source(source)
    service = _system_terms(cfg, 0.0, order)[1][source]
    return service * (1.0 / service.coeffs[0])


def interdeparture_mgf_jet(cfg: SystemConfig, source: int, order: int = DEFAULT_ORDER) -> Jet:
    """Jet at 0 of the interdeparture-time MGF for one source."""
    cfg._check_source(source)
    return _terms(cfg, source, 0.0, order)[0]


def _source_jets(cfg: SystemConfig, source: int, order: int) -> tuple[Jet, Jet, Jet, Jet]:
    """Jets at 0 of M_T, M_Y, the peak-age MGF M_T * M_Y (system time and
    interdeparture time of consecutive deliveries are independent) and the AoI
    MGF M_T * ((M_Y - 1)/s) / mean(Y): every public transform jet and every
    moment of ``source`` is read off these."""
    t_jet = system_time_mgf_jet(cfg, source, order)
    y_jet, excess = _terms(cfg, source, 0.0, order)
    return t_jet, y_jet, t_jet * y_jet, t_jet * excess * (1.0 / y_jet.derivative_value(1))


def paoi_mgf_jet(cfg: SystemConfig, source: int, order: int = DEFAULT_ORDER) -> Jet:
    """Jet at 0 of the peak-age MGF."""
    return _source_jets(cfg, source, order)[2]


def aoi_mgf_jet(cfg: SystemConfig, source: int, order: int = DEFAULT_ORDER) -> Jet:
    """Jet at 0 of the stationary AoI MGF."""
    return _source_jets(cfg, source, order)[3]


def _moments_from_jet(jet: Jet, max_order: int) -> tuple[float, ...]:
    return tuple(jet.derivative_value(m) for m in range(1, max_order + 1))


def _direct_moments(cfg: SystemConfig, source: int, max_order: int, order: int):
    """Jets of order ``order`` at 0 of T and Y, and the moments 1..max_order read
    off the AoI and peak-age jets."""
    if max_order < 1:
        raise ValueError("moment order must be >= 1")
    t_jet, y_jet, paoi, aoi = _source_jets(cfg, source, order)
    metrics = AoiMetrics(
        source,
        _moments_from_jet(aoi, max_order),
        _moments_from_jet(paoi, max_order),
        t_jet.derivative_value(1),
        y_jet.derivative_value(1),
    )
    return t_jet, y_jet, metrics


def moments_both_routes(
    cfg: SystemConfig, source: int, max_order: int
) -> tuple[AoiMetrics, AoiMetrics, float]:
    """Moments by the binomial route and the jet route, plus their gap.

    Route one combines T and Y moments binomially (T and Y of a delivery
    cycle are independent); route two differentiates the assembled AoI and
    peak-age jets directly, as ``moments`` does. Returns (binomial, jet,
    max relative gap).
    """
    t_jet, y_jet, direct = _direct_moments(cfg, source, max_order, max_order + 1)
    t_moms = [t_jet.derivative_value(i) for i in range(max_order + 2)]
    y_moms = [y_jet.derivative_value(i) for i in range(max_order + 2)]
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
    for a, b in zip(
        binom.aoi_moments + binom.paoi_moments,
        direct.aoi_moments + direct.paoi_moments,
    ):
        gap = max(gap, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return binom, direct, gap


def moments(cfg: SystemConfig, source: int, max_order: int = 2) -> AoiMetrics:
    """AoI and peak-age moments 1..max_order for one source, read off jets of
    order max_order."""
    return _direct_moments(cfg, source, max_order, max_order)[2]


def mgf_point_eval(cfg: SystemConfig, source: int, s: float, which: Transform) -> float:
    """Scalar MGF value at s for one of the four transforms.

    Valid for s < 0 and for small positive s inside the convergence region;
    trips OutsideConvergenceRegion (naming the condition) otherwise. At
    s = 0 all four transforms return exactly 1.
    """
    cfg._check_source(source)
    which = Transform(which)
    if s == 0.0:
        return 1.0
    try:
        rate = cfg.preemption_rates[source]
        t_val = cfg.service.mgf_jet(s - rate, 1).coeffs[0] / cfg.service.mgf_jet(-rate, 1).coeffs[0]
        if which is Transform.SYSTEM_TIME:
            return t_val
        y_jet, excess = _terms(cfg, source, s, 1)
    except MgfDomainError as exc:
        raise OutsideConvergenceRegion(f"service transform undefined at s={s}: {exc}") from exc
    if which is Transform.INTERDEPARTURE:
        return y_jet.coeffs[0]
    if which is Transform.PAOI:
        return t_val * y_jet.coeffs[0]
    return t_val * excess.coeffs[0] / _terms(cfg, source, 0.0, 1)[1].coeffs[0]
