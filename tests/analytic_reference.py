"""The one-source chain of closed forms, in scalar ``Jet`` arithmetic.

This is how ``aoiq.analytic`` built each source's transforms before it
built every source of a system at once over coefficient rows: the shared
terms of a system (``_system_terms``), then one source's M_Y and
(M_Y - 1)/s (``_terms``), then its M_T, peak-age and AoI jets
(``_source_jets``), each product and quotient a ``Jet`` operation that
raises at once on a non-positive or singular denominator or a non-finite
coefficient. The tests hold the package to it bit for bit, and hold its
errors to the same type and message for each source.

``mul_skipping_zeros`` is the Cauchy product the ``Jet`` had before it
called ``aoiq.jets.mul_rows``: it skips zero coefficients of the left
factor.
"""

import math
from functools import lru_cache

from aoiq.analytic import AoiMetrics, OutsideConvergenceRegion, Transform
from aoiq.jets import Jet
from aoiq.service import MgfDomainError


def mul_skipping_zeros(a: Jet, b: Jet) -> Jet:
    n = len(a.coeffs)
    out = [0.0] * n
    for i, ai in enumerate(a.coeffs):
        if ai == 0.0:
            continue
        for j in range(n - i):
            out[i + j] += ai * b.coeffs[j]
    return Jet(a.center, tuple(out))


@lru_cache(maxsize=8)
def _system_terms(cfg, s0: float, order: int):
    """Jets at s0 that all sources share: s, every M_c, H_c and 1 - h_c, and the prefix
    and suffix sums 1 + sum_{c' < c} g_c', sum_{c' > c} g_c' of g_c = rate_c H_c / (1 - h_c)."""
    if s0 >= cfg.total_rate:
        raise OutsideConvergenceRegion(
            f"s={s0} at or beyond the total arrival rate {cfg.total_rate}"
        )
    s = Jet.variable(order, s0)
    shifts = [s0 - rate for rate in cfg.preemption_rates]
    law_jets = {}  # (law, shift, order) -> (M, H)
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


def terms(cfg, source: int, s0: float, order: int) -> tuple[Jet, Jet]:
    """Jets at s0 of M_Y and (M_Y - 1)/s, with K_c = prefix + suffix of the others."""
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


def system_time_mgf_jet(cfg, source: int, order: int) -> Jet:
    cfg._check_source(source)
    service = _system_terms(cfg, 0.0, order)[1][source]
    return service * (1.0 / service.coeffs[0])


def interdeparture_mgf_jet(cfg, source: int, order: int) -> Jet:
    cfg._check_source(source)
    return terms(cfg, source, 0.0, order)[0]


def source_jets(cfg, source: int, order: int) -> tuple[Jet, Jet, Jet, Jet]:
    """Jets at 0 of M_T, M_Y, the peak-age MGF and the AoI MGF."""
    t_jet = system_time_mgf_jet(cfg, source, order)
    y_jet, excess = terms(cfg, source, 0.0, order)
    return t_jet, y_jet, t_jet * y_jet, t_jet * excess * (1.0 / y_jet.derivative_value(1))


def paoi_mgf_jet(cfg, source: int, order: int) -> Jet:
    return source_jets(cfg, source, order)[2]


def aoi_mgf_jet(cfg, source: int, order: int) -> Jet:
    return source_jets(cfg, source, order)[3]


def _moments_from_jet(jet: Jet, max_order: int) -> tuple[float, ...]:
    return tuple(jet.derivative_value(m) for m in range(1, max_order + 1))


def _direct_moments(cfg, source: int, max_order: int, order: int):
    if max_order < 1:
        raise ValueError("moment order must be >= 1")
    t_jet, y_jet, paoi, aoi = source_jets(cfg, source, order)
    metrics = AoiMetrics(
        source,
        _moments_from_jet(aoi, max_order),
        _moments_from_jet(paoi, max_order),
        t_jet.derivative_value(1),
        y_jet.derivative_value(1),
    )
    return t_jet, y_jet, metrics


def moments_both_routes(cfg, source: int, max_order: int):
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


def moments(cfg, source: int, max_order: int = 2) -> AoiMetrics:
    return _direct_moments(cfg, source, max_order, max_order)[2]


def mgf_point_eval(cfg, source: int, s: float, which: Transform) -> float:
    cfg._check_source(source)
    which = Transform(which)
    if s == 0.0:
        return 1.0
    try:
        rate = cfg.preemption_rates[source]
        t_val = cfg.service.mgf_jet(s - rate, 1).coeffs[0] / cfg.service.mgf_jet(-rate, 1).coeffs[0]
        if which is Transform.SYSTEM_TIME:
            return t_val
        y_jet, excess = terms(cfg, source, s, 1)
    except MgfDomainError as exc:
        raise OutsideConvergenceRegion(f"service transform undefined at s={s}: {exc}") from exc
    if which is Transform.INTERDEPARTURE:
        return y_jet.coeffs[0]
    if which is Transform.PAOI:
        return t_val * y_jet.coeffs[0]
    return t_val * excess.coeffs[0] / terms(cfg, source, 0.0, 1)[1].coeffs[0]
