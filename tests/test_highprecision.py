"""High-precision oracle: 40-digit numerical derivatives of the scalar
closed forms, evaluated completely outside the package's own series
arithmetic. This is the route of last resort that would catch a defect
shared by the jet algebra and the graph solver (both of which multiply
and divide the same Jet objects). The oracle keeps the textbook form
of the closed form (through gain over 1 - self-loop gain, detour factor
1 - sum of the other sources' ratios), which shares no identity with
the cancellation-free form the package evaluates."""

import dataclasses
import functools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from aoiq import (
    Deterministic,
    Exponential,
    Gamma,
    LogNormal,
    SystemConfig,
    interdeparture_mgf_jet,
    moments,
)
from aoiq._special import (
    beta_orders, erfcx, gamma_p_orders, gamma_pq, log_factorials, t_quantile, wright_omega,
)
from aoiq.analytic import (
    GloballyPreemptiveConfig, Transform, aoi_mgf_jet, mgf_point_eval, system_time_mgf_jet,
)

mp.mp.dps = 40


def _mp_lognormal_coeffs(loc, scale, t0, order):
    """E[U^k exp(t0 U)] / k! for k = 0..order, by tanh-sinh quadrature in
    z = (ln u - loc)/scale; the breakpoints step geometrically out from the
    integrand's mode, to 16 units left and 16 curvature widths right. Float
    arguments are taken at their exact binary values."""
    loc, scale, t0 = mp.mpf(loc), mp.mpf(scale), mp.mpf(t0)
    out = []
    for k in range(order + 1):
        w = mp.lambertw(-t0 * scale**2 * mp.exp(loc + k * scale**2)).real
        mode, width = k * scale - w / scale, 1 / mp.sqrt(1 + w)
        reach = [width * 2**j for j in range(-1, 5)]
        left = sorted({mode - x for x in [1, 2, 4, 8, 16] + reach})
        weight = lambda z, k=k: mp.exp(-z * z / 2 + k * (loc + scale * z) + t0 * mp.exp(loc + scale * z))
        total = mp.quad(weight, left + [mode] + [mode + x for x in reach])
        out.append(total / (mp.sqrt(2 * mp.pi) * mp.factorial(k)))
    return out


@functools.lru_cache(maxsize=None)
def _mp_lognormal_jets(loc, scale, t0, order):
    """MGF and survival-transform coefficients at t0 <= 0. The survival ones
    follow from the MGF's by H_0 = (1 - M_0)/c, H_k = (H_(k-1) - M_k)/c with
    c = -t0, which cancels about (k+1) log10(1/c) digits; the MGF is computed
    with that many extra."""
    c = -mp.mpf(t0)
    if c == 0:
        m = _mp_lognormal_coeffs(loc, scale, t0, order + 1)
        return m[:-1], m[1:]
    with mp.workdps(mp.mp.dps + 10 + int((order + 1) * max(0, -mp.log10(c)))):
        m = _mp_lognormal_coeffs(loc, scale, t0, order)
        h = [(1 - m[0]) / c]
        for k in range(1, order + 1):
            h.append((h[-1] - m[k]) / c)
    return [+x for x in m], [+x for x in h]


@functools.lru_cache(maxsize=None)
def _mp_service_mgf(cfg):
    dist = cfg.service
    if isinstance(dist, LogNormal):
        # near each shift -theta * rate_c, its Taylor polynomial of degree 10
        # with 40-digit coefficients; mp.diff steps about 1e-43 from the shift
        shifts = [mp.mpf(repr(cfg.theta)) * mp.mpf(repr(r)) for r in cfg.arrival_rates]
        series = {-x: _mp_lognormal_coeffs(dist.loc, dist.scale, -x, 10)[::-1] for x in shifts}

        def mgf(t):
            center = min(series, key=lambda x: abs(t - x))
            return mp.polyval(series[center], t - center)

        return mgf
    if isinstance(dist, Exponential):
        rate = mp.mpf(repr(dist.rate))
        return lambda t: rate / (rate - t)
    if isinstance(dist, Gamma):
        shape = mp.mpf(repr(dist.shape))
        rate = mp.mpf(repr(dist.rate))
        return lambda t: (rate / (rate - t)) ** shape
    value = mp.mpf(repr(dist.value))
    return lambda t: mp.e ** (t * value)


def _mp_system_time(cfg, source, s):
    M = _mp_service_mgf(cfg)
    shift = mp.mpf(repr(cfg.theta)) * mp.mpf(repr(cfg.arrival_rates[source]))
    return M(s - shift) / M(-shift)


def _mp_interdeparture(cfg, source, s):
    M = _mp_service_mgf(cfg)
    theta = mp.mpf(repr(cfg.theta))
    rates = [mp.mpf(repr(r)) for r in cfg.arrival_rates]
    lam = mp.fsum(rates)

    def through(c):
        return rates[c] * M(s - theta * rates[c]) / (lam - s)

    def loop(c):
        r = theta * rates[c]
        if r == 0:
            return mp.mpf(0)
        return r * (1 - M(s - r)) / (r - s)

    detour = 1 - mp.fsum(
        through(c) / (1 - loop(c)) for c in range(len(rates)) if c != source
    )
    return through(source) / ((1 - loop(source)) * detour)


CASES = [
    SystemConfig((1.0,), 1.0, Exponential(1.0)),
    SystemConfig((1.0, 2.0, 0.5), 0.4, Exponential(1.5)),
    SystemConfig((2.0, 6.0), 0.28, Gamma(2.0, 3.0)),
    SystemConfig((0.7, 1.3), 0.6, Deterministic(0.9)),
    SystemConfig((1.0, 1.0), 0.0, Gamma(0.7, 1.1)),
    # vanishing-rate sources: the series-division route for the self-loop
    # gain is hopeless here, so these pin the survival-transform path
    # against exact arithmetic
    SystemConfig((1.7, 1e-9), 0.28, Gamma(2.0, 2.5)),
    SystemConfig((1.7, 1e-6), 0.5, Deterministic(0.8)),
    SystemConfig((0.9, 1e-7), 0.9, Exponential(1.2)),
    # near-certain preemption: delivery probability e^-20 for source 0
    SystemConfig((20.0, 1.0), 1.0, Deterministic(1.0)),
    # a lone source at delivery probability e^-31
    SystemConfig((62.0,), 1.0, Deterministic(0.5)),
    # the paper's system on the law every shipped config uses
    SystemConfig((2.0, 6.0), 0.28, LogNormal(-1.0, 1.0)),
]


def _law_id(cfg):
    """The service law as a spec, e.g. ``gamma(shape=2, rate=3)``."""
    law = cfg.service
    params = ", ".join(f"{f.name}={getattr(law, f.name):g}" for f in dataclasses.fields(law))
    return f"{type(law).__name__.lower()}({params})"


@pytest.mark.parametrize("cfg", CASES, ids=_law_id)
def test_system_time_coefficients(cfg):
    for source in range(cfg.num_sources):
        jet = system_time_mgf_jet(cfg, source, 8)
        for k in range(9):
            exact = mp.diff(lambda s: _mp_system_time(cfg, source, s), 0, k)
            exact = float(exact / mp.factorial(k))
            assert jet.coeffs[k] == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("cfg", CASES, ids=_law_id)
def test_interdeparture_coefficients(cfg):
    # no constant term of the closed form is formed by cancellation, so
    # a vanishing rate share or delivery probability costs no digits
    for source in range(cfg.num_sources):
        jet = interdeparture_mgf_jet(cfg, source, 8)
        for k in range(9):
            exact = mp.diff(lambda s: _mp_interdeparture(cfg, source, s), 0, k)
            exact = float(exact / mp.factorial(k))
            assert jet.coeffs[k] == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_former_removable_point_is_exact():
    # at s = theta * rate_c the textbook self-loop gain is 0/0; the point
    # value is its limit, and the transform is continuous on both sides
    cfg = SystemConfig((1.0, 1.0), 0.5, Exponential(5.0))
    s = cfg.theta * cfg.arrival_rates[0]
    with mp.workdps(80):
        limit = _mp_interdeparture(cfg, 0, s + mp.mpf("1e-40"))
    got = mgf_point_eval(cfg, 0, s, Transform.INTERDEPARTURE)
    assert math.isfinite(got)
    assert got == pytest.approx(float(limit), rel=1e-14, abs=0.0)
    for step in (-1e-8, 1e-8):
        near = mgf_point_eval(cfg, 0, s + step, Transform.INTERDEPARTURE)
        assert abs(near - got) <= 1e-7 * got


def test_positive_point_between_preemption_and_total_rate():
    cfg = SystemConfig((1.0, 1.0), 0.5, Exponential(5.0))
    s = 0.7
    assert cfg.theta * cfg.arrival_rates[0] < s < cfg.total_rate
    exact = _mp_interdeparture(cfg, 0, mp.mpf(s))
    assert mgf_point_eval(cfg, 0, s, Transform.INTERDEPARTURE) == pytest.approx(
        float(exact), rel=1e-13, abs=0.0
    )
    exact = _mp_system_time(cfg, 0, mp.mpf(s))
    assert mgf_point_eval(cfg, 0, s, Transform.SYSTEM_TIME) == pytest.approx(
        float(exact), rel=1e-13, abs=0.0
    )


def _series_mul(a, b):
    return [mp.fsum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _series_div(a, b):
    q = []
    for k in range(len(a)):
        q.append((a[k] - mp.fsum(q[i] * b[k - i] for i in range(k))) / b[0])
    return q


def _mp_moments_on_float_jets(cfg, source, max_order):
    """The closed form in 50-digit series arithmetic, fed the package's own
    float service jets (taken as exact) at the order ``moments`` uses.

    With the inputs shared, the gap to ``moments`` is the rounding of the
    package's jet algebra alone. The reference evaluates the package's
    identities: fed inexact jets, algebraically equal forms differ by the
    jets' own error, which this test does not measure.
    """
    order = max_order
    n = order + 1
    with mp.workdps(50):
        rates = [mp.mpf(r) for r in cfg.arrival_rates]
        m_jets, h_jets = [], []
        for rate in cfg.arrival_rates:
            shift = -cfg.theta * rate
            m_jets.append([mp.mpf(x) for x in cfg.service.mgf_jet(shift, order).coeffs])
            h_jets.append([mp.mpf(x) for x in cfg.service.survival_mgf_jet(shift, order).coeffs])
        one = [mp.mpf(1)] + [mp.mpf(0)] * (n - 1)
        s_h = [[mp.mpf(0)] + h[:-1] for h in h_jets]  # s * H
        loop_free = [[m - x for m, x in zip(m_jets[c], s_h[c])] for c in range(len(rates))]
        k_jet = one
        for c in range(len(rates)):
            if c != source:
                ratio = _series_div([rates[c] * x for x in h_jets[c]], loop_free[c])
                k_jet = [x + y for x, y in zip(k_jet, ratio)]
        s_k = [mp.mpf(0)] + k_jet[:-1]
        detour = [rates[source] * o - x for o, x in zip(one, s_k)]
        denominator = _series_mul(loop_free[source], detour)
        y = _series_div([rates[source] * x for x in m_jets[source]], denominator)
        k_loop_free = _series_mul(k_jet, loop_free[source])
        excess = _series_div(
            [rates[source] * h + x for h, x in zip(h_jets[source], k_loop_free)], denominator
        )
        t = [x / m_jets[source][0] for x in m_jets[source]]
        paoi = _series_mul(t, y)
        aoi = [x / y[1] for x in _series_mul(t, excess)]
        raw = [mp.factorial(m) for m in range(max_order + 1)]
        return (
            [raw[m] * aoi[m] for m in range(1, max_order + 1)],
            [raw[m] * paoi[m] for m in range(1, max_order + 1)],
        )


def _mp_mgf_coeffs(dist, t0, order):
    """E[U^k exp(t0 U)] / k! for k = 0..order: the service MGF's Taylor
    coefficients at t0, in closed form but for the log-normal law."""
    if isinstance(dist, LogNormal):
        return _mp_lognormal_coeffs(dist.loc, dist.scale, t0, order)
    ks = range(order + 1)
    if isinstance(dist, Exponential):
        rate = mp.mpf(repr(dist.rate))
        return [rate / (rate - t0) ** (k + 1) for k in ks]
    if isinstance(dist, Gamma):
        shape, rate = mp.mpf(repr(dist.shape)), mp.mpf(repr(dist.rate))
        return [mp.binomial(shape + k - 1, k) * rate**shape / (rate - t0) ** (shape + k) for k in ks]
    value = mp.mpf(repr(dist.value))
    return [value**k * mp.exp(t0 * value) / mp.factorial(k) for k in ks]


def _mp_textbook_moments(cfg, source, max_order):
    """AoI and peak-age moments 1..max_order of the probabilistic policy in
    60-digit series arithmetic: the textbook form of M_Y, T and Y moments
    from its series and M_T's, and the binomial identities over them."""
    n = max_order + 2
    with mp.workdps(60):
        rates = [mp.mpf(repr(r)) for r in cfg.arrival_rates]
        theta, lam = mp.mpf(repr(cfg.theta)), mp.fsum(rates)
        one = [mp.mpf(1)] + [mp.mpf(0)] * (n - 1)
        wait = [1 / lam ** (k + 1) for k in range(n)]  # 1 / (Lambda - s)
        m_series, through, loop = [], [], []
        for rate in rates:
            r = theta * rate
            m = _mp_mgf_coeffs(cfg.service, -r, n - 1)
            h = [(1 - m[0]) / r]  # (1 - M_U(s - r)) / (r - s)
            for k in range(1, n):
                h.append((h[-1] - m[k]) / r)
            m_series.append(m)
            through.append([rate * x for x in _series_mul(m, wait)])
            loop.append([r * x for x in h])
        free = [[a - b for a, b in zip(one, x)] for x in loop]
        detour = one
        for c in range(len(rates)):
            if c != source:
                detour = [a - b for a, b in zip(detour, _series_div(through[c], free[c]))]
        y = _series_div(through[source], _series_mul(free[source], detour))
        t = [x / m_series[source][0] for x in m_series[source]]
        t_moms = [mp.factorial(k) * t[k] for k in range(n)]
        y_moms = [mp.factorial(k) * y[k] for k in range(n)]
        peak = [mp.fsum(mp.binomial(m, i) * t_moms[i] * y_moms[m - i] for i in range(m + 1))
                for m in range(n)]
        aoi = [(peak[m + 1] - t_moms[m + 1]) / ((m + 1) * y_moms[1]) for m in range(1, max_order + 1)]
        return aoi, peak[1 : max_order + 1]


def test_near_singular_loop_factor_against_mpmath():
    # delivery probability e^-30 makes source 1's 1 - h_c about 1e-13, a
    # constant term that the other sources' K_c divide by to full precision
    cfg = SystemConfig((1.0, 30.0, 2.0), 1.0, Deterministic(1.0))
    for source in range(cfg.num_sources):
        m = moments(cfg, source, 2)
        aoi, paoi = _mp_textbook_moments(cfg, source, 2)
        for got, want in zip(m.aoi_moments + m.paoi_moments, aoi + paoi):
            assert got == pytest.approx(float(want), rel=1e-14, abs=0.0)


GLOBAL_CASES = [
    GloballyPreemptiveConfig((1.0, 3.0), Exponential(2.0)),
    GloballyPreemptiveConfig((1.0, 2.0, 0.5), Gamma(2.0, 3.0)),
    GloballyPreemptiveConfig((0.7, 1.3), Deterministic(0.9)),
    GloballyPreemptiveConfig((2.0, 6.0), LogNormal(-1.0, 1.0)),
    # a vanishing rate share, and a delivery probability M_U(-8) = e^-32
    GloballyPreemptiveConfig((1.7, 1e-9), Gamma(2.0, 2.5)),
    GloballyPreemptiveConfig((2.0, 6.0), Deterministic(4.0)),
]


@pytest.mark.parametrize("cfg", GLOBAL_CASES, ids=_law_id)
def test_global_preemption_direct_forms(cfg):
    # with M = M_U(s - Lambda): M_T = M / M(0), M_Y = lambda_c M / (lambda_c M - s),
    # (M_Y - 1)/s = 1 / (lambda_c M - s) and the AoI MGF M_T ((M_Y - 1)/s) / E[Y]
    order = 8
    rates = [mp.mpf(repr(r)) for r in cfg.arrival_rates]
    m = _mp_mgf_coeffs(cfg.service, -mp.fsum(rates), order)
    for source, rate in enumerate(rates):
        denominator = [rate * m[0], rate * m[1] - 1] + [rate * x for x in m[2:]]
        y = _series_div([rate * x for x in m], denominator)
        excess = _series_div([mp.mpf(1)] + [mp.mpf(0)] * order, denominator)
        t = [x / m[0] for x in m]
        aoi = [x / y[1] for x in _series_mul(t, excess)]
        for jet, want in (
            (system_time_mgf_jet(cfg, source, order), t),
            (interdeparture_mgf_jet(cfg, source, order), y),
            (aoi_mgf_jet(cfg, source, order), aoi),
        ):
            for got, exact in zip(jet.coeffs, want):
                assert got == pytest.approx(float(exact), rel=1e-13, abs=0.0)


# from three sources on, K_c is a prefix plus a suffix sum of the other
# sources' terms, so its rounding differs from a plain sum over them
MANY_RATES = (
    (2.0, 6.0),
    (4.0, 4.0),
    (5.0, 3.0),
    (1.0, 2.5, 4.5),
    tuple(8.0 * (c + 1) / 528.0 for c in range(32)),
)


@pytest.mark.parametrize("theta", (0.0, 0.35, 1.0))
@pytest.mark.parametrize("rates", MANY_RATES)
def test_moments_on_shared_service_jets(rates, theta):
    cfg = SystemConfig(rates, theta, LogNormal(-1.0, 1.0))
    for source in range(cfg.num_sources):
        m = moments(cfg, source, 2)
        aoi, paoi = _mp_moments_on_float_jets(cfg, source, 2)
        for got, want in zip(m.aoi_moments + m.paoi_moments, aoi + paoi):
            assert got == pytest.approx(float(want), rel=1e-14, abs=0.0)



@pytest.mark.parametrize(
    "dist, t",
    [(LogNormal(0.0, 2.0), -0.001), (LogNormal(-1.0, 1.0), -0.28 * 6.0)],
    ids=["wide_near_zero", "paper_law_source1"],
)
def test_lognormal_mgf_point(dist, t):
    # the wide law near t = 0 is where an order-0 node doubling stopped
    # 1.1e-13 off; the paper's law at source 1's shift (theta 0.28, rate 6)
    loc, scale, shift = (mp.mpf(repr(x)) for x in (dist.loc, dist.scale, t))

    def weighted(z):
        return mp.exp(shift * mp.exp(loc + scale * z) - z * z / 2)

    exact = mp.quad(weighted, [-12, -8, -4, -2, 0, 1, 2, 3, 4, 5, 6, 8, 12]) / mp.sqrt(2 * mp.pi)
    assert dist.mgf_point(t) == pytest.approx(float(exact), rel=1e-14, abs=0.0)


# (loc, scale, shift): the paper's law untilted, nearly untilted, at both
# sources' shifts (theta 0.28, rates 2 and 6) and under heavy tilt; a wide
# law nearly untilted and under a tilt of 1e6; a far-right law; a nearly
# deterministic one
LOGNORMAL_SHIFTS = [
    (-1.0, 1.0, 0.0),
    (-1.0, 1.0, -1e-6),
    (-1.0, 1.0, -0.56),
    (-1.0, 1.0, -1.68),
    (-1.0, 1.0, -30.0),
    (0.0, 2.0, -1e-6),
    (0.0, 2.0, -1e6),
    (3.0, 2.5, -50.0),
    (0.0, 0.05, -2.0),
]
# the stated precision of both log-normal jets: the panel rule truncates
# below e^-72, and what is left is mostly the rounding of the integrand's
# exponent, which grows with its size (up to about 100 here)
LOGNORMAL_RTOL = 1e-14


@pytest.mark.parametrize("loc, scale, shift", LOGNORMAL_SHIFTS)
def test_lognormal_jets_against_quadrature(loc, scale, shift):
    dist = LogNormal(loc, scale)
    m_exact, h_exact = _mp_lognormal_jets(loc, scale, shift, 5)
    for jet, exact in (
        (dist.mgf_jet(shift, 5), m_exact),
        (dist.survival_mgf_jet(shift, 5), h_exact),
    ):
        for got, want in zip(jet.coeffs, exact):
            assert got == pytest.approx(float(want), rel=LOGNORMAL_RTOL, abs=0.0)


@pytest.mark.parametrize("loc, scale, shift", LOGNORMAL_SHIFTS)
def test_lognormal_coefficients_do_not_depend_on_order(loc, scale, shift):
    # every coefficient has its own window, so asking for more of them
    # leaves the first ones bit for bit as they were
    dist = LogNormal(loc, scale)
    for jet_at in (dist.mgf_jet, dist.survival_mgf_jet):
        full = jet_at(shift, 8).coeffs
        for order in range(8):
            assert jet_at(shift, order).coeffs == full[: order + 1]


# (loc, scale, tilt rate): no tilt, the paper's law at moderate and heavy
# tilt, a wide law from nearly untilted to a tilt of 1e6, a far-right law
# and a nearly deterministic one
LOGNORMAL_TILTS = [
    (-1.0, 1.0, 0.0),
    (-1.0, 1.0, 0.56),
    (-1.0, 1.0, 30.0),
    (0.0, 2.0, 0.01),
    (0.0, 2.0, 3.0),
    (0.0, 2.0, 1e6),
    (3.0, 2.5, 50.0),
    (0.0, 0.05, 2.0),
]
TILT_RATES = sorted({rate for _, _, rate in LOGNORMAL_TILTS})
LEVELS = np.arange(1, 50) / 50


def _mp_tilted_cdf(dist, rate):
    """CDF of f_U(t) exp(-rate t) / M_U(-rate), by mpmath alone."""
    r = mp.mpf(repr(rate))
    if isinstance(dist, Exponential):
        a = mp.mpf(repr(dist.rate)) + r
        return lambda t: -mp.expm1(-a * t)
    if isinstance(dist, Gamma):
        k, a = mp.mpf(repr(dist.shape)), mp.mpf(repr(dist.rate)) + r
        return lambda t: mp.gammainc(k, 0, a * t, regularized=True)
    loc, scale = mp.mpf(repr(dist.loc)), mp.mpf(repr(dist.scale))

    def g(z):  # the tilted density in z = (ln t - loc)/scale, unnormalized
        return mp.exp(-z * z / 2 - r * mp.exp(loc + scale * z))

    mode = -mp.lambertw(r * scale**2 * mp.exp(loc)).real / scale
    breaks = [mode + k for k in range(-14, 15)]
    # prefix[i]: the mass below breaks[i]; beyond mode +- 14 it is < e^-98
    prefix = [mp.mpf(0)]
    for a, b in zip(breaks, breaks[1:]):
        prefix.append(prefix[-1] + mp.quad(g, [a, b]))

    def cdf(t):
        z = (mp.log(t) - loc) / scale
        i = max(i for i, b in enumerate(breaks) if b < z)
        return (prefix[i] + mp.quad(g, [breaks[i], z])) / prefix[-1]

    return cdf


def _assert_inverts(dist, rate, edges):
    assert np.all(np.diff(edges) > 0)
    with mp.workdps(25):
        cdf = _mp_tilted_cdf(dist, rate)
        for q, t in zip(LEVELS, edges):
            assert abs(float(cdf(mp.mpf(float(t))) - mp.mpf(float(q)))) <= 1e-13


@pytest.mark.parametrize("loc, scale, rate", LOGNORMAL_TILTS)
def test_lognormal_tilted_quantiles(loc, scale, rate):
    dist = LogNormal(loc, scale)
    _assert_inverts(dist, rate, dist.tilted_quantiles(rate, LEVELS))


def _mp_gamma_edges(dist, rate):
    """The tilted gamma law's quantiles, x_q / (rate of the law + tilt), with
    x_q the root of the regularized lower incomplete gamma function at q."""
    k, scale = mp.mpf(repr(dist.shape)), mp.mpf(repr(dist.rate)) + mp.mpf(repr(rate))
    with mp.workdps(40):
        return [
            mp.findroot(lambda x: mp.gammainc(k, 0, x, regularized=True) - mp.mpf(float(q)),
                        (mp.mpf(0), 4 * k + 40), solver="illinois") / scale
            for q in LEVELS
        ]


@pytest.mark.parametrize("rate", TILT_RATES)
@pytest.mark.parametrize(
    "dist, closed_form, ulps",
    [
        (Exponential(2.0), lambda d, r: -np.log1p(-LEVELS) / (d.rate + r), 0),
        (Gamma(2.0, 4.0), _mp_gamma_edges, 3),
        (Gamma(0.5, 1.3), _mp_gamma_edges, 6),
    ],
    ids=["exponential", "gamma", "gamma_shape_half"],
)
def test_in_family_tilted_quantiles(dist, closed_form, ulps, rate):
    # the tilt keeps these laws in family, Exp(rate + tilt) and Gamma(shape,
    # rate + tilt). The exponential edges are the chi-square check's closed
    # form bit for bit; the gamma edges are checked against that law's
    # 40-digit quantiles (scipy's gammaincinv, which they once equalled bit
    # for bit, is 106 ulps off at shape 1/2, q = 0.86). The bounds are the
    # worst edges seen, 2.4 ulps at shape 2 and 5.6 at shape 1/2, rounded up:
    # at shape 1/2, x f(x) falls to min(q, 1 - q) / 2.3, so each ulp of
    # error in P or Q moves the edge by up to 2.3 ulps
    edges = dist.tilted_quantiles(rate, LEVELS)
    for got, want in zip(edges, closed_form(dist, rate)):
        assert abs(mp.mpf(float(got)) - want) <= ulps * np.spacing(float(want))
    _assert_inverts(dist, rate, edges)


# --- the special functions of aoiq._special, on the domains aoiq calls them on


def _max_rel_err(got, exact):
    return max(abs(mp.mpf(float(g)) - e) / abs(e) for g, e in zip(got, exact))


def test_erfcx_against_mpmath():
    # the log-normal survival jet reads erfcx(z / sqrt 2) for z from -12 up
    x = np.concatenate([np.linspace(-8.5, 50.0, 997), [-0.46875, 0.46875, 4.0, -4.0, 0.0]])
    with mp.workdps(30):
        exact = [mp.erfc(mp.mpf(v)) * mp.exp(mp.mpf(v) ** 2) for v in x]
        ours, theirs = _max_rel_err(erfcx(x), exact), _max_rel_err(special.erfcx(x), exact)
    assert ours <= 2 * theirs
    assert ours <= 1e-15


def _omega_arguments():
    """The z = log(-t0 scale^2) + loc + k scale^2 at which ``LogNormal._laplace``
    takes omega: every law and shift pinned above, k = 0..9 (the survival jet
    of order 8 reads k + 1), and a dense grid over their span."""
    z = [
        math.log(-t0 * scale**2) + loc + k * scale**2
        for loc, scale, t0 in LOGNORMAL_SHIFTS + [(l, s, -r) for l, s, r in LOGNORMAL_TILTS]
        if t0 < 0
        for k in range(10)
    ]
    return np.concatenate([z, np.linspace(min(z), max(z), 601)])


def test_wright_omega_against_mpmath():
    z = _omega_arguments()
    with mp.workdps(30):
        exact = [mp.lambertw(mp.exp(mp.mpf(v))).real for v in z]
        ours = _max_rel_err(wright_omega(z), exact)
        theirs = _max_rel_err(special.wrightomega(z), exact)
    assert ours <= 2 * theirs
    assert ours <= 1e-15
    # t0 = 0: log(0) = -inf, omega(-inf) = 0, the untilted mode
    assert wright_omega(np.array([-np.inf, -800.0])).tolist() == [0.0, 0.0]


def test_log_factorials_are_rounded_exact_logs():
    with mp.workdps(30):
        assert log_factorials(30).tolist() == [float(mp.log(mp.factorial(k))) for k in range(30)]


SPECIAL_RTOL = 1e-14


def test_lower_gamma_at_integer_order_against_mpmath():
    # P(n, x) feeds the deterministic survival jet and the log-normal head,
    # where x = c exp(loc - 12 scale) is tiny and so is P
    x = np.concatenate([np.geomspace(1e-12, 1e4, 97), np.arange(1.0, 12.0)])
    with mp.workdps(30):
        for v in x:
            exact = [mp.gammainc(n, 0, mp.mpf(v), regularized=True) for n in range(1, 11)]
            assert _max_rel_err(gamma_p_orders(10, v), exact) <= SPECIAL_RTOL
            # the same values elementwise, as the chi-square check and the gamma
            # quantiles call them
            assert _max_rel_err(gamma_pq(np.arange(1.0, 11.0), v)[0], exact) <= SPECIAL_RTOL


def test_chi_square_tail_against_mpmath():
    # the chi-square check's p-value at 49 degrees of freedom: Q(24.5, stat / 2)
    x = np.concatenate([np.geomspace(1e-3, 600.0, 151), np.linspace(20.0, 30.0, 21)])
    with mp.workdps(30):
        exact = [mp.gammainc(mp.mpf(24.5), mp.mpf(v), mp.inf, regularized=True) for v in x]
        assert _max_rel_err(gamma_pq(24.5, x)[1], exact) <= 1e-12


@pytest.mark.parametrize("a", [0.3, 1.7, 3.7])
def test_incomplete_gamma_at_other_orders_against_mpmath(a):
    # a gamma law of any shape takes the series and the continued fraction;
    # its tilted quantiles invert them
    x = np.concatenate([np.geomspace(1e-6, 60.0, 61), [a + 1.0]])
    p, q = gamma_pq(a, x)
    with mp.workdps(30):
        lower = [mp.gammainc(a, 0, mp.mpf(v), regularized=True) for v in x]
        upper = [mp.gammainc(a, mp.mpf(v), mp.inf, regularized=True) for v in x]
        assert _max_rel_err(p, lower) <= SPECIAL_RTOL
        assert _max_rel_err(q, upper) <= SPECIAL_RTOL
        edges = Gamma(a, 1.0).tilted_quantiles(0.0, LEVELS)
        assert np.all(np.diff(edges) > 0)
        for level, edge in zip(LEVELS, edges):
            got = mp.gammainc(a, 0, mp.mpf(float(edge)), regularized=True)
            assert abs(got - mp.mpf(float(level))) <= 1e-15


@pytest.mark.parametrize("b", [0.5, 2.0, 7.3])
def test_incomplete_beta_at_integer_order_against_mpmath(b):
    # I_x(n, b) feeds the gamma survival jet at x = c / (c + rate)
    x = np.concatenate([np.geomspace(1e-12, 0.5, 31), 1.0 - np.geomspace(1e-9, 0.5, 31)])
    with mp.workdps(30):
        for v in x:
            exact = [mp.betainc(n, b, 0, mp.mpf(v), regularized=True) for n in range(1, 11)]
            assert _max_rel_err(beta_orders(10, b, v), exact) <= SPECIAL_RTOL


def test_t_quantile_against_mpmath():
    # the CI half-width's quantile at p = double(0.975), df = batches - 1;
    # scipy's stdtrit is 17 ulps off at df = 6
    p = 0.975
    with mp.workdps(40):
        for df in range(1, 200):
            got = t_quantile(df, p)
            nu = mp.mpf(df)
            exact = mp.findroot(
                lambda t: 1 - mp.betainc(nu / 2, 0.5, 0, nu / (nu + t * t), regularized=True) / 2
                - mp.mpf(p),
                mp.mpf(got),
            )
            assert abs(mp.mpf(got) - exact) <= 4 * np.spacing(float(exact)), df
