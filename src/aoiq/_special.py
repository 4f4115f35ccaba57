"""The special functions aoiq needs, in numpy and ``math`` alone.

- ``erfcx``: the scaled complementary error function exp(x^2) erfc(x), by
  Cody's rational Chebyshev approximations (W. J. Cody, Math. Comp. 23,
  1969), with exp(x^2) split so that x^2 is never rounded.
- ``wright_omega``: the real Wright omega function, omega + log(omega) = z,
  by the Fritsch-Shafer-Cox iteration from the starting points of Lawrence,
  Corless and Jeffrey (ACM TOMS 38(3), 2012, Algorithm 917).
- ``log_factorials``: log k!, from the exact integer k!.
- ``gamma_p_orders``: the regularized lower incomplete gamma function
  P(n, x) for n = 1..N at once.
- ``beta_orders``: the regularized incomplete beta function I_x(n, b) for
  n = 1..N at once.
- ``t_quantile``: quantiles of Student's t law at integer degrees of
  freedom, rounded from a 200-bit evaluation of its distribution function.

erfcx, a kernel over many quadrature nodes, runs in numpy. Kernels over
the order + 1 entries of one jet, omega, P(n, x) and I_x(n, b), run in
scalar ``math``: on rows that short a numpy call costs more than the
arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "ConvergenceError",
    "erfcx",
    "wright_omega",
    "log_factorials",
    "gamma_p_orders",
    "beta_orders",
    "t_quantile",
]

class ConvergenceError(RuntimeError):
    """An iterative inversion failed to converge."""


# Cody's coefficients: erf on |x| <= 0.46875 (A/B), erfcx on (0.46875, 4]
# (C/D), and erfcx(x) = (1/sqrt(pi) - R(1/x^2)/x^2)/x beyond 4 (P/Q).
_CODY_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
           3.20937758913846947e03, 1.85777706184603153e-1)
_CODY_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
           2.84423683343917062e03)
_CODY_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
           2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_CODY_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_CODY_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
           1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_CODY_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628695e-1


def _rational(num, den, y):
    """Cody's nested form of one fit: (((num[-1] y + num[0]) y + num[1]) y ...) + num[-2]
    over ((y + den[0]) y + den[1]) y ... + den[-1], in place on fresh arrays."""
    n = len(den)
    top, bottom = num[-1] * y, y + den[0]
    for a in num[: n - 1]:
        top += a
        top *= y
    for b in den[1:-1]:
        bottom *= y
        bottom += b
    bottom *= y
    bottom += den[-1]
    top += num[n - 1]
    top /= bottom
    return top


def erfcx(x):
    """exp(x^2) erfc(x), elementwise; finite for x above about -26.6."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    y = np.abs(flat)
    out = np.empty_like(y)
    small, big = y <= 0.46875, y > 4.0
    mid = ~(small | big)
    out[mid] = _rational(_CODY_C, _CODY_D, y[mid])
    if big.any():
        yb = y[big]
        ysq = 1.0 / (yb * yb)
        r = _rational(_CODY_P, _CODY_Q, ysq)
        r *= ysq
        out[big] = (_INV_SQRT_PI - r) / yb
    if small.any():
        ysq = y[small] ** 2
        out[small] = np.exp(ysq) * (1.0 - flat[small] * _rational(_CODY_A, _CODY_B, ysq))
    # erfcx(x) = 2 exp(x^2) - erfcx(-x), with x = h + l, h a multiple of 1/16, so that
    # x^2 = h^2 + (x - h)(x + h) loses no digit to rounding
    negative = flat < -0.46875
    if negative.any():
        xn = flat[negative]
        head = np.trunc(xn * 16.0) / 16.0
        with np.errstate(over="ignore"):
            square = np.exp(head * head) * np.exp((xn - head) * (xn + head))
        square *= 2.0
        square -= out[negative]
        out[negative] = square
    return out.reshape(x.shape)


def wright_omega(z):
    """The real omega with omega + log(omega) = z, elementwise; omega(-inf) = 0.

    The log-normal jets ask for a row of order + 2 values at most, where a
    numpy call costs more than the arithmetic, so each value is solved in
    ``math``: two Fritsch-Shafer-Cox steps (as in Algorithm 917) from the
    start L (1 - log(1 + L) / (2 + L)), L = log(1 + e^z), within 3% of omega.
    Below z = -2 the residual z - omega - log(omega) cancels |z|, so there
    the result is polished as omega = e^z e^-omega, which contracts errors by
    omega; below z = -50, e^z is omega to double precision."""
    z = np.asarray(z, dtype=float)
    return np.array([_omega(v) for v in z.ravel().tolist()]).reshape(z.shape)


def _omega(z: float) -> float:
    if z < -50.0:
        return math.exp(z)
    lead = z + math.log1p(math.exp(-z)) if z > 0.0 else math.log1p(math.exp(z))
    w = lead * (1.0 - math.log1p(lead) / (2.0 + lead))
    for _ in range(2):
        r = z - w - math.log(w)
        wp1 = w + 1.0
        u = wp1 * (2.0 * wp1 + r * (4.0 / 3.0))
        w *= 1.0 + r / wp1 * (u - r) / (u - 2.0 * r)
    return math.exp(z) * math.exp(-w) if z < -2.0 else w


@lru_cache(maxsize=None)
def _log_factorials(n: int) -> tuple[float, ...]:
    return tuple(math.log(math.factorial(k)) for k in range(n))


def log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n-1, each the rounded log of the exact integer."""
    return np.array(_log_factorials(n))


def _orders(terms: list, scale: float, tail) -> np.ndarray:
    """F(n) = scale sum_{j>=n} t_j for n = 1..len(terms), given t_0..t_(len-1) of a
    run of positive terms whose full sum is 1/scale: 1 - scale sum_{j<n} t_j
    where that head is at most 1/2, else ``tail(n, t_n)``, the tail summed from
    its own t_n, which keeps the relative precision of a small F and does not
    depend on how many values are asked for. The rows hold order + 1 values,
    where a numpy call costs more than the arithmetic, so the sums run in
    scalar floats; each tail stops once its last term, times the geometric
    bound on the rest, is below 1e-17 of the sum."""
    out, head = [], 0.0
    for n, before in enumerate(terms, start=1):  # before = t_(n-1)
        head += before
        out.append(1.0 - head * scale if head * scale <= 0.5 else scale * tail(n, before))
    return np.array(out)


def gamma_p_orders(count: int, x: float) -> np.ndarray:
    """P(n, x) for n = 1..count at one x >= 0, as the service jets ask for it,
    from the Poisson weights t_j = e^-x x^j / j!: P(n, x) = sum_{j>=n} t_j
    (``_orders``), whose ratios x/j fall. e^-x is applied in two halves, so
    that the sums lift it out of the subnormals."""

    def tail(n, t):
        t = total = t * x / n
        j = n + 1
        while t * x > 1e-17 * (j - x) * total:  # t x/j / (1 - x/j): the rest
            t *= x / j
            total += t
            j += 1
        return total

    decay = math.exp(-0.5 * x)
    terms = [decay]
    for j in range(1, count):
        terms.append(terms[-1] * x / j)
    return _orders(terms, decay, tail)


def beta_orders(count: int, b: float, x: float) -> np.ndarray:
    """The regularized incomplete beta function I_x(n, b) for n = 1..count, at
    b > 0 and 0 <= x <= 1.

    With t_j = (b)_j x^j / j!, the negative-binomial identity gives
    I_x(n, b) = (1 - x)^b sum_{j >= n} t_j (``_orders``). The ratios
    x (b + j - 1) / j tend monotonically to x, so max(x, the next ratio)
    bounds every later one."""
    if x <= 0.0 or x >= 1.0:
        return np.full(count, 0.0 if x <= 0.0 else 1.0)

    def tail(n, t):
        t = total = t * x * (b + n - 1.0) / n
        j = n + 1
        while True:
            rho = x * (b + j - 1.0) / j
            bound = max(rho, x)
            if bound < 1.0 and t * bound <= 1e-17 * (1.0 - bound) * total:
                return total
            t *= rho
            total += t
            j += 1

    terms = [1.0]
    for j in range(1, count):
        terms.append(terms[-1] * x * (b + j - 1.0) / j)
    return _orders(terms, math.exp(b * math.log1p(-x)), tail)


# --- Student's t quantile, from its distribution function in 200-bit fixed point

_BITS = 200
_ONE = 1 << _BITS


def _fixed_atan_series(w: int) -> int:
    """atan(w) for a fixed-point 0 <= w <= 1/4, by its Taylor series."""
    total, power, k = 0, w, 0
    w2 = (w * w) >> _BITS
    while power:
        total += power // (2 * k + 1) if k % 2 == 0 else -(power // (2 * k + 1))
        power = (power * w2) >> _BITS
        k += 1
    return total


@lru_cache(maxsize=None)
def _fixed_pi() -> int:
    # Machin: pi = 16 atan(1/5) - 4 atan(1/239)
    return 16 * _fixed_atan_series(_ONE // 5) - 4 * _fixed_atan_series(_ONE // 239)


def _fixed_atan(w: int) -> int:
    """atan(w) for a fixed-point w >= 0, halving the angle until w <= 1/4."""
    if w > _ONE:
        return _fixed_pi() // 2 - _fixed_atan((_ONE * _ONE) // w)
    halvings = 0
    while w > _ONE // 4:  # atan(w) = 2 atan(w / (1 + sqrt(1 + w^2)))
        w = (w * _ONE) // (_ONE + math.isqrt(_ONE * _ONE + w * w))
        halvings += 1
    return _fixed_atan_series(w) << halvings


def _t_two_sided(df: int, t: float) -> int:
    """P(|T| <= t) in fixed point for T ~ t(df), t >= 0, by the finite sums of
    Abramowitz and Stegun 26.7.3-4 in theta = atan(t / sqrt(df)):
    sin(theta) sum_{j < df/2} a_j cos^2j(theta) for even df, and
    (2/pi)(theta + sin(theta) cos(theta) sum_{j < (df-1)/2} b_j cos^2j(theta))
    for odd df, a_j = (1 3 ... (2j-1)) / (2 4 ... 2j), b_j = (2 4 ... 2j) / (3 5 ... (2j+1))."""
    num, den = t.as_integer_ratio()
    total = df * den * den + num * num
    cos2 = (df * den * den << _BITS) // total
    sin = math.isqrt((num * num << 2 * _BITS) // total)
    terms = df // 2 if df % 2 == 0 else (df - 1) // 2
    acc = _ONE
    for j in range(terms - 1, 0, -1):  # Horner, innermost term first
        ratio_num, ratio_den = (2 * j - 1, 2 * j) if df % 2 == 0 else (2 * j, 2 * j + 1)
        acc = _ONE + (((acc * cos2) >> _BITS) * ratio_num) // ratio_den
    if df % 2 == 0:
        return (sin * acc) >> _BITS
    cos = math.isqrt(cos2 << _BITS)
    theta = _fixed_atan((sin << _BITS) // cos)
    angle = theta + ((((sin * cos) >> _BITS) * acc) >> _BITS if terms else 0)
    return (2 * angle << _BITS) // _fixed_pi()


@lru_cache(maxsize=None, typed=True)  # typed: a float df is refused, not the int's value
def t_quantile(df: int, p: float) -> float:
    """The p-quantile of Student's t law with integer ``df`` >= 1, for 0 < p < 1.

    Bracketed Newton steps on a 200-bit evaluation of the distribution
    function, then the float whose distribution value lies nearest p: the
    correctly rounded quantile but for near-ties."""
    if not (isinstance(df, int) and df >= 1 and 0.0 < p < 1.0):
        raise ValueError(f"need an integer df >= 1 and 0 < p < 1, got df={df}, p={p}")
    num, den = p.as_integer_ratio()
    sign = 1.0
    if 2 * num < den:  # solve for the upper quantile at 1 - p, exactly
        num, sign = den - num, -1.0
    if 2 * num == den:
        return 0.0
    log_norm = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)

    def excess(t):  # den 2^BITS (2 F(t) - 2p), with F(t) to 200 bits
        return (_ONE + _t_two_sided(df, t)) * den - 2 * num * _ONE

    lo, hi = 0.0, 1.0
    while excess(hi) < 0:
        lo, hi = hi, 2.0 * hi
    t = 0.5 * (lo + hi)
    for _ in range(200):
        e = excess(t)
        if e == 0:
            return sign * t
        lo, hi = (t, hi) if e < 0 else (lo, t)
        density = math.exp(log_norm - 0.5 * (df + 1) * math.log1p(t * t / df))
        step = t - e / (2 * den * _ONE) / density
        new = step if lo < step < hi else 0.5 * (lo + hi)
        if new == t or math.nextafter(lo, hi) >= hi:
            break
        t = new
    else:
        raise ConvergenceError(f"t quantile did not converge (df={df}, p={p})")
    nearest = min((math.nextafter(t, 0.0), t, math.nextafter(t, math.inf)),
                  key=lambda v: abs(excess(v)))
    return sign * nearest
