"""Truncated Taylor-series (jet) arithmetic.

A jet stores the first K+1 normalized Taylor coefficients of a scalar
function at a fixed expansion point: ``coeffs[k] = f(k)(center) / k!``.
Sums, products and quotients of jets propagate derivatives exactly, which
is what lets the analytic engine evaluate derivatives of composite MGF
expressions at a point without symbolic algebra or finite differences.

Coefficients are kept normalized (divided by k!) so that products and
quotients are plain Cauchy convolutions, free of factorial growth; the
conversion back to raw derivatives happens only in ``derivative_value``.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

__all__ = [
    "Jet",
    "JetMismatchError",
    "DivisionBySingularJet",
    "DEFAULT_ORDER",
]

# Supports moments up to m = 6 with two guard coefficients.
DEFAULT_ORDER = 8

# |denominator constant term| below this (zero or subnormal) raises, as does
# an overflowing quotient; no higher floor spares legitimate denominators,
# such as a delivery probability of e^-30 (about 1e-13).
DIVISION_FLOOR = sys.float_info.min


class JetMismatchError(ValueError):
    """Binary operation on jets with different centers or orders."""


class DivisionBySingularJet(ZeroDivisionError):
    """Division by a jet whose constant term is zero or subnormal, or whose
    quotient overflows."""


@dataclass(frozen=True)
class Jet:
    """Truncated Taylor expansion of a scalar function at ``center``.

    ``coeffs[k]`` holds the normalized coefficient f(k)(center)/k!; the
    order is ``len(coeffs) - 1``.
    """

    center: float
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a jet needs at least one coefficient")
        if not math.isfinite(self.center):
            raise ValueError("jet center must be finite")
        if not all(map(math.isfinite, self.coeffs)):
            raise ValueError(f"non-finite jet coefficients: {self.coeffs}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, order: int = DEFAULT_ORDER, center: float = 0.0) -> "Jet":
        """The constant function ``value`` as a jet."""
        return cls(center, (float(value),) + (0.0,) * order)

    @classmethod
    def variable(cls, order: int = DEFAULT_ORDER, center: float = 0.0) -> "Jet":
        """The identity function s -> s expanded at ``center``."""
        return cls(center, (float(center), 1.0) + (0.0,) * (order - 1))

    @classmethod
    def from_coeffs(cls, coeffs, center: float = 0.0) -> "Jet":
        return cls(float(center), tuple(float(c) for c in coeffs))

    # -- basic queries -----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def derivative_value(self, k: int) -> float:
        """The raw derivative f(k)(center), i.e. k! * coeffs[k]."""
        if not 0 <= k <= self.order:
            raise ValueError(f"derivative order {k} outside 0..{self.order}")
        return math.factorial(k) * self.coeffs[k]

    def _check_compatible(self, other: "Jet") -> None:
        if self.center != other.center or len(self.coeffs) != len(other.coeffs):
            raise JetMismatchError(
                f"jets differ in center/order: ({self.center}, {self.order}) "
                f"vs ({other.center}, {other.order})"
            )

    def _lift(self, value) -> "Jet":
        if isinstance(value, Jet):
            return value
        return Jet.constant(float(value), order=self.order, center=self.center)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Jet":
        other = self._lift(other)
        self._check_compatible(other)
        return Jet(self.center, tuple(map(operator.add, self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other) -> "Jet":
        other = self._lift(other)
        self._check_compatible(other)
        return Jet(self.center, tuple(map(operator.sub, self.coeffs, other.coeffs)))

    def __rsub__(self, other) -> "Jet":
        return self._lift(other).__sub__(self)

    def __neg__(self) -> "Jet":
        return Jet(self.center, tuple(map(operator.neg, self.coeffs)))

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.center, tuple(map(float(other).__mul__, self.coeffs)))
        self._check_compatible(other)
        a, b = self.coeffs, other.coeffs
        n = len(a)
        out = [0.0] * n
        for i, ai in enumerate(a):
            if ai == 0.0:
                continue
            for j in range(n - i):
                out[i + j] += ai * b[j]
        return Jet(self.center, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        other = self._lift(other)
        self._check_compatible(other)
        b = other.coeffs
        if abs(b[0]) < DIVISION_FLOOR:
            raise DivisionBySingularJet(
                f"jet denominator constant term {b[0]!r} below floor {DIVISION_FLOOR}"
            )
        a = self.coeffs
        n = len(a)
        q = [0.0] * n
        inv_b0 = 1.0 / b[0]
        for k in range(n):
            acc = a[k]
            for i in range(k):
                acc -= q[i] * b[k - i]
            q[k] = acc * inv_b0
        try:
            return Jet(self.center, tuple(q))
        except ValueError:  # a non-finite coefficient: the quotient overflowed
            raise DivisionBySingularJet(f"jet quotient overflows: denominator {b!r}") from None

    def __rtruediv__(self, other) -> "Jet":
        return self._lift(other).__truediv__(self)

    # -- structure-specific operations --------------------------------------

    def recenter(self, center: float) -> "Jet":
        """Relabel the expansion point, keeping the coefficients.

        The expansion of f at t0, relabeled to center 0, is exactly the
        expansion of s -> f(s + t0) at 0: same numbers, shifted argument.
        """
        return Jet(float(center), self.coeffs)
