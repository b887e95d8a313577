"""Dual-number scalars: the coefficient ring of screw calculus.

A dual number is ``re + du*eps`` with ``eps**2 == 0``. Multiplication never
produces a ``du*du`` term, so first-order information propagates exactly;
this is what lets angle-plus-distance data ride along with ordinary vector
formulas in the rest of the library.
"""

from __future__ import annotations

import math
import re as _regex
from dataclasses import dataclass
from typing import Callable, Union

from .errors import BoundaryDualPart, DomainError, NotFinite, NotInvertible, OutOfRange

DEFAULT_TOL = 1e-9

Real = Union[int, float]


@dataclass(frozen=True)
class Dual:
    """Immutable dual number ``re + du*eps``.

    Components must be finite; arithmetic mixes freely with ints and floats.
    Equality is exact componentwise comparison, intended for bookkeeping.
    Numerical comparisons belong in the caller with an explicit tolerance.
    """

    re: float
    du: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", float(self.re))
        object.__setattr__(self, "du", float(self.du))
        if not (math.isfinite(self.re) and math.isfinite(self.du)):
            raise NotFinite(f"dual components must be finite, got {self.re}, {self.du}")

    # -- ring structure ------------------------------------------------------

    def __add__(self, other: "Dual | Real") -> "Dual":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Dual(self.re + other.re, self.du + other.du)

    __radd__ = __add__

    def __sub__(self, other: "Dual | Real") -> "Dual":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Dual(self.re - other.re, self.du - other.du)

    def __rsub__(self, other: "Dual | Real") -> "Dual":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Dual":
        return Dual(-self.re, -self.du)

    def __mul__(self, other: "Dual | Real") -> "Dual":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Dual(self.re * other.re, self.re * other.du + self.du * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other: "Dual | Real") -> "Dual":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other: "Dual | Real") -> "Dual":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    # -- involution and inverse ----------------------------------------------

    def conj(self) -> "Dual":
        """Conjugate: flips the sign of the dual part."""
        return Dual(self.re, -self.du)

    def inv(self) -> "Dual":
        """Multiplicative inverse, (re - du*eps)/re**2.

        The real part is tested exactly: a pure dual number has no inverse,
        and silently treating a tiny resultant as zero would hide bugs.
        """
        if self.re == 0.0:
            raise NotInvertible(f"pure dual number {self} has no inverse")
        return Dual(1.0 / self.re, -self.du / (self.re * self.re))

    @property
    def is_pure_dual(self) -> bool:
        return self.re == 0.0

    def __str__(self) -> str:
        return format_dual(self)


# -- analytic extension ------------------------------------------------------

def extend(f: Callable[[float], float], fprime: Callable[[float], float], x: Dual) -> Dual:
    """Extend a differentiable real function to the dual numbers.

    Defined by f(re + du*eps) = f(re) + du*f'(re)*eps, the unique extension
    compatible with Taylor expansion and eps**2 = 0.
    """
    try:
        value = f(x.re)
        slope = fprime(x.re)
    except ValueError as exc:
        raise DomainError(f"{x.re} outside the domain of the extended function") from exc
    if not (math.isfinite(value) and math.isfinite(slope)):
        raise DomainError(f"extended function not finite at {x.re}")
    return Dual(value, x.du * slope)


def sqrt(x: Dual) -> Dual:
    """Principal square root; requires a positive real part."""
    if x.re <= 0.0:
        raise DomainError(f"sqrt requires a positive real part, got {x.re}")
    root = math.sqrt(x.re)
    return Dual(root, x.du / (2.0 * root))


def sin(x: Dual) -> Dual:
    return Dual(math.sin(x.re), x.du * math.cos(x.re))


def cos(x: Dual) -> Dual:
    return Dual(math.cos(x.re), -x.du * math.sin(x.re))


def exp(x: Dual) -> Dual:
    e = math.exp(x.re)
    return Dual(e, x.du * e)


def acos_principal(c: Dual, tol: float = DEFAULT_TOL) -> Dual:
    """Invert the dual cosine on its principal range.

    cos maps (0, pi) + eps*R bijectively onto (-1, 1) + eps*R and sends the
    endpoints {0, pi} to {1, -1} alone. Real parts overshooting 1 by at most
    ``tol`` are clamped first (unit-screw dot products routinely round past
    1). At a clamped endpoint a nonzero dual part has no preimage, so we
    refuse rather than extrapolate.
    """
    a = c.re
    if abs(a) > 1.0 + tol:
        raise OutOfRange(f"|{a}| exceeds 1 beyond tolerance {tol}")
    a = max(-1.0, min(1.0, a))
    if abs(a) == 1.0:
        if abs(c.du) > tol:
            raise BoundaryDualPart(
                f"cos value {c} is at an endpoint but has dual part beyond tolerance {tol}"
            )
        return Dual(0.0 if a > 0.0 else math.pi)
    theta = math.acos(a)
    return Dual(theta, -c.du / math.sin(theta))


# -- text form ---------------------------------------------------------------

_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_FULL = _regex.compile(rf"^\s*({_NUM})\s*(?:([+-])\s*({_NUM})\s*(?:ε|eps))?\s*$")
_PURE = _regex.compile(rf"^\s*({_NUM})\s*(?:ε|eps)\s*$")


def format_dual(x: Dual) -> str:
    """Render as ``a + b<eps>`` with 17 significant digits, so it round-trips."""
    sign = "-" if (x.du < 0.0 or (x.du == 0.0 and math.copysign(1.0, x.du) < 0.0)) else "+"
    return f"{x.re:.17g} {sign} {abs(x.du):.17g}ε"


def parse_dual(text: str) -> Dual:
    """Parse ``a``, ``a+b<eps>`` or ``b<eps>`` (``eps`` accepted for the symbol)."""
    m = _PURE.match(text)
    if m:
        return Dual(0.0, float(m.group(1)))
    m = _FULL.match(text)
    if not m:
        raise ValueError(f"cannot parse dual number from {text!r}")
    re_part = float(m.group(1))
    if m.group(3) is None:
        return Dual(re_part)
    du_part = float(m.group(3))
    if m.group(2) == "-":
        du_part = -du_part
    return Dual(re_part, du_part)


def _coerce(value: "Dual | Real | object") -> "Dual | None":
    if isinstance(value, Dual):
        return value
    if isinstance(value, (int, float)):
        return Dual(value)
    return None
