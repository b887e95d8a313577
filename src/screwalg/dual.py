"""Dual-number scalars: the coefficient ring of screw calculus.

A dual number is ``re + du*eps`` with ``eps**2 == 0``. Multiplication never
produces a ``du*du`` term, so first-order information propagates exactly;
this is what lets angle-plus-distance data ride along with ordinary vector
formulas in the rest of the library.
"""

from __future__ import annotations

import math
import re as _regex
from typing import Callable, Union

from .errors import DomainError, NotFinite, NotInvertible

DEFAULT_TOL = 1e-9

Real = Union[int, float]


class Dual:
    """Immutable dual number ``re + du*eps``.

    Components must be finite; arithmetic mixes freely with ints and floats.
    Equality is exact componentwise comparison, intended for bookkeeping.
    Numerical comparisons belong in the caller with an explicit tolerance.

    Validation: input is checked where it enters, by this constructor (which
    coerces to float and refuses non-finite components), by the
    ``DualVec3``/``DualMat3`` constructors (through the one array checker
    ``linalg._DualArray._checked``), by ``line_from_point_direction`` and by
    the CLI parsers. Results computed from checked values skip coercion and
    re-validation, but every result is still tested finite: a ``Dual`` in
    ``_dual``, a ``DualVec3`` or ``DualMat3`` in the shared ``_raw``. So an
    overflow raises ``NotFinite`` (CLI exit 3) at the result it spoils.
    """

    __slots__ = ("re", "du")
    re: float
    du: float

    def __init__(self, re: float, du: float = 0.0) -> None:
        try:
            re, du = float(re), float(du)
        except OverflowError as exc:
            raise NotFinite(f"dual component does not fit a float: {exc}") from exc
        if not (math.isfinite(re) and math.isfinite(du)):
            raise NotFinite(f"dual components must be finite, got {re}, {du}")
        _set_re(self, re)
        _set_du(self, du)

    def __setattr__(self, name, value):
        raise AttributeError("Dual is immutable")

    def __delattr__(self, name):
        raise AttributeError("Dual is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.re, self.du) == (other.re, other.du)

    def __hash__(self) -> int:
        return hash((self.re, self.du))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(re={self.re!r}, du={self.du!r})"

    def __reduce__(self):
        return type(self), (self.re, self.du)

    # -- ring structure ------------------------------------------------------

    def __add__(self, other: "Dual | Real") -> "Dual":
        if type(other) is not Dual:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _dual(self.re + other.re, self.du + other.du)

    __radd__ = __add__

    def __sub__(self, other: "Dual | Real") -> "Dual":
        if type(other) is not Dual:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _dual(self.re - other.re, self.du - other.du)

    def __rsub__(self, other: "Dual | Real") -> "Dual":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Dual":
        return _dual(-self.re, -self.du)

    def __mul__(self, other: "Dual | Real") -> "Dual":
        if type(other) is not Dual:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _dual(self.re * other.re, self.re * other.du + self.du * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other: "Dual | Real") -> "Dual":
        if type(other) is not Dual:
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
        return _dual(self.re, -self.du)

    def inv(self) -> "Dual":
        """Multiplicative inverse, (re - du*eps)/re**2.

        The real part is tested exactly: a pure dual number has no inverse,
        and silently treating a tiny resultant as zero would hide bugs. A real
        part whose square underflows to 0 has an inverse that floats cannot
        hold, which is refused as an overflow.
        """
        if self.re == 0.0:
            raise NotInvertible(f"pure dual number {self} has no inverse")
        re2 = self.re * self.re
        if re2 == 0.0:
            raise NotFinite(f"inverse of {self} overflows: its real part squared underflows to 0")
        return _dual(1.0 / self.re, -self.du / re2)

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
    except OverflowError as exc:
        raise NotFinite(f"extended function overflows at {x.re}") from exc
    except ValueError as exc:
        raise DomainError(f"{x.re} outside the domain of the extended function") from exc
    if not (math.isfinite(value) and math.isfinite(slope)):
        raise DomainError(f"extended function not finite at {x.re}")
    return _dual(float(value), float(x.du * slope))


def sqrt(x: Dual) -> Dual:
    """Principal square root; requires a positive real part."""
    if x.re <= 0.0:
        raise DomainError(f"sqrt requires a positive real part, got {x.re}")
    root = math.sqrt(x.re)
    return _dual(root, x.du / (2.0 * root))


def sin(x: Dual) -> Dual:
    return _dual(math.sin(x.re), x.du * math.cos(x.re))


def cos(x: Dual) -> Dual:
    return _dual(math.cos(x.re), -x.du * math.sin(x.re))


def exp(x: Dual) -> Dual:
    try:
        e = math.exp(x.re)
    except OverflowError as exc:
        raise NotFinite(f"exp overflows at {x.re}") from exc
    return _dual(e, x.du * e)


def atan2(s: Dual, c: Dual) -> Dual:
    """The angle of the point (c, s), extended over the duals.

    The real part is atan2(s.re, c.re) and the dual part its derivative,
    (c.re * s.du - s.re * c.du) / (c.re**2 + s.re**2). Scaling s and c by one
    dual number with positive real part changes neither part, so callers
    need not normalize. At the origin, or where its squared length
    underflows to 0, no angle exists and DomainError is raised.
    """
    r2 = c.re * c.re + s.re * s.re
    if r2 == 0.0:
        raise DomainError(f"atan2({s}, {c}) needs a real point whose squared length is not 0")
    return _dual(math.atan2(s.re, c.re), (c.re * s.du - s.re * c.du) / r2)


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


# Dual refuses attribute assignment; the slots' own descriptors fill them
# without the lookup that object.__setattr__ pays.
_new = object.__new__
_set_re = Dual.re.__set__
_set_du = Dual.du.__set__


def _dual(re: float, du: float) -> Dual:
    """The constructor for floats the library computed from checked values.

    It skips the coercion in ``Dual.__init__`` but keeps the finiteness test,
    so an overflow still raises NotFinite at the result it spoils.
    """
    if not (math.isfinite(re) and math.isfinite(du)):
        raise NotFinite(f"dual components must be finite, got {re}, {du}")
    x = _new(Dual)
    _set_re(x, re)
    _set_du(x, du)
    return x


def _coerce(value: "Dual | Real | object") -> "Dual | None":
    if isinstance(value, Dual):
        return value
    if isinstance(value, (int, float)):
        return Dual(value)
    return None
