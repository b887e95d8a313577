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

from .errors import DomainError, NotFinite, NotInvertible, NullVector

DEFAULT_TOL = 1e-9

Real = Union[int, float]


class _Value:
    """An immutable value held in slots, its fields named in ``_fields``.

    ``==`` and hash compare the fields of two values of one class, and
    ``repr`` reads ``Name(field=value, ...)``. Copy and pickle restore the
    slots as they are, through the slots' own descriptors, so no constructor
    re-validates or renormalizes what a value holds. Assigning or deleting an
    attribute raises AttributeError. A subclass that is equal only to itself
    sets ``__eq__ = object.__eq__`` and ``__hash__ = object.__hash__``.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls) -> None:
        # Each field's slot descriptor, which fills it without the lookup that
        # object.__setattr__ pays.
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls._fields])

    def _fill(self, *values) -> None:
        """Set the fields, in ``_fields`` order; only for a value being built."""
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return _restored, (type(self), *self._values())


def _restored(cls: type, *values) -> _Value:
    """A value of ``cls`` holding ``values``, as copy and pickle rebuild one."""
    value = _new(cls)
    value._fill(*values)
    return value


class Dual(_Value):
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

    __slots__ = _fields = ("re", "du")
    re: float
    du: float

    def __init__(self, re: float, du: float = 0.0) -> None:
        try:
            re, du = float(re), float(du)
        except OverflowError as exc:
            raise NotFinite(f"dual component does not fit a float: {exc}") from exc
        if not (math.isfinite(re) and math.isfinite(du)):
            raise NotFinite(f"{_NOT_FINITE}{re}, {du}")
        _set_re(self, re)
        _set_du(self, du)

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
        """Multiplicative inverse, (re - du*eps)/re**2, with the refusals of ``_dinv``."""
        return _dual(*_dinv(self.re, self.du))

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
    return _dual(*_droot(x.re, x.du))


def sin(x: Dual) -> Dual:
    return _dual(*_dsincos(x.re, x.du)[:2])


def cos(x: Dual) -> Dual:
    return _dual(*_dsincos(x.re, x.du)[2:])


def exp(x: Dual) -> Dual:
    try:
        e = math.exp(x.re)
    except OverflowError as exc:
        raise NotFinite(f"exp overflows at {x.re}") from exc
    return _dual(e, x.du * e)


def atan2(s: Dual, c: Dual) -> Dual:
    """The angle of the point (c, s), extended over the duals (``_datan2``).

    Scaling s and c by one dual number with positive real part changes neither
    part, so callers need not normalize. At the origin, or where its squared
    length underflows to 0, no angle exists and DomainError is raised.
    """
    return _dual(*_datan2(s.re, s.du, c.re, c.du))


# -- kernels on float pairs ----------------------------------------------------
#
# Each dual formula but the ring product, written once on the (re, du) parts with
# its refusals, whose messages quote a pair as the Dual that _restored builds.

def _dinv(re: float, du: float) -> tuple:
    """The parts of the inverse of re + du*eps, 1/re and -du/re**2. A pure dual, by an exact
    test, has none; one whose real part squared underflows to 0 has one beyond the floats."""
    if re == 0.0:
        raise NotInvertible(f"pure dual number {_restored(Dual, re, du)} has no inverse")
    re2 = re * re
    if re2 == 0.0:
        raise NotFinite(f"inverse of {_restored(Dual, re, du)} overflows: "
                        "its real part squared underflows to 0")
    return 1.0 / re, -du / re2


def _datan2(s: float, sd: float, c: float, cd: float) -> tuple:
    """The parts of atan2(s + sd*eps, c + cd*eps), atan2(s, c) and (c sd - s cd) / (c*c + s*s)."""
    r2 = c * c + s * s
    if r2 == 0.0:
        raise DomainError(f"atan2({_restored(Dual, s, sd)}, {_restored(Dual, c, cd)}) "
                          "needs a real point whose squared length is not 0")
    return math.atan2(s, c), (c * sd - s * cd) / r2


def _dsincos(t: float, td: float) -> tuple:
    """The parts of sin and cos at t + td*eps: sin t and td cos t, then cos t and -td sin t."""
    sin_t, cos_t = math.sin(t), math.cos(t)
    return sin_t, td * cos_t, cos_t, -td * sin_t


def _droot(ss: float, ss_du: float) -> tuple:
    """|x| and its dual part, sqrt(ss) and ss_du / (2 sqrt(ss)), from the parts of ss = x o x.
    ss is 0 for a pure dual and where the squared resultant length underflows: NullVector."""
    if ss == 0.0:
        raise NullVector("modulus undefined: the squared resultant length is 0 "
                         "(a pure dual, or an underflow)")
    root = math.sqrt(ss)
    du = ss_du / (2.0 * root)
    if not (math.isfinite(root) and math.isfinite(du)):
        raise NotFinite(f"{_NOT_FINITE}{root}, {du}")
    return root, du


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
        raise ValueError(f"cannot parse dual number from {_quoted(text)}")
    re_part = float(m.group(1))
    if m.group(3) is None:
        return Dual(re_part)
    du_part = float(m.group(3))
    if m.group(2) == "-":
        du_part = -du_part
    return Dual(re_part, du_part)


_QUOTED = 80


def _quoted(value: object) -> str:
    """repr(value), cut to _QUOTED characters: a refusal quotes a bounded form of its input."""
    text = repr(value)
    return text if len(text) <= _QUOTED else text[:_QUOTED - 3] + "..."


_new = object.__new__
_set_re, _set_du = Dual._setters

_NOT_FINITE = "dual components must be finite, got "


def _dual(re: float, du: float) -> Dual:
    """The constructor for floats the library computed from checked values.

    It skips the coercion in ``Dual.__init__`` but keeps the finiteness test,
    so an overflow still raises NotFinite at the result it spoils.
    """
    if not (math.isfinite(re) and math.isfinite(du)):
        raise NotFinite(f"{_NOT_FINITE}{re}, {du}")
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
