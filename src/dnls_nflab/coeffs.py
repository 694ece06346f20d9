"""Exact coefficients: Gaussian rationals times a nonnegative power of 1/pi.

Every polynomial coefficient in the normal-form constructions has the shape
(a + i*b) * pi**(-p) with a, b rational and p a small nonnegative integer.
Keeping the pi power symbolic makes cancellation checks exact: a residual is
zero iff its rational parts are zero, with no floating arithmetic involved.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"expected a rational number, got {type(x).__name__}")


class ExactCoeff:
    """Value (re + i*im) / pi**pi_power, with exact equality.

    Addition requires matching pi powers (or a zero operand): distinct powers
    never meet on one monomial in any construction here, and merging them
    would silently break exactness since pi is transcendental.

    The one constructor converts rational parts to Fractions, taking parts
    that already are Fractions as they are, and raises TypeError for any
    other part (a float or a string); pi_power must be nonnegative, and a
    zero value carries pi_power 0.  The instance is a frozen value: the
    constructor fills its slots through their descriptors, and assignment
    raises AttributeError.
    """

    __slots__ = ("re", "im", "pi_power")

    def __init__(self, re, im, pi_power: int = 0):
        if type(re) is not Fraction:
            re = _as_fraction(re)
        if type(im) is not Fraction:
            im = _as_fraction(im)
        if pi_power < 0:
            raise ValueError("pi_power must be nonnegative")
        if not (re or im):
            pi_power = 0
        _set_re(self, re)
        _set_im(self, im)
        _set_pi_power(self, pi_power)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: ExactCoeff is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: ExactCoeff is immutable")

    def __reduce__(self):
        return ExactCoeff, (self.re, self.im, self.pi_power)

    def __eq__(self, other) -> bool:
        if other.__class__ is not ExactCoeff:
            return NotImplemented
        return self.re == other.re and self.im == other.im and self.pi_power == other.pi_power

    def __hash__(self) -> int:
        return hash((self.re, self.im, self.pi_power))

    def __repr__(self) -> str:
        return f"ExactCoeff(re={self.re!r}, im={self.im!r}, pi_power={self.pi_power!r})"

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "ExactCoeff":
        return cls(Fraction(0), Fraction(0), 0)

    @classmethod
    def real(cls, value, pi_power: int = 0) -> "ExactCoeff":
        return cls(_as_fraction(value), Fraction(0), pi_power)

    @classmethod
    def imag(cls, value, pi_power: int = 0) -> "ExactCoeff":
        return cls(Fraction(0), _as_fraction(value), pi_power)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not (self.re or self.im)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "ExactCoeff") -> "ExactCoeff":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.pi_power != other.pi_power:
            raise ValueError(
                f"cannot add coefficients with pi powers {self.pi_power} and "
                f"{other.pi_power}; a monomial collected terms of mixed origin"
            )
        return ExactCoeff(self.re + other.re, self.im + other.im, self.pi_power)

    def __neg__(self) -> "ExactCoeff":
        return ExactCoeff(-self.re, -self.im, self.pi_power)

    def __sub__(self, other: "ExactCoeff") -> "ExactCoeff":
        return self + (-other)

    def __mul__(self, other: "ExactCoeff") -> "ExactCoeff":
        return ExactCoeff(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            self.pi_power + other.pi_power,
        )

    def scaled(self, factor) -> "ExactCoeff":
        """Multiply by an exact rational scalar."""
        f = _as_fraction(factor)
        return ExactCoeff(self.re * f, self.im * f, self.pi_power)

    def conjugate(self) -> "ExactCoeff":
        return ExactCoeff(self.re, -self.im, self.pi_power)

    # -- numeric views -------------------------------------------------------

    def to_complex(self) -> complex:
        scale = math.pi ** (-self.pi_power)
        return complex(float(self.re) * scale, float(self.im) * scale)

    def abs_squared_rational(self) -> Fraction:
        """|re + i*im|**2, without the pi factor."""
        return self.re * self.re + self.im * self.im

    def abs_float(self) -> float:
        return math.sqrt(float(self.abs_squared_rational())) * math.pi ** (-self.pi_power)

    def __str__(self) -> str:
        core = f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"
        if self.pi_power == 0:
            return core
        if self.pi_power == 1:
            return core + "/pi"
        return core + f"/pi^{self.pi_power}"


_set_re, _set_im, _set_pi_power = (
    ExactCoeff.re.__set__,
    ExactCoeff.im.__set__,
    ExactCoeff.pi_power.__set__,
)

ZERO = ExactCoeff.zero()
