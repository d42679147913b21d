"""Exact Gaussian-rational scalars: (num_re + num_im*i) / den in integers.

A scalar has the form of one ``DiffOp`` term's coefficient: a Gaussian-
integer numerator over a positive denominator, the three integers coprime.
``gaussian`` is the one reducing constructor and every operation ends in it,
so each value has one representation, ``==`` and ``hash`` compare integers,
and no rounding ever occurs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Union

ScalarLike = Union[int, Fraction, "Scalar"]


def gaussian(re: int, im: int, den: int) -> "Scalar":
    """The scalar (re + im*i) / den, for integers with den > 0."""
    g = gcd(re, im, den)
    if g != 1:
        re, im, den = re // g, im // g, den // g
    s = object.__new__(Scalar)
    s.num_re, s.num_im, s.den = re, im, den
    return s


def _format_rational(n: int, d: int) -> str:
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def format_gaussian(re: int, im: int, den: int) -> str:
    """Text of (re + im*i) / den, for integers with den > 0.

    Each part prints reduced as ``n/d``, the sign on ``n`` and ``/d`` left
    out when ``d`` is 1; the imaginary part carries an ``i`` (``i`` and
    ``-i`` alone for +-1), and a zero part is left out unless both are zero.
    """
    re_s = _format_rational(re, den)
    if not im:
        return re_s
    im_s = _format_rational(im, den)
    im_s = "i" if im_s == "1" else "-i" if im_s == "-1" else im_s + "i"
    if not re:
        return im_s
    return f"{re_s}+{im_s}" if im > 0 else re_s + im_s


class Scalar:
    """A complex number re + im*i with exact rational parts."""

    __slots__ = ("num_re", "num_im", "den")

    def __new__(cls, re: int | Fraction = 0, im: int | Fraction = 0) -> "Scalar":
        for x in (re, im):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"not an exact rational: {x!r}")
        den = lcm(re.denominator, im.denominator)
        return gaussian(re.numerator * (den // re.denominator),
                        im.numerator * (den // im.denominator), den)

    @staticmethod
    def of(value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(value)

    @property
    def re(self) -> Fraction:
        return Fraction(self.num_re, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.num_im, self.den)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        return gaussian(self.num_re * o.den + o.num_re * self.den,
                        self.num_im * o.den + o.num_im * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        return gaussian(self.num_re * o.den - o.num_re * self.den,
                        self.num_im * o.den - o.num_im * self.den, self.den * o.den)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) - self

    def __neg__(self) -> "Scalar":
        return gaussian(-self.num_re, -self.num_im, self.den)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        a, b, c, d = self.num_re, self.num_im, o.num_re, o.num_im
        return gaussian(a * c - b * d, a * d + b * c, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        a, b, c, d = self.num_re, self.num_im, o.num_re, o.num_im
        n2 = c * c + d * d
        if n2 == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return gaussian((a * c + b * d) * o.den, (b * c - a * d) * o.den, self.den * n2)

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) / self

    def conjugate(self) -> "Scalar":
        return gaussian(self.num_re, -self.num_im, self.den)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Scalar:
            return NotImplemented
        return (self.num_re == other.num_re and self.num_im == other.num_im
                and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num_re, self.num_im, self.den))

    @property
    def is_zero(self) -> bool:
        return not (self.num_re or self.num_im)

    def __bool__(self) -> bool:
        return not self.is_zero

    def to_complex(self) -> complex:
        return complex(self.num_re / self.den, self.num_im / self.den)

    def __str__(self) -> str:
        return format_gaussian(self.num_re, self.num_im, self.den)

    def __repr__(self) -> str:
        return f"Scalar({self})"


ZERO = Scalar()
ONE = Scalar(1)
I = Scalar(0, 1)


def rational_sqrt(f: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative Fraction, or None if irrational."""
    if f < 0:
        return None
    if f == 0:
        return Fraction(0)
    n, d = f.numerator, f.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None
