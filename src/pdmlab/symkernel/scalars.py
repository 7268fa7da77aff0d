"""Exact Gaussian-rational scalars (a + b*i with rational a, b).

Operator coefficients carry explicit factors of i, so the whole kernel
works over Q(i) instead of splitting real and imaginary parts.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GRat:
    """Immutable Gaussian rational re + im*i."""

    __slots__ = ("re", "im", "_hash")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))
        object.__setattr__(self, "_hash", hash((self.re, self.im)))

    def __setattr__(self, *a):
        raise AttributeError("GRat is immutable")

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    def is_rational(self) -> bool:
        return self.im == 0

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "GRat") -> "GRat":
        return GRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GRat") -> "GRat":
        return GRat(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GRat":
        return GRat(-self.re, -self.im)

    def __mul__(self, other: "GRat") -> "GRat":
        return GRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self) -> "GRat":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GRat(self.re / n, -self.im / n)

    def __truediv__(self, other: "GRat") -> "GRat":
        return self * other.inverse()

    def conj(self) -> "GRat":
        return GRat(self.re, -self.im)

    def __pow__(self, n: int) -> "GRat":
        if n < 0:
            return self.inverse() ** (-n)
        out = GRat(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons / hashing --------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, GRat):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else ''}{self.im}*i)"


ZERO = GRat(0)
ONE = GRat(1)
I = GRat(0, 1)
MINUS_ONE = GRat(-1)


def grat(x) -> GRat:
    """Coerce an int, Fraction or GRat to a GRat."""
    if isinstance(x, GRat):
        return x
    return GRat(_as_fraction(x))


def content_normalize(coeffs):
    """Scale a nonempty list of GRats so all entries are Gaussian integers
    with no common rational factor.  Returns (scale, scaled coeffs) with
    scaled[k] = coeffs[k] * scale.
    """
    den = 1
    for c in coeffs:
        den = den * c.re.denominator // gcd(den, c.re.denominator)
        den = den * c.im.denominator // gcd(den, c.im.denominator)
    num = 0
    for c in coeffs:
        num = gcd(num, abs(c.re.numerator * (den // c.re.denominator)))
        num = gcd(num, abs(c.im.numerator * (den // c.im.denominator)))
    if num == 0:
        return GRat(1), list(coeffs)
    scale = GRat(Fraction(den, num))
    return scale, [c * scale for c in coeffs]


def gaussian_gcd(coeffs) -> GRat:
    """A gcd in Z[i] of Gaussian-integer GRats, by Euclid's algorithm with
    the rounded quotient; exactly 1 when the gcd is a unit."""
    a, b = 0, 0
    for c in coeffs:
        x, y = c.re.numerator, c.im.numerator
        while x or y:
            # (a + bi, x + yi) <- (x + yi, (a + bi) - q (x + yi)),
            # q = (a + bi) / (x + yi) rounded to the nearest Gaussian integer
            n = x * x + y * y
            qr = (2 * (a * x + b * y) + n) // (2 * n)
            qi = (2 * (b * x - a * y) + n) // (2 * n)
            a, b, x, y = x, y, a - qr * x + qi * y, b - qr * y - qi * x
        if a * a + b * b == 1:
            return ONE
    return GRat(a, b)


def canonical_unit(c: GRat) -> GRat:
    """The unit u in {1, -1, i, -i} such that u*c has re > 0 and im >= 0:
    exactly one of the four associates of a nonzero c lies in that quadrant."""
    for u in (ONE, MINUS_ONE, I, GRat(0, -1)):
        p = u * c
        if p.re > 0 and p.im >= 0:
            return u
    raise ZeroDivisionError("no canonical unit for zero")
