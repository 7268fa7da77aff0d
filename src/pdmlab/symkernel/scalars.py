"""Exact Gaussian-rational scalars (a + b*i)/d.

Operator coefficients carry explicit factors of i, so the whole kernel
works over Q(i) instead of splitting real and imaginary parts.

A `GRat` stores three ints a, b, d with d > 0 and gcd(a, b, d) = 1, so each
value has exactly one representation: equality compares the three ints, and
a Gaussian integer is d == 1.  Arithmetic runs on ints alone; `.re` and
`.im` build `Fraction`s for readers that want them.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _ratio(x) -> tuple:
    """(numerator, denominator) of an int or a Fraction."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GRat:
    """Immutable Gaussian rational (a + b*i)/d: ints with d > 0 and
    gcd(a, b, d) = 1.  The fields are set once, by `__new__` or `_make`,
    and never assigned again."""

    __slots__ = ("a", "b", "d")

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            return _make(re, im, 1)
        p, q = _ratio(re)
        r, s = _ratio(im)
        if q == s:
            return _make(p, r, q)
        # re and im are reduced, so over their lcm gcd(a, b, d) is 1
        d = q * s // gcd(q, s)
        return _make(p * (d // q), r * (d // s), d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0 and self.d == 1

    def is_rational(self) -> bool:
        return self.b == 0

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "GRat") -> "GRat":
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other: "GRat") -> "GRat":
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a - other.a, self.b - other.b, d)
        return _reduced(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __neg__(self) -> "GRat":
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other: "GRat") -> "GRat":
        a, b, d = self.a, self.b, self.d
        x, y, e = other.a, other.b, other.d
        if b == 0 and y == 0:
            if d == 1 and e == 1:
                return _make(a * x, 0, 1)
            # gcd(a, d) = gcd(x, e) = 1, so cross cancellation reduces
            g, h = gcd(a, e), gcd(x, d)
            return _make((a // g) * (x // h), 0, (d // h) * (e // g))
        if y == 0:
            return _reduced(a * x, b * x, d * e)
        if b == 0:
            return _reduced(a * x, a * y, d * e)
        return _reduced(a * x - b * y, a * y + b * x, d * e)

    def inverse(self) -> "GRat":
        a, b, d = self.a, self.b, self.d
        if b == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero Gaussian rational")
            return _make(d, 0, a) if a > 0 else _make(-d, 0, -a)
        return _reduced(a * d, -b * d, a * a + b * b)

    def __truediv__(self, other: "GRat") -> "GRat":
        a, b, d = self.a, self.b, self.d
        x, y, e = other.a, other.b, other.d
        if y == 0:
            if x == 0:
                raise ZeroDivisionError("inverse of zero Gaussian rational")
            if x < 0:
                a, b, x = -a, -b, -x
            return _reduced(a * e, b * e, d * x)
        # times (x - y*i) * e / (x^2 + y^2)
        return _reduced((a * x + b * y) * e, (b * x - a * y) * e, d * (x * x + y * y))

    def conj(self) -> "GRat":
        return _make(self.a, -self.b, self.d)

    def __pow__(self, n: int) -> "GRat":
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
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
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return self.b == 0 and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return self.b == 0 and self.a == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        """A real value hashes like the equal int or Fraction."""
        a, b, d = self.a, self.b, self.d
        if b:
            return hash((a, b, d))
        if d == 1:
            return hash(a)
        # Python's numeric hash of a/d, as Fraction computes it
        try:
            h = hash(hash(abs(a)) * pow(d, -1, _HASH_MODULUS))
        except ValueError:
            h = _HASH_INF
        h = h if a >= 0 else -h
        return -2 if h == -1 else h

    def __complex__(self) -> complex:
        # int / int is correctly rounded, as Fraction.__float__ is
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self) -> str:
        re, im = ratio_text(self.a, self.d), ratio_text(self.b, self.d)
        if self.b == 0:
            return re
        if self.a == 0:
            return f"{im}*i"
        return f"({re}{'+' if self.b > 0 else ''}{im}*i)"


_new = object.__new__


def _make(a: int, b: int, d: int) -> GRat:
    """The GRat with these fields; the caller guarantees the invariant."""
    out = _new(GRat)
    out.a = a
    out.b = b
    out.d = d
    return out


def _reduced(a: int, b: int, d: int) -> GRat:
    """(a + b*i)/d for any d > 0, reduced to the invariant."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return _make(a // g, b // g, d // g)
    return _make(a, b, d)


def ratio_text(n: int, d: int) -> str:
    """The text of the rational n/d (d > 0) in lowest terms: "n" or "n/d"."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


ZERO = _make(0, 0, 1)
ONE = _make(1, 0, 1)
I = _make(0, 1, 1)
MINUS_ONE = _make(-1, 0, 1)
MINUS_I = _make(0, -1, 1)


def grat(x) -> GRat:
    """Coerce an int, Fraction or GRat to a GRat."""
    if isinstance(x, GRat):
        return x
    return GRat(x)


def content_normalize(coeffs):
    """Scale a nonempty list of GRats so all entries are Gaussian integers
    with no common rational factor.  Returns (scale, scaled coeffs) with
    scaled[k] = coeffs[k] * scale.
    """
    den = 1
    for c in coeffs:
        d = c.d
        if d != 1:
            den = den * d // gcd(den, d)
    num = 0
    for c in coeffs:
        k = den // c.d
        num = gcd(num, c.a * k, c.b * k)
    if num == 0:
        return ONE, list(coeffs)
    # gcd(num, den) = 1: a prime dividing both would divide a, b and d of
    # a coefficient whose d holds the prime's highest power
    scaled = []
    for c in coeffs:
        k = den // c.d
        scaled.append(_make(c.a * k // num, c.b * k // num, 1))
    return _make(den, 0, num), scaled


def gaussian_gcd(coeffs) -> GRat:
    """A gcd in Z[i] of Gaussian-integer GRats, by Euclid's algorithm with
    the rounded quotient; exactly 1 when the gcd is a unit."""
    a, b = 0, 0
    for c in coeffs:
        x, y = c.a, c.b
        while x or y:
            # (a + bi, x + yi) <- (x + yi, (a + bi) - q (x + yi)),
            # q = (a + bi) / (x + yi) rounded to the nearest Gaussian integer
            n = x * x + y * y
            qr = (2 * (a * x + b * y) + n) // (2 * n)
            qi = (2 * (b * x - a * y) + n) // (2 * n)
            a, b, x, y = x, y, a - qr * x + qi * y, b - qr * y - qi * x
        if a * a + b * b == 1:
            return ONE
    return _make(a, b, 1)


def primitive_scale(coeffs) -> GRat:
    """The s for which the c*s of a nonempty list of GRats are Gaussian
    integers whose gcd in Z[i] is a unit; 1 when every c is zero."""
    scale, ints = content_normalize(coeffs)
    if any(c.b for c in ints):
        # with a non-real entry the rational content can leave a Gaussian
        # one, such as 1+i; for real entries the two contents agree
        scale = scale / gaussian_gcd(ints)
    return scale


def canonical_unit(c: GRat) -> GRat:
    """The unit u in {1, -1, i, -i} such that u*c has re > 0 and im >= 0:
    exactly one of the four associates of a nonzero c lies in that quadrant."""
    a, b = c.a, c.b
    if a > 0 and b >= 0:
        return ONE
    if a < 0 and b <= 0:
        return MINUS_ONE
    if b < 0 and a >= 0:
        return I  # i*c = (-b + a*i)/d
    if b > 0 and a <= 0:
        return MINUS_I  # -i*c = (b - a*i)/d
    raise ZeroDivisionError("no canonical unit for zero")
