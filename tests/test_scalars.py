"""The integer Gaussian rationals against a pair-of-Fractions oracle.

The oracle keeps re and im as `Fraction`s and applies the textbook formulas;
every `GRat` result must have the same value, keep d > 0 and
gcd(a, b, d) = 1, and print, hash and convert as that value does.
"""

import struct
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from pdmlab.symkernel.scalars import (
    GRat,
    canonical_unit,
    content_normalize,
    gaussian_gcd,
    grat,
)

rats = st.one_of(
    st.integers(-50, 50).map(Fraction),
    st.fractions(max_denominator=1000),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
)
pairs = st.tuples(rats, rats)
gaussian_ints = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))


# -- the oracle: (re, im) pairs of Fractions ---------------------------------

def o_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def o_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def o_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def o_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return x[0] / n, -x[1] / n


def o_pow(x, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = o_mul(out, x)
    return o_inverse(out) if n < 0 else out


def o_repr(x):
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}*i"
    return f"({re}{'+' if im > 0 else ''}{im}*i)"


def o_content_normalize(xs):
    den = 1
    for re, im in xs:
        den = den * re.denominator // gcd(den, re.denominator)
        den = den * im.denominator // gcd(den, im.denominator)
    num = 0
    for re, im in xs:
        num = gcd(num, abs(re.numerator * (den // re.denominator)))
        num = gcd(num, abs(im.numerator * (den // im.denominator)))
    if num == 0:
        return (Fraction(1), Fraction(0)), list(xs)
    scale = (Fraction(den, num), Fraction(0))
    return scale, [o_mul(x, scale) for x in xs]


def value(g: GRat):
    assert g.d > 0 and gcd(g.a, g.b, g.d) == 1, (g.a, g.b, g.d)
    return g.re, g.im


def make(x) -> GRat:
    return GRat(x[0], x[1])


# -- arithmetic ----------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_ring_operations(x, y):
    gx, gy = make(x), make(y)
    assert value(gx) == x
    assert value(gx + gy) == o_add(x, y)
    assert value(gx - gy) == o_sub(x, y)
    assert value(gx * gy) == o_mul(x, y)
    assert value(-gx) == (-x[0], -x[1])
    assert value(gx.conj()) == (x[0], -x[1])


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_division(x, y):
    assume(y != (0, 0))
    gx, gy = make(x), make(y)
    assert value(gy.inverse()) == o_inverse(y)
    assert value(gx / gy) == o_mul(x, o_inverse(y))


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.fractions(max_denominator=50), st.fractions(max_denominator=50)),
       st.integers(-6, 6))
def test_powers(x, n):
    assume(x != (0, 0) or n >= 0)
    assert value(make(x) ** n) == o_pow(x, n)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        GRat(0).inverse()
    with pytest.raises(ZeroDivisionError):
        GRat(1, 2) / GRat(0)


# -- equality, hashing, conversions ----------------------------------------------

@settings(max_examples=200, deadline=None)
@given(rats)
def test_real_values_equal_and_hash_like_numbers(q):
    g = GRat(q)
    assert g == q and q == g
    assert hash(g) == hash(q)
    assert {q: 1}.get(g) == 1
    if q.denominator == 1:
        n = int(q)
        assert g == n and hash(g) == hash(n) and {n: 1}.get(g) == 1
    assert GRat(q) == grat(q) == grat(g)


def test_hash_of_a_denominator_divisible_by_the_hash_modulus():
    m = sys.hash_info.modulus
    for q in (Fraction(1, m), Fraction(-3, 2 * m)):
        assert hash(GRat(q)) == hash(q)


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_equality_is_value_equality(x, y):
    gx, gy = make(x), make(y)
    assert (gx == gy) == (x == y)
    if gx == gy:
        assert hash(gx) == hash(gy)
    if x[1] != 0:
        assert gx != x[0]


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_complex_is_bit_identical(x):
    got = complex(make(x))
    want = complex(float(x[0]), float(x[1]))
    assert struct.pack("<dd", got.real, got.imag) == struct.pack("<dd", want.real, want.imag)


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_repr_text(x):
    assert repr(make(x)) == o_repr(x)


def test_constructor_rejects_other_types():
    with pytest.raises(TypeError):
        GRat(0.5)
    with pytest.raises(TypeError):
        grat("1")


# -- content and units -----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(pairs, min_size=1, max_size=6))
def test_content_normalize(xs):
    scale, scaled = content_normalize([make(x) for x in xs])
    o_scale, o_scaled = o_content_normalize(xs)
    assert value(scale) == o_scale
    assert [value(c) for c in scaled] == o_scaled
    if any(x != (0, 0) for x in xs):
        assert all(c.d == 1 for c in scaled)


@settings(max_examples=200, deadline=None)
@given(st.lists(gaussian_ints, min_size=1, max_size=5), gaussian_ints)
def test_gaussian_gcd_divides_and_is_maximal(xs, k):
    # a multiple k*g of a gcd g has gcd an associate of k*g
    g = gaussian_gcd([GRat(a, b) for a, b in xs])
    assert g.d == 1
    if g.is_zero():
        assert all(x == (0, 0) for x in xs)
        return
    for a, b in xs:
        assert (GRat(a, b) / g).d == 1
    assume(k != (0, 0))
    kg = GRat(*k) * g
    h = gaussian_gcd([GRat(*k) * GRat(a, b) for a, b in xs])
    assert (h / kg) in (GRat(1), GRat(-1), GRat(0, 1), GRat(0, -1))


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_canonical_unit(x):
    assume(x != (0, 0))
    want = next(u for u in ((1, 0), (-1, 0), (0, 1), (0, -1))
                if (p := o_mul(u, x))[0] > 0 and p[1] >= 0)
    assert value(canonical_unit(make(x))) == want


def test_canonical_unit_of_zero():
    with pytest.raises(ZeroDivisionError):
        canonical_unit(GRat(0))
