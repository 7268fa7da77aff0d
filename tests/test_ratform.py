"""The modular coprimality check in front of the gcd's pseudo-remainder
sequence (PRS)."""

import hashlib
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from pdmlab import catalog
from pdmlab.symkernel import normalize, param, parse_sexpr, sqrt, to_sexpr, x1, x2, x3
from pdmlab.symkernel import ratform
from pdmlab.symkernel.ratform import (
    _coprime_certified,
    _p_gcd_core,
    m_div,
    p_add,
    p_atom,
    p_atoms,
    p_canonical,
    p_const,
    p_gcd,
    p_is_const,
    p_mono_content,
    p_mul_raw,
    to_rf,
)
from pdmlab.symkernel.scalars import GRat

# the square-root atom is an independent variable in the gcd's model
ATOMS = (x1, x2, param("a"), next(iter(p_atoms(to_rf(sqrt(x3 + 1)).num))))


def _poly(terms) -> dict:
    out: dict = {}
    for (re, im), exps in terms:
        t = p_const(GRat(re, im))
        for atom, e in zip(ATOMS, exps):
            if e:
                t = p_mul_raw(t, p_atom(atom, e))
        out = p_add(out, t)
    return out


_coeff = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda c: c != (0, 0))
_term = st.tuples(_coeff, st.tuples(*(st.integers(0, 2) for _ in ATOMS)))
polys = st.lists(_term, min_size=1, max_size=4).map(_poly).filter(bool)


def _strip_monomial_content(p: dict) -> dict:
    mc = p_mono_content(p)
    return {m_div(m, mc): c for m, c in p.items()} if mc else p


def _shifted(atom, v: int) -> dict:
    return p_add(p_atom(atom), p_const(GRat(-v)))


def _prs_gcd(a: dict, b: dict) -> dict:
    with mock.patch.object(ratform, "_coprime_certified", lambda a, b: False):
        return _p_gcd_core(a, b)


class TestCoprimeCertified:
    @settings(max_examples=150, deadline=None)
    @given(polys, polys, polys)
    def test_never_certifies_a_common_factor(self, a, b, c):
        assume(not p_is_const(c))
        assert not _coprime_certified(p_mul_raw(a, c), p_mul_raw(b, c))

    @settings(max_examples=150, deadline=None)
    @given(polys, polys)
    def test_certified_pairs_have_constant_prs_gcd(self, a, b):
        a = _strip_monomial_content(a)
        b = _strip_monomial_content(b)
        assume(len(a) > 1 and len(b) > 1)
        if _coprime_certified(a, b):
            assert p_is_const(_prs_gcd(a, b))

    def test_vanishing_leading_coefficient_falls_through(self):
        # x1 and x2 take the fixed values v1 and v2, so g's leading
        # coefficients x2 - v2 (in x1) and x1 - v1 (in x2) vanish and both
        # images of g are constant: only the degree test stops the check
        # from certifying g*h and g*k
        v1, v2 = ratform._point_value(0), ratform._point_value(1)
        g = p_add(p_mul_raw(_shifted(x1, v1), _shifted(x2, v2)), p_const(GRat(1)))
        a = p_mul_raw(g, _shifted(x1, -2))
        b = p_mul_raw(g, _shifted(x1, -3))
        assert not _coprime_certified(a, b)
        assert p_gcd(a, b) == p_canonical(g)

    def test_structured_leading_coefficient_is_certified(self):
        # a kernel-stream pair: a's x2-coefficient contains x1^2 - a*x3,
        # which vanishes at any point whose values are in arithmetic
        # progression in the atoms' order a, x1, x2, x3
        a = to_rf(parse_sexpr("(* 8 (+ (^ x1 2) (* -1 a x3))"
                              " (+ (* 7 (^ x1 2) x2) (* -2 a x1) 1))")).num
        b = to_rf(parse_sexpr("(+ (* (^ x2 3) (^ x3 3)) (* -1 (^ x1 3)))")).num
        assert _coprime_certified(a, b)

    def test_field_constants(self):
        p, s = ratform._P, ratform._S
        assert p % 4 == 1
        assert s * s % p == p - 1
        assert _is_prime(p)


def _is_prime(n: int) -> bool:
    # Miller-Rabin; these bases decide every n below 3.3e24
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestDecidedWithoutPrs:
    """Inputs whose gcd is 1 normalize to the text the PRS gave, without a
    single pseudo-remainder."""

    @pytest.fixture(autouse=True)
    def _no_prs(self, monkeypatch):
        def prem(a, b):
            raise AssertionError("pseudo-remainder sequence ran")

        monkeypatch.setattr(ratform, "_u_prem", prem)
        monkeypatch.setattr(ratform, "_NORM_CACHE", {})

    def test_stalled_kernel_item(self):
        # the item from perfbench/NOTES.md; the PRS ran past 300 s on it
        e = parse_sexpr("(* (+ (^ b 2) (* -8 (^ x1 2) (^ x2 2)) (* 8 (^ b 3)))"
                        " (+ (* -7 (^ x2 2) x3) (* -5 (^ b 3)))"
                        " (^ (+ -2 (* -6 a) (* 7 (^ x2 3)) (^ x2 4)) -1))")
        assert to_sexpr(normalize(e)) == (
            "(* (+ (* 56 (^ x1 2) (^ x2 4) x3) (* 40 (^ b 3) (^ x1 2) (^ x2 2))"
            " (* -56 (^ b 3) (^ x2 2) x3) (* -40 (^ b 6)) (* -7 (^ b 2) (^ x2 2) x3)"
            " (* -5 (^ b 5))) (^ (+ (^ x2 4) (* 7 (^ x2 3)) (* -6 a) -2) -1))")

    def test_row3_potential(self):
        # `catalog list` prints this 39,694-character V as the PRS computed it
        text = to_sexpr(normalize(catalog.load_catalog()[3].V))
        assert len(text) == 39694
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c940fdf1ea065a22da19c0d6371ef07b5ec6c68c8420c15fbfbd3026f781c095")

    def test_monomial_content_leaves_no_gaussian_factor(self):
        # the PRS ended x2 + i against x2 + 1 on the constant i - 1, and the
        # gcd (1 - i)*x1 left a factor 1 + i in both parts of the result
        with_content = parse_sexpr("(* (+ (* x1 x2) (* i x1)) (^ (+ (* x1 x2) x1) -1))")
        assert to_sexpr(normalize(with_content)) == "(* (+ x2 i) (^ (+ x2 1) -1))"
