"""The modular coprimality check in front of the gcd's pseudo-remainder
sequence (PRS), the packed monomials, and the lifetime of the normal form's
memo.

A monomial is valid only inside the kernel scope that packed it, so the
polynomial strategies draw terms, and each test builds its polynomials
inside one scope."""

import hashlib
import heapq
import random
from datetime import timedelta
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from pdmlab import catalog
from pdmlab.symkernel import (
    NUM_ZERO,
    ExprError,
    ProvedZero,
    diff_wrt,
    exp,
    ln,
    is_provably_zero,
    is_zero,
    kernel_scope,
    normalize,
    param,
    parse_sexpr,
    sqrt,
    to_sexpr,
    x1,
    x2,
    x3,
)
from pdmlab.symkernel import ratform
from pdmlab.symkernel.ratform import (
    _coprime_certified,
    _p_gcd_core,
    _p_reduce,
    _NegKey,
    _shift,
    M_ONE,
    P_ZERO,
    RF,
    RF_ONE,
    RF_ZERO,
    m_div,
    m_divides,
    m_gcd,
    m_key,
    m_mul,
    p_add,
    p_atom,
    p_atoms,
    p_canonical,
    p_const,
    p_gcd,
    p_is_const,
    p_lead,
    p_mono_content,
    p_diff,
    p_divexact,
    p_mul,
    p_mul_raw,
    rf_add,
    rf_canon,
    rf_diff,
    rf_mul,
    rf_to_expr,
    to_rf,
)
from pdmlab.symkernel.expr import AbstractFn, Add, Expr, Mul, Num, add, arctan, mul, pow_, sin
from pdmlab.symkernel.scalars import ZERO, GRat

# the square-root atom is an independent variable in the gcd's model
ATOMS = (x1, x2, param("a"), sqrt(x3 + 1))


def _poly(terms, atoms=ATOMS) -> dict:
    """The polynomial of ((re, im), exponents) terms; call it in a scope."""
    out: dict = {}
    for (re, im), exps in terms:
        t = p_const(GRat(re, im))
        for atom, e in zip(atoms, exps):
            if e:
                t = p_mul_raw(t, p_atom(atom, e))
        out = p_add(out, t)
    return out


def _nonzero(terms) -> bool:
    """Whether the terms leave a nonzero polynomial, summed like terms."""
    sums: dict = {}
    for (re, im), exps in terms:
        a, b = sums.get(exps, (0, 0))
        sums[exps] = (a + re, b + im)
    return any(c != (0, 0) for c in sums.values())


_coeff = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda c: c != (0, 0))
_term = st.tuples(_coeff, st.tuples(*(st.integers(0, 2) for _ in ATOMS)))
polys = st.lists(_term, min_size=1, max_size=4).filter(_nonzero)


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
        with kernel_scope:
            a, b, c = _poly(a), _poly(b), _poly(c)
            assume(not p_is_const(c))
            assert not _coprime_certified(p_mul_raw(a, c), p_mul_raw(b, c))

    @settings(max_examples=150, deadline=None)
    @given(polys, polys)
    def test_certified_pairs_have_constant_prs_gcd(self, a, b):
        with kernel_scope:
            a = _strip_monomial_content(_poly(a))
            b = _strip_monomial_content(_poly(b))
            assume(len(a) > 1 and len(b) > 1)
            if _coprime_certified(a, b):
                assert p_is_const(_prs_gcd(a, b))

    def test_prs_remainders_stay_small(self):
        # a certified pair on which the PRS, keeping each remainder's
        # numeric content, grew coefficients past a million bits; with the
        # content removed none passes 125
        bits = []
        prem = ratform._u_prem

        def spy(f, g):
            r = prem(f, g)
            bits.extend(max(abs(c.a).bit_length(), abs(c.b).bit_length(), c.d.bit_length())
                        for p in (*f, *g, *r) for c in p.values())
            return r

        with kernel_scope:
            a = _poly([((-3, -1), (0, 0, 2, 0)), ((2, -2), (1, 2, 1, 2)),
                       ((0, -3), (2, 0, 1, 0)), ((1, 0), (0, 0, 0, 2))])
            b = _poly([((0, 1), (0, 1, 0, 1)), ((1, 3), (2, 0, 2, 2)),
                       ((-2, 1), (0, 2, 1, 0)), ((3, 1), (2, 0, 2, 1))])
            assert _coprime_certified(a, b)
            with mock.patch.object(ratform, "_u_prem", spy):
                assert p_is_const(_prs_gcd(a, b))
        assert bits and max(bits) <= 4096

    def test_vanishing_leading_coefficient_falls_through(self):
        # x1 and x2 take the fixed values v1 and v2, so g's leading
        # coefficients x2 - v2 (in x1) and x1 - v1 (in x2) vanish and both
        # images of g are constant: only the degree test stops the check
        # from certifying g*h and g*k
        v1, v2 = ratform._point_value(0), ratform._point_value(1)
        with kernel_scope:
            g = p_add(p_mul_raw(_shifted(x1, v1), _shifted(x2, v2)), p_const(GRat(1)))
            a = p_mul_raw(g, _shifted(x1, -2))
            b = p_mul_raw(g, _shifted(x1, -3))
            assert not _coprime_certified(a, b)
            assert p_gcd(a, b) == p_canonical(g)

    def test_structured_leading_coefficient_is_certified(self):
        # a kernel-stream pair: a's x2-coefficient contains x1^2 - a*x3,
        # which vanishes at any point whose values are in arithmetic
        # progression in the atoms' order a, x1, x2, x3
        with kernel_scope:
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


_plain_term = st.tuples(_coeff, st.tuples(*(st.integers(0, 2) for _ in range(3))))
# Gaussian-integer polynomials in x1, x2, a (no root atom)
plain_polys = st.lists(_plain_term, min_size=1, max_size=4).filter(_nonzero)


class TestGaussianContent:
    """rf_canon removes the Gaussian-integer content, not only the rational
    one, and picks one associate among the four unit multiples, so a gcd
    the PRS leaves with a constant such as 1 - i still gives the canonical
    form."""

    def test_prs_decided_pair(self):
        # the gcd x3 + 1 is decided by the PRS; the parts used to keep a
        # common factor 1 + i
        e = parse_sexpr("(* (+ (* x2 x3) x2 (* i x3) i) (^ (+ (* x2 x3) x2 x3 1) -1))")
        same = parse_sexpr("(* (+ x2 i) (^ (+ x2 1) -1))")
        assert to_sexpr(normalize(e)) == "(* (+ x2 i) (^ (+ x2 1) -1))"
        assert normalize(e) == normalize(same)

    def test_unit_multiples_share_one_form(self):
        # the denominator's lead coefficient 3*i and 3 are associates; the
        # unit used to leave 3*i alone, as its real part is 0
        e = parse_sexpr("(* x2 (^ (+ (* (gauss 0 3) x1 x2) a) -1))")
        same = parse_sexpr("(* (gauss 0 -1) x2 (^ (+ (* 3 x1 x2) (* (gauss 0 -1) a)) -1))")
        assert normalize(e) == normalize(same)
        assert to_sexpr(normalize(e)) == to_sexpr(same)

    @settings(max_examples=100, deadline=None)
    @given(plain_polys, plain_polys, plain_polys)
    def test_common_factor_cancels(self, p, q, g):
        # P*G and Q*G enter expanded, so the PRS has to find G
        with kernel_scope:
            p, q, g = _poly(p), _poly(q), _poly(g)
            assume(not p_is_const(g))
            P, Q, PG, QG = (ratform._poly_expr(f)
                            for f in (p, q, p_mul_raw(p, g), p_mul_raw(q, g)))
            assert normalize(PG / QG) == normalize(P / Q)


# -- packed monomials against dicts of exponents --------------------------------

LIMIT = ratform._LIMIT
# the monomials' atoms are interned among forty others in a drawn order, so
# most of them sit in fields past the fortieth
_OTHERS = tuple(param(f"p{k}") for k in range(40))
_USED = (x1, x2, param("a"), param("b"), exp(x3))
_exponent = st.integers(1, 3) | st.integers(LIMIT - 3, LIMIT - 1)
_monos = st.dictionaries(st.integers(0, len(_USED) - 1), _exponent, max_size=4)
_orders = st.permutations(_OTHERS + _USED)


def _pack(exps: dict) -> int:
    """The monomial of {index in _USED: exponent}, from p_atom's fields."""
    return sum(e * next(iter(p_atom(_USED[k]))) for k, e in exps.items() if e)


def _ref_key(exps: dict):
    """Graded lex over the atoms' s-expression texts, largest text first."""
    return (sum(exps.values()),
            tuple(sorted(((to_sexpr(_USED[k]), e) for k, e in exps.items() if e), reverse=True)))


class TestPackedMonomials:
    @settings(max_examples=200, deadline=None)
    @given(_orders, _monos, _monos)
    def test_monomial_operations_match_exponent_dicts(self, order, a, b):
        with kernel_scope:
            for atom in order:
                p_atom(atom)
            pa, pb = _pack(a), _pack(b)
            total = {k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}
            if max(total.values(), default=0) >= LIMIT:
                with pytest.raises(ExprError, match="exponent too large"):
                    m_mul(pa, pb)
            else:
                assert m_mul(pa, pb) == _pack(total)
            divides = all(e <= b.get(k, 0) for k, e in a.items())
            assert m_divides(pa, pb) == divides
            if divides:
                assert m_div(pb, pa) == _pack({k: e - a.get(k, 0) for k, e in b.items()})
            assert m_gcd(pa, pb) == _pack({k: min(e, b.get(k, 0)) for k, e in a.items()})
            assert m_key(pa) == _ref_key(a) and m_key(pb) == _ref_key(b)
            support = p_atoms({pa: GRat(1), pb: GRat(2)})
            assert {k for k in range(len(_USED)) if support & _pack({k: LIMIT - 1})} \
                == a.keys() | b.keys()

    @settings(max_examples=100, deadline=None)
    @given(_orders, st.lists(st.tuples(st.integers(-3, 3).filter(bool), st.integers(0, 7),
                                       st.integers(0, 2), st.sampled_from([0, LIMIT - 1])),
                             min_size=1, max_size=4))
    def test_root_reduction_matches_exponent_dicts(self, order, terms):
        # r = (x1 + 2)^(1/3), interned after the other 45 atoms; a term
        # c * r^e * x2^d * a^g reduces to c * (x1 + 2)^(e // 3) * r^(e % 3) * ...
        from math import comb

        want: dict = {}
        for c, e, d, g in terms:
            k, rest = divmod(e, 3)
            for j in range(k + 1):
                key = (j, rest, d, g)
                want[key] = want.get(key, 0) + c * comb(k, j) * 2 ** (k - j)
        with kernel_scope:
            for atom in order:
                p_atom(atom)
            (r,) = to_rf(parse_sexpr("(^ (+ x1 2) 1/3)")).num
            assert r.bit_length() > 45 * ratform._W
            poly: dict = {}
            for c, e, d, g in terms:
                poly = p_add(poly, {e * r + _pack({1: d, 2: g}): GRat(c)})
            reduced = {j * next(iter(p_atom(x1))) + rest * r + _pack({1: d, 2: g}): GRat(c)
                       for (j, rest, d, g), c in want.items() if c}
            assert _p_reduce(poly) == reduced

    def test_exponent_limit(self):
        with kernel_scope:
            assert to_sexpr(normalize(parse_sexpr(f"(^ x1 {LIMIT - 1})"))) == f"(^ x1 {LIMIT - 1})"
            for text in (f"(^ x1 {LIMIT})", f"(* (^ x1 {LIMIT - 1}) x1)",
                         f"(^ (* x2 a) {-LIMIT})", f"(^ x1 {2 * LIMIT - 1}/{2 * LIMIT})"):
                with pytest.raises(ExprError, match="exponent too large"):
                    normalize(parse_sexpr(text))



_DIFF_ATOMS = (x1, x2, x3, param("a"))
_diff_terms = st.lists(st.tuples(_coeff, st.tuples(*(st.integers(0, 3) for _ in _DIFF_ATOMS))),
                       max_size=5)


@settings(max_examples=150, deadline=None)
@given(_diff_terms, st.lists(st.sampled_from(_DIFF_ATOMS), unique=True),
       st.sampled_from(_DIFF_ATOMS))
def test_p_diff_matches_expr_diff(terms, interned, atom):
    # fields given in a drawn order, before or after the polynomial's own;
    # an atom with no field at all differentiates to zero
    e = add(*(mul(Num(GRat(*c)), *(pow_(a, k) for a, k in zip(_DIFF_ATOMS, exps) if k))
              for c, exps in terms))
    with kernel_scope:
        for a in interned:
            p_atom(a)
        rf, want = to_rf(e), to_rf(diff_wrt(e, atom))
        assert rf.den == () and want.den == ()
        assert p_diff(rf.num, atom) == want.num


_A = param("a")
_F = AbstractFn("F", 2)
# atoms that depend on x1..x3 or a: roots, elementary and abstract functions,
# nested ones too
_RF_DIFF_ATOMS = (
    sqrt(x1**2 + 1), sqrt(x2 + _A), sin(x1 * x2), exp(x3 + _A), ln(x1**2 + x2**2 + 1),
    arctan(x1 - x3), exp(sqrt(x2 + _A)), _F(x1, x2 * x3), _F.d(1)(x1 + _A, x3),
)
def _power(pair):
    base, n = pair
    return base if base == NUM_ZERO else pow_(base, n)


_rf_diff_leaves = st.one_of(st.sampled_from(_RF_DIFF_ATOMS + _DIFF_ATOMS),
                            st.integers(-2, 3).map(Num))
_rf_diff_exprs = st.recursive(
    _rf_diff_leaves,
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda t: add(*t)),
        st.tuples(kids, kids).map(lambda t: mul(*t)),
        st.tuples(kids, st.sampled_from((-2, -1, 2))).map(_power)),
    max_leaves=6)


@settings(max_examples=150, deadline=timedelta(seconds=10))
@given(_rf_diff_exprs, st.sampled_from(_DIFF_ATOMS))
def test_rf_diff_matches_the_expr_derivative(e, v):
    # the quotient rule, p_diff on v's own field and the chain rule through
    # every other atom, against diff_wrt on the tree and then normalize
    try:
        normalize(e)
        want = normalize(diff_wrt(e, v))
    except ExprError:
        assume(False)
    with kernel_scope:
        assert rf_to_expr(rf_canon(rf_diff(to_rf(e), v))) == want


@settings(max_examples=150, deadline=timedelta(seconds=10))
@given(_rf_diff_exprs, _rf_diff_exprs)
def test_is_provably_zero_agrees_with_normalize(e, f):
    # the reduced numerator decides zero as the canonical form does: on e,
    # on e - f, and on e minus its own canonical form, which is zero
    try:
        cases = [e, add(e, mul(-1, f)), add(e, mul(-1, normalize(e)))]
        wants = [normalize(d) == NUM_ZERO for d in cases]
    except ExprError:
        assume(False)
    assert wants[2]
    assert [is_provably_zero(d) for d in cases] == wants


# -- products against the factor-by-factor reference ----------------------------


def _product_reference(e: Mul) -> RF:
    """A product's form as each factor's own to_rf, multiplied in one factor
    at a time by rf_mul: the reference for to_rf, which folds a run of
    numbers and atom powers into one term."""
    out = RF_ONE
    for f in e.factors:
        out = rf_mul(out, to_rf(f))
        if out.is_zero():
            return RF_ZERO
    return out


def _product_outcome(convert, e: Mul):
    """(numerator, denominator, atom texts in field order) of convert(e) in
    a fresh scope, or its ExprError's message and the atoms registered by
    then.  A form is valid only in the scope that made it, and two scopes
    that register the same atoms in the same order give their forms the
    same fields, so outcomes of two scopes compare as values."""
    with kernel_scope:
        try:
            rf = convert(e)
        except ExprError as err:
            got = str(err)
        else:
            got = (rf.num, rf.den)
        return got, [text for text, _ in ratform._ATOMS.values()]


_PRODUCT_ATOMS = (x1, x2, x3, _A)
_gaussian = st.builds(lambda a, b, d: Num(GRat(Fraction(a, d), Fraction(b, d))),
                      st.integers(-4, 4), st.integers(-2, 2), st.integers(1, 3))
_sums = st.sampled_from((x1 + 1, x2 - x3, x1 - x1, 2 * x1 + _A, x1 * x2 - _A + 3))
_roots = st.sampled_from((sqrt(x1**2 + 1), sqrt(x2 + _A)))
_product_bases = st.one_of(_gaussian, st.sampled_from(_PRODUCT_ATOMS), _sums, _roots,
                           st.just(exp(x3)))
_product_factors = st.one_of(
    _product_bases,
    st.tuples(st.sampled_from(_PRODUCT_ATOMS),
              st.sampled_from((-2, -1, 2, 3, LIMIT // 2, LIMIT - 1))).map(_power),
    st.tuples(_product_bases, st.sampled_from((-2, -1, 2))).map(_power),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_product_factors, min_size=1, max_size=6))
def test_products_match_the_factor_by_factor_reference(factors):
    # Mul, not mul: numbers stay where they were drawn, zero among them
    e = Mul(tuple(factors))
    assert _product_outcome(to_rf, e) == _product_outcome(_product_reference, e)
    with kernel_scope:
        try:
            rf = to_rf(e)
        except ExprError:
            return
        ref = _product_reference(e)
        assert rf.num == ref.num and rf.den == ref.den


class TestProductFold:
    def test_exponent_limit_across_three_factors(self):
        # 2^30 + (2^30 - 1) fits a field; the third factor's 1 does not
        e = parse_sexpr(f"(* (^ x1 {LIMIT // 2}) (^ x1 {LIMIT // 2 - 1}) x1)")
        assert len(e.factors) == 3
        with kernel_scope:
            with pytest.raises(ExprError, match="exponent too large"):
                to_rf(e)
            with pytest.raises(ExprError, match="exponent too large"):
                _product_reference(e)
            rf = to_rf(parse_sexpr(f"(* (^ x1 {LIMIT // 2}) (^ x1 {LIMIT // 2 - 1}) x2)"))
            assert rf.num == {((LIMIT - 1) << _shift(x1)) + (1 << _shift(x2)): GRat(1)}

    def test_first_fault_is_the_one_reported(self):
        # the zero denominator comes first, the exponent past the limit last
        e = parse_sexpr(f"(* (^ (+ x1 (* -1 x1)) -1) (^ x1 {LIMIT - 1}) x1)")
        with pytest.raises(ExprError, match="^division by zero in normalization$"):
            normalize(e)

    def test_overflow_raises_before_later_atoms_register(self):
        # (x1 + 1) x1^(2^31 - 1) passes the limit at the second factor, as
        # one factor at a time, so x2 and x3 get no field
        e = parse_sexpr(f"(* (+ x1 1) (^ x1 {LIMIT - 1}) x2 x3)")
        assert _product_outcome(to_rf, e) == _product_outcome(_product_reference, e)
        with kernel_scope:
            with pytest.raises(ExprError, match="exponent too large"):
                to_rf(e)
            assert [text for text, _ in ratform._ATOMS.values()] == ["x1"]


# -- sums against the term-by-term reference ------------------------------------


def _sum_reference(e: Add) -> RF:
    """A sum's form as each term's own to_rf, added in one term at a time by
    rf_add: the reference for to_rf, which adds a run of terms over one
    denominator into one numerator in place."""
    out = RF_ZERO
    for t in e.terms:
        out = rf_add(out, to_rf(t))
    return out


def _sum_outcome(convert, e: Add):
    """_product_outcome's, with the key order of the numerator and of each
    denominator factor, and is_zero()."""
    with kernel_scope:
        try:
            rf = convert(e)
        except ExprError as err:
            got = str(err)
        else:
            got = (list(rf.num.items()), [(list(f.items()), k) for f, k in rf.den],
                   rf.is_zero())
        return got, [text for text, _ in ratform._ATOMS.values()]


def _cancelling(t: Expr) -> Add:
    """t - t, as a sum that to_rf adds up to zero over t's denominator."""
    return Add((t, mul(-1, t)))


_SUM_ATOMS = _PRODUCT_ATOMS + (sqrt(x1**2 + 1), exp(x3))
_SUM_DENS = (x2, x2 + 1, x1 * x3 - _A, sqrt(x1**2 + 1) + x3)
_over = st.tuples(st.lists(st.one_of(_gaussian, st.sampled_from(_SUM_ATOMS)),
                           min_size=1, max_size=3),
                  st.sampled_from(_SUM_DENS)).map(lambda t: mul(*t[0], pow_(t[1], -1)))
_sum_terms = st.one_of(
    _gaussian,
    st.sampled_from(_SUM_ATOMS),
    st.tuples(st.sampled_from(_PRODUCT_ATOMS), st.sampled_from((-1, 2, 3))).map(_power),
    _over,
    _over.map(_cancelling),
    st.just(pow_(x1 - x1, -1)),  # a zero denominator
)
_zero_sums = st.lists(st.one_of(st.just(NUM_ZERO), _over.map(_cancelling),
                                _sum_terms.map(_cancelling)),
                      min_size=1, max_size=4).map(lambda ts: Add(tuple(ts)))


@st.composite
def _sums(draw):
    terms = draw(st.lists(_sum_terms, min_size=1, max_size=7))
    if draw(st.booleans()):
        # a pair that cancels, at the start (so the sum so far is zero
        # midway) or further in
        t = draw(_sum_terms)
        k = draw(st.integers(0, len(terms)))
        terms[k:k] = [t, mul(-1, t)]
    return Add(tuple(terms))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_sums(), _zero_sums))
def test_sums_match_the_term_by_term_reference(e):
    # Add, not add: terms stay as drawn, numbers and zeros among them
    assert _sum_outcome(to_rf, e) == _sum_outcome(_sum_reference, e)


def test_a_sum_that_is_zero_midway():
    # x1/x2 - x1/x2 is zero over x2; the next term takes its place, with its
    # own denominator, and 1 then joins over x2
    e = parse_sexpr("(+ (* x1 (^ x2 -1)) (* -1 x1 (^ x2 -1)) (* x3 (^ x2 -1)) 1)")
    assert _sum_outcome(to_rf, e) == _sum_outcome(_sum_reference, e)
    with kernel_scope:
        rf = to_rf(e)
        assert list(rf.num.items()) == [(1 << _shift(x3), GRat(1)), (1 << _shift(x2), GRat(1))]
        assert rf.den == (({1 << _shift(x2): GRat(1)}, 1),)
        zero = to_rf(Add(e.terms[:2]))
        assert zero.is_zero() and zero.den == rf.den


# -- exact division against the heap-only reference -----------------------------


def _divexact_reference(a: dict, b: dict):
    """Exact division a / b by the heap alone, with no test of the atoms'
    support first: the reference for p_divexact."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return P_ZERO
    if len(b) == 1:
        (mb, cb), = b.items()
        if all(m_divides(mb, m) for m in a):
            return {m_div(m, mb): c / cb for m, c in a.items()}
        return None
    lb_m, lb_c = p_lead(b)
    q: dict = {}
    r = dict(a)
    heap = [(_NegKey(m_key(m)), m) for m in r]
    heapq.heapify(heap)
    while r:
        while heap:
            _, la_m = heap[0]
            if la_m in r:
                break
            heapq.heappop(heap)
        la_c = r[la_m]
        if not m_divides(lb_m, la_m):
            return None
        qm = m_div(la_m, lb_m)
        qc = la_c / lb_c
        q[qm] = q.get(qm, ZERO) + qc
        for mb2, cb2 in b.items():
            m = m_mul(qm, mb2)
            s = r.get(m)
            if s is None:
                r[m] = -(qc * cb2)
                heapq.heappush(heap, (_NegKey(m_key(m)), m))
            else:
                s = s - qc * cb2
                if s.is_zero():
                    del r[m]
                else:
                    r[m] = s
    return q


# x1..x3, a parameter and a cube root, whose exponents stay at most 1 in
# each drawn polynomial, so that a product of two reduces nothing
_DIV_ROOT = pow_(x1 + 2, Fraction(1, 3))
_DIV_ATOMS = (x1, x2, x3, _A, _DIV_ROOT)
_div_exps = st.tuples(*(st.integers(0, 2) for _ in range(4)), st.integers(0, 1))
_div_terms = st.lists(st.tuples(_coeff, _div_exps), min_size=1, max_size=4)


@st.composite
def _division_cases(draw):
    """(a terms, b terms, q terms or None): a / b, or (q*b + a) / b when q
    is drawn.  b may hold an atom that a lacks, and a may be 0 or a
    constant."""
    kind = draw(st.sampled_from(("any", "foreign", "small", "product")))
    b = draw(_div_terms)
    a = draw(_div_terms)
    q = None
    if kind == "foreign":
        # every term of a lacks atom z; a term of b holds it
        z = draw(st.integers(0, len(_DIV_ATOMS) - 1))
        a = [(c, tuple(0 if k == z else e for k, e in enumerate(exps))) for c, exps in a]
        exps = list(draw(_div_exps))
        exps[z] = 1
        b = b + [(draw(_coeff), tuple(exps))]
    elif kind == "small":
        a = draw(st.sampled_from(([], [(draw(_coeff), (0,) * len(_DIV_ATOMS))])))
    elif kind == "product":
        q = draw(_div_terms)
        a = draw(st.sampled_from(([], a[:1])))  # q*b exactly, or plus a term
    assume(_nonzero(b))
    return a, b, q


@settings(max_examples=300, deadline=None)
@given(_division_cases())
def test_exact_division_matches_the_heap_reference(case):
    a_terms, b_terms, q_terms = case
    with kernel_scope:
        to_rf(_DIV_ROOT)  # a root atom: p_mul reduces its powers
        b = _poly(b_terms, _DIV_ATOMS)
        a = _poly(a_terms, _DIV_ATOMS)
        if q_terms is not None:
            q = _poly(q_terms, _DIV_ATOMS)
            qb = p_mul(q, b)
            assert p_divexact(qb, b) == q
            a = p_add(qb, a)
        got, want = p_divexact(a, b), _divexact_reference(a, b)
        assert (got is None) is (want is None)
        if got is not None:
            assert list(got.items()) == list(want.items())


def test_division_by_an_atom_the_dividend_lacks_is_refused():
    with kernel_scope:
        a = _poly([((1, 0), (2, 0, 0, 0, 0)), ((3, 0), (0, 1, 0, 0, 0))], _DIV_ATOMS)
        b = _poly([((1, 0), (1, 0, 0, 0, 0)), ((1, 0), (0, 0, 1, 0, 0))], _DIV_ATOMS)
        assert p_divexact(a, b) is None and _divexact_reference(a, b) is None
        assert p_divexact(p_mul(a, b), b) == a
        assert p_divexact({M_ONE: GRat(5)}, b) is None


def test_a_common_atom_power_stays_out_of_the_division_loop():
    # x2^10000 (2 x1 + a) / (x2 + a) refutes on the cofactor 2 x1 + a; a
    # loop over the whole dividend steps x2's exponent down one unit at a
    # time, 2^30 steps and their memory for the largest power a field holds
    with kernel_scope:
        a = to_rf(pow_(x2, 10_000) * (2 * x1 + _A)).num
        b = to_rf(x2 + _A).num
        with mock.patch.object(ratform, "m_key", wraps=m_key) as key:
            assert p_divexact(a, b) is None
            assert p_divexact(p_mul(a, b), b) == a
            assert p_divexact(a, p_mul(b, p_atom(x2, 10_001))) is None
        assert key.call_count < 50


# -- the kernel scope ----------------------------------------------------------


def _memo_sizes() -> dict:
    sizes = {name: len(getattr(ratform, name))
             for name in ("_NORM_CACHE", "_RF_CACHE", "_MKEY", "_MFACTORS", "_POINTS",
                          "_ROOT_BASE", "_DIFF", "_SHIFT", "_ATOMS")}
    sizes["_GUARDS"] = ratform._GUARDS.bit_count()
    return sizes


def _factor_text(rng: random.Random, atom: str) -> str:
    terms = [atom] if rng.random() < 0.3 else []
    for _ in range(rng.randint(2, 3)):
        names = rng.sample(("x1", "x2", "x3", "a", "b"), rng.randint(1, 2))
        terms.append("(* " + " ".join([str(rng.randint(2, 9))] + names) + ")")
    return "(+ " + " ".join(terms) + " 1)"


def _stream(count: int):
    """(kind, text): normalize P*Q/R, or is_zero of P*Q/R - Q*P/R, over x1,
    x2, x3, a, b with a square-root or an exp atom now and then."""
    rng = random.Random(20261018)
    for n in range(count):
        P = _factor_text(rng, "(sqrt (+ (^ x1 2) 1))")
        Q = _factor_text(rng, "(exp x2)")
        R = _factor_text(rng, "x3")
        inv_r = f"(^ {R} -1)"
        if n % 2:
            yield "zero", f"(+ (* {P} {Q} {inv_r}) (* -1 {Q} {P} {inv_r}))"
        else:
            yield "canon", f"(* {P} {Q} {inv_r})"


class _Stop(BaseException):
    pass


class TestKernelScope:
    """The memo dicts live for one outermost kernel call."""

    def test_each_call_outside_a_scope_leaves_the_memo_empty(self):
        for kind, text in _stream(300):
            e = parse_sexpr(text)
            if kind == "zero":
                assert is_zero(e, label=text) == ProvedZero()
            else:
                assert normalize(e) != NUM_ZERO
            assert kernel_scope.depth == 0
            assert not any(_memo_sizes().values()), (text, _memo_sizes())

    def test_a_repeated_call_in_one_scope_hits_the_memo(self, monkeypatch):
        e = parse_sexpr(next(text for _, text in _stream(1)))
        with kernel_scope:
            out = normalize(e)
            sizes = _memo_sizes()
            assert sizes["_RF_CACHE"] and sizes["_NORM_CACHE"]

            def no_conversion(node):
                raise AssertionError("a memoized form was converted again")

            monkeypatch.setattr(ratform, "_to_rf", no_conversion)
            assert normalize(e) is out
            assert ratform.raw_form(e)[0] is False
            assert _memo_sizes() == sizes
        assert not any(_memo_sizes().values())

    def test_an_interrupt_mid_conversion_leaves_no_state(self, monkeypatch):
        text = "(* (+ (sqrt (+ (^ x1 2) 1)) (* 3 a x2) 1) (^ (+ (* 2 x3 b) (exp x2) 1) -1))"
        want = to_sexpr(normalize(parse_sexpr(text)))
        convert = ratform._to_rf
        calls = []

        def interrupted(node):
            calls.append(node)
            if len(calls) == 12:
                raise _Stop()
            return convert(node)

        monkeypatch.setattr(ratform, "_to_rf", interrupted)
        with pytest.raises(_Stop):
            with kernel_scope:
                normalize(parse_sexpr(text))
        assert len(calls) == 12
        assert kernel_scope.depth == 0
        assert not any(_memo_sizes().values())
        monkeypatch.setattr(ratform, "_to_rf", convert)
        assert to_sexpr(normalize(parse_sexpr(text))) == want
