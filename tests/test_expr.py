"""Expression kernel: construction, differentiation, normalization,
serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pdmlab.symkernel import (
    AbstractFn,
    arctan,
    diff,
    evaluate,
    exp,
    instantiate,
    is_provably_zero,
    ln,
    normalize,
    num,
    param,
    parse_sexpr,
    pow_,
    sin,
    sqrt,
    subst,
    to_sexpr,
    x1,
    x2,
    x3,
)
from pdmlab.symkernel.expr import NUM_ZERO

R2 = x1**2 + x2**2 + x3**2
RT = sqrt(x1**2 + x2**2)


class TestDiff:
    def test_polynomial_rule(self):
        assert normalize(diff(x1**2, 1)) == normalize(2 * x1)

    def test_arctan_quotient(self):
        # d/dx1 arctan(x2/x1) = -x2/(x1^2+x2^2)
        got = diff(arctan(x2 / x1), 1)
        assert is_provably_zero(got + x2 / (x1**2 + x2**2))

    def test_abstract_chain_rule(self):
        F = AbstractFn("F", 1)
        e = F((R2 - 1) / x1)
        got = diff(e, 2)
        want = F.d(1)((R2 - 1) / x1) * (2 * x2 / x1)
        assert is_provably_zero(got - want)

    def test_mixed_partials_commute(self):
        F = AbstractFn("F", 2)
        exprs = [
            (R2 - 1) ** 3 / (x1 * x3),
            sin(x1 * x2) * exp(x3),
            RT * F(x2 / x1, R2),
        ]
        for e in exprs:
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    assert is_provably_zero(diff(diff(e, a), b) - diff(diff(e, b), a))

    def test_param_is_constant(self):
        assert diff(param("mu"), 1) == NUM_ZERO

    def test_sqrt_power_rule(self):
        # d/dx1 sqrt(x1^2+x2^2) = x1/rt
        assert is_provably_zero(diff(RT, 1) - x1 / RT)


class TestNormalize:
    def test_ring_identity(self):
        assert normalize(x1 * x2 - x2 * x1) == NUM_ZERO

    def test_expansion_identity(self):
        assert normalize((R2 - 1) ** 2 - (R2**2 - 2 * R2 + 1)) == NUM_ZERO

    def test_sa_definition(self):
        s3 = 2 * x3**2 - R2
        assert normalize(2 * x3**2 - R2 - s3) == NUM_ZERO

    def test_idempotent(self):
        samples = [
            (R2 - 1) ** 2 / (x1 * RT),
            arctan((R2 - 1) / (2 * x3)) * RT**3,
            AbstractFn("F", 1)((R2 + 1) / RT) * RT**2,
            x1 / (x1 + x2) + x2 / (x1 - x2),
        ]
        for e in samples:
            n1 = normalize(e)
            assert normalize(n1) == n1

    def test_equal_rational_functions_identical_trees(self):
        a = (x1**2 - x2**2) / (x1 - x2)
        b = x1 + x2
        assert normalize(a) == normalize(b)

    def test_root_reduction(self):
        assert normalize(RT * RT - (x1**2 + x2**2)) == NUM_ZERO
        assert normalize(RT**4) == normalize((x1**2 + x2**2) ** 2)

    def test_rationalized_denominator(self):
        # 1/rt and rt/(x1^2+x2^2) must agree structurally
        assert normalize(1 / RT) == normalize(RT / (x1**2 + x2**2))

    def test_mixed_derivative_order_same_node(self):
        F = AbstractFn("F", 2)
        a = F.d(1).d(2)(x1, x2)
        b = F.d(2).d(1)(x1, x2)
        assert a == b

    def test_gaussian_coefficients(self):
        i = num(0, 1)
        assert normalize(i * i + 1) == NUM_ZERO
        assert normalize((x1 + i * x2) * (x1 - i * x2) - (x1**2 + x2**2)) == NUM_ZERO


class TestEval:
    def test_annihilating_factor(self):
        mu = param("mu")
        assert evaluate(mu * (R2 - 1) ** 2, (1, 0, 0), {"mu": 1.0}) == 0

    def test_table_value(self):
        mu, nu = param("mu"), param("nu")
        assert evaluate(6 * mu * R2 + nu, (0, 0, 0), {"mu": 3.0, "nu": 2.0}) == 2

    def test_cylinder_radius(self):
        assert evaluate(x1**2 + x2**2, (3, 4, 12)) == 25

    def test_congruence_with_normalize(self):
        e1 = (x1 + 1) ** 2
        e2 = x1**2 + 2 * x1 + 1
        assert is_provably_zero(e1 - e2)
        for p in [(0.1, 0.2, 0.3), (1.5, -0.7, 0.9)]:
            assert evaluate(e1, p) == evaluate(e2, p)

    def test_diff_matches_finite_differences(self):
        e = exp(x1 * x2) + arctan(x3 / x1) + RT
        pt = (0.7, 1.3, -0.9)
        h = 1e-5
        for a in (1, 2, 3):
            lo = list(pt)
            hi = list(pt)
            lo[a - 1] -= h
            hi[a - 1] += h
            fd = (evaluate(e, hi) - evaluate(e, lo)) / (2 * h)
            ex = evaluate(diff(e, a), pt)
            assert abs(fd - ex) <= 1e-6 * max(1.0, abs(ex))


class TestSexpr:
    def test_round_trip_examples(self):
        F = AbstractFn("F", 2)
        samples = [
            x1,
            param("mu"),
            num(3, -2),
            (R2 - 1) / RT,
            arctan(x2 / x1),
            ln(RT) * param("alpha"),
            F.d(1).d(2)(x2 / x1, R2),
            pow_(x1 + 1, Fraction(-3, 2)),
        ]
        for e in samples:
            assert parse_sexpr(to_sexpr(e)) == e

    def test_parse_errors(self):
        from pdmlab.symkernel import ParseError

        for bad in ["", "(", "(+)", "(foo)", "(^ x1 x2)", "x4", "(D3 (F x1))"]:
            with pytest.raises(ParseError):
                parse_sexpr(bad)

    def test_derivative_wrapper(self):
        e = parse_sexpr("(D1 (D2 (F x1 x2)))")
        assert e == AbstractFn("F", 2).d(2).d(1)(x1, x2)

    def test_deep_nesting_raises_kernel_errors(self):
        from pdmlab.symkernel import ExprError, ParseError

        with pytest.raises(ParseError):
            parse_sexpr("(+ 1 " * 1000 + "x1" + ")" * 1000)
        deep_exp = parse_sexpr("(exp " * 600 + "x1" + ")" * 600)
        with pytest.raises(ExprError):
            normalize(deep_exp)
        for _ in range(2400):
            deep_exp = exp(deep_exp)
        with pytest.raises(ExprError):
            to_sexpr(deep_exp)


class TestSubstInstantiate:
    def test_shift_substitution(self):
        F = AbstractFn("F", 1)
        e = F(x3) + x3**2
        out = subst(e, {x3: x3 + 1})
        assert is_provably_zero(out - (F(x3 + 1) + (x3 + 1) ** 2))

    def test_instantiate_derivatives(self):
        F = AbstractFn("F", 1)
        s = param("_s1")
        # F := s^3, so F'(u) = 3u^2
        e = F.d(1)(x1 * x2)
        out = instantiate(e, {"F": ((s,), s**3)})
        assert is_provably_zero(out - 3 * (x1 * x2) ** 2)


@st.composite
def rational_exprs(draw, depth=3):
    if depth == 0:
        leaf = draw(st.integers(0, 3))
        if leaf == 0:
            return draw(st.sampled_from([x1, x2, x3]))
        if leaf == 1:
            return param(draw(st.sampled_from(["mu", "nu", "alpha"])))
        return num(draw(st.integers(-4, 4)), draw(st.integers(-2, 2)))
    op = draw(st.integers(0, 3))
    if op == 0:
        return draw(rational_exprs(depth=depth - 1)) + draw(rational_exprs(depth=depth - 1))
    if op == 1:
        return draw(rational_exprs(depth=depth - 1)) * draw(rational_exprs(depth=depth - 1))
    if op == 2:
        return pow_(draw(rational_exprs(depth=depth - 1)), draw(st.integers(1, 3)))
    return draw(rational_exprs(depth=depth - 1)) - draw(rational_exprs(depth=depth - 1))


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(rational_exprs(), st.integers(-5, 5), st.integers(-5, 5))
    def test_diff_linearity(self, e, a, b):
        other = x1**2 * x2
        lhs = diff(a * e + b * other, 1)
        rhs = a * diff(e, 1) + b * diff(other, 1)
        assert is_provably_zero(lhs - rhs)

    @settings(max_examples=40, deadline=None)
    @given(rational_exprs())
    def test_normalize_idempotent(self, e):
        n1 = normalize(e)
        assert normalize(n1) == n1

    @settings(max_examples=40, deadline=None)
    @given(rational_exprs(), rational_exprs())
    def test_product_rule(self, e1, e2):
        lhs = diff(e1 * e2, 2)
        rhs = diff(e1, 2) * e2 + e1 * diff(e2, 2)
        assert is_provably_zero(lhs - rhs)
