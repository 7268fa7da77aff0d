"""Expression kernel: construction, differentiation, normalization,
serialization."""

import importlib.util
import pathlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pdmlab.symkernel import (
    AbstractFn,
    ExprError,
    arctan,
    diff,
    evaluate,
    exp,
    instantiate,
    is_provably_zero,
    kernel_scope,
    ln,
    normalize,
    num,
    param,
    ParseError,
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
from pdmlab.symkernel.expr import NUM_ZERO, Add, Mul, Num, Pow, add, children, mul, walk
from pdmlab.symkernel.ratform import rf_to_expr, to_rf

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

    def test_cube_root_denominator_is_rejected_by_normalize(self):
        # the documented contract (docs/expr-grammar.md): the text parses,
        # but a root of order 3 in a denominator cannot be rationalized
        from pdmlab.symkernel import ExprError

        e = parse_sexpr("(^ (+ x1 (^ x2 1/3)) -1)")
        with pytest.raises(ExprError):
            normalize(e)


# Malformed texts and the exact ParseError each raises; the offset is the
# character position of the offending token.
PARSE_ERRORS = [
    ("", "empty input"),
    ("  \n ", "empty input"),
    (")", "unexpected ')' at offset 0"),
    ("(+ x1 ) )", "trailing input at offset 8"),
    ("(", "unterminated list"),
    ("()", "unterminated list"),
    ("(+ 1 (* x1 x2)", "unterminated list"),
    ("(+ 1 2) x1", "trailing input at offset 8"),
    ("x1 x2", "trailing input at offset 3"),
    ("(+ 1 #)", "bad atom '#' at offset 5"),
    ("(+ x1 2.5)", "bad atom '2.5' at offset 6"),
    ("1/0", "zero denominator in '1/0' at offset 0"),
    ("(+ (* x1 x2) (* x1 x2) 3/0)", "zero denominator in '3/0' at offset 23"),
    ("(+ 1 1/0", "zero denominator in '1/0' at offset 5"),
    ("x4", "'x4' is reserved for spatial variables"),
    ("(+)", "empty sum"),
    ("(*)", "empty product"),
    ("(^ x1)", "^ expects base and exponent"),
    ("(^ x1 2 3)", "^ expects base and exponent"),
    ("(^ x1 x2)", "^ expects a rational literal"),
    ("(^ x1 i)", "^ expects a rational literal"),
    ("(sqrt)", "sqrt expects one argument"),
    ("(sqrt x1 x2)", "sqrt expects one argument"),
    ("(gauss 1)", "gauss expects two rational literals"),
    ("(gauss 1 x1)", "gauss expects a rational literal"),
    ("(exp)", "exp expects one argument"),
    ("(ln x1 x2)", "ln expects one argument"),
    ("(arctan)", "arctan expects one argument"),
    ("(sin x1 x2)", "sin expects one argument"),
    ("(cos)", "cos expects one argument"),
    ("(F)", "abstract application F needs arguments"),
    ("(+ (F x1) (G))", "abstract application G needs arguments"),
    ("(D1 x1)", "D1 expects one abstract application at offset 1"),
    ("(+ 1 (D1 (F x1) (F x2)))", "D1 expects one abstract application at offset 6"),
    ("(D2 (F x1))", "derivative slot 2 out of range at offset 1"),
    ("(* (F x1 x2) (D3 (F x1 x2)))", "derivative slot 3 out of range at offset 14"),
    ("(1 2)", "unknown head '1' at offset 1"),
    ("(( x1) x2)", "unknown head '(' at offset 1"),
    ("(+ 1 (sqrt x1) (x2 3))", "unknown head 'x2' at offset 16"),
    # DIGITS are ASCII; Arabic-Indic ones are neither numbers nor in names
    ("(^ x1 \u0661/\u0662)", "bad atom '\u0661/\u0662' at offset 6"),
    ("(gauss \u0661 2)", "bad atom '\u0661' at offset 7"),
    ("(D\u0661 (F x1))", "unknown head 'D\u0661' at offset 1"),
    ("(+ x1 mu\u0661)", "bad atom 'mu\u0661' at offset 6"),
]


def _kernel_stream_generate():
    perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    sys.path.insert(0, str(perfbench))  # kernel_stream imports its sibling `speed`
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_kernel_stream", perfbench / "kernel_stream.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(perfbench))
    return module.generate


class TestParser:
    @pytest.mark.parametrize("text, message", PARSE_ERRORS)
    def test_error_text(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_sexpr(text)
        assert str(info.value) == message

    def test_equal_subtrees_are_one_object(self):
        e = parse_sexpr("(+ (* (sqrt (+ x1 1)) mu) (* (sqrt (+ x1 1)) mu) (exp (sqrt (+ x1 1))))")
        a, b, c = e.terms
        assert b is a
        assert c.arg is a.factors[0]
        # a list is one object per head and children, whatever its spacing
        e = parse_sexpr("(+ (* x1 (+ mu 1)) (*  x1\n (+ mu  1) ))")
        assert e.terms[1] is e.terms[0]
        # the memo ends with the call: a new parse builds new objects
        assert parse_sexpr("(sqrt (+ x1 1))") is not c.arg

    def test_kernel_stream_texts_round_trip(self):
        generate = _kernel_stream_generate()
        for seed in (271828, 7):
            for _, text in generate(seed, 0, 200):
                e = parse_sexpr(text)
                assert parse_sexpr(to_sexpr(e)) == e


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


# -- nodes: stored hashes, the lone number, zero to a negative power ------------


_MU = param("mu")
_G = AbstractFn("G", 2)
_node_leaves = st.one_of(
    st.sampled_from((x1, x2, x3, _MU, sqrt(x1 + 2), exp(x2))),
    st.builds(num, st.fractions(-3, 3, max_denominator=3), st.integers(-1, 1)))


def _quotient(pair):
    a, b = pair
    try:
        return a / b
    except ExprError:  # b is the number zero
        return a


_node_exprs = st.recursive(
    _node_leaves,
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda t: t[0] + t[1]),
        st.tuples(kids, kids).map(lambda t: t[0] * t[1]),
        st.tuples(kids, kids).map(lambda t: t[0] - t[1]),
        st.tuples(kids, kids).map(_quotient),
        st.tuples(kids, st.sampled_from((2, 3))).map(lambda t: t[0] ** t[1]),
        kids.map(sin),
        st.tuples(kids, kids).map(lambda t: _G(*t))),
    max_leaves=7)


@settings(max_examples=200, deadline=None)
@given(_node_exprs)
def test_equal_nodes_hash_alike_whoever_built_them(e):
    # trees from the Python operators, from parse_sexpr and from a raw
    # normal form: two nodes are equal exactly when they are of one type
    # and print alike, and equal nodes hash alike and find each other as
    # dict keys
    parsed = parse_sexpr(to_sexpr(e))
    with kernel_scope:
        try:
            raw = rf_to_expr(to_rf(e))
        except ExprError:
            raw = NUM_ZERO
    nodes = [n for tree in (e, parsed, raw) for n in walk(tree)]
    texts = [to_sexpr(n) for n in nodes]
    keys = {}
    for n in nodes:
        keys.setdefault(n, n)
    for a, ta in zip(nodes, texts):
        assert keys[a] == a
        for b, tb in zip(nodes, texts):
            same = type(a) is type(b) and ta == tb
            assert (a == b) is same
            if same:
                assert hash(a) == hash(b)
        if isinstance(a, (Add, Mul)):
            # the same children under the other head: never equal, and
            # as a key it finds only a node of its own head and text (one
            # the trees really hold, as x1*x2 in the expansion of
            # x1*(x1 + x2))
            other = (Mul if isinstance(a, Add) else Add)(children(a))
            assert a != other
            found = keys.get(other)
            assert found is None or (type(found) is type(other)
                                     and to_sexpr(found) == to_sexpr(other))


class TestNodes:
    def test_a_lone_number_is_the_object_that_came_in(self):
        n = parse_sexpr("-3/2")
        assert mul(n, x1).factors[0] is n
        assert add(x1, n).terms[-1] is n
        # also one nested in a product or sum that is flattened
        p, s = parse_sexpr("(* 5 x2)"), parse_sexpr("(+ x2 5)")
        assert mul(x1, p).factors[0] is p.factors[0]
        assert add(s, x1).terms[-1] is s.terms[-1]
        # two numbers fold into a new one
        assert mul(n, p) == parse_sexpr("(* -15/2 x2)")
        assert add(n, s) == parse_sexpr("(+ x2 7/2)")

    def test_parse_builds_one_number_per_numeric_token(self, monkeypatch):
        built = []
        init = Num.__init__

        def counting(self, val):
            built.append(val)
            init(self, val)

        monkeypatch.setattr(Num, "__init__", counting)
        e = parse_sexpr("(+ (* -3 x1) (* -3 x2))")
        assert built == [-3]
        assert e.terms[0].factors[0] is e.terms[1].factors[0]

    def test_integral_exponents_build_no_fraction(self, monkeypatch):
        # parsing, the raw form and the normal form of integral powers, an
        # exponent written as 4/2 among them, keep their exponents ints
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        e = parse_sexpr("(* (^ x1 2) (^ (+ x2 1) -1) (^ x3 4/2) (gauss 3 -1))")
        with kernel_scope:
            rf_to_expr(to_rf(e))
        normalize(e)
        assert built == []  # the number token 4/2 reads as the int 2

    @pytest.mark.parametrize("text", ["(^ 0 -1)", "(* (^ 0 -2) x1)", "(^ 0 -1/2)"])
    def test_zero_to_a_negative_power_is_an_expr_error(self, text):
        # ExprError, never the ZeroDivisionError of GRat.inverse
        with pytest.raises(ExprError, match="^division by zero$"):
            parse_sexpr(text)

    def test_zero_to_a_negative_power_from_python(self):
        with pytest.raises(ExprError, match="^division by zero$"):
            num(0) ** -1
        with pytest.raises(ExprError, match="^division by zero$"):
            x1 / num(0)
        assert num(0) ** Fraction(1, 2) == NUM_ZERO
        assert pow_(num(0), 3) == NUM_ZERO


# -- exponent type: an int exactly when integral ---------------------------------


_EXP_BASES = (x1, _MU, sin(x2), x1 + 2, sqrt(x1 + 2), _G(x1, x3), num(2), num(9))


def _exponents_are_typed(tree):
    """Every Pow node of tree holds an int exponent exactly when it is
    integral, and a Fraction otherwise."""
    for n in walk(tree):
        if type(n) is Pow:
            q = n.exponent
            assert (type(q) is int) is (q.denominator == 1)
            assert type(q) in (int, Fraction)


def _same_node(nodes):
    """The nodes are equal, hash alike, are one dict key and print alike."""
    first = nodes[0]
    keys = {}
    for n in nodes:
        keys.setdefault(n, n)
    assert len(keys) == 1
    for n in nodes:
        assert n == first and hash(n) == hash(first)
        assert keys[n] is first
        assert to_sexpr(n) == to_sexpr(first)


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(_EXP_BASES), st.integers(-6, 6).filter(bool), st.integers(1, 3),
       st.integers(1, 3), st.sampled_from((None, -1, 2, 3)))
def test_integral_exponents_are_ints_whoever_built_them(base, p, q, scale, outer):
    # the literal p*scale/(q*scale) is unreduced; outer, when given, is an
    # integral power of the power, whose product exponent may be integral
    value = Fraction(p, q)
    plain = value.numerator if value.denominator == 1 else value
    literal = f"{p * scale}/{q * scale}"
    routes = [pow_(base, plain), pow_(base, Fraction(p * scale, q * scale)), base ** value,
              parse_sexpr(f"(^ {to_sexpr(base)} {literal})")]
    if outer is not None:
        routes = [pow_(r, outer) for r in routes[:2]] + [routes[2] ** outer] + [
            parse_sexpr(f"(^ (^ {to_sexpr(base)} {literal}) {outer})")]
    for r in routes:
        _exponents_are_typed(r)
    top = routes[0]
    if type(top) is Pow:
        # a node built around a Fraction exponent, past pow_, is the same node
        routes.append(Pow(top.base, Fraction(top.exponent)))
    _same_node(routes)
    with kernel_scope:
        try:
            raws = [rf_to_expr(to_rf(r)) for r in routes]
        except ExprError:
            return
        raws.append(parse_sexpr(to_sexpr(raws[0])))
        for r in raws:
            _exponents_are_typed(r)
        _same_node(raws)
