"""Zero-test tiers, sampling determinism and domain-error handling."""

import cmath
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pdmlab.symkernel import (
    EvalDomainError,
    Inconclusive,
    NonZero,
    NumericZero,
    ProvedZero,
    ZeroTestPolicy,
    arctan,
    cos,
    evaluate,
    exp,
    is_zero,
    ln,
    numeric_sample,
    param,
    sin,
    sqrt,
    x1,
    x2,
)
from pdmlab.symkernel import zerotest
from pdmlab.symkernel.expr import (
    NUM_ZERO,
    XVARS,
    AbsApp,
    Add,
    App,
    Mul,
    Num,
    Param,
    Pow,
    Var,
    walk,
)
from pdmlab.symkernel.scalars import GRat


class TestTiers:
    def test_proved_zero(self):
        assert isinstance(is_zero(x1 * x2 - x2 * x1), ProvedZero)
        assert isinstance(is_zero(NUM_ZERO), ProvedZero)

    def test_pythagorean_identity_is_numeric(self):
        c = param("c")
        st = is_zero(sin(c) ** 2 + cos(c) ** 2 - 1)
        assert isinstance(st, NumericZero)
        assert st.points_tested == 50
        assert st.max_residual < 1e-9

    def test_nonzero_with_witness(self):
        st = is_zero(x1)
        assert isinstance(st, NonZero)
        assert "point" in st.witness
        assert abs(st.value) > 0

    def test_arctan_sum_identity(self):
        # arctan(u) + arctan(1/u) = pi/2 for u>0: not a rational identity,
        # and not zero; the difference of both orientations is.
        u = x1**2 + 1
        e = arctan(u) - arctan(u)
        assert isinstance(is_zero(e), ProvedZero)

    def test_inconclusive_when_unevaluable(self):
        # ln of a negative-definite quantity is never evaluable
        e = ln(-(x1**2) - 1)
        st = is_zero(e)
        assert isinstance(st, Inconclusive)


def _row3_potential_residual():
    from pdmlab.catalog import entry
    from pdmlab.conformal import combo_column
    from pdmlab.diffop import PDMHamiltonian, reduced_determining

    row = entry(3)
    (combo,) = row.integrals
    return reduced_determining(PDMHamiltonian(row.f, row.V), combo_column(combo))[1]


class TestScreen:
    def test_nonzero_residual_needs_no_expansion(self, monkeypatch):
        # row 3's verbatim potential equation expands to ~192k nodes; the
        # compact tree alone shows it is nonzero
        residual = _row3_potential_residual()

        def no_expansion(e):
            raise AssertionError("raw_form called on a screened residual")

        monkeypatch.setattr(zerotest, "raw_form", no_expansion)
        st = is_zero(residual, label="entry3/M43+alpha*M21/de-V")
        assert isinstance(st, NonZero)
        assert abs(st.value) > 0

    def test_screen_witness_is_deterministic(self):
        residual = _row3_potential_residual()
        a = is_zero(residual, label="entry3/de-V")
        b = is_zero(residual, label="entry3/de-V")
        assert isinstance(a, NonZero)
        assert a.witness == b.witness
        assert a.value == b.value

    def test_screen_witness_comes_from_the_first_points(self):
        pol = ZeroTestPolicy()
        st = is_zero(x1, pol, "w")
        rng = pol.rng("w")
        firsts = [str(pol.sample_coord(rng)) for _ in range(3 * zerotest.SCREEN_POINTS)]
        assert st.witness["point"] in {tuple(firsts[3 * k:3 * k + 3])
                                       for k in range(zerotest.SCREEN_POINTS)}

    def test_planted_zero_with_sqrt_and_exp_atoms_is_proved(self):
        # P*Q/R - expand(Q*P)/R, with a sqrt atom in P and an exp atom in Q
        s, t = sqrt(x1**2 + 1), exp(x2)
        P = 3 * s * x2 - 2 * x1 + 1
        Q = t * x1 + 5 * x2**2
        R = x2**2 + 2
        QP = (3 * x1 * x2 * s * t - 2 * x1**2 * t + x1 * t
              + 15 * x2**3 * s - 10 * x1 * x2**2 + 5 * x2**2)
        assert isinstance(is_zero(P * Q / R - QP / R), ProvedZero)


class TestDeterminism:
    def test_same_seed_same_result(self):
        c = param("c")
        e = sin(c) ** 2 + cos(c) ** 2 - 1
        a = numeric_sample(e, label="x")
        b = numeric_sample(e, label="x")
        assert a == b

    def test_labels_split_streams(self):
        st1 = numeric_sample(x1, label="a")
        st2 = numeric_sample(x1, label="b")
        assert st1.witness != st2.witness

    def test_seed_changes_samples(self):
        p1 = ZeroTestPolicy(seed=1)
        p2 = ZeroTestPolicy(seed=2)
        a = numeric_sample(x1, p1)
        b = numeric_sample(x1, p2)
        assert a.witness != b.witness


class _EndsRng:
    """A stub rng: randint gives the low or the high end of its range, and
    random() the given value, so a draw lands on a range's end."""

    def __init__(self, high: bool, r: float):
        self.high, self.r = high, r

    def randint(self, lo, hi):
        return hi if self.high else lo

    def random(self):
        return self.r


class TestPolicy:
    def test_coordinates_avoid_origin_band(self):
        # magnitudes k/1024 for k in COORD_RANGE, both ends included
        lo, hi = (Fraction(k, 1024) for k in zerotest.COORD_RANGE)
        pol = ZeroTestPolicy()
        rng = pol.rng("coords")
        for _ in range(200):
            c = pol.sample_coord(rng)
            assert lo <= abs(c) <= hi

    @pytest.mark.parametrize("high", [False, True])
    @pytest.mark.parametrize("r", [0.0, 0.5])
    def test_range_ends_are_drawn(self, high, r):
        pol = ZeroTestPolicy()
        k = zerotest.COORD_RANGE[high]
        sign = 1 if r < 0.5 else -1
        assert pol.sample_coord(_EndsRng(high, r)) == Fraction(sign * k, 1024)
        m = zerotest.PARAM_RANGE[high]
        assert pol.sample_param(_EndsRng(high, r)) == Fraction(m, 1024)
        point, params, absvals = zerotest._assignment({"mu"}, {"F"}, _EndsRng(high, r))
        assert point == (sign * k / 1024,) * 3
        assert params == {"mu": m / 1024} and absvals == {"F": m / 1024}

    def test_ranges_as_stated(self):
        # the drawn ends, as the module text states them: 102/1024 and
        # 307/1024 lie just under 0.1 and 0.3, and 1740/1024 under 1.7
        assert [round(k / 1024, 4) for k in zerotest.COORD_RANGE] == [0.0996, 2.0]
        assert [round(k / 1024, 4) for k in zerotest.PARAM_RANGE] == [0.2998, 1.6992]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.text(max_size=8), st.sets(st.sampled_from(("mu", "nu"))),
           st.sets(st.sampled_from(("F", "D1F"))))
    def test_points_are_the_policy_fractions_as_floats(self, seed, label, names, symbols):
        # three streams of one seed and label: _assignment's floats, the
        # policy's Fractions, and those Fractions drawn by their own rng calls
        def coord(rng):
            mag = Fraction(rng.randint(*zerotest.COORD_RANGE), 1024)
            return mag if rng.random() < 0.5 else -mag

        def param(rng):
            return Fraction(rng.randint(*zerotest.PARAM_RANGE), 1024)

        pol = ZeroTestPolicy(seed=seed)
        rng, twin, ref = pol.rng(label), pol.rng(label), pol.rng(label)
        for _ in range(3):
            point, params, absvals = zerotest._assignment(names, symbols, rng)
            coords = [pol.sample_coord(twin) for _ in range(3)]
            want_params = {n: pol.sample_param(twin) for n in sorted(names)}
            want_abs = {s: pol.sample_param(twin) for s in sorted(symbols)}
            assert coords == [coord(ref) for _ in range(3)]
            assert list(want_params.values()) + list(want_abs.values()) == [
                param(ref) for _ in range(len(names) + len(symbols))]
            assert all(type(c) is float for c in point)
            assert point == tuple(float(c) for c in coords)
            assert params == {n: float(v) for n, v in want_params.items()}
            assert absvals == {s: float(v) for s, v in want_abs.items()}
        # a NonZero witness prints the policy's Fractions of its point
        verdict = numeric_sample(x1 + 3, ZeroTestPolicy(points=1, seed=seed), label)
        twin = pol.rng(label)
        assert verdict.witness["point"] == tuple(str(pol.sample_coord(twin)) for _ in range(3))

    def test_scale_relative_tolerance(self):
        # residual ~1e-12 of terms ~1e3: relatively zero
        big = (x1 * 10) ** 6
        e = (big + 1) - big - 1
        assert is_zero(e).is_zero


class TestEvalErrors:
    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(1 / x1, (0.0, 1.0, 1.0))

    def test_ln_nonpositive(self):
        with pytest.raises(EvalDomainError):
            evaluate(ln(x1), (-1.0, 0.0, 0.0))

    def test_sqrt_negative(self):
        with pytest.raises(EvalDomainError):
            evaluate(sqrt(x1), (-2.0, 0.0, 0.0))

    def test_missing_param(self):
        with pytest.raises(EvalDomainError):
            evaluate(param("mu") * x1, (1.0, 1.0, 1.0))


# -- the compiled evaluator against a node-by-node recursive one --------------
# _Scale and _eval are the recursive evaluator the compiled one replaced,
# kept verbatim as the oracle.


class _Scale:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def feed(self, v: complex) -> complex:
        a = abs(v)
        if a > self.value:
            self.value = a
        return v


def _eval(e, point, params, absvals, scale: _Scale) -> complex:
    EvalDomainError = zerotest.EvalDomainError
    if isinstance(e, Num):
        return scale.feed(complex(e.val))
    if isinstance(e, Var):
        return scale.feed(complex(point[e.axis - 1]))
    if isinstance(e, Param):
        try:
            return scale.feed(complex(params[e.name]))
        except KeyError:
            raise EvalDomainError(e, f"unassigned parameter {e.name}")
    if isinstance(e, Add):
        return scale.feed(sum(_eval(t, point, params, absvals, scale) for t in e.terms))
    if isinstance(e, Mul):
        out = 1 + 0j
        for f in e.factors:
            out *= _eval(f, point, params, absvals, scale)
        return scale.feed(out)
    if isinstance(e, Pow):
        b = _eval(e.base, point, params, absvals, scale)
        q = e.exponent
        if q.denominator == 1:
            if b == 0 and q < 0:
                raise EvalDomainError(e, "division by zero")
            return scale.feed(b ** q.numerator)
        if b == 0:
            if q < 0:
                raise EvalDomainError(e, "division by zero")
            return scale.feed(0j)
        if b.imag == 0 and b.real < 0:
            raise EvalDomainError(e, "fractional power of a negative value")
        return scale.feed(b ** float(q))
    if isinstance(e, App):
        a = _eval(e.arg, point, params, absvals, scale)
        if e.fn == "exp":
            if a.real > 700:
                raise EvalDomainError(e, "exp overflow")
            return scale.feed(cmath.exp(a))
        if e.fn == "ln":
            if a == 0 or (a.imag == 0 and a.real <= 0):
                raise EvalDomainError(e, "ln of a non-positive value")
            return scale.feed(cmath.log(a))
        if e.fn == "arctan":
            if a.imag == 0:
                return scale.feed(complex(math.atan(a.real)))
            return scale.feed(cmath.atan(a))
        if e.fn == "sin":
            return scale.feed(cmath.sin(a))
        return scale.feed(cmath.cos(a))
    if isinstance(e, AbsApp):
        for u in e.args:
            _eval(u, point, params, absvals, scale)
        try:
            return scale.feed(complex(absvals[e.symbol]))
        except KeyError:
            raise EvalDomainError(e, f"unassigned abstract symbol {e.symbol}")
    raise TypeError(f"cannot evaluate {type(e).__name__}")


def _oracle_samples(e, policy, label):
    """The sampling loop of the recursive evaluator, drawing each point
    through the policy's Fraction samplers."""
    names = {n.name for n in walk(e) if isinstance(n, Param)}
    symbols = {n.symbol for n in walk(e) if isinstance(n, AbsApp)}
    rng = policy.rng(label)
    for _ in range(policy.points * zerotest.MAX_ATTEMPT_FACTOR):
        point = tuple(float(policy.sample_coord(rng)) for _ in range(3))
        params = {name: float(policy.sample_param(rng)) for name in sorted(names)}
        absvals = {sym: float(policy.sample_param(rng)) for sym in sorted(symbols)}
        assignment = point, params, absvals
        scale = _Scale()
        try:
            v = _eval(e, point, params, absvals, scale)
        except ArithmeticError:
            yield None
            continue
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            yield None
            continue
        yield abs(v) / (1.0 + scale.value), v, assignment


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


def _outcome(run):
    """What run() did: its value and scale as bits, or the error raised."""
    try:
        v, scale = run()
    except zerotest.EvalDomainError as err:
        return ("domain", id(err.subtree), err.reason)
    except Exception as err:
        return ("raised", type(err), str(err))
    return ("value", _bits(v), _bits(complex(scale)))


# Values chosen so that sums cancel exactly (poles, zero bases), bases go
# negative under fractional powers, exp overflows and magnitudes overflow.
COORDS = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -2.0, 1e-3, 3e5, 1e200])
CONSTS = st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 2, 800, GRat(0, 1),
                          GRat(1, -1), GRat(15 * 10**307, 15 * 10**307), GRat(10**400)]).map(Num)
EXPONENTS = st.sampled_from([-3, -1, 2, 3, 60, Fraction(1, 2), Fraction(-1, 2),
                             Fraction(1, 3), Fraction(-3, 2)]).map(Fraction)
PARAMS = ("mu", "nu")
SYMBOLS = ("F", "D1F", "G", "D2G", "D1D2G")


@st.composite
def shared_trees(draw):
    """A random tree whose nodes are drawn from a growing pool, so that
    subtrees are shared by identity."""
    pool = draw(st.lists(st.one_of(CONSTS, st.sampled_from(XVARS),
                                   st.sampled_from(PARAMS).map(Param)), min_size=1, max_size=4))
    pick = st.integers(0, 10**6).map(lambda k: pool[k % len(pool)])
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["add", "mul", "pow", "app", "absapp"]))
        if kind == "add":
            node = Add(tuple(draw(st.lists(pick, min_size=2, max_size=3))))
        elif kind == "mul":
            node = Mul(tuple(draw(st.lists(pick, min_size=2, max_size=3))))
        elif kind == "pow":
            node = Pow(draw(pick), draw(EXPONENTS))
        elif kind == "app":
            node = App(draw(st.sampled_from(["exp", "ln", "arctan", "sin", "cos"])), draw(pick))
        elif draw(st.booleans()):
            node = AbsApp("F", (draw(st.integers(0, 1)),), (draw(pick),))
        else:
            node = AbsApp("G", (draw(st.integers(0, 1)), draw(st.integers(0, 1))),
                          (draw(pick), draw(pick)))
        pool.append(node)
    return pool[-1]


VALUES = st.sampled_from([0.5, 1.0, -1.0, 2.0])


class TestCompiledEvaluator:
    @settings(max_examples=400, deadline=None)
    @example(App("exp", Mul((Num(705), x2))), (0.5, 1.0, 1.0), {}, {})  # exp overflow
    @example(Pow(Add((x1, Num(Fraction(-1, 2)))), Fraction(-1)), (0.5, 1.0, 1.0), {}, {})  # pole
    @example(Pow(x1, Fraction(1, 3)), (-2.0, 1.0, 1.0), {}, {})  # negative base
    @example(Add((Num(GRat(15 * 10**307, 15 * 10**307)), Param("mu"))),  # |.| overflows first
             (0.5, 1.0, 1.0), {}, {})
    @example(Mul((Param("nu"), AbsApp("F", (1,), (x1,)))), (0.5, 1.0, 1.0), {"nu": 2.0},
             {})  # unassigned symbol D1F
    @given(shared_trees(), st.tuples(COORDS, COORDS, COORDS),
           st.dictionaries(st.sampled_from(PARAMS), VALUES, min_size=1),
           st.dictionaries(st.sampled_from(SYMBOLS), VALUES, min_size=3))
    def test_same_value_scale_and_error(self, e, point, params, absvals):
        def recursive():
            scale = _Scale()
            return _eval(e, point, params, absvals, scale), scale.value

        def compiled():
            code, _, _ = zerotest._compile(e)
            return zerotest._run(code, point, params, absvals)

        assert _outcome(compiled) == _outcome(recursive)

    @settings(max_examples=60, deadline=None)
    @given(shared_trees(), st.integers(0, 3))
    def test_samples_match_the_recursive_loop(self, e, seed):
        policy = ZeroTestPolicy(points=4, seed=seed)

        def items(samples):
            try:
                return repr(list(samples(e, policy, "oracle")))
            except Exception as err:  # a non-arithmetic error leaves the loop
                return (type(err), str(err))

        assert items(zerotest._samples) == items(_oracle_samples)

    def test_shared_subtree_is_compiled_once(self):
        s = Add((x1, Num(1)))
        e = Mul((s, Pow(s, Fraction(-1)), s))
        code, _, _ = zerotest._compile(e)
        assert len(code) == 5  # x1, 1, the sum, its inverse, the product
