"""First- and second-order differential operators on 3-space.

Conventions: a first-order operator is Q = -i(xi^a d_a + eta); a
second-order operator is A^{ab} d_a d_b + B^a d_a + C with A symmetric.
Hamiltonians are H = p_a f p_a - V = -(d_a f d_a) - V, i.e. A = -f*delta,
B = -grad f, C = -V.

Products and commutators work on one form: an operator is a dict that maps
a sorted tuple of axes alpha to the coefficient of d^alpha, so the key (1, 2)
carries A^{12} + A^{21}.  A coefficient is the kernel's rational function
`RF` (a packed numerator over a factored denominator), valid in the kernel
scope that made it: each public product and commutator enters one scope,
takes its operands' Expr coefficients to RF, differentiates with `rf_diff`,
and returns canonical Expr coefficients.  One Leibniz rule multiplies two
such dicts:

    L*R = sum over alpha, beta and every subset S of the positions of alpha
          of  l_alpha * d^{alpha minus S}(r_beta) * d^{beta + S}.

A commutator L*R - R*L leaves out the S = alpha terms l_alpha r_beta
d^{alpha+beta}: coefficients commute, so they cancel term by term against
the same terms of R*L.  [S, Q] of a second- and a first-order operator thus
never forms a third-order term.

Public entry points:
- the operators `FirstOrderOp`, `SecondOrderOp` and `PDMHamiltonian`, and
  `hamiltonian_to_op`, which writes H as a second-order operator;
- `killing_to_op`, the generator realized from its 11-entry coordinate
  column;
- `commute_qq` ([Q1, Q2]) and `commute_hq` ([H, Q], whose ten coefficients
  over abstract f, V, xi and eta are the determining system);
- `reduced_determining`, the two residuals that every integral check reads;
- `AXES`, `X`, `R2` and `eps`.
`casimir` and `conformal` also build on the dict forms: `_first_form`,
`_second_form`, `_product`, `_commutator`, `_form_sum`, `_form_is_zero` and
`_from_second_form`.
"""

from __future__ import annotations

from fractions import Fraction

from . import read_only
from .symkernel import (
    Expr,
    IMAG,
    as_expr,
    diff,
    is_provably_zero,
    mul,
    x1,
    x2,
    x3,
)
from .symkernel.expr import NUM_ZERO, Num, add
from .symkernel.ratform import (
    RF,
    RF_ZERO,
    kernel_scope,
    rf_add,
    rf_canon,
    rf_diff,
    rf_mul,
    rf_scale,
    rf_to_expr,
    to_rf,
)
from .symkernel.scalars import I, MINUS_I, MINUS_ONE, GRat

AXES = (1, 2, 3)


def _e3(x):
    return tuple(as_expr(v) for v in x)


class FirstOrderOp:
    """Q = -i(xi^a d_a + eta)."""

    __slots__ = ("xi", "eta")
    __setattr__ = __delattr__ = read_only

    def __init__(self, xi: tuple, eta):
        object.__setattr__(self, "xi", _e3(xi))
        object.__setattr__(self, "eta", as_expr(eta))

    def __add__(self, other: "FirstOrderOp") -> "FirstOrderOp":
        return FirstOrderOp(
            tuple(a + b for a, b in zip(self.xi, other.xi)), self.eta + other.eta
        )

    def __sub__(self, other: "FirstOrderOp") -> "FirstOrderOp":
        return self + other.scale(-1)

    def scale(self, c) -> "FirstOrderOp":
        c = as_expr(c)
        return FirstOrderOp(tuple(mul(c, x) for x in self.xi), mul(c, self.eta))

    def is_zero(self) -> bool:
        return all(is_provably_zero(x) for x in self.xi) and is_provably_zero(self.eta)


class SecondOrderOp:
    """A^{ab} d_a d_b + B^a d_a + C with A stored symmetric."""

    __slots__ = ("A", "B", "C")
    __setattr__ = __delattr__ = read_only

    def __init__(self, A: tuple, B: tuple, C):
        # A: 3x3 nested tuple, A[a][b] == A[b][a]
        object.__setattr__(self, "A", tuple(_e3(row) for row in A))
        object.__setattr__(self, "B", _e3(B))
        object.__setattr__(self, "C", as_expr(C))

    def slots(self):
        """The ten coefficient slots: 6 upper-triangle A, 3 B, 1 C."""
        return ([((a, b), self.A[a - 1][b - 1]) for a in AXES for b in AXES if a <= b]
                + [((a,), self.B[a - 1]) for a in AXES] + [((), self.C)])

    def is_zero(self) -> bool:
        return all(is_provably_zero(v) for _, v in self.slots())


class PDMHamiltonian:
    """H = p_a f p_a - V with f = 1/(2m) the inverse-mass profile."""

    __slots__ = ("f", "V")
    __setattr__ = __delattr__ = read_only

    def __init__(self, f, V):
        object.__setattr__(self, "f", as_expr(f))
        object.__setattr__(self, "V", as_expr(V))


_EPS = {}
for _perm, _sgn in ((("123"), 1), (("231"), 1), (("312"), 1), (("132"), -1), (("213"), -1), (("321"), -1)):
    _EPS[tuple(int(ch) for ch in _perm)] = _sgn


def eps(a: int, b: int, c: int) -> int:
    return _EPS.get((a, b, c), 0)


R2 = x1 * x1 + x2 * x2 + x3 * x3
X = (x1, x2, x3)


def _killing_parts(column):
    """(lam, mu, omega, nu, c0) of an 11-entry coordinate column, in the
    order lam1..3, mu1..3, omega, nu1..3, c0 (conformal.COORD_NAMES)."""
    c = tuple(as_expr(v) for v in column)
    return c[0:3], c[3:6], c[6], c[7:10], c[10]


def killing_to_op(column) -> FirstOrderOp:
    """The generator lam.K + mu.J + omega D + nu.P + c0 realized from its
    coordinate column (lam, mu, omega, nu, c0):

    xi^a = lam^a r^2 - 2 x^a (lam.x) + eps_{cba} mu_c x_b + omega x^a + nu^a,
    eta  = -3 lam.x + (3/2) omega + i c0.
    """
    lam, mu, omega, nu, c0 = _killing_parts(column)
    lam_dot_x = add(*(mul(lam[i], X[i]) for i in range(3)))
    xi = []
    for a in range(3):
        comp = mul(lam[a], R2) - 2 * X[a] * lam_dot_x + mul(omega, X[a]) + nu[a]
        for c in range(3):
            for b in range(3):
                s = eps(c + 1, b + 1, a + 1)
                if s:
                    comp = comp + mul(Num(s), mu[c], X[b])
        xi.append(comp)
    eta = -3 * lam_dot_x + Fraction(3, 2) * omega + IMAG * c0
    return FirstOrderOp(tuple(xi), eta)


def hamiltonian_to_op(h: PDMHamiltonian) -> SecondOrderOp:
    f, V = h.f, h.V
    z = NUM_ZERO
    A = (
        (mul(-1, f), z, z),
        (z, mul(-1, f), z),
        (z, z, mul(-1, f)),
    )
    B = tuple(mul(-1, diff(f, a)) for a in AXES)
    return SecondOrderOp(A, B, mul(-1, V))


# ---------------------------------------------------------------------------
# products and commutators
# ---------------------------------------------------------------------------


def _splits(alpha: tuple) -> tuple:
    """(alpha minus S, S, multiplicity) over the subsets S of the positions of
    alpha; subsets that give the same pair of multisets are merged."""
    counts: dict = {}
    for mask in range(1 << len(alpha)):
        rest = tuple(a for i, a in enumerate(alpha) if not mask >> i & 1)
        s = tuple(a for i, a in enumerate(alpha) if mask >> i & 1)
        counts[rest, s] = counts.get((rest, s), 0) + 1
    return tuple((rest, s, k) for (rest, s), k in counts.items())


def _product(left: dict, right: dict, top: bool = True) -> dict:
    """left*right by the Leibniz rule.  top=False leaves out the S = alpha
    terms l_alpha r_beta d^{alpha+beta}, which cancel in a commutator."""
    derivs: dict = {}

    def deriv(beta, axes):
        # d^axes r_beta, taken one axis at a time and memoized
        got = derivs.get((beta, axes))
        if got is None:
            got = rf_diff(deriv(beta, axes[:-1]), X[axes[-1] - 1]) if axes else right[beta]
            derivs[beta, axes] = got
        return got

    out: dict = {}
    for alpha, l in left.items():
        for rest, s, k in _splits(alpha):
            if not top and not rest:  # S = alpha
                continue
            for beta in right:
                dr = deriv(beta, rest)
                if not dr.is_zero():
                    term = rf_mul(l, dr)
                    if k > 1:
                        term = rf_scale(term, GRat(k))
                    key = tuple(sorted(beta + s))
                    out[key] = rf_add(out.get(key, RF_ZERO), term)
    return out


def _commutator(left: dict, right: dict) -> dict:
    """left*right - right*left, without the top-order terms."""
    out = _product(left, right, top=False)
    for key, v in _product(right, left, top=False).items():
        out[key] = rf_add(out.get(key, RF_ZERO), rf_scale(v, MINUS_ONE))
    return out


def _form_sum(terms) -> dict:
    """The sum of c*form over (GRat c, form) pairs."""
    out: dict = {}
    for c, form in terms:
        for key, v in form.items():
            out[key] = rf_add(out.get(key, RF_ZERO), rf_scale(v, c))
    return out


def _form_is_zero(form: dict) -> bool:
    """An operator is zero when every coefficient's reduced numerator is
    empty."""
    return all(v.is_zero() for v in form.values())


def _first_form(q: FirstOrderOp) -> dict:
    form = {(a,): to_rf(q.xi[a - 1]) for a in AXES}
    form[()] = to_rf(q.eta)
    return {key: rf_scale(v, MINUS_I) for key, v in form.items() if not v.is_zero()}


def _second_form(s: SecondOrderOp) -> dict:
    form = {}
    for key, v in s.slots():
        v = to_rf(v)
        if not v.is_zero():
            # A^{ab} d_a d_b + A^{ba} d_b d_a with a < b
            form[key] = rf_scale(v, GRat(2)) if len(set(key)) == 2 else v
    return form


def _canon(rf: RF) -> Expr:
    return rf_to_expr(rf_canon(rf))


def _from_first_form(form: dict) -> FirstOrderOp:
    """The order <= 1 part of a dict-form operator, as -i(xi d + eta)."""

    def coeff(*key):
        return _canon(rf_scale(form.get(key, RF_ZERO), I))

    return FirstOrderOp(tuple(coeff(a) for a in AXES), coeff())


def _from_second_form(form: dict) -> SecondOrderOp:
    """The order <= 2 part of a dict-form operator."""

    def coeff(*key):
        # the d_a d_b coefficient is split evenly between A^{ab} and A^{ba}
        v = form.get(key, RF_ZERO)
        return _canon(rf_scale(v, GRat(Fraction(1, 2))) if len(set(key)) == 2 else v)

    upper = {(a, b): coeff(a, b) for a in AXES for b in AXES if a <= b}
    A = tuple(tuple(upper[min(a, b), max(a, b)] for b in AXES) for a in AXES)
    return SecondOrderOp(A, tuple(coeff(a) for a in AXES), coeff())


def commute_qq(q1: FirstOrderOp, q2: FirstOrderOp) -> FirstOrderOp:
    """Exact commutator [q1, q2], again in the -i(xi d + eta) convention."""
    with kernel_scope:
        return _from_first_form(_commutator(_first_form(q1), _first_form(q2)))


def commute_hq(h: PDMHamiltonian, q: FirstOrderOp) -> SecondOrderOp:
    """Exact commutator [H, Q] as a second-order operator.

    Its third-order coefficients cancel by construction: the commutator rule
    never forms the top-order terms, whose cancellation
    tests/test_diffop.py checks on the full products.
    """
    with kernel_scope:
        return _from_second_form(_commutator(_second_form(hamiltonian_to_op(h)), _first_form(q)))


# ---------------------------------------------------------------------------
# determining equations
# ---------------------------------------------------------------------------


def reduced_determining(h: PDMHamiltonian, column):
    """Residuals r1, r2 of the two reduced determining equations of the
    integral realized from a coordinate column (killing_to_op):

    r1 = xi.grad(f) - 2(omega - 2 lam.x) f   (the flow equation),
    r2 = xi.grad(V) + 3 lam.grad(f)          (the potential equation).

    Every integral check of the catalog rows and of the worked families
    reads these two.  Returned unnormalized; zero testing decides their
    status.
    """
    q = killing_to_op(column)
    lam, _, omega, _, _ = _killing_parts(column)
    lam_dot_x = add(*(mul(lam[i], X[i]) for i in range(3)))
    r1 = add(*(mul(q.xi[a - 1], diff(h.f, a)) for a in AXES)) - 2 * (omega - 2 * lam_dot_x) * h.f
    r2 = add(*(mul(q.xi[a - 1], diff(h.V, a)) for a in AXES)) + 3 * add(
        *(mul(lam[a - 1], diff(h.f, a)) for a in AXES)
    )
    return r1, r2
