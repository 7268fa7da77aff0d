"""Expr-tree references for the operator algebra, independent of the RF
arithmetic that pdmlab.diffop runs: the Leibniz product and commutator of
dict forms on Expr trees, the determining system written out from
abstract symbols and read off commute_hq over the same symbols, the
hand-derived worked-family equations, and an exact proportionality test."""

import itertools

from pdmlab.diffop import AXES, FirstOrderOp, PDMHamiltonian, commute_hq
from pdmlab.symkernel import (
    AbstractFn,
    Expr,
    diff,
    is_provably_zero,
    kernel_scope,
    mul,
    normalize,
    num,
    x1,
    x2,
    x3,
)
from pdmlab.symkernel.expr import NUM_ZERO, Num, add
from pdmlab.symkernel.ratform import m_key, rf_canon, to_rf


def _subsets(alpha: tuple):
    """(alpha minus S, S) for every subset S of the positions of alpha."""
    for n in range(len(alpha) + 1):
        for pos in itertools.combinations(range(len(alpha)), n):
            yield (tuple(a for i, a in enumerate(alpha) if i not in pos),
                   tuple(alpha[i] for i in pos))


def _d(e, axes):
    for a in axes:
        e = diff(e, a)
    return e


def expr_product(left: dict, right: dict, top: bool = True) -> dict:
    """left*right of two Expr dict forms by the Leibniz rule; top=False
    leaves out the S = alpha terms."""
    terms: dict = {}
    for alpha, l in left.items():
        for rest, s in _subsets(alpha):
            if top or rest:
                for beta, r in right.items():
                    terms.setdefault(tuple(sorted(beta + s)), []).append(mul(l, _d(r, rest)))
    return {key: add(*ts) for key, ts in terms.items()}


def expr_commutator(left: dict, right: dict) -> dict:
    lr, rl = expr_product(left, right, top=False), expr_product(right, left, top=False)
    return {key: lr.get(key, NUM_ZERO) - rl.get(key, NUM_ZERO) for key in lr.keys() | rl.keys()}


def expr_first_form(q) -> dict:
    form = {(a,): mul(num(0, -1), q.xi[a - 1]) for a in AXES}
    form[()] = mul(num(0, -1), q.eta)
    return form


def expr_second_form(s) -> dict:
    return {key: mul(2, v) if len(set(key)) == 2 else v for key, v in s.slots()}


def abstract_setup():
    """Fully abstract f, V, xi^a, eta as functions of x."""
    f, V, eta = (AbstractFn(name, 3)(x1, x2, x3) for name in ("f", "V", "eta"))
    xi = tuple(AbstractFn(f"xi{a}", 3)(x1, x2, x3) for a in AXES)
    return f, V, xi, eta


def determining_residuals() -> list:
    """The ten coefficients of commute_hq over the abstract symbols, each
    times -i and normalized, in slot order: A^{ab} for a <= b, B^a, C."""
    f, V, xi, eta = abstract_setup()
    comm = commute_hq(PDMHamiltonian(f, V), FirstOrderOp(xi, eta))
    return [normalize(mul(num(0, -1), v)) for _, v in comm.slots()]


def expected_determining():
    """Reference determining expressions built from the same abstract symbols:
    trace+traceless second-order part, first-order part, zeroth-order part."""
    f, V, xi, eta = abstract_setup()
    second = []
    div_f_flow = add(*(mul(xi[c], diff(f, c + 1)) for c in range(3)))
    for a in range(3):
        for b in range(a, 3):
            e = mul(-1, f, diff(xi[b], a + 1) + diff(xi[a], b + 1))
            if a == b:
                e = e + div_f_flow
            second.append(normalize(e))
    first = []
    for a in range(3):
        lap_xi = add(*(diff(diff(xi[a], c + 1), c + 1) for c in range(3)))
        e = (
            -add(*(mul(xi[i], diff(diff(f, a + 1), i + 1)) for i in range(3)))
            + add(*(mul(diff(f, i + 1), diff(xi[a], i + 1)) for i in range(3)))
            + f * lap_xi
            + 2 * f * diff(eta, a + 1)
        )
        first.append(normalize(e))
    lap_eta = add(*(diff(diff(eta, a), a) for a in AXES))
    zero = normalize(
        add(*(mul(diff(f, a), diff(eta, a)) for a in AXES))
        + f * lap_eta
        - add(*(mul(xi[a - 1], diff(V, a)) for a in AXES))
    )
    return second, first, [zero]


def proportional_factor(e1: Expr, e2: Expr):
    """Nonzero scalar k with e1 == k*e2 exactly, or None."""
    with kernel_scope:
        r1 = rf_canon(to_rf(e1))
        r2 = rf_canon(to_rf(e2))
        if r2.is_zero():
            return None
        if r1.is_zero():
            return None
        mono, c2 = min(r2.num.items(), key=lambda kv: m_key(kv[0]))
        c1 = r1.num.get(mono)
        if c1 is None:
            return None
        k = c1 / c2
        if is_provably_zero(e1 - mul(Num(k), e2)):
            return k
        return None


R2 = x1**2 + x2**2 + x3**2


def flow_residual_03(g: Expr, rhs_factor) -> Expr:
    """2 x3 (x.grad g) - (r^2+1) g_3 - rhs_factor * g: the reduced flow
    equation of the half(K3+P3) integral, cleared of denominators."""
    xdg = add(*(mul((x1, x2, x3)[a - 1], diff(g, a)) for a in AXES))
    return 2 * x3 * xdg - (R2 + 1) * diff(g, 3) - rhs_factor * g


def pair_residual_12(g: Expr, axis: int, const_sign: int) -> Expr:
    """Left side of the mixed rotation/boost pair equation
    2 x_a (x1 g1 + x2 g2 + (x3-1) g3) - (r^2 + const_sign - 2 x3) g_a."""
    xa = (x1, x2, x3)[axis - 1]
    core = x1 * diff(g, 1) + x2 * diff(g, 2) + (x3 - 1) * diff(g, 3)
    return 2 * xa * core - (R2 + const_sign - 2 * x3) * diff(g, axis)
