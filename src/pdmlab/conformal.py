"""The ten conformal generators, the rank-2 tensor basis M(mu,nu), structure
verification, subalgebra closure, and the equivalence transformations.

A generator is defined by its coordinate column in the Killing span: a unit
column for P/J/D/K, and the so(1,4) change of basis for M(mu,nu).  Every
operator is realized from a column by killing_to_op; the commonly tabulated
per-row (xi, eta) columns are shipped as data and compared against that
realization, with per-row deltas reported instead of silently adopted.
Closure and structure checks are exact linear algebra on coordinate columns,
with brackets from a structure tensor proved once on the realization.
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from . import read_only
from .diffop import (
    AXES,
    FirstOrderOp,
    _commutator,
    _first_form,
    PDMHamiltonian,
    SecondOrderOp,
    eps,
    hamiltonian_to_op,
    killing_to_op,
)
from .report import Check, VerificationReport, annotation
from .symkernel import (
    Expr,
    as_expr,
    cos,
    diff,
    is_provably_zero,
    is_rational_in_x,
    mul,
    normalize,
    num,
    param,
    sin,
    subst,
    to_sexpr,
    x1,
    x2,
    x3,
)
from .symkernel.expr import NUM_MINUS_ONE, NUM_ZERO, Num, add
from .symkernel.ratform import (
    M_ONE,
    P_ZERO,
    RF_ZERO,
    kernel_scope,
    p_add,
    p_diff,
    p_is_const,
    p_scale,
    rf_add,
    rf_canon,
    rf_inv,
    rf_mul,
    rf_scale,
    rf_to_expr,
    to_rf,
)
from .symkernel.scalars import I, MINUS_I, MINUS_ONE, ZERO, GRat

X = (x1, x2, x3)
PJDK = ("P1", "P2", "P3", "J1", "J2", "J3", "D", "K1", "K2", "K3")


class DecompositionFailure(ValueError):
    """An operator lies outside the finite-dimensional Killing span."""


class FormError(ValueError):
    """A conjugated operator cannot be written as p f p - V."""

    def __init__(self, message: str, obstruction=None):
        super().__init__(message)
        self.obstruction = obstruction


# ---------------------------------------------------------------------------
# generators: coordinate columns realized by killing_to_op
# ---------------------------------------------------------------------------

_M_ID = re.compile(r"^M([0-4])([0-4])$")


def normalize_gen_id(gid: str) -> str:
    gid = gid.strip()
    if gid in PJDK:
        return gid
    m = _M_ID.match(gid)
    if m and m.group(1) != m.group(2):
        return gid
    raise ValueError(f"unknown generator id {gid!r}")


def generator(gid) -> FirstOrderOp:
    """Exact (xi, eta) realization of a generator id like 'P1', 'D', 'M43'."""
    return _generator(normalize_gen_id(gid))


# FirstOrderOp is frozen, so one shared object per id is safe; the cache holds
# at most the 30 valid ids.
@functools.cache
def _generator(gid: str) -> FirstOrderOp:
    return killing_to_op(_generator_column(gid))


# -- linear combinations ------------------------------------------------------

_COEF_FUNC = re.compile(r"^(cos|sin)\((\w+)\)$")


def _parse_coeff(text: str) -> Expr:
    text = text.strip()
    m = _COEF_FUNC.match(text)
    if m:
        inner = param(m.group(2))
        return cos(inner) if m.group(1) == "cos" else sin(inner)
    if re.match(r"^-?\d+(/\d+)?$", text):
        return as_expr(Fraction(text))
    if text.isidentifier():
        return param(text)
    raise ValueError(f"bad coefficient {text!r}")


def parse_combo(text: str):
    """Parse 'M43+alpha*M21' or 'cos(c)*M21+sin(c)*M03' into
    [(coeff Expr, generator id), ...]."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty combination")
    terms = []
    buf = ""
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and buf:
            terms.append(buf)
            buf = "-" if ch == "-" else ""
            continue
        buf += ch
    terms.append(buf)
    out = []
    for t in terms:
        sign = 1
        if t.startswith("-"):
            sign = -1
            t = t[1:]
        if "*" in t:
            ctext, gid = t.rsplit("*", 1)
            coeff = _parse_coeff(ctext)
        else:
            coeff, gid = as_expr(1), t
        out.append((mul(as_expr(sign), coeff), normalize_gen_id(gid)))
    return out


def combo_to_op(combo) -> FirstOrderOp:
    return killing_to_op(combo_column(combo))


# ---------------------------------------------------------------------------
# coordinates in the 11-dimensional operator span and the bracket tensor
# ---------------------------------------------------------------------------

COORD_NAMES = (
    "lam1", "lam2", "lam3", "mu1", "mu2", "mu3", "omega",
    "nu1", "nu2", "nu3", "c0",
)
# the generator of each unit column but c0's: lam.K + mu.J + omega D + nu.P
COORD_GENERATORS = ("K1", "K2", "K3", "J1", "J2", "J3", "D", "P1", "P2", "P3")


def op_coordinates(q: FirstOrderOp) -> tuple:
    """Coordinate column (lam, mu, omega, nu, c0), in COORD_NAMES order, of
    an operator in the Killing span.  The column is proved by rebuilding the
    operator from it and subtracting exactly; raises DecompositionFailure if
    q is not in the span."""
    zero_pt = {x1: NUM_ZERO, x2: NUM_ZERO, x3: NUM_ZERO}
    nu = [normalize(subst(xi, zero_pt)) for xi in q.xi]
    div = add(*(diff(q.xi[a - 1], a) for a in AXES))
    omega = normalize(mul(Fraction(1, 3), subst(div, zero_pt)))
    lam = [normalize(mul(Fraction(-1, 6), subst(diff(div, a), zero_pt))) for a in AXES]
    mu = []
    for c in (1, 2, 3):
        acc = NUM_ZERO
        for b in (1, 2, 3):
            for a in (1, 2, 3):
                s = eps(c, b, a)
                if s:
                    acc = acc + mul(Num(s), subst(diff(q.xi[a - 1], b), zero_pt))
        mu.append(normalize(mul(Fraction(1, 2), acc)))
    eta0 = subst(q.eta, zero_pt)
    c0 = normalize(mul(num(0, -1), eta0 - Fraction(3, 2) * omega))
    column = tuple(lam + mu + [omega] + nu + [c0])
    delta = q - killing_to_op(column)
    if not delta.is_zero():
        raise DecompositionFailure(
            "operator lies outside the degree<=2 conformal Killing span"
        )
    return column


def _unit_column(k: int) -> tuple:
    return tuple(Num(int(i == k)) for i in range(len(COORD_NAMES)))


# one column per generator id; at most the 30 valid ids
@functools.cache
def _generator_column(gid: str) -> tuple:
    """The coordinate column that defines a generator id: a unit column for
    P/J/D/K, and for M(mu,nu) the change of basis M04 = D,
    M0a = (K_a + P_a)/2, M4a = (K_a - P_a)/2, M_ab = eps_abc J_c and
    M(nu,mu) = -M(mu,nu)."""
    if gid in COORD_GENERATORS:
        return _unit_column(COORD_GENERATORS.index(gid))
    mu, nu = int(gid[1]), int(gid[2])
    half = Num(Fraction(1, 2))
    if (mu, nu) == (0, 4):
        return _generator_column("D")
    if mu == 0 and nu in AXES:
        return combo_column([(half, f"K{nu}"), (half, f"P{nu}")])
    if mu == 4 and nu in AXES:
        return combo_column([(half, f"K{nu}"), (-half, f"P{nu}")])
    if mu in AXES and nu in AXES:
        return combo_column([(Num(eps(mu, nu, c)), f"J{c}") for c in AXES if eps(mu, nu, c)])
    return combo_column([(NUM_MINUS_ONE, f"M{nu}{mu}")])


def _rf_column(column) -> tuple:
    return tuple(to_rf(e) for e in column)


def _rf_combo_column(combo) -> tuple:
    """combo_column as RF entries, summed without normalizing."""
    out = (RF_ZERO,) * len(COORD_NAMES)
    for coeff, gid in parse_combo(combo) if isinstance(combo, str) else combo:
        c = to_rf(coeff)
        out = tuple(rf_add(o, rf_mul(c, to_rf(e))) for o, e in zip(out, _generator_column(gid)))
    return out


def _same_column(u, v) -> bool:
    """Two RF columns are equal when every entry of their difference has an
    empty reduced numerator."""
    return all(rf_add(a, rf_scale(b, MINUS_ONE)).is_zero() for a, b in zip(u, v))


def combo_column(combo) -> tuple:
    """Coordinate column of a combination ('M43+alpha*M21' or parsed): the
    linear sum of its generators' columns."""
    with kernel_scope:
        return tuple(rf_to_expr(rf_canon(e)) for e in _rf_combo_column(combo))


@functools.cache
def _bracket_tensor() -> dict:
    """Structure tensor of the span: (i, j) -> the column of [e_i, e_j], as
    GRats, for the unit columns e_i, e_j whose bracket is nonzero; (j, i)
    holds its negative.  Built on first use.

    Each unit column is realized by killing_to_op.  For each pair i < j
    the commutator is formed by diffop's rule on RF forms, its xi and eta
    are taken to polynomials over Q(i), its column is read off their
    coefficients by op_coordinates' formulas (`_poly_column`), and the
    column is proved by rebuilding sum_k T_ijk (xi_k, eta_k) and comparing
    it with the commutator: polynomials are canonical dicts, so dict
    equality is exact equality.
    """
    with kernel_scope:
        forms = [_first_form(killing_to_op(_unit_column(k))) for k in range(len(COORD_NAMES))]
        units = [_polys(form) for form in forms]
        tensor = {}
        for i, j in itertools.combinations(range(len(units)), 2):
            comm = _polys(_commutator(forms[i], forms[j]))
            if not any(comm):
                continue
            column = _poly_column(comm)
            rebuilt = (P_ZERO,) * 4
            for c, unit in zip(column, units):
                if not c.is_zero():
                    rebuilt = tuple(p_add(r, p_scale(u, c)) for r, u in zip(rebuilt, unit))
            if rebuilt != comm:
                raise DecompositionFailure(
                    f"[{COORD_NAMES[i]}, {COORD_NAMES[j]}] lies outside the Killing span"
                )
            tensor[i, j] = tuple(column)
            tensor[j, i] = tuple(-c for c in column)
    return tensor


def _polys(form: dict) -> tuple:
    """(xi1, xi2, xi3, eta) of the dict form of -i(xi.d + eta), as
    polynomials; a denominator other than 1 is a DecompositionFailure."""
    out = []
    for key in ((1,), (2,), (3,), ()):
        rf = rf_scale(form.get(key, RF_ZERO), I)
        if rf.den:
            raise DecompositionFailure("a coefficient in the Killing span is not a polynomial")
        out.append(rf.num)
    return tuple(out)


def _poly_column(q: tuple) -> list:
    """op_coordinates' read-out of a polynomial tuple (xi1, xi2, xi3, eta),
    as GRats in COORD_NAMES order: nu = xi(0), omega = div xi(0)/3,
    lam = -grad div xi(0)/6, mu = curl xi(0)/2, c0 = -i(eta(0) - 3 omega/2)."""
    xi, eta = q[:3], q[3]
    grad = [[p_diff(xi[a], x) for x in X] for a in range(3)]  # grad[a][b] = d_b xi_a
    div = p_add(p_add(grad[0][0], grad[1][1]), grad[2][2])
    omega = _at_zero(div) * GRat(Fraction(1, 3))
    lam = [_at_zero(p_diff(div, x)) * GRat(Fraction(-1, 6)) for x in X]
    mu = []
    for c in AXES:
        acc = ZERO
        for b in AXES:
            for a in AXES:
                s = eps(c, b, a)
                if s:
                    acc = acc + GRat(s) * _at_zero(grad[a - 1][b - 1])
        mu.append(acc * GRat(Fraction(1, 2)))
    nu = [_at_zero(p) for p in xi]
    c0 = MINUS_I * (_at_zero(eta) - GRat(Fraction(3, 2)) * omega)
    return lam + mu + [omega] + nu + [c0]


def _at_zero(p: dict):
    return p.get(M_ONE, ZERO)


# Columns from here to pair_brackets hold RF entries, valid in the kernel
# scope that made them; the callers enter it.


def bracket(u, v) -> tuple:
    """Column of the bracket [u, v] of two coordinate columns: the bilinear
    sum of u_i v_j [e_i, e_j] over the structure tensor."""
    out = (RF_ZERO,) * len(COORD_NAMES)
    for (i, j), column in _bracket_tensor().items():
        if not (u[i].is_zero() or v[j].is_zero()):
            ab = rf_mul(u[i], v[j])
            out = tuple(rf_add(o, rf_scale(ab, c)) for o, c in zip(out, column))
    return out


def decompose_in_basis(columns, targets):
    """Expand each target column over the basis columns (coefficients may
    involve declared parameters) with one Gauss-Jordan elimination of the
    augmented matrix [columns | targets].  Returns (rank, solutions): per
    target its coefficient list, free variables set to zero, or None when
    the target lies outside the span.

    Entries are constant rational functions (of rationals, parameters,
    cos/sin atoms); pivots are chosen among the basis columns only, a
    canonical constant preferred, else the first nonzero entry.
    """
    nrows = len(COORD_NAMES)
    ncols = len(columns)
    rows = [[col[i] for col in columns] + [t[i] for t in targets] for i in range(nrows)]
    piv_cols = []
    r = 0
    for col in range(ncols):
        piv = None
        for k in range(r, nrows):
            entry = rows[k][col]
            if not entry.is_zero():
                if entry.den:
                    entry = rf_canon(entry)
                if not entry.den and p_is_const(entry.num):
                    piv = k
                    break
                if piv is None:
                    piv = k
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rf_inv(rows[r][col])
        rows[r] = [rf_mul(inv, v) for v in rows[r]]
        for k in range(nrows):
            if k != r and not rows[k][col].is_zero():
                factor = rf_scale(rows[k][col], MINUS_ONE)
                rows[k] = [vk if vr.is_zero() else rf_add(vk, rf_mul(factor, vr))
                           for vk, vr in zip(rows[k], rows[r])]
        piv_cols.append(col)
        r += 1
        if r == nrows:
            break
    rank = len(piv_cols)
    solutions = []
    for t in range(ncols, ncols + len(targets)):
        if any(not row[t].is_zero() for row in rows[rank:]):
            solutions.append(None)
            continue
        sol = [RF_ZERO] * ncols
        for row, col in zip(rows, piv_cols):
            sol[col] = row[t]
        solutions.append(sol)
    return rank, solutions


def pair_brackets(columns):
    """Bracket column of every pair i < j of basis columns and its
    coefficients over the basis, from one elimination.  Returns (rank,
    [(i, j, bracket column, coefficients or None outside the span)])."""
    pairs = list(itertools.combinations(range(len(columns)), 2))
    brackets = [bracket(columns[i], columns[j]) for i, j in pairs]
    rank, solutions = decompose_in_basis(columns, brackets)
    return rank, [(i, j, b, sol) for (i, j), b, sol in zip(pairs, brackets, solutions)]


# ---------------------------------------------------------------------------
# expected structure tables
# ---------------------------------------------------------------------------


def expected_c3(a: str, b: str):
    """Expected bracket [a, b] in the P/J/D/K basis as [(coeffit, gid), ...]."""
    I = num(0, 1)

    def kind(g):
        return g[0] if g[0] in "PJK" else "D"

    def idx(g):
        return int(g[1]) if len(g) > 1 else 0

    ka, kb = kind(a), kind(b)
    # antisymmetric bracket: compute for a canonical order, flip otherwise
    order = {"P": 0, "J": 1, "D": 2, "K": 3}
    if order[ka] > order[kb]:
        return [(mul(-1, c), g) for c, g in expected_c3(b, a)]
    i, j = idx(a), idx(b)
    if ka == "P" and kb == "P":
        return []
    if ka == "P" and kb == "J":
        # [P^a, J^b] = i eps_abc P^c
        return [(mul(Num(eps(i, j, c)), I), f"P{c}") for c in (1, 2, 3) if eps(i, j, c)]
    if ka == "P" and kb == "D":
        # [D, P^a] = i P^a  =>  [P^a, D] = -i P^a
        return [(mul(-1, I), a)]
    if ka == "P" and kb == "K":
        # realization-consistent bracket: [K^a, P^b] = -2i(delta_ab D + eps_abc J^c),
        # so [P^b, K^a] = 2i(delta_ab D + eps_abc J^c); the commonly printed
        # table carries the opposite sign on the dilatation term (annotated in
        # verify_c3)
        out = []
        if i == j:
            out.append((mul(2, I), "D"))
        for c in (1, 2, 3):
            s = eps(j, i, c)
            if s:
                out.append((mul(Num(2 * s), I), f"J{c}"))
        return out
    if ka == "J" and kb == "J":
        return [(mul(Num(eps(i, j, c)), I), f"J{c}") for c in (1, 2, 3) if eps(i, j, c)]
    if ka == "J" and kb == "D":
        return []
    if ka == "J" and kb == "K":
        # [K^a, J^b] = i eps_abc K^c, so [J^i, K^j] = -i eps_jic K^c = i eps_ijc K^c
        return [(mul(Num(-eps(j, i, c)), I), f"K{c}") for c in (1, 2, 3) if eps(j, i, c)]
    if ka == "D" and kb == "K":
        # [D, K^a] = -i K^a
        return [(mul(-1, I), b)]
    if ka == "K" and kb == "K":
        return []
    raise ValueError(f"no rule for [{a},{b}]")


SO14_METRIC = {0: 1, 1: -1, 2: -1, 3: -1, 4: -1}
SO4_METRIC = {1: 1, 2: 1, 3: 1, 4: 1}
SO13_METRIC = {0: -1, 1: 1, 2: 1, 3: 1}


def expected_metric_bracket(pair1, pair2, metric, pattern):
    """Expected [M(pair1), M(pair2)] as [(coeff, gid), ...]: the terms of a
    bracket pattern (bracket_outer or bracket_inner) weighted by the
    diagonal metric."""
    (mu, nu), (lam, sig) = pair1, pair2
    I = num(0, 1)
    out = []
    for g_idx, m_pair, sgn in pattern(mu, nu, lam, sig):
        gval = metric.get(g_idx[0], 0) if g_idx[0] == g_idx[1] else 0
        if not gval:
            continue
        a, b = m_pair
        if a == b:
            continue
        out.append((mul(Num(sgn * gval), I), f"M{a}{b}"))
    return out


def bracket_outer(mu, nu, lam, sig):
    """Pattern i(g^{mu sig}M^{nu lam} + g^{nu lam}M^{mu sig}
    - g^{mu lam}M^{nu sig} - g^{nu sig}M^{mu lam})."""
    return (
        ((mu, sig), (nu, lam), 1),
        ((nu, lam), (mu, sig), 1),
        ((mu, lam), (nu, sig), -1),
        ((nu, sig), (mu, lam), -1),
    )


def bracket_inner(mu, nu, lam, sig):
    """Pattern i(g^{mu lam}M^{nu sig} + g^{nu sig}M^{mu lam}
    - g^{mu sig}M^{nu lam} - g^{nu lam}M^{mu sig})."""
    return (
        ((mu, lam), (nu, sig), 1),
        ((nu, sig), (mu, lam), 1),
        ((mu, sig), (nu, lam), -1),
        ((nu, lam), (mu, sig), -1),
    )


def metric_table(metric, pattern):
    """Expected-bracket table (gid_a, gid_b) -> [(coeff, gid)] of M(mu,nu)
    ids under a diagonal metric and a bracket pattern."""
    return lambda a, b: expected_metric_bracket(_pair_of(a), _pair_of(b), metric, pattern)


def so14_basis():
    return ["M01", "M02", "M03", "M04", "M12", "M13", "M14", "M23", "M24", "M34"]


def so4_basis():
    return ["M12", "M13", "M14", "M23", "M24", "M34"]


def so13_basis():
    return ["M01", "M02", "M03", "M12", "M13", "M23"]


def _pair_of(gid: str):
    m = _M_ID.match(gid)
    return int(m.group(1)), int(m.group(2))


def verify_structure(basis, table, report_id: str, title: str = "") -> VerificationReport:
    """Check every bracket of a basis against an expected table.

    basis: list of generator ids; table: callable (gid_a, gid_b) ->
    [(coeff, gid)].  Brackets come from the structure tensor proved on the
    realization; a pair is proved when bracket minus expected column is
    provably zero entry by entry, and otherwise decomposed over the basis.
    """
    rep = VerificationReport(report_id, title)
    with kernel_scope:
        for i, j, got, sol in pair_brackets([_rf_combo_column(gid) for gid in basis])[1]:
            a, b = basis[i], basis[j]
            expected = table(a, b)
            want = _combo_text((to_rf(c), g) for c, g in expected)
            name = f"[{a},{b}]"
            if _same_column(got, _rf_combo_column(expected)):
                rep.add(Check(name, "proved", "symbolic", detail=want))
            else:
                text = "outside basis span" if sol is None else _combo_text(zip(sol, basis))
                rep.add(Check(name, "failed", "symbolic", detail=f"expected {want}, got {text}"))
    return rep


def _combo_text(combo) -> str:
    """The nonzero terms of [(RF coeff, name), ...], or "0"."""
    terms = [f"({to_sexpr(rf_to_expr(rf_canon(c)))})*{g}" for c, g in combo if not c.is_zero()]
    return " + ".join(terms) or "0"


def verify_c3() -> VerificationReport:
    rep = verify_structure(list(PJDK), expected_c3, "algebra.c3",
                           "conformal algebra brackets, P/J/D/K basis")
    rep.add(annotation(
        "bracket table convention",
        "the [K,P] entry of the expected table uses the dilatation-term sign "
        "forced by the explicit realization, [K^a,P^b] = -2i(delta_ab D + "
        "eps_abc J^c); the commonly printed form carries +delta_ab D, which "
        "is inconsistent with the realization and with the metric table"))
    return rep


def verify_so14() -> VerificationReport:
    return verify_structure(so14_basis(), metric_table(SO14_METRIC, bracket_outer), "algebra.so14",
                            "rank-2 tensor basis with metric diag(1,-1,-1,-1,-1)")


def verify_so4() -> VerificationReport:
    return verify_structure(so4_basis(), metric_table(SO4_METRIC, bracket_inner), "algebra.so4",
                            "six integrals of the compact realization vs Kronecker table")


def verify_so13() -> VerificationReport:
    rep = verify_structure(so13_basis(), metric_table(SO13_METRIC, bracket_inner), "algebra.so13",
                           "six integrals of the Lorentz realization vs metric table")
    rep.add(annotation(
        "metric table reading",
        "the tabulated bracket formula prints a Kronecker delta in its last "
        "slot; it is read as the metric g^{nu lambda} (the delta reading "
        "fails for brackets with nu = lambda = 0)"))
    return rep


def verify_iso_roundtrip() -> VerificationReport:
    """Re-solve the tensor basis for P, J, D, K and compare the columns."""
    rep = VerificationReport("algebra.iso", "tensor basis round trip")
    inverses = [(f"{k}{a} = M0{a}{sign}M4{a}", f"{k}{a}", f"M0{a}{sign}M4{a}")
                for a in AXES for k, sign in (("P", "-"), ("K", "+"))]
    inverses += [(f"J{c} = (1/2) eps_abc M_ab", f"J{c}", f"1/2*M{a}{b}-1/2*M{b}{a}")
                 for a, b, c in ((2, 3, 1), (3, 1, 2), (1, 2, 3))]
    inverses.append(("D = M04", "D", "M04"))
    with kernel_scope:
        for name, gid, combo in inverses:
            ok = _same_column(_rf_combo_column(combo), _rf_combo_column(gid))
            rep.add(Check(name, "proved" if ok else "failed", "symbolic"))
    return rep


# ---------------------------------------------------------------------------
# tabulated per-row (xi, eta) columns vs the factory
# ---------------------------------------------------------------------------


def _s(a):
    return 2 * X[a - 1] ** 2 - (x1**2 + x2**2 + x3**2)


KILLING_TABLE_ROWS = [
    # (row, label, gid, xi columns as printed, eta as printed)
    (1, "i*M43", "M43", (x1 * x3, x2 * x3, (_s(3) + 1) / 2), 3 * x3 / 2),
    (2, "i*M42", "M42", (x1 * x2, (_s(2) + 1) / 2, x2 * x3), 3 * x2 / 2),
    (3, "i*M41", "M41", ((_s(1) + 1) / 2, x1 * x2, x1 * x3), 3 * x1 / 2),
    (4, "i*M40", "M40", (x1, x2, x3), NUM_ZERO),
    (5, "i*M32", "M32", (NUM_ZERO, x3, -x2), NUM_ZERO),
    (6, "i*M31", "M31", (x3, NUM_ZERO, -x1), NUM_ZERO),
    (7, "i*M21", "M21", (x2, -x1, NUM_ZERO), NUM_ZERO),
    (8, "i*M03", "M03", (x1 * x3, x2 * x3, (_s(3) - 1) / 2), 3 * x3 / 2),
    (9, "i*M02", "M02", (x1 * x2, (_s(2) - 1) / 2, x2 * x3), 3 * x2 / 2),
    (10, "i*M01", "M01", ((_s(1) - 1) / 2, x1 * x2, x1 * x3), 3 * x1 / 2),
]


def verify_killing_table() -> VerificationReport:
    """Compare the shipped tabulated (xi, eta) rows with the factory
    operators; per-row deltas are annotations, not failures."""
    rep = VerificationReport("algebra.killing-table",
                             "tabulated vector-field rows vs generator factory")
    for row, label, gid, xi, eta in KILLING_TABLE_ROWS:
        fact = generator(gid)
        tab = FirstOrderOp(xi, eta)
        if (tab - fact).is_zero():
            rep.add(Check(f"row {row} ({label})", "proved", "symbolic", "matches factory"))
            continue
        if (tab + fact).is_zero():
            rep.add(annotation(
                f"row {row} ({label})",
                "tabulated row equals the negative of the factory operator; "
                "harmless for commutation checks, surfaced for transparency"))
            continue
        xi_flip = all(is_provably_zero(a + b) for a, b in zip(tab.xi, fact.xi))
        if xi_flip:
            delta = normalize(tab.eta + fact.eta)
            rep.add(annotation(
                f"row {row} ({label})",
                f"xi columns are sign-flipped and eta differs: tabulated eta "
                f"{to_sexpr(normalize(tab.eta))} vs -(factory eta) "
                f"{to_sexpr(normalize(mul(-1, fact.eta)))}; delta {to_sexpr(delta)}"))
        else:
            rep.add(Check(f"row {row} ({label})", "failed", "symbolic",
                          "tabulated xi columns disagree beyond an overall sign"))
    return rep


# ---------------------------------------------------------------------------
# subalgebra data and closure
# ---------------------------------------------------------------------------


class SubalgebraSpec(NamedTuple):
    id: str
    dimension: int
    params: tuple
    basis: tuple  # tuple of combo strings
    ranges: str = ""
    note: str = ""


def load_subalgebras():
    text = resources.files("pdmlab.data").joinpath("subalgebras.txt").read_text()
    specs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("version"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) < 4:
            raise ValueError(f"bad subalgebra record: {raw!r}")
        sid, dim, params, basis = fields[:4]
        ranges = fields[4] if len(fields) > 4 else ""
        note = fields[5] if len(fields) > 5 else ""
        specs.append(SubalgebraSpec(
            id=sid,
            dimension=int(dim),
            params=tuple(p for p in params.split() if p),
            basis=tuple(b.strip() for b in basis.split(",") if b.strip()),
            ranges=ranges,
            note=note,
        ))
    return specs


def subalgebra_closure(spec: SubalgebraSpec) -> VerificationReport:
    """Verify [b_i, b_j] lies in span(basis) with symbolic parameters; the
    structure functions may depend on the declared parameters."""
    rep = VerificationReport(f"subalgebra.{spec.id}",
                             f"<{', '.join(spec.basis)}>")
    irregular = "verbatim irregular" in spec.note
    n = len(spec.basis)
    with kernel_scope:
        rank, brackets = pair_brackets([_rf_combo_column(b) for b in spec.basis])
        # rank of the spanning set (duplicated elements are surfaced, not hidden)
        if rank != n or n != spec.dimension:
            rep.add(annotation(
                "rank",
                f"listed dimension {spec.dimension}, listed elements {n}, "
                f"coordinate rank {rank}"))
        names = [f"b{k + 1}" for k in range(n)]
        for i, j, _, sol in brackets:
            name = f"[{spec.basis[i]}, {spec.basis[j]}]"
            if sol is not None:
                rep.add(Check(name, "proved", "symbolic", _combo_text(zip(sol, names))))
            elif irregular:
                rep.add(annotation(
                    name,
                    "bracket leaves the listed span; the record is "
                    "encoded verbatim from an irregular source row and "
                    "its non-closure is a finding, not a suite failure"))
            else:
                rep.add(Check(name, "failed", "symbolic", "outside basis span"))
    return rep


def verify_subalgebras() -> list:
    return [subalgebra_closure(s) for s in load_subalgebras()]


# ---------------------------------------------------------------------------
# equivalence transformations
# ---------------------------------------------------------------------------


class TransformSpec:
    """shift(nu), rotation(R), dilatation(scale), or inversion_conjugation
    (weight_exponent w, multiplier |x|^w with the substitution x -> x/r^2)."""

    __slots__ = ("kind", "nu", "rotation", "scale", "weight_exponent")
    __setattr__ = __delattr__ = read_only

    def __init__(self, kind: str, nu: tuple = (0, 0, 0), rotation: tuple = (), scale=1,
                 weight_exponent: int = 0):
        if kind not in ("shift", "rotation", "dilatation", "inversion_conjugation"):
            raise ValueError(f"unknown transform kind {kind!r}")
        if kind == "dilatation" and scale == 0:
            raise ValueError("dilatation scale must be nonzero")
        if kind == "rotation":
            rotation = tuple(tuple(as_expr(v) for v in row) for row in rotation)
            if len(rotation) != 3 or any(len(r) != 3 for r in rotation):
                raise ValueError("rotation needs a 3x3 matrix")
            for i in range(3):
                for j in range(3):
                    dot = add(*(mul(rotation[k][i], rotation[k][j]) for k in range(3)))
                    want = 1 if i == j else 0
                    if not is_provably_zero(dot - want):
                        raise ValueError("rotation matrix is not exactly orthogonal")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "weight_exponent", weight_exponent)


def axis_rotation(axis: int, cos_t, sin_t):
    """Exact rotation matrix about a coordinate axis; requires
    cos_t^2 + sin_t^2 == 1 exactly (e.g. 3/5, 4/5)."""
    c, s = as_expr(cos_t), as_expr(sin_t)
    if not is_provably_zero(c * c + s * s - 1):
        raise ValueError("cos^2 + sin^2 must equal 1 exactly")
    if axis == 3:
        return ((c, mul(-1, s), NUM_ZERO), (s, c, NUM_ZERO), (NUM_ZERO, NUM_ZERO, as_expr(1)))
    if axis == 1:
        return ((as_expr(1), NUM_ZERO, NUM_ZERO), (NUM_ZERO, c, mul(-1, s)), (NUM_ZERO, s, c))
    if axis == 2:
        return ((c, NUM_ZERO, s), (NUM_ZERO, as_expr(1), NUM_ZERO), (mul(-1, s), NUM_ZERO, c))
    raise ValueError("axis must be 1, 2 or 3")


def _transform_data(t: TransformSpec):
    """Returns (sigma, sigma_inv, m_grad_ratio, m_hess_ratio) where sigma is
    the substitution map applied inside wavefunctions and m the multiplier."""
    zero3 = (NUM_ZERO, NUM_ZERO, NUM_ZERO)
    zero33 = tuple((NUM_ZERO,) * 3 for _ in range(3))
    if t.kind == "shift":
        nu = tuple(as_expr(v) for v in t.nu)
        sigma = tuple(X[a] - nu[a] for a in range(3))
        sigma_inv = tuple(X[a] + nu[a] for a in range(3))
        return sigma, sigma_inv, zero3, zero33
    if t.kind == "rotation":
        R = t.rotation
        sigma = tuple(add(*(mul(R[b][a], X[b]) for b in range(3))) for a in range(3))  # R^T x
        sigma_inv = tuple(add(*(mul(R[a][b], X[b]) for b in range(3))) for a in range(3))  # R y
        return sigma, sigma_inv, zero3, zero33
    if t.kind == "dilatation":
        s = as_expr(t.scale)
        sigma = tuple(mul(s, X[a]) for a in range(3))
        sigma_inv = tuple(X[a] / s for a in range(3))
        return sigma, sigma_inv, zero3, zero33
    # inversion: sigma = sigma_inv = x / r^2, multiplier m = r^w
    r2 = x1**2 + x2**2 + x3**2
    sigma = tuple(X[a] / r2 for a in range(3))
    w = t.weight_exponent
    m_grad = tuple(mul(w, X[a]) / r2 for a in range(3))
    m_hess = tuple(
        tuple(
            (mul(w, as_expr(1 if a == b else 0)) / r2)
            + mul(w * (w - 2), X[a] * X[b]) / r2**2
            for b in range(3)
        )
        for a in range(3)
    )
    return sigma, sigma, m_grad, m_hess


def conjugate_second_order(H: SecondOrderOp, t: TransformSpec) -> SecondOrderOp:
    sigma, sigma_inv, m_grad, m_hess = _transform_data(t)
    sub = {X[a]: sigma_inv[a] for a in range(3)}
    dsig = [[diff(sigma[i], a + 1) for a in range(3)] for i in range(3)]
    d2sig = [
        [[diff(dsig[i][a], b + 1) for b in range(3)] for a in range(3)] for i in range(3)
    ]
    A2 = [[NUM_ZERO] * 3 for _ in range(3)]
    B2 = [NUM_ZERO] * 3
    C2 = NUM_ZERO
    for a in range(3):
        for b in range(3):
            Aab = H.A[a][b]
            if Aab == NUM_ZERO:
                continue
            for i in range(3):
                for j in range(3):
                    A2[i][j] = A2[i][j] + Aab * dsig[i][a] * dsig[j][b]
                B2[i] = B2[i] + Aab * (
                    m_grad[a] * dsig[i][b] + m_grad[b] * dsig[i][a] + d2sig[i][a][b]
                )
            C2 = C2 + Aab * m_hess[a][b]
        Ba = H.B[a]
        if Ba != NUM_ZERO:
            for i in range(3):
                B2[i] = B2[i] + Ba * dsig[i][a]
            C2 = C2 + Ba * m_grad[a]
    C2 = C2 + H.C
    A2 = tuple(tuple(normalize(subst(v, sub)) for v in row) for row in A2)
    B2 = tuple(normalize(subst(v, sub)) for v in B2)
    C2 = normalize(subst(C2, sub))
    return SecondOrderOp(A2, B2, C2)


def conjugate_first_order(q: FirstOrderOp, t: TransformSpec) -> FirstOrderOp:
    sigma, sigma_inv, m_grad, _ = _transform_data(t)
    sub = {X[a]: sigma_inv[a] for a in range(3)}
    xi2 = []
    for i in range(3):
        acc = add(*(mul(q.xi[a], diff(sigma[i], a + 1)) for a in range(3)))
        xi2.append(normalize(subst(acc, sub)))
    eta2 = normalize(
        subst(add(*(mul(q.xi[a], m_grad[a]) for a in range(3))) + q.eta, sub)
    )
    return FirstOrderOp(tuple(xi2), eta2)


def apply_transform(t: TransformSpec, h: PDMHamiltonian) -> PDMHamiltonian:
    """Transformed (f', V') with the Hamiltonian renormalized into
    p f' p - V' form; raises FormError when a first-order obstruction
    remains."""
    if t.kind == "inversion_conjugation":
        if not (is_rational_in_x(normalize(h.f)) and is_rational_in_x(normalize(h.V))):
            raise FormError("inversion conjugation requires f and V rational in x")
    H2 = conjugate_second_order(hamiltonian_to_op(h), t)
    f2 = normalize(mul(-1, H2.A[0][0]))
    for a in range(3):
        for b in range(3):
            want = mul(-1, f2) if a == b else NUM_ZERO
            if not is_provably_zero(H2.A[a][b] - want):
                raise FormError(
                    "conjugated operator is not isotropic in its second-order part",
                    obstruction=normalize(H2.A[a][b] - want),
                )
    residual = tuple(normalize(H2.B[a] + diff(f2, a + 1)) for a in range(3))
    if any(not is_provably_zero(r) for r in residual):
        raise FormError(
            "conjugated operator keeps an irreducible first-order part",
            obstruction=residual,
        )
    return PDMHamiltonian(f2, normalize(mul(-1, H2.C)))


def find_inversion_weight(h: PDMHamiltonian, lo: int = -3, hi: int = 3):
    """Search the multiplier exponent w in [lo, hi] for which the inversion
    conjugation lands back in p f p - V form."""
    last_error = None
    for w in range(lo, hi + 1):
        try:
            out = apply_transform(
                TransformSpec(kind="inversion_conjugation", weight_exponent=w), h
            )
            return w, out
        except FormError as e:
            last_error = e
    raise FormError(
        f"no multiplier exponent in [{lo},{hi}] removes the first-order part",
        obstruction=getattr(last_error, "obstruction", None),
    )
