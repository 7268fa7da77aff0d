"""The ten conformal generators, the rank-2 tensor basis M(mu,nu), structure
verification, subalgebra closure, and the renormalization of a transformed
Hamiltonian into p f p - V form.

A generator is defined by its coordinate column in the Killing span: a unit
column for P/J/D/K, and the so(1,4) change of basis for M(mu,nu).  Every
operator is realized from a column by killing_to_op.  Closure and structure
checks are exact linear algebra on coordinate columns, with brackets from a
structure tensor proved once on the realization.

The reports of the `algebra` command, among them the comparison of the
commonly tabulated per-row (xi, eta) columns with this realization, are
built in pdmlab.algebra, which only that command loads.  The
transformations live in pdmlab.transform, which apply_transform and
find_inversion_weight import when they run.  report is imported by the two
report builders here, verify_structure and subalgebra_closure, so
`transform` loads none of it.
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction
from importlib import resources
from typing import TYPE_CHECKING, NamedTuple

from .diffop import (
    AXES,
    X,
    FirstOrderOp,
    _commutator,
    _first_form,
    PDMHamiltonian,
    eps,
    hamiltonian_to_op,
    killing_to_op,
)
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

if TYPE_CHECKING:
    from .report import VerificationReport
    from .transform import ConformalMap

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
    if re.match(r"^-?[0-9]+(/[0-9]+)?$", text):
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


SO4_METRIC = {1: 1, 2: 1, 3: 1, 4: 1}
SO13_METRIC = {0: -1, 1: 1, 2: 1, 3: 1}


def expected_metric_bracket(pair1, pair2, metric):
    """Expected [M(pair1), M(pair2)] as [(coeff, gid), ...] under a diagonal
    metric g: i(g^{mu lam}M^{nu sig} + g^{nu sig}M^{mu lam}
    - g^{mu sig}M^{nu lam} - g^{nu lam}M^{mu sig})."""
    (mu, nu), (lam, sig) = pair1, pair2
    I = num(0, 1)
    out = []
    for g_idx, m_pair, sgn in (((mu, lam), (nu, sig), 1), ((nu, sig), (mu, lam), 1),
                               ((mu, sig), (nu, lam), -1), ((nu, lam), (mu, sig), -1)):
        gval = metric.get(g_idx[0], 0) if g_idx[0] == g_idx[1] else 0
        if not gval:
            continue
        a, b = m_pair
        if a == b:
            continue
        out.append((mul(Num(sgn * gval), I), f"M{a}{b}"))
    return out


def metric_table(metric):
    """Expected-bracket table (gid_a, gid_b) -> [(coeff, gid)] of M(mu,nu)
    ids under a diagonal metric."""
    return lambda a, b: expected_metric_bracket(_pair_of(a), _pair_of(b), metric)


def metric_basis(metric):
    """The M(mu,nu) ids, mu < nu, of a diagonal metric's index pairs, in
    order: M12 .. M34 of so(4), M01 .. M23 of so(1,3)."""
    return [f"M{mu}{nu}" for mu, nu in itertools.combinations(sorted(metric), 2)]


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
    from .report import Check, VerificationReport

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
    from .report import Check, VerificationReport, annotation

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


# ---------------------------------------------------------------------------
# transformed Hamiltonians (the transformations are in pdmlab.transform)
# ---------------------------------------------------------------------------


def apply_transform(t: ConformalMap, h: PDMHamiltonian) -> PDMHamiltonian:
    """(f', V') of h under the map t (a transform.ConformalMap), renormalized
    into p f' p - V' form; raises FormError when t is an inversion and f or
    V is not rational in x, or when a first-order obstruction remains."""
    from .transform import conjugate_second_order

    if t.is_inversion and not (
            is_rational_in_x(normalize(h.f)) and is_rational_in_x(normalize(h.V))):
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


def find_inversion_weight(h: PDMHamiltonian):
    """Search the multiplier exponent w in [-3, 3] for which the inversion
    conjugation lands back in p f p - V form."""
    from .transform import inversion

    last_error = None
    for w in range(-3, 4):
        try:
            return w, apply_transform(inversion(w), h)
        except FormError as e:
            last_error = e
    raise FormError(
        "no multiplier exponent in [-3,3] removes the first-order part",
        obstruction=getattr(last_error, "obstruction", None),
    )
