"""The ten conformal generators, the rank-2 tensor basis M(mu,nu), structure
verification, subalgebra closure, and the equivalence transformations.

Ground truth for every operator is the P/J/D/K realization; the commonly
tabulated per-row (xi, eta) columns are shipped as data and compared against
the factory, with per-row deltas reported instead of silently adopted.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .diffop import (
    AXES,
    FirstOrderOp,
    KillingParams,
    PDMHamiltonian,
    SecondOrderOp,
    commute_qq,
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
from .symkernel.expr import NUM_ZERO, Num, add

X = (x1, x2, x3)
PJDK = ("P1", "P2", "P3", "J1", "J2", "J3", "D", "K1", "K2", "K3")


class DecompositionFailure(ValueError):
    """A commutator left the finite-dimensional operator span."""


class FormError(ValueError):
    """A conjugated operator cannot be written as p f p - V."""

    def __init__(self, message: str, obstruction=None):
        super().__init__(message)
        self.obstruction = obstruction


# ---------------------------------------------------------------------------
# generator factory
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
    if gid[0] == "P":
        nu = [0, 0, 0]
        nu[int(gid[1]) - 1] = 1
        return killing_to_op(KillingParams(nu=tuple(nu)))
    if gid[0] == "J":
        mu = [0, 0, 0]
        mu[int(gid[1]) - 1] = 1
        return killing_to_op(KillingParams(mu_rot=tuple(mu)))
    if gid == "D":
        return killing_to_op(KillingParams(omega=1))
    if gid[0] == "K":
        lam = [0, 0, 0]
        lam[int(gid[1]) - 1] = 1
        return killing_to_op(KillingParams(lam=tuple(lam)))
    mu_idx, nu_idx = int(gid[1]), int(gid[2])
    return _tensor_generator(mu_idx, nu_idx)


def _tensor_generator(mu: int, nu: int) -> FirstOrderOp:
    if mu == nu:
        raise ValueError("M indices must differ")
    if (mu, nu) == (0, 4):
        return generator("D")
    if (mu, nu) == (4, 0):
        return -generator("D")
    if mu in (1, 2, 3) and nu in (1, 2, 3):
        out = None
        for c in (1, 2, 3):
            s = eps(mu, nu, c)
            if s:
                op = generator(f"J{c}").scale(s)
                out = op if out is None else out + op
        return out
    if mu == 0 and nu in (1, 2, 3):
        return (generator(f"K{nu}") + generator(f"P{nu}")).scale(Fraction(1, 2))
    if mu in (1, 2, 3) and nu == 0:
        return -_tensor_generator(0, mu)
    if mu == 4 and nu in (1, 2, 3):
        return (generator(f"K{nu}") - generator(f"P{nu}")).scale(Fraction(1, 2))
    if mu in (1, 2, 3) and nu == 4:
        return -_tensor_generator(4, mu)
    raise ValueError(f"bad tensor indices ({mu},{nu})")


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
    if isinstance(combo, str):
        combo = parse_combo(combo)
    out = None
    for coeff, gid in combo:
        op = generator(gid).scale(coeff)
        out = op if out is None else out + op
    return out


# ---------------------------------------------------------------------------
# coordinates in the 11-dimensional operator span
# ---------------------------------------------------------------------------

COORD_NAMES = (
    "lam1", "lam2", "lam3", "mu1", "mu2", "mu3", "omega",
    "nu1", "nu2", "nu3", "c0",
)


def op_coordinates(q: FirstOrderOp):
    """Coordinates (lam, mu, omega, nu, c0) of an operator in the Killing
    span; raises DecompositionFailure if q is not in the span."""
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
    coords = dict(zip(COORD_NAMES, lam + mu + [omega] + nu + [c0]))
    rebuilt = killing_to_op(
        KillingParams(lam=tuple(lam), mu_rot=tuple(mu), omega=omega, nu=tuple(nu), c0=c0)
    )
    delta = q - rebuilt
    if not delta.is_zero():
        raise DecompositionFailure(
            "operator lies outside the degree<=2 conformal Killing span"
        )
    return coords


def span_columns(ops) -> list:
    """Coordinate column (in COORD_NAMES order) of each operator: one
    op_coordinates call per operator.  Raises DecompositionFailure."""
    return [[c[name] for name in COORD_NAMES] for c in map(op_coordinates, ops)]


def _row_reduce(columns, target):
    """Gauss-Jordan elimination of the augmented matrix [columns | target].

    Entries are constant expressions (rationals, parameters, cos/sin atoms);
    a rational pivot is preferred.  Returns (rows, pivot columns).
    """
    nrows = len(target)
    ncols = len(columns)
    rows = [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(nrows)]
    piv_cols = []
    r = 0
    for col in range(ncols):
        piv = None
        for k in range(r, nrows):
            if not is_provably_zero(rows[k][col]):
                if isinstance(normalize(rows[k][col]), Num):
                    piv = k
                    break
                if piv is None:
                    piv = k
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [normalize(mul(inv, v)) for v in rows[r]]
        for k in range(nrows):
            if k != r and not is_provably_zero(rows[k][col]):
                factor = rows[k][col]
                rows[k] = [
                    normalize(vk - mul(factor, vr)) for vk, vr in zip(rows[k], rows[r])
                ]
        piv_cols.append(col)
        r += 1
        if r == nrows:
            break
    return rows, piv_cols


def decompose_in_basis(q: FirstOrderOp, columns):
    """Expand q over a basis given by its span_columns (constant
    coefficients allowed to involve declared parameters).  Returns the
    coefficient list, free variables set to zero.  Raises
    DecompositionFailure."""
    coords_q = op_coordinates(q)
    rows, piv_cols = _row_reduce(columns, [coords_q[name] for name in COORD_NAMES])
    ncols = len(columns)
    if any(not is_provably_zero(row[ncols]) for row in rows[len(piv_cols):]):
        raise DecompositionFailure("commutator is not in the span of the basis")
    sol = [NUM_ZERO] * ncols
    for row, col in zip(rows, piv_cols):
        sol[col] = row[ncols]
    return sol


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
        # [K^a, J^b] = i eps_abc K^c => [J^b, K^a] = -i eps_abc K^c = i eps_bac K^c... wait
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
    [(coeff, gid)].  Each pair is certified by exact operator subtraction;
    the commutator is additionally decomposed over the basis span.
    """
    rep = VerificationReport(report_id, title)
    ops = {gid: generator(gid) for gid in basis}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            a, b = basis[i], basis[j]
            comm = commute_qq(ops[a], ops[b])
            expected = table(a, b)
            expect_op = None
            for coeff, gid in expected:
                t = generator(gid).scale(coeff)
                expect_op = t if expect_op is None else expect_op + t
            delta = comm if expect_op is None else comm - expect_op
            name = f"[{a},{b}]"
            if delta.is_zero():
                rep.add(Check(name, "proved", "symbolic",
                              detail=_combo_text(expected)))
            else:
                try:
                    sol = decompose_in_basis(comm, span_columns([ops[g] for g in basis]))
                    got = " + ".join(
                        f"({to_sexpr(normalize(c))})*{g}"
                        for c, g in zip(sol, basis)
                        if not is_provably_zero(c)
                    ) or "0"
                except DecompositionFailure:
                    got = "outside basis span"
                rep.add(Check(name, "failed", "symbolic",
                              detail=f"expected {_combo_text(expected)}, got {got}"))
    return rep


def _combo_text(combo) -> str:
    if not combo:
        return "0"
    return " + ".join(f"({to_sexpr(normalize(c))})*{g}" for c, g in combo)


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
    def table(a, b):
        return expected_metric_bracket(_pair_of(a), _pair_of(b), SO14_METRIC, bracket_outer)

    return verify_structure(so14_basis(), table, "algebra.so14",
                            "rank-2 tensor basis with metric diag(1,-1,-1,-1,-1)")


def verify_so4() -> VerificationReport:
    def table(a, b):
        return expected_metric_bracket(_pair_of(a), _pair_of(b), SO4_METRIC, bracket_inner)

    return verify_structure(so4_basis(), table, "algebra.so4",
                            "six integrals of the compact realization vs Kronecker table")


def verify_so13() -> VerificationReport:
    def table(a, b):
        return expected_metric_bracket(_pair_of(a), _pair_of(b), SO13_METRIC, bracket_inner)

    rep = verify_structure(so13_basis(), table, "algebra.so13",
                           "six integrals of the Lorentz realization vs metric table")
    rep.add(annotation(
        "metric table reading",
        "the tabulated bracket formula prints a Kronecker delta in its last "
        "slot; it is read as the metric g^{nu lambda} (the delta reading "
        "fails for brackets with nu = lambda = 0)"))
    return rep


def verify_iso_roundtrip() -> VerificationReport:
    """Re-solve the tensor basis for P, J, D, K and compare to the factory."""
    rep = VerificationReport("algebra.iso", "tensor basis round trip")
    for a in (1, 2, 3):
        p = _tensor_generator(0, a) - _tensor_generator(4, a)
        k = _tensor_generator(0, a) + _tensor_generator(4, a)
        rep.add(Check(f"P{a} = M0{a}-M4{a}", "proved" if (p - generator(f"P{a}")).is_zero() else "failed", "symbolic"))
        rep.add(Check(f"K{a} = M0{a}+M4{a}", "proved" if (k - generator(f"K{a}")).is_zero() else "failed", "symbolic"))
    for c in (1, 2, 3):
        j = None
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                s = eps(a, b, c)
                if s:
                    t = _tensor_generator(a, b).scale(Fraction(s, 2))
                    j = t if j is None else j + t
        rep.add(Check(f"J{c} = (1/2) eps_abc M_ab", "proved" if (j - generator(f"J{c}")).is_zero() else "failed", "symbolic"))
    d = _tensor_generator(0, 4)
    rep.add(Check("D = M04", "proved" if (d - generator("D")).is_zero() else "failed", "symbolic"))
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


@dataclass(frozen=True)
class SubalgebraSpec:
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
    ops = [combo_to_op(b) for b in spec.basis]
    # rank of the spanning set (duplicated elements are surfaced, not hidden)
    cols = span_columns(ops)
    rank = len(_row_reduce(cols, [NUM_ZERO] * len(COORD_NAMES))[1])
    if rank != len(ops) or len(ops) != spec.dimension:
        rep.add(annotation(
            "rank",
            f"listed dimension {spec.dimension}, listed elements {len(ops)}, "
            f"coordinate rank {rank}"))
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            name = f"[{spec.basis[i]}, {spec.basis[j]}]"
            comm = commute_qq(ops[i], ops[j])
            if comm.is_zero():
                rep.add(Check(name, "proved", "symbolic", "0"))
                continue
            try:
                sol = decompose_in_basis(comm, cols)
            except DecompositionFailure:
                if irregular:
                    rep.add(annotation(
                        name,
                        "bracket leaves the listed span; the record is "
                        "encoded verbatim from an irregular source row and "
                        "its non-closure is a finding, not a suite failure"))
                else:
                    rep.add(Check(name, "failed", "symbolic", "outside basis span"))
                continue
            text = " + ".join(
                f"({to_sexpr(normalize(c))})*b{k + 1}"
                for k, c in enumerate(sol)
                if not is_provably_zero(c)
            ) or "0"
            rep.add(Check(name, "proved", "symbolic", text))
    return rep


def verify_subalgebras() -> list:
    return [subalgebra_closure(s) for s in load_subalgebras()]


# ---------------------------------------------------------------------------
# equivalence transformations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformSpec:
    """shift(nu), rotation(R), dilatation(scale), or inversion_conjugation
    (weight_exponent w, multiplier |x|^w with the substitution x -> x/r^2)."""

    kind: str
    nu: tuple = (0, 0, 0)
    rotation: tuple = ()
    scale: object = 1
    weight_exponent: int = 0

    def __post_init__(self):
        if self.kind not in ("shift", "rotation", "dilatation", "inversion_conjugation"):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == "rotation":
            R = tuple(tuple(as_expr(v) for v in row) for row in self.rotation)
            if len(R) != 3 or any(len(r) != 3 for r in R):
                raise ValueError("rotation needs a 3x3 matrix")
            for i in range(3):
                for j in range(3):
                    dot = add(*(mul(R[k][i], R[k][j]) for k in range(3)))
                    want = 1 if i == j else 0
                    if not is_provably_zero(dot - want):
                        raise ValueError("rotation matrix is not exactly orthogonal")
            object.__setattr__(self, "rotation", R)


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
