"""The structure-constant reports of the `algebra` command: the conformal
brackets in the P/J/D/K basis, the so(1,4) tensor basis and its so(4) and
so(1,3) subalgebras against their metric tables, the round trip between the
two bases, the tabulated per-row Killing columns against the generator
factory, and the closure of every shipped subalgebra record.

The brackets, the structure check and the closure check are
pdmlab.conformal's; this module holds the expected tables and the report
builders, which only `algebra` runs.
"""

from __future__ import annotations

from .conformal import (
    PJDK,
    X,
    SO4_METRIC,
    SO13_METRIC,
    _rf_combo_column,
    _same_column,
    generator,
    load_subalgebras,
    metric_table,
    so4_basis,
    so13_basis,
    subalgebra_closure,
    verify_structure,
)
from .diffop import AXES, FirstOrderOp, eps
from .report import Check, VerificationReport, annotation
from .symkernel import is_provably_zero, kernel_scope, mul, normalize, num, to_sexpr, x1, x2, x3
from .symkernel.expr import NUM_ZERO, Num


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


def so14_basis():
    return ["M01", "M02", "M03", "M04", "M12", "M13", "M14", "M23", "M24", "M34"]


# ---------------------------------------------------------------------------
# structure reports
# ---------------------------------------------------------------------------


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
    # so(1,4) brackets have the so(4) pattern with the opposite sign: its table under -g
    so14 = metric_table({i: -g for i, g in SO14_METRIC.items()})
    return verify_structure(so14_basis(), so14, "algebra.so14",
                            "rank-2 tensor basis with metric diag(1,-1,-1,-1,-1)")


def verify_so4() -> VerificationReport:
    return verify_structure(so4_basis(), metric_table(SO4_METRIC), "algebra.so4",
                            "six integrals of the compact realization vs Kronecker table")


def verify_so13() -> VerificationReport:
    rep = verify_structure(so13_basis(), metric_table(SO13_METRIC), "algebra.so13",
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


def verify_subalgebras() -> list:
    return [subalgebra_closure(s) for s in load_subalgebras()]


# ---------------------------------------------------------------------------
# the `algebra` command
# ---------------------------------------------------------------------------


def _cmd_algebra(args) -> int:
    from .cli import _document, _policy, _report

    def build():
        # no algebra check samples: the header records the default policy
        doc = _document(_policy(args))
        if args.subalgebras:
            for rep in verify_subalgebras():
                doc.add(rep)
            return doc
        checks = {
            "c3": verify_c3,
            "so14": verify_so14,
            "so4": verify_so4,
            "so13": verify_so13,
        }
        doc.add(checks[args.check]())
        if args.check in ("c3", "so14"):
            doc.add(verify_iso_roundtrip())
            doc.add(verify_killing_table())
        return doc

    return _report(args, build)
