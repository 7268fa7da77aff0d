"""Quadratic Casimir operators of the two six-integral realizations and the
algebraic spectra they imply.

For the compact realization (inverse mass (1+r^2)^2) the shifted Hamiltonian
satisfies C1 = (H - 9)/4 and C2 = 0; for the Lorentz realization
((1-r^2)^2) it satisfies C1 = (H + 9)/4 and C2 = 0.  The spectrum of the
compact system follows algebraically: C1 has eigenvalues n^2 - 1, giving
E = mu(4n^2 + 5) + nu with angular momentum bounded by l <= n - 1.  Those
levels are spectral.algebraic_spectrum_so4, which the spectrum table reads
without the operator stack imported here.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .conformal import combo_to_op, generator, so4_basis, so13_basis
from .diffop import (
    PDMHamiltonian,
    R2,
    SecondOrderOp,
    _commutator,
    _first_form,
    _form_is_zero,
    _form_sum,
    _from_second_form,
    _product,
    _second_form,
    eps,
    hamiltonian_to_op,
)
from .report import Check, VerificationReport, annotation
from .symkernel import kernel_scope
from .symkernel.ratform import RF_ONE, RF_ZERO
from .symkernel.scalars import MINUS_ONE, ONE, GRat


class CasimirPair(NamedTuple):
    C1: SecondOrderOp
    C2: SecondOrderOp


def _realization(tag: str):
    if tag == "so4":
        # M^{4a} paired with the rotations
        boosts = {a: generator(f"M4{a}") for a in (1, 2, 3)}
    elif tag == "so13":
        boosts = {a: generator(f"M0{a}") for a in (1, 2, 3)}
    else:
        raise ValueError(f"unknown realization {tag!r}")
    rots = {(a, b): generator(f"M{a}{b}") for a in (1, 2, 3) for b in (1, 2, 3) if a != b}
    return boosts, rots


# CasimirPair is frozen; one pair per realization tag
@functools.cache
def build_casimirs(tag: str) -> CasimirPair:
    with kernel_scope:
        boosts, rots = ({k: _first_form(op) for k, op in ops.items()} for ops in _realization(tag))
        sq = [_product(rots[a, b], rots[a, b]) for a in (1, 2, 3) for b in range(a + 1, 4)]
        boost_sq = [_product(boosts[a], boosts[a]) for a in (1, 2, 3)]
        if tag == "so4":
            c1 = _form_sum((ONE, op) for op in sq + boost_sq)
        else:
            # realization-consistent orientation of the indefinite contraction:
            # boost^2 - (1/2) rot^2; the commonly printed orientation is exactly
            # the negative and cannot satisfy C1 == (H+9)/4 (annotated in
            # verify_casimir_identity)
            c1 = _form_sum([(ONE, op) for op in boost_sq] + [(MINUS_ONE, op) for op in sq])
        c2 = _form_sum(
            (GRat(Fraction(eps(a, b, c), 2)), _product(boosts[a], rots[b, c]))
            for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2, 3) if eps(a, b, c)
        )
        return CasimirPair(C1=_from_second_form(c1), C2=_from_second_form(c2))


def reference_hamiltonian(tag: str) -> PDMHamiltonian:
    """The parameter-free shifted Hamiltonian of each realization
    (coupling divided out, additive constant dropped)."""
    if tag == "so4":
        return PDMHamiltonian((1 + R2) ** 2, 6 * R2)
    if tag == "so13":
        return PDMHamiltonian((1 - R2) ** 2, 6 * R2)
    raise ValueError(f"unknown realization {tag!r}")


def verify_casimir_identity(tag: str, mutated: bool = False) -> VerificationReport:
    """C1 == (H -+ 9)/4 and C2 == 0 as exact operator identities.

    mutated=True replaces the 6r^2 potential by 5r^2; the identity must then
    fail (a tightness control for the checker itself).
    """
    rep = VerificationReport(f"casimir.{tag}" + (".mutated" if mutated else ""),
                             f"quadratic Casimir identities, {tag} realization")
    pair = build_casimirs(tag)
    h = reference_hamiltonian(tag)
    if mutated:
        h = PDMHamiltonian(h.f, 5 * R2)
    shift = -9 if tag == "so4" else 9
    with kernel_scope:
        # C1 - (H + shift)/4
        delta = _form_sum([(ONE, _second_form(pair.C1)),
                           (GRat(Fraction(-1, 4)), _second_form(hamiltonian_to_op(h))),
                           (GRat(Fraction(-shift, 4)), {(): RF_ONE})])
        bad = [key for key, _ in pair.C1.slots() if not delta.get(key, RF_ZERO).is_zero()]
        c2_zero = _form_is_zero(_second_form(pair.C2))
    name = f"C1 == (H {'-' if tag == 'so4' else '+'} 9)/4"
    if not bad:
        rep.add(Check(name, "proved", "symbolic", "all 10 coefficient slots vanish"))
    else:
        rep.add(Check(name, "failed", "symbolic", f"nonzero slots: {bad}"))
    if c2_zero:
        rep.add(Check("C2 == 0", "proved", "symbolic"))
    else:
        rep.add(Check("C2 == 0", "failed", "symbolic"))
    if tag == "so13" and not mutated and not bad:
        rep.add(annotation(
            "printed contraction orientation",
            "the tabulated contraction (1/2)M^{ab}M^{ab} - M^{0a}M^{0a} "
            "equals exactly minus (H+9)/4; the shipped C1 uses the "
            "realization-consistent orientation "
            "M^{0a}M^{0a} - (1/2)M^{ab}M^{ab}"))
    return rep


# ---------------------------------------------------------------------------
# two commuting angular-momentum halves of the compact realization
# ---------------------------------------------------------------------------


def qg_operators():
    """q_a = (M^{4a} + (1/2) eps_abc M^{bc})/2 and
    g_a = (-M^{4a} + (1/2) eps_abc M^{bc})/2; with (a, b, c) cyclic the
    rotation part (1/2) eps_abc M^{bc} is M^{bc}."""
    cyclic = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    qs = [combo_to_op(f"1/2*M4{a}+1/2*M{b}{c}") for a, b, c in cyclic]
    gs = [combo_to_op(f"-1/2*M4{a}+1/2*M{b}{c}") for a, b, c in cyclic]
    return qs, gs


def verify_qg_decoupling() -> VerificationReport:
    rep = VerificationReport("casimir.so4.qg",
                             "decoupling into two commuting angular momenta")
    qs, gs = qg_operators()
    pair = build_casimirs("so4")
    with kernel_scope:
        qs, gs = [_first_form(q) for q in qs], [_first_form(g) for g in gs]
        for name, fam in (("q", qs), ("g", gs)):
            for a, b in ((0, 1), (0, 2), (1, 2)):
                c = 3 - a - b
                # [f_a, f_b] - i eps_abc f_c
                delta = _form_sum([(ONE, _commutator(fam[a], fam[b])),
                                   (GRat(0, -eps(a + 1, b + 1, c + 1)), fam[c])])
                rep.add(Check(f"[{name}{a+1},{name}{b+1}] = i eps {name}c",
                              "proved" if _form_is_zero(delta) else "failed", "symbolic"))
        for a in range(3):
            for b in range(3):
                ok = _form_is_zero(_commutator(qs[a], gs[b]))
                rep.add(Check(f"[q{a+1},g{b+1}] = 0", "proved" if ok else "failed", "symbolic"))
        # C1 = 2(q^2+g^2), C2 = 2(q^2-g^2)
        q2 = [_product(q, q) for q in qs]
        g2 = [_product(g, g) for g in gs]
        two = GRat(2)
        ok1 = _form_is_zero(_form_sum([(ONE, _second_form(pair.C1))]
                                      + [(-two, op) for op in q2 + g2]))
        ok2 = _form_is_zero(_form_sum([(ONE, _second_form(pair.C2))]
                                      + [(-two, op) for op in q2] + [(two, op) for op in g2]))
    rep.add(Check("C1 == 2(q^2+g^2)", "proved" if ok1 else "failed", "symbolic"))
    rep.add(Check("C2 == 2(q^2-g^2)", "proved" if ok2 else "failed", "symbolic"))
    return rep


def verify_casimir_centrality(tag: str) -> VerificationReport:
    rep = VerificationReport(f"casimir.{tag}.central",
                             "C1 commutes with every basis integral")
    pair = build_casimirs(tag)
    basis = so4_basis() if tag == "so4" else so13_basis()
    with kernel_scope:
        c1 = _second_form(pair.C1)
        for gid in basis:
            ok = _form_is_zero(_commutator(c1, _first_form(generator(gid))))
            rep.add(Check(f"[C1, {gid}] = 0", "proved" if ok else "failed", "symbolic"))
    return rep


# ---------------------------------------------------------------------------
# algebraic spectra
# ---------------------------------------------------------------------------


class So13Window(NamedTuple):
    etilde: float                    # tabulated formula: -5 - j1^2
    windows: tuple                   # window tags the value falls in
    annotation: dict


WINDOW_ANNOTATION = {
    "tabulated": "Etilde = -5 - j1^2",
    "via_casimir": "Etilde = 4*c1 - 9 with c1 = 1 - j1^2, i.e. -5 - 4*j1^2",
    "note": (
        "the two derivations disagree by the factor on j1^2; additionally, "
        "for imaginary j1 = i*lambda one has c1 = 1 + lambda^2 and the "
        "via-casimir value lands in the [-5, inf) window although that "
        "window is labeled as the other series; both forms are recorded "
        "verbatim and no correction is applied"
    ),
}


def so13_energy_window(j1sq: float) -> So13Window:
    """Rescaled continuous-spectrum energy for Casimir label j1^2 (negative
    values encode imaginary j1), tagged with the printed windows."""
    etilde = -5.0 - float(j1sq)
    windows = []
    if -6.0 <= etilde <= -5.0:
        windows.append("principal: -6 <= Etilde <= -5")
    if etilde >= -5.0:
        windows.append("subsidiary: -5 <= Etilde < inf")
    if not windows:
        windows.append("outside both tabulated windows")
    return So13Window(
        etilde=etilde,
        windows=tuple(windows),
        annotation=dict(WINDOW_ANNOTATION),
    )


def so13_window_report() -> VerificationReport:
    rep = VerificationReport("casimir.so13.windows",
                             "continuous-spectrum window bookkeeping")
    for j1sq in (1.0, 0.0, -4.0):
        w = so13_energy_window(j1sq)
        rep.add(Check(
            f"j1^2 = {j1sq}", "proved", "symbolic",
            f"Etilde = {w.etilde}; windows: {'; '.join(w.windows)}"))
    rep.add(annotation("window derivations", WINDOW_ANNOTATION["note"],
                       extra={k: v for k, v in WINDOW_ANNOTATION.items() if k != "note"}))
    return rep


# ---------------------------------------------------------------------------
# the `casimir` command
# ---------------------------------------------------------------------------


def _cmd_casimir(args) -> int:
    from .cli import _document, _policy, _report

    def build():
        # no Casimir check samples: the header records the default policy
        doc = _document(_policy(args))
        doc.add(verify_casimir_identity(args.system))
        doc.add(verify_casimir_centrality(args.system))
        if args.system == "so4":
            doc.add(verify_qg_decoupling())
        else:
            doc.add(so13_window_report())
        return doc

    return _report(args, build)
