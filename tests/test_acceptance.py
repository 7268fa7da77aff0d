"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with pytest -s or in the
captured output of a failing run)."""

import time

import numpy as np
import pytest


def _report(name: str, ok: bool, elapsed: float, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {name}: {mark} in {elapsed:.2f}s{suffix}")
    assert ok, f"criterion {name} failed{suffix}"


def test_criterion_1_determining_equations():
    """The ten coefficients of commute_hq over abstract f, V, xi and eta
    reproduce the determining system up to a nonzero rational factor per
    equation, in under a second."""
    t0 = time.perf_counter()
    from operator_reference import determining_residuals, expected_determining, proportional_factor

    residuals = determining_residuals()
    esec, efir, ezer = expected_determining()
    ok = len(residuals) == 10
    for got, want in zip(residuals, esec + efir + ezer):
        k = proportional_factor(got, want)
        ok = ok and k is not None and k.is_rational() and not k.is_zero()
    elapsed = time.perf_counter() - t0
    _report("1 (determining equations)", ok and elapsed < 1.0, elapsed)


def test_criterion_2_structure_constants():
    """45 + 45 + 15 + 15 brackets certified exactly, in under five seconds."""
    t0 = time.perf_counter()
    from pdmlab.algebra import verify_c3, verify_so13, verify_so14, verify_so4

    counts = []
    ok = True
    for fn, want in ((verify_c3, 45), (verify_so14, 45), (verify_so4, 15), (verify_so13, 15)):
        rep = fn()
        proved = sum(1 for c in rep.checks if c.status == "proved")
        counts.append(proved)
        ok = ok and rep.passed and proved == want
    elapsed = time.perf_counter() - t0
    _report("2 (structure constants)", ok and elapsed < 5.0, elapsed,
            f"brackets {counts}")


def test_criterion_3_catalog():
    """All 18 rows pass every listed integral; rational rows additionally
    prove the full commutator; non-rational rows certify at the numeric tier
    with max residual < 1e-9 over >= 50 seeded points; verbatim-encoding
    failures are annotations rescued by a passing variant.  Under a minute."""
    t0 = time.perf_counter()
    from pdmlab.catalog import load_catalog, verify_entry

    ok = True
    details = []
    summary = {"proved": 0, "numeric": 0, "failed": 0, "annotated": 0}
    for eid in sorted(load_catalog()):
        rep = verify_entry(eid)
        for k, v in rep.counts().items():
            summary[k] += v
        if not rep.passed:
            ok = False
            details.append(f"entry {eid} failed")
            continue
        row_rational = eid >= 12
        if row_rational:
            comms = [c for c in rep.checks if "[H,Q]" in c.name and not c.extra.get("verbatim_failure")]
            if not comms or any(c.status != "proved" for c in comms):
                ok = False
                details.append(f"entry {eid} commutator tier")
        else:
            numeric = [
                c for c in rep.checks
                if c.tier == "numeric" and c.points is not None and not c.failed
            ]
            if not numeric or any(
                c.points < 50 or c.max_residual >= 1e-9 for c in numeric
            ):
                ok = False
                details.append(f"entry {eid} numeric tier")
        verbatim_fail = [c for c in rep.checks if c.extra.get("verbatim_failure")]
        if verbatim_fail:
            variant = [c for c in rep.checks if "[variant]" in c.name]
            if not variant or any(c.failed for c in variant):
                ok = False
                details.append(f"entry {eid} variant")
    # a screen that turned a proof into a witness would move these counts
    if summary != {"proved": 175, "numeric": 43, "failed": 0, "annotated": 18}:
        ok = False
        details.append(f"summary {summary}")
    elapsed = time.perf_counter() - t0
    _report("3 (catalog)", ok and elapsed < 60.0, elapsed, "; ".join(details))


def test_criterion_4_subalgebra_closure():
    """Every subalgebra record closes with symbolic parameters; the flagged
    verbatim-irregular record is annotated, not failed."""
    t0 = time.perf_counter()
    from pdmlab.conformal import load_subalgebras, subalgebra_closure

    ok = True
    for spec in load_subalgebras():
        rep = subalgebra_closure(spec)
        if not rep.passed:
            ok = False
    elapsed = time.perf_counter() - t0
    _report("4 (subalgebra closure)", ok, elapsed)


def test_criterion_5_casimir_identities():
    """C1 == (H - 9)/4 and C1 == (H + 9)/4 with C2 == 0 in both
    realizations, exactly; the 6r^2 -> 5r^2 mutation must fail."""
    t0 = time.perf_counter()
    from pdmlab.casimir import verify_casimir_identity

    ok = verify_casimir_identity("so4").passed
    ok = ok and verify_casimir_identity("so13").passed
    ok = ok and not verify_casimir_identity("so4", mutated=True).passed
    elapsed = time.perf_counter() - t0
    _report("5 (casimir identities)", ok, elapsed)


def test_criterion_6_spectrum_reproduction():
    """FD eigenvalues at l=0 on the whole half-line (t = arctan r in
    (0, pi/2)) with 4000 points match {5, 17, 37} within 0.5% (0.1% after
    Richardson); the derived levels print exactly.  Under thirty seconds."""
    t0 = time.perf_counter()
    from pdmlab.spectral import (
        RadialProblem,
        algebraic_spectrum_so4,
        fd_eigenvalues,
        richardson_eigenvalues,
    )
    from pdmlab.symkernel import evaluate

    prob = RadialProblem(system="so4", l=0, grid_points=4000)
    exact = [5.0, 17.0, 37.0]
    vals = fd_eigenvalues(prob, 3)
    ok = all(abs(v - e) / e < 5e-3 for v, e in zip(vals, exact))
    rich = richardson_eigenvalues(prob, 3)
    ok = ok and all(abs(v - e) / e < 1e-3 for v, e in zip(rich, exact))
    for n in (1, 2, 3):
        lv = algebraic_spectrum_so4(n)
        ok = ok and lv.etilde == 4 * n * n + 5
        ok = ok and evaluate(lv.energy, (0, 0, 0), {"mu": 1.0, "nu": 0.0}) == lv.etilde
        ok = ok and evaluate(lv.energy, (0, 0, 0), {"mu": 0.0, "nu": 1.0}) == 1.0
    elapsed = time.perf_counter() - t0
    _report(
        "6 (spectrum reproduction)", ok and elapsed < 30.0, elapsed,
        f"fd {[f'{v:.5f}' for v in vals]}",
    )


def test_criterion_7_closed_form_residuals():
    """Closed-form solutions satisfy their radial equations to a relative
    residual below 1e-8 at twenty or more sample points each."""
    t0 = time.perf_counter()
    from pdmlab.spectral import ClosedFormSolution, closed_form_residual

    ok = True
    worst = 0.0
    pts_out = np.linspace(0.1, 3.0, 25)
    for n, l in [(1, 0), (2, 0), (2, 1), (3, 2)]:
        r = closed_form_residual(ClosedFormSolution(system="so4", n=n, l=l), pts_out)
        worst = max(worst, r)
        ok = ok and r < 1e-8
    pts_in = np.linspace(0.05, 0.85, 25)
    for k in (0.25, 0.6):
        r = closed_form_residual(ClosedFormSolution(system="so13", k=k), pts_in)
        worst = max(worst, r)
        ok = ok and r < 1e-8
    for kappa, et, om in [(0, 1.0, 2.0), (1, -2.0, 3.0)]:
        sol = ClosedFormSolution(system="scale", kappa=kappa, etilde=et, omega=om)
        r = closed_form_residual(sol, np.linspace(0.2, 4.0, 25))
        worst = max(worst, r)
        ok = ok and r < 1e-8
    elapsed = time.perf_counter() - t0
    _report("7 (closed-form residuals)", ok, elapsed, f"max residual {worst:.2e}")


def test_criterion_8_equivalence_transforms():
    """Shift, rotation and dilatation preserve their catalog families;
    inversion conjugation reduces the quartic row to constant profile and
    potential with the multiplier exponent found by search."""
    t0 = time.perf_counter()
    from fractions import Fraction

    from pdmlab.catalog import entry
    from pdmlab.conformal import apply_transform, find_inversion_weight
    from pdmlab.diffop import PDMHamiltonian
    from pdmlab.symkernel import AbstractFn, is_provably_zero, param, x1, x2, x3
    from pdmlab.transform import axis_rotation, dilatation, rotation, shift

    mu, nu = param("mu"), param("nu")
    r2 = x1**2 + x2**2 + x3**2
    ok = True
    # shift on the x3-profile family
    F = AbstractFn("F", 1)
    row10 = entry(10)
    out = apply_transform(shift((0, 0, 1)), PDMHamiltonian(row10.f, row10.V))
    ok = ok and is_provably_zero(out.f - F(x3 + 1))
    # dilatation fixes the homogeneous quadratic family
    row14 = entry(14)
    out = apply_transform(dilatation(Fraction(5, 2)), PDMHamiltonian(row14.f, row14.V))
    ok = ok and is_provably_zero(out.f - mu * r2) and is_provably_zero(out.V - nu)
    # rational rotation fixes the cylindrical family
    row12 = entry(12)
    R = axis_rotation(3, Fraction(3, 5), Fraction(4, 5))
    out = apply_transform(rotation(R), PDMHamiltonian(row12.f, row12.V))
    ok = ok and is_provably_zero(out.f - row12.f)
    # inversion on the quartic row
    row18 = entry(18)
    w, out = find_inversion_weight(PDMHamiltonian(row18.f, row18.V))
    ok = ok and is_provably_zero(out.f - mu) and is_provably_zero(out.V - nu)
    elapsed = time.perf_counter() - t0
    _report("8 (equivalence transforms)", ok, elapsed, f"weight {w}")


def test_criterion_9_continuous_spectrum_bookkeeping():
    """The side-by-side window derivation annotation is present in the
    report, and the metric-weighted integrand of the singular-row solutions
    vanishes at both endpoints for 0 <= j1^2 < 1."""
    t0 = time.perf_counter()
    from pdmlab.casimir import so13_window_report
    from pdmlab.spectral import ClosedFormSolution, so13_boundary_values

    rep = so13_window_report()
    ok = any(
        c.status == "annotation" and "via_casimir" in c.extra for c in rep.checks
    )
    for k in (0.05, 0.5, 0.95):
        sol = ClosedFormSolution(system="so13", k=k)
        b0, b1 = so13_boundary_values(sol, eps=1e-3)
        B0, B1 = so13_boundary_values(sol, eps=1e-4)
        ok = ok and abs(B0) < abs(b0) and abs(B1) < abs(b1)
    elapsed = time.perf_counter() - t0
    _report("9 (continuous-spectrum bookkeeping)", ok, elapsed)
