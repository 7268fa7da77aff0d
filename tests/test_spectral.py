"""Radial eigenvalue solver, closed-form residual oracles, normalization."""

import subprocess
import sys

import numpy as np
import pytest

from pdmlab.spectral import (
    ClosedFormSolution,
    GridCoarseWarning,
    RadialProblem,
    besselj,
    closed_form_residual,
    count_eigenvalues_below,
    fd_eigensystem,
    fd_eigenvalues,
    hyp2f1,
    hyp2f1_poly_coeffs,
    normalization_integral,
    richardson_eigenvalues,
    so13_boundary_values,
    so13_lowest_eigenvalue_scan,
    so4_residual_expr,
    so4_wavefunction_expr,
    sturm_liouville_form,
)
from pdmlab.symkernel import diff, evaluate, is_provably_zero, is_zero, x1
from pdmlab.symkernel.expr import add, mul

EXACT3 = [5.0, 17.0, 37.0]


class TestSLForm:
    def test_symbolic_match_compact(self):
        # -(p phi')' + q phi must reproduce the radial operator term by term
        from pdmlab.symkernel import AbstractFn

        phi = AbstractFn("phi", 1)(x1)
        for sign, l in ((1, 0), (1, 2), (-1, 1)):
            p = (x1**2 + sign) ** 2
            q = (x1**2 + sign) ** 2 * l * (l + 1) / x1**2 - 2 * x1**2
            sl = -diff(p * diff(phi, 1), 1) + q * phi
            direct = (
                -((x1**2 + sign) ** 2) * (diff(diff(phi, 1), 1) - l * (l + 1) / x1**2 * phi)
                - 4 * x1 * (x1**2 + sign) * diff(phi, 1)
                - 2 * x1**2 * phi
            )
            assert is_provably_zero(sl - direct)

    def test_callable_values(self):
        p, q, w = sturm_liouville_form(RadialProblem(system="so4", l=0))
        assert p(1.0) == 4.0
        assert q(1.0) == -2.0
        assert w(1.0) == 1.0

    def test_scale_system_rejected(self):
        with pytest.raises(ValueError):
            sturm_liouville_form(RadialProblem(system="scale"))

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            RadialProblem(r_min=0.0)
        with pytest.raises(ValueError):
            RadialProblem(grid_points=8)
        with pytest.raises(ValueError):
            RadialProblem(system="so13", r_max=2.0)


class TestFDEigenvalues:
    def test_lowest_three_l0(self):
        vals = fd_eigenvalues(RadialProblem(), 3)
        for v, e in zip(vals, EXACT3):
            assert abs(v - e) / e < 5e-3

    def test_richardson_tightens(self):
        vals = richardson_eigenvalues(RadialProblem(), 3)
        for v, e in zip(vals, EXACT3):
            assert abs(v - e) / e < 1e-3

    def test_l_bound_shifts_ladder(self):
        # n starts at l+1
        vals = fd_eigenvalues(RadialProblem(l=1), 2)
        assert abs(vals[0] - 17.0) < 0.1 and abs(vals[1] - 37.0) < 0.2
        vals = fd_eigenvalues(RadialProblem(l=2), 1)
        assert abs(vals[0] - 37.0) < 0.1

    def test_empty_request(self):
        assert fd_eigenvalues(RadialProblem(), 0) == []

    def test_dirichlet_truncation_flux(self):
        # plain Dirichlet at the stated domain carries an O(1/R) outer-flux
        # error for the slowly decaying l=0 modes; the matched boundary fixes it
        plain = fd_eigenvalues(RadialProblem(), 3, boundary="dirichlet")
        assert abs(plain[0] - 5.0) > 0.1
        r100 = fd_eigenvalues(
            RadialProblem(r_max=100.0, grid_points=8000), 3, boundary="dirichlet"
        )
        assert abs(r100[0] - 5.0) < abs(plain[0] - 5.0)

    def test_grid_warning(self):
        with pytest.warns(GridCoarseWarning):
            fd_eigenvalues(
                RadialProblem(grid_points=24), 3, check_refinement=True,
                boundary="dirichlet",
            )

    def test_oscillation_count(self):
        # number of Dirichlet eigenvalues below the third level's upper
        # neighborhood equals the number of admissible n
        prob = RadialProblem()
        vals = fd_eigenvalues(prob, 4, boundary="dirichlet")
        bound = 0.5 * (vals[2] + vals[3])
        assert count_eigenvalues_below(prob, bound) == 3

    def test_eigenvector_matches_closed_form(self):
        vals, r, vecs = fd_eigensystem(RadialProblem(), 2)
        for i, n in enumerate((1, 2)):
            phi = so4_wavefunction_expr(n, 0)
            ref = np.array([evaluate(phi, (ri, 0, 0)) for ri in r])
            v = vecs[:, i]
            c = np.dot(ref, v) / np.dot(v, v)
            rel = np.linalg.norm(ref - c * v) / np.linalg.norm(ref)
            assert rel < 1e-2


class TestSeries:
    def test_terminating_coeffs(self):
        # a = 0 series is identically 1
        assert hyp2f1_poly_coeffs(0, -0.5 * 0 - 1, 1.5) == [1]
        # a = -1: 1 + (ab/c) z
        coeffs = hyp2f1_poly_coeffs(-1, "-3/2", "3/2")
        assert coeffs[1] == 1

    def test_series_against_scipy(self):
        from scipy.special import hyp2f1 as sp_hyp2f1

        for (a, b, c, z) in [(0.25, 0.7, 1.5, 0.3), (-0.75, 1.5, 2.5, -0.8),
                             (0.75, 0.25, 2.25, 0.61)]:
            assert abs(hyp2f1(a, b, c, z) - sp_hyp2f1(a, b, c, z)) < 1e-12

    def test_bessel_against_scipy(self):
        from scipy.special import jv

        for beta in (0.0, 1.0, 2.0, 0.5, 1.707):
            for s in (0.3, 1.0, 4.5, 9.2):
                assert abs(besselj(beta, s) - jv(beta, s)) < 1e-12

    def test_bessel_derivatives_consistent(self):
        h = 1e-6
        for beta, s in ((0.0, 2.0), (2.0, 3.3)):
            fd1 = (besselj(beta, s + h) - besselj(beta, s - h)) / (2 * h)
            assert abs(fd1 - besselj(beta, s, 1)) < 1e-8
            fd2 = (besselj(beta, s + h) - 2 * besselj(beta, s) + besselj(beta, s - h)) / h**2
            assert abs(fd2 - besselj(beta, s, 2)) < 1e-3


class TestClosedForms:
    def test_terminating_solutions_prove_exactly(self):
        for n, l in [(1, 0), (2, 0), (2, 1), (3, 2)]:
            st = is_zero(so4_residual_expr(n, l))
            assert st.tier == "symbolic", (n, l)

    def test_first_solution_shape(self):
        # (n,l) = (1,0): phi = r (1+r^2)^(-3/2), the series is identically 1
        phi = so4_wavefunction_expr(1, 0)
        from pdmlab.symkernel import pow_
        from fractions import Fraction

        want = mul(x1, pow_(add(1, mul(x1, x1)), Fraction(-3, 2)))
        assert is_provably_zero(phi - want)

    def test_residuals_at_samples(self):
        pts = np.linspace(0.1, 3.0, 25)
        for n, l in [(1, 0), (2, 0), (2, 1), (3, 2)]:
            sol = ClosedFormSolution(system="so4", n=n, l=l)
            assert closed_form_residual(sol, pts) < 1e-10

    def test_lorentz_solutions(self):
        pts = np.linspace(0.05, 0.85, 25)
        for k in (0.25, 0.6):
            sol = ClosedFormSolution(system="so13", k=k)
            assert closed_form_residual(sol, pts) < 1e-8

    def test_bessel_solutions(self):
        pts = np.linspace(0.2, 4.0, 25)
        for kappa, et, om in [(0, 1.0, 2.0), (1, -2.0, 3.0)]:
            sol = ClosedFormSolution(system="scale", kappa=kappa, etilde=et, omega=om)
            assert closed_form_residual(sol, pts) < 1e-8

    def test_index_validation(self):
        with pytest.raises(ValueError):
            ClosedFormSolution(system="so4", n=1, l=1)  # needs l <= n-1
        with pytest.raises(ValueError):
            ClosedFormSolution(system="so13", k=1.5)
        with pytest.raises(ValueError):
            ClosedFormSolution(system="scale", kappa=0, etilde=3.0)

    def test_fd_derivative_cross_check_so13(self):
        # independent check of the analytic derivative chain
        from pdmlab.spectral import _so13_phi

        sol = ClosedFormSolution(system="so13", k=0.4)
        h = 1e-5
        for r in (0.3, 0.7):
            fd1 = (_so13_phi(sol, r + h) - _so13_phi(sol, r - h)) / (2 * h)
            assert abs(fd1 - _so13_phi(sol, r, 1)) < 1e-7
            fd2 = (_so13_phi(sol, r + h) - 2 * _so13_phi(sol, r) + _so13_phi(sol, r - h)) / h**2
            assert abs(fd2 - _so13_phi(sol, r, 2)) < 1e-4


class TestNormalization:
    def test_compact_square_integrable(self):
        res = normalization_integral(ClosedFormSolution(system="so4", n=1, l=0))
        assert res.finite and res.value > 0
        assert res.tail_exponent == -4  # integrand ~ r^-4 at infinity

    def test_lorentz_metric_integral(self):
        sol = ClosedFormSolution(system="so13", k=0.5)
        res = normalization_integral(sol)
        assert res.finite
        assert res.boundary_vanishes
        assert res.value < 0 < res.abs_value  # signed weight is negative on (0,1)
        assert abs(res.value) == pytest.approx(res.abs_value)

    def test_boundary_vanishing(self):
        sol = ClosedFormSolution(system="so13", k=0.5)
        b0, b1 = so13_boundary_values(sol, eps=1e-3)
        B0, B1 = so13_boundary_values(sol, eps=1e-4)
        assert abs(B0) < abs(b0) and abs(B1) < abs(b1)
        assert abs(B0) < 1e-6 and abs(B1) < 1e-3


class TestNoBoundStates:
    def test_monotone_drift_above_continuum_bottom(self):
        scan = so13_lowest_eigenvalue_scan([0.1, 0.05, 0.025, 0.0125])
        assert all(a > b for a, b in zip(scan, scan[1:]))
        assert all(v >= -2.0 for v in scan)  # q = -2r^2 >= -2 on (0,1)


def test_import_leaves_quadrature_unloaded():
    # only normalization_integral needs scipy.integrate, and its import costs
    # every process that imports pdmlab.spectral
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pdmlab.spectral; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
