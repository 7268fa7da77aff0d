"""Radial eigenvalue solver, closed-form residual oracles, normalization."""

import math
import subprocess
import sys

import numpy as np
import pytest

from pdmlab import spectral
from pdmlab.spectral import (
    ClosedFormSolution,
    RadialProblem,
    besselj,
    closed_form_residual,
    count_eigenvalues_below,
    fd_eigensystem,
    fd_eigenvalues,
    hyp2f1,
    hyp2f1_poly_coeffs,
    liouville_q_residual,
    normalization_integral,
    richardson_eigenvalues,
    so13_boundary_values,
    so13_lowest_eigenvalue_scan,
    so4_residual_expr,
    so4_wavefunction_expr,
    sturm_liouville_form,
)
from pdmlab.symkernel import ProvedZero, diff, evaluate, is_provably_zero, is_zero, x1
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

    @pytest.mark.parametrize("system", ["so4", "so13"])
    def test_liouville_transform_proves(self, system):
        # the Q of the FD bands is the Liouville transform of (p, q, w) for
        # every l: l(l+1) is a parameter of the proof
        assert is_zero(liouville_q_residual(system)) == ProvedZero()

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
        with pytest.raises(ValueError):  # the compact problem is the whole half-line
            RadialProblem(r_max=30.0)
        with pytest.raises(ValueError):  # the lorentz one needs both ends
            RadialProblem(system="so13", r_max=0.9)


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

    def test_oscillation_count(self):
        # number of eigenvalues below the third level's upper neighborhood
        # equals the number of admissible n
        prob = RadialProblem()
        vals = fd_eigenvalues(prob, 4)
        bound = 0.5 * (vals[2] + vals[3])
        assert count_eigenvalues_below(prob, bound) == 3

    def test_eigensystem_rejects_what_eigenvalues_rejects(self):
        # a grid of N interior points has N levels, and asking for more is
        # an error, not a shorter table
        prob = RadialProblem(grid_points=16)
        assert len(fd_eigenvalues(prob, 16)) == len(fd_eigensystem(prob, 16)[0]) == 16
        for solve in (fd_eigenvalues, fd_eigensystem):
            with pytest.raises(ValueError):
                solve(prob, 17)

    @pytest.mark.parametrize("l", [0, 1, 3])
    def test_one_solve_per_table(self, l, monkeypatch):
        # both ends of the t-grid are exact Dirichlet ends: the ten levels
        # come from one call, with no refit
        calls = []
        solve = spectral.eigh_tridiagonal

        def spy(q, h, count, vectors=False):
            calls.append((len(q), count, vectors))
            return solve(q, h, count, vectors)

        monkeypatch.setattr(spectral, "eigh_tridiagonal", spy)
        vals = fd_eigenvalues(RadialProblem(l=l, grid_points=20000), 10)
        assert calls == [(20000, 10, False)]
        exact = np.array([4.0 * n * n + 1 for n in range(l + 1, l + 11)])
        assert np.max(np.abs(np.array(vals) - exact) / exact) < 1e-6

    def test_eigensystem_values_equal_eigenvalues(self):
        prob = RadialProblem(grid_points=20000)
        vals, _, vecs = fd_eigensystem(prob, 10)
        assert vecs.shape == (prob.grid_points, 10)
        assert np.array_equal(vals, fd_eigenvalues(prob, 10))

    def test_eigenvector_matches_closed_form(self):
        vals, r, vecs = fd_eigensystem(RadialProblem(), 2)
        for i, n in enumerate((1, 2)):
            phi = so4_wavefunction_expr(n, 0)
            ref = np.array([evaluate(phi, (ri, 0, 0)) for ri in r])
            v = vecs[:, i]
            c = np.dot(ref, v) / np.dot(v, v)
            rel = np.linalg.norm(ref - c * v) / np.linalg.norm(ref)
            assert rel < 1e-2
            # phi(r) on r = tan t has unit weight-1 norm on the half-line
            assert abs(np.trapezoid(v * v, r) - 1.0) < 1e-3


def _problem(system, l, n):
    if system == "so4":
        return RadialProblem(l=l, grid_points=n)
    return RadialProblem(system="so13", l=l, r_min=0.05, r_max=0.95, grid_points=n)


def _dense(prob):
    """The FD matrix of prob as a dense array, from the bands the solver
    uses, and a bound on its norm."""
    h, q = spectral._potential(prob)
    off = np.full(len(q) - 1, -1.0 / h**2)
    dense = np.diag(2.0 / h**2 + q) + np.diag(off, 1) + np.diag(off, -1)
    return dense, 4.0 / h**2 + np.max(abs(q))


class TestEigensolver:
    @pytest.mark.parametrize("n", [16, 17, 40, 257])
    @pytest.mark.parametrize("l", [0, 1, 3])
    @pytest.mark.parametrize("system", ["so4", "so13"])
    def test_levels_match_dense_eigvalsh(self, system, l, n):
        # the lowest ten levels, and every level with count == grid; a missed
        # or doubled level moves a value by a level spacing, far above the
        # rounding of either solver
        prob = _problem(system, l, n)
        dense, norm = _dense(prob)
        exact = np.linalg.eigvalsh(dense)
        for count in (10, n):
            vals = np.array(fd_eigenvalues(prob, count))
            assert np.max(np.abs(vals - exact[:count])) <= 1e-12 * norm

    @pytest.mark.parametrize("n", [4000, 100000])
    def test_l0_closed_form(self, n):
        # at l = 0 the matrix is Toeplitz, with the eigenvalues
        # 1 + 4 sin^2(k h)/h^2; the Rayleigh quotients carry its digits, where
        # bisection on the 8e9 diagonal printed 5.000000238 for level 0
        h = (math.pi / 2) / (n + 1)
        vals = fd_eigenvalues(RadialProblem(grid_points=n), 10)
        exact = [1 + 4 * math.sin(k * h) ** 2 / h**2 for k in range(1, 11)]
        assert max(abs(v - e) / e for v, e in zip(vals, exact)) <= 1e-12

    @pytest.mark.parametrize("n", [17, 257])
    @pytest.mark.parametrize("l", [0, 3])
    @pytest.mark.parametrize("system", ["so4", "so13"])
    def test_sturm_count_against_dense(self, system, l, n):
        # midpoints of consecutive levels, seeded random shifts, and each
        # diagonal value exactly (a zero first pivot; at l = 0 and odd n also
        # an eigenvalue); the count may go either way only within rounding
        # of an eigenvalue
        prob = _problem(system, l, n)
        dense, norm = _dense(prob)
        exact = np.linalg.eigvalsh(dense)
        rng = np.random.default_rng(7)
        shifts = [*(exact[1:] + exact[:-1]) / 2,
                  *rng.uniform(exact[0] - 10, exact[-1] + 10, 50), *np.diag(dense)]
        slack = 1e-12 * norm
        for x in shifts:
            below = count_eigenvalues_below(prob, x)
            assert np.sum(exact < x - slack) <= below <= np.sum(exact <= x + slack), x

    def test_planted_start_vector_raises(self, monkeypatch):
        # level 10 certifies a table of ten: with its eigenvector
        # sin(11 pi i/(n+1)) planted out of the start vector, Lanczos
        # converges to levels 0-9 and 11, and the Sturm count finds eleven
        # eigenvalues below their midpoint
        n = 4000
        start = spectral._start_vector
        level10 = np.sin(11 * np.pi * np.arange(1, n + 1) / (n + 1))

        def planted(size):
            v = start(size)
            return v - (v @ level10) / (level10 @ level10) * level10

        monkeypatch.setattr(spectral, "_start_vector", planted)
        with pytest.raises(spectral.EigensolveError, match="^11 eigenvalues lie below"):
            fd_eigenvalues(RadialProblem(grid_points=n), 10)

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_max_steps", lambda count, n: 12)
        with pytest.raises(spectral.EigensolveError,
                           match="^Lanczos did not converge to 11 levels in 12 steps$"):
            fd_eigenvalues(RadialProblem(grid_points=2000), 10)

    def test_memory_bound(self):
        # min(grid, 3 count + 24) x grid may not pass 8,000,000 values (64 MB):
        # ten levels of 100,000 points fit; nineteen do not, nor does one
        # level of 300,000 points, whose basis count x grid alone misses
        assert spectral.MAX_BASIS_VALUES == 8_000_000
        for count, grid in ((19, 100000), (1, 300000)):
            with pytest.raises(ValueError, match="memory bound"):
                fd_eigenvalues(RadialProblem(grid_points=grid), count)


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

    def test_divergent_series_raises(self):
        # |z| > 1 and no term vanishes: the terms overflow, and an inf sum
        # would pass the stop test inf <= inf
        with pytest.raises(ArithmeticError):
            hyp2f1(0.7, 0.2, 1.5, -4.0)

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
        # acceptance criterion 7's points: the operator is applied in floats,
        # so the residual is rounding, not the zero of the symbolic proof
        pts = np.linspace(0.1, 3.0, 25)
        for n, l in [(1, 0), (2, 0), (2, 1), (3, 2)]:
            sol = ClosedFormSolution(system="so4", n=n, l=l)
            assert 0.0 < closed_form_residual(sol, pts) < 1e-10

    def test_wrong_eigenvalue_shows(self, monkeypatch):
        # Lambda = 4n^2 + 2 in place of 4n^2 + 1
        apply = spectral._radial_residual
        monkeypatch.setattr(spectral, "_radial_residual",
                            lambda sign, ll, lam, *rest: apply(sign, ll, lam + 1, *rest))
        pts = np.linspace(0.1, 3.0, 25)
        for n, l in [(1, 0), (2, 0), (2, 1), (3, 2)]:
            sol = ClosedFormSolution(system="so4", n=n, l=l)
            assert closed_form_residual(sol, pts) > 1e-3

    @pytest.mark.parametrize("system, pts", [("so4", np.linspace(0.1, 3.0, 25)),
                                             ("so13", np.linspace(0.05, 0.85, 25))])
    def test_nan_residual_shows(self, monkeypatch, system, pts):
        # max(0.0, nan) is 0.0: one nan sample must not read as a pass
        apply = spectral._radial_residual
        monkeypatch.setattr(spectral, "_radial_residual",
                            lambda sign, ll, lam, r, *rest:
                            math.nan if r == pts[12] else apply(sign, ll, lam, r, *rest))
        sol = ClosedFormSolution(system=system, n=2, l=1, k=0.25)
        assert math.isnan(closed_form_residual(sol, pts))

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
        for n, l in ((1.5, 0), (2, 0.5), (2.0, 0)):
            with pytest.raises(ValueError, match="integers"):
                ClosedFormSolution(system="so4", n=n, l=l)
        with pytest.raises(ValueError):
            ClosedFormSolution(system="so13", k=1.5)
        # phi's second derivative and the normalization need an integer l >= 0
        for l in (0.5, -2, 1.0):
            with pytest.raises(ValueError, match="integer l"):
                ClosedFormSolution(system="so13", k=0.5, l=l)
        with pytest.raises(ValueError):
            ClosedFormSolution(system="scale", kappa=0, etilde=3.0)
        with pytest.raises(ValueError):
            ClosedFormSolution(system="scale", omega=0.0)

    def test_fd_derivative_cross_check_so13(self):
        # independent check of the analytic derivative chain
        self._fd_cross_check(-1, 0.4, 0, (0.3, 0.7))

    @pytest.mark.parametrize("n, l", [(1, 0), (2, 0), (2, 1), (3, 2)])
    def test_fd_derivative_cross_check_so4(self, n, l):
        # the same chain with z = -r^2, past r = 1 where z < -1
        self._fd_cross_check(1, n, l, (0.3, 0.7, 2.0))

    @staticmethod
    def _fd_cross_check(sign, nu, l, radii):
        def phi(r, d=0):
            return spectral._phi(sign, nu, l, r, d)

        h = 1e-5
        for r in radii:
            fd1 = (phi(r + h) - phi(r - h)) / (2 * h)
            assert abs(fd1 - phi(r, 1)) < 1e-7
            fd2 = (phi(r + h) - 2 * phi(r) + phi(r - h)) / h**2
            assert abs(fd2 - phi(r, 2)) < 1e-4

    def test_float_so4_phi_matches_the_exact_expression(self):
        # the sampled phi is the proved one, at criterion 7's points
        for n, l in [(1, 0), (2, 0), (2, 1), (3, 2)]:
            exact = so4_wavefunction_expr(n, l)
            for r in np.linspace(0.1, 3.0, 25):
                want = evaluate(exact, (r, 0.0, 0.0))
                assert spectral._phi(1, n, l, r) == pytest.approx(want, rel=1e-13, abs=0)


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
        scan = so13_lowest_eigenvalue_scan([0.1, 0.05, 0.025, 0.0125, 1e-4])
        assert all(a > b for a, b in zip(scan, scan[1:]))
        # Q + 1 = l(l+1)(1-r^2)^2/r^2 >= 0 and -u'' is positive definite
        assert all(v > -1.0 for v in scan)
        assert scan[-1] < -0.5  # -1 + (pi/T)^2 at T = artanh(1 - 1e-4)


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


def test_closed_form_numerics_load_no_kernel():
    # phi, phi' and phi'' are floats from one series: only the symbolic
    # proofs build kernel expressions
    code = ("import sys\n"
            "from pdmlab.spectral import ClosedFormSolution as S, closed_form_residual,"
            " normalization_integral\n"
            "print(closed_form_residual(S('so4', n=3, l=1), [0.5, 2.0]) < 1e-10,"
            " closed_form_residual(S('so13', k=0.25), [0.5]) < 1e-10,"
            " normalization_integral(S('so4', n=2, l=1)).value > 0,"
            " 'pdmlab.symkernel' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "True", "False"]


def test_solves_load_no_scipy_linalg_and_scale_loads_no_numpy(tmp_path):
    # the eigensolver is numpy alone: scipy.linalg costs about 0.3 s and 28 MB
    # to import and brings in dataclasses; the scale system solves no matrix,
    # so neither the import of spectral nor its command loads numpy
    code = ("import sys, pdmlab.spectral\n"
            "print('numpy' in sys.modules)\n"
            "from pdmlab.cli import main\n"
            "main(['spectrum', '--system', 'scale'])\n"
            "print('numpy' in sys.modules)\n"
            "main(['spectrum', '--system', 'so4', '--count', '3', '--grid', '2000',"
            " '--dump', 'phi.txt'])\n"
            "print(sorted({'numpy', 'scipy.linalg', 'dataclasses'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False" and lines[3] == "False"
    assert lines[1].startswith("system,kappa")
    assert lines[4].startswith("system,l_or_kappa")
    assert lines[-1] == "['numpy']"
