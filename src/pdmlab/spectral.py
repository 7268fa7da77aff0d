"""Numerical verification of the exactly solvable systems: finite-difference
Sturm-Liouville eigenvalues for the radial problems, the algebraic levels of
the compact system that they are compared with, closed-form residual
oracles for the hypergeometric and Bessel solutions, and
normalization-integral diagnostics.

The radial operators in self-adjoint form -(p phi')' + q phi = Lambda w phi:

    compact:  -( (r^2+1)^2 phi' )' + [ (r^2+1)^2 l(l+1)/r^2 - 2 r^2 ] phi
              = (4n^2+1) phi
    lorentz:  same with (r^2-1)^2, eigenvalue Etilde + 4
    scale:    cylindrical radial equation, solved by Bessel functions

Both radial problems are solved in Liouville normal form (Pryce, Numerical
Solution of Sturm-Liouville Problems, 1993, ch. 2): with t = int sqrt(w/p) dr
and phi = (pw)^(-1/4) u the equation becomes -u'' + Q(t) u = Lambda u.

    compact:  r = tan t,  t in (0, pi/2),  Q = 4 l(l+1)/sin^2(2t) + 1
    lorentz:  r = tanh t, t in (artanh r_min, artanh r_max),
              Q = 4 l(l+1)/sinh^2(2t) - 1

liouville_q_residual proves both Q from (p, q, w).  The compact map takes the
whole half-line onto a finite interval whose ends take exact Dirichlet
conditions, so the lowest levels come from one symmetric tridiagonal solve
on a uniform t-grid.  Every eigenvalue is bisected to the absolute tolerance
EIG_TOL (Barth, Martin & Wilkinson 1967), so the printed digits are those of
the discretization, not of the bisection.  Since dt = sqrt(w/p) dr, the
l2 norm of u in t is the weighted norm of phi in r.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import read_only

# Absolute bisection tolerance of every eigenvalue solve.  scipy's default,
# eps * ||T||, is about 8e-3 on a 100,000-point grid, coarser than the
# printed digits.
EIG_TOL = 1e-10


class GridCoarseWarning(UserWarning):
    pass


class RadialProblem:
    """The radial problem of system 'so4' (compact) on the whole half-line
    r > 0, or of 'so13' (lorentz) on a subdomain (r_min, r_max) of (0, 1),
    discretized at grid_points interior points of the Liouville variable t.

    The cylindrical 'scale' system has no finite-difference problem: its
    Bessel solutions are checked by closed_form_residual.
    """

    __slots__ = ("system", "l", "r_min", "r_max", "grid_points")
    __setattr__ = __delattr__ = read_only

    def __init__(self, system: str = "so4", l: int = 0, r_min: float | None = None,
                 r_max: float | None = None, grid_points: int = 4000):
        if system not in ("so4", "so13"):
            raise ValueError(f"no radial FD problem for system {system!r}"
                             " (the scale system is handled by the Bessel path)")
        if grid_points < 16:
            raise ValueError("grid too small (need at least 16 points)")
        if l < 0:
            raise ValueError("l must be nonnegative")
        if system == "so4" and (r_min, r_max) != (None, None):
            raise ValueError("the compact radial problem is solved on the whole"
                             " half-line and takes no r_min or r_max")
        if system == "so13" and not (
                r_min is not None and r_max is not None and 0 < r_min < r_max < 1):
            raise ValueError("the lorentz radial problem lives on a subdomain"
                             " (r_min, r_max) of (0,1)")
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "r_min", r_min)
        object.__setattr__(self, "r_max", r_max)
        object.__setattr__(self, "grid_points", grid_points)

    def with_grid(self, grid_points: int) -> "RadialProblem":
        return RadialProblem(self.system, self.l, self.r_min, self.r_max, grid_points)


def sturm_liouville_form(prob: RadialProblem):
    """Self-adjoint coefficients (p, q, w) as callables with
    -(p phi')' + q phi = Lambda w phi reproducing the radial operator."""
    return _coefficients(1 if prob.system == "so4" else -1, prob.l * (prob.l + 1))


def _coefficients(sign: int, ll):
    """(p, q, w) for sign +1 (compact) or -1 (lorentz) and ll = l(l+1).  The
    callables take floats, arrays and kernel expressions alike, and ll may
    be a kernel parameter."""
    def p(r):
        return (r * r + sign) ** 2

    def q(r):
        return (r * r + sign) ** 2 * ll / (r * r) - 2 * r * r

    def w(r):
        return r**0

    return p, q, w


def liouville_q_residual(system: str):
    """Q built from (p, q, w) by the Liouville transform, minus the closed Q
    that the FD solve uses, as a kernel expression in x1 := r and the
    parameter L := l(l+1); it normalizes to zero for both radial systems.

    With s = +1 (so4) or -1 (so13): d/dt = sqrt(p/w) d/dr = (1 + s r^2) d/dr,
    m = (pw)^(1/4) = (1 + s r^2)^(1/2), and Q = q/w + (d^2 m/dt^2) / m.  The
    closed Q is 4L/sin^2(2t) + 1 with sin 2t = 2r/(1 + r^2) on r = tan t, or
    4L/sinh^2(2t) - 1 with sinh 2t = 2r/(1 - r^2) on r = tanh t.
    """
    from .symkernel import diff, param, pow_, x1

    if system not in ("so4", "so13"):
        raise ValueError(f"no radial problem for system {system!r}")
    s = 1 if system == "so4" else -1
    ll = param("L")
    _, q, w = _coefficients(s, ll)
    g = 1 + s * x1 * x1  # sqrt(p/w): p = (r^2 + s)^2, w = 1, and g > 0 on the domain
    m = pow_(g, Fraction(1, 2))

    def d_dt(e):
        return g * diff(e, 1)

    built = q(x1) / w(x1) + d_dt(d_dt(m)) / m
    sin2t = 2 * x1 / g
    return built - (4 * ll / sin2t**2 + s)


def _grid_and_bands(prob: RadialProblem):
    """(r, h, diag, off): the interior points of the uniform t-grid mapped
    to r, the step h in t, and the bands of -u'' + Q u with u = 0 at both
    ends."""
    n = prob.grid_points
    ll = prob.l * (prob.l + 1)
    if prob.system == "so4":
        t0, t1 = 0.0, math.pi / 2
    else:
        t0, t1 = math.atanh(prob.r_min), math.atanh(prob.r_max)
    h = (t1 - t0) / (n + 1)
    t = t0 + h * np.arange(1, n + 1)
    if prob.system == "so4":
        r, q = np.tan(t), 4.0 * ll / np.sin(2.0 * t) ** 2 + 1.0
    else:
        r, q = np.tanh(t), 4.0 * ll / np.sinh(2.0 * t) ** 2 - 1.0
    return r, h, 2.0 / h**2 + q, np.full(n - 1, -1.0 / h**2)


def fd_eigenvalues(prob: RadialProblem, count: int, check_refinement: bool = False):
    """Lowest eigenvalues of the symmetric finite-difference discretization,
    ascending and deterministic."""
    if count <= 0:
        return []
    vals = _fd_solve(prob, count)[0]
    if check_refinement:
        # the half grid may hold fewer than count levels: compare those it has
        coarse_prob = prob.with_grid(max(16, prob.grid_points // 2))
        coarse = _fd_solve(coarse_prob, min(count, coarse_prob.grid_points))[0]
        fine = vals[:len(coarse)]
        drift = np.max(np.abs(fine - coarse) / (1 + np.abs(fine)))
        if drift > 1e-2:
            warnings.warn(
                f"grid may be too coarse: refinement drift {drift:.2e}",
                GridCoarseWarning,
            )
    return list(vals)


def _fd_solve(prob: RadialProblem, count: int, vectors: bool = False):
    """(eigenvalues, r, eigenfunctions phi(r) as columns or None) of the
    lowest count levels from one solve; the one solver behind every public
    FD function.  Each phi has unit weighted norm, int phi^2 w dr = 1."""
    if count > prob.grid_points:
        raise ValueError(f"{count} levels asked of a grid with {prob.grid_points} points")
    r, h, diag, off = _grid_and_bands(prob)
    out = eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1),
                           eigvals_only=not vectors, tol=EIG_TOL)
    if not vectors:
        # the values are a view into a work array as long as the grid; the
        # copy lets that array go
        return out.copy(), r, None
    vals, u = out
    # phi = (pw)^(-1/4) u, and the unit l2 columns divided by sqrt(h) have
    # int u^2 dt = 1
    sign = 1.0 if prob.system == "so4" else -1.0
    return vals, r, u / np.sqrt(h * (1.0 + sign * r * r))[:, None]


def eigh_tridiagonal(d, e, **kwargs):
    """scipy.linalg.eigh_tridiagonal, imported on the first solve: importing
    scipy.linalg costs about 0.4 s, and commands that never solve (the
    scale system) need none of it."""
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(d, e, **kwargs)


def fd_eigensystem(prob: RadialProblem, count: int):
    """(eigenvalues, r, eigenfunctions phi(r) as columns) of the lowest
    count levels, with unit weighted norm, on the grid of fd_eigenvalues."""
    return _fd_solve(prob, count, vectors=True)


def richardson_eigenvalues(prob: RadialProblem, count: int):
    """Richardson extrapolation of the O(h^2) scheme from N and 2N points."""
    coarse = _fd_solve(prob, count)[0]
    fine = _fd_solve(prob.with_grid(2 * prob.grid_points), count)[0]
    return list((4.0 * fine - coarse) / 3.0)


def count_eigenvalues_below(prob: RadialProblem, bound: float) -> int:
    """Sturm oscillation bookkeeping: discrete eigenvalues below a bound of
    the Dirichlet-truncated problem."""
    _, _, diag, off = _grid_and_bands(prob)
    return len(eigh_tridiagonal(diag, off, select="v", select_range=(-np.inf, bound),
                                eigvals_only=True, tol=EIG_TOL))


# ---------------------------------------------------------------------------
# hypergeometric and Bessel series (kept independent of the operators they
# certify: plain term-by-term summation, exact rational coefficients in the
# terminating case)
# ---------------------------------------------------------------------------


def hyp2f1_poly_coeffs(a: Fraction, b: Fraction, c: Fraction):
    """Exact coefficients of the terminating series sum (a)_k (b)_k / ((c)_k k!) z^k;
    requires a or b to be a nonpositive integer."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    stop = None
    for v in (a, b):
        if v.denominator == 1 and v <= 0:
            stop = int(-v)
            break
    if stop is None:
        raise ValueError("series does not terminate")
    coeffs = [Fraction(1)]
    term = Fraction(1)
    for k in range(stop):
        term = term * (a + k) * (b + k) / ((c + k) * (k + 1))
        coeffs.append(term)
    return coeffs


def hyp2f1(a: float, b: float, c: float, z: float, tol: float = 1e-16) -> float:
    """Gauss series at |z| < 1 (or any z when terminating); near z = 1 the
    standard connection formula in 1 - z is used unless c - a - b is an
    integer (where the direct series still converges acceptably)."""
    s = c - a - b
    if 0.9 < z < 1.0 and abs(s - round(s)) > 1e-9:
        A = math.gamma(c) * math.gamma(s) / (math.gamma(c - a) * math.gamma(c - b))
        B = math.gamma(c) * math.gamma(-s) / (math.gamma(a) * math.gamma(b))
        w = 1.0 - z
        return A * _hyp_series(a, b, 1.0 - s, w, tol) + B * w**s * _hyp_series(
            c - a, c - b, 1.0 + s, w, tol
        )
    return _hyp_series(a, b, c, z, tol)


def _hyp_series(a: float, b: float, c: float, z: float, tol: float) -> float:
    total = 1.0
    term = 1.0
    for k in range(0, 200000):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        if abs(term) <= tol * max(1.0, abs(total)):
            return total
    raise ArithmeticError("hypergeometric series did not converge")


def besselj(beta: float, s: float, derivative: int = 0, tol: float = 1e-17) -> float:
    """J_beta(s) and its term-wise differentiated series (derivative 0, 1, 2)."""
    if s <= 0:
        raise ValueError("series evaluation needs s > 0")
    half = s / 2.0
    total = 0.0
    m = 0
    while m < 400:
        p = 2 * m + beta
        c = (-1.0) ** m / (math.factorial(m) * math.gamma(m + beta + 1))
        if derivative == 0:
            t = c * half**p
        elif derivative == 1:
            t = c * p * 0.5 * half ** (p - 1) if p != 0 else 0.0
        else:
            t = c * p * (p - 1) * 0.25 * half ** (p - 2) if p not in (0.0, 1.0) else 0.0
        total += t
        if m > 4 and abs(t) <= tol * max(1.0, abs(total)):
            break
        m += 1
    return total


# ---------------------------------------------------------------------------
# the algebraic spectrum of the compact system
# ---------------------------------------------------------------------------


class So4Level(NamedTuple):
    n: int
    etilde: int                      # 4 n^2 + 5
    energy: object                   # the kernel expression mu (4 n^2 + 5) + nu
    mu_coeff: int
    nu_coeff: int
    allowed_l: tuple
    degeneracy: int                  # sum of 2l+1 over allowed l


def algebraic_spectrum_so4(n: int) -> So4Level:
    """Level n >= 1 of the compact system: the Casimir C1 of the so(4)
    realization (pdmlab.casimir) has the eigenvalue n^2 - 1, which gives the
    rescaled energy 4n^2 + 5; angular momentum runs over l <= n - 1."""
    from .symkernel import normalize, param

    if n < 1:
        raise ValueError("level index must be a positive integer")
    etilde = 4 * n * n + 5
    mu, nu = param("mu"), param("nu")
    energy = normalize(mu * etilde + nu)
    allowed = tuple(range(0, n))
    return So4Level(
        n=n,
        etilde=etilde,
        energy=energy,
        mu_coeff=etilde,
        nu_coeff=1,
        allowed_l=allowed,
        degeneracy=sum(2 * l + 1 for l in allowed),
    )


# ---------------------------------------------------------------------------
# closed-form solutions and residual oracles
# ---------------------------------------------------------------------------


class ClosedFormSolution:
    """system 'so4': quantum numbers (n, l), terminating polynomial solution;
    system 'so13': (k, l) with k in (0,1), infinite series inside r < 1;
    system 'scale': (kappa, etilde, omega) Bessel solution with index
    beta = sqrt(kappa^2 + 1 - etilde)."""

    __slots__ = ("system", "n", "l", "k", "kappa", "etilde", "omega")
    __setattr__ = __delattr__ = read_only

    def __init__(self, system: str, n: int = 0, l: int = 0, k: float = 0.0, kappa: int = 0,
                 etilde: float = 0.0, omega: float = 1.0):
        if system == "so4":
            if not (n >= 1 and 0 <= l <= n - 1):
                raise ValueError("need n >= 1 and l <= n-1 (terminating series)")
        elif system == "so13":
            if not 0 < k < 1:
                raise ValueError("need 0 < k < 1")
        elif system == "scale":
            if kappa**2 + 1 - etilde < 0:
                raise ValueError("index squared kappa^2 + 1 - Etilde is negative")
            if omega <= 0:
                raise ValueError("need omega > 0 (J_beta is evaluated at omega t, t > 0)")
        else:
            raise ValueError(f"unknown system {system!r}")
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "etilde", etilde)
        object.__setattr__(self, "omega", omega)


def so4_wavefunction_expr(n: int, l: int):
    """Exact radial eigenfunction as a kernel expression in x1 := r:
    (1+r^2)^(-n-1/2) r^(l+1) P(-r^2) with P the terminating series."""
    from .symkernel import pow_, x1
    from .symkernel.expr import Num, add, mul

    coeffs = hyp2f1_poly_coeffs(Fraction(-n + l + 1), Fraction(-2 * n + 1, 2),
                                Fraction(3 + 2 * l, 2))
    z = mul(-1, x1, x1)
    poly = add(*(mul(Num(Fraction(cv)), pow_(z, k)) for k, cv in enumerate(coeffs)))
    return mul(
        pow_(add(1, mul(x1, x1)), Fraction(-(2 * n + 1), 2)),
        pow_(x1, Fraction(l + 1)),
        poly,
    )


def so4_residual_expr(n: int, l: int):
    """Exact symbolic residual L(phi) - (4n^2+1) phi in x1 := r."""
    from .symkernel import diff, x1
    from .symkernel.expr import add, mul

    phi = so4_wavefunction_expr(n, l)
    d1 = diff(phi, 1)
    d2 = diff(d1, 1)
    r2p1 = add(1, mul(x1, x1))
    lam = 4 * n * n + 1
    lphi = (
        mul(-1, r2p1, r2p1, add(d2, mul(-l * (l + 1), phi, x1**-2)))
        + mul(-4, x1, r2p1, d1)
        + mul(-2, x1, x1, phi)
    )
    return lphi - lam * phi


def _so13_phi(sol: ClosedFormSolution, r: float, derivative: int = 0) -> float:
    """Value/derivatives of (1-r^2)^(-1/2-k) r^(l+1) F(a,b;c;r^2)."""
    k, l = sol.k, sol.l
    a, b, c = -k + l + 1, -k + 0.5, 1.5 + l
    u = r * r
    sig = -0.5 - k
    A = (1 - u) ** sig
    B = r ** (l + 1)
    F0 = hyp2f1(a, b, c, u)
    if derivative == 0:
        return A * B * F0
    dA = sig * (1 - u) ** (sig - 1) * (-2 * r)
    dB = (l + 1) * r**l
    F1 = a * b / c * hyp2f1(a + 1, b + 1, c + 1, u)
    dC = F1 * 2 * r
    if derivative == 1:
        return dA * B * F0 + A * dB * F0 + A * B * dC
    d2A = sig * (sig - 1) * (1 - u) ** (sig - 2) * 4 * r * r + sig * (1 - u) ** (sig - 1) * (-2)
    d2B = (l + 1) * l * r ** (l - 1) if l >= 1 else 0.0
    F2 = a * (a + 1) * b * (b + 1) / (c * (c + 1)) * hyp2f1(a + 2, b + 2, c + 2, u)
    d2C = F2 * 4 * r * r + 2 * F1
    return (
        d2A * B * F0
        + 2 * dA * dB * F0
        + 2 * dA * B * dC
        + A * d2B * F0
        + 2 * A * dB * dC
        + A * B * d2C
    )


def closed_form_residual(sol: ClosedFormSolution, sample_points) -> float:
    """max |L phi - Lambda phi| / max(1, |Lambda phi|) over the samples."""
    worst = 0.0
    if sol.system == "so4":
        from .symkernel import evaluate

        res = so4_residual_expr(sol.n, sol.l)
        phi = so4_wavefunction_expr(sol.n, sol.l)
        lam = 4 * sol.n**2 + 1
        for r in sample_points:
            num = abs(evaluate(res, (r, 0.0, 0.0)))
            den = max(1.0, abs(lam * evaluate(phi, (r, 0.0, 0.0))))
            worst = max(worst, num / den)
        return worst
    if sol.system == "so13":
        etilde = -4.0 * sol.k**2 - 5.0
        lam = etilde + 4.0
        ll = sol.l * (sol.l + 1)
        for r in sample_points:
            if not 0 < r < 1:
                raise ValueError("samples must lie inside (0, 1)")
            phi0 = _so13_phi(sol, r, 0)
            phi1 = _so13_phi(sol, r, 1)
            phi2 = _so13_phi(sol, r, 2)
            lphi = (
                -((r * r - 1) ** 2) * (phi2 - ll / (r * r) * phi0)
                - 4 * r * (r * r - 1) * phi1
                - 2 * r * r * phi0
            )
            den = max(1.0, abs(lam * phi0))
            worst = max(worst, abs(lphi - lam * phi0) / den)
        return worst
    # scale system: Phi = J_beta(omega rt)/rt against the cylindrical equation
    beta = math.sqrt(sol.kappa**2 + 1 - sol.etilde)
    w = sol.omega
    lam = sol.etilde - sol.kappa**2
    for t in sample_points:
        if t <= 0:
            raise ValueError("samples must be positive")
        s = w * t
        J0, J1, J2 = (besselj(beta, s, d) for d in (0, 1, 2))
        phi0 = J0 / t
        phi1 = w * J1 / t - J0 / t**2
        phi2 = w * w * J2 / t - 2 * w * J1 / t**2 + 2 * J0 / t**3
        lphi = -t * t * (phi2 + w * w * phi0) - 3 * t * phi1
        den = max(1.0, abs(lam * phi0))
        worst = max(worst, abs(lphi - lam * phi0) / den)
    return worst


# ---------------------------------------------------------------------------
# normalization diagnostics
# ---------------------------------------------------------------------------


class NormalizationResult(NamedTuple):
    value: float
    finite: bool
    tail_exponent: float
    boundary_vanishes: bool | None = None
    abs_value: float | None = None


def normalization_integral(sol: ClosedFormSolution) -> NormalizationResult:
    """Quadrature of the declared metric plus a tail-exponent verdict.

    so4: integral of phi^2 on (0, inf); the integrand decays like
    r^(-2l-4), always integrable.
    so13: signed integral of phi^2 (r^2-1)^3 on (0,1); the integrand behaves
    like (1-r^2)^(2-2k) near r=1 and vanishes at both ends for k < 1.
    """
    # imported here: scipy.integrate costs every importer of this module
    # about a third of a second, and only this function uses it
    from scipy.integrate import quad

    if sol.system == "so4":
        from .symkernel import evaluate

        phi = so4_wavefunction_expr(sol.n, sol.l)

        def f(r):
            return evaluate(phi, (r, 0.0, 0.0)) ** 2

        val, _ = quad(f, 0.0, np.inf, limit=200)
        return NormalizationResult(value=val, finite=True, tail_exponent=-2 * sol.l - 4)
    if sol.system == "so13":
        def f(r):
            v = _so13_phi(sol, r, 0)
            return v * v * (r * r - 1) ** 3

        cut = 1e-3
        val, _ = quad(f, 0.0, 1.0 - cut, limit=200)
        aval, _ = quad(lambda r: abs(f(r)), 0.0, 1.0 - cut, limit=200)
        edge_exp = 2.0 - 2.0 * sol.k
        return NormalizationResult(
            value=val,
            finite=edge_exp > -1.0,
            tail_exponent=edge_exp,
            boundary_vanishes=(edge_exp > 0.0) and (sol.l + 1 > 0),
            abs_value=aval,
        )
    raise ValueError("normalization diagnostics cover the so4 and so13 solutions")


def so13_boundary_values(sol: ClosedFormSolution, eps: float = 1e-3):
    """Metric-weighted integrand near both endpoints (boundary-vanishing check)."""
    def f(r):
        v = _so13_phi(sol, r, 0)
        return v * v * (r * r - 1) ** 3

    return f(eps), f(1.0 - eps)


def dump_eigenfunction(prob: RadialProblem, eigensystem, index: int, path: str) -> None:
    """Two-column (r, phi) plot-ready dump of eigenfunction index of the
    (eigenvalues, r, phi) that fd_eigensystem(prob, count) returned, with
    count > index, with unit weighted norm and its largest value positive.

    Each value is bisected to EIG_TOL whatever count is, so a caller that
    solves max(table size, index + 1) levels once for both its table and
    the dump gets the table of fd_eigenvalues: the same values when index
    is below the table size, and values within EIG_TOL of them otherwise
    (about 4e-11 measured on so4 grids of 4,000 to 100,000 points, below
    the printed 10 digits).
    """
    vals, r, phi = eigensystem
    v = phi[:, index]
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    with open(path, "w") as fh:
        fh.write(f"# system={prob.system} l={prob.l} index={index} "
                 f"lambda={vals[index]:.12g}\n")
        for ri, vi in zip(r, v):
            fh.write(f"{ri:.10g} {vi:.10g}\n")


def so13_lowest_eigenvalue_scan(deltas, l: int = 0, grid: int = 1500, r_min: float = 1e-3):
    """Lowest FD eigenvalue of the lorentz problem on (r_min, 1-delta) for a
    shrinking sequence of deltas.  No level may reach the continuum bottom
    -1: Q + 1 = l(l+1)(1-r^2)^2/r^2 >= 0 and the FD matrix of -u'' is
    positive definite, so every truncated level has Lambda > -1, that is
    Etilde > -5."""
    out = []
    for d in deltas:
        prob = RadialProblem(system="so13", l=l, r_min=r_min, r_max=1.0 - d,
                             grid_points=grid)
        out.append(fd_eigenvalues(prob, 1)[0])
    return out
