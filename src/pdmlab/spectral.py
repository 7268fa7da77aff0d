"""Numerical verification of the exactly solvable systems: finite-difference
Sturm-Liouville eigenvalues for the compact radial problem, closed-form
residual oracles for the hypergeometric and Bessel solutions, and
normalization-integral diagnostics.

The radial operators in self-adjoint form:

    compact:  -( (r^2+1)^2 phi' )' + [ (r^2+1)^2 l(l+1)/r^2 - 2 r^2 ] phi
              = (4n^2+1) phi
    lorentz:  same with (r^2-1)^2, eigenvalue Etilde + 4
    scale:    cylindrical radial equation, solved by Bessel functions

Every eigenvalue is bisected to the absolute tolerance EIG_TOL (Barth,
Martin & Wilkinson 1967), so the printed digits are those of the
discretization, not of the bisection.  The matched outer boundary of the
compact system replaces the ghost value by the tail r^-2 (1 + a/r^2) and
refits a = -(Lambda+4)/6 to each level in three passes.  The first pass
has a = 0 for every level and solves the lowest `count` levels in one
call, giving mu_0 < mu_1 < ...  The two refits lower only the last
diagonal entry (a < 0), a negative rank-one change, so eigenvalue k of the
refit matrix lies in [mu_{k-1}, mu_k] by interlacing (Golub 1973), and in
[mu_0 + delta, mu_0] for k = 0, delta being the change of that entry
(Weyl).  Each refit bisects that bracket alone; when the change is not a
lowering or the bracket does not hold exactly one eigenvalue, the refit
asks for eigenvalue k by index instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

# Absolute bisection tolerance of every eigenvalue solve.  scipy's default,
# eps * ||T||, is about 8e-3 on a 100,000-point grid, coarser than the
# printed digits.
EIG_TOL = 1e-10


class GridCoarseWarning(UserWarning):
    pass


@dataclass(frozen=True)
class RadialProblem:
    """The radial problem of system 'so4' (compact) or 'so13' (lorentz) on
    (r_min, r_max), discretized at grid_points interior points.

    The cylindrical 'scale' system has no finite-difference problem: its
    Bessel solutions are checked by closed_form_residual.
    """

    system: str = "so4"
    l: int = 0
    r_min: float = 1e-3
    r_max: float = 30.0
    grid_points: int = 4000

    def __post_init__(self):
        if self.system not in ("so4", "so13"):
            raise ValueError(f"no radial FD problem for system {self.system!r}"
                             " (the scale system is handled by the Bessel path)")
        if self.r_min <= 0:
            raise ValueError("r_min must be positive")
        if self.grid_points < 16:
            raise ValueError("grid too small (need at least 16 points)")
        if self.l < 0:
            raise ValueError("l must be nonnegative")
        if self.system == "so13" and not (0 < self.r_min < self.r_max < 1):
            raise ValueError("the lorentz radial problem lives on a subdomain of (0,1)")


def sturm_liouville_form(prob: RadialProblem):
    """Self-adjoint coefficients (p, q, w) as callables with
    -(p phi')' + q phi = Lambda w phi reproducing the radial operator."""
    sign = 1.0 if prob.system == "so4" else -1.0
    ll = prob.l * (prob.l + 1)

    def p(r):
        return (r * r + sign) ** 2

    def q(r):
        return (r * r + sign) ** 2 * ll / (r * r) - 2.0 * r * r

    def w(r):
        return np.ones_like(np.asarray(r, dtype=float))

    return p, q, w


def exact_so4_eigenvalue(n: int) -> float:
    """Radial eigenvalue 4n^2 + 1 of the compact problem (n >= l+1)."""
    return 4.0 * n * n + 1.0


def _grid_and_bands(prob: RadialProblem):
    p, q, _ = sturm_liouville_form(prob)
    n = prob.grid_points
    h = (prob.r_max - prob.r_min) / (n + 1)
    r = prob.r_min + h * np.arange(1, n + 1)
    p_half = p(prob.r_min + h * (np.arange(0, n + 1) + 0.5))
    diag = (p_half[:-1] + p_half[1:]) / h**2 + q(r)
    off = -p_half[1:-1] / h**2
    return r, h, p_half, diag, off


def fd_eigenvalues(prob: RadialProblem, count: int, check_refinement: bool = False,
                   boundary: str | None = None):
    """Lowest eigenvalues of the symmetric finite-difference discretization,
    ascending and deterministic.

    boundary='dirichlet' clamps both ends to zero.  boundary='matched'
    (default for the compact system) replaces the ghost values by the known
    asymptotics, r^(l+1) at the inner edge and r^-2 (1 - (Lambda+4)/(6 r^2))
    at the outer edge; plain Dirichlet truncation leaves an O(1/R) outer
    flux error because p grows like r^4 while the l=0 eigenfunctions decay
    like r^-2.
    """
    if count <= 0:
        return []
    vals = _fd_solve(prob, count, boundary)[0]
    if check_refinement:
        coarse = _fd_solve(replace(prob, grid_points=max(16, prob.grid_points // 2)),
                           count, boundary)[0]
        drift = np.max(np.abs(vals - coarse) / (1 + np.abs(vals)))
        if drift > 1e-2:
            warnings.warn(
                f"grid may be too coarse: refinement drift {drift:.2e}",
                GridCoarseWarning,
            )
    return list(vals)


def _fd_solve(prob: RadialProblem, count: int, boundary: str | None, vectors: bool = False):
    """(eigenvalues, grid, eigenvectors as columns or None) of the lowest
    count levels; the one solver behind every public FD function."""
    boundary = boundary or ("matched" if prob.system == "so4" else "dirichlet")
    if boundary != "dirichlet" and (boundary, prob.system) != ("matched", "so4"):
        raise ValueError(f"no {boundary!r} boundary for the {prob.system} system"
                         " (dirichlet for both, matched for so4)")
    r, h, p_half, diag, off = _grid_and_bands(prob)
    count = min(count, prob.grid_points)
    if boundary == "dirichlet":
        vals, vecs = _eigh_range(diag, off, "i", (0, count - 1), vectors)
        return vals, r, vecs
    # matched: r^(l+1) at the inner edge, r^-2 (1 + a/r^2) at the outer one;
    # diag is the one working matrix, and each pass rewrites only diag[-1]
    g_in = (prob.r_min / (prob.r_min + h)) ** (prob.l + 1)
    diag[0] -= p_half[0] / h**2 * g_in
    last = diag[-1]
    rN, rN1 = r[-1], r[-1] + h

    def outer_diag(a):
        def tail(x):
            return x**-2.0 * (1.0 + a / (x * x))

        return last - p_half[-1] / h**2 * (tail(rN1) / tail(rN))

    diag[-1] = unfit = outer_diag(0.0)
    mu = _eigh_range(diag, off, "i", (0, count - 1), False)[0]
    vals, cols = np.empty(count), []
    for k in range(count):
        lam = mu[k]
        for final in (False, True):
            diag[-1] = outer_diag(-(lam + 4.0) / 6.0)
            lam, vecs = _refit(diag, off, mu, k, diag[-1] - unfit, vectors and final)
        vals[k] = lam
        cols.append(vecs)
    return vals, r, np.column_stack(cols) if vectors else None


def _refit(diag, off, mu, k, shift: float, vector: bool):
    """(eigenvalue k, its eigenvector as a column or None) of the matrix
    whose last diagonal entry is shift away from that of the a = 0 matrix
    with eigenvalues mu; a lowering brackets it (see the module docstring)."""
    if shift < 0:
        lo = mu[k - 1] if k else mu[0] + shift
        if lo < mu[k]:
            vals, vecs = _eigh_range(diag, off, "v", (lo, mu[k]), vector)
            if len(vals) == 1:
                return vals[0], vecs
    vals, vecs = _eigh_range(diag, off, "i", (k, k), vector)
    return vals[0], vecs


def _eigh_range(diag, off, select: str, select_range, vectors: bool):
    """Eigenvalues of the tridiagonal matrix chosen by index range
    (select="i", inclusive) or by value range (select="v", (lo, hi]), and
    their eigenvectors as columns when asked (else None)."""
    out = eigh_tridiagonal(diag, off, select=select, select_range=select_range,
                           eigvals_only=not vectors, tol=EIG_TOL)
    vals, vecs = out if vectors else (out, None)
    # the values are a view into a work array as long as the grid; the copy
    # lets that array go before the next solve
    return vals.copy(), vecs


def eigh_tridiagonal(d, e, **kwargs):
    """scipy.linalg.eigh_tridiagonal, imported on the first solve: importing
    scipy.linalg costs about 0.4 s, and commands that never solve (the
    scale system) need none of it."""
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(d, e, **kwargs)


def fd_eigensystem(prob: RadialProblem, count: int, boundary: str | None = None):
    """(eigenvalues, grid, eigenvectors as columns) of the lowest count
    levels, with the boundaries, defaults and validation of fd_eigenvalues."""
    return _fd_solve(prob, count, boundary, vectors=True)


def richardson_eigenvalues(prob: RadialProblem, count: int, boundary: str | None = None):
    """Richardson extrapolation of the O(h^2) scheme from N and 2N points."""
    coarse = _fd_solve(prob, count, boundary)[0]
    fine = _fd_solve(replace(prob, grid_points=2 * prob.grid_points), count, boundary)[0]
    return list((4.0 * fine - coarse) / 3.0)


def count_eigenvalues_below(prob: RadialProblem, bound: float) -> int:
    """Sturm oscillation bookkeeping: discrete eigenvalues below a bound of
    the Dirichlet-truncated problem."""
    _, _, _, diag, off = _grid_and_bands(prob)
    return len(_eigh_range(diag, off, "v", (-np.inf, bound), False)[0])


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
# closed-form solutions and residual oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedFormSolution:
    """system 'so4': quantum numbers (n, l), terminating polynomial solution;
    system 'so13': (k, l) with k in (0,1), infinite series inside r < 1;
    system 'scale': (kappa, etilde, omega) Bessel solution with index
    beta = sqrt(kappa^2 + 1 - etilde)."""

    system: str
    n: int = 0
    l: int = 0
    k: float = 0.0
    kappa: int = 0
    etilde: float = 0.0
    omega: float = 1.0

    def __post_init__(self):
        if self.system == "so4":
            if not (self.n >= 1 and 0 <= self.l <= self.n - 1):
                raise ValueError("need n >= 1 and l <= n-1 (terminating series)")
        elif self.system == "so13":
            if not 0 < self.k < 1:
                raise ValueError("need 0 < k < 1")
        elif self.system == "scale":
            if self.kappa**2 + 1 - self.etilde < 0:
                raise ValueError("index squared kappa^2 + 1 - Etilde is negative")
        else:
            raise ValueError(f"unknown system {self.system!r}")


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


@dataclass(frozen=True)
class NormalizationResult:
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


def dump_eigenfunction(prob: RadialProblem, index: int, path: str,
                       boundary: str | None = None) -> None:
    """Two-column (r, phi) plot-ready dump of one FD eigenfunction."""
    vals, r, vecs = fd_eigensystem(prob, index + 1, boundary)
    v = vecs[:, index]
    norm = np.sqrt(np.sum(v * v) * (r[1] - r[0]))
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    with open(path, "w") as fh:
        fh.write(f"# system={prob.system} l={prob.l} index={index} "
                 f"lambda={vals[index]:.12g}\n")
        for ri, vi in zip(r, v / norm):
            fh.write(f"{ri:.10g} {vi:.10g}\n")


def so13_lowest_eigenvalue_scan(deltas, l: int = 0, grid: int = 1500, r_min: float = 1e-3):
    """Lowest FD eigenvalue of the lorentz problem on (r_min, 1-delta) for a
    shrinking sequence of deltas; no isolated level below the continuum
    bottom -2 may appear."""
    out = []
    for d in deltas:
        prob = RadialProblem(system="so13", l=l, r_min=r_min, r_max=1.0 - d,
                             grid_points=grid)
        out.append(fd_eigenvalues(prob, 1)[0])
    return out
