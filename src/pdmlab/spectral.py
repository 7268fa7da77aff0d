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
on a uniform t-grid.  That solve is spectral-transformation Lanczos
(Ericsson & Ruhe, Math. Comp. 35, 1980) on (T - sigma)^-1, whose products
are odd-even cyclic reduction solves.  Each level is the Rayleigh quotient
of its Ritz vector in difference form, which never subtracts the 2/h^2
diagonal, so the printed digits are those of the matrix, not rounding of
eps ||T||; a Sturm count (Barth, Martin & Wilkinson 1967) certifies the
level index.  numpy is imported by the functions that solve: the scale
system's commands load none of it.  Since dt = sqrt(w/p) dr, the l2 norm of
u in t is the weighted norm of phi in r.
"""

from __future__ import annotations

import math
import sys
import warnings
from fractions import Fraction
from typing import NamedTuple

from . import read_only

# A Ritz pair has converged when its residual in (T - sigma)^-1 is at most
# RITZ_TOL times its Ritz value.
RITZ_TOL = 1e-10
# A solve of count levels on n points keeps one vector of n values per
# Lanczos step and takes at most min(n, 3 count + 24) steps (measured: 30-40
# for 10 levels, 104 for 40 levels at l = 200).  Steps times points may not
# pass MAX_BASIS_VALUES, 64 MB of float64: a bound on count x grid alone
# would let one level of a few million points fill gigabytes.
MAX_BASIS_VALUES = 8_000_000


class GridCoarseWarning(UserWarning):
    pass


class EigensolveError(ArithmeticError):
    """The eigensolver could not certify its levels: Lanczos did not converge
    within its step bound, or the Sturm count disagrees with the index."""


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


def _t_grid(prob: RadialProblem):
    """(h, t): the step and the interior points of the uniform t-grid."""
    import numpy as np

    n = prob.grid_points
    if prob.system == "so4":
        t0, t1 = 0.0, math.pi / 2
    else:
        t0, t1 = math.atanh(prob.r_min), math.atanh(prob.r_max)
    h = (t1 - t0) / (n + 1)
    return h, t0 + h * np.arange(1, n + 1)


def _potential(prob: RadialProblem):
    """(h, q): the step in t and Q at the interior points, so that the FD
    matrix of -u'' + Q u with u = 0 at both ends is
    tridiag(-1, 2, -1)/h^2 + diag(q)."""
    import numpy as np

    h, t = _t_grid(prob)
    ll = prob.l * (prob.l + 1)
    if prob.system == "so4":
        return h, 4.0 * ll / np.sin(2.0 * t) ** 2 + 1.0
    return h, 4.0 * ll / np.sinh(2.0 * t) ** 2 - 1.0


def fd_eigenvalues(prob: RadialProblem, count: int, check_refinement: bool = False):
    """Lowest eigenvalues of the symmetric finite-difference discretization,
    ascending and deterministic."""
    if count <= 0:
        return []
    vals = _fd_solve(prob, count)
    if check_refinement:
        import numpy as np

        # the half grid may hold fewer than count levels: compare those it has
        coarse_prob = prob.with_grid(max(16, prob.grid_points // 2))
        coarse = _fd_solve(coarse_prob, min(count, coarse_prob.grid_points))
        fine = vals[:len(coarse)]
        drift = np.max(np.abs(fine - coarse) / (1 + np.abs(fine)))
        if drift > 1e-2:
            warnings.warn(
                f"grid may be too coarse: refinement drift {drift:.2e}",
                GridCoarseWarning,
            )
    return list(vals)


def _max_steps(count: int, n: int) -> int:
    """The most Lanczos steps, and basis vectors, of a solve of count levels
    on n points."""
    return min(n, 3 * count + 24)


def _fd_solve(prob: RadialProblem, count: int, vectors: bool = False):
    """The eigenvalues of the lowest count levels, or with vectors=True
    (eigenvalues, r, eigenfunctions phi(r) as columns), from one solve; the
    one solver behind every public FD function.  Each phi has unit weighted
    norm, int phi^2 w dr = 1."""
    n = prob.grid_points
    if count > n:
        raise ValueError(f"{count} levels asked of a grid with {n} points")
    if _max_steps(count, n) * n > MAX_BASIS_VALUES:
        raise ValueError(f"{count} levels of a grid with {n} points pass the solver's memory"
                         f" bound: min(grid, 3 count + 24) x grid must be at most"
                         f" {MAX_BASIS_VALUES}")
    h, q = _potential(prob)
    vals, u = eigh_tridiagonal(q, h, count, vectors)
    if not vectors:
        return vals
    import numpy as np

    # r is built only now, after the Lanczos basis is gone
    t = _t_grid(prob)[1]
    r = np.tan(t) if prob.system == "so4" else np.tanh(t)
    # phi = (pw)^(-1/4) u, and the unit l2 columns divided by sqrt(h) have
    # int u^2 dt = 1
    sign = 1.0 if prob.system == "so4" else -1.0
    u /= np.sqrt(h * (1.0 + sign * r * r))[:, None]
    return vals, r, u


def eigh_tridiagonal(q, h, count, vectors=False):
    """(eigenvalues, eigenvectors) of the lowest count levels of
    T = tridiag(-1, 2, -1)/h^2 + diag(q), the FD matrix of -u'' + q u with
    u = 0 at both ends; q is the diagonal of the potential, one value per
    grid point.  The eigenvalues come ascending; the eigenvectors, with
    vectors=True, are the unit columns of an array, and otherwise None.

    1. sigma = min(q) - 1 lies below the spectrum, so T - sigma is positive
       definite and odd-even cyclic reduction factors it stably.
    2. Lanczos with full reorthogonalization runs on (T - sigma)^-1 from a
       deterministic start vector until count + 1 Ritz pairs have
       converged (RITZ_TOL), within min(n, 3 count + 24) steps.
    3. Each eigenvalue is the Rayleigh quotient of its Ritz vector in
       difference form, (sum (u[i+1] - u[i])^2 / h^2 + sum q u^2) / sum u^2
       with u = 0 past both ends.  It never subtracts the 2/h^2 diagonal
       (8e9 at 100,000 points), so its digits are the matrix's own.
    4. The Sturm count at the midpoint of levels count - 1 and count must
       be count.

    EigensolveError is raised when step 2 does not converge or step 4
    fails: no level is returned whose index is not certified.
    """
    import numpy as np

    n = len(q)
    want = min(count + 1, n)
    sigma = float(q.min()) - 1.0
    factor = _cr_factor(2.0 / h**2 + (q - sigma), np.full(n - 1, -1.0 / h**2))
    # Only the rows that Lanczos writes are ever touched, and resident.
    basis = np.empty((_max_steps(count, n), n))
    # One solve first: the start vector's components along the top of the
    # spectrum shrink by (T - sigma)^-1, and no Ritz vector carries them.
    v = basis[0]
    v[:] = _cr_solve(factor, _start_vector(n))
    v /= math.sqrt(v @ v)
    alpha, beta = [], []
    while True:
        m = len(alpha)
        w = _cr_solve(factor, v)
        alpha.append(float(v @ w))
        # the three-term recurrence, then classical Gram-Schmidt against the
        # whole basis, repeated once when a pass cancels more than 1/sqrt(2)
        # of the norm (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 1976)
        w -= alpha[-1] * v
        if m:
            w -= beta[-1] * basis[m - 1]
        done = basis[:m + 1]
        for _ in range(2):
            before = math.sqrt(w @ w)
            w -= done.T @ (done @ w)
            b = math.sqrt(w @ w)
            if b > before / math.sqrt(2):
                break
        if m + 1 >= want:
            ritz = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            theta, y = np.linalg.eigh(ritz)
            theta, y = theta[::-1][:want], y[:, ::-1][:, :want]
            # a basis of all n vectors spans the space: its Ritz pairs are exact
            if m + 1 == n or np.all(b * abs(y[-1]) <= RITZ_TOL * theta):
                break
        if m + 1 == len(basis):
            raise EigensolveError(f"Lanczos did not converge to {want} levels in {m + 1} steps")
        beta.append(b)
        v = basis[m + 1]
        np.divide(w, b, out=v)
        del w   # before the next solve allocates its own
    # The basis is at its largest from here on: each del below keeps at most
    # two vectors of n values beside it, and the count x n Ritz matrix is
    # formed only when the vectors are returned.
    del w, factor
    vals = np.empty(count)
    vecs = np.empty((n, count)) if vectors else None
    for j in range(count):
        u = y[:, j] @ done
        if vectors:
            vecs[:, j] = u
        du = np.diff(u)
        kinetic = (du @ du + u[0] ** 2 + u[-1] ** 2) / h**2
        del du
        vals[j] = (kinetic + (q * u) @ u) / (u @ u)
        del u
    del basis, done
    if count < n:
        mid = 0.5 * (vals[-1] + sigma + 1.0 / theta[count])
        below = _sturm_count(q, h, mid)
        if below != count:
            raise EigensolveError(f"{below} eigenvalues lie below {mid:.10g}, between the"
                                  f" Ritz values of levels {count - 1} and {count}")
    return vals, vecs


def _start_vector(n: int):
    """cos(phi i^2 + i/2) with phi the golden ratio: deterministic, with no
    pattern that the smooth low eigenvectors could be orthogonal to."""
    import numpy as np

    i = np.arange(n, dtype=float)
    return np.cos((1 + 5**0.5) / 2 * i * i + i / 2)


def _cr_factor(d, e):
    """Odd-even cyclic reduction of the symmetric positive definite
    tridiagonal with diagonal d and off-diagonal e: per level, the inverse
    diagonal of the odd rows and their couplings to the even rows on the
    right and the left, divided by that diagonal; the even rows form the
    Schur complement, again tridiagonal, of the next level."""
    levels = []
    while len(d) > 1:
        inv = 1.0 / d[1::2]
        right, left = e[0::2], e[1::2]   # odd row 2k+1 to rows 2k and 2k+2
        gr, gl = right * inv, left * inv[:len(left)]
        even = d[0::2].copy()
        even[:len(gr)] -= gr * right
        even[1:1 + len(gl)] -= gl * left
        levels.append((inv, gr, gl))
        d, e = even, -gr[:len(left)] * left
    return levels, 1.0 / d[0]


def _cr_solve(factor, f):
    """x with T x = f for T factored by _cr_factor."""
    import numpy as np

    levels, last = factor
    odd_rhs = []
    for _, gr, gl in levels:
        fo = f[1::2]
        f = f[0::2].copy()
        f[:len(gr)] -= gr * fo
        f[1:1 + len(gl)] -= gl * fo[:len(gl)]
        odd_rhs.append(fo)
    x = f * last
    for (inv, gr, gl), fo in zip(reversed(levels), reversed(odd_rhs)):
        xo = inv * fo - gr * x[:len(gr)]
        xo[:len(gl)] -= gl * x[1:1 + len(gl)]
        out = np.empty(len(x) + len(xo))
        out[0::2], out[1::2] = x, xo
        x = out
    return x


def _sturm_count(q, h, x: float) -> int:
    """Eigenvalues of tridiag(-1, 2, -1)/h^2 + diag(q) at or below x: the
    negative pivots of the LDL^T factorization of T - x, with dstebz's guard
    that moves a pivot smaller than pivmin to -pivmin.  The count is exact
    for a matrix within a few eps ||T|| of T (Barth, Martin & Wilkinson
    1967); a factorization of an indefinite T - x by cyclic reduction is
    not, and is never used for it."""
    e2 = (1.0 / h**2) ** 2
    pivmin = sys.float_info.min * max(1.0, e2)
    below, p = 0, math.inf
    for di in (2.0 / h**2 + q).tolist():
        p = di - x - e2 / p
        if abs(p) < pivmin:
            p = -pivmin
        if p < 0.0:
            below += 1
    return below


def fd_eigensystem(prob: RadialProblem, count: int):
    """(eigenvalues, r, eigenfunctions phi(r) as columns) of the lowest
    count levels, with unit weighted norm, on the grid of fd_eigenvalues."""
    return _fd_solve(prob, count, vectors=True)


def richardson_eigenvalues(prob: RadialProblem, count: int):
    """Richardson extrapolation of the O(h^2) scheme from N and 2N points."""
    coarse = _fd_solve(prob, count)
    fine = _fd_solve(prob.with_grid(2 * prob.grid_points), count)
    return list((4.0 * fine - coarse) / 3.0)


def count_eigenvalues_below(prob: RadialProblem, bound: float) -> int:
    """Sturm oscillation bookkeeping: discrete eigenvalues at or below a
    bound of the Dirichlet-truncated problem."""
    h, q = _potential(prob)
    return _sturm_count(q, h, bound)


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
    mu_coeff: int
    nu_coeff: int
    allowed_l: tuple
    degeneracy: int                  # sum of 2l+1 over allowed l

    @property
    def energy(self):
        """The kernel expression mu (4 n^2 + 5) + nu, built on access: the
        spectrum table prints the coefficients and loads no kernel."""
        from .symkernel import normalize, param

        return normalize(param("mu") * self.etilde + param("nu"))


def algebraic_spectrum_so4(n: int) -> So4Level:
    """Level n >= 1 of the compact system: the Casimir C1 of the so(4)
    realization (pdmlab.casimir) has the eigenvalue n^2 - 1, which gives the
    rescaled energy 4n^2 + 5; angular momentum runs over l <= n - 1."""
    if n < 1:
        raise ValueError("level index must be a positive integer")
    etilde = 4 * n * n + 5
    allowed = tuple(range(0, n))
    return So4Level(
        n=n,
        etilde=etilde,
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

        val, _ = quad(f, 0.0, math.inf, limit=200)
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

    Each value is the Rayleigh quotient of a Ritz vector whose residual is
    below RITZ_TOL, and its error is second order in that residual.  A
    caller that solves max(table size, index + 1) levels once for both its
    table and the dump therefore gets the values of fd_eigenvalues to
    within rounding, far below the printed 10 digits, though the larger
    solve takes more Lanczos steps.
    """
    vals, r, phi = eigensystem
    v = phi[:, index]
    if v[abs(v).argmax()] < 0:
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
