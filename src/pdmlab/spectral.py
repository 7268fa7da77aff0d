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

liouville_q_residual proves both Q from (p, q, w), and the closed-form
residuals read that same operator, -p phi'' - p' phi' + q phi, from
_coefficients.  Both systems' solutions are one hypergeometric family,
mapped onto each other by r^2 -> -r^2 (s = +1, nu = n compact; s = -1,
nu = k lorentz):

    phi = (1 + s r^2)^(-1/2-nu) r^(l+1) 2F1(-nu+l+1, -nu+1/2; l+3/2; -s r^2)

_phi sums phi, phi' and phi'' in floats for closed_form_residual and the
normalization integrals; so4_residual_expr proves the so4 eigenfunctions on
the exact kernel expression so4_wavefunction_expr.  The compact map takes
the whole half-line onto a finite interval whose ends take exact Dirichlet
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

import decimal
import math
import sys
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
# The sign of r^2 in p = (r^2 + sign)^2 of each radial system
_SIGN = {"so4": 1, "so13": -1}


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
        if system not in _SIGN:
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
    p, _, q, w = _coefficients(_SIGN[prob.system], prob.l * (prob.l + 1))
    return p, q, w


def _coefficients(sign: int, ll):
    """(p, p', q, w) for sign +1 (compact) or -1 (lorentz) and ll = l(l+1):
    the one definition of the radial operator.  The callables take floats,
    arrays and kernel expressions alike, and ll may be a kernel parameter."""
    def p(r):
        return (r * r + sign) ** 2

    def dp(r):
        return 4 * r * (r * r + sign)

    def q(r):
        return (r * r + sign) ** 2 * ll / (r * r) - 2 * r * r

    def w(r):
        return r**0

    return p, dp, q, w


def _radial_residual(sign: int, ll, lam, r, phi, dphi, d2phi):
    """L phi - lam w phi = -p phi'' - p' phi' + q phi - lam w phi at r, with
    (p, p', q, w) from _coefficients: phi and its derivatives are kernel
    expressions in x1 := r with r = x1, or floats at a float r."""
    p, dp, q, w = _coefficients(sign, ll)
    return -p(r) * d2phi - dp(r) * dphi + (q(r) - lam * w(r)) * phi


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

    if system not in _SIGN:
        raise ValueError(f"no radial problem for system {system!r}")
    s = _SIGN[system]
    ll = param("L")
    _, _, q, w = _coefficients(s, ll)
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


def fd_eigenvalues(prob: RadialProblem, count: int):
    """Lowest eigenvalues of the symmetric finite-difference discretization,
    ascending and deterministic."""
    if count <= 0:
        return []
    return list(_fd_solve(prob, count))


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
    u /= np.sqrt(h * (1.0 + _SIGN[prob.system] * r * r))[:, None]
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


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss series at |z| < 1 (or any z when terminating); near z = 1 the
    standard connection formula in 1 - z is used unless c - a - b is an
    integer (where the direct series still converges acceptably)."""
    s = c - a - b
    if 0.9 < z < 1.0 and abs(s - round(s)) > 1e-9:
        A = math.gamma(c) * math.gamma(s) / (math.gamma(c - a) * math.gamma(c - b))
        B = math.gamma(c) * math.gamma(-s) / (math.gamma(a) * math.gamma(b))
        w = 1.0 - z
        return (A * _hyp_series(a, b, 1.0 - s, w)
                + B * w**s * _hyp_series(c - a, c - b, 1.0 + s, w))
    return _hyp_series(a, b, c, z)


def _hyp_series(a: float, b: float, c: float, z: float) -> float:
    """The Gauss series, summed until a term is below 1e-16 of the sum.
    ArithmeticError when it does not converge, or when its sum leaves the
    floats: an overflowed term makes the sum inf or nan, and inf <= inf
    would pass the stop test."""
    total = 1.0
    term = 1.0
    for k in range(0, 200000):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        if not math.isfinite(total):
            raise ArithmeticError("hypergeometric series diverges")
        if abs(term) <= 1e-16 * max(1.0, abs(total)):
            return total
    raise ArithmeticError("hypergeometric series did not converge")


# J_beta's series alternates, and its largest term is near e^s: past s = 709,
# where e^s leaves the float range, besselj raises OverflowError rather than
# sum about 1.4 s terms of 0.43 s digits each.
_BESSEL_S_MAX = 709.0
_LOG_TINY = math.log(sys.float_info.min)


def besselj(beta: float, s: float, derivative: int = 0) -> float:
    """J_beta(s) and its term-wise differentiated series (derivative 0, 1, 2).

    J_beta(s) = (s/2)^beta / Gamma(beta + 1) * sum_m a_m with
    a_m = (-s^2/4)^m / (m! (beta + 1)_m); derivative d multiplies a_m by
    (2m + beta)(2m + beta - 1).../2^d and the prefactor by (s/2)^-d.  The
    prefactor is taken in floats through lgamma.  The terms grow to about
    e^s before they fall and cancel, which costs s / ln 10 digits, so the
    sum runs in decimal with that many and 25 more, so the float result
    keeps its digits.  OverflowError when s passes _BESSEL_S_MAX or the
    prefactor falls below the smallest normal float, where J_beta's values
    would read 0 and the residual would check nothing.
    """
    if s <= 0:
        raise ValueError("series evaluation needs s > 0")
    if s > _BESSEL_S_MAX:
        raise OverflowError("the terms of J_beta's series pass the float range")
    half = s / 2.0
    log_pref = beta * math.log(half) - math.lgamma(beta + 1.0)
    if log_pref < _LOG_TINY:
        raise OverflowError("Gamma(beta + 1) / (s/2)^beta passes the float range")
    pref = math.exp(log_pref) / half**derivative
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 25 + int(s / math.log(10))
        b = D(beta)
        u = D(half) ** 2
        eps = D("1e-25")
        a = D(1)
        total = D(0)
        m = 0
        while True:
            p = 2 * m + b
            t = a if derivative == 0 else a * p / 2 if derivative == 1 else a * p * (p - 1) / 4
            total += t
            # past m = s/2 each term is smaller than the one before
            if m > half and abs(t) < eps:
                break
            m += 1
            a = -a * u / (m * (b + m))
    return float(total) * pref


# ---------------------------------------------------------------------------
# the algebraic spectrum of the compact system
# ---------------------------------------------------------------------------


class So4Level(NamedTuple):
    n: int
    etilde: int                      # 4 n^2 + 5, the coefficient of mu in E
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
    return So4Level(n=n, etilde=etilde, allowed_l=allowed,
                    degeneracy=sum(2 * l + 1 for l in allowed))


# ---------------------------------------------------------------------------
# closed-form solutions and residual oracles
# ---------------------------------------------------------------------------


class ClosedFormSolution:
    """system 'so4': integer quantum numbers (n, l), terminating polynomial;
    system 'so13': k in (0,1) and integer l >= 0, infinite series inside r < 1;
    system 'scale': (kappa, etilde, omega) Bessel solution with index
    beta = sqrt(kappa^2 + 1 - etilde)."""

    __slots__ = ("system", "n", "l", "k", "kappa", "etilde", "omega")
    __setattr__ = __delattr__ = read_only

    def __init__(self, system: str, n: int = 0, l: int = 0, k: float = 0.0, kappa: int = 0,
                 etilde: float = 0.0, omega: float = 1.0):
        if system == "so4":
            if not (isinstance(n, int) and isinstance(l, int) and 0 <= l <= n - 1):
                raise ValueError("need integers n >= 1 and 0 <= l <= n-1 (terminating series)")
        elif system == "so13":
            if not 0 < k < 1:
                raise ValueError("need 0 < k < 1")
            if not (isinstance(l, int) and l >= 0):
                raise ValueError("need an integer l >= 0")
        elif system == "scale":
            for label, v in (("Etilde", etilde), ("omega", omega)):
                if not math.isfinite(v):
                    raise ValueError(f"{label} must be finite, not {v}")
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

    phi = so4_wavefunction_expr(n, l)
    d1 = diff(phi, 1)
    return _radial_residual(1, l * (l + 1), 4 * n * n + 1, x1, phi, d1, diff(d1, 1))


def _phi(sign: int, nu: float, l: int, r: float, derivative: int = 0) -> float:
    """phi of the module docstring, or its derivative 1 or 2 in r, with
    F = F(a, b; c; z) at z = -s r^2 and F' = (ab/c) F(a+1, b+1; c+1; z).
    A shifted term whose Pochhammer factor is zero is left out: its series
    need not terminate, and so4's z < -1 once r > 1."""
    a, b, c = -nu + l + 1, -nu + 0.5, 1.5 + l
    u = r * r
    g = 1 + sign * u
    z = -sign * u
    sig = -0.5 - nu
    A = g**sig
    B = r ** (l + 1)
    F0 = hyp2f1(a, b, c, z)
    if derivative == 0:
        return A * B * F0
    dA = sig * g ** (sig - 1) * (2 * sign * r)
    dB = (l + 1) * r**l
    F1 = a * b / c * hyp2f1(a + 1, b + 1, c + 1, z) if a * b else 0.0
    dC = F1 * (-2 * sign * r)
    if derivative == 1:
        return dA * B * F0 + A * dB * F0 + A * B * dC
    d2A = sig * (sig - 1) * g ** (sig - 2) * 4 * r * r + sig * g ** (sig - 1) * (2 * sign)
    d2B = (l + 1) * l * r ** (l - 1) if l >= 1 else 0.0
    f2 = a * (a + 1) * b * (b + 1)
    F2 = f2 / (c * (c + 1)) * hyp2f1(a + 2, b + 2, c + 2, z) if f2 else 0.0
    d2C = F2 * 4 * r * r + F1 * (-2 * sign)
    return (d2A * B * F0 + 2 * dA * dB * F0 + 2 * dA * B * dC
            + A * d2B * F0 + 2 * A * dB * dC + A * B * d2C)


def closed_form_residual(sol: ClosedFormSolution, sample_points) -> float:
    """max |L phi - Lambda phi| / max(1, |Lambda phi|) over the samples, and
    nan when a sample's residual is nan.

    The so4 and so13 residuals apply the operator of _coefficients in
    floats to phi, phi' and phi'' from _phi at each sample, with
    Lambda = s (4 nu^2 + 1): 4n^2 + 1 for so4, Etilde + 4 for so13."""
    if sol.system in _SIGN:
        sign = _SIGN[sol.system]
        if sign < 0 and not all(0 < r < 1 for r in sample_points):
            raise ValueError("samples must lie inside (0, 1)")
        nu = sol.n if sign > 0 else sol.k
        lam = sign * (4 * nu**2 + 1)
        ll = sol.l * (sol.l + 1)
        res = []
        for r in sample_points:
            phi0, phi1, phi2 = (_phi(sign, nu, sol.l, r, d) for d in (0, 1, 2))
            res.append(abs(_radial_residual(sign, ll, lam, r, phi0, phi1, phi2))
                       / max(1.0, abs(lam * phi0)))
        return _largest(res)
    # scale system: Phi = J_beta(omega rt)/rt against the cylindrical equation
    beta = math.sqrt(sol.kappa**2 + 1 - sol.etilde)
    w = sol.omega
    lam = sol.etilde - sol.kappa**2
    res = []
    for t in sample_points:
        if t <= 0:
            raise ValueError("samples must be positive")
        s = w * t
        J0, J1, J2 = (besselj(beta, s, d) for d in (0, 1, 2))
        phi0 = J0 / t
        phi1 = w * J1 / t - J0 / t**2
        phi2 = w * w * J2 / t - 2 * w * J1 / t**2 + 2 * J0 / t**3
        lphi = -t * t * (phi2 + w * w * phi0) - 3 * t * phi1
        res.append(abs(lphi - lam * phi0) / max(1.0, abs(lam * phi0)))
    return _largest(res)


def _largest(residuals) -> float:
    """The largest residual, 0.0 for none, with nan above every number:
    max() alone keeps or drops a nan by its position, and reads it a pass."""
    return max(residuals, default=0.0, key=lambda x: (math.isnan(x), x))


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
        val, _ = quad(lambda r: _phi(1, sol.n, sol.l, r) ** 2, 0.0, math.inf, limit=200)
        return NormalizationResult(value=val, finite=True, tail_exponent=-2 * sol.l - 4)
    if sol.system == "so13":
        cut = 1e-3
        val, _ = quad(lambda r: _so13_density(sol, r), 0.0, 1.0 - cut, limit=200)
        aval, _ = quad(lambda r: abs(_so13_density(sol, r)), 0.0, 1.0 - cut, limit=200)
        edge_exp = 2.0 - 2.0 * sol.k
        return NormalizationResult(
            value=val,
            finite=edge_exp > -1.0,
            tail_exponent=edge_exp,
            boundary_vanishes=(edge_exp > 0.0) and (sol.l + 1 > 0),
            abs_value=aval,
        )
    raise ValueError("normalization diagnostics cover the so4 and so13 solutions")


def _so13_density(sol: ClosedFormSolution, r: float) -> float:
    """The so13 metric-weighted integrand phi^2 (r^2-1)^3."""
    v = _phi(-1, sol.k, sol.l, r)
    return v * v * (r * r - 1) ** 3


def so13_boundary_values(sol: ClosedFormSolution, eps: float = 1e-3):
    """Metric-weighted integrand near both endpoints (boundary-vanishing check)."""
    return _so13_density(sol, eps), _so13_density(sol, 1.0 - eps)


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


def so13_lowest_eigenvalue_scan(deltas):
    """Lowest FD eigenvalue of the l = 0 lorentz problem on (1e-3, 1-delta),
    on 1500 points, for a shrinking sequence of deltas.  No level may reach
    the continuum bottom -1: Q + 1 = l(l+1)(1-r^2)^2/r^2 >= 0 and the FD
    matrix of -u'' is positive definite, so every truncated level has
    Lambda > -1, that is Etilde > -5."""
    out = []
    for d in deltas:
        prob = RadialProblem(system="so13", l=0, r_min=1e-3, r_max=1.0 - d, grid_points=1500)
        out.append(fd_eigenvalues(prob, 1)[0])
    return out


# ---------------------------------------------------------------------------
# the `spectrum` command
# ---------------------------------------------------------------------------

# The options that each --system reads, with their defaults
# (cli._take_options).
SPECTRUM_OPTIONS = {
    "so4": {"l": 0, "count": 3, "grid": 4000, "rel_tol": 5e-3, "dump": None, "dump_index": 0},
    "scale": {"kappa": 0, "etilde": 1.0, "omega": 2.0},
}


def _cmd_spectrum(args) -> int:
    from .cli import _take_options

    # --dump-index names the level that --dump writes, and nothing without it
    index_alone = args.dump_index is not None and not args.dump
    unread = _take_options(args, SPECTRUM_OPTIONS, args.system, "--system")
    if not unread and index_alone:
        unread = "--dump-index is read only with --dump"
    if unread:
        print(f"spectrum error: {unread}", file=sys.stderr)
        return 2
    # every input is checked, and the dump written, before the first line of
    # output: a rejected input prints its one error line and nothing else
    try:
        if args.system == "scale":
            sol = ClosedFormSolution(
                system="scale", kappa=args.kappa, etilde=args.etilde, omega=args.omega
            )
            # Bessel residual line at the 25 points of numpy.linspace(0.2,
            # 4.0, 25), bit for bit, without loading numpy
            step = 3.8 / 24
            pts = [i * step + 0.2 for i in range(24)] + [4.0]
            res = closed_form_residual(sol, pts)
        else:
            if args.count < 1:
                raise ValueError(f"--count must be at least 1, not {args.count}")
            if args.dump and args.dump_index < 0:
                raise ValueError(f"--dump-index must be at least 0, not {args.dump_index}")
            prob = RadialProblem(system="so4", l=args.l, grid_points=args.grid)
            if args.dump:
                # one solve serves the table and the dump
                eig = fd_eigensystem(prob, max(args.count, args.dump_index + 1))
                dump_eigenfunction(prob, eig, args.dump_index, args.dump)
                vals = list(eig[0][:args.count])
            else:
                vals = fd_eigenvalues(prob, args.count)
    except EigensolveError as err:
        # no table whose level indices the Sturm count did not certify
        print(f"spectrum error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        # a grid below 16 points, a negative l, more levels than grid
        # points, levels x grid past the solver's memory bound, a negative
        # index squared or omega, a non-finite Etilde or omega, a dump path
        # not writable
        print(f"spectrum error: {err}", file=sys.stderr)
        return 2
    except ArithmeticError:
        # kappa, Etilde or omega so large that a float overflows
        print("spectrum error: these kappa, Etilde and omega overflow a float", file=sys.stderr)
        return 2
    if args.system == "scale":
        beta = (args.kappa**2 + 1 - args.etilde) ** 0.5
        print("system,kappa,Etilde,omega,index_beta,max_residual,points")
        print(f"scale,{args.kappa},{args.etilde},{args.omega},{beta:.10g},{res:.3e},{len(pts)}")
        return 0 if res < 1e-8 else 1
    # level n = l + 1 + i has the radial eigenvalue Etilde - 4 = 4n^2 + 1
    levels = [algebraic_spectrum_so4(args.l + 1 + i) for i in range(len(vals))]
    print("system,l_or_kappa,index,lambda_fd,lambda_exact,rel_err")
    rels = []
    for i, (v, lv) in enumerate(zip(vals, levels)):
        exact = lv.etilde - 4
        rels.append(abs(v - exact) / exact)
        print(f"so4,{args.l},{i},{v:.10g},{exact:.10g},{rels[-1]:.3e}")
    print()
    # E = Etilde mu + 1 nu
    print("n,Etilde,E_mu_coeff,E_const")
    for lv in levels:
        print(f"{lv.n},{lv.etilde},{lv.etilde},1")
    return 0 if all(rel < args.rel_tol for rel in rels) else 1
