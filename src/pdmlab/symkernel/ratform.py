"""Canonical rational-function normal form.

An expression is flattened into a quotient of multivariate polynomials over
the Gaussian rationals in a set of *atoms*: spatial variables, parameters,
elementary-function applications, abstract-function applications, and root
atoms (q-th roots of canonical subexpressions).  Root atoms obey the
reduction rule atom**q -> base and are kept out of denominators by
conjugation, so equal rational combinations always normalize to identical
trees and a vanishing expression normalizes to the literal zero node.

Intermediate arithmetic keeps fractions raw (only cheap divisibility-based
cancellation); the full gcd/content/unit canonicalization runs once per
normalize() call.

Nearly every numerator/denominator gcd is 1, so `p_gcd` first tries to prove
that with univariate images modulo a prime (`_coprime_certified`) and runs
the pseudo-remainder sequence only when the images cannot decide.  The proof
is exact, not probabilistic; it is spelled out in `_coprime_certified`.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GRat, canonical_unit, content_normalize
from .expr import (
    AbsApp,
    Add,
    App,
    Expr,
    ExprError,
    Mul,
    Num,
    NUM_ZERO,
    Param,
    Pow,
    Var,
    add,
    mul,
    pow_,
)
from .sexpr import to_sexpr

# monomial: tuple of (atom, exponent) pairs, sorted by atom sort key
# polynomial: dict monomial -> GRat (zero polynomial is the empty dict)

_SKEY: dict = {}
_ROOT_BASE: dict = {}
_NORM_CACHE: dict = {}
_RF_CACHE: dict = {}
_ATOM_INTERN: dict = {}


def _skey(atom: Expr) -> str:
    k = _SKEY.get(atom)
    if k is None:
        k = to_sexpr(atom)
        _SKEY[atom] = k
    return k


def _intern(atom: Expr) -> Expr:
    """Structurally equal atoms become the same object, so monomial
    bookkeeping runs on identity comparisons."""
    got = _ATOM_INTERN.get(atom)
    if got is not None:
        return got
    _ATOM_INTERN[atom] = atom
    _skey(atom)
    return atom


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

M_ONE: tuple = ()


def m_mul(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    out = {}
    for atom, e in a:
        out[atom] = out.get(atom, 0) + e
    for atom, e in b:
        out[atom] = out.get(atom, 0) + e
    return tuple(sorted(((k, v) for k, v in out.items() if v), key=lambda p: _skey(p[0])))


def m_divides(a: tuple, b: tuple) -> bool:
    """True if monomial a divides monomial b."""
    db = dict(b)
    for atom, e in a:
        if db.get(atom, 0) < e:
            return False
    return True


def m_div(b: tuple, a: tuple) -> tuple:
    """b / a, assuming divisibility."""
    da = dict(a)
    out = []
    for atom, e in b:
        r = e - da.get(atom, 0)
        if r:
            out.append((atom, r))
    return tuple(out)


def m_gcd(a: tuple, b: tuple) -> tuple:
    da = dict(a)
    out = []
    for atom, e in b:
        g = min(e, da.get(atom, 0))
        if g:
            out.append((atom, g))
    return tuple(sorted(out, key=lambda p: _skey(p[0])))


def m_degree(m: tuple) -> int:
    return sum(e for _, e in m)


def m_key(m: tuple):
    # graded lex; pairs listed by descending atom key so the induced order is
    # multiplicative (required by the division algorithm inside the gcd)
    return (m_degree(m), tuple(sorted(((_skey(a), e) for a, e in m), reverse=True)))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

P_ZERO: dict = {}
P_ONE = {M_ONE: GRat(1)}


def p_const(c: GRat) -> dict:
    return {} if c.is_zero() else {M_ONE: c}


def p_atom(atom: Expr, e: int = 1) -> dict:
    return {((atom, e),): GRat(1)}


def p_add(a: dict, b: dict) -> dict:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s.is_zero():
                del out[m]
            else:
                out[m] = s
    return out


def p_neg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def p_scale(a: dict, c: GRat) -> dict:
    if c.is_zero():
        return P_ZERO
    return {m: v * c for m, v in a.items()}


def p_mul_mono(a: dict, mono: tuple, c: GRat) -> dict:
    return {m_mul(m, mono): v * c for m, v in a.items()}


def p_mul_raw(a: dict, b: dict) -> dict:
    if not a or not b:
        return P_ZERO
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (m1, c1), = a.items()
        if m1 == M_ONE:
            return p_scale(b, c1)
        return p_mul_mono(b, m1, c1)
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m_mul(m1, m2)
            s = out.get(m)
            if s is None:
                out[m] = c1 * c2
            else:
                s = s + c1 * c2
                if s.is_zero():
                    del out[m]
                else:
                    out[m] = s
    return out


def p_ipow(a: dict, n: int) -> dict:
    out = P_ONE
    base = a
    while n:
        if n & 1:
            out = p_mul_raw(out, base)
        n >>= 1
        if n:
            base = p_mul_raw(base, base)
    return out


def p_is_const(a: dict) -> bool:
    return len(a) == 0 or (len(a) == 1 and M_ONE in a)


def p_lead(a: dict):
    m = max(a, key=m_key)
    return m, a[m]


def p_atoms(a: dict) -> set:
    out = set()
    for m in a:
        for atom, _ in m:
            out.add(atom)
    return out


def p_mono_content(a: dict) -> tuple:
    """gcd of all monomials of a (the common monomial factor)."""
    it = iter(a)
    g = next(it)
    for m in it:
        if not g:
            break
        g = m_gcd(g, m)
    return g


def p_canonical(a: dict) -> dict:
    """Content-free, unit-normalized copy (used for gcd results)."""
    if not a:
        return P_ZERO
    monos = sorted(a, key=m_key)
    scale, coeffs = content_normalize([a[m] for m in monos])
    u = canonical_unit(coeffs[-1])
    return {m: c * u for m, c in zip(monos, coeffs)}


def p_divexact(a: dict, b: dict):
    """Exact multivariate division a / b, or None when b does not divide a."""
    import heapq

    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return P_ZERO
    if len(b) == 1:
        (mb, cb), = b.items()
        if all(m_divides(mb, m) for m in a):
            return {m_div(m, mb): c / cb for m, c in a.items()}
        return None
    lb_m, lb_c = p_lead(b)
    q: dict = {}
    r = dict(a)
    # lazy max-heap over monomial keys; stale entries skipped on pop
    heap = [(_NegKey(m_key(m)), m) for m in r]
    heapq.heapify(heap)
    while r:
        while heap:
            _, la_m = heap[0]
            if la_m in r:
                break
            heapq.heappop(heap)
        la_c = r[la_m]
        if not m_divides(lb_m, la_m):
            return None
        qm = m_div(la_m, lb_m)
        qc = la_c / lb_c
        q[qm] = q.get(qm, GRat(0)) + qc
        for mb2, cb2 in b.items():
            m = m_mul(qm, mb2)
            s = r.get(m)
            if s is None:
                r[m] = -(qc * cb2)
                heapq.heappush(heap, (_NegKey(m_key(m)), m))
            else:
                s = s - qc * cb2
                if s.is_zero():
                    del r[m]
                else:
                    r[m] = s
    return q


class _NegKey:
    """Inverts comparison so heapq acts as a max-heap over monomial keys."""

    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __lt__(self, other):
        return self.k > other.k

    def __eq__(self, other):
        return self.k == other.k


# -- gcd ----------------------------------------------------------------------


def _to_univ(p: dict, atom: Expr):
    """Coefficient list (index = degree in atom) with polynomial entries."""
    coeffs: dict = {}
    for m, c in p.items():
        d = 0
        rest = []
        for a, e in m:
            if a == atom:
                d = e
            else:
                rest.append((a, e))
        entry = coeffs.setdefault(d, {})
        rest_t = tuple(rest)
        entry[rest_t] = entry.get(rest_t, GRat(0)) + c
    top = max(coeffs)
    return [coeffs.get(d, P_ZERO) for d in range(top + 1)]


def _from_univ(coeffs, atom: Expr) -> dict:
    out: dict = {}
    for d, p in enumerate(coeffs):
        if not p:
            continue
        mono = ((atom, d),) if d else M_ONE
        for m, c in p.items():
            mm = m_mul(m, mono)
            out[mm] = out.get(mm, GRat(0)) + c
    return {m: c for m, c in out.items() if not c.is_zero()}


def _u_trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _u_prem(a, b):
    """Pseudo-remainder of coefficient lists a, b (b nonzero)."""
    r = list(a)
    lb = b[-1]
    db = len(b) - 1
    while r and len(r) - 1 >= db:
        lr = r[-1]
        shift = len(r) - 1 - db
        r = [p_mul_raw(c, lb) for c in r]
        for k in range(len(b)):
            r[k + shift] = p_add(r[k + shift], p_neg(p_mul_raw(lr, b[k])))
        _u_trim(r)
    return r


def _u_content(coeffs) -> dict:
    g = P_ZERO
    for c in coeffs:
        if c:
            g = p_gcd(g, c)
            if p_is_const(g):
                return P_ONE
    return g if g else P_ONE


# F_p for the coprimality check: p = 2^62 - 87 is prime with p = 1 (mod 4),
# and _S^2 = -1 (mod p), so i -> _S maps Z[i] onto F_p as a ring.
_P = 4611686018427387817
_S = 120863620846201794
_MASK64 = (1 << 64) - 1


def _point_value(k: int) -> int:
    """Fixed nonzero value in F_p of the k-th atom in _skey order.

    The rank goes through the SplitMix64 finalizer, so the values satisfy no
    small multiplicative relation.  Values in arithmetic progression would:
    (k + 1) * c gives v1^2 = v0 * v3, so a leading coefficient such as
    x1^2 - a*x3 would vanish and send a coprime pair to the PRS.
    """
    z = (k + 1) * 0x9E3779B97F4A7C15 & _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) % _P or 1


def _image_mod_p(p: dict, x: Expr, point: dict) -> list:
    """Coefficient list over F_p (index = degree in x) of a Gaussian-integer
    polynomial, every atom but x evaluated at point."""
    out: dict = {}
    for m, c in p.items():
        v = (c.re.numerator + _S * c.im.numerator) % _P
        d = 0
        for atom, e in m:
            if atom == x:
                d = e
            else:
                v = v * pow(point[atom], e, _P) % _P
        out[d] = (out.get(d, 0) + v) % _P
    return [out.get(d, 0) for d in range(max(out) + 1)]


def _gcd_degree_mod_p(f: list, g: list) -> int:
    """Degree of gcd(f, g) over F_p; both lists have a nonzero last entry."""
    while g:
        inv = pow(g[-1], -1, _P)
        f = list(f)
        while len(f) >= len(g):
            q = f[-1] * inv % _P
            shift = len(f) - len(g)
            for k in range(len(g) - 1):
                f[shift + k] = (f[shift + k] - q * g[k]) % _P
            f.pop()
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1


def _coprime_certified(a: dict, b: dict) -> bool:
    """True only when gcd(a, b) is a constant; False means "undecided".

    a and b are scaled to Gaussian-integer coefficients and mapped to F_p
    (i -> _S).  For each atom x they share, every other atom is set to a fixed
    nonzero value, and the two univariate images count only when each keeps
    the x-degree of its polynomial.  True requires a gcd of degree 0 for
    every shared x.

    Why True is a proof, in the PRS's own model (atoms are free variables):
    let g = gcd(a, b), primitive over Z[i].  By Gauss's lemma a = g*h in
    Z[i][atoms], and reduction mod p followed by evaluation is a ring
    homomorphism.  The x-leading coefficient of g divides that of a, whose
    image is nonzero, so the image of g keeps deg_x g and divides both
    images.  A degree-0 image gcd therefore gives deg_x g = 0.  g can only
    contain atoms shared by a and b, so g is constant.  An unlucky prime or
    point only makes the check return False.
    """
    atoms_a = p_atoms(a)
    atoms_b = p_atoms(b)
    common = atoms_a & atoms_b
    ordered = sorted(atoms_a | atoms_b, key=_skey)
    point = {atom: _point_value(k) for k, atom in enumerate(ordered)}
    _, ca = content_normalize(list(a.values()))
    _, cb = content_normalize(list(b.values()))
    a = dict(zip(a, ca))
    b = dict(zip(b, cb))
    for x in common:
        fa = _image_mod_p(a, x, point)
        fb = _image_mod_p(b, x, point)
        # each list is as long as the x-degree of its polynomial + 1
        if not fa[-1] or not fb[-1]:
            return False
        if _gcd_degree_mod_p(fa, fb) != 0:
            return False
    return True


def p_gcd(a: dict, b: dict) -> dict:
    """Canonical gcd over Q(i); atoms are treated as independent variables.

    `_p_gcd_core` first asks `_coprime_certified` whether univariate images
    mod p prove the gcd constant; when they do not (a common factor, or an
    unlucky prime or point), the pseudo-remainder sequence decides, as the
    single fallback."""
    if not a:
        return p_canonical(b)
    if not b:
        return p_canonical(a)
    ma = p_mono_content(a)
    mb = p_mono_content(b)
    mg = m_gcd(ma, mb)
    if ma:
        a = {m_div(m, ma): c for m, c in a.items()}
    if mb:
        b = {m_div(m, mb): c for m, c in b.items()}
    core = _p_gcd_core(a, b)
    if mg:
        core = p_mul_mono(core, mg, GRat(1))
    return p_canonical(core)


def _p_gcd_core(a: dict, b: dict) -> dict:
    if p_is_const(a) or p_is_const(b):
        return P_ONE
    if a == b:
        return a
    if len(a) == 1 or len(b) == 1:
        return P_ONE  # monomial content already removed
    if _coprime_certified(a, b):
        return P_ONE
    if p_divexact(a, b) is not None:
        return b
    if p_divexact(b, a) is not None:
        return a
    atoms = p_atoms(a) & p_atoms(b)
    if not atoms:
        return P_ONE
    main = min(atoms, key=_skey)
    ua = _to_univ(a, main)
    ub = _to_univ(b, main)
    ca = _u_content(ua)
    cb = _u_content(ub)
    pa = [p_divexact(c, ca) if c else P_ZERO for c in ua]
    pb = [p_divexact(c, cb) if c else P_ZERO for c in ub]
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        r = _u_prem(pa, pb)
        if r:
            rc = _u_content(r)
            r = [p_divexact(c, rc) if c else P_ZERO for c in r]
        pa, pb = pb, r
    g = _from_univ(pa, main)
    cont = p_gcd(ca, cb)
    if not p_is_const(cont):
        g = p_mul_raw(g, cont)
    return g


# ---------------------------------------------------------------------------
# root-atom reduction (polynomial level)
# ---------------------------------------------------------------------------


def _overflow_atom(m: tuple):
    for atom, e in m:
        if atom in _ROOT_BASE and e >= atom.exponent.denominator:
            return atom
    return None


def _p_reduce(p: dict) -> dict:
    """Apply atom**q -> base until all root-atom exponents are below q.

    Root-atom bases are polynomials (enforced at atom registration), so the
    reduction is closed on polynomials.
    """
    out: dict = {}
    pending = []
    for m, c in p.items():
        if _overflow_atom(m) is None:
            s = out.get(m)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        else:
            pending.append((m, c))
    for m, c in pending:
        tn = {m: c}
        while True:
            hit = None
            for mm in tn:
                hit = _overflow_atom(mm)
                if hit is not None:
                    break
            if hit is None:
                break
            q = hit.exponent.denominator
            base = _ROOT_BASE[hit]
            stay: dict = {}
            grouped: dict = {}
            for mm, cc in tn.items():
                d = dict(mm)
                e = d.get(hit, 0)
                k, r = divmod(e, q)
                if k == 0:
                    stay[mm] = stay.get(mm, GRat(0)) + cc
                    continue
                if r:
                    d[hit] = r
                else:
                    d.pop(hit)
                mm2 = tuple(sorted(d.items(), key=lambda kv: _skey(kv[0])))
                grouped.setdefault(k, {})[mm2] = cc
            tn = stay
            for k, poly in grouped.items():
                tn = p_add(tn, p_mul_raw(poly, p_ipow(base, k)))
        out = p_add(out, tn)
    return out


def p_mul(a: dict, b: dict) -> dict:
    """Product with eager root reduction."""
    return _p_reduce(p_mul_raw(a, b))


# ---------------------------------------------------------------------------
# rational functions with factored denominators
# ---------------------------------------------------------------------------
#
# A denominator is a tuple of (factor polynomial, exponent) pairs and is only
# expanded when a sum actually needs the missing factors, so powers like
# (r^2+1)^4 never blow up into dense polynomials mid-computation.

DEN_ONE: tuple = ()


def den_mul(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    out = list(a)
    for f, e in b:
        for i, (g, k) in enumerate(out):
            if f == g:
                out[i] = (g, k + e)
                break
        else:
            out.append((f, e))
    return tuple(out)


def den_try_div(big: tuple, small: tuple):
    """Factors q with big == small * q (syntactic factor matching), or None."""
    out = list(big)
    for f, e in small:
        for i, (g, k) in enumerate(out):
            if f == g:
                if k < e:
                    return None
                if k == e:
                    out.pop(i)
                else:
                    out[i] = (g, k - e)
                break
        else:
            return None
    return tuple(out)


def den_lcm_parts(a: tuple, b: tuple):
    """(lcm, missing-from-a, missing-from-b) by factor-wise max."""
    lcm = list(a)
    extra_a: list = []
    for f, e in b:
        for i, (g, k) in enumerate(lcm):
            if f == g:
                if e > k:
                    lcm[i] = (g, e)
                    extra_a.append((g, e - k))
                break
        else:
            lcm.append((f, e))
            extra_a.append((f, e))
    bmap = []
    for f, e in lcm:
        have = 0
        for g, k in b:
            if f == g:
                have = k
                break
        if e > have:
            bmap.append((f, e - have))
    return tuple(lcm), tuple(extra_a), tuple(bmap)


def den_expand(den: tuple) -> dict:
    out = P_ONE
    for f, e in den:
        out = p_mul(out, _p_reduce(p_ipow(f, e)))
    return out


def _mul_factors(num: dict, factors: tuple) -> dict:
    for f, e in factors:
        num = p_mul(num, _p_reduce(p_ipow(f, e)))
    return num


class RF:
    """num / product(den factors); root atoms kept reduced in num and in
    every factor."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: tuple):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def is_zero(self) -> bool:
        return not self.num


RF_ZERO = RF(P_ZERO, DEN_ONE)
RF_ONE = RF(P_ONE, DEN_ONE)


def _den_push(num: dict, den: tuple):
    """Normalize factor list: drop constants into the numerator, split
    monomial contents, refuse zero factors."""
    out = []
    scale = GRat(1)
    for f, e in den:
        if not f:
            raise ExprError("division by zero in normalization")
        if p_is_const(f):
            scale = scale * f[M_ONE] ** e
            continue
        out.append((f, e))
    if not scale.is_one():
        num = p_scale(num, scale.inverse())
    return num, tuple(out)


_CANCEL_SIZE_LIMIT = 400


def rf_make(num: dict, den: tuple) -> RF:
    num, den = _den_push(num, den)
    if not num:
        return RF_ZERO
    # cancel whole factors that exactly divide the numerator; skipped for
    # very large numerators where reduced form is not worth the division
    changed = len(num) <= _CANCEL_SIZE_LIMIT
    while changed and den:
        changed = False
        new_den = list(den)
        for i, (f, e) in enumerate(new_den):
            q = p_divexact(num, f)
            if q is not None:
                num = q
                if e == 1:
                    new_den.pop(i)
                else:
                    new_den[i] = (f, e - 1)
                changed = True
                break
        den = tuple(new_den)
    return RF(num, den)


def rf_add(a: RF, b: RF) -> RF:
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.den == b.den:
        return RF(p_add(a.num, b.num), a.den)
    q = den_try_div(b.den, a.den)
    if q is not None:
        return rf_make(p_add(_mul_factors(a.num, q), b.num), b.den)
    q = den_try_div(a.den, b.den)
    if q is not None:
        return rf_make(p_add(a.num, _mul_factors(b.num, q)), a.den)
    lcm, extra_a, extra_b = den_lcm_parts(a.den, b.den)
    return rf_make(
        p_add(_mul_factors(a.num, extra_a), _mul_factors(b.num, extra_b)), lcm
    )


def rf_mul(a: RF, b: RF) -> RF:
    if a.is_zero() or b.is_zero():
        return RF_ZERO
    return rf_make(p_mul(a.num, b.num), den_mul(a.den, b.den))


def rf_inv(a: RF) -> RF:
    if a.is_zero():
        raise ExprError("division by zero in normalization")
    num = den_expand(a.den)
    return rf_make(num, ((dict(a.num), 1),))


def rf_ipow(a: RF, n: int) -> RF:
    if n == 0:
        return RF_ONE
    if n < 0:
        return rf_ipow(rf_inv(a), -n)
    num = _p_reduce(p_ipow(a.num, n))
    den = tuple((f, e * n) for f, e in a.den)
    return rf_make(num, den)


def _conjugate_out(num: dict, den: dict):
    """Multiply num and den so that den is free of root atoms (square roots)."""
    for _ in range(32):
        target = None
        for atom in p_atoms(den):
            if atom in _ROOT_BASE:
                target = atom
                break
        if target is None:
            return num, den
        q = target.exponent.denominator
        if q != 2:
            raise ExprError("cannot rationalize denominators with roots of order > 2")
        a_part: dict = {}
        b_part: dict = {}
        for m, c in den.items():
            d = dict(m)
            e = d.pop(target, 0)
            mm = tuple(sorted(d.items(), key=lambda kv: _skey(kv[0])))
            part = a_part if e == 0 else b_part
            part[mm] = part.get(mm, GRat(0)) + c
        conj = p_add(a_part, p_neg(p_mul_mono(b_part, ((target, 1),), GRat(1))))
        den2 = p_mul(den, conj)
        if not den2:
            raise ExprError("degenerate root atom: base is a perfect square")
        num = p_mul(num, conj)
        den = den2
    raise ExprError("denominator rationalization did not converge")


def rf_canon(a: RF) -> RF:
    """Full canonical form: rationalized single-polynomial denominator,
    gcd-cancelled, joint content removed, denominator lead coefficient
    unit-normalized."""
    if a.is_zero():
        return RF_ZERO
    num, den = _conjugate_out(a.num, den_expand(a.den))
    if not num:
        return RF_ZERO
    if not p_is_const(den):
        g = p_gcd(num, den)
        if not p_is_const(g):
            num = p_divexact(num, g)
            den = p_divexact(den, g)
    monos_n = sorted(num, key=m_key)
    monos_d = sorted(den, key=m_key)
    scale, _ = content_normalize([num[m] for m in monos_n] + [den[m] for m in monos_d])
    num = p_scale(num, scale)
    den = p_scale(den, scale)
    u = canonical_unit(den[monos_d[-1]])
    if not u.is_one():
        num = p_scale(num, u)
        den = p_scale(den, u)
    if p_is_const(den):
        c = den.get(M_ONE, GRat(1))
        if not c.is_one():
            num = p_scale(num, c.inverse())
        return RF(num, DEN_ONE)
    return RF(num, ((den, 1),))


# ---------------------------------------------------------------------------
# Expr <-> RF conversion
# ---------------------------------------------------------------------------


def to_rf(e: Expr) -> RF:
    got = _RF_CACHE.get(e)
    if got is not None:
        return got
    out = _to_rf(e)
    _RF_CACHE[e] = out
    return out


def _to_rf(e: Expr) -> RF:
    if isinstance(e, Num):
        return RF(p_const(e.val), DEN_ONE)
    if isinstance(e, (Var, Param)):
        return RF(p_atom(_intern(e)), DEN_ONE)
    if isinstance(e, Add):
        out = RF_ZERO
        for t in e.terms:
            out = rf_add(out, to_rf(t))
        return out
    if isinstance(e, Mul):
        out = RF_ONE
        for f in e.factors:
            out = rf_mul(out, to_rf(f))
            if out.is_zero():
                return RF_ZERO
        return out
    if isinstance(e, Pow):
        rb = to_rf(e.base)
        p, q = e.exponent.numerator, e.exponent.denominator
        if q == 1:
            return rf_ipow(rb, p)
        if rb.is_zero():
            if p > 0:
                return RF_ZERO
            raise ExprError("zero base with negative fractional exponent")
        crb = rf_canon(rb)
        cb = rf_to_expr(crb)
        if isinstance(cb, Num):
            from .expr import _exact_root

            root = _exact_root(cb.val, q)
            if root is not None:
                return RF(p_const(root**p), DEN_ONE)
        if crb.den != DEN_ONE:
            raise ExprError(
                "fractional powers are supported for polynomial bases only"
            )
        atom = _intern(Pow(cb, Fraction(1, q)))
        _ROOT_BASE.setdefault(atom, crb.num)
        n, m = divmod(p, q)
        out = rf_ipow(crb, n)
        if m:
            out = rf_mul(out, RF(p_atom(atom, m), DEN_ONE))
        return out
    if isinstance(e, App):
        return RF(p_atom(_intern(App(e.fn, normalize(e.arg)))), DEN_ONE)
    if isinstance(e, AbsApp):
        atom = AbsApp(e.name, e.dcounts, tuple(normalize(a) for a in e.args))
        return RF(p_atom(_intern(atom)), DEN_ONE)
    raise ExprError(f"cannot normalize {type(e).__name__}")


def _mono_expr(m: tuple, c: GRat) -> Expr:
    factors = [pow_(atom, Fraction(e)) for atom, e in m]
    return mul(Num(c), *factors)


def _poly_expr(p: dict) -> Expr:
    if not p:
        return NUM_ZERO
    terms = [_mono_expr(m, p[m]) for m in sorted(p, key=m_key, reverse=True)]
    return add(*terms)


def rf_to_expr(rf: RF) -> Expr:
    if rf.is_zero():
        return NUM_ZERO
    npart = _poly_expr(rf.num)
    if not rf.den:
        return npart
    inv = [pow_(_poly_expr(f), Fraction(-e)) for f, e in rf.den]
    return mul(npart, *inv)


def raw_form(e: Expr):
    """(proved_zero, evaluation tree) without the canonical gcd pass.

    Zero detection only needs the reduced numerator; the returned tree is
    suitable for numeric sampling but is not the canonical form.
    """
    rf = to_rf(e)
    if rf.is_zero():
        return True, NUM_ZERO
    return False, rf_to_expr(rf)


def normalize(e: Expr) -> Expr:
    """Canonical form; idempotent, and the literal zero node iff e == 0 as a
    rational combination of its atoms."""
    got = _NORM_CACHE.get(e)
    if got is not None:
        return got
    try:
        out = rf_to_expr(rf_canon(to_rf(e)))
    except RecursionError:
        raise ExprError("expression nested too deeply") from None
    _NORM_CACHE[e] = out
    _NORM_CACHE[out] = out
    return out


def is_provably_zero(e: Expr) -> bool:
    return normalize(e) == NUM_ZERO


def poly_degree_in_vars(e: Expr):
    """Total degree in x1,x2,x3 when e is polynomial in them, else None."""
    rf = rf_canon(to_rf(e))
    if rf.den != DEN_ONE:
        return None
    deg = 0
    for m in rf.num:
        d = 0
        for atom, ex in m:
            if isinstance(atom, Var):
                d += ex
            elif not isinstance(atom, Param):
                return None
        deg = max(deg, d)
    return deg
