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
that with univariate images modulo a prime (`_coprime_certified`), asks
again of the primitive parts once the contents are divided out, and runs
the pseudo-remainder sequence only when the images cannot decide.  The proof
is exact, not probabilistic; it is spelled out in `_coprime_certified`.

Packed monomials (after Monagan & Pearce, CASC 2007): the scope's atom table
gives each atom, in the order it is first met, a field of _W = 32 bits, and
a monomial is one non-negative int that holds each exponent in its atom's
field: x**e for the k-th atom is e << 32*k, and 1 is 0.  The top bit of a
field is a guard bit, zero in every monomial, so a product is a + b with
one test of the guard bits, a quotient is b - a, and divisibility is one
subtraction with the guard bits set.  An exponent must stay below
_LIMIT = 2**31; one at or above it raises ExprError.  The field order is
the order of first use, not the canonical one: the graded-lex order of
`m_key`, the order of a printed monomial's factors, the gcd's main variable
and the coprimality check's point ranks all go by the atoms' s-expression
text, as they did when a monomial was a tuple of (atom, exponent) pairs,
so every canonical form is the same.

Memo lifetime: the rational forms and normal forms of subtrees, the atom
table, the root-atom bases, the atom derivatives and the per-monomial
memos live for one kernel scope, `kernel_scope`.  `normalize`, `raw_form`
(so `is_zero`) and `is_provably_zero` enter it, and the outermost exit
empties them, so a library caller's memory is that of one outermost call.
`pdmlab.cli.main` holds one scope for a whole command, whose checks then
share normal forms.  A form or monomial
returned by the internal helpers (`to_rf`, `rf_canon`, `rf_diff`, ...) is
valid only inside the scope that made it; call them inside one.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GRat, ONE, ZERO, canonical_unit, content_normalize, primitive_scale
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
    check_power_size,
    diff_wrt,
    mul,
    pow_,
)
from .sexpr import to_sexpr

# monomial: int of packed exponent fields (module docstring)
# polynomial: dict monomial -> GRat (zero polynomial is the empty dict)

_W = 32
_LIMIT = 1 << (_W - 1)
_FIELD = _LIMIT - 1

# Memo state of one kernel scope (below); empty outside every scope.
_NORM_CACHE: dict = {}
_RF_CACHE: dict = {}
_MKEY: dict = {}  # monomial -> m_key
_MFACTORS: dict = {}  # monomial -> its printed factors, in atom-key order
_ROOT_BASE: dict = {}  # field of a root atom -> (q, base polynomial)
_DIFF: dict = {}  # (field of an atom, variable) -> the atom's derivative
# the atom table, a field named by its bit offset: atom -> field, and
# field -> (sort key, atom); _GUARDS holds the guard bit of every field
_SHIFT: dict = {}
_ATOMS: dict = {}
_GUARDS = 0


class _KernelScope:
    """Reentrant lifetime of the memo state: `with kernel_scope:`.

    The public entry points enter it, and the outermost exit clears it,
    also when a BaseException (an interrupt, a timeout signal) ends the
    call.  What refers to fields goes before the atom table: an exit cut
    short between two clears leaves no form, memo or root base that a later
    atom could take the field of.
    """

    __slots__ = ("depth",)

    def __init__(self):
        self.depth = 0

    def __enter__(self):
        self.depth += 1

    def __exit__(self, *exc):
        global _GUARDS
        self.depth -= 1
        if not self.depth:
            _NORM_CACHE.clear()
            _RF_CACHE.clear()
            _MKEY.clear()
            _MFACTORS.clear()
            _ROOT_BASE.clear()
            _DIFF.clear()
            _SHIFT.clear()
            _ATOMS.clear()
            _GUARDS = 0


kernel_scope = _KernelScope()


def _shift(atom: Expr) -> int:
    """Bit offset of atom's field, given on first use."""
    global _GUARDS
    s = _SHIFT.get(atom)
    if s is None:
        s = _W * len(_ATOMS)
        _ATOMS[s] = (to_sexpr(atom), atom)
        _GUARDS |= _LIMIT << s
        _SHIFT[atom] = s
    return s


def _unpack(m: int) -> list:
    """(field, exponent) of every nonzero field of m, lowest first."""
    out = []
    while m:
        s = (m & -m).bit_length() - 1
        s -= s % _W
        e = (m >> s) & _FIELD
        out.append((s, e))
        m ^= e << s
    return out


def _support(m: int) -> int:
    """The guard bits of the nonzero fields of m (an OR of monomials)."""
    return (m + _GUARDS - (_GUARDS >> (_W - 1))) & _GUARDS


def _support_fields(support: int) -> list:
    return [s for s, _ in _unpack(support >> (_W - 1))]


def _atom_key(s: int) -> str:
    """Sort key of field s's atom: its s-expression text."""
    return _ATOMS[s][0]


def _too_large():
    return ExprError(f"exponent too large: a monomial holds exponents below 2^{_W - 1}")


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

M_ONE = 0


def m_mul(a: int, b: int) -> int:
    m = a + b
    if m & _GUARDS:
        raise _too_large()
    return m


def m_divides(a: int, b: int) -> bool:
    """True if monomial a divides monomial b: no field of b - a borrows."""
    return ((b | _GUARDS) - a) & _GUARDS == _GUARDS


def m_div(b: int, a: int) -> int:
    """b / a, assuming divisibility."""
    return b - a


def m_gcd(a: int, b: int) -> int:
    """Fieldwise minimum: a field of (a | guards) - b keeps its guard bit
    where a's exponent is at least b's, and takes b's there."""
    ge = ((a | _GUARDS) - b) & _GUARDS
    ge -= ge >> (_W - 1)
    return (b & ge) | (a & ~ge)


def m_key(m: int):
    # graded lex; pairs listed by descending atom key so the induced order is
    # multiplicative (required by the division algorithm inside the gcd)
    k = _MKEY.get(m)
    if k is None:
        pairs = _unpack(m)
        k = (sum(e for _, e in pairs),
             tuple(sorted(((_ATOMS[s][0], e) for s, e in pairs), reverse=True)))
        _MKEY[m] = k
    return k


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

P_ZERO: dict = {}
P_ONE = {M_ONE: ONE}


def p_const(c: GRat) -> dict:
    return {} if c.is_zero() else {M_ONE: c}


def p_atom(atom: Expr, e: int = 1) -> dict:
    if e >= _LIMIT:
        raise _too_large()
    return {e << _shift(atom): ONE}


def p_add(a: dict, b: dict) -> dict:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    _p_add_into(out, b)
    return out


def _p_add_into(out: dict, b: dict) -> None:
    """out += b in place: a key whose sum is zero is deleted, a new key is
    appended at the end."""
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


def p_neg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def p_scale(a: dict, c: GRat) -> dict:
    if c.is_zero():
        return P_ZERO
    return {m: v * c for m, v in a.items()}


def p_mul_mono(a: dict, mono: int, c: GRat) -> dict:
    out = {m + mono: v * c for m, v in a.items()}
    if p_atoms(out) & _GUARDS:
        raise _too_large()
    return out


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
    over = 0
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            over |= m
            s = out.get(m)
            if s is None:
                out[m] = c1 * c2
            else:
                s = s + c1 * c2
                if s.is_zero():
                    del out[m]
                else:
                    out[m] = s
    if over & _GUARDS:
        raise _too_large()
    return out


# A t-term sum to the power n expands into at most C(n+t-1, t-1) terms.
# p_ipow refuses a power whose bound is above EXPANSION_LIMIT, so one short
# input cannot hold the kernel for minutes.  (^ (+ x1 x2 1) 100) is 5,151
# terms and the cube of a 42-term sum 13,244; (^ (+ x1 x2 1) 200) would be
# 20,301, and the denominator of (^ (+ x1 1) -2147483648) 2^31 + 1.
EXPANSION_LIMIT = 15_000


def _expansion_too_large(t: int, n: int) -> ExprError:
    try:
        return ExprError(f"expansion too large: a {t}-term sum to the power {n} has up to"
                         f" C({n + t - 1}, {t - 1}) terms, above {EXPANSION_LIMIT}")
    except ValueError:
        # n has more digits than int -> str converts, and no monomial of a
        # power that high fits
        return _too_large()


def p_ipow(a: dict, n: int) -> dict:
    if len(a) == 1:
        # one term c m: c ** n is a folded power of a number
        check_power_size(next(iter(a.values())), n)
    elif n > 1:
        bound = 1
        for k in range(1, len(a)):
            bound = bound * (n + k) // k    # C(n+k, k)
            if bound > EXPANSION_LIMIT:
                raise _expansion_too_large(len(a), n)
        # the squarings form c ** n for each coefficient c on the way, so
        # each must pass the bound of a folded power
        for c in a.values():
            check_power_size(c, n)
    out = P_ONE
    base = a
    while n:
        if n & 1:
            out = p_mul_raw(out, base)
        n >>= 1
        if n:
            base = p_mul_raw(base, base)
    return out


def p_diff(p: dict, atom: Expr) -> dict:
    """Derivative of p by atom's field, every other atom held constant:
    c x**e becomes e c x**(e-1).  An atom with no field in the scope occurs
    in no polynomial, so its derivative is zero.  No chain rule: an atom
    that depends on `atom` (a root atom, sin(x1)) is held constant too."""
    s = _SHIFT.get(atom)
    if s is None:
        return P_ZERO
    one = 1 << s
    out = {}
    for m, c in p.items():
        e = (m >> s) & _FIELD
        if e:
            out[m - one] = c if e == 1 else c * GRat(e)
    return out


def p_is_const(a: dict) -> bool:
    return len(a) == 0 or (len(a) == 1 and M_ONE in a)


def p_lead(a: dict):
    m = max(a, key=m_key)
    return m, a[m]


def p_atoms(a: dict) -> int:
    """The OR of a's monomials: a field is nonzero iff its atom occurs."""
    out = 0
    for m in a:
        out |= m
    return out


def p_mono_content(a: dict) -> int:
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
    # Division here is in the free ring of the packed monomials (no root
    # reduction), where every atom is prime.  b's cofactor of its monomial
    # content has no atom factor, so b divides a exactly when b's content
    # divides a's and b's cofactor divides a's.  Dividing the cofactors
    # keeps a common atom power out of the loop below, which would take
    # one step per unit of its exponent before refuting.
    ma, mb = p_mono_content(a), p_mono_content(b)
    if not m_divides(mb, ma):
        return None
    if ma:
        a = {m_div(m, ma): c for m, c in a.items()}
    if mb:
        b = {m_div(m, mb): c for m, c in b.items()}
    # deg_z(q*b) = deg_z(q) + deg_z(b) >= deg_z(b) for every atom z and
    # nonzero q.  An atom of b that a lacks would have degree 0 in a = q*b,
    # so no quotient exists.
    if _support(p_atoms(b)) & ~_support(p_atoms(a)):
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
        q[qm] = q.get(qm, ZERO) + qc
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
    shift = m_div(ma, mb)
    if shift:
        # graded lex is multiplicative: the shift keeps q's term order
        q = {m_mul(m, shift): c for m, c in q.items()}
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


def _to_univ(p: dict, s: int):
    """Coefficient list (index = degree in the atom of field s) with
    polynomial entries."""
    coeffs: dict = {}
    for m, c in p.items():
        d = (m >> s) & _FIELD
        entry = coeffs.setdefault(d, {})
        rest = m ^ (d << s)
        entry[rest] = entry.get(rest, ZERO) + c
    top = max(coeffs)
    return [coeffs.get(d, P_ZERO) for d in range(top + 1)]


def _from_univ(coeffs, s: int) -> dict:
    out: dict = {}
    for d, p in enumerate(coeffs):
        if not p:
            continue
        mono = d << s
        for m, c in p.items():
            mm = m + mono
            out[mm] = out.get(mm, ZERO) + c
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


def _u_primitive(coeffs, content: dict) -> list:
    """coeffs divided by their polynomial content and then by their numeric
    content: the rational one, which `_u_content` leaves behind when the
    polynomial content is constant, and the Gaussian one, such as 1+i."""
    coeffs = [p_divexact(c, content) if c else P_ZERO for c in coeffs]
    scale = primitive_scale([v for c in coeffs for v in c.values()])
    if scale.is_one():
        return coeffs
    return [p_scale(c, scale) for c in coeffs]


# F_p for the coprimality check: p = 2^62 - 87 is prime with p = 1 (mod 4),
# and _S^2 = -1 (mod p), so i -> _S maps Z[i] onto F_p as a ring.
_P = 4611686018427387817
_S = 120863620846201794
_MASK64 = (1 << 64) - 1


def _point_value(k: int) -> int:
    """Fixed nonzero value in F_p of the k-th atom in atom-key order.

    The rank goes through the SplitMix64 finalizer, so the values satisfy no
    small multiplicative relation.  Values in arithmetic progression would:
    (k + 1) * c gives v1^2 = v0 * v3, so a leading coefficient such as
    x1^2 - a*x3 would vanish and send a coprime pair to the PRS.
    """
    z = (k + 1) * 0x9E3779B97F4A7C15 & _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) % _P or 1


def _image_mod_p(p: dict, x: int, point: dict) -> list:
    """Coefficient list over F_p (index = degree in the atom of field x) of a
    Gaussian-integer polynomial, every other atom evaluated at point (field
    -> value)."""
    out: dict = {}
    for m, c in p.items():
        v = (c.a + _S * c.b) % _P
        d = (m >> x) & _FIELD
        for s, e in _unpack(m ^ (d << x)):
            v = v * pow(point[s], e, _P) % _P
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
    atoms_a = _support(p_atoms(a))
    atoms_b = _support(p_atoms(b))
    ordered = sorted(_support_fields(atoms_a | atoms_b), key=_atom_key)
    point = {s: _point_value(r) for r, s in enumerate(ordered)}
    _, ca = content_normalize(list(a.values()))
    _, cb = content_normalize(list(b.values()))
    a = dict(zip(a, ca))
    b = dict(zip(b, cb))
    for x in _support_fields(atoms_a & atoms_b):
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
    mod p prove the gcd constant, and then whether they prove the primitive
    parts in the main atom coprime, when the gcd is that of the contents
    (Gauss's lemma); when they do not (a common factor, or an unlucky prime
    or point), the pseudo-remainder sequence decides, as the single
    fallback."""
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
        core = p_mul_mono(core, mg, ONE)
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
    atoms_a = _support(p_atoms(a))
    atoms_b = _support(p_atoms(b))
    atoms = atoms_a & atoms_b
    if not atoms:
        return P_ONE
    if atoms_a != atoms_b:
        # the gcd divides the polynomial that lacks an atom of the other, so
        # it is the gcd of that polynomial and the other's coefficients in
        # the atom: smaller problems than a PRS that carries the atom in its
        # coefficients, where they swell
        x = min(_support_fields(atoms_a ^ atoms_b), key=_atom_key)
        if (p_atoms(b) >> x) & _FIELD:
            a, b = b, a
        return _u_content([b, *_to_univ(a, x)])
    main = min(_support_fields(atoms), key=_atom_key)
    ua = _to_univ(a, main)
    ub = _to_univ(b, main)
    ca = _u_content(ua)
    cb = _u_content(ub)
    pa = _u_primitive(ua, ca)
    pb = _u_primitive(ub, cb)
    if _coprime_certified(_from_univ(pa, main), _from_univ(pb, main)):
        return p_gcd(ca, cb)  # Gauss's lemma: the gcd is the contents' gcd
    if len(pa) < len(pb):
        pa, pb = pb, pa
    # Brown's primitive PRS: every remainder loses its content, so the
    # coefficients stay as small as the gcd allows
    while pb:
        r = _u_prem(pa, pb)
        if r:
            r = _u_primitive(r, _u_content(r))
        pa, pb = pb, r
    g = _from_univ(pa, main)
    cont = p_gcd(ca, cb)
    if not p_is_const(cont):
        g = p_mul_raw(g, cont)
    return g


# ---------------------------------------------------------------------------
# root-atom reduction (polynomial level)
# ---------------------------------------------------------------------------


def _overflow_atom(m: int):
    """Field of a root atom whose exponent in m has reached its q, or None."""
    for s, (q, _) in _ROOT_BASE.items():
        if (m >> s) & _FIELD >= q:
            return s
    return None


def _p_reduce(p: dict) -> dict:
    """Apply atom**q -> base until all root-atom exponents are below q.

    Root-atom bases are polynomials (enforced at atom registration), so the
    reduction is closed on polynomials.  With no root atom registered in
    this scope there is nothing to reduce.
    """
    if not _ROOT_BASE:
        return p
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
            q, base = _ROOT_BASE[hit]
            stay: dict = {}
            grouped: dict = {}
            for mm, cc in tn.items():
                k, r = divmod((mm >> hit) & _FIELD, q)
                if k == 0:
                    stay[mm] = stay.get(mm, ZERO) + cc
                    continue
                grouped.setdefault(k, {})[mm - ((k * q) << hit)] = cc
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


def _mul_factors(num: dict, factors: tuple) -> dict:
    """num times the expanded factor list; _mul_factors(P_ONE, den) expands
    a denominator."""
    for f, e in factors:
        num = p_mul(num, _p_reduce(p_ipow(f, e)))
    return num


class RF:
    """num / product(den factors); root atoms kept reduced in num and in
    every factor."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: tuple):
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return not self.num


RF_ZERO = RF(P_ZERO, DEN_ONE)
RF_ONE = RF(P_ONE, DEN_ONE)


def _den_push(num: dict, den: tuple):
    """Normalize factor list: drop constants into the numerator, split
    monomial contents, refuse zero factors."""
    out = []
    scale = ONE
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


# rf_make cancels whole denominator factors only for numerators of at most
# this many terms.  Both sides of the test pay, in fresh-process wall times
# (median of 3 on a 2-vCPU machine): with no cancellation, `transform --kind
# inversion --entry 18` takes 1.73 s instead of 0.47 s; cancelling at every
# size, `catalog verify --all --worked` takes 5.60 s instead of 5.03 s.
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
    num = _mul_factors(P_ONE, a.den)
    return rf_make(num, ((dict(a.num), 1),))


def rf_ipow(a: RF, n: int) -> RF:
    if n == 0:
        return RF_ONE
    if n < 0:
        return rf_ipow(rf_inv(a), -n)
    num = _p_reduce(p_ipow(a.num, n))
    den = tuple((f, e * n) for f, e in a.den)
    return rf_make(num, den)


def rf_scale(a: RF, c: GRat) -> RF:
    return RF_ZERO if c.is_zero() else RF(p_scale(a.num, c), a.den)


def rf_diff(a: RF, v: Expr) -> RF:
    """Derivative of a by the Var or Param v: the quotient rule over a's
    factored denominator, d(N / prod f^e) = (N' - N sum e f'/f) / prod f^e."""
    out = _p_rf_diff(a.num, v)
    if a.den:
        out = rf_mul(out, RF(P_ONE, a.den))
    for f, e in a.den:
        quotient = RF(p_scale(a.num, GRat(-e)), den_mul(a.den, ((f, 1),)))
        out = rf_add(out, rf_mul(_p_rf_diff(f, v), quotient))
    return out


def _p_rf_diff(p: dict, v: Expr) -> RF:
    """Derivative of a polynomial by v: p_diff on v's own field, and the
    chain rule through the derivative of every atom that is not a Var or
    Param, to_rf(diff_wrt(atom, v)), memoized for the scope."""
    poly = p_diff(p, v)
    out = RF_ZERO
    for s in _support_fields(_support(p_atoms(p))):
        atom = _ATOMS[s][1]
        if isinstance(atom, (Var, Param)):
            continue
        da = _DIFF.get((s, v))
        if da is None:
            da = _DIFF[s, v] = to_rf(diff_wrt(atom, v))
        if not da.is_zero():
            out = rf_add(out, rf_mul(RF(p_diff(p, atom), DEN_ONE), da))
    return rf_add(RF(poly, DEN_ONE), out) if poly else out


def _conjugate_out(num: dict, den: dict):
    """Multiply num and den so that den is free of root atoms (square roots)."""
    for _ in range(32):
        atoms = p_atoms(den)
        target = next((s for s in _ROOT_BASE if (atoms >> s) & _FIELD), None)
        if target is None:
            return num, den
        if _ROOT_BASE[target][0] != 2:
            raise ExprError("cannot rationalize denominators with roots of order > 2")
        a_part: dict = {}
        b_part: dict = {}
        for m, c in den.items():
            e = (m >> target) & _FIELD
            mm = m ^ (e << target)
            part = a_part if e == 0 else b_part
            part[mm] = part.get(mm, ZERO) + c
        conj = p_add(a_part, p_neg(p_mul_mono(b_part, 1 << target, ONE)))
        den2 = p_mul(den, conj)
        if not den2:
            raise ExprError("degenerate root atom: base is a perfect square")
        num = p_mul(num, conj)
        den = den2
    raise ExprError("denominator rationalization did not converge")


def rf_canon(a: RF) -> RF:
    """Full canonical form: rationalized single-polynomial denominator,
    gcd-cancelled, joint Gaussian-integer content removed, denominator lead
    coefficient unit-normalized."""
    if a.is_zero():
        return RF_ZERO
    num, den = _conjugate_out(a.num, _mul_factors(P_ONE, a.den))
    if not num:
        return RF_ZERO
    if not p_is_const(den):
        g = p_gcd(num, den)
        if not p_is_const(g):
            num = p_divexact(num, g)
            den = p_divexact(den, g)
    monos_n = sorted(num, key=m_key)
    monos_d = sorted(den, key=m_key)
    # the Gaussian content, such as 1+i, as well as the rational one: a
    # PRS-decided gcd does not remove it
    scale = primitive_scale([num[m] for m in monos_n] + [den[m] for m in monos_d])
    num = p_scale(num, scale)
    den = p_scale(den, scale)
    u = canonical_unit(den[monos_d[-1]])
    if not u.is_one():
        num = p_scale(num, u)
        den = p_scale(den, u)
    if p_is_const(den):
        c = den.get(M_ONE, ONE)
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
        return RF(p_atom(e), DEN_ONE)
    if isinstance(e, Add):
        # The sum is rf_add's, one term at a time, with one saving: while
        # a run of nonzero terms shares the nonzero sum's denominator,
        # rf_add would copy the numerator for each term (p_add), so the
        # run adds into one copy that this loop owns, by p_add's rules and
        # in term order.  The numerator's keys and their order, a zero
        # over a denominator met midway (which the next term replaces),
        # the denominators and the errors are therefore rf_add's.
        out = RF_ZERO
        num = None  # while a run lasts, the sum is RF(num, out.den)
        for t in e.terms:
            r = to_rf(t)
            if num:
                if not r.num:
                    continue
                if out.den == r.den:
                    _p_add_into(num, r.num)
                    continue
            if num is not None:
                # the run ends; rf_add, which replaces a zero sum by r, goes on
                out = RF(num, out.den)
                num = None
            if out.num and r.num and out.den == r.den:
                num = dict(out.num)
                _p_add_into(num, r.num)
            else:
                out = rf_add(out, r)
        return out if num is None else RF(num, out.den)
    if isinstance(e, Mul):
        # A run of nonzero numbers, Var/Param atoms and positive integer
        # powers of those atoms folds into one term, coef * x**mono, which
        # joins `out` before the next factor of any other kind.  Multiplying
        # a denominator-free form by such factors one at a time gives the
        # same numerator as one product by their term: rf_make has no
        # factor to cancel, and no root atom's exponent moves.  Each factor
        # registers its atom, and the guard bits are checked against every
        # monomial of `out`, as the factor joins, so an exponent past the
        # limit raises at the factor where a product of single factors
        # would.  Any other factor, and every factor once `out` has a
        # denominator, is multiplied in by itself, as cancellation needs.
        out = RF_ONE
        mono = 0
        coef = None  # the pending term's coefficient; None when none pends
        for f in e.factors:
            if not out.den:
                n = 1
                if isinstance(f, Num):
                    if not f.val.is_zero():
                        coef = f.val if coef is None else coef * f.val
                        continue
                    atom = None
                elif isinstance(f, (Var, Param)):
                    atom = f
                elif (isinstance(f, Pow) and isinstance(f.base, (Var, Param))
                      and f.exponent.denominator == 1 and f.exponent > 0):
                    atom = f.base
                    n = f.exponent.numerator
                else:
                    atom = None
                if atom is not None:
                    s = _shift(atom)
                    if n >= _LIMIT:
                        raise _too_large()
                    mono += n << s
                    # mono first: with a guard bit set, m + mono could carry;
                    # RF_ONE's one monomial is 0, which mono's test covers
                    if mono & _GUARDS or (out is not RF_ONE and any(
                            (m + mono) & _GUARDS for m in out.num)):
                        raise _too_large()
                    if coef is None:
                        coef = ONE
                    continue
            if coef is not None:
                out = RF(p_mul(out.num, {mono: coef}), DEN_ONE)
                mono = 0
                coef = None
            out = rf_mul(out, to_rf(f))
            if out.is_zero():
                return RF_ZERO
        if coef is not None:
            out = RF(p_mul(out.num, {mono: coef}), DEN_ONE)
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
                check_power_size(root, p)
                return RF(p_const(root**p), DEN_ONE)
        if crb.den != DEN_ONE:
            raise ExprError(
                "fractional powers are supported for polynomial bases only"
            )
        atom = Pow(cb, Fraction(1, q))
        _ROOT_BASE.setdefault(_shift(atom), (q, crb.num))
        n, m = divmod(p, q)
        out = rf_ipow(crb, n)
        if m:
            out = rf_mul(out, RF(p_atom(atom, m), DEN_ONE))
        return out
    if isinstance(e, App):
        return RF(p_atom(App(e.fn, normalize(e.arg))), DEN_ONE)
    if isinstance(e, AbsApp):
        atom = AbsApp(e.name, e.dcounts, tuple(normalize(a) for a in e.args))
        return RF(p_atom(atom), DEN_ONE)
    raise ExprError(f"cannot normalize {type(e).__name__}")


def _mono_expr(m: int, c: GRat) -> Expr:
    factors = _MFACTORS.get(m)
    if factors is None:
        pairs = sorted((_ATOMS[s] + (e,) for s, e in _unpack(m)), key=lambda t: t[0])
        factors = _MFACTORS[m] = tuple(pow_(atom, e) for _, atom, e in pairs)
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
    inv = [pow_(_poly_expr(f), -e) for f, e in rf.den]
    return mul(npart, *inv)


def raw_form(e: Expr):
    """(proved_zero, evaluation tree) without the canonical gcd pass.

    Zero detection only needs the reduced numerator; the returned tree is
    suitable for numeric sampling but is not the canonical form.
    """
    with kernel_scope:
        rf = to_rf(e)
        if rf.is_zero():
            return True, NUM_ZERO
        return False, rf_to_expr(rf)


def normalize(e: Expr) -> Expr:
    """Canonical form; idempotent, and the literal zero node iff e == 0 as a
    rational combination of its atoms."""
    with kernel_scope:
        got = _NORM_CACHE.get(e)
        if got is not None:
            return got
        try:
            out = rf_to_expr(rf_canon(to_rf(e)))
        except RecursionError:
            raise ExprError("expression nested too deeply") from None
        _NORM_CACHE[e] = out
        return out


def is_provably_zero(e: Expr) -> bool:
    """e == 0 as a rational combination of its atoms: its reduced numerator
    is empty, as in raw_form, without normalize's gcd pass."""
    with kernel_scope:
        try:
            return to_rf(e).is_zero()
        except RecursionError:
            raise ExprError("expression nested too deeply") from None
