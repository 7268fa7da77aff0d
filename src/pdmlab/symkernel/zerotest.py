"""Two-tier zero certification and seeded numeric evaluation.

Tier 1 (symbolic): an expression whose canonical form is the literal zero
node is proved zero exactly; for expressions linear in abstract-derivative
symbols this happens coefficient-wise by construction of the normal form.

Tier 2 (numeric): seeded random sampling of coordinates, parameters and
abstract-derivative symbols, with a scale-relative tolerance.  Sampling is
deterministic given (seed, label).  The sampling ranges and the attempt
budget are the module constants below; a policy sets only the point count,
the tolerance and the seed.

Screen, then prove: is_zero first evaluates the expression as given, before
any expansion, at the first SCREEN_POINTS points of the numeric stream.  A
value above tolerance at every one of them shows the expression is nonzero
(Schwartz 1980), so the verdict is NonZero at the numeric tier without the
symbolic pass.  Every other expression goes through both tiers as before:
`symbolic` still means an exact proof of zero.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    AbsApp,
    Add,
    App,
    Expr,
    Mul,
    Num,
    Param,
    Pow,
    Var,
    abstract_symbols,
    free_params,
)
from .ratform import normalize, raw_form
from .sexpr import to_sexpr

DEFAULT_SEED = 271828

# Sampling ranges, as numerators over 1024: coordinate magnitudes in
# [0.1, 2], avoiding the singular loci r=0, r~=0, x1=0 of the catalog;
# parameters and abstract-derivative symbols in [0.3, 1.7].  A test gives
# up after points * MAX_ATTEMPT_FACTOR draws.
COORD_RANGE = (102, 2048)
PARAM_RANGE = (307, 1740)
MAX_ATTEMPT_FACTOR = 20


class EvalDomainError(ArithmeticError):
    """Evaluation hit a pole or domain boundary; carries the subtree."""

    def __init__(self, subtree: Expr, reason: str):
        super().__init__(f"{reason} in {to_sexpr(subtree)}")
        self.subtree = subtree
        self.reason = reason


@dataclass(frozen=True)
class ZeroTestPolicy:
    """Sampling policy for the numeric tier: the point count, the relative
    tolerance and the seed.

    Coordinates are rationals from [-2,-0.1] u [0.1,2] (denominator 1024),
    parameters and abstract-derivative symbols rationals from [0.3, 1.7]:
    fixed ranges, the module constants COORD_RANGE and PARAM_RANGE.
    """

    points: int = 50
    tol: float = 1e-9
    seed: int = DEFAULT_SEED

    def rng(self, label: str = "") -> random.Random:
        digest = hashlib.sha256(f"{self.seed}|{label}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def sample_coord(self, rng: random.Random) -> Fraction:
        mag = Fraction(rng.randint(*COORD_RANGE), 1024)
        return mag if rng.random() < 0.5 else -mag

    def sample_param(self, rng: random.Random) -> Fraction:
        return Fraction(rng.randint(*PARAM_RANGE), 1024)


DEFAULT_POLICY = ZeroTestPolicy()


# -- zero statuses -----------------------------------------------------------


@dataclass(frozen=True)
class ProvedZero:
    tier = "symbolic"

    @property
    def is_zero(self) -> bool:
        return True


@dataclass(frozen=True)
class NumericZero:
    points_tested: int
    max_residual: float
    tier = "numeric"

    @property
    def is_zero(self) -> bool:
        return True


@dataclass(frozen=True)
class NonZero:
    witness: dict
    value: complex
    tier = "numeric"

    @property
    def is_zero(self) -> bool:
        return False


@dataclass(frozen=True)
class Inconclusive:
    reason: str
    tier = "none"

    @property
    def is_zero(self) -> bool:
        return False


# -- evaluation ---------------------------------------------------------------


class _Scale:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def feed(self, v: complex) -> complex:
        a = abs(v)
        if a > self.value:
            self.value = a
        return v


def _eval(e: Expr, point, params, absvals, scale: _Scale) -> complex:
    if isinstance(e, Num):
        return scale.feed(complex(e.val))
    if isinstance(e, Var):
        return scale.feed(complex(point[e.axis - 1]))
    if isinstance(e, Param):
        try:
            return scale.feed(complex(params[e.name]))
        except KeyError:
            raise EvalDomainError(e, f"unassigned parameter {e.name}")
    if isinstance(e, Add):
        return scale.feed(sum(_eval(t, point, params, absvals, scale) for t in e.terms))
    if isinstance(e, Mul):
        out = 1 + 0j
        for f in e.factors:
            out *= _eval(f, point, params, absvals, scale)
        return scale.feed(out)
    if isinstance(e, Pow):
        b = _eval(e.base, point, params, absvals, scale)
        q = e.exponent
        if q.denominator == 1:
            if b == 0 and q < 0:
                raise EvalDomainError(e, "division by zero")
            return scale.feed(b ** q.numerator)
        if b == 0:
            if q < 0:
                raise EvalDomainError(e, "division by zero")
            return scale.feed(0j)
        if b.imag == 0 and b.real < 0:
            raise EvalDomainError(e, "fractional power of a negative value")
        return scale.feed(b ** float(q))
    if isinstance(e, App):
        a = _eval(e.arg, point, params, absvals, scale)
        if e.fn == "exp":
            if a.real > 700:
                raise EvalDomainError(e, "exp overflow")
            return scale.feed(cmath.exp(a))
        if e.fn == "ln":
            if a == 0 or (a.imag == 0 and a.real <= 0):
                raise EvalDomainError(e, "ln of a non-positive value")
            return scale.feed(cmath.log(a))
        if e.fn == "arctan":
            if a.imag == 0:
                return scale.feed(complex(math.atan(a.real)))
            return scale.feed(cmath.atan(a))
        if e.fn == "sin":
            return scale.feed(cmath.sin(a))
        return scale.feed(cmath.cos(a))
    if isinstance(e, AbsApp):
        for u in e.args:
            _eval(u, point, params, absvals, scale)
        try:
            return scale.feed(complex(absvals[e.symbol]))
        except KeyError:
            raise EvalDomainError(e, f"unassigned abstract symbol {e.symbol}")
    raise TypeError(f"cannot evaluate {type(e).__name__}")


def evaluate(e: Expr, point, params=None, abstract_values=None):
    """Double-precision value of e at a spatial point.

    Evaluation order is fixed by the normalized tree.  Returns a float when
    the result is real, otherwise a complex value.  Raises EvalDomainError
    at poles (division by zero, ln of a non-positive value, ...).
    """
    v = _eval(normalize(e), tuple(float(c) for c in point), params or {},
              abstract_values or {}, _Scale())
    return v.real if v.imag == 0 else v


def _assignment(e_params, e_abstract, policy: ZeroTestPolicy, rng: random.Random):
    point = tuple(policy.sample_coord(rng) for _ in range(3))
    params = {name: float(policy.sample_param(rng)) for name in sorted(e_params)}
    absvals = {sym: float(policy.sample_param(rng)) for sym in sorted(e_abstract)}
    return point, params, absvals


# Compact-tree points evaluated before any expansion; a residual that
# exceeds tol at all of them is nonzero without a symbolic pass.
SCREEN_POINTS = 3


def _samples(e: Expr, policy: ZeroTestPolicy, label: str):
    """The seeded sampling loop shared by the screen and the numeric tier.

    Yields one item per attempt, in the order of policy.rng(label): None
    when the point is rejected (a domain error, an arithmetic overflow or a
    non-finite value), else (rel, value, assignment) with rel the
    scale-relative residual.  Stops after points * MAX_ATTEMPT_FACTOR
    attempts.
    """
    names = free_params(e)
    symbols = abstract_symbols(e)
    rng = policy.rng(label)
    for _ in range(policy.points * MAX_ATTEMPT_FACTOR):
        assignment = _assignment(names, symbols, policy, rng)
        point, params, absvals = assignment
        scale = _Scale()
        try:
            v = _eval(e, tuple(float(c) for c in point), params, absvals, scale)
        except ArithmeticError:
            yield None
            continue
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            yield None
            continue
        yield abs(v) / (1.0 + scale.value), v, assignment


def _nonzero(sample) -> NonZero:
    _, v, (point, params, absvals) = sample
    witness = {"point": tuple(str(c) for c in point)}
    if params:
        witness["params"] = params
    if absvals:
        witness["abstract"] = absvals
    return NonZero(witness=witness, value=v)


def numeric_sample(e: Expr, policy: ZeroTestPolicy = DEFAULT_POLICY, label: str = ""):
    """Force the numeric tier: returns NumericZero, NonZero or Inconclusive.

    The tree is evaluated exactly as given, so all cancellation happens in
    floating point.  is_zero passes the expanded tree; on the unexpanded
    one this confirms a symbolically proved identity on an independent
    route.
    """
    tested = 0
    worst = None  # the sample with the largest relative residual
    for sample in _samples(e, policy, label):
        if sample is None:
            continue
        tested += 1
        if sample[0] > (worst[0] if worst else 0.0):
            worst = sample
        if tested == policy.points:
            break
    if tested == 0:
        return Inconclusive("no sample point was evaluable; resample with another policy")
    max_rel = worst[0] if worst else 0.0
    if max_rel > policy.tol:
        return _nonzero(worst)
    return NumericZero(points_tested=tested, max_residual=max_rel)


def is_zero(e: Expr, policy: ZeroTestPolicy = DEFAULT_POLICY, label: str = ""):
    """Certify e == 0: screen, then prove, then sample.

    The screen evaluates e as given (no expansion) at the first
    SCREEN_POINTS points of the numeric tier's stream.  When every one is
    evaluable and exceeds tol, e is NonZero with the worst of them as the
    witness.  Otherwise normalization decides: the zero node is ProvedZero
    (an exact proof), anything else goes to the numeric tier's full sample
    of the expanded tree.
    """
    worst = None
    for n, sample in enumerate(_samples(e, policy, label), 1):
        if sample is None or sample[0] <= policy.tol:
            break
        if worst is None or sample[0] > worst[0]:
            worst = sample
        if n == SCREEN_POINTS:
            return _nonzero(worst)
    proved, tree = raw_form(e)
    if proved:
        return ProvedZero()
    return numeric_sample(tree, policy, label)
