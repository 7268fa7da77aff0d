"""kernel-stream: one long-lived process feeds the public kernel API a seeded
stream of distinct generated expressions and checks each result against the
verdict the generator planted.

Every item is `P*Q/R` over x1, x2, x3 and the parameters a, b, each factor a
sum of 2-3 terms with distinct monomials, so no denominator is the zero
polynomial.  Four kinds take turns:

- canon:   normalize(P*Q/R); the result must be nonzero, idempotent and
           survive a round trip through the text grammar;
- zero:    is_zero(P*Q/R - expand(Q*P)/R) must be ProvedZero;
- atoms:   the same planted zero with a sqrt atom in P and an exp atom in Q;
- nonzero: the expansion with one coefficient changed, so is_zero must
           give NonZero.

One operation is parse_sexpr followed by normalize (and to_sexpr of the
result) or is_zero.  Every PROBE_EVERY items, outside the timed calls, a
speed probe (perfbench/speed.py) is timed.  An operation that runs past
LIMIT_S at reference speed, as the last probes put it, is stopped and
reported with no time; it is never dropped, regenerated or re-seeded.  A
wrong verdict fails the operation; a stopped one is counted apart.

usage: python perfbench/kernel_stream.py --seed N --part K --trace 0|1 --out PATH
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import signal
import statistics
import time

import speed

VARS = ("x1", "x2", "x3", "a", "b")
SQRT_ATOM = "(sqrt (+ (^ x1 2) 1))"
EXP_ATOM = "(exp x2)"
KINDS = ("canon", "zero", "atoms", "nonzero")
EXPECTED = {"canon": "canonical", "zero": "ProvedZero", "atoms": "ProvedZero",
            "nonzero": "NonZero"}
ITEMS = 1500    # items per process
LIMIT_S = 0.1   # per-operation limit at reference speed, ~30x the median item
PROBE_EVERY = 10


# -- generator ----------------------------------------------------------------
# A polynomial is {monomial: int coefficient}; a monomial is a sorted tuple
# of (atom text, exponent).

def _monomial(rng: random.Random) -> tuple:
    atoms = rng.sample(VARS, rng.randint(0, 2))
    return tuple(sorted((v, rng.randint(1, 3)) for v in atoms))


def _coeff(rng: random.Random) -> int:
    return rng.choice((-8, -7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 8))


def _factor(rng: random.Random, atom: str | None = None) -> dict:
    monos = set()
    if atom is not None:
        monos.add(tuple(sorted(((atom, 1),) + _monomial(rng)[:1])))
    n = rng.randint(2, 3)
    while len(monos) < n:
        monos.add(_monomial(rng))
    return {m: _coeff(rng) for m in sorted(monos)}


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for mp, cp in p.items():
        for mq, cq in q.items():
            exps = dict(mp)
            for atom, e in mq:
                exps[atom] = exps.get(atom, 0) + e
            m = tuple(sorted(exps.items()))
            out[m] = out.get(m, 0) + cp * cq
    return {m: c for m, c in out.items() if c}


def _term_text(m: tuple, c: int) -> str:
    parts = [atom if e == 1 else f"(^ {atom} {e})" for atom, e in m]
    if c != 1 or not parts:
        parts.insert(0, str(c))
    return parts[0] if len(parts) == 1 else "(* " + " ".join(parts) + ")"


def _poly_text(p: dict, rng: random.Random | None = None) -> str:
    terms = [_term_text(m, c) for m, c in sorted(p.items())]
    if rng is not None:
        rng.shuffle(terms)
    return terms[0] if len(terms) == 1 else "(+ " + " ".join(terms) + ")"


def generate(seed: int, part: int, count: int) -> list:
    """`count` distinct items (kind, text); the same arguments give the same
    items."""
    rng = random.Random(f"kernel-stream/{seed}/{part}")
    seen, items = set(), []
    while len(items) < count:
        kind = KINDS[len(items) % len(KINDS)]
        atoms = kind == "atoms" or (kind == "nonzero" and rng.random() < 0.5)
        P = _factor(rng, SQRT_ATOM if atoms else None)
        Q = _factor(rng, EXP_ATOM if atoms else None)
        R = _factor(rng)
        inv_r = f"(^ {_poly_text(R)} -1)"
        if kind == "canon":
            text = f"(* {_poly_text(P)} {_poly_text(Q)} {inv_r})"
        else:
            expanded = _poly_mul(Q, P)
            if kind == "nonzero":
                m = rng.choice(sorted(expanded))
                expanded[m] += rng.choice((-2, -1, 1, 2))
                expanded = {k: c for k, c in expanded.items() if c}
            text = (f"(+ (* {_poly_text(P)} {_poly_text(Q)} {inv_r}) "
                    f"(* -1 {_poly_text(expanded, rng)} {inv_r}))")
        if text not in seen:
            seen.add(text)
            items.append((kind, text))
    return items


# -- the long-lived process -----------------------------------------------------

class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that ran past its limit.  A
    BaseException, so that no `except Exception` in pdmlab swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_items(items: list, seed: int, tracer=None) -> dict:
    from pdmlab import symkernel
    from pdmlab.symkernel import NUM_ZERO, ZeroTestPolicy

    policy = ZeroTestPolicy(seed=seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    results, probes = [], []
    main_s = 0.0
    for n, (kind, text) in enumerate(items):
        if n % PROBE_EVERY == 0:
            probes.append(speed.probe())
            # The limit is a fixed amount of work, so that how many calls
            # are stopped does not follow the machine's speed.
            limit = LIMIT_S * statistics.median(probes[-5:]) / speed.REF_PROBE_S
        if tracer is not None:
            tracer.on = True
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                e = symkernel.parse_sexpr(text)
                if kind == "canon":
                    out = symkernel.normalize(e)
                    shown = symkernel.to_sexpr(out)
                else:
                    out = symkernel.is_zero(e, policy, f"item{len(results)}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            op_s = None
        else:
            op_s = time.perf_counter() - t0
        main_s += time.perf_counter() - t0
        if tracer is not None:
            tracer.on = False
        if op_s is None:
            results.append([kind, None, True, "timeout"])
            continue
        # Check the planted verdict (not timed, not traced).
        if kind == "canon":
            ok = (out != NUM_ZERO and symkernel.normalize(out) == out
                  and symkernel.parse_sexpr(shown) == out)
            got = shown
        else:
            got = repr(out)
            ok = type(out).__name__ == EXPECTED[kind]
        results.append([kind, op_s, ok, hashlib.sha256(got.encode()).hexdigest()])
    return {"items": results, "main_s": main_s, "probes": probes}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    items = generate(args.seed, args.part, ITEMS)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.on = False
    out = run_items(items, args.seed, tracer)
    if tracer is not None:
        out["trace"] = tracer.summary(out["main_s"])
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
