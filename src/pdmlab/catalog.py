"""The eighteen-class catalog of inverse-mass profiles, potentials and their
first-order integrals of motion, with an automated verification pipeline.

Every row is shipped verbatim in data/catalog.txt.  Verification runs, per
listed integral, the two reduced determining equations (flow equation for f
and the potential equation); fully rational rows additionally get the
complete operator commutator; each integral set is checked for Lie closure.
Rows whose verbatim encoding fails a check carry a corrected variant; the
verbatim failure is reported as an annotation and the variant must pass.
`verify_all` runs the rows and worked families on two CPUs, with one forked
worker, when the process may use two or more.
"""

from __future__ import annotations

import functools
import os
from importlib import resources
from typing import TYPE_CHECKING, NamedTuple

from .symkernel import (
    AbstractFn,
    Expr,
    diff,
    is_rational_in_x,
    kernel_scope,
    normalize,
    param,
    parse_sexpr,
    sqrt,
    to_sexpr,
    x1,
    x2,
    x3,
)
from .symkernel.expr import add, mul

if TYPE_CHECKING:
    from .report import VerificationReport
    from .symkernel import ZeroTestPolicy

# The operator modules (conformal, diffop), the zero test and the report
# records are imported by the verify functions that use them: load_catalog
# and entry, all that `catalog list` and `transform` read, need only the
# kernel core.

R2 = x1**2 + x2**2 + x3**2
RT2 = x1**2 + x2**2


class CatalogEntry(NamedTuple):
    """One catalog row: id, declared parameters, profile f, potential V and
    the listed integrals (combo strings); optional corrected variant."""

    id: int
    params: tuple
    f: Expr
    V: Expr
    integrals: tuple
    variant_f: Expr | None = None
    variant_V: Expr | None = None
    variant_integrals: tuple | None = None
    note: str = ""

    @property
    def has_variant(self) -> bool:
        return (
            self.variant_f is not None
            or self.variant_V is not None
            or self.variant_integrals is not None
        )

    def variant(self) -> "CatalogEntry":
        return CatalogEntry(
            id=self.id,
            params=self.params,
            f=self.variant_f if self.variant_f is not None else self.f,
            V=self.variant_V if self.variant_V is not None else self.V,
            integrals=self.variant_integrals
            if self.variant_integrals is not None
            else self.integrals,
            note=self.note,
        )

    @property
    def rational(self) -> bool:
        return is_rational_in_x(self.f) and is_rational_in_x(self.V)


# the one parsed catalog, shared by every caller
@functools.cache
def load_catalog() -> dict:
    text = resources.files("pdmlab.data").joinpath("catalog.txt").read_text()
    current: dict = {}
    rows: dict = {}

    def flush():
        if not current:
            return
        eid = current["id"]
        rows[eid] = CatalogEntry(
            id=eid,
            params=tuple(current.get("params", "").split()),
            f=parse_sexpr(current["f"]),
            V=parse_sexpr(current["V"]),
            integrals=tuple(s.strip() for s in current["integrals"].split(",")),
            variant_f=parse_sexpr(current["variant-f"]) if "variant-f" in current else None,
            variant_V=parse_sexpr(current["variant-V"]) if "variant-V" in current else None,
            variant_integrals=tuple(s.strip() for s in current["variant-integrals"].split(","))
            if "variant-integrals" in current
            else None,
            note=current.get("note", ""),
        )

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("version"):
            continue
        if line.startswith("[entry "):
            flush()
            current = {"id": int(line[len("[entry "):-1])}
            continue
        key, _, value = line.partition("=")
        current[key.strip()] = value.strip()
    flush()
    return rows


def entry(eid: int) -> CatalogEntry:
    rows = load_catalog()
    if eid not in rows:
        raise KeyError(f"catalog entry {eid} does not exist (valid: 1..18)")
    return rows[eid]


def _check_residual(rep, name, residual, policy, label, confirm_numeric):
    """Exact-tier check plus, for non-rational content, an independent
    numeric confirmation on the raw (unnormalized) tree."""
    from .report import check_from_status
    from .symkernel import is_zero, numeric_sample

    st = is_zero(residual, policy, label)
    rep.add(check_from_status(name, st))
    ok = st.is_zero
    if ok and confirm_numeric:
        st2 = numeric_sample(residual, policy, label + "/raw")
        rep.add(check_from_status(name + " [numeric confirmation]", st2))
        ok = st2.is_zero
    return ok


def _verify_row(rep: VerificationReport, row: CatalogEntry, policy: ZeroTestPolicy,
                tag: str = "") -> bool:
    """All checks for one encoding of a row; returns overall success."""
    from .conformal import _rf_column, combo_column, combo_to_op, killing_params, pair_brackets
    from .diffop import PDMHamiltonian, commute_hq, reduced_determining
    from .report import Check

    h = PDMHamiltonian(row.f, row.V)
    confirm = not row.rational
    all_ok = True
    cols = [combo_column(c) for c in row.integrals]
    for combo, col in zip(row.integrals, cols):
        r1, r2 = reduced_determining(h, killing_params(col))
        lbl = f"entry{row.id}{tag}/{combo}"
        ok1 = _check_residual(rep, f"{combo} :: flow equation{tag}", r1, policy,
                              lbl + "/de-f", confirm)
        ok2 = _check_residual(rep, f"{combo} :: potential equation{tag}", r2, policy,
                              lbl + "/de-V", confirm)
        all_ok = all_ok and ok1 and ok2
        if row.rational:
            comm = commute_hq(h, combo_to_op(combo))
            ok3 = comm.is_zero()
            rep.add(Check(f"{combo} :: [H,Q] = 0{tag}",
                          "proved" if ok3 else "failed", "symbolic"))
            all_ok = all_ok and ok3
    # closure of the integral span
    with kernel_scope:
        closed = all(sol is not None for *_, sol in pair_brackets([_rf_column(c) for c in cols])[1])
    rep.add(Check(f"integral set closes under commutation{tag}",
                  "proved" if closed else "failed", "symbolic"))
    all_ok = all_ok and closed
    return all_ok


def verify_entry(eid: int, policy: ZeroTestPolicy | None = None) -> VerificationReport:
    """The report of row eid; policy None is the zero test's DEFAULT_POLICY."""
    from .conformal import SO4_METRIC, SO13_METRIC, bracket_inner, metric_table, verify_structure
    from .report import STATUS_ANNOTATION, Check, VerificationReport, annotation
    from .symkernel import DEFAULT_POLICY

    policy = DEFAULT_POLICY if policy is None else policy
    row = entry(eid)
    rep = VerificationReport(f"catalog.entry{eid}",
                             f"f = {to_sexpr(normalize(row.f))[:80]}")
    ok = _verify_row(rep, row, policy)
    if not ok and row.has_variant:
        # verbatim failures become findings; the corrected variant must pass
        for c in rep.checks:
            if c.failed:
                c.extra.setdefault("verbatim_failure", True)
                c.status = STATUS_ANNOTATION
                c.detail = (c.detail + "; verbatim encoding fails, see variant").strip("; ")
        rep.add(annotation("verbatim row", row.note or "verbatim encoding fails; variant supplied"))
        _verify_row(rep, row.variant(), policy, tag=" [variant]")
    elif row.has_variant:
        rep.add(annotation(
            "variant", "a variant encoding is shipped but the verbatim row passes"))
    # structure-constant cross-checks for the two six-integral rows
    if eid in (16, 17):
        metric = SO4_METRIC if eid == 16 else SO13_METRIC
        sub = verify_structure(list(row.integrals), metric_table(metric, bracket_inner),
                               f"catalog.entry{eid}.structure")
        okc = sub.passed
        rep.add(Check("structure constants match the metric table",
                      "proved" if okc else "failed", "symbolic",
                      detail=f"{len(sub.checks)} brackets"))
    return rep


def verify_all(policy: ZeroTestPolicy | None = None, worked: bool = False) -> list:
    """The reports of rows 1-18 in order, then, with worked, those of
    WORKED_FAMILIES.

    A report does not depend on which process made it or on what ran
    before it in the same kernel scope.  So when this process may run on
    two or more CPUs, one forked worker shares the jobs (_run_forked);
    otherwise they run here, one after another."""
    jobs = [functools.partial(verify_entry, i, policy) for i in sorted(load_catalog())]
    if worked:
        jobs += [functools.partial(verify_worked_family, name, policy)
                 for name in WORKED_FAMILIES]
    if len(jobs) >= 2 and len(os.sched_getaffinity(0)) >= 2:
        return _run_forked(jobs)
    return [job() for job in jobs]


def _run_forked(jobs: list) -> list:
    """[job() for job in jobs], with the jobs shared by this process and one
    worker made by os.fork().

    A pipe holds one byte per job index, and each process claims its next
    job with a one-byte read: pipe reads that small are atomic, so no job
    runs twice, and the faster process takes more of them.  The worker
    pickles {index: report} into a second pipe and ends with os._exit, so it
    never flushes the stdout or report buffers that it inherited.  Any job
    that the worker does not return (one that raised, a killed worker, a
    pickle that failed) and any job that raised here runs again here, in
    job order, so this returns or raises what the serial loop would.  The
    worker is always reaped, and killed first if this process raises."""
    import pickle
    import signal

    claim_r, claim_w = os.pipe()
    result_r, result_w = os.pipe()
    # at most 22 jobs: one byte names each, far below a pipe's buffer
    os.write(claim_w, bytes(range(len(jobs))))
    os.close(claim_w)

    def run_claimed() -> dict:
        done = {}
        while index := os.read(claim_r, 1):
            try:
                done[index[0]] = jobs[index[0]]()
            except Exception:
                pass  # left for the parent's serial pass
        return done

    pid = os.fork()
    if pid == 0:
        try:
            os.close(result_r)  # so that a write to a dead parent fails
            with open(result_w, "wb") as out:
                out.write(pickle.dumps(run_claimed()))
        finally:
            os._exit(0)
    try:
        os.close(result_w)
        with open(result_r, "rb") as results:
            done = run_claimed()
            data = results.read()
        try:
            done.update(pickle.loads(data))
        except Exception:
            pass  # the worker's jobs run again below
        reports = [done[i] if i in done else job() for i, job in enumerate(jobs)]
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(claim_r)
        os.waitpid(pid, 0)
    return reports


# ---------------------------------------------------------------------------
# worked one-parameter families and their defining equations
# ---------------------------------------------------------------------------


def _flow_residual_03(g: Expr, rhs_factor: Expr) -> Expr:
    """2 x3 (x.grad g) - (r^2+1) g_3 - rhs_factor * g  (the reduced flow
    equation of the half(K3+P3) integral, cleared of denominators)."""
    from .diffop import AXES

    xdg = add(*(mul((x1, x2, x3)[a - 1], diff(g, a)) for a in AXES))
    return 2 * x3 * xdg - (R2 + 1) * diff(g, 3) - rhs_factor * g


def _pair_residual_12(g: Expr, axis: int, const_sign: int):
    """Left side of the mixed rotation/boost pair equation
    2 x_a (x1 g1 + x2 g2 + (x3-1) g3) - (r^2 + const_sign - 2 x3) g_a."""
    xa = (x1, x2, x3)[axis - 1]
    core = x1 * diff(g, 1) + x2 * diff(g, 2) + (x3 - 1) * diff(g, 3)
    return 2 * xa * core - (R2 + const_sign - 2 * x3) * diff(g, axis)


def verify_worked_family(name: str, policy: ZeroTestPolicy | None = None) -> VerificationReport:
    """Verification of the worked solution families:

    - 'de7_family': the two-argument profile solving the flow equation of
      the half(K3+P3) integral, plus its potential equation; both argument
      orientations are exercised and the passing one is reported.
    - 'ff_family':  the rotation-reduced one-argument family.
    - 'de13_family': the family constrained by the additional mixed
      rotation/boost pair; the tabulated pair equations are exercised
      verbatim and with the corrected constant.
    - 'fV1': the fully fixed quadratic profile against the second mixed
      pair, verbatim and corrected.

    policy None is the zero test's DEFAULT_POLICY.
    """
    from .report import VerificationReport, annotation, check_from_status
    from .symkernel import DEFAULT_POLICY, is_zero

    policy = DEFAULT_POLICY if policy is None else policy
    F2, Ft2 = AbstractFn("F", 2), AbstractFn("Ft", 2)
    F1, Ft1 = AbstractFn("F", 1), AbstractFn("Ft", 1)
    rt = sqrt(RT2)
    rep = VerificationReport(f"worked.{name}")
    if name == "de7_family":
        u_minus = (R2 - 1) / rt
        u_plus = (R2 + 1) / rt
        f_good = RT2 * F2(x2 / x1, u_minus)
        st = is_zero(_flow_residual_03(f_good, 4 * x3), policy, "de7/good")
        rep.add(check_from_status("profile with (r^2-1)/rt solves the flow equation", st))
        f_bad = RT2 * F2(x2 / x1, u_plus)
        st_bad = is_zero(_flow_residual_03(f_bad, 4 * x3), policy, "de7/bad")
        rep.add(annotation(
            "orientation",
            "the (r^2+1)/rt orientation "
            + ("unexpectedly also solves" if st_bad.is_zero else "does not solve")
            + " the flow equation; the equation's own coefficient carries r^2+1 "
            "while its solution argument carries r^2-1 (both encodings exercised)"))
        V_good = 3 * rt * F2.d(2)(x2 / x1, u_minus) + Ft2(x2 / x1, u_minus)
        res_v = _flow_residual_03(V_good, 0) - 3 * diff(f_good, 3)
        st2 = is_zero(res_v, policy, "de7/V")
        rep.add(check_from_status("potential 3 rt D2F + Ft solves the potential equation", st2))
        return rep
    if name == "ff_family":
        u = (R2 - 1) / rt
        f = RT2 * F1(u)
        V = 3 * rt * F1.d(1)(u) + Ft1(u)
        st = is_zero(_flow_residual_03(f, 4 * x3), policy, "ff/f")
        rep.add(check_from_status("reduced profile solves the flow equation", st))
        st = is_zero(_flow_residual_03(V, 0) - 3 * diff(f, 3), policy, "ff/V")
        rep.add(check_from_status("reduced potential solves the potential equation", st))
        st = is_zero(x2 * diff(f, 1) - x1 * diff(f, 2), policy, "ff/rotf")
        rep.add(check_from_status("profile is azimuth-free", st))
        st = is_zero(x2 * diff(V, 1) - x1 * diff(V, 2), policy, "ff/rotV")
        rep.add(check_from_status("potential is azimuth-free", st))
        return rep
    if name == "de13_family":
        u = (R2 - 1) / x1
        f = x1**2 * F1(u)
        V = 3 * x1 * F1.d(1)(u) + Ft1(u)
        res_f_verbatim = _pair_residual_12(f, 2, -1) - 4 * x2 * f
        res_V_verbatim = _pair_residual_12(V, 2, -1) - 3 * diff(f, 2)
        stf = is_zero(res_f_verbatim, policy, "de13/fv")
        stv = is_zero(res_V_verbatim, policy, "de13/Vv")
        if stf.is_zero and stv.is_zero:
            rep.add(check_from_status("tabulated pair equations (verbatim)", stf))
        else:
            rep.add(annotation(
                "tabulated pair equations (verbatim)",
                "the printed constant r^2-1-2x3 does not annihilate the "
                "family; the corrected constant r^2+1-2x3 below does"))
        res_f = _pair_residual_12(f, 2, 1) - 4 * x2 * f
        res_V = _pair_residual_12(V, 2, 1) - 3 * diff(f, 2)
        st1 = is_zero(res_f, policy, "de13/f")
        rep.add(check_from_status("profile solves the corrected pair equation", st1))
        st2 = is_zero(res_V, policy, "de13/V")
        rep.add(check_from_status("potential solves the corrected pair equation", st2))
        st3 = is_zero(_flow_residual_03(f, 4 * x3), policy, "de13/flow")
        rep.add(check_from_status("family still solves the flow equation", st3))
        return rep
    if name == "fV1":
        mu, nu = param("mu"), param("nu")
        f = mu * (R2 - 1) ** 2
        V = 6 * mu * R2 + nu
        res_f_verbatim = _pair_residual_12(f, 1, -1) - 4 * x1 * f
        stf = is_zero(res_f_verbatim, policy, "fV1/fv")
        if stf.is_zero:
            rep.add(check_from_status("tabulated pair equations (verbatim)", stf))
        else:
            rep.add(annotation(
                "tabulated pair equations (verbatim)",
                "the printed constant r^2-1-2x3 fails on the quadratic "
                "profile; the corrected constant r^2+1-2x3 below passes"))
        res_f = _pair_residual_12(f, 1, 1) - 4 * x1 * f
        res_V = _pair_residual_12(V, 1, 1) - 3 * diff(f, 1)
        st1 = is_zero(res_f, policy, "fV1/f")
        rep.add(check_from_status("quadratic profile solves the corrected pair equation", st1))
        st2 = is_zero(res_V, policy, "fV1/V")
        rep.add(check_from_status("potential solves the corrected pair equation", st2))
        return rep
    raise ValueError(f"unknown worked family {name!r}")


WORKED_FAMILIES = ("de7_family", "ff_family", "de13_family", "fV1")
