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
    from .conformal import _rf_column, combo_column, pair_brackets
    from .diffop import PDMHamiltonian, commute_hq, killing_to_op, reduced_determining
    from .report import Check

    h = PDMHamiltonian(row.f, row.V)
    confirm = not row.rational
    all_ok = True
    cols = [combo_column(c) for c in row.integrals]
    for combo, col in zip(row.integrals, cols):
        r1, r2 = reduced_determining(h, col)
        lbl = f"entry{row.id}{tag}/{combo}"
        ok1 = _check_residual(rep, f"{combo} :: flow equation{tag}", r1, policy,
                              lbl + "/de-f", confirm)
        ok2 = _check_residual(rep, f"{combo} :: potential equation{tag}", r2, policy,
                              lbl + "/de-V", confirm)
        all_ok = all_ok and ok1 and ok2
        if row.rational:
            comm = commute_hq(h, killing_to_op(col))
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


# the two residuals of reduced_determining
FLOW, POTENTIAL = 0, 1
_ORIENTATION = ("the (r^2+1)/rt orientation {} the flow equation; the equation's own "
                "coefficient carries r^2+1 while its solution argument carries r^2-1 "
                "(both encodings exercised)")

# Each worked family's report lines, in order: (integral, Hamiltonian of
# _worked_hamiltonians, {is_zero label: residual}, line name, texts).  A line
# zero-tests those residuals of reduced_determining for the integral's
# column.  With texts None it is a check; otherwise it is the annotation
# texts[0] when every residual is zero (a check when that is None) and
# texts[1] when one is not.  M03 = half(K3+P3) carries the flow equations and
# M12 = J3 the azimuth checks.  The pair equations that the paper prints,
# with the constant r^2-1-2x3, are the reduced equations of M42+M23 and
# M41+M13; the families solve those of M02+M23 and M01+M13, whose constant
# is r^2+1-2x3.
WORKED_CHECKS = {
    "de7_family": (
        ("M03", "(r^2-1)/rt", {"de7/good": FLOW},
         "profile with (r^2-1)/rt solves the flow equation", None),
        ("M03", "(r^2+1)/rt", {"de7/bad": FLOW}, "orientation",
         (_ORIENTATION.format("unexpectedly also solves"), _ORIENTATION.format("does not solve"))),
        ("M03", "(r^2-1)/rt", {"de7/V": POTENTIAL},
         "potential 3 rt D2F + Ft solves the potential equation", None),
    ),
    "ff_family": (
        ("M03", "ff", {"ff/f": FLOW}, "reduced profile solves the flow equation", None),
        ("M03", "ff", {"ff/V": POTENTIAL}, "reduced potential solves the potential equation",
         None),
        ("M12", "ff", {"ff/rotf": FLOW}, "profile is azimuth-free", None),
        ("M12", "ff", {"ff/rotV": POTENTIAL}, "potential is azimuth-free", None),
    ),
    "de13_family": (
        ("M42+M23", "de13", {"de13/fv": FLOW, "de13/Vv": POTENTIAL},
         "tabulated pair equations (verbatim)",
         (None, "the printed constant r^2-1-2x3 does not annihilate the family; "
                "the corrected constant r^2+1-2x3 below does")),
        ("M02+M23", "de13", {"de13/f": FLOW}, "profile solves the corrected pair equation", None),
        ("M02+M23", "de13", {"de13/V": POTENTIAL},
         "potential solves the corrected pair equation", None),
        ("M03", "de13", {"de13/flow": FLOW}, "family still solves the flow equation", None),
    ),
    "fV1": (
        ("M41+M13", "fV1", {"fV1/fv": FLOW}, "tabulated pair equations (verbatim)",
         (None, "the printed constant r^2-1-2x3 fails on the quadratic profile; "
                "the corrected constant r^2+1-2x3 below passes")),
        ("M01+M13", "fV1", {"fV1/f": FLOW},
         "quadratic profile solves the corrected pair equation", None),
        ("M01+M13", "fV1", {"fV1/V": POTENTIAL}, "potential solves the corrected pair equation",
         None),
    ),
}
WORKED_FAMILIES = tuple(WORKED_CHECKS)


def _worked_hamiltonians() -> dict:
    """The profiles f and potentials V of the worked families, by name: the
    two-argument de7 family in both argument orientations, the
    rotation-reduced ff family, the de13 family and the quadratic fV1."""
    from .diffop import PDMHamiltonian

    F2, Ft2 = AbstractFn("F", 2), AbstractFn("Ft", 2)
    F1, Ft1 = AbstractFn("F", 1), AbstractFn("Ft", 1)
    rt = sqrt(RT2)

    def de7(u):
        return PDMHamiltonian(RT2 * F2(x2 / x1, u),
                              3 * rt * F2.d(2)(x2 / x1, u) + Ft2(x2 / x1, u))

    u, u13 = (R2 - 1) / rt, (R2 - 1) / x1
    mu, nu = param("mu"), param("nu")
    return {
        "(r^2-1)/rt": de7(u),
        "(r^2+1)/rt": de7((R2 + 1) / rt),
        "ff": PDMHamiltonian(RT2 * F1(u), 3 * rt * F1.d(1)(u) + Ft1(u)),
        "de13": PDMHamiltonian(x1**2 * F1(u13), 3 * x1 * F1.d(1)(u13) + Ft1(u13)),
        "fV1": PDMHamiltonian(mu * (R2 - 1) ** 2, 6 * mu * R2 + nu),
    }


def verify_worked_family(name: str, policy: ZeroTestPolicy | None = None) -> VerificationReport:
    """The report of a worked solution family: each line of its
    WORKED_CHECKS names the integral whose reduced determining equations it
    tests.

    - 'de7_family': the two-argument profile solving the flow equation of
      M03, plus its potential equation; both argument orientations are
      exercised and the passing one is reported.
    - 'ff_family': the rotation-reduced one-argument family.
    - 'de13_family': the family annihilated also by M02+M23; the printed
      pair equations, those of M42+M23, are exercised too.
    - 'fV1': the fully fixed quadratic profile against M01+M13, and against
      the printed M41+M13.

    policy None is the zero test's DEFAULT_POLICY.
    """
    from .conformal import combo_column
    from .diffop import reduced_determining
    from .report import VerificationReport, annotation, check_from_status
    from .symkernel import DEFAULT_POLICY, is_zero

    if name not in WORKED_CHECKS:
        raise ValueError(f"unknown worked family {name!r}")
    policy = DEFAULT_POLICY if policy is None else policy
    hams = _worked_hamiltonians()
    rep = VerificationReport(f"worked.{name}")
    for integral, profile, tests, line, texts in WORKED_CHECKS[name]:
        r = reduced_determining(hams[profile], combo_column(integral))
        statuses = [is_zero(r[k], policy, label) for label, k in tests.items()]
        text = None if texts is None else texts[0 if all(st.is_zero for st in statuses) else 1]
        rep.add(check_from_status(line, statuses[0]) if text is None else annotation(line, text))
    return rep
