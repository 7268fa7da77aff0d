"""The verification pipeline of the `catalog verify` command: the checks of
one encoding of a catalog row, the table of worked solution families, and
`verify_all`, which runs every row and family on two CPUs, with one forked
worker, when the process may use two or more.

catalog.verify_entry and catalog.verify_worked_family assemble one report
each from the pieces here; verify_all looks them up on pdmlab.catalog when
it runs.  Only `catalog verify` loads this module, and with it the operator
modules, the zero test and the report records.
"""

from __future__ import annotations

import functools
import os
from typing import TYPE_CHECKING

from . import catalog
from .catalog import R2, RT2, CatalogEntry
from .conformal import _rf_column, combo_column, pair_brackets
from .diffop import PDMHamiltonian, commute_hq, killing_to_op, reduced_determining
from .report import Check, check_from_status
from .symkernel import AbstractFn, is_zero, kernel_scope, numeric_sample, param, sqrt, x1, x2

if TYPE_CHECKING:
    from .report import VerificationReport
    from .symkernel import ZeroTestPolicy


def _check_residual(rep, name, residual, policy, label, confirm_numeric):
    """Exact-tier check plus, for non-rational content, an independent
    numeric confirmation on the raw (unnormalized) tree."""
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


def verify_all(policy: ZeroTestPolicy | None = None, worked: bool = False) -> list:
    """The reports of rows 1-18 in order, then, with worked, those of
    WORKED_FAMILIES.

    A report does not depend on which process made it or on what ran
    before it in the same kernel scope.  So when this process may run on
    two or more CPUs, one forked worker shares the jobs (_run_forked);
    otherwise they run here, one after another.  Each job calls
    catalog.verify_entry or catalog.verify_worked_family as bound when
    verify_all runs."""
    jobs = [functools.partial(catalog.verify_entry, i, policy)
            for i in sorted(catalog.load_catalog())]
    if worked:
        jobs += [functools.partial(catalog.verify_worked_family, name, policy)
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
