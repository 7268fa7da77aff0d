"""The eighteen-class catalog of inverse-mass profiles, potentials and their
first-order integrals of motion, and the report of each row and worked
solution family.

Every row is shipped verbatim in data/catalog.txt.  Verification runs, per
listed integral, the two reduced determining equations (flow equation for f
and the potential equation); fully rational rows additionally get the
complete operator commutator; each integral set is checked for Lie closure.
Rows whose verbatim encoding fails a check carry a corrected variant; the
verbatim failure is reported as an annotation and the variant must pass.
The checks of one encoding, the worked families' table and `verify_all`,
which runs every row and family on two CPUs, are in pdmlab.verify.
"""

from __future__ import annotations

import functools
from importlib import resources
from typing import TYPE_CHECKING, NamedTuple

from .symkernel import Expr, is_rational_in_x, normalize, parse_sexpr, to_sexpr, x1, x2, x3

if TYPE_CHECKING:
    from .report import VerificationReport
    from .symkernel import ZeroTestPolicy

# The verification pipeline (pdmlab.verify), the operator modules
# (conformal, diffop), the zero test and the report records are imported by
# the verify functions that use them: load_catalog and entry, all that
# `catalog list` and `transform` read, need only the kernel core.

# x1**2, not diffop.R2's x1*x1: the worked-family residuals are sampled on this tree.
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


def verify_entry(eid: int, policy: ZeroTestPolicy | None = None) -> VerificationReport:
    """The report of row eid; policy None is the zero test's DEFAULT_POLICY."""
    from .conformal import SO4_METRIC, SO13_METRIC, metric_table, verify_structure
    from .report import STATUS_ANNOTATION, Check, VerificationReport, annotation
    from .symkernel import DEFAULT_POLICY
    from .verify import _verify_row

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
        sub = verify_structure(list(row.integrals), metric_table(metric),
                               f"catalog.entry{eid}.structure")
        okc = sub.passed
        rep.add(Check("structure constants match the metric table",
                      "proved" if okc else "failed", "symbolic",
                      detail=f"{len(sub.checks)} brackets"))
    return rep


def verify_worked_family(name: str, policy: ZeroTestPolicy | None = None) -> VerificationReport:
    """The report of a worked solution family: each line of its
    verify.WORKED_CHECKS names the integral whose reduced determining equations it
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
    from .verify import WORKED_CHECKS, _worked_hamiltonians

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
