"""Structured verification reports with one JSON and one text rendering.

A check records its certification tier so consumers can filter by rigor:
'symbolic' means an exact proof (normalization to the zero node), 'numeric'
means a seeded random-point test.  Annotations carry findings that are not
failures (encoding discrepancies, derivation mismatches).
"""

from __future__ import annotations

from . import __version__

STATUS_PROVED = "proved"
STATUS_NUMERIC = "numeric"
STATUS_FAILED = "failed"
STATUS_INCONCLUSIVE = "inconclusive"
STATUS_ANNOTATION = "annotation"


class Check:
    __slots__ = ("name", "status", "tier", "detail", "max_residual", "points", "extra")

    def __init__(self, name: str, status: str, tier: str = "none", detail: str = "",
                 max_residual: float | None = None, points: int | None = None,
                 extra: dict | None = None):
        self.name = name
        self.status = status
        self.tier = tier
        self.detail = detail
        self.max_residual = max_residual
        self.points = points
        self.extra = {} if extra is None else extra

    @property
    def failed(self) -> bool:
        return self.status in (STATUS_FAILED, STATUS_INCONCLUSIVE)

    def to_dict(self) -> dict:
        out = {"check": self.name, "status": self.status, "tier": self.tier}
        if self.detail:
            out["detail"] = self.detail
        if self.max_residual is not None:
            out["max_residual"] = self.max_residual
        if self.points is not None:
            out["points"] = self.points
        if self.extra:
            out["extra"] = self.extra
        return out


def check_from_status(name: str, status, detail: str = "", extra: dict | None = None) -> Check:
    """Translate a ZeroStatus into a report check.

    The status's own `tier` and `is_zero` name its kind (ProvedZero,
    NumericZero, NonZero, Inconclusive), so a report loads no kernel
    module to read one."""
    extra = extra or {}
    kind = (getattr(status, "tier", None), getattr(status, "is_zero", None))
    if kind == ("symbolic", True):
        return Check(name, STATUS_PROVED, "symbolic", detail, extra=extra)
    if kind == ("numeric", True):
        return Check(
            name,
            STATUS_NUMERIC,
            "numeric",
            detail,
            max_residual=status.max_residual,
            points=status.points_tested,
            extra=extra,
        )
    if kind == ("numeric", False):
        extra = dict(extra)
        extra["witness"] = status.witness
        extra["value"] = repr(status.value)
        return Check(name, STATUS_FAILED, "numeric", detail or "nonzero residual", extra=extra)
    if kind == ("none", False):
        return Check(name, STATUS_INCONCLUSIVE, "none", status.reason, extra=extra)
    raise TypeError(f"not a zero status: {status!r}")


def annotation(name: str, detail: str, extra: dict | None = None) -> Check:
    return Check(name, STATUS_ANNOTATION, "none", detail, extra=extra or {})


class VerificationReport:
    """Pass/fail record for one verification unit (an algebra, a catalog
    entry, an identity)."""

    __slots__ = ("id", "title", "checks")

    def __init__(self, id: str, title: str = "", checks: list | None = None):
        self.id = id
        self.title = title
        self.checks = [] if checks is None else checks

    def add(self, check: Check) -> Check:
        self.checks.append(check)
        return check

    @property
    def passed(self) -> bool:
        return not any(c.failed for c in self.checks)

    def counts(self) -> dict:
        out = {"proved": 0, "numeric": 0, "failed": 0, "annotated": 0}
        for c in self.checks:
            if c.status == STATUS_PROVED:
                out["proved"] += 1
            elif c.status == STATUS_NUMERIC:
                out["numeric"] += 1
            elif c.status == STATUS_ANNOTATION:
                out["annotated"] += 1
            elif c.failed:
                out["failed"] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "passed": self.passed,
            "counts": self.counts(),
            "checks": [c.to_dict() for c in self.checks],
        }


class ReportDocument:
    """Top-level run record: deterministic for fixed inputs, seed, version."""

    __slots__ = ("seed", "policy", "sections", "version")

    def __init__(self, seed: int, policy: dict | None = None, sections: list | None = None,
                 version: str = __version__):
        self.seed = seed
        self.policy = {} if policy is None else policy
        self.sections = [] if sections is None else sections
        self.version = version

    def add(self, section: VerificationReport) -> VerificationReport:
        self.sections.append(section)
        return section

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.sections)

    def summary(self) -> dict:
        out = {"proved": 0, "numeric": 0, "failed": 0, "annotated": 0}
        for s in self.sections:
            for k, v in s.counts().items():
                out[k] += v
        return out

    def to_dict(self) -> dict:
        return {
            "tool": "pdmlab",
            "version": self.version,
            "seed": self.seed,
            "policy": self.policy,
            "passed": self.passed,
            "summary": self.summary(),
            "sections": [s.to_dict() for s in self.sections],
        }

    def to_json(self) -> str:
        import json  # here, so that a report without --json loads no json

        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = []
        s = self.summary()
        for sec in self.sections:
            mark = "ok" if sec.passed else "FAIL"
            lines.append(f"[{mark}] {sec.id}: {sec.title}")
            for c in sec.checks:
                res = ""
                if c.max_residual is not None:
                    res = f"  max_residual={c.max_residual:.3e} points={c.points}"
                detail = f"  ({c.detail})" if c.detail else ""
                lines.append(f"    {c.status:<12} {c.name}{res}{detail}")
        lines.append(
            f"summary: proved={s['proved']} numeric={s['numeric']} "
            f"failed={s['failed']} annotated={s['annotated']}"
        )
        return "\n".join(lines) + "\n"
