"""Correctness oracle for the CLI workloads.

Each command's output is compared with what `expected.json` pins for it:

- report commands (`--json`): every (section, check, status, tier) tuple in
  order, and the summary counts.  Residuals and witnesses depend on the seed
  and are not pinned; statuses and tiers do not;
- `transform` and `catalog list`: the exact standard output;
- `spectrum --system so4`: every rel_err below the CLI's --rel-tol, and the
  exact eigenvalue and algebraic-level columns;
- `spectrum --system scale`: the Bessel residual below the CLI's 1e-8;
- every command: the pinned exit code.

`python perfbench/oracle.py --pin` reruns every command under two seeds,
requires the pinned parts to agree between them, and rewrites expected.json.
Re-pin only for a change that means to alter the reports, and say so.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
SPECTRUM_REL_TOL = 5e-3    # pdmlab spectrum --rel-tol default
SCALE_RESIDUAL_TOL = 1e-8  # pdmlab spectrum --system scale pass threshold


def command_key(args: list) -> str:
    """The pinned name of a command: its arguments without --json/--seed."""
    out, skip = [], False
    for a in args:
        if skip:
            skip = False
        elif a in ("--json", "--seed"):
            skip = True
        else:
            out.append(a)
    return " ".join(out)


def observe(args: list, rc: int, stdout: str, report: str | None) -> dict:
    """The seed-independent parts of one command's output."""
    obs = {"rc": rc}
    if report is not None:
        doc = json.loads(report)
        obs["summary"] = doc["summary"]
        obs["checks"] = [[s["id"], c["check"], c["status"], c["tier"]]
                         for s in doc["sections"] for c in s["checks"]]
    elif args[0] == "spectrum":
        obs["columns"] = _spectrum_columns(args, stdout)
    else:
        obs["stdout"] = stdout
    return obs


def _spectrum_columns(args: list, stdout: str) -> list:
    lines = stdout.splitlines()
    if "scale" in args:
        # system,kappa,Etilde,omega,index_beta,max_residual,points
        return [line.split(",")[:5] + line.split(",")[6:] for line in lines[:2]]
    # system,l,index,lambda_fd,lambda_exact,rel_err: lambda_fd varies with the
    # solver's last digits, lambda_exact and the algebraic levels do not.
    return [line.split(",")[:3] + line.split(",")[4:5] if line.startswith("so4,") else line
            for line in lines]


def check(args: list, rc: int, stdout: str, report: str | None, expected: dict) -> list:
    """Mismatches between one command's output and its pins; [] when correct."""
    key = command_key(args)
    want = expected.get(key)
    if want is None:
        return [f"{key}: nothing pinned"]
    try:
        got = observe(args, rc, stdout, report)
    except (ValueError, KeyError, IndexError) as e:
        return [f"{key}: unreadable output ({e})"]
    problems = []
    for field in sorted(set(want) | set(got)):
        if got.get(field) != want.get(field):
            problems.append(f"{key}: {field} differs from the pinned value"
                            + _first_difference(got.get(field), want.get(field)))
    if args[0] == "spectrum":
        problems += [f"{key}: {p}" for p in _spectrum_tolerances(args, stdout)]
    return problems


def _first_difference(got, want) -> str:
    if isinstance(got, list) and isinstance(want, list):
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return f" (item {i}: got {g!r}, pinned {w!r})"
        return f" (got {len(got)} items, pinned {len(want)})"
    return f" (got {got!r}, pinned {want!r})"


def _spectrum_tolerances(args: list, stdout: str) -> list:
    problems = []
    for line in stdout.splitlines():
        fields = line.split(",")
        try:
            if line.startswith("so4,") and not float(fields[5]) < SPECTRUM_REL_TOL:
                problems.append(f"rel_err {fields[5]} not below {SPECTRUM_REL_TOL}")
            if line.startswith("scale,") and not float(fields[5]) < SCALE_RESIDUAL_TOL:
                problems.append(f"residual {fields[5]} not below {SCALE_RESIDUAL_TOL}")
        except (ValueError, IndexError):
            problems.append(f"unreadable row {line!r}")
    return problems


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _pin() -> int:
    import run

    pins, problems = {}, []
    for cmd in run.CLI_COMMANDS:
        seen = []
        for seed in (271828, 7):
            res = run.run_command(cmd, seed, trace=False, deadline=None)
            seen.append(observe(cmd, res.rc, res.stdout, res.report))
        if seen[0] != seen[1]:
            problems.append(command_key(cmd))
        pins[command_key(cmd)] = seen[0]
    run.cleanup()
    if problems:
        print("pinned parts depend on the seed:", ", ".join(problems))
        return 1
    EXPECTED_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} commands in {EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: python perfbench/oracle.py --pin")
    sys.exit(_pin())
