"""Self-test of the oracle: a real command output passes its pins, and the
same output fails once one pinned status is corrupted.

    python3 perfbench/selftest.py      # exit 0 when the oracle behaves
"""

import copy
import sys

import oracle
import run


def main() -> int:
    cmd = ["algebra", "--check", "so4", "--json"]
    expected = oracle.load_expected()
    try:
        proc = run.run_command(cmd, 271828, trace=False, deadline=None)
    finally:
        run.cleanup()
    clean = oracle.check(cmd, proc.rc, proc.stdout, proc.report, expected)

    corrupted = copy.deepcopy(expected)
    pinned = corrupted[oracle.command_key(cmd)]["checks"][0]
    pinned[2] = "failed" if pinned[2] == "proved" else "proved"
    dirty = oracle.check(cmd, proc.rc, proc.stdout, proc.report, corrupted)

    print(f"true pins:      {clean or 'no mismatch'}")
    print(f"corrupted pins: {dirty or 'no mismatch'}")
    if clean or not dirty:
        print("self-test FAILED")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
