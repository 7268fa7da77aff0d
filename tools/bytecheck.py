"""Byte-compare every pinned benchmark command between a git revision and
the working tree.

    python3 tools/bytecheck.py REV

`git archive REV src` is extracted into a temporary directory; the
repository's git state is not touched.  Each command keyed in
perfbench/expected.json runs under both source trees at seeds 271828 and 7,
with `--json` added where its pin holds `checks`.  Exit codes, stdout,
stderr and JSON reports are compared byte for byte.  One line is printed per
command and seed; the exit status is 1 on any difference.
"""

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (271828, 7)


def extract_src(rev: str, dest: Path) -> Path:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest / "src"


def run(src: Path, args: list, seed: int, json_report: bool, workdir: Path) -> tuple:
    """(exit code, stdout, stderr, JSON report bytes or None) of one command,
    run in an empty directory so that relative paths print the same."""
    workdir.mkdir()
    argv = [sys.executable, "-m", "pdmlab", *args, "--seed", str(seed)]
    if json_report:
        argv.append("--json=report.json")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, capture_output=True, env=env, cwd=workdir)
    report = workdir / "report.json"
    return proc.returncode, proc.stdout, proc.stderr, report.read_bytes() if report.exists() else None


def main() -> int:
    if len(sys.argv) != 2:
        sys.stderr.write("usage: python3 tools/bytecheck.py REV\n")
        return 2
    rev = sys.argv[1]
    pins = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    differ = 0
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        tmp = Path(tmp)
        trees = {"rev": extract_src(rev, tmp / "rev"), "tree": ROOT / "src"}
        for n, (command, pin) in enumerate(pins.items()):
            for seed in SEEDS:
                out = {name: run(src, command.split(), seed, "checks" in pin,
                                 tmp / f"{name}-{n}-{seed}")
                       for name, src in trees.items()}
                fields = ("rc", "stdout", "stderr", "json")
                bad = [f for f, a, b in zip(fields, out["rev"], out["tree"]) if a != b]
                differ += bool(bad)
                verdict = f"DIFFERS in {', '.join(bad)}" if bad else "identical"
                print(f"{command} --seed {seed}: {verdict}", flush=True)
    print(f"{differ} of {2 * len(pins)} runs differ from {rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
