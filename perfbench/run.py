"""The pdmlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it builds nothing and runs the sources
under src/.  Workloads (see perfbench/NOTES.md for why each exists):

- cli            fifteen commands, each in a fresh process: `catalog verify
                 --all --worked --json`; `algebra --subalgebras` and `algebra
                 --check` c3, so14, so4, so13; short casimir, transform,
                 spectrum and `catalog list` commands;
- kernel-stream  one long-lived process feeding parse_sexpr ->
                 normalize / is_zero a seeded stream of generated items.

One pass runs a workload once, one process at a time.  Passes repeat while
the next one is expected to end within --seconds (at least one runs).  With
--trace 0 the run times set-up in fresh interpreters before the first pass
and after each pass, and prints the end-to-end metrics, every time at the
reference speed of perfbench/speed.py; the raw times are in the context
line.  With --trace 1 it
makes one untraced pass and one pass with boundary tracing
(perfbench/tracer.py), requires the two to produce identical outputs, and
prints the per-layer metrics.  Every output is checked: against the pins in
perfbench/expected.json, or against the planted verdicts of kernel-stream.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it stamps the run's context.
`--workload all` runs every workload and prints both lines for each.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import kernel_stream
import oracle
import speed
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

CLI_COMMANDS = [
    ["catalog", "verify", "--all", "--worked", "--json"],
    ["algebra", "--subalgebras", "--json"],
    ["algebra", "--check", "c3", "--json"],
    ["algebra", "--check", "so14", "--json"],
    ["algebra", "--check", "so4", "--json"],
    ["algebra", "--check", "so13", "--json"],
    ["casimir", "--system", "so4", "--json"],
    ["casimir", "--system", "so13", "--json"],
    ["transform", "--kind", "shift", "--nu", "0,0,1", "--entry", "10"],
    ["transform", "--kind", "rotation", "--entry", "10"],
    ["transform", "--kind", "dilatation", "--scale", "3/2", "--entry", "14"],
    ["transform", "--kind", "inversion", "--entry", "18"],
    ["spectrum", "--system", "so4", "--count", "10", "--grid", "100000"],
    ["spectrum", "--system", "scale"],
    ["catalog", "list"],
]
WORKLOADS = ("cli", "kernel-stream")

# What a fresh interpreter imports and loads before a workload's first check.
SETUP_CODE = {
    "cli": ("import pdmlab.cli, pdmlab.casimir, pdmlab.spectral, pdmlab.catalog as c,"
            " pdmlab.conformal as g; c.load_catalog(); g.load_subalgebras()"),
    "kernel-stream": "import pdmlab.symkernel",
}
# Set-up is timed in groups of SETUP_PROBES fresh interpreters, one group
# before the first pass and one after each pass, so that they see more than
# one phase of the machine's speed; setup_s is their median at reference
# speed.
SETUP_PROBES = 4

RUN_BUDGET_S = 170.0    # a run must end within 180 s
SETUP_RESERVE_S = 15.0  # left for the last set-up group
# Kernel calls stopped at kernel_stream.LIMIT_S in the untraced pass of a
# traced run; a per-layer count, since how many are stopped depends on the
# machine's speed.
STOPPED_METRIC = "symkernel.stopped_calls"
METRIC_UNITS = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB",
                "op_p50_ref_ms": "ms", "op_p95_ref_ms": "ms"}

_work_dir: Path | None = None


def work_dir() -> Path:
    """Scratch space inside the checkout, removed by cleanup()."""
    global _work_dir
    if _work_dir is None:
        _work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    return _work_dir


def cleanup() -> None:
    global _work_dir
    if _work_dir is not None:
        shutil.rmtree(_work_dir, ignore_errors=True)
        _work_dir = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@dataclass
class Proc:
    rc: int
    wall: float
    cpu_s: float
    rss_mb: float
    stdout: str = ""
    report: str | None = None
    trace: dict | None = None
    kernel: dict | None = None
    probes: list | None = None


def spawn(argv: list, deadline: float | None) -> Proc:
    """Run one child process to completion, alone; wall time from spawn to
    reaping, peak RSS from that child's own rusage."""
    wd = work_dir()
    out_path, err_path = wd / "stdout", wd / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=wd)
        rc, ru = _wait4(p, None if deadline is None else deadline - time.monotonic())
        wall = time.perf_counter() - t0
    stderr = err_path.read_text(errors="replace")
    if rc != 0 and stderr:
        sys.stderr.write(f"[{' '.join(argv[1:4])}...] rc={rc}\n{stderr[-2000:]}\n")
    return Proc(rc=rc, wall=wall, cpu_s=ru.ru_utime + ru.ru_stime, rss_mb=ru.ru_maxrss / 1024.0,
                stdout=out_path.read_text(errors="replace"))


def _wait4(p: subprocess.Popen, timeout_s: float | None):
    """os.wait4 on p, killing it if it outlives timeout_s."""
    if timeout_s is not None and timeout_s <= 0:
        p.kill()
        timeout_s = None
    old = signal.signal(signal.SIGALRM, lambda *_: p.kill())
    if timeout_s is not None:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, ru


def run_command(args: list, seed: int, trace: bool, deadline: float | None) -> Proc:
    wd = work_dir()
    report_path = wd / "report.json"
    trace_path = wd / "trace.json"
    probes_path = wd / "probes.json"
    for path in (report_path, trace_path, probes_path):
        path.unlink(missing_ok=True)
    args = [a if a != "--json" else f"--json={report_path}" for a in args]
    args += ["--seed", str(seed)]
    if trace:
        argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_path)] + args
    else:
        argv = [sys.executable, str(BENCH_DIR / "timed_cli.py"), str(probes_path)] + args
    proc = spawn(argv, deadline)
    if report_path.exists():
        proc.report = report_path.read_text()
    if trace and trace_path.exists():
        proc.trace = json.loads(trace_path.read_text())
    if not trace and probes_path.exists():
        proc.probes = json.loads(probes_path.read_text())
    return proc


def run_kernel(seed: int, part: int, trace: bool, deadline: float | None) -> Proc:
    out_path = work_dir() / "kernel.json"
    out_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH_DIR / "kernel_stream.py"), "--seed", str(seed),
            "--part", str(part), "--trace", str(int(trace)), "--out", str(out_path)]
    proc = spawn(argv, deadline)
    if proc.rc == 0 and out_path.exists():
        proc.kernel = json.loads(out_path.read_text())
        proc.trace = proc.kernel.pop("trace", None)
    return proc


# -- one pass -------------------------------------------------------------------

@dataclass
class Pass:
    wall: float
    procs: list
    op_s: list          # one entry per operation; None for a stopped one
    failed: int
    problems: list
    outputs: list       # what a traced pass must reproduce; None for a stopped item
    wall_ref: float = math.nan   # the pass's time at reference speed (speed.py)
    op_ref: list | None = None   # op_s at reference speed, on kernel-stream


def run_pass(workload: str, seed: int, part: int, trace: bool, deadline: float | None,
             expected: dict) -> Pass:
    t0 = time.perf_counter()
    if workload == "kernel-stream":
        proc = run_kernel(seed, part, trace, deadline)
        wall = time.perf_counter() - t0
        if proc.kernel is None:
            stopped = [None] * kernel_stream.ITEMS
            return Pass(wall, [proc], stopped, kernel_stream.ITEMS,
                        [f"kernel-stream process failed, rc={proc.rc}"], [],
                        wall_ref=wall, op_ref=stopped)
        items = proc.kernel["items"]
        problems = [f"kernel item {i} ({kind}): wrong planted verdict"
                    for i, (kind, _, ok, _) in enumerate(items) if not ok]
        op_s = [t for _, t, _, _ in items]
        # Each call at the speed of the probes next to it; the pass at
        # reference speed is the time spent in its calls, a stopped one at
        # the limit, which is set at reference speed.
        scales = speed.local_scales(proc.kernel["probes"])
        op_ref = [None if t is None else t * scales[i // kernel_stream.PROBE_EVERY]
                  for i, t in enumerate(op_s)]
        return Pass(wall, [proc], op_s, len(problems), problems,
                    [None if t is None else digest for _, t, _, digest in items],
                    wall_ref=sum(kernel_stream.LIMIT_S if t is None else t for t in op_ref),
                    op_ref=op_ref)
    procs, problems, outputs, failed = [], [], [], 0
    for cmd in CLI_COMMANDS:
        proc = run_command(cmd, seed, trace, deadline)
        bad = oracle.check(cmd, proc.rc, proc.stdout, proc.report, expected)
        if not trace and not proc.probes:
            bad.append(f"{oracle.command_key(cmd)}: no speed probes")
        problems += bad
        failed += bool(bad)
        procs.append(proc)
        outputs.append([proc.stdout, proc.report])
    wall = time.perf_counter() - t0
    wall_ref = math.nan if trace else sum(
        speed.at_ref(p.wall, p.probes) if p.probes else p.wall for p in procs)
    return Pass(wall, procs, [p.wall for p in procs], failed, problems, outputs, wall_ref)


# -- metrics ----------------------------------------------------------------------

def percentile_ms(op_s: list, q: float) -> float:
    """Nearest-rank percentile in ms; a stopped operation ranks above every
    finished one.  When the rank lands on a stopped one, the limit is
    reported, a lower bound of the true value."""
    ranked = sorted(math.inf if t is None else t for t in op_s)
    v = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
    return 1000.0 * (kernel_stream.LIMIT_S if math.isinf(v) else v)


def measure_setup(workload: str, deadline: float) -> list:
    """SETUP_PROBES fresh interpreters that do the workload's set-up between
    two runs of five speed probes (one probe alone varies by +-15%); for
    each, (wall time, time at reference speed)."""
    probes = "_p += [speed.probe() for _ in range(5)]\n"
    code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import speed\n_p = []\n"
            + probes + SETUP_CODE[workload] + "\n" + probes
            + "import pdmlab\nprint(pdmlab.__file__)\nprint(*_p)")
    out = []
    for _ in range(SETUP_PROBES):
        proc = spawn([sys.executable, "-c", code], deadline)
        lines = proc.stdout.splitlines()
        if (proc.rc != 0 or len(lines) != 2
                or not Path(lines[0]).resolve().is_relative_to(SRC)):
            raise SystemExit(f"set-up failed: pdmlab not importable from {SRC}")
        out.append((proc.wall, speed.at_ref(proc.wall, [float(x) for x in lines[1].split()])))
    return out


def context(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_commit": commit, "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "kernel_items": kernel_stream.ITEMS, "kernel_limit_s": kernel_stream.LIMIT_S,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    deadline = time.monotonic() + RUN_BUDGET_S
    stamp = context(workload, seed, seconds, trace)
    expected = oracle.load_expected()
    if trace:
        plain = run_pass(workload, seed, 0, False, deadline, expected)
        traced = run_pass(workload, seed, 0, True, deadline, expected)
        passes = [plain, traced]
        problems = plain.problems + traced.problems
        problems += _identity_problems(plain, traced)
        summaries = [p.trace for p in traced.procs if p.trace is not None]
        if len(summaries) != len(traced.procs):
            problems.append("a traced process wrote no trace")
        metrics = tracer.layer_metrics(summaries, traced.wall, plain.wall)
        metrics[STOPPED_METRIC] = sum(t is None for t in plain.op_s)
        units = dict(tracer.metric_specs(), **{STOPPED_METRIC: "count"})
    else:
        setup = measure_setup(workload, deadline)
        passes = []
        measure_start = time.monotonic()
        while True:
            passes.append(run_pass(workload, seed, len(passes), False, deadline, expected))
            setup += measure_setup(workload, deadline)
            now = time.monotonic()
            next_wall = statistics.median(ps.wall for ps in passes)
            if (now + next_wall > measure_start + seconds
                    or now + next_wall > deadline - SETUP_RESERVE_S):
                break
        problems = [p for ps in passes for p in ps.problems]
        if workload == "cli":
            # The unit of work of the CLI workload is the pass, one verified
            # run of all its commands: a single sub-second command varies by
            # +-30% from run to run on a shared machine, a pass by far less.
            ops, ops_ref = [ps.wall for ps in passes], [ps.wall_ref for ps in passes]
        else:
            ops = [t for ps in passes for t in ps.op_s]
            ops_ref = [t for ps in passes for t in ps.op_ref]
        metrics = {
            "setup_s": statistics.median(ref for _, ref in setup),
            "wall_ref_s": statistics.median(ps.wall_ref for ps in passes),
            "peak_rss_mb": max(p.rss_mb for ps in passes for p in ps.procs),
            "op_p50_ref_ms": percentile_ms(ops_ref, 0.50),
            "op_p95_ref_ms": percentile_ms(ops_ref, 0.95),
        }
        units = METRIC_UNITS
        stamp["setup_s_samples"] = [wall for wall, _ in setup]
        stamp["setup_ref_s_samples"] = [ref for _, ref in setup]
        stamp["raw"] = {"setup_s": statistics.median(wall for wall, _ in setup),
                        "wall_s": statistics.median(ps.wall for ps in passes),
                        "op_p50_ms": percentile_ms(ops, 0.50),
                        "op_p95_ms": percentile_ms(ops, 0.95)}
        stamp["pass_walls_s"] = [ps.wall for ps in passes]
        stamp["pass_walls_ref_s"] = [ps.wall_ref for ps in passes]
        stamp["pass_cpu_s"] = [sum(p.cpu_s for p in ps.procs) for ps in passes]
        if workload == "cli":
            stamp["command_walls_s"] = [ps.op_s for ps in passes]
    attempted = sum(len(ps.op_s) for ps in passes)
    failed = sum(ps.failed for ps in passes)
    stamp["failed_frac"] = failed / attempted
    stamp["stopped_calls"] = sum(t is None for ps in passes for t in ps.op_s)
    stamp["problems"] = problems[:20]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return stamp, result


def _identity_problems(plain: Pass, traced: Pass) -> list:
    """The traced pass must reproduce the untraced outputs byte for byte.
    kernel-stream compares the items that finished in both passes."""
    if len(plain.outputs) != len(traced.outputs):
        return ["traced pass produced a different number of outputs"]
    bad = sum(1 for a, b in zip(plain.outputs, traced.outputs)
              if a != b and a is not None and b is not None)
    return [f"{bad} outputs differ between the traced and untraced pass"] if bad else []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (SRC / "pdmlab" / "__init__.py").is_file():
        print(f"no pdmlab sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            stamp, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"context": stamp}), flush=True)
            print(json.dumps(result), flush=True)
    finally:
        cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
