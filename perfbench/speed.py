"""How fast the machine runs the benchmark's own processes, from a fixed probe.

The speed of a vCPU of this shared machine flips between two levels about
1.6x apart, for seconds to minutes at a time (perfbench/NOTES.md, last
section), so a raw time measures the machine as much as the program.  A
probe is a fixed piece of pure-Python dict and integer work, timed in the
process whose work it corrects, interleaved with that work.  A time "at
reference speed" is the measured time, less the probes' own time, scaled by
REF_PROBE_S over the probe time measured alongside it.

Probes are taken between kernel-stream items, outside the timed calls; in
a CLI command by a SIGPROF handler every SAMPLE_CPU_S of the process's CPU
time (Sampler), so at a steady rate in wall time; and in a set-up probe
before and after its imports.  Only `time` is imported at module level, so
that a set-up probe pays next to nothing to import this module.
"""

from __future__ import annotations

import time

# About the probe's time on the 2-vCPU Xeon virtual machine the benchmark
# was written on, in its fast phase; times at reference speed read close to
# that machine's fast-phase wall times.
REF_PROBE_S = 4.0e-4
SAMPLE_CPU_S = 0.05


def probe() -> float:
    """Seconds one fixed piece of pure-Python work takes now."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(3000):
        d[i % 97] = d.get(i % 89, 0) + i * i
    return time.perf_counter() - t0


def at_ref(seconds: float, probes: list) -> float:
    """`seconds` of work, less the probes taken inside it, at reference
    speed."""
    return (seconds - sum(probes)) * REF_PROBE_S * len(probes) / sum(probes)


def local_scales(probes: list) -> list:
    """For each probe, the factor to reference speed of the work next to it:
    REF_PROBE_S over the median of that probe and two neighbours on each
    side, so that one probe hit by an interrupt does not set it."""
    import statistics

    return [REF_PROBE_S / statistics.median(probes[max(0, j - 2): j + 3])
            for j in range(len(probes))]


class Sampler:
    """Probes when started, every SAMPLE_CPU_S of CPU time, and when
    stopped."""

    def __init__(self) -> None:
        self.probes: list = []

    def start(self) -> None:
        import signal

        self.probes.append(probe())
        signal.signal(signal.SIGPROF, lambda *_: self.probes.append(probe()))
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def stop(self) -> None:
        import signal

        signal.setitimer(signal.ITIMER_PROF, 0)
        self.probes.append(probe())
