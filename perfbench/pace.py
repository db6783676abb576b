"""Run one child process in probed slices, and time it at a fixed host speed.

The shared host this benchmark was written on changes speed under it: a
fixed loop takes 1x to 2x its fastest time, and the level changes within
a tenth of a second or holds for minutes.  The child's CPU time slows
with it, so neither wall nor CPU time of a run is steady (README.md,
"Noise").  So the driver pins itself to one CPU (`pin`), and every child
inherits that CPU.  `run` lets the child run in slices of SLICE_S.  After
each slice it stops the child (SIGSTOP), times `probe` on the same CPU,
and lets the child go on (SIGCONT).  The mean of the probes before and
after a slice is the host's speed during it.  Dividing the slice's wall
and CPU time by it gives the slice in probe units, and a unit is worth
PROBE_REF_S seconds, the probe's time on the reference host at its fast
speed.  The sums over slices are the child's paced wall and CPU time:
the time it would have taken had the host held that speed throughout.
"""

from __future__ import annotations

import os
import select
import signal
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction

SLICE_S = 0.1
PROBE_LOOPS = 3
PROBE_ITERATIONS = 500
# probe() on the reference host (Intel Xeon, 2 vCPUs, Python 3.11.7) at
# its fast speed; it read 4.06 to 4.3 ms there, and 8 ms at the slow speed
PROBE_REF_S = 0.004


@dataclass
class Child:
    """Outcome of one child process; `paced_*` are at the probe's reference speed."""

    argv: list
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    paced_wall_s: float
    paced_cpu_s: float
    probes_s: list = field(repr=False)


def pin():
    """Pin this process, and the children it starts from now on, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe():
    """Seconds of a fixed Fraction loop, the median of PROBE_LOOPS, scaled to all of them.

    The median keeps one loop that the scheduler preempted from reading
    as a slow host.
    """
    times = []
    for _ in range(PROBE_LOOPS):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, PROBE_ITERATIONS + 1):
            total += Fraction(1, i % 97 + 1)
        times.append(time.perf_counter() - start)
    return PROBE_LOOPS * statistics.median(times)


def _cpu_ns(pid):
    """CPU time the process has used so far, from /proc/<pid>/schedstat."""
    with open(f"/proc/{pid}/schedstat", encoding="ascii") as fh:
        return int(fh.read().split()[0])


def run(argv, cwd, env, tmp_dir):
    """Run argv to completion in probed slices; see the module docstring."""
    with tempfile.TemporaryFile(dir=tmp_dir) as out, \
            tempfile.TemporaryFile(dir=tmp_dir) as err:
        before = probe()
        probes = [before]
        wall = paced_wall = paced_cpu = 0.0
        cpu_ns = 0
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                exited = select.select([pidfd], [], [], SLICE_S)[0]
                if not exited:
                    os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                end = time.perf_counter()
                stopped = os.WIFSTOPPED(status)
                if stopped:
                    now_ns = _cpu_ns(proc.pid)
                else:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    now_ns = round((usage.ru_utime + usage.ru_stime) * 1e9)
                after = probe()
                probes.append(after)
                speed = (before + after) / 2 / PROBE_REF_S
                slice_cpu = max(now_ns - cpu_ns, 0) / 1e9
                wall += end - start
                paced_wall += (end - start) / speed
                paced_cpu += slice_cpu / speed
                cpu_ns, before = now_ns, after
                if not stopped:
                    break
                start = time.perf_counter()
                os.kill(proc.pid, signal.SIGCONT)
        finally:
            os.close(pidfd)
            if proc.returncode is None:
                proc.kill()
                os.kill(proc.pid, signal.SIGCONT)
                proc.wait()
        out.seek(0)
        err.seek(0)
        return Child(list(argv), proc.returncode, out.read(), err.read(),
                     wall, (usage.ru_utime + usage.ru_stime),
                     usage.ru_maxrss / 1024, paced_wall, paced_cpu, probes)
