"""Run ``znbases <args>`` as the installed console script does, with a fixed
calibration loop timed before and after it, then report the process's peak
resident set size and the calibration times on stderr.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/launch.py order --n 9 --set 0,1,3

The peak comes from ``VmHWM`` in /proc/self/status at exit.  ``ru_maxrss``
from wait4 is no substitute: a child keeps its parent's peak across exec, so
it would report the harness's own size whenever that is the larger.

The calibration loop does the same fixed work at every commit: shifts and
masks of 256-bit and 65536-bit integers, set and dict inserts, a sort.  Its
time, taken in the same process as the job, tells ``run.py`` how fast the
shared machine ran during the job; see "Machine speed" in README.md.  It
uses well under 1 MiB.
"""

import atexit
import sys
import time

RSS_PREFIX = "perfbench-rss-kib "
CAL_PREFIX = "perfbench-cal "


def calibrate() -> int:
    narrow, wide = (1 << 256) - 1, (1 << 65536) - 1
    acc = 0
    for _ in range(3):
        a = 0b1011 | (1 << 100)
        for i in range(6000):
            a = (a | (a << 3) | (a >> 7)) & narrow
            a ^= i
        w = 0b1011 | (1 << 30000)
        for i in range(400):
            w = (w | (w << 5) | (w >> 11)) & wide
            w ^= i
        acc += w.bit_count()
        seen = set()
        first = {}
        for i in range(20000):
            x = (i * 7919) % 1021
            if x not in seen:
                seen.add(x)
                first[x] = i
        ordered = sorted(seen, reverse=True)
        acc += len(ordered) + (a & 255) + sum(first[x] for x in ordered[:50])
    return acc


def timed_calibration() -> tuple[float, float]:
    """(wall, cpu) seconds of one calibration loop."""
    wall, cpu = time.perf_counter(), time.process_time()
    calibrate()
    return time.perf_counter() - wall, time.process_time() - cpu


def report(before: tuple[float, float]) -> None:
    after = timed_calibration()
    sys.stderr.write(f"{CAL_PREFIX}{before[0]!r} {before[1]!r} {after[0]!r} {after[1]!r}\n")
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    sys.stderr.write(f"{RSS_PREFIX}{line.split()[1]}\n")
                    return
    except OSError:
        pass


if __name__ == "__main__":
    atexit.register(report, timed_calibration())
    from znbases.cli import main

    sys.exit(main(prog_name="znbases"))
