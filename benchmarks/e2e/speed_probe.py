"""How fast the machine runs Python right now.

The 2-core machine the bounds were set on shares its cores with other
tenants: each core runs either at full speed or about 1.55x slower, and
switches every few seconds, independently of the other core.  Raw
wall-clock times therefore moved by up to 60% between runs of the same
code.  Every time the benchmark reports is scaled to full speed with
:func:`speed_scale`, from timings of one fixed loop:

* batch workloads time the loop in the measuring process between
  instances, on the core that just ran the solve;
* serve workloads run this script on every core for the whole run
  (``python3 speed_probe.py CPU`` prints ``<monotonic time> <ms>`` every
  0.2 s until killed, costing about 1.5% of the core) and average the
  samples that fall into each timed window.
"""

from __future__ import annotations

import os
import sys
import time

#: :func:`calibration_ms` of a core of the reference machine at full speed.
REFERENCE_MS = 0.75
#: Seconds between two samples of a probe process.
PROBE_INTERVAL = 0.2


def calibration_ms() -> float:
    """Fastest of three timings of a fixed pure-Python loop (about 1 ms)."""
    best = float("inf")
    for _ in range(3):
        table = dict.fromkeys(range(1024), 0)
        tick = time.perf_counter()
        total = 0
        for i in range(5000):
            table[i & 1023] = i
            total += table[(i * 7) & 1023]
        best = min(best, time.perf_counter() - tick)
    return best * 1000.0


def speed_scale(*calibrations_ms: float) -> float:
    """Factor taking a time measured at the given calibrations to full speed."""
    return REFERENCE_MS * len(calibrations_ms) / sum(calibrations_ms)


def main(argv) -> int:
    os.sched_setaffinity(0, {int(argv[0])})
    while True:
        print(f"{time.monotonic()} {calibration_ms()}", flush=True)
        time.sleep(PROBE_INTERVAL)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
