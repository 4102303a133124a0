"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the speed of pure-Python code drifts, in CPU
time as well as in wall time, by tens of percent between one minute and
the next.  `calibrate` times a fixed pure-Python loop of the kind the
package runs (tuple keys, dict lookups, integer arithmetic) that takes
about ``REFERENCE_S`` on an Intel Xeon vCPU at its usual speed.  The
benchmark runs it next to every job and reports each job's wall time
multiplied by ``REFERENCE_S`` over the loop's time around the job: the
time the job would have taken at the reference speed.  Drift then
cancels in the ratio, while a change to the package does not, because
the loop never calls the package.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.0015


def _loop(n: int = 4000) -> int:
    table: dict = {}
    for i in range(n):
        key = (i & 255, i >> 8)
        table[key] = table.get(key, 0) + i
    return len(table)


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    start = perf_counter()
    _loop()
    return perf_counter() - start
