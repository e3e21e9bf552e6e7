"""The machine's current speed, read from a fixed block of interpreter work.

The shared host this benchmark runs on changes speed by up to 1.8x within
seconds (a fixed loop's time swings that much while the process is never
descheduled), which swamps any change in the program. Each timed job is
therefore bracketed by ``calibrate()`` calls in the same process, and its
wall time is reported at the reference speed::

    ref_s = wall_s * REF_BLOCK_S / mean(calibrate() before, calibrate() after)

A job that takes as long as ``k`` calibration blocks counts as ``k`` ms.
The block does only what the program does most: int arithmetic, dict and
tuple traffic, and calls. Import time does not follow it, so set-up time
has its own yardstick (``DEPS_CODE`` in ``run.py``).
"""

import time

REF_BLOCK_S = 0.001  # what one block counts for at the reference speed
BLOCK_N = 4000  # 0.9-2.3 ms on a 2-vCPU Xeon VM, by the host's state
SAMPLES = 3


def _step(d, k, x):
    d[k] = d.get(k, 0) + x
    return (k, x)


def block(n=BLOCK_N):
    d = {}
    x = 1
    for i in range(n):
        x = (x * 2654435761 + i) % 1000000007
        _step(d, (i * 7919) % 257, x)
    return len(d)


def calibrate():
    """Seconds one block takes now: the median of ``SAMPLES`` blocks."""
    times = []
    for _ in range(SAMPLES):
        t = time.perf_counter()
        block()
        times.append(time.perf_counter() - t)
    return sorted(times)[SAMPLES // 2]


def at_reference(wall_s, before_s, after_s):
    """``wall_s`` at the reference speed, given the blocks timed around it."""
    return wall_s * REF_BLOCK_S / ((before_s + after_s) / 2)
