"""The machine's current speed, from a fixed pure-Python loop.

The machine this benchmark was built on runs the same interpreter-bound
code up to 45% slower for stretches of many seconds, as neighbours load
the shared cores.  Timing the loop next to each measured call tells how
fast the machine ran at that moment.  A time t measured while the loop
took c seconds is reported at the reference speed as t * REFERENCE_S / c.
"""

from __future__ import annotations

import time

# the loop's time at the reference speed: a scale only, the same for every
# run.  The times reported are reference-speed seconds, not wall seconds.
# On the 2-core Xeon at 2.1 GHz this was built on, the loop took 4.9 to
# 11 ms, so they read about 0.5 to 0.75 of the wall time; README.md gives
# the ratio per workload.
REFERENCE_S = 0.0045


def _loop() -> int:
    table, total = {}, 0
    for i in range(20000):
        key = (i * 7919) & 511
        table[key] = table.get(key, 0) + (i * i) % 97
        total += len((i, key))
    return total


def sample() -> float:
    t = time.perf_counter()
    _loop()
    return time.perf_counter() - t
