"""A fixed reference loop that reads the machine's current speed.

On a shared machine other tenants slow the benchmark by up to half, in
bursts of under a second to minutes; on the 2-core container of the
starting profile, raw throughput of identical work spread by 20 to 30%
between runs. The reference loop
imports nothing from ``repro``: a change to the program never changes
its time, while contention slows it as it slows the program. Scaling a
measured time by ``REFERENCE_S / reference()`` taken next to it turns it
into the time at the reference speed, which is what the end-to-end
``reps_per_s`` and ``setup_s`` report.
"""

from __future__ import annotations

import gc
import time

#: Near the CPU time of :func:`reference` on a quiet 2-core container
#: (Python 3.11.7), the machine of the starting profile. A run at exactly
#: this speed reports its raw throughput.
REFERENCE_S = 0.001


def reference() -> float:
    """CPU seconds this thread spends on a fixed loop of integer arithmetic
    and small-dict updates, the interpreter work the program's hot loops
    run.

    Of the loops tried, pure interpreter work followed the program's
    slowdowns most closely: the log of its time against the log of a
    small sweep's time had a slope of 0.86 to 0.89, where a loop of small
    NumPy calls had 0.58 to 0.69 (it slows down more than the program).
    CPU time leaves out time the thread waits for the GIL or is not
    scheduled. The collector is off during the loop, so a collection the
    program's garbage would trigger never lands in it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        acc = 0
        for i in range(12000):
            acc += (i * i) % 13
        table: "dict[int, int]" = {}
        for i in range(2000):
            table[i & 63] = table.get(i & 63, 0) + i
        return time.thread_time() - start
    finally:
        if collecting:
            gc.enable()
