"""The fixed pure-Python reference task that normalizes op times.

Each op's thread CPU time is divided by the time of this task, measured right
beside the op, relative to its nominal time ``REF_NOMINAL_MS``.  A host that
runs everything 20% slower for a while (a busy neighbour, a lower clock) slows
the task and the op alike, so the quotient stays put.  The task's speed swings
somewhat more than the ops' do, so the quotient uses the task's time raised to
``REF_EXPONENT``.  A change that slows
the interpreter itself also slows the task, and is not seen.

The task never touches ``reciprocity``.  Its only container allocations are
one small dict per call and a short-lived list per loop, freed at once, so the
collector's young-generation count is back where it started when the task
ends and no collection work moves into or out of the ops around it.
"""

from __future__ import annotations

import time

# nominal time of one reference task in ms; normalized times read as
# milliseconds on a host where the task takes exactly this long
REF_NOMINAL_MS = 2.5

# how strongly op time follows the task's time as the host speeds up and
# slows down.  Fitted on a 2-vCPU KVM guest over 60 benchmark runs (three
# workloads, 20 seeds) while the host's raw speed swung by up to 1.9x: the
# spread of the normalized metrics was least for exponents 0.85-0.9, and
# larger at 1, where dividing by the task's full time over-corrects.
REF_EXPONENT = 0.9

_LOOPS = 900


def reference_task(loops: int = _LOOPS) -> int:
    """String formatting and parsing plus small-dict updates: the interpreter's
    allocation-heavy everyday work, which tracks the ops' speed better than a
    tight arithmetic loop does."""
    acc = 0
    counts: dict = {}
    for k in range(loops):
        text = f"{k}*x^{k % 7} + {k * 3}"
        acc += len(text.split("+")[0].strip()) + text.count("x")
        for j in range(5):
            key = (k * 5 + j) % 97
            counts[key] = counts.get((k + j) % 89, 0) + j
    return acc + len(counts)


def time_reference() -> int:
    """Thread CPU time of one reference task, in ns."""
    t0 = time.thread_time_ns()
    reference_task()
    return time.thread_time_ns() - t0


def normalize_ms(op_ns: float, ref_ns: float) -> float:
    """An op time in ns, expressed in nominal ms against a reference time in ns."""
    return op_ns / 1e6 * (REF_NOMINAL_MS * 1e6 / ref_ns) ** REF_EXPONENT
