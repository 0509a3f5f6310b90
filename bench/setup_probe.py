"""Time `import reciprocity` plus construction of a workload's fields and rings.

Run in a fresh interpreter by run.py:

    python3 -I bench/setup_probe.py <src dir> <spec> [<spec> ...]

Prints the set-up time in nominal seconds (see reference.py): thread CPU time
of the import and the parses, divided by the reference task timed in the same
interpreter.
"""

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from reference import normalize_ms, time_reference  # noqa: E402


def main() -> None:
    src, specs = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    refs = [time_reference() for _ in range(5)]
    t0 = time.thread_time_ns()
    import reciprocity  # noqa: F401
    from reciprocity.parsing import parse_ring_spec

    for spec in specs:
        parse_ring_spec(spec)
    setup_ns = time.thread_time_ns() - t0
    refs += [time_reference() for _ in range(5)]
    print(normalize_ms(setup_ns, statistics.median(refs)) / 1000)


if __name__ == "__main__":
    main()
