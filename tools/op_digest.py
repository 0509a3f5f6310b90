"""One sha256 per benchmark op list over every op's argv, exit code and stdout.

    python3 tools/op_digest.py [ROOT]

For each workload of ``bench/workloads.py`` and each seed in SEEDS, every op
of ``make_ops(workload, seed)`` runs through ``reciprocity.cli.main`` in this
process, exactly as ``bench/run.py`` runs it, and one line gives the digest of
all their (argv, exit code, stdout) triples.  ROOT is the checkout whose
``src`` and ``bench`` are used, by default the one holding this script, so
running the script on two checkouts and diffing the output shows whether a
change kept every op's output byte for byte.  Nothing under ``bench`` is
written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

SEEDS = (1, 2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap.add_argument("root", nargs="?", default=default_root, help="checkout to run (default: this one)")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import run
    import workloads
    from reciprocity import KERNEL_BACKEND, cli

    print(f"backend={KERNEL_BACKEND}")
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            ops = workloads.make_ops(workload, seed)
            digest = hashlib.sha256()
            for op in ops:
                code, stdout, _ = run.run_op(cli, op)
                digest.update(json.dumps([op.argv, code, stdout]).encode() + b"\n")
            print(f"{workload} seed={seed} ops={len(ops)} sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
