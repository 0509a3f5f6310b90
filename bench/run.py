"""Closed-loop benchmark of the ``reciprocity`` command line, one client, one thread.

    python3 bench/run.py --workload global_fp --seed 1 --seconds 20 --trace 0

Replays a seeded, fixed list of ops (see workloads.py) through
``reciprocity.cli.main(argv)`` in this process with stdout captured, so
parsing, computation and report emission are all timed.  Each op's thread CPU
time is divided by the reference task timed right beside it (reference.py).
The list is replayed once in full and then op by op in order until
``--seconds`` have passed; each op's time is the median over its runs.  After the timed passes every op is
checked against its oracle.

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` untraced and traced passes alternate and the last line holds
the per-layer metrics (tracing.py).  Lines before it give the op-list digest,
the run's environment and a reproducer for every failed op.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

from reference import REF_EXPONENT, REF_NOMINAL_MS, normalize_ms, time_reference  # noqa: E402
from tracing import Tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


def measure_setup(specs) -> float:
    """Median nominal set-up seconds over fresh interpreters; the first run only fills the bytecode cache."""
    cmd = [sys.executable, "-I", os.path.join(BENCH, "setup_probe.py"), SRC, *specs]
    values = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S)
        if i:
            values.append(float(out.stdout.split()[-1]))
    return statistics.median(values)


def run_op(cli, op):
    """(exit code, stdout, thread ns) of one op through the CLI entry point."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.thread_time_ns()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an uncaught library error fails this op, not the run
            code = f"{type(exc).__name__}: {exc}"
        op_ns = time.thread_time_ns() - t0
    return code, out.getvalue(), op_ns


class Replay:
    """Timed passes over the op list; keeps per-op samples and first-pass outputs."""

    def __init__(self, cli, ops):
        self.cli, self.ops = cli, ops
        self.norm_ms = [[] for _ in ops]
        self.raw_ns = [[] for _ in ops]
        self.refs: list[int] = []
        self.results: list = [None] * len(ops)

    def one_pass(self, on_op=None, deadline=None):
        """Run every op once, or until ``deadline`` (a perf_counter time) has passed."""
        ref_before = time_reference()
        for i, op in enumerate(self.ops):
            if deadline is not None and time.perf_counter() >= deadline:
                return
            gc.collect()  # each op starts with empty young generations, as in a fresh process
            code, out, op_ns = run_op(self.cli, op)
            if on_op is not None:
                on_op()
            ref_after = time_reference()
            self.refs.append(ref_after)
            self.norm_ms[i].append(normalize_ms(op_ns, (ref_before + ref_after) / 2))
            self.raw_ns[i].append(op_ns)
            if self.results[i] is None:
                self.results[i] = (code, out)
            ref_before = ref_after

    def op_ms(self) -> list[float]:
        return [statistics.median(s) for s in self.norm_ms]

    def wall_ops_per_s(self) -> float:
        return len(self.ops) / (sum(statistics.median(s) for s in self.raw_ns) / 1e9)

    def run_for(self, seconds: float):
        """One full pass, then more ops in order until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        self.one_pass()
        while time.perf_counter() < deadline:
            self.one_pass(deadline=deadline)


def git_sha():
    """HEAD of the checkout the benchmark runs in, or None outside a git checkout.

    The search for a repository stops at the checkout's root, so a
    repository that merely encloses the checkout is not read.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=SETUP_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(replay, verdicts, setup_s) -> dict:
    ms = replay.op_ms()
    return {
        "ops_per_s": metric(len(ms) / (sum(ms) / 1000), "1/s"),
        "op_p50_ms": metric(statistics.median(ms), "ms"),
        "op_p90_ms": metric(statistics.quantiles(ms, n=10)[-1], "ms"),
        "verified_frac": metric(verdicts.count("ok") / len(verdicts), "fraction"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(cli, ops, seconds: float):
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    plain, traced = Replay(cli, ops), Replay(cli, ops)
    tracer = Tracer()
    n = len(tracer.names)
    calls, incl, self_ns = [0] * n, [0] * n, [0] * n
    op_ns = 0

    def fold():
        nonlocal op_ns
        c, i, s = tracer.take()
        op_ns += i[0]  # the cli.main root span is the op
        for k in range(n):
            calls[k] += c[k]
            incl[k] += i[k]
            self_ns[k] += s[k]

    deadline = time.perf_counter() + seconds
    last = 0.0
    while not traced.refs or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        plain.one_pass()
        tracer.install()
        try:
            traced.one_pass(on_op=fold)
        finally:
            tracer.uninstall()
        last = time.perf_counter() - t0
    executed = len(traced.refs)
    out = {}
    for k, name in enumerate(tracer.names):
        out[f"{name}.calls_per_op"] = metric(calls[k] / executed, "count")
        out[f"{name}.incl_share"] = metric(incl[k] / op_ns, "share")
        out[f"{name}.self_share"] = metric(self_ns[k] / op_ns, "share")
    out["kernels.coeffs_per_call"] = metric(
        tracer.counts["kernel_coeffs"] / max(1, calls[tracer.names.index("kernels")]), "count")
    out["fields.elements_per_op"] = metric(tracer.counts["elements"] / executed, "count")
    out["bench.ref_ms"] = metric(statistics.median(plain.refs) / 1e6, "ms")
    out["bench.wall_ops_per_s"] = metric(plain.wall_ops_per_s(), "1/s")
    out["bench.trace_overhead"] = metric(sum(traced.op_ms()) / sum(plain.op_ms()), "ratio")
    return plain, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "reciprocity", "__init__.py")):
        print(f"error: no reciprocity sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import reciprocity
    import reciprocity.cli as cli

    ops = workloads.make_ops(args.workload, args.seed)
    print(json.dumps({"info": {
        "workload": args.workload, "seed": args.seed, "ops": len(ops),
        "op_digest": workloads.digest(ops), "ref_nominal_ms": REF_NOMINAL_MS,
        "ref_exponent": REF_EXPONENT,
        "backend": reciprocity.KERNEL_BACKEND, "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }}))
    gc.collect()
    gc.freeze()
    for op in ops[:10]:  # warm-up, untimed
        run_op(cli, op)

    if args.trace:
        replay, metrics = traced_run(cli, ops, args.seconds)
    else:
        replay = Replay(cli, ops)
        replay.run_for(args.seconds)

    verdicts = workloads.check(ops, replay.results)
    for op, verdict, (code, _) in zip(ops, verdicts, replay.results):
        if verdict != "ok":
            print(f"FAILED ({verdict}, exit {code}): {op.reproducer()}")
    if not args.trace:
        metrics = end_to_end(replay, verdicts, measure_setup(workloads.SPECS[args.workload]))
        print(json.dumps({"info": {
            "passes": len(replay.refs) / len(ops),
            "bench.wall_ops_per_s": metric(replay.wall_ops_per_s(), "1/s"),
            "bench.ref_ms": metric(statistics.median(replay.refs) / 1e6, "ms"),
        }}))
    print(json.dumps({
        "correct": "wrong" not in verdicts,
        "attempted": len(ops),
        "failed": len(ops) - verdicts.count("ok"),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
