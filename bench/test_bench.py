"""Self-tests of the benchmark harness: python3 -m pytest bench -q"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_times  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_ops_deterministic_per_seed(workload):
    a = workloads.make_ops(workload, 7)
    b = workloads.make_ops(workload, 7)
    assert [op.argv for op in a] == [op.argv for op in b]
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.digest(workloads.make_ops(workload, 8)) != workloads.digest(a)


def _results(ops):
    import reciprocity.cli as cli

    return [run.run_op(cli, op)[:2] for op in ops]


def _tamper(result):
    code, out = result
    payload = json.loads(out)
    payload["value"] = payload["value"] + " + 1"
    return code, json.dumps(payload)


def test_oracles_accept_then_reject_tampered_values():
    ops = workloads.make_ops("local_symbols", 3)[:12]  # two groups: pairs, tate, cocycle
    results = _results(ops)
    assert workloads.check(ops, results) == ["ok"] * len(ops)
    kinds = [op.argv[0] for op in ops]
    for cmd in ("symbol-tame", "symbol-cc", "tate-residue", "cocycle-gf"):
        i = kinds.index(cmd)
        tampered = list(results)
        tampered[i] = _tamper(results[i])
        assert workloads.check(ops, tampered)[i] == "wrong", cmd
    # a failed partner makes its pair unverifiable, not wrong
    errored = list(results)
    errored[1] = (2, "")
    assert workloads.check(ops, errored)[:2] == ["error", "error"]


def test_verify_oracle_needs_verified_true():
    op = workloads.Op(["verify-wrl"], "verify")
    assert workloads.check([op], [(0, '{"verified": true}')]) == ["ok"]
    assert workloads.check([op], [(0, '{"verified": false}')]) == ["wrong"]
    # exit 1 is the CLI's failed check, an uncaught exception is a library bug
    assert workloads.check([op], [(1, '{"verified": false}')]) == ["wrong"]
    assert workloads.check([op], [("AssertionError: ", "")]) == ["wrong"]
    # exit 2 is input the library declined (the known GF precision bug)
    assert workloads.check([op], [(2, "")]) == ["error"]


def test_self_time_on_synthetic_span_tree():
    # cli [0,100] > curve [10,90] > (poly [20,40] > poly [25,35]), (kernels [50,60]); cli > poly [92,98]
    spans = [
        [0, 0, 100, -1],
        [1, 10, 90, 0],
        [2, 20, 40, 1],
        [2, 25, 35, 2],
        [3, 50, 60, 1],
        [2, 92, 98, 0],
    ]
    calls, incl, self_ns = layer_times(spans, 4)
    assert calls == [1, 1, 3, 1]
    assert incl == [100, 80, 20 + 6, 10]  # the nested poly span is not counted twice
    assert self_ns == [100 - 80 - 6, 80 - 20 - 10, (20 - 10) + 10 + 6, 10]
    assert sum(self_ns) == 100


def test_tracer_restores_and_counts():
    import reciprocity.cli as cli
    import reciprocity.curve as curve
    import reciprocity.norms as norms

    main, det = cli.main, curve.mat_det
    op = workloads.make_ops("global_fp", 1)[0]
    tracer = Tracer()
    tracer.install()
    try:
        assert curve.mat_det is norms.mat_det is not det
        run.run_op(cli, op)
        calls, incl, self_ns = tracer.take()
    finally:
        tracer.uninstall()
    assert cli.main is main and curve.mat_det is det
    names = tracer.names
    assert calls[names.index("cli")] == 1
    assert calls[names.index("curve")] >= 1
    assert incl[0] == sum(self_ns)
    assert tracer.counts["elements"] > 0


def test_normalization_arithmetic():
    nominal_ns = reference.REF_NOMINAL_MS * 1e6
    # at the nominal reference time an op reads as its own time in ms
    assert reference.normalize_ms(7e6, nominal_ns) == pytest.approx(7.0)
    # a host on which the task is 2x slower shrinks op times by 2^-exponent
    assert reference.normalize_ms(7e6, 2 * nominal_ns) == pytest.approx(7.0 * 2 ** -reference.REF_EXPONENT)
    # an op that slows down exactly as the task^exponent reads the same
    slow = 2 ** reference.REF_EXPONENT
    assert reference.normalize_ms(7e6 * slow, 2 * nominal_ns) == pytest.approx(7.0)
    assert reference.time_reference() > 0
