"""Seeded op lists for the benchmark workloads, and the oracles that check them.

An op is one ``reciprocity`` command line.  Its inputs are generated here from
the workload seed, outside any timed region, as the library's corpus
generators make them, except that the shape of each input (degrees,
factorization type, valuation, support) does not depend on the seed.
The program under test only ever sees the argv.  Every op carries an
oracle that the benchmark evaluates after the timed run, from data the op did
not compute itself:

* ``verify-*``: exit code 0 and ``"verified": true`` (the theorem is the oracle);
* ``symbol-tame`` / ``symbol-cc``: ops come in swapped pairs and
  <f,g> * <g,f> must be 1;
* ``tate-residue``: the block-trace value must equal the coefficient route
  ``residue_coefficient(f, g)``, i.e. the z^-1 coefficient of f * g';
* ``cocycle-gf``: the value must equal tr(ST) * res(f dg).
"""

from __future__ import annotations

import hashlib
import json
import random
import shlex
from dataclasses import dataclass

WORKLOADS = ("global_fp", "global_fq", "local_symbols")

# field and ring specs each workload builds; setup_s times their construction
SPECS = {
    "global_fp": ("F101", "F2147483647"),
    "global_fq": ("F9:u^2+1", "F256"),
    "local_symbols": ("Q", "F7", "F9:u^2+1", "F7[e,d]/(e^3,d^2)"),
}

# op-list sizes; each pair or group yields several ops
GLOBAL_FP_PAIRS = 180
GLOBAL_FQ_PAIRS = 120
LOCAL_GROUPS = 90

CC_RING = "F7[e,d]/(e^3,d^2)"
LOCAL_FIELDS = ("Q", "F7", "F9:u^2+1")


@dataclass
class Op:
    argv: list
    kind: str  # "verify", "pair", "value"
    partner: int | None = None  # index of the swapped op for kind "pair"
    ring: str | None = None  # spec of the ring the value lives in
    expected: str | None = None  # oracle value for kind "value"

    def reproducer(self) -> str:
        return "reciprocity " + shlex.join(self.argv)


def _streams(workload: str, seed: int, index: int):
    """(shape, coefficient) generators for item ``index`` of a workload.

    The shape stream fixes degrees, factorization types, valuations and
    supports and does not depend on the seed; the seed only changes the
    factors and coefficients.  Every seed thus replays the same mix of op
    sizes, which keeps the seed-to-seed spread of the timings small while each
    seed still gives new inputs.
    """
    return random.Random(f"{workload}:shape:{index}"), random.Random(f"{workload}:{seed}:{index}")


def _nonzero(rng: random.Random, ring):
    while True:
        c = ring.random_element(rng)
        if not c.is_zero():
            return c


def _matrix(rng: random.Random, n: int = 2) -> list:
    return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]


def _factor_shapes(shape, degrees, q: int) -> list:
    """(degree, multiplicity) of the irreducible factors of each polynomial, from ``shape``.

    Each degree is split into random parts.  As in a random polynomial over
    F_q, a part repeats with chance about 1/q, so square factors, and over
    F9 and F256 the p-th-root branch of the square-free step, are met at
    about the rate corpus inputs meet them.  Partitions are redrawn while they
    need more linear factors than the field has.
    """
    while True:
        parts = []
        for d in degrees:
            split = []
            while d:
                k = shape.randint(1, d)
                m = 1
                while (m + 1) * k <= d and shape.random() < 1 / q:
                    m += 1
                split.append((k, m))
                d -= k * m
            parts.append(split)
        if sum(1 for split in parts for k, _ in split if k == 1) <= q:
            return parts


def _irreducible(rng, fld, degree: int, taken: set):
    from reciprocity.factor import is_irreducible
    from reciprocity.poly import Polynomial

    while True:
        p = Polynomial(fld, [fld.random_element(rng) for _ in range(degree)] + [fld.one()])
        if p not in taken and is_irreducible(p):
            taken.add(p)
            return p


def _rational_pair(shape, rng, fld, max_degree: int, force_higher_place: bool):
    """Two rational functions whose factorization type comes from ``shape``.

    As in corpus.random_rational_pair, numerator and denominator degrees are
    uniform up to ``max_degree`` and a forced pair gains an irreducible
    quadratic factor.  Here the degrees, the degrees of the irreducible
    factors and their multiplicities are drawn from ``shape``; the seed draws
    the factors themselves, all distinct, and the leading coefficients.  A
    factor shared by numerator and denominator is not drawn: it cancels when
    the pair is built, in the corpus as here, so an op never sees it.
    """
    from reciprocity.curve import RationalFunction
    from reciprocity.poly import Polynomial

    parts = _factor_shapes(shape, [shape.randint(0, max_degree) for _ in range(4)], fld.order)
    taken: set = set()
    polys = []
    for split in parts:
        p = Polynomial(fld, [_nonzero(rng, fld)])
        for d, m in split:
            p = p * _irreducible(rng, fld, d, taken) ** m
        polys.append(p)
    if force_higher_place:
        polys[0] = polys[0] * _irreducible(rng, fld, 2, taken)
    return RationalFunction(fld, polys[0], polys[1]), RationalFunction(fld, polys[2], polys[3])


def _global_ops(workload: str, seed: int, specs, pairs: int, max_degree: int) -> list[Op]:
    from reciprocity.parsing import parse_field_spec

    fields = [(spec, parse_field_spec(spec)) for spec in specs]
    ops = []
    for i in range(pairs):
        shape, rng = _streams(workload, seed, i)
        spec, fld = fields[i % len(fields)]
        f, g = _rational_pair(shape, rng, fld, max_degree, force_higher_place=i % 5 == 0)
        common = ["--field", spec, "--json", f"-f={f}", f"-g={g}"]
        s_m, t_m = _matrix(rng), _matrix(rng)
        ops.append(Op(["verify-wrl", *common], "verify"))
        ops.append(Op(["verify-residues", *common], "verify"))
        ops.append(Op(["verify-gf", *common, "-S", json.dumps(s_m), "-T", json.dumps(t_m)], "verify"))
    return ops


def _coefficient(shape, rng, ring):
    """A random element of ``ring`` that is zero exactly when one drawn from ``shape`` is.

    Its law is that of ``ring.random_element``, while whether it is zero,
    and so the support of a series, does not depend on the seed.
    """
    return ring.zero() if ring.random_element(shape).is_zero() else _nonzero(rng, ring)


def _laurent_polynomial(shape, rng, ring, min_exp: int, max_exp: int):
    """corpus.random_laurent_polynomial with the support drawn from ``shape``."""
    from reciprocity.laurent import LaurentSeries

    coeffs = {}
    for e in range(min_exp, max_exp + 1):
        if shape.random() < 0.6:
            c = _coefficient(shape, rng, ring)
            if not c.is_zero():
                coeffs[e] = c
    return LaurentSeries(ring, coeffs)


def _unit_series(shape, rng, fld):
    """corpus.random_unit_series with the valuation and support drawn from ``shape``."""
    from reciprocity.laurent import LaurentSeries

    v = shape.randint(-3, 3)
    coeffs = {v: _nonzero(rng, fld)}
    for _ in range(4):
        e = v + shape.randint(1, 6)
        c = _coefficient(shape, rng, fld)
        if not c.is_zero():
            coeffs[e] = c
    return LaurentSeries(fld, coeffs)


def _principal_unit(shape, rng, ring):
    """corpus.random_principal_unit with the support drawn from ``shape``."""
    from reciprocity.laurent import LaurentSeries

    def nilpotent(r):
        c = ring.random_element(r)
        return c - ring.embed_from_below(ring.residue(c))

    coeffs = {0: ring.one()}
    for e in range(-3, 4):
        if shape.random() < 0.6 and not nilpotent(shape).is_zero():
            while True:
                nil = nilpotent(rng)
                if not nil.is_zero():
                    break
            coeffs[e] = coeffs.get(e, ring.zero()) + nil
    return LaurentSeries(ring, coeffs)


def _local_ops(workload: str, seed: int, groups: int) -> list[Op]:
    from reciprocity.parsing import parse_field_spec, parse_ring_spec
    from reciprocity.symbols import residue_coefficient

    fields = [(spec, parse_field_spec(spec)) for spec in LOCAL_FIELDS]
    cc_ring = parse_ring_spec(CC_RING)
    ops: list[Op] = []

    def pair(argv_head, f, g, ring_spec):
        a = ["--json", f"-f={f}", f"-g={g}"]
        b = ["--json", f"-f={g}", f"-g={f}"]
        i = len(ops)
        ops.append(Op([*argv_head, *a], "pair", partner=i + 1, ring=ring_spec))
        ops.append(Op([*argv_head, *b], "pair", partner=i, ring=ring_spec))

    for i in range(groups):
        shape, rng = _streams(workload, seed, i)
        spec, fld = fields[i % len(fields)]
        base_spec = "F3" if spec.startswith("F9") else spec

        f, g = _unit_series(shape, rng, fld), _unit_series(shape, rng, fld)
        pair(["symbol-tame", "--field", spec], f, g, base_spec)

        f, g = _principal_unit(shape, rng, cc_ring), _principal_unit(shape, rng, cc_ring)
        pair(["symbol-cc", "--ring", CC_RING], f, g, CC_RING)

        f = _laurent_polynomial(shape, rng, fld, -4, 4)
        g = _laurent_polynomial(shape, rng, fld, -4, 4)
        support = max([0] + [abs(e) for s in (f, g) for e in s.support()])
        window = 2 * support + 1
        ops.append(Op(
            ["tate-residue", "--field", spec, "--json", f"-f={f}", f"-g={g}",
             "--window", str(window)],
            "value", ring=spec, expected=str(residue_coefficient(f, g)),
        ))

        f = _laurent_polynomial(shape, rng, fld, -3, 3)
        g = _laurent_polynomial(shape, rng, fld, -3, 3)
        s_m, t_m = _matrix(rng), _matrix(rng)
        tr_st = sum(s_m[a][b] * t_m[b][a] for a in range(2) for b in range(2))
        expected = residue_coefficient(f, g, fld.prime_subfield) * fld.prime_subfield.from_int(tr_st)
        ops.append(Op(
            ["cocycle-gf", "--field", spec, "--json", f"-f={f}", f"-g={g}",
             "-S", json.dumps(s_m), "-T", json.dumps(t_m)],
            "value", ring=base_spec, expected=str(expected),
        ))
    return ops


def make_ops(workload: str, seed: int) -> list[Op]:
    if workload == "global_fp":
        return _global_ops(workload, seed, SPECS[workload], GLOBAL_FP_PAIRS, 8)
    if workload == "global_fq":
        return _global_ops(workload, seed, SPECS[workload], GLOBAL_FQ_PAIRS, 3)
    if workload == "local_symbols":
        return _local_ops(workload, seed, LOCAL_GROUPS)
    raise ValueError(f"unknown workload {workload!r}")


def digest(ops: list[Op]) -> str:
    """A short hash of the op list, so two runs can be seen to replay the same inputs."""
    text = json.dumps([op.argv for op in ops], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- oracles ------------------------------------------------------------------


def _value(text: str, ring_spec: str):
    from reciprocity.parsing import parse_ring_spec, parse_series

    ring = parse_ring_spec(ring_spec)
    return ring, parse_series(text, ring).coefficient(0)


def check(ops: list[Op], results: list) -> list[str]:
    """Per-op verdicts ``"ok"``, ``"error"`` or ``"wrong"``.

    ``results[i]`` is ``(exit_code, stdout_text)`` of op i, where the exit
    code is the text of the exception for an op that raised one the CLI does
    not handle.  An op is ``ok`` only if it exited 0 and its oracle agrees.
    It is ``wrong`` if it exited 1 (the CLI's code for a failed check, always
    an implementation bug), raised, or printed a value its oracle rejects.
    It is ``error`` if it exited with another code (2: the library declined
    the input, as the known GF precision bug does), printed no JSON, or the
    other op of its swapped pair did not give a value.
    """
    from reciprocity.cli import EXIT_VIOLATION

    payloads = []
    for code, out in results:
        try:
            payloads.append(json.loads(out) if code == 0 else None)
        except json.JSONDecodeError:
            payloads.append(None)
    verdicts = []
    for i, op in enumerate(ops):
        payload = payloads[i]
        code = results[i][0]
        if code == EXIT_VIOLATION or isinstance(code, str):
            verdicts.append("wrong")
            continue
        if payload is None:
            verdicts.append("error")
            continue
        if op.kind == "verify":
            agrees = payload.get("verified") is True
        elif op.kind == "pair":
            other = payloads[op.partner]
            if other is None:
                verdicts.append("error")
                continue
            ring, a = _value(payload["value"], op.ring)
            _, b = _value(other["value"], op.ring)
            agrees = a * b == ring.one()
        else:
            _, got = _value(payload["value"], op.ring)
            _, want = _value(op.expected, op.ring)
            agrees = got == want
        verdicts.append("ok" if agrees else "wrong")
    return verdicts
