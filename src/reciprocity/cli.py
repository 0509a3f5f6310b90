"""Command-line front end.

Exit codes: 0 = value computed / identity verified; 1 = a theorem identity
was violated (always an implementation bug, so the binary is a CI
property-test harness; a failed ``sweep`` instance prints a reproducer: the
verifier command of its first failed check, or, when only its divisor degree
failed, the ``sweep`` that ends at it);
2 = input error: a missing -f or -g, a ``--prec`` too small for what was
asked, or a size outside its range; 3 = internal failure: an exception the
CLI does not handle (an ``AssertionError``, say), or a ``PrecisionError``
from a command that chose every precision itself (``sweep``, ``verify-gf``,
and ``verify-wrl`` or ``verify-residues`` without ``--local-data``).
``residue`` is another name of ``verify-residues``.  ``--prec`` is taken only
where it can change a value, so ``tate-residue`` (exact input, which parses
alike at every precision), and ``verify-wrl`` and ``verify-residues`` without
``--local-data``, refuse it.  Over Q, ``sweep`` draws declared factors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import corpus
from .artinian import ArtinianAlgebra
from .curve import (
    divisor_of,
    verify_gf_global,
    verify_residue_theorem,
    verify_residues_local_data,
    verify_wrl,
    verify_wrl_local_data,
)
from .errors import PrecisionError, ReciprocityError
from .factor import DEGREE_BUDGET
from .fields import BaseField, RationalField
from .laurent import DEFAULT_PRECISION, PRECISION_BUDGET
from .parsing import (
    parse_factored_rational,
    parse_field_spec,
    parse_rational,
    parse_ring_spec,
    parse_series,
)
from .symbols import (
    WINDOW_BUDGET,
    LoopMatrix,
    contou_carrere_symbol,
    gelfand_fuchs_cocycle,
    tame_symbol,
    tate_residue,
    tate_window,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# most instances one sweep runs; at the default degree each takes 1-15 ms (pure backend, one x86-64 core)
SWEEP_BUDGET = 10_000


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The full parser, and each command name and alias mapped to its own parser."""
    parser = argparse.ArgumentParser(
        prog="reciprocity",
        description="Exact local symbols, residues, and global verification on P^1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, aliases=()):
        p = sub.add_parser(name, help=help, description=help, aliases=list(aliases))
        p.set_defaults(handler=handler)
        return p

    def add_common(p, ring=False, series=False, prec=False, rational=False, local_data=False):
        if ring:
            p.add_argument("--ring", required=True, help="coefficient ring, e.g. Q[e1,e2]/(e1^2,e2^2)")
        else:
            p.add_argument("--field", default="Q", help="base field: Q, F5, F9:u^2+1")
        if prec:
            p.add_argument("--prec", type=int, default=DEFAULT_PRECISION,
                           help=f"working precision, 1 to {PRECISION_BUDGET}")
        if local_data:
            p.add_argument("--prec", type=int, default=None,
                           help=f"working precision of --local-data (default {DEFAULT_PRECISION})")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if series or rational:
            # a series command has no input but -f and -g; a rational one may read --local-data
            p.add_argument("-f", required=series, help="first expression")
            p.add_argument("-g", required=series, help="second expression")
        if rational:
            p.add_argument("--factored", action="store_true",
                           help="treat -f/-g as products of declared irreducible factors")
        if local_data:
            p.add_argument("--local-data", default=None, help="JSON file with raw local expansions")

    p = command("symbol-tame", _cmd_symbol_tame, "signed tame symbol of two series over a field")
    add_common(p, series=True, prec=True)

    p = command("symbol-cc", _cmd_symbol_cc, "Contou-Carrère symbol over an Artinian ring")
    add_common(p, ring=True, series=True, prec=True)

    p = command("tate-residue", _cmd_tate, "res f dg from block-operator traces")
    add_common(p, series=True)
    p.add_argument("--window", type=int, default=None,
                   help=f"window half-width, at most {WINDOW_BUDGET}")

    p = command("cocycle-gf", _cmd_cocycle_gf, "local Gelfand-Fuchs cocycle on matrix loops")
    add_common(p, series=True, prec=True)
    p.add_argument("-S", required=True, help="integer matrix as JSON, e.g. [[0,1],[0,0]]")
    p.add_argument("-T", required=True, help="integer matrix as JSON")

    p = command("verify-wrl", _cmd_verify_wrl, "verify the Weil reciprocity product")
    add_common(p, rational=True, local_data=True)

    p = command("verify-residues", _cmd_verify_residues,
                "per-place residues of f dg; verify that they sum to zero", aliases=["residue"])
    add_common(p, rational=True, local_data=True)

    p = command("verify-gf", _cmd_verify_gf, "verify global Gelfand-Fuchs vanishing")
    add_common(p, rational=True)
    p.add_argument("-S", required=True, help="integer matrix as JSON")
    p.add_argument("-T", required=True, help="integer matrix as JSON")

    p = command("sweep", _cmd_sweep, "run seeded random verification instances; each failed one prints "
                "a command that reruns it (the sweep up to it when only its divisor degree failed)")
    add_common(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the instance generator")
    p.add_argument("--count", type=int, default=50, help=f"number of instances, 1 to {SWEEP_BUDGET}")
    p.add_argument("--mode", choices=["wrl", "residues", "all"], default="all")
    p.add_argument("--max-degree", type=int, default=5, help=f"degree bound of num and den, 0 to {DEGREE_BUDGET - 2}")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at least 1; capped at the CPU count")
    return parser, sub.choices


def _parse_pair(args, field: BaseField):
    if args.f is None or args.g is None:
        raise ReciprocityError("both -f and -g are required")
    if getattr(args, "factored", False):
        f = parse_factored_rational(args.f, field)
        g = parse_factored_rational(args.g, field)
    else:
        f = parse_rational(args.f, field)
        g = parse_rational(args.g, field)
    return f, g


def _emit_value(args, value, extra=None) -> int:
    if args.json:
        payload = {"value": str(value)}
        if extra:
            payload.update(extra)
        print(json.dumps(payload))
    else:
        print(value)
    return EXIT_OK


def _emit_report(args, report) -> int:
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(report.text())
    return EXIT_OK if report.verified else EXIT_VIOLATION


def _matrix_arg(text: str, option: str):
    """The matrix given to -S or -T: a JSON list of rows of JSON integers, true and false not among them."""
    try:
        m = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReciprocityError(f"bad matrix JSON: {exc}") from None
    if not isinstance(m, list) or not all(isinstance(r, list) for r in m):
        raise ReciprocityError("matrix must be a JSON list of rows")
    for i, row in enumerate(m):
        for j, c in enumerate(row):
            # bool is a subclass of int, so only the exact type will do
            if type(c) is not int:
                raise ReciprocityError(f"{option} entry [{i}][{j}] must be a JSON integer, not {json.dumps(c)}")
    return m


def _load_local_data(path: str, prec: int | None):
    """The entries of a --local-data file, a JSON object whose "entries" is a list of objects.

    Each entry holds the series "f" and "g" as strings and, optionally, the
    field spec "field" (by default Q) as a string; any other shape is an
    input error that names the entry and the key.
    """
    if prec is None:
        prec = DEFAULT_PRECISION
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
        raise ReciprocityError('local data must be a JSON object whose "entries" is a list')
    entries = []
    for i, entry in enumerate(payload["entries"]):
        if not isinstance(entry, dict):
            raise ReciprocityError(f"local data entry {i} must be a JSON object")
        spec = entry.get("field", "Q")
        for key, value in (("field", spec), ("f", entry.get("f")), ("g", entry.get("g"))):
            if not isinstance(value, str):
                raise ReciprocityError(f'local data entry {i} needs "{key}" as a JSON string')
        kprime = parse_field_spec(spec)
        fs = parse_series(entry["f"], kprime, prec)
        gs = parse_series(entry["g"], kprime, prec)
        entries.append((kprime, fs, gs))
    return entries


def _cmd_symbol_tame(args) -> int:
    field = parse_field_spec(args.field)
    base = field.prime_subfield
    f = parse_series(args.f, field, args.prec)
    g = parse_series(args.g, field, args.prec)
    return _emit_value(args, tame_symbol(f, g, base), {"base": repr(base)})


def _cmd_symbol_cc(args) -> int:
    ring = parse_ring_spec(args.ring)
    if not isinstance(ring, ArtinianAlgebra):
        raise ReciprocityError("symbol-cc needs an Artinian ring spec")
    base = ring.base.prime_subfield
    f = parse_series(args.f, ring, args.prec)
    g = parse_series(args.g, ring, args.prec)
    return _emit_value(args, contou_carrere_symbol(f, g, base))


def _cmd_tate(args) -> int:
    field = parse_field_spec(args.field)
    f = parse_series(args.f, field)
    g = parse_series(args.g, field)
    window = args.window if args.window is not None else tate_window(f, g)
    return _emit_value(args, tate_residue(f, g, window), {"window": window})


def _cmd_cocycle_gf(args) -> int:
    field = parse_field_spec(args.field)
    f = parse_series(args.f, field, args.prec)
    g = parse_series(args.g, field, args.prec)
    s_m = _matrix_arg(args.S, "-S")
    t_m = _matrix_arg(args.T, "-T")
    a_loop = LoopMatrix.from_tensor(s_m, f)
    b_loop = LoopMatrix.from_tensor(t_m, g)
    return _emit_value(args, gelfand_fuchs_cocycle(a_loop, b_loop, field.prime_subfield))


def _cmd_verify_wrl(args) -> int:
    field = parse_field_spec(args.field)
    if args.local_data:
        entries = _load_local_data(args.local_data, args.prec)
        return _emit_report(args, verify_wrl_local_data(entries, field.prime_subfield))
    f, g = _parse_pair(args, field)
    return _emit_report(args, verify_wrl(f, g))


def _cmd_verify_residues(args) -> int:
    field = parse_field_spec(args.field)
    if args.local_data:
        entries = _load_local_data(args.local_data, args.prec)
        return _emit_report(args, verify_residues_local_data(entries, field.prime_subfield))
    f, g = _parse_pair(args, field)
    return _emit_report(args, verify_residue_theorem(f, g))


def _cmd_verify_gf(args) -> int:
    field = parse_field_spec(args.field)
    f, g = _parse_pair(args, field)
    return _emit_report(args, verify_gf_global(_matrix_arg(args.S, "-S"), _matrix_arg(args.T, "-T"), f, g))


def _sweep_instance(payload) -> dict:
    spec, seed, index, mode, max_degree = payload
    field = parse_field_spec(spec)
    rng = random.Random(f"{seed}:{index}")
    force = index % 5 == 0
    f, g = corpus.random_rational_pair(rng, field, max_degree, force_higher_place=force)
    factored = isinstance(field, RationalField)
    text = corpus.factored_text if factored else str
    out = {"index": index, "f": text(f), "g": text(g), "factored": factored}
    ok = True
    if mode in ("wrl", "all"):
        rep = verify_wrl(f, g)
        out["wrl"] = rep.verified
        ok = ok and rep.verified
    if mode in ("residues", "all"):
        rep = verify_residue_theorem(f, g)
        out["residues"] = rep.verified
        ok = ok and rep.verified
    out["divisor_degree_zero"] = divisor_of(f).degree == 0 and divisor_of(g).degree == 0
    out["ok"] = ok and out["divisor_degree_zero"]
    return out


def _reproducer(args, result: dict) -> str:
    """The command that reruns the first failed check of a sweep instance.

    A failed verifier reruns on the instance's f and g.  No command prints a
    divisor, so a failed divisor degree reruns the sweep up to this instance,
    which depends only on the seed and its index: it is the last one run.
    """
    import shlex

    if result.get("wrl", True) and result.get("residues", True):
        return shlex.join(["reciprocity", "sweep", "--field", args.field, "--seed", str(args.seed),
                           "--count", str(result["index"] + 1), "--max-degree", str(args.max_degree),
                           "--mode", args.mode])
    command = "verify-wrl" if not result.get("wrl", True) else "verify-residues"
    factored = ["--factored"] if result["factored"] else []  # over Q only the declared factors factor again
    return shlex.join(["reciprocity", command, "--field", args.field, *factored, "-f", result["f"], "-g", result["g"]])


def _cmd_sweep(args) -> int:
    if not 1 <= args.count <= SWEEP_BUDGET:
        raise ReciprocityError(f"--count {args.count} is out of range: 1 <= count <= {SWEEP_BUDGET}")
    # a forced quadratic takes an instance's degree to max-degree + 2, which must stay factorable
    if not 0 <= args.max_degree <= DEGREE_BUDGET - 2:
        raise ReciprocityError(f"--max-degree {args.max_degree} is out of range: 0 <= max-degree <= {DEGREE_BUDGET - 2}")
    if args.jobs < 1:
        raise ReciprocityError(f"--jobs {args.jobs} is out of range: jobs >= 1")
    seed = args.seed
    payloads = [(args.field, seed, i, args.mode, args.max_degree) for i in range(args.count)]
    # with fork, the pool starts every worker it is allowed
    jobs = min(args.jobs, os.cpu_count() or 1)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_instance, payloads))
    else:
        results = [_sweep_instance(p) for p in payloads]
    results.sort(key=lambda r: r["index"])
    passed = sum(1 for r in results if r["ok"])
    summary = {
        "field": args.field,
        "seed": seed,
        "count": args.count,
        "passed": passed,
        "failed": args.count - passed,
        "failures": [r for r in results if not r["ok"]],
    }
    if args.json:
        print(json.dumps(summary))
    else:
        print(f"sweep {args.mode} over {args.field}: {passed}/{args.count} passed (seed {seed})")
        for r in summary["failures"]:
            print(f"  FAILED #{r['index']}: {_reproducer(args, r)}")
    return EXIT_OK if passed == args.count else EXIT_VIOLATION


def _chose_every_precision(args) -> bool:
    """True when the command set every precision itself, so running short of one is a library fault."""
    return (args.handler in (_cmd_verify_wrl, _cmd_verify_residues, _cmd_verify_gf, _cmd_sweep)
            and not getattr(args, "local_data", None))


# built on the first call and reused: parse_args keeps no state between calls
_PARSERS = None


def _parse(parser: argparse.ArgumentParser, commands: dict, argv: list[str]) -> argparse.Namespace:
    """argv parsed by one pass of its command's own parser, where that parser takes every word.

    commands maps each command name and alias to its parser.  A first word
    that names no command, or words that command's parser leaves over, go
    through the full parser, so every usage text, error message and exit
    code is the one it gives.
    """
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    global _PARSERS
    if _PARSERS is None:
        _PARSERS = _build_parser()
    parser, commands = _PARSERS
    args = _parse(parser, commands, sys.argv[1:] if argv is None else list(argv))
    if hasattr(args, "local_data") and args.local_data is None and args.prec is not None:
        parser.error(f"{args.command}: --prec sets the precision of --local-data and needs it")
    try:
        return args.handler(args)
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL if _chose_every_precision(args) else EXIT_INPUT
    except ReciprocityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # the boundary: report any library fault as one
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
