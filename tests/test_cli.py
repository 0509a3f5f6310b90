import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys

import pytest

import reciprocity

from reciprocity import cli, curve
from reciprocity.errors import PrecisionError
from reciprocity.factor import DEGREE_BUDGET

WRL = ["verify-wrl", "--field", "F5", "-f", "x+1", "-g", "x+2"]
PAIR = ["--field", "F5", "-f", "x+1", "-g", "x+2"]
MATRICES = ["-S", "[[1,0],[0,1]]", "-T", "[[1,0],[0,1]]"]


def raising(exc):
    def fn(*args, **kwargs):
        raise exc

    return fn


@pytest.mark.parametrize("command", ["verify-wrl", "verify-residues"])
def test_prime_above_64_bits(command, capsys):
    argv = [command, "--field", "F18446744073709551629", "-f", "x+1", "-g", "x+2"]
    assert cli.main(argv) == cli.EXIT_OK
    assert "verified: True" in capsys.readouterr().out


@pytest.mark.parametrize("exc", [AssertionError("boom"), RuntimeError("boom")])
def test_unhandled_exception_is_internal(monkeypatch, capsys, exc):
    monkeypatch.setattr(cli, "verify_wrl", raising(exc))
    assert cli.main(WRL) == cli.EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("name, argv", [
    ("verify_wrl", WRL),
    ("verify_residue_theorem", ["verify-residues", *PAIR]),
    ("verify_residue_theorem", ["residue", *PAIR]),
    ("verify_gf_global", ["verify-gf", *PAIR, *MATRICES]),
    ("verify_wrl", ["sweep", "--field", "F5", "--count", "1", "--mode", "wrl"]),
])
def test_precision_error_is_internal_when_the_library_chose_it(monkeypatch, capsys, name, argv):
    monkeypatch.setattr(cli, name, raising(PrecisionError("beyond the tracked precision")))
    assert cli.main(argv) == cli.EXIT_INTERNAL


def test_precision_error_is_input_when_the_user_chose_it(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(cli, "tame_symbol", raising(PrecisionError("beyond the tracked precision")))
    assert cli.main(["symbol-tame", "--field", "F5", "-f", "1+z", "-g", "z", "--prec", "2"]) == cli.EXIT_INPUT
    data = tmp_path / "local.json"
    data.write_text(json.dumps({"entries": []}))
    monkeypatch.setattr(cli, "verify_wrl_local_data", raising(PrecisionError("beyond the tracked precision")))
    assert cli.main(["verify-wrl", "--field", "F5", "--local-data", str(data)]) == cli.EXIT_INPUT


@pytest.mark.parametrize("argv", [
    ["verify-gf", *PAIR, *MATRICES, "--seed", "1"],
    ["verify-wrl", *PAIR, "--seed", "1"],
    ["residue", *PAIR, "--prec", "8"],
    ["verify-gf", *PAIR, *MATRICES, "--prec", "8"],
    ["sweep", "--prec", "8"],
    ["verify-wrl", "--field", "F7", "-f", "x", "-g", "1/(x+1)", "--prec", "-5"],
    ["verify-residues", *PAIR, "--prec", "8"],
    # a Tate residue takes only exact input, which parses alike at every precision
    ["tate-residue", "--field", "F7", "-f", "z", "-g", "z^-1", "--prec", "8"],
])
def test_options_that_would_be_ignored_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command, pair", [
    ("cocycle-gf", ["--field", "F7", "-f", "z^-1", "-g", "z"]),
    ("verify-gf", PAIR),
])
@pytest.mark.parametrize("option, s_m, t_m, entry", [
    ("-S", "[[true]]", "[[1]]", "[0][0] must be a JSON integer, not true"),
    ("-T", "[[1]]", "[[1, 0], [0, false]]", "[1][1] must be a JSON integer, not false"),
    ("-S", "[[1.5]]", "[[1]]", "[0][0] must be a JSON integer, not 1.5"),
    ("-T", "[[1]]", '[["1"]]', '[0][0] must be a JSON integer, not "1"'),
])
def test_matrix_entries_must_be_json_integers(capsys, command, pair, option, s_m, t_m, entry):
    """A JSON boolean is refused, although Python's bool is an int; the message names the entry."""
    assert cli.main([command, *pair, "-S", s_m, "-T", t_m]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {option} entry {entry}\n"


@pytest.mark.parametrize("argv, missing", [
    (["symbol-tame", "-g", "z"], "-f"),
    (["symbol-cc", "--ring", "F7[e]/(e^2)", "-f", "1+e*z"], "-g"),
    (["tate-residue", "-f", "z"], "-g"),
    (["cocycle-gf", "-S", "[[1]]", "-T", "[[1]]", "-f", "z"], "-g"),
    (["cocycle-gf", "-S", "[[1]]", "-T", "[[1]]"], "-f, -g"),
])
def test_a_series_command_without_f_or_g_is_a_usage_error(capsys, argv, missing):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert f"the following arguments are required: {missing}" in err
    assert "internal error" not in err


def main_outcome(argv, capsys):
    """(exit code, stdout, stderr) of cli.main(argv), a parser's exit included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv, message", [
    (["verify-wrl", "--field", "G7", "-f", "x", "-g", "x+1"], "unknown field spec 'G7'"),
    (["verify-wrl", "--field", "F6", "-f", "x", "-g", "x+1"], "6 is not a prime power"),
    (["verify-wrl", "--field", "F3:u+1", "-f", "x", "-g", "x+1"], "prime fields take no modulus"),
    (["symbol-cc", "--ring", "F7[e]/(e)", "-f", "1+e*z", "-g", "z"], "relation 'e' must be a pure power"),
    (["verify-wrl", "--field", "F7", "-f", "(" * 5000 + "x" + ")" * 5000, "-g", "x"], "expression nests too deeply"),
], ids=["unknown-field", "not-a-prime-power", "prime-with-modulus", "ring-relation", "nested"])
def test_a_spec_error_prints_no_made_up_column(capsys, argv, message):
    """A refusal with no known position ends with its message, not with the nonexistent "column 0"."""
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert "column" not in err


def test_a_positioned_error_keeps_its_column(capsys):
    assert cli.main(["verify-wrl", "--field", "F7", "-f", "x+", "-g", "x"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.rstrip().endswith("(line 1, column 2)")


# help, no command, an unknown or abbreviated command, a missing required
# option, an unknown option after a valid command, a bad value, the alias,
# the main parser's own --prec error, and command lines that parse
PARSE_TABLE = [
    [], ["-h"], ["--help"], ["bogus"], ["verify-wr", *PAIR], ["verify-wrl", "-h"], ["residue", "-h"],
    ["cocycle-gf", "-f", "1+z", "-g", "z", "-T", "[[1]]"],
    ["verify-wrl", *PAIR, "--bogus"], ["verify-wrl", "--bogus", "1", *PAIR], ["verify-wrl", *PAIR, "extra"],
    ["tate-residue", "-f", "1+z", "-g", "z", "--window", "x"], ["sweep", "--mode", "bad"],
    ["residue", *PAIR], ["residue", *PAIR, "--prec", "8"], ["verify-wrl", "--field", "F5", "-f", "x+1"],
    WRL, ["verify-residues", *PAIR, "--json"], ["verify-gf", *PAIR, *MATRICES],
    ["symbol-tame", "--field", "F7", "-f", "1+z", "-g", "z", "--prec", "4"], ["tate-residue", "-f", "z"],
]


@pytest.mark.parametrize("argv", PARSE_TABLE, ids=lambda argv: " ".join(argv) or "(empty)")
def test_one_parser_pass_matches_the_full_parser(monkeypatch, capsys, argv):
    one_pass = main_outcome(argv, capsys)
    monkeypatch.setattr(cli, "_parse", lambda parser, commands, argv: parser.parse_args(argv))
    assert main_outcome(argv, capsys) == one_pass


def test_a_command_line_that_parses_skips_the_full_parser(monkeypatch, capsys):
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", raising(AssertionError("full parser")))
    assert cli.main(WRL) == cli.EXIT_OK
    assert cli.main(["residue", *PAIR]) == cli.EXIT_OK
    assert "residue-theorem" in capsys.readouterr().out


def test_residue_is_another_name_of_verify_residues(capsys, tmp_path):
    assert cli.main(["residue", *PAIR]) == cli.EXIT_OK
    assert cli.main(["verify-residues", *PAIR]) == cli.EXIT_OK
    alias, command = capsys.readouterr().out.split("residue-theorem:")[1:]
    assert alias == command
    data = tmp_path / "local.json"
    data.write_text(json.dumps({"entries": [{"f": "z^-1", "g": "z"}]}))
    for name in ("residue", "verify-residues"):
        assert cli.main([name, "--local-data", str(data), "--prec", "4", "--json"]) == cli.EXIT_VIOLATION
        assert json.loads(capsys.readouterr().out)["global"] == "1"


@pytest.mark.parametrize("payload, message", [
    ([], 'local data must be a JSON object whose "entries" is a list'),
    ({"entries": 5}, 'local data must be a JSON object whose "entries" is a list'),
    ({"entries": [{"g": "z"}]}, 'local data entry 0 needs "f" as a JSON string'),
    ({"entries": [{"field": 5, "f": "z", "g": "z"}]}, 'local data entry 0 needs "field" as a JSON string'),
    ({"entries": [{"f": 3, "g": "z"}]}, 'local data entry 0 needs "f" as a JSON string'),
    ({"entries": [{"f": "z", "g": "z"}, "z"]}, "local data entry 1 must be a JSON object"),
    ({"entries": [{"f": "z", "g": "z"}, {"field": "Q", "f": "z", "g": "z"}]},
     "local data entry 1: Q is not an extension of F5"),
    ({"entries": [{"f": "z", "g": "z^-1"}, {"field": "F6", "f": "z", "g": "z"}]},
     "local data entry 1: 6 is not a prime power"),
    ({"entries": [{"f": "z", "g": "z^-1"}, {"f": "z+", "g": "z"}]},
     "local data entry 1: unexpected end of input (line 1, column 2)"),
], ids=["a-list", "entries-not-a-list", "no-f", "field-not-a-string", "f-not-a-string", "entry-not-an-object",
        "field-not-over-the-field-option", "field-spec-does-not-parse", "series-does-not-parse"])
@pytest.mark.parametrize("command", ["verify-wrl", "verify-residues"])
def test_malformed_local_data_is_an_input_error(capsys, tmp_path, command, payload, message):
    data = tmp_path / "local.json"
    data.write_text(json.dumps(payload))
    assert cli.main([command, "--field", "F5", "--local-data", str(data)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["verify-wrl", "verify-residues"])
def test_a_local_data_entry_without_a_field_is_over_the_field_option(capsys, tmp_path, command):
    """Over F5, z against z^-1 gives the local factor -1 = 4 and the residue -1 = 4, over Q -1."""
    reports = []
    for entry in ({"f": "z", "g": "z^-1"}, {"field": "F5", "f": "z", "g": "z^-1"}):
        data = tmp_path / "local.json"
        data.write_text(json.dumps({"entries": [entry]}))
        assert cli.main([command, "--field", "F5", "--local-data", str(data), "--json"]) == cli.EXIT_VIOLATION
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]
    assert reports[0]["global"] == "4" and reports[0]["input"]["field"] == "F5"


def test_sweep_jobs_capped_at_cpu_count(monkeypatch, capsys):
    import concurrent.futures

    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    argv = ["sweep", "--field", "F5", "--count", "2", "--mode", "wrl", "--max-degree", "2"]
    assert cli.main([*argv, "--jobs", "100000"]) == cli.EXIT_OK
    assert cli.main([*argv, "--jobs", "2"]) == cli.EXIT_OK
    assert started == [2, 2]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert cli.main([*argv, "--jobs", "100000"]) == cli.EXIT_OK
    assert started == [2, 2]
    assert "2/2 passed" in capsys.readouterr().out


def run_alone(argv):
    """(exit code, stdout) of argv in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(reciprocity.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "reciprocity", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout


def test_repeated_main_calls_match_separate_runs(capsys):
    # the parser is built once per process; no call may see another's flags
    runs = [
        ["verify-wrl", "--json", "--field", "F5", "-f", "x+1", "-g", "x+2"],
        ["symbol-tame", "--field", "F7", "-f", "1+z", "-g", "z", "--prec", "4"],
        ["residue", "--field", "F6", "-f", "x", "-g", "x+1"],
        ["verify-wrl", "--field", "F7", "-f", "x", "-g", "x+3"],
    ]
    in_process = []
    for argv in runs:
        code = cli.main(argv)
        in_process.append((code, capsys.readouterr().out))
    assert [code for code, _ in in_process] == [cli.EXIT_OK, cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_OK]
    assert in_process == [run_alone(argv) for argv in runs]


class FailedReport:
    verified = False


def reproducers(capsys, count):
    """The command words of each FAILED line of a sweep's output, which must fail instances 0 .. count - 1."""
    import shlex

    lines = [line for line in capsys.readouterr().out.splitlines() if "FAILED" in line]
    assert [line.split(": ", 1)[0] for line in lines] == [f"  FAILED #{i}" for i in range(count)]
    return [shlex.split(line.split(": ", 1)[1]) for line in lines]


@pytest.mark.parametrize("mode, verifier, command", [
    ("wrl", "verify_wrl", "verify-wrl"),
    ("residues", "verify_residue_theorem", "verify-residues"),
    ("all", "verify_residue_theorem", "verify-residues"),
    ("all", "verify_wrl", "verify-wrl"),
])
def test_sweep_failure_prints_a_reproducer(monkeypatch, capsys, mode, verifier, command):
    real = getattr(cli, verifier)
    monkeypatch.setattr(cli, verifier, lambda f, g: FailedReport())
    argv = ["sweep", "--field", "F9", "--count", "2", "--mode", mode, "--max-degree", "2", "--seed", "3"]
    assert cli.main(argv) == cli.EXIT_VIOLATION
    monkeypatch.setattr(cli, verifier, real)
    for words in reproducers(capsys, 2):
        assert words[:4] == ["reciprocity", command, "--field", "F9"]
        assert words[4] == "-f" and words[6] == "-g"
        assert cli.main(words[1:]) == cli.EXIT_OK
        assert "verified: True" in capsys.readouterr().out


def test_an_instance_that_fails_both_laws_reruns_the_first_in_table_order(monkeypatch, capsys):
    """With both laws failed, the reproducer names verify-wrl, the first law of the table; unpatched, it verifies."""
    for verifier in ("verify_wrl", "verify_residue_theorem"):
        monkeypatch.setattr(cli, verifier, lambda f, g: FailedReport())
    argv = ["sweep", "--field", "F9", "--count", "2", "--mode", "all", "--max-degree", "2", "--seed", "3"]
    assert cli.main(argv) == cli.EXIT_VIOLATION
    monkeypatch.undo()
    for words in reproducers(capsys, 2):
        assert words[:4] == ["reciprocity", "verify-wrl", "--field", "F9"]
        assert cli.main(words[1:]) == cli.EXIT_OK
        assert "verified: True" in capsys.readouterr().out


@pytest.mark.parametrize("mode, verifier, command", [
    ("wrl", "verify_wrl", "verify-wrl"),
    ("residues", "verify_residue_theorem", "verify-residues"),
])
def test_a_sweep_over_q_reproduces_with_declared_factors(monkeypatch, capsys, mode, verifier, command):
    """Over Q the reproducer gives the instance's factors with --factored, the only form that factors again."""
    real = getattr(cli, verifier)
    monkeypatch.setattr(cli, verifier, lambda f, g: FailedReport())
    argv = ["sweep", "--field", "Q", "--count", "3", "--mode", mode, "--seed", "3"]
    assert cli.main(argv) == cli.EXIT_VIOLATION
    monkeypatch.setattr(cli, verifier, real)
    for words in reproducers(capsys, 3):
        assert words[:5] == ["reciprocity", command, "--field", "Q", "--factored"]
        assert words[5] == "-f" and words[7] == "-g"
        assert cli.main(words[1:]) == cli.EXIT_OK
        assert "verified: True" in capsys.readouterr().out


def test_a_divisor_of_nonzero_degree_is_a_failed_instance(monkeypatch, capsys):
    """The degree check fails its instance and prints its reproducer, the sweep that ends at it; it raises nothing."""
    monkeypatch.setattr(curve.Divisor, "degree", property(lambda self: 1))
    argv = ["sweep", "--field", "F7", "--count", "2", "--mode", "wrl", "--max-degree", "2", "--seed", "4"]
    assert cli.main([*argv, "--json"]) == cli.EXIT_VIOLATION
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert [(r["divisor_degree_zero"], r["wrl"]) for r in failures] == [(False, True)] * 2
    assert cli.main(argv) == cli.EXIT_VIOLATION
    commands = reproducers(capsys, 2)
    for index, words in enumerate(commands):
        assert words == ["reciprocity", "sweep", "--field", "F7", "--seed", "4", "--count", str(index + 1),
                         "--max-degree", "2", "--mode", "wrl"]
    # rerun, the command fails again, and its last instance is the one that failed
    assert cli.main([*commands[1][1:], "--json"]) == cli.EXIT_VIOLATION
    assert json.loads(capsys.readouterr().out)["failures"][-1] == failures[1]


@pytest.mark.parametrize("failing, digest", [
    ((), "df70ce2628329511e16bf5d8461e4ab082d6432814a10df3fd71557d446b40f6"),
    (("verify_wrl",), "5f38fa8e9baab2b245a1e31b75a6ac5cb3c3da0e37be84a475577d90370b8ec9"),
    (("verify_residue_theorem",), "68f52f9063a81cc2c3ec7c023b771334211eeb49bbd69bd372c6ea90b1e08e9c"),
    (("verify_wrl", "verify_residue_theorem"), "a2c1c5a4ca037f0a79a3cb31ba637484f588df8ba4997019e00a287084542255"),
], ids=["none", "wrl", "residues", "both"])
def test_sweep_output_is_pinned(monkeypatch, capsys, failing, digest):
    """The digest of every sweep's exit code, text and JSON at seeds 0-3 over Q, F7 and F9 in each mode.

    With a verifier forced to fail, the output holds each failed instance's
    dict, its key order included, and its FAILED reproducer line.
    """
    for name in failing:
        monkeypatch.setattr(cli, name, lambda f, g: FailedReport())
    h = hashlib.sha256()
    for field, seed, mode, json_flag in itertools.product(["Q", "F7", "F9"], range(4), ["wrl", "residues", "all"],
                                                          [[], ["--json"]]):
        argv = ["sweep", "--field", field, "--seed", str(seed), "--count", "6", "--mode", mode, *json_flag]
        code = cli.main(argv)
        h.update(json.dumps([argv, code, capsys.readouterr().out]).encode() + b"\n")
    assert h.hexdigest() == digest


@pytest.mark.parametrize("field", ["Q", "F7", "F9"])
def test_the_default_sweep_passes(capsys, field):
    """Over Q the instances come from declared factors, so every one of them factors."""
    assert cli.main(["sweep", "--field", field, "--count", "20"]) == cli.EXIT_OK
    assert "20/20 passed" in capsys.readouterr().out


def test_finite_field_sweep_instances_are_the_random_polynomials(capsys):
    """Over finite fields the instance texts of a seed are the random polynomials they have always been."""
    want = {
        "F7": ["(4*x^4 + 4*x^3 + 6*x^2 + 4*x + 1)/(x + 5)", "(2*x^2 + 5*x + 6)/(x^3 + 6*x^2 + 3*x + 2)"],
        "F9:u^2+1": ["(u + 1)*x^6 + u*x^5 + 2*x^4 + (u + 1)*x^3 + (2*u + 2)*x^2 + (2*u + 1)*x + 1",
                     "((u + 1)*x)/(x^4 + (2*u + 2)*x^3 + 2*x^2 + (u + 1)*x + u + 2)"],
    }
    for spec, texts in want.items():
        out = cli._sweep_instance((spec, 0, 0, "wrl", 5))
        assert [out["f"], out["g"], out["factored"]] == [*texts, False]


@pytest.mark.parametrize("option, value, message", [
    ("--count", "0", "--count 0 is out of range"),
    ("--count", "-1", "--count -1 is out of range"),
    ("--count", str(cli.SWEEP_BUDGET + 1), f"--count {cli.SWEEP_BUDGET + 1} is out of range"),
    ("--max-degree", "-1", "--max-degree -1 is out of range"),
    ("--max-degree", "-3", "--max-degree -3 is out of range"),
    ("--max-degree", str(DEGREE_BUDGET - 1), f"--max-degree {DEGREE_BUDGET - 1} is out of range"),
])
def test_sweep_refuses_out_of_range_sizes_before_any_instance(monkeypatch, capsys, option, value, message):
    monkeypatch.setattr(cli, "_sweep_instance", raising(AssertionError("an instance ran")))
    assert cli.main(["sweep", "--field", "F7", option, value]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")


@pytest.mark.parametrize("count, max_degree", [(1, DEGREE_BUDGET - 2), (cli.SWEEP_BUDGET, 0)])
def test_sweep_takes_the_boundary_sizes(monkeypatch, capsys, count, max_degree):
    """The largest sizes are accepted; the instances are stubbed, so none of them runs."""
    payloads = []
    monkeypatch.setattr(cli, "_sweep_instance", lambda p: payloads.append(p) or {"index": p[2], "ok": True})
    argv = ["sweep", "--field", "F7", "--count", str(count), "--max-degree", str(max_degree)]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(payloads) == count and {p[4] for p in payloads} == {max_degree}


CC_TRUNCATION = ["symbol-cc", "--ring", "F7[e,d]/(e^2,d^2)", "-g", "1 + d*z^-5"]


@pytest.mark.parametrize("f, prec, known", [
    ("1 + O(z^3)", [], 3),
    ("1/(1-e*z^5)", ["--prec", "3"], 3),
    ("1/(1-e*z^5)", ["--prec", "5"], 5),
    ("1 + e*z^5 + O(z^6)", [], 6),
])
def test_a_truncated_symbol_argument_is_refused(capsys, f, prec, known):
    """The double product reads f to O(z^21) against the pole of g; less is an input error, not a value."""
    assert cli.main([*CC_TRUNCATION, "-f", f, *prec]) == cli.EXIT_INPUT
    assert f"f is known only to O(z^{known}); the symbol reads it to O(z^21)" in capsys.readouterr().err


def test_an_exact_symbol_argument_reads_every_factor(capsys):
    assert cli.main([*CC_TRUNCATION, "-f", "1 + e*z^5"]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == "1 + 2*e*d"


@pytest.mark.parametrize("f", ["1 + e*z^-1", "1 + e*z^-1 + O(z^14)"])
def test_a_symbol_argument_known_past_its_own_peels_is_read(capsys, f):
    """The bound is 3^2 * 1 + 1 = 10; the peel of e*z^-1 lowers O(z^14) by 3, to O(z^11)."""
    assert cli.main(["symbol-cc", "--ring", "F2[e]/(e^4)", "-f", f, "-g", "1 + e*z^-1"]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == "1"


def test_a_symbol_argument_its_own_peels_leave_short_names_both_precisions(capsys):
    argv = ["symbol-cc", "--ring", "F2[e]/(e^4)", "-f", "1 + e*z^-1 + O(z^12)", "-g", "1 + e*z^-1"]
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "not enough precision to factorize to O(z^10): the negative peels leave O(z^9)" in err


def test_the_default_tate_window_is_the_least_one_taken(capsys):
    """max pole + max degree: 3 + 3 for z^-3 + 1 against z^3; one less is refused."""
    argv = ["tate-residue", "--field", "Q", "-f", "z^-3+1", "-g", "z^3", "--json"]
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"value": "3", "window": 6}
    assert cli.main([*argv, "--window", "5"]) == cli.EXIT_INPUT
    assert "window 5 is below the required bound 6" in capsys.readouterr().err
