import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import reciprocity
from reciprocity import cli, curve, factor, fields, parsing
from reciprocity.artinian import DIMENSION_BUDGET, ArtinianAlgebra
from reciprocity.corpus import random_rational_pair
from reciprocity.curve import RationalFunction
from reciprocity.errors import DomainError, ExpressionError, FactorError, ReciprocityError
from reciprocity.fields import PRIME_TEST_BOUND, QQ, ExtensionField, find_irreducible, is_prime
from reciprocity.laurent import DEFAULT_PRECISION, PEEL_BUDGET, PRECISION_BUDGET, LaurentSeries
from reciprocity.parsing import (
    parse_factored_rational,
    parse_field_spec,
    parse_rational,
    parse_ring_spec,
    parse_series,
)
from reciprocity.poly import Polynomial
from reciprocity.symbols import WINDOW_BUDGET, tate_residue
from support import loop_tokenize, random_laurent_polynomial, rational_x, tree_parse

FIELDS = ["Q", "F7", "F9:u^2+1"]
RINGS = FIELDS + ["F7[e,d]/(e^3,d^2)"]


@pytest.mark.parametrize("spec", FIELDS)
def test_rational_round_trip(spec):
    field = parse_field_spec(spec)
    rng = random.Random(f"rational:{spec}")
    for _ in range(25):
        for f in random_rational_pair(rng, field, 4):
            assert parse_rational(str(f), field) == f


@pytest.mark.parametrize("spec", RINGS)
def test_series_round_trip(spec):
    ring = parse_ring_spec(spec)
    rng = random.Random(f"series:{spec}")
    for i in range(25):
        s = random_laurent_polynomial(rng, ring, -3, 4)
        # every other series is truncated, so its text ends in + O(z^N)
        if i % 2:
            s = s.truncate(rng.randint(-2, 6))
            assert "O(z^" in str(s)
        assert parse_series(str(s), ring) == s


def test_precedence():
    x = rational_x(QQ)
    assert parse_rational("-x^2", QQ) == -(x**2)
    assert parse_rational("2^-1*3", QQ) == RationalFunction.constant(QQ, 3) / 2
    assert parse_rational("x^(-2)", QQ) == x**-2
    assert parse_rational("1/x/x", QQ) == x**-2 != parse_rational("1/(x/x)", QQ)
    z = LaurentSeries(QQ, {1: 1})
    assert parse_series("-z^2 + O(z^5)", QQ) == LaurentSeries(QQ, {2: -1}, 5)
    assert parse_series("z^-1*z", QQ) == z * z.inverse()


def test_field_specs():
    assert parse_field_spec("Q") is QQ
    assert parse_field_spec("F9:u^2+1") == ExtensionField(3, [1, 0, 1])
    assert parse_field_spec("F256") == ExtensionField(2, find_irreducible(2, 8))


def test_find_irreducible_hands_out_copies():
    first = find_irreducible(2, 8)
    first.append(5)
    assert find_irreducible(2, 8) == first[:-1]


@pytest.mark.parametrize("spec", ["F6", "F1", "F9:u^3+1", "F7:u^2+1", "G5", "F9:x^2+1"])
def test_bad_field_specs(spec):
    with pytest.raises(ExpressionError):
        parse_field_spec(spec)


@pytest.mark.parametrize("spec, message", [
    ("F1_0_1", "unknown field spec 'F1_0_1'"),
    ("F\u0667", "unknown field spec 'F\u0667'"),
    ("F+7", "unknown field spec 'F+7'"),
    ("F7_0", "unknown field spec 'F7_0'"),
    ("F7[e]/(e^\u0663)", "bad exponent in relation 'e^\u0663'"),
], ids=["underscores", "arabic-indic-seven", "sign", "underscore-zero", "arabic-indic-order"])
def test_spec_integers_are_ascii_digits(spec, message):
    """int() reads all five; the expression tokenizer refuses the same characters (x+\u0663)."""
    parse = parse_ring_spec if "[" in spec else parse_field_spec
    with pytest.raises(ExpressionError) as info:
        parse(spec)
    assert str(info.value) == message


def test_spec_integers_may_have_spaces_around_them():
    assert parse_field_spec("F 7 ") == parse_field_spec("F7")
    assert parse_ring_spec("F7[e]/(e^ 3 )").dimension == 3


@pytest.mark.parametrize("text", ["2x", "x^y", "x^2^3", "1.5"])
def test_bad_expressions(text):
    with pytest.raises(ExpressionError):
        parse_rational(text, QQ)


def syntax_words(text):
    """(kind, word, column) of each word the syntax pass reads, the end of the input last."""
    words = parsing._words(text) + [""]
    return [(parsing._KIND.get(w[:1], "NAME"), w, parsing._column(text, i)) for i, w in enumerate(words)]


def tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ExpressionError as exc:
        return str(exc), exc.column


# ASCII grammar characters, non-ASCII letters, numerals that are not digits
# ("½"), digits that are not ASCII ("²", "٣"), Unicode spaces and strays
TOKEN_ALPHABET = "xyz_e1209 +-*/^()\t\néß½²٣\u00a0\u2003#.$"


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=TOKEN_ALPHABET, max_size=16))
def test_tokenize_matches_the_earlier_loop(text):
    """Same kinds, texts and columns, except that a non-ASCII digit the loop read as an INT is refused."""
    got, want = tokens_or_error(syntax_words, text), tokens_or_error(loop_tokenize, text)
    if got != want:
        message, column = got
        ch = text[column - 1]
        assert ch.isdigit() and not ch.isascii(), (text, got, want)
        assert message == f"unexpected character {ch!r} (line 1, column {column})"


@pytest.mark.parametrize("text, column", [("x^²", 3), ("x+٣", 3), ("1٣", 2), ("²x", 1)])
def test_non_ascii_digits_are_refused_with_their_column(text, column, capsys):
    with pytest.raises(ExpressionError, match="unexpected character") as exc:
        parse_rational(text, QQ)
    assert exc.value.column == column
    assert cli.main(["residue", "--field", "Q", f"-f={text}", "-g=x"]) == cli.EXIT_INPUT
    assert f"column {column}" in capsys.readouterr().err
    # inside a name a non-ASCII digit is a name character, as str.isalnum() says
    assert parsing._words("x٣+y²") == ["x٣", "+", "y²"]


DEEP = {
    "parentheses": "(" * 300 + "x" + ")" * 300,
    "minus": "-" * 3000 + "x",
}
FLAT_SUM = "+".join(["x"] * 3000)


@pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
def test_deep_nesting_is_an_input_error(text, capsys):
    assert cli.main(["residue", "--field", "Q", f"-f={text}", "-g=x"]) == cli.EXIT_INPUT
    assert "nests too deeply" in capsys.readouterr().err
    for parse in (parse_rational, parse_series):
        with pytest.raises(ExpressionError, match="nests too deeply"):
            parse(text.replace("x", "z") if parse is parse_series else text, QQ)


@pytest.mark.parametrize("kind", ["parentheses", "minus"])
def test_nesting_at_the_budget_parses_and_one_level_more_is_refused(kind, capsys):
    """The budget is counted on the words, the same under every parser and the --factored command."""
    def nest(text, n):
        return "(" * n + text + ")" * n if kind == "parentheses" else "-" * n + text

    x = rational_x(QQ)
    # a sum, so that --factored reads one declared factor
    x1 = "x+1" if kind == "parentheses" else "(x+1)"
    for n in (parsing.NESTING_BUDGET, parsing.NESTING_BUDGET + 1):
        sign = -1 if kind == "minus" and n % 2 else 1
        refused = n > parsing.NESTING_BUDGET
        for parse, text, want in ((parse_rational, nest("x", n), x * sign),
                                  (parse_series, nest("z", n), LaurentSeries(QQ, {1: sign})),
                                  (parse_factored_rational, nest(x1, n), (x + 1) * sign)):
            if refused:
                with pytest.raises(ExpressionError, match="nests too deeply"):
                    parse(text, QQ)
            else:
                assert parse(text, QQ) == want
        code = cli.main(["residue", "--factored", "--field", "Q", f"-f={nest(x1, n)}", "-g=x"])
        assert code == (cli.EXIT_INPUT if refused else 0)
        assert ("nests too deeply" in capsys.readouterr().err) == refused


def test_only_unary_signs_and_open_parentheses_count():
    """A sign after an operand is a binary operator, and a sign in front of each group nests no call."""
    n, x = parsing.NESTING_BUDGET, rational_x(QQ)
    assert parse_rational("x" + "-" * (n + 1) + "1", QQ) == x - 1
    assert parse_rational("-(" * n + "x" + ")" * n, QQ) == x
    assert parse_rational("+".join(["(x)"] * (n + 1)), QQ) == x * (n + 1)


def test_a_long_flat_sum_is_added_up(capsys):
    """A sum is read in a loop, so its length does not nest."""
    assert parse_rational(FLAT_SUM, QQ) == rational_x(QQ) * 3000
    assert parse_series(FLAT_SUM.replace("x", "z"), QQ) == LaurentSeries(QQ, {1: 3000})
    assert cli.main(["residue", "--field", "Q", f"-f={FLAT_SUM}", "-g=x"]) == 0
    out = capsys.readouterr().out
    assert "f=3000*x, g=x" in out and "verified: True" in out


def test_a_long_flat_factor_is_added_up(capsys):
    assert cli.main(["residue", "--factored", "--field", "Q", "-f=" + FLAT_SUM, "-g=x"]) == 0
    out = capsys.readouterr().out
    assert "f=3000*x, g=x" in out and "verified: True" in out
    f = parse_factored_rational(FLAT_SUM, QQ)
    assert f == rational_x(QQ) * 3000 and [str(p) for p, _ in f.factors] == ["x"]


FACTORED_OVER_BUDGET = {
    "repeated": ("(x+1)^40*(x+1)^40", "a power of degree 80"),
    "flat-1024": ("*".join(["(x+1)"] * 1024), "a power of degree 1024"),
    "numerator": ("(x+1)^32*(x+2)^33", "a numerator of degree 65"),
    "denominator": ("x/((x+1)^32*(x+2)^33)", "a denominator of degree 65"),
}


@pytest.mark.parametrize("text, message", FACTORED_OVER_BUDGET.values(), ids=FACTORED_OVER_BUDGET.keys())
def test_a_factored_product_past_the_degree_budget_is_refused_before_it_is_built(text, message, monkeypatch, capsys):
    monkeypatch.setattr(RationalFunction, "from_factored", lambda *args: pytest.fail("the product was built"))
    with pytest.raises(DomainError, match=f"^{message} is above the budget: degree <= {factor.DEGREE_BUDGET}$"):
        parse_factored_rational(text, QQ)
    assert cli.main(["verify-wrl", "--field", "Q", "--factored", f"-f={text}", "-g=x"]) == cli.EXIT_INPUT
    assert message in capsys.readouterr().err


def test_a_factored_product_at_the_degree_budget_parses():
    f = parse_factored_rational("(x+1)^32*(x+2)^32", QQ)
    assert (f.num.degree, f.den.degree) == (64, 0)
    assert [(str(p), e) for p, e in f.factors] == [("x + 1", 32), ("x + 2", 32)]


# -- the one-pass parser against a tree parser and evaluators of the tests' own --


def reference_names(ring) -> dict:
    names = {}
    base = ring
    if isinstance(ring, ArtinianAlgebra):
        for i, name in enumerate(ring.names):
            names[name] = ring.generator(i)
        base = ring.base
    if isinstance(base, ExtensionField):
        gen = base.generator()
        if isinstance(ring, ArtinianAlgebra):
            gen = ring.embed_from_below(gen)
        names[base.name] = gen
    return names


def reference_evaluate(node, ring, prec=None):
    """The value of a ``tree_parse`` node with every leaf a RationalFunction (prec None) or a LaurentSeries in z."""
    names = reference_names(ring)

    def leaf(c):
        if prec is None:
            return RationalFunction.constant(ring, c)
        return LaurentSeries.constant(ring, c)

    def walk(node):
        kind = node[0]
        if kind == "num":
            return leaf(node[1])
        if kind == "name":
            if node[1] == ("x" if prec is None else "z"):
                return rational_x(ring) if prec is None else LaurentSeries(ring, {1: 1})
            if node[1] in names:
                return leaf(names[node[1]])
            raise ExpressionError(f"unknown name {node[1]!r}", column=node[2])
        if kind == "neg":
            return -walk(node[1])
        if kind == "^":
            base = walk(node[1])
            return base ** node[2] if prec is None else base.power(node[2], rel_prec=prec)
        if kind == "O":
            return LaurentSeries.zero(ring, node[1])
        left, right = walk(node[1]), walk(node[2])
        if kind == "+":
            return left + right
        if kind == "-":
            return left - right
        if kind == "*":
            return left * right
        return left / right if prec is None else left * right.inverse(rel_prec=prec)

    return walk(node)


def random_expression(rng, leaves, depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    kind = rng.choice("+-*/^n")
    if kind == "^":
        return f"({random_expression(rng, leaves, depth - 1)})^{rng.randint(-2, 2)}"
    if kind == "n":
        return f"-({random_expression(rng, leaves, depth - 1)})"
    left, right = (random_expression(rng, leaves, depth - 1) for _ in range(2))
    return f"({left}) {kind} ({right})"


def outcome(fn, *args):
    """(str, value) of fn(*args), or what it raises: the type, and the message and column of a parse refusal."""
    try:
        value = fn(*args)
    except (ExpressionError, DomainError) as exc:
        return type(exc), str(exc), getattr(exc, "column", None)
    except (ReciprocityError, ArithmeticError, ValueError) as exc:
        return type(exc)
    return str(value), value


EVAL_FIELDS = ["Q", "F7", "F9:u^2+1", "F256", "F18446744073709551629"]
EVAL_RINGS = EVAL_FIELDS + ["F7[e,d]/(e^3,d^2)", "Q[e]/(e^2)", "Q[e1,e2]/(e1^2,e2^2)"]
CONSTANTS = ["0", "1", "2", "3", "6"]


def generator_leaves(ring) -> list:
    """Each generator name of ring, and over an Artinian ring a monomial and a division by a generator."""
    names = list(ring.names) if isinstance(ring, ArtinianAlgebra) else []
    leaves = names + [f"1/{names[0]}"] if names else []
    if len(names) > 1:
        leaves.append(f"{names[0]}^2*{names[1]}")
    base = ring.base if isinstance(ring, ArtinianAlgebra) else ring
    return leaves + (["u"] if isinstance(base, ExtensionField) else [])


def reference_factored(text: str, field) -> RationalFunction:
    """parse_factored_rational by a walk of ``tree_parse`` from the top: `*`, `/`, `^` and unary minus
    combine factors, and every other subtree is evaluated by ``reference_evaluate`` as one declared factor."""
    constant = [field.one()]
    factors = {}

    def walk(node, power: int):
        kind = node[0]
        if kind == "*" or kind == "/":
            walk(node[1], power)
            walk(node[2], power if kind == "*" else -power)
        elif kind == "^":
            walk(node[1], power * node[2])
        elif kind == "neg":
            constant[0] = constant[0] * field.from_int(-1) ** power
            walk(node[1], power)
        elif kind == "num":
            constant[0] = constant[0] * field.from_int(node[1]) ** power
        else:
            value = reference_evaluate(node, field)
            if value.den.degree != 0:
                raise FactorError("factored input must be a product of polynomial factors")
            poly = value.num
            if poly.is_zero():
                raise FactorError("zero factor in factored input")
            constant[0] = constant[0] * poly.leading_coefficient() ** power
            if poly.degree == 0:
                return
            if poly.degree * abs(power) > factor.DEGREE_BUDGET:
                raise DomainError(f"a power of degree {poly.degree * abs(power)} is above the budget: "
                                  f"degree <= {factor.DEGREE_BUDGET}")
            poly = poly.monic()
            factors[poly] = factors.get(poly, 0) + power

    walk(tree_parse(text), 1)
    return RationalFunction.from_factored(field, constant[0], [(p, e) for p, e in factors.items() if e])


@pytest.mark.parametrize("spec", EVAL_FIELDS)
def test_rational_evaluator_matches_reference(spec):
    field = parse_field_spec(spec)
    leaves = CONSTANTS + ["x", "x", "x", "x^-2", "2/x^2", "y"] + generator_leaves(field)
    rng = random.Random(f"evaluator:rational:{spec}")
    for _ in range(150):
        text = random_expression(rng, leaves, 4)
        reference = outcome(lambda: reference_evaluate(tree_parse(text), field))
        assert outcome(parse_rational, text, field) == reference, text
    for _ in range(150):
        text = random_expression(rng, leaves, 3)
        got = outcome(parse_factored_rational, text, field)
        want = outcome(reference_factored, text, field)
        assert got == want, text
        if isinstance(got, tuple) and len(got) == 2:
            assert got[1].factors == want[1].factors, text


@pytest.mark.parametrize("spec", EVAL_RINGS)
def test_series_evaluator_matches_reference(spec):
    ring = parse_ring_spec(spec)
    leaves = CONSTANTS + generator_leaves(ring) + [
        "z", "z", "z", "z^-3", "2/z^2", "y", "O(z^2)", "O(z^-1)", "(1 + z)", "(z^-1 + 2 + O(z^3))"]
    rng = random.Random(f"evaluator:series:{spec}")
    for _ in range(200):
        text = random_expression(rng, leaves, 4)
        reference = outcome(lambda: reference_evaluate(tree_parse(text, series_var="z"), ring, 6))
        assert outcome(parse_series, text, ring, 6) == reference, text


@pytest.mark.parametrize("text", [
    "y + )", "1/0 +", "(x + y", "y^2^3", "1/0 * x^100", "-y)", "(1/0) - 1 2", "x / (y - y",
], ids=lambda text: text)
def test_a_syntax_error_comes_before_an_error_of_a_value(text):
    """Each text also has an unknown name or a division by zero before its syntax error."""
    want = outcome(tree_parse, text)
    assert want[0] in (ExpressionError, DomainError)
    assert outcome(parse_rational, text, QQ) == want
    assert outcome(parse_factored_rational, text, QQ) == want
    assert outcome(parse_series, text.replace("x", "z"), QQ) == outcome(tree_parse, text.replace("x", "z"), "z")


def test_rational_pins_over_f7():
    F7 = parse_field_spec("F7")
    x = Polynomial.x(F7)
    assert parse_rational("x + 1/x", F7) == RationalFunction(F7, x**2 + 1, x)
    assert parse_rational("(x^2 - 1)/(x - 1)", F7) == RationalFunction(F7, x + 1)
    assert parse_rational("x/2", F7) == RationalFunction(F7, x * 4)
    assert [str(parse_rational(t, F7)) for t in ("x + 1/x", "(x^2 - 1)/(x - 1)", "x/2")] == [
        "(x^2 + 1)/x", "x + 1", "4*x"]


def test_prime_power_matches_trial_division():
    def trial(q):
        p = next(p for p in range(2, q + 1) if q % p == 0)
        d = 0
        while q % p == 0:
            q //= p
            d += 1
        return (p, d) if q == 1 and d > 1 else (None, None)

    for q in range(2, 5000):
        assert parsing._prime_power(q) == trial(q), q
    assert parsing._prime_power(2**127 - 1) == (None, None)  # a prime: d = 1
    assert parsing._prime_power(3**200) == (3, 200)
    assert parsing._prime_power((2**61 - 1) ** 6) == (2**61 - 1, 6)
    assert parsing._prime_power((2**61 - 1) ** 6 * 2) == (None, None)
    for n in (10**40 + 1, 2**1000 - 1, 3**500 + 5):
        for d in (2, 3, 5, 7, 97, 1009):
            root = parsing._integer_root(n, d)
            assert root**d <= n < (root + 1) ** d, (n, d)


def test_large_field_specs_answer_at_once():
    # trial division would take minutes on both: the smallest prime factor is 2^31 - 1
    src = os.path.dirname(os.path.dirname(reciprocity.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    p = 2**31 - 1
    build = f"from reciprocity.parsing import parse_field_spec; print(parse_field_spec('F{p * p}').order)"
    proc = subprocess.run([sys.executable, "-c", build], capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == p * p
    q = p * (10**12 + 39)  # a product of two primes, below PRIME_TEST_BOUND
    assert is_prime(10**12 + 39) and q < PRIME_TEST_BOUND
    code, err = run_cli_alone(["verify-wrl", "--field", f"F{q}", "-f", "x", "-g", "x+1"])
    assert code == 2
    assert "not a prime power" in err


def run_cli_alone(argv):
    """(exit code, stderr) of cli.main(argv) in a fresh interpreter, which must answer within 10 s."""
    src = os.path.dirname(os.path.dirname(reciprocity.__file__))
    run = f"import sys; from reciprocity import cli; sys.exit(cli.main({argv!r}))"
    proc = subprocess.run([sys.executable, "-c", run], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=10)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("q, message", [
    (318665857834031151167461, "not a prime power"),  # psi_12: passes the first 12 prime bases
    (PRIME_TEST_BOUND, "too large"),  # psi_13
    ((2**31 - 1) * (2**61 - 1), "too large"),
    (10**4299 + 7, "too large"),  # the most digits int() takes
], ids=["psi12", "psi13", "above-bound", "4300-digits"])
def test_field_specs_where_miller_rabin_is_not_exact_fail_fast(q, message):
    code, err = run_cli_alone(["verify-wrl", "--field", f"F{q}", "-f", "x+1", "-g", "x+2"])
    assert code == 2
    assert message in err


@pytest.mark.parametrize("field, f, message", [
    ("F7", "x^100000000", "exponent 100000000 is above the budget"),
    ("F101", "x^2000+1", "exponent 2000 is above the budget"),
    ("Q", "x^2 - 2*10^24", "--factored"),
    ("Q", "((x+2)^64)^64+1", "a power of degree 4096 is above the budget"),
    ("F101", "((x+2)^64)^64+1", "a power of degree 4096 is above the budget"),
], ids=["huge-power", "degree-2000", "huge-constant-over-Q", "nested-power-over-Q", "nested-power-over-F101"])
def test_tiny_inputs_over_budget_fail_fast(field, f, message):
    code, err = run_cli_alone(["verify-wrl", "--field", field, "-f", f, "-g", "x+2"])
    assert code == 2
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (["verify-wrl", "--field", "Q", "--factored", "-f", "((x+2)^64)^64", "-g", "x+2"],
     "a power of degree 4096 is above the budget"),
    (["tate-residue", "--field", "Q", "-f", "z", "-g", "z^-1", "--window", "1000000"],
     "window 1000000 is above the budget: window <= 256"),
    (["tate-residue", "--field", "F7", "-f", "(z^8)^32", "-g", "z^-1"],
     "window 257 is above the budget"),
    (["symbol-tame", "--field", "Q", "-f", "1/(1-z)", "-g", "z", "--prec", "1000000000"],
     "precision 1000000000 is above the budget: prec <= 512"),
    (["verify-wrl", "--field", "F5", "--local-data", "{data}", "--prec", "513"],
     "precision 513 is above the budget"),
    (["symbol-tame", "--field", "Q", "-f", "1/(1+z)", "-g", "z", "--prec", "0"],
     "precision 0 is out of range: 1 <= prec <= 512"),
    (["symbol-cc", "--ring", "F7[e]/(e^2)", "-f", "1/(1+e*z)", "-g", "1+e*z^-1", "--prec", "-3"],
     "precision -3 is out of range"),
    (["cocycle-gf", "--field", "Q", "-f", "1/(1+z)", "-g", "z", "-S", "[[0,1],[0,0]]", "-T", "[[0,0],[1,0]]",
      "--prec", "-4"],
     "precision -4 is out of range"),
    (["verify-wrl", "--field", "F5", "--local-data", "{data}", "--prec", "0"],
     "precision 0 is out of range"),
    (["sweep", "--field", "F7", "--count", "1", "--jobs", "0"], "--jobs 0 is out of range: jobs >= 1"),
    (["sweep", "--field", "F7", "--count", "1", "--jobs", "-3"], "--jobs -3 is out of range"),
    (["symbol-cc", "--ring", "F7[e]/(e^64)", "-f", "1+e*z^-16+e*z^-15", "-g", "1+e*z"],
     "negative peeling takes more than 1000000 base products: the budget is products <= 1000000"),
    (["symbol-cc", "--ring", "Q[e,d]/(e^8,d^8)", "-f", "1+(e+d)*z^-16+(e+2*d)*z^-15", "-g", "1+d*z^3"],
     "negative peeling takes more than 1000000 base products"),
    (["symbol-cc", "--ring", "Q[e]/(e^64)", "-f", "1+e*z^-64+e*z^-63", "-g", "1+e*z"],
     "negative peeling takes more than 1000000 base products"),
    (["symbol-cc", "--ring", "Q[e]/(e^64)", "-f", "1+e*z^-9+e*z^-8", "-g", "1+e*z"],
     "negative peeling takes more than 1000000 base products"),
    (["symbol-cc", "--ring", "F101[e]/(e^64)", "-f", "1+e*z^-30+e*z^-29+e*z^-1", "-g", "1+e*z"],
     "negative peeling takes more than 1000000 base products"),
    (["symbol-cc", "--ring", "Q[e,d]/(e^8,d^8)", "-f", "1+(e+d)/(1-z)", "-g", "1+e*z^-2", "--prec", "512"],
     "positive peeling takes more than 1000000 base products"),
    (["symbol-cc", "--ring", "Q[e,d]/(e^60,d^60)", "-f", "1", "-g", "1"],
     "ring dimension 3600 or more is above the budget: dimension <= 64"),
    (["symbol-cc", "--ring", "F7[e,d,f]/(e^20,d^20,f^20)", "-f", "1", "-g", "1"],
     "ring dimension 400 or more is above the budget"),
    (["symbol-cc", "--ring", f"F7[e]/(e^{10**100})", "-f", "1", "-g", "1"],
     f"ring dimension {10**100} or more is above the budget"),
], ids=["factored-nested-power", "window", "default-window", "series-prec", "local-data-prec",
        "series-prec-zero", "ring-series-prec-negative", "gf-prec-negative", "local-data-prec-zero",
        "jobs-zero", "jobs-negative", "peels-two-terms", "peels-two-generators", "peels-far-poles",
        "peels-over-Q", "peels-three-terms", "peels-positive",
        "ring-dimension", "ring-three-generators", "ring-order-googol"])
def test_commands_over_budget_fail_fast(argv, message, tmp_path):
    data = tmp_path / "local.json"
    data.write_text('{"entries": [{"f": "1/(1-z)", "g": "z"}]}')
    code, err = run_cli_alone([a.format(data=data) for a in argv])
    assert code == 2
    assert message in err


@pytest.mark.parametrize("ring, f, g, message", [
    ("F7[z]/(z^2)", "1+z", "1+z^-1", "generator name 'z' is reserved for the series variable"),
    ("F7[e,O]/(e^2,O^2)", "1+O*z", "1+O*z^-1", "generator name 'O' is reserved for the precision marker"),
    ("F9[u]/(u^2)", "1+u*z", "1+u*z^-1", "generator name 'u' is reserved for the generator of F9"),
], ids=["z", "O", "u-over-F9"])
def test_a_generator_may_not_take_a_reserved_name(ring, f, g, message, capsys):
    assert cli.main(["symbol-cc", "--ring", ring, "-f", f, "-g", g]) == cli.EXIT_INPUT
    assert message in capsys.readouterr().err
    with pytest.raises(ExpressionError, match=message):
        parse_ring_spec(ring)
    # u is free over a prime field
    assert parse_ring_spec("F7[u]/(u^2)").names == ("u",)


def test_precision_one_is_accepted(capsys):
    assert cli.main(["symbol-tame", "--field", "Q", "-f", "1/(1+z)", "-g", "z", "--prec", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_peel_budget_boundary_is_accepted(capsys):
    """142 negative peels of f form about 7.7e5 of the 10^6 base products the budget allows."""
    assert cli.main(["symbol-cc", "--ring", "Q[e]/(e^32)", "-f", "1+e*z^5", "-g", "1+e*z^-5+e*z^-4"]) == 0
    assert capsys.readouterr().out.strip() == "1 - 5*e^2 + 10*e^4 - 10*e^6 + 5*e^8 + e^9 - e^10"


@pytest.mark.parametrize("argv, value", [
    (["--ring", "F7[e]/(e^16)", "-f", "1+e*z^-1+e*z^-2", "-g", "1+e*z+e*z^2"],
     "1 + 3*e^2 + 5*e^3 + 2*e^4 + 2*e^5 + 3*e^6 + 2*e^7 + 5*e^8 + 4*e^10 + 4*e^11 + 5*e^12 + 4*e^13 + 2*e^15"),
    (["--ring", "F7[e,d]/(e^8,d^8)", "-f", "1+e*z^-1+d*z^-2", "-g", "1+d*z^3"],
     "1 + 4*e*d^2 + e^3*d + 6*d^5 + 2*e^2*d^4 + e^4*d^3 + 6*e*d^7 + e^6*d^2 + 6*e^3*d^6 + 6*e^5*d^5 + 5*e^7*d^4"
     " + e^6*d^7"),
    (["--ring", "Q[e]/(e^14)", "-f", "1+e*z^-5+e*z^-4", "-g", "1+e*z^5"],
     "1 + 5*e^2 + 15*e^4 + 35*e^6 + 70*e^8 - e^9 + 126*e^10 - 10*e^11 + 210*e^12 - 55*e^13"),
    (["--ring", "F7[e]/(e^16)", "-f", "1+e/(1-z)", "-g", "1+e*z^-1", "--prec", "512"],
     "1 + 6*e^2 + 2*e^3 + 4*e^4 + 4*e^5 + 2*e^6 + 6*e^7 + e^9 + 5*e^10 + 3*e^11 + 3*e^12 + 5*e^13 + e^14"),
], ids=["two-terms", "two-generators", "far-poles", "sparse-positive-peels"])
def test_symbols_of_two_term_poles_are_computed(capsys, argv, value):
    """Each value equals that of a loop that peels the lowest exponent first, run without a budget.  The 225
    positive peels of the last f can form about 9.9e5 base products, where length times ``_mul_add_cost``
    charged them 4.8e6."""
    assert cli.main(["symbol-cc", *argv]) == 0
    assert capsys.readouterr().out.strip() == value


def test_budgets_are_above_every_benchmark_op():
    # local_symbols parses at the default precision, with windows of at most 2*4 + 1,
    # makes at most 16 negative and 8 positive peels and 934 base products per
    # factorization at seeds 1-3, and runs symbol-cc over a ring of dimension 6
    assert DEFAULT_PRECISION <= PRECISION_BUDGET and 9 <= WINDOW_BUDGET and 934 <= PEEL_BUDGET
    assert parse_ring_spec("F7[e,d]/(e^3,d^2)").dimension == 6 <= DIMENSION_BUDGET
    assert parse_series("1/(1-z)", QQ, PRECISION_BUDGET).prec == PRECISION_BUDGET
    f = parse_series("z^-4 + z^4", QQ)
    assert tate_residue(f, f, WINDOW_BUDGET // 8) == 0


@pytest.mark.parametrize("field, f", [("F7", "x^64"), ("F256", "x^32*x^32 + x + 1")],
                         ids=["exponent-64", "degree-64"])
def test_budget_boundaries_are_accepted(field, f):
    code, err = run_cli_alone(["verify-wrl", "--field", field, "-f", f, "-g", "x+2"])
    assert code == 0, err


def test_exponent_budget():
    assert parse_rational("x^64", QQ).num.degree == 64
    assert parse_rational("x^-64", QQ).den.degree == 64
    for text in ("x^65", "x^-65", "(x+1)^(65)", "2^100"):
        with pytest.raises(DomainError, match="above the budget"):
            parse_rational(text, QQ)
    with pytest.raises(DomainError, match="above the budget"):
        parse_factored_rational("(x+1)^100", QQ)


def test_power_degree_budget():
    # each literal is within the budget; the degree of the power decides
    assert parse_rational("((x+2)^8)^8", QQ).num.degree == 64
    assert parse_rational("(1/(x^2+1))^-32", QQ).num.degree == 64
    assert parse_factored_rational("((x+2)^8)^-8", QQ).den.degree == 64
    assert parse_series("((1+z)^8)^8", QQ, 4).coefficient(64) == 1
    # a truncated series keeps its precision, and a negative power inverts to it
    assert parse_series("((1 + z + O(z^4))^8)^9", QQ).prec == 4
    assert parse_series("((1+z)^8)^-9", QQ, 4).prec == 4
    with pytest.raises(DomainError, match="degree 72 is above the budget"):
        parse_series("((1+z)^8)^9", QQ, 4)
    for text in ("((x+2)^8)^9", "(x^2+1)^33", "(1/(x^2+1))^-33", "(x^2/(x+1))^-33"):
        with pytest.raises(DomainError, match="degree .* is above the budget"):
            parse_rational(text, QQ)
    with pytest.raises(DomainError, match="degree 72 is above the budget"):
        parse_factored_rational("((x+2)^8)^-9", QQ)


def test_declared_factors_are_tested_once(monkeypatch):
    calls = []

    def counted(p):
        calls.append(str(p))
        return factor.is_irreducible(p)

    for module in (curve, parsing):
        monkeypatch.setattr(module, "is_irreducible", counted, raising=False)
    field = parse_field_spec("F7")
    f = parse_factored_rational("3*(x^2+1)*(x+3)^-2*(x^2+1)*(x+5)", field)
    assert f.factors is not None
    assert sorted(calls) == ["x + 3", "x + 5", "x^2 + 1"]
    calls.clear()
    with pytest.raises(FactorError, match="x\\^2 \\+ 6 is reducible; split it further"):
        parse_factored_rational("(x^2+6)*(x+1)", field)
    assert calls == ["x^2 + 6"]


def test_exact_series_text_is_read_without_ring_products(monkeypatch):
    """Every operation of a printed exact series stays in the term map: no Artinian product, one series."""
    ring = parse_ring_spec("F7[e,d]/(e^3,d^2)")
    s = random_laurent_polynomial(random.Random("structure"), ring, -3, 4)
    text = str(s)
    assert "e^2*d" in text and "z^-" in text
    calls = []
    mul, from_raw = ArtinianAlgebra._mul, LaurentSeries._from_raw.__func__

    def counting_mul(self, a, b):
        calls.append("_mul")
        return mul(self, a, b)

    def counting_from_raw(cls, *args):
        calls.append("_from_raw")
        return from_raw(cls, *args)

    monkeypatch.setattr(ArtinianAlgebra, "_mul", counting_mul)
    monkeypatch.setattr(LaurentSeries, "_from_raw", classmethod(counting_from_raw))
    assert parse_series(text, ring) == s
    assert calls == ["_from_raw"]


def test_a_prime_field_spec_is_tested_for_primality_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    for module in (fields, parsing):
        monkeypatch.setattr(module, "is_prime", counting)
    for q in (101, 2**31 - 1, 18446744073709551629):
        calls.clear()
        # a spec is built once per process, so each parse here builds it anew
        parsing._field_spec.cache_clear()
        assert parse_field_spec(f"F{q}").order == q
        assert calls.count(q) == 1


@pytest.mark.parametrize("spec", ["Q", "F7", "F2147483647", "F9:u^2+1", "F256", "F7[e,d]/(e^3,d^2)"])
def test_a_spec_is_built_once(spec):
    """Every parse of one spec, with or without surrounding spaces, returns the one value."""
    parse = parse_ring_spec if "[" in spec else parse_field_spec
    assert parse(spec) is parse(spec) is parse(f"  {spec}\t")
    assert parse_ring_spec(spec) is parse_ring_spec(f" {spec} ")


@pytest.mark.parametrize("spec", ["F6", "F4:u^2+1", "F7[z]/(z^2)"])
def test_a_refused_spec_raises_on_every_call(spec):
    parse = parse_ring_spec if "[" in spec else parse_field_spec
    for _ in range(2):
        with pytest.raises((ReciprocityError, ValueError)):
            parse(spec)


def test_the_spec_caches_are_bounded():
    for cache in (parsing._field_spec, parsing._ring_spec):
        assert cache.cache_info().maxsize == 32
    primes = [p for p in range(2, 300) if is_prime(p)]
    for order, p in zip(range(2, 50), primes):
        parse_ring_spec(f"F7[e]/(e^{order})")
        parse_field_spec(f"F{p}")
    for cache in (parsing._field_spec, parsing._ring_spec):
        assert cache.cache_info().currsize == 32
