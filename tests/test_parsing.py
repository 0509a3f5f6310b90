import random

import pytest

from reciprocity import cli
from reciprocity.corpus import random_laurent_polynomial, random_rational_pair
from reciprocity.curve import RationalFunction
from reciprocity.errors import ExpressionError
from reciprocity.fields import QQ, ExtensionField, find_irreducible
from reciprocity.laurent import LaurentSeries
from reciprocity.parsing import parse_field_spec, parse_rational, parse_ring_spec, parse_series

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
    x = RationalFunction.x(QQ)
    assert parse_rational("-x^2", QQ) == -(x**2)
    assert parse_rational("2^-1*3", QQ) == RationalFunction.constant(QQ, 3) / 2
    assert parse_rational("x^(-2)", QQ) == x**-2
    assert parse_rational("1/x/x", QQ) == x**-2 != parse_rational("1/(x/x)", QQ)
    z = LaurentSeries.monomial(QQ, 1)
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


@pytest.mark.parametrize("spec", ["F6", "F1", "F9:u^3+1", "F7:u^2+1", "G5"])
def test_bad_field_specs(spec):
    with pytest.raises(ExpressionError):
        parse_field_spec(spec)


@pytest.mark.parametrize("text", ["2x", "x^y", "x^2^3", "1.5"])
def test_bad_expressions(text):
    with pytest.raises(ExpressionError):
        parse_rational(text, QQ)


DEEP = {
    "parentheses": "(" * 300 + "x" + ")" * 300,
    "sum": "+".join(["x"] * 3000),
    "minus": "-" * 3000 + "x",
}


@pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
def test_deep_nesting_is_an_input_error(text, capsys):
    assert cli.main(["residue", "--field", "Q", f"-f={text}", "-g=x"]) == cli.EXIT_INPUT
    assert "nests too deeply" in capsys.readouterr().err
    for parse in (parse_rational, parse_series):
        with pytest.raises(ExpressionError, match="nests too deeply"):
            parse(text.replace("x", "z") if parse is parse_series else text, QQ)


def test_deep_factored_input_is_an_input_error(capsys):
    argv = ["residue", "--factored", "--field", "Q", "-f=" + DEEP["sum"], "-g=x"]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "nests too deeply" in capsys.readouterr().err
