"""Expression grammar and field/ring spec strings.

Grammar: integers, one variable (`x` for rational functions, `z` for
series), `+ - * /`, `^` with a literal integer exponent e, |e| <= 64
(`factor.DEGREE_BUDGET`), parentheses, and declared generator names.  A
power of a polynomial, rational function or exact series whose degree would
pass the same budget is refused before it is built, so `((x+2)^64)^64` fails
at once.  Series expressions may end in `+ O(z^N)`, which truncates the
precision to N; printing a series emits the same marker, so text output
round-trips.  Series are parsed at a precision of at most
`laurent.PRECISION_BUDGET`.

Syntax: one `re.findall` splits the text into words, and a word that starts
with a character outside the grammar is refused before parsing.  The parser
reads the word list by index in one pass: each grammar method returns the
value of what it read, from an evaluator, and a sum, a product and a run of
signs are each read in a loop, so only parentheses nest.  Before parsing,
text whose parentheses nest more than ``NESTING_BUDGET`` deep, or with a run
of more than that many unary signs, is refused ("nests too deeply"), so the
parser's depth of calls is bounded by the budget.  A syntax error comes before
an error of a value, as if the whole text were read first: a parse that
meets an error of a value reads the text again with no values (``_SYNTAX``)
and raises the first syntax error, if there is one.  A column is computed
from the text only for an error (`_column`), so a name keeps the index of
its word.

Evaluation: a value is a single term (k, m, c) or a term map {(k, m): c},
the sum of c * mono_m * v^k, with v the variable, mono_m the monomial of
index m of an Artinian ring (m is 0 over a field) and c nonzero raw data of
the base field.  An integer or a name is one term, and zero the empty map.
`*` of two single terms is one single term, so a product of factors such as
`3*e^2*d*z^-2` or `98*x^7` folds into one triple.  `+` and `-` stay in the
map, and so do `*` by a single term, `/` by a unit monomial (one term with
m = 0) and `^` of a single term, negative only for a unit monomial; so text
such as a printed series costs no ring product, kernel call or series.  Any
other operation lifts both sides once to the top type, a Polynomial or
RationalFunction for rational input and an exact LaurentSeries for series,
and goes on there: `/` and a negative `^` as RationalFunction arithmetic, or
as series `inverse`/`power` at the parse precision.  Factored input goes
through the same pass, with an evaluator that collects the product
(``_ProductEvaluator``).

Field specs: `Q`, `F5`, `F9:u^2+1` (modulus over F_p in `u`; omitted
modulus picks the lexicographically first irreducible).  Ring specs:
`Q[e1,e2]/(e1^2,e2^2)` with one pure-power relation per generator, of
dimension (the product of the orders) at most `artinian.DIMENSION_BUDGET`;
a generator may not be named `z`, `O` or, over F_q, `u`.  The field size
and the orders are ASCII digits `[0-9]+`, spaces around them aside, as in
expressions: a sign, an underscore or a digit of another script, which
`int()` would read (`F+7`, `F1_0_1`, `F٧`), is refused.  Each spec is built
once per process: `parse_field_spec` and `parse_ring_spec` keep the last 32
fields and rings they built, keyed by the spec text without its surrounding
spaces, and every caller of a spec shares the one immutable value.  A
refused spec is not kept, so it raises on every call.
"""

from __future__ import annotations

import math
import operator
import re
from functools import lru_cache

from .artinian import DIMENSION_BUDGET, ArtinianAlgebra
from .curve import RationalFunction
from .errors import DomainError, ExpressionError, FactorError, ReciprocityError
from .factor import DEGREE_BUDGET
from .fields import PRIME_TEST_BOUND, BaseField, ExtensionField, PrimeField, QQ, find_irreducible, is_prime
from .laurent import DEFAULT_PRECISION, PRECISION_BUDGET, LaurentSeries
from .poly import Polynomial, _from_data

# -- syntax -------------------------------------------------------------------

# each match is one word after its whitespace: ASCII digits, a run of
# str.isalnum() characters and "_" (which is what \w is), or one other
# non-space character (\s is str.isspace()).  re compiles it on the first
# call and caches it.
_WORD = r"\s*([0-9]+|\w+|\S)"
# a character that can start a refused word: one outside ASCII, or one that
# is no word character, space or operator
_ODD = r"[^\w\s()*+/^-]|[^\x00-\x7f]"
# the kind of a word by its first character, "" the end of the input; any
# other first character starts a NAME if it is a letter or "_" and is
# refused if not, so a non-ASCII digit such as "²" is never read as an INT
_KIND = {"": "EOF", "(": "LPAREN", ")": "RPAREN", **dict.fromkeys("+-*/^", "OP"),
         **dict.fromkeys("0123456789", "INT")}


def _words(text: str) -> list[str]:
    """The words of text; the first word that starts outside the grammar is an ExpressionError."""
    words = re.findall(_WORD, text)
    if re.search(_ODD, text):
        for i, word in enumerate(words):
            c = word[0]
            if c not in _KIND and not (c.isalpha() or c == "_"):
                raise ExpressionError(f"unexpected character {c!r}", column=_column(text, i))
    return words


# deepest nesting a text may have, counted on its words before it is parsed:
# levels of parentheses, and unary signs in one run.  The parser spends four
# calls (expr, term, factor, group) per level of parentheses and reads a run
# of signs in a loop, so 100 levels take about 400 of the interpreter's
# default 1000 frames, which leaves room for a deep caller such as a test
# runner on every Python version.
NESTING_BUDGET = 100
# NESTING_BUDGET + 1 sign words in a row, which any run of more than
# NESTING_BUDGET unary signs contains
_SIGN_RUN = r"(?:[+-]\s*){%d}" % (NESTING_BUDGET + 1)


def _check_nesting(text: str, words: list[str]):
    """Refuse text nested deeper than NESTING_BUDGET, before it is parsed.

    The depth of parentheses, and the length of each run of unary signs (a
    sign at the start, after "(" or after an operator); a sign after an
    operand is a binary operator.  Text with few parentheses or few signs
    can nest no deeper than it has of them, so only the rare long text reads
    its words here.
    """
    if text.count("(") > NESTING_BUDGET:
        depth = 0
        for word in words:
            if word == "(":
                depth += 1
                if depth > NESTING_BUDGET:
                    raise ExpressionError("expression nests too deeply")
            elif word == ")":
                depth -= 1
    if text.count("-") + text.count("+") > NESTING_BUDGET and re.search(_SIGN_RUN, text):
        run, prev = 0, ""
        for word in words:
            if word != "+" and word != "-":
                run = 0
            elif _KIND.get(prev[:1], "NAME") in ("OP", "LPAREN", "EOF"):
                run += 1
                if run > NESTING_BUDGET:
                    raise ExpressionError("expression nests too deeply")
            prev = word


def _column(text: str, i: int) -> int:
    """The column of word i of text; one past the end of the text for i = len(words)."""
    for j, match in enumerate(re.finditer(_WORD, text)):
        if j == i:
            return match.start(1) + 1
    return len(text) + 1


# errors that reading a value can raise; a parse that meets one looks for a
# syntax error first (``_Parser.parse``)
_VALUE_ERRORS = (ReciprocityError, ArithmeticError, ValueError)


class _Parser:
    """One pass over the words of text: each grammar method returns the value of what it read, from ``ev``.

    The evaluator ``ev`` gives a value to each leaf (``number``, ``name``,
    ``big_o``) and to each operation on values (``negate``, ``raise_to`` and
    ``apply``); ``_SYNTAX`` reads the text and gives no value at all.  An
    evaluator whose ``sums`` is False adds no terms: the parser reads a sum
    again with its ``terms`` evaluator (``sum_factor``).
    """

    def __init__(self, text: str, ev, series_var: str | None = None):
        self.text = text
        self.words = _words(text)
        _check_nesting(text, self.words)
        self.words.append("")
        self.i = 0
        self.ev = ev
        self.series_var = series_var

    def error(self, message: str):
        # at the end of the input, the column of the last word
        i = self.i - 1 if not self.words[self.i] else self.i
        raise ExpressionError(message, column=_column(self.text, i) if i >= 0 else 1)

    def expect(self, word: str, kind: str):
        if self.words[self.i] != word:
            self.error(f"expected {kind!r}")
        self.i += 1

    def parse(self):
        """The value of the whole text; a syntax error anywhere in it comes before an error of a value."""
        try:
            value = self.expr()
            self.end()
        except _VALUE_ERRORS:
            self.read(0, _SYNTAX)
            self.end()
            raise
        return value

    def end(self):
        if self.words[self.i]:
            self.error(f"unexpected {self.words[self.i]!r}")

    def read(self, start: int, ev):
        """The value ``ev`` gives the expression from word start on."""
        self.i, outer, self.ev = start, self.ev, ev
        try:
            return self.expr()
        finally:
            self.ev = outer

    def expr(self):
        start, ev = self.i, self.ev
        value = self.term()
        op = self.words[self.i]
        if (op == "+" or op == "-") and not ev.sums:
            return self.sum_factor(start)
        while op == "+" or op == "-":
            self.i += 1
            value = ev.apply(op, value, self.term())
            op = self.words[self.i]
        return value

    def sum_factor(self, start: int):
        """The sum from word start on, read again by the term evaluator, as one factor of a product.

        An error of its value is the factor, so that the product meets it in
        its place; a syntax error in the sum is raised at once.
        """
        ev = self.ev
        try:
            value = self.read(start, ev.terms)
        except _VALUE_ERRORS as exc:
            self.read(start, _SYNTAX)
            value = exc
        return ev.factor(value)

    def term(self):
        value = self.factor()
        ev = self.ev
        while (op := self.words[self.i]) == "*" or op == "/":
            self.i += 1
            value = ev.apply(op, value, self.factor())
        return value

    def factor(self):
        """A number, name or group, raised to a power if `^` follows it, after a run of signs.

        The signs are read in a loop, and an odd number of minus signs
        negates the power once: --x is x, and -x^2 is -(x^2).
        """
        i, words = self.i, self.words
        negate = False
        while (word := words[i]) == "-" or word == "+":
            negate ^= word == "-"
            i += 1
        kind = _KIND.get(word[:1], "NAME")
        self.i = i + 1
        if kind == "NAME":
            value = self.big_o() if word == "O" and self.series_var is not None else self.ev.name(word, i)
        elif kind == "INT":
            value = self.ev.number(int(word))
        elif kind == "LPAREN":
            value = self.group()
        else:
            self.i = i
            self.error("unexpected end of input" if kind == "EOF" else f"unexpected {word!r}")
        if words[self.i] == "^":
            self.i += 1
            e = self.signed_int()
            if abs(e) > DEGREE_BUDGET:
                raise DomainError(f"exponent {e} is above the budget: |e| <= {DEGREE_BUDGET}")
            value = self.ev.raise_to(value, e)
        return self.ev.negate(value) if negate else value

    def group(self):
        """The expression in parentheses after a "("; the caller has read the "(".

        A group is a call of its own, so each level of parentheses takes four
        frames (expr, term, factor, group); ``_check_nesting`` bounds the
        levels before parsing.
        """
        value = self.expr()
        self.expect(")", "RPAREN")
        return value

    def signed_int(self) -> int:
        word = self.words[self.i]
        if word == "(":
            self.i += 1
            value = self.signed_int()
            self.expect(")", "RPAREN")
            return value
        sign = 1
        if word == "+" or word == "-":
            self.i += 1
            sign = -1 if word == "-" else 1
            word = self.words[self.i]
        if _KIND.get(word[:1]) != "INT":
            self.error("expected an integer exponent")
        self.i += 1
        return sign * int(word)

    def big_o(self):
        self.expect("(", "LPAREN")
        var = self.words[self.i]
        if _KIND.get(var[:1], "NAME") != "NAME":
            self.error("expected 'NAME'")
        self.i += 1
        if var != self.series_var:
            self.error(f"precision marker must use {self.series_var!r}")
        e = 1
        if self.words[self.i] == "^":
            self.i += 1
            e = self.signed_int()
        self.expect(")", "RPAREN")
        return self.ev.big_o(e)


class _Syntax:
    """The evaluator of a syntax check: every value is None."""

    sums = True

    def _none(self, *args):
        return None

    number = name = big_o = negate = raise_to = apply = _none


_SYNTAX = _Syntax()


# -- evaluation ---------------------------------------------------------------


# every binary operator but `/`, which ``divide`` takes to the top type
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
# the types of a value on terms: a single term and a term map
_TERMS = (tuple, dict)


class _Evaluator:
    """Values on term maps until an operation needs the top type.

    A value is a single term (k, m, c), a term map {(k, m): c} or a value
    of the top type.  Subclasses give the top type: ``top`` lifts a term map
    to it, and ``divide`` and ``power`` are `/` and a negative `^` there.  A
    term map an operation returns is new, so an operation may write into its
    left operand.
    """

    sums = True

    def __init__(self, ring, var: str, text: str):
        self.ring, self.text = ring, text
        # name -> its one term
        if isinstance(ring, ArtinianAlgebra):
            base, self.products = ring.base, ring.monomial_products
            names = {name: (0, m, base._one) for name, m in zip(ring.names, ring.generator_monomials)}
        else:
            # a field has one monomial, 1
            base, self.products, names = ring, ((0,),), {}
        if isinstance(base, ExtensionField):
            names[base.name] = (0, 0, base.generator().data)
        names[var] = (1, 0, base._one)
        self.base, self.names = base, names

    def number(self, n: int):
        c = self.base.from_int(n).data
        return {} if self.base._is_zero(c) else (0, 0, c)

    def name(self, word: str, i: int):
        term = self.names.get(word)
        if term is None:
            raise ExpressionError(f"unknown name {word!r}", column=_column(self.text, i))
        return term

    def big_o(self, e: int):
        return LaurentSeries.zero(self.ring, e)

    def negate(self, value):
        kind = type(value)
        if kind is tuple:
            k, m, c = value
            return k, m, self.base._neg(c)
        if kind is not dict:
            return -value
        neg = self.base._neg
        for key, c in value.items():
            value[key] = neg(c)
        return value

    def apply(self, kind: str, left, right):
        """left kind right for a binary operator kind."""
        if type(right) is tuple and kind == "*" and type(left) is tuple:
            # the common case, a product of single terms, folds to one
            return self.times(left, right)
        if type(left) in _TERMS and type(right) in _TERMS:
            if kind == "+" or kind == "-":
                return self.add(left, right, kind == "-")
            if kind == "*":
                if not (left and right):
                    return {}
                if (term := _single(right)) is not None:
                    return self.times(left, term)
                if (term := _single(left)) is not None:
                    return self.times(right, term)
            elif (term := _single(right)) is not None and term[1] == 0:
                k, _, c = term
                return self.times(left, (-k, 0, self.base._inv(c)))
        left, right = self.lift(left), self.lift(right)
        return _OPERATORS.get(kind, self.divide)(left, right)

    def add(self, terms, other, subtract: bool) -> dict:
        """terms +- other, written into terms if it is a map."""
        base = self.base
        op, is_zero = base._sub if subtract else base._add, base._is_zero
        if type(terms) is tuple:
            terms = {terms[:2]: terms[2]}
        for key, c in ((other[:2], other[2]),) if type(other) is tuple else other.items():
            if key in terms:
                s = op(terms[key], c)
                if is_zero(s):
                    del terms[key]
                else:
                    terms[key] = s
            else:
                terms[key] = base._neg(c) if subtract else c
        return terms

    def times(self, value, term: tuple):
        """value times the single term ``term``; a truncated monomial drops out."""
        k1, m1, c1 = term
        row, mul = self.products[m1], self.base._mul
        if type(value) is tuple:
            k, m, c = value
            m2 = row[m]
            return {} if m2 is None else (k + k1, m2, mul(c, c1))
        out = {}
        for (k, m), c in value.items():
            m2 = row[m]
            if m2 is not None:
                out[k + k1, m2] = mul(c, c1)
        return out

    def raise_to(self, value, e: int):
        if type(value) in _TERMS:
            if e == 0:
                return 0, 0, self.base._one
            term = _single(value)
            if term is not None:
                k, m, c = term
                # a monomial of higher degree goes through the top type, which checks the budget
                if (e > 0 or m == 0) and abs(k * e) <= DEGREE_BUDGET:
                    if e < 0:
                        c = self.base._inv(c)
                    c2, m2, row, mul = c, m, self.products[m], self.base._mul
                    for _ in range(abs(e) - 1):
                        c2, m2 = mul(c2, c), row[m2]
                        if m2 is None:
                            return {}
                    return k * e, m2, c2
            value = self.lift(value)
        _check_power(value, e)
        return value**e if e >= 0 else self.power(value, e)

    def lift(self, value):
        kind = type(value)
        if kind is tuple:
            return self.top({value[:2]: value[2]})
        return self.top(value) if kind is dict else value


def _single(value):
    """The single term (k, m, c) of a term value, or None if it has none or more than one."""
    if type(value) is tuple:
        return value
    if len(value) == 1:
        (key, c), = value.items()
        return (*key, c)
    return None


def _check_power(base, exponent: int):
    """Refuse base**exponent before it is built if its degree is above DEGREE_BUDGET.

    The degree grows with the exponent for a polynomial, for a rational
    function (the larger of its numerator and denominator degrees) and for an
    exact series raised to a positive power (its support width); a truncated
    series keeps its precision.
    """
    if isinstance(base, RationalFunction):
        degree = max(base.num.degree, base.den.degree)
    elif isinstance(base, Polynomial):
        degree = base.degree
    elif isinstance(base, LaurentSeries) and base.is_exact() and base.data and exponent > 0:
        degree = len(base.data) - 1
    else:
        return
    if degree * abs(exponent) > DEGREE_BUDGET:
        raise DomainError(
            f"a power of degree {degree * abs(exponent)} is above the budget: degree <= {DEGREE_BUDGET}"
        )


class _RationalEvaluator(_Evaluator):
    def __init__(self, field: BaseField, text: str, var: str = "x"):
        super().__init__(field, var, text)

    def top(self, terms: dict):
        """terms as a Polynomial, or over a power of the variable if an exponent is negative."""
        field = self.ring
        if not terms:
            return _from_data(field, [])
        low = min(0, min(k for k, _ in terms))
        data = [field._zero] * (max(k for k, _ in terms) - low + 1)
        for (k, _), c in terms.items():
            data[k - low] = c
        if not low:
            return _from_data(field, data)
        den = _from_data(field, [field._zero] * -low + [field._one])
        return RationalFunction(field, _from_data(field, data), den)

    def polynomial(self, value, error: Exception) -> Polynomial:
        """value as a Polynomial; raises error if it has a denominator."""
        value = self.lift(value)
        if isinstance(value, RationalFunction):
            if value.den.degree != 0:
                raise error
            return value.num
        return value

    def rational(self, value) -> RationalFunction:
        value = self.lift(value)
        return value if isinstance(value, RationalFunction) else RationalFunction(self.ring, value)

    def divide(self, left, right):
        if isinstance(left, Polynomial) and isinstance(right, Polynomial) and right:
            # one construction, which cancels the gcd as the quotient would
            return RationalFunction(self.ring, left, right)
        return self.rational(left) / right

    def power(self, base, e: int):
        return self.rational(base) ** e


class _SeriesEvaluator(_Evaluator):
    def __init__(self, ring, text: str, prec: int):
        super().__init__(ring, "z", text)
        self.prec = prec

    def top(self, terms: dict) -> LaurentSeries:
        """terms as an exact series."""
        ring = self.ring
        if not terms:
            return LaurentSeries.zero(ring)
        low = min(k for k, _ in terms)
        size = max(k for k, _ in terms) - low + 1
        if ring is self.base:
            data = [ring._zero] * size
            for (k, _), c in terms.items():
                data[k - low] = c
        else:
            rows = [{} for _ in range(size)]
            for (k, m), c in terms.items():
                rows[k - low][m] = c
            data = [ring._from_monomials(row) for row in rows]
        return LaurentSeries._from_raw(ring, low, data)

    def divide(self, left, right):
        return left * right.inverse(rel_prec=self.prec)

    def power(self, base, e: int):
        return base.power(e, rel_prec=self.prec)


class _ProductEvaluator:
    """A product of factors with integer powers: a list of (factor, power) in the order of the text.

    `*`, `/`, `^` and unary minus combine products; an integer is a factor
    of the constant, and a name or a sum (``_Parser.sum_factor``) is one
    declared factor, read by ``terms``.  A factor may be the error its
    reading raised: ``product`` raises it in its place, after the checks of
    every factor before it, where a walk of the expression from the top
    would meet it.
    """

    sums = False

    def __init__(self, field: BaseField, text: str):
        self.field, self.terms = field, _RationalEvaluator(field, text)

    def number(self, n: int):
        return [(n, 1)]

    def name(self, word: str, i: int):
        try:
            return self.factor(self.terms.name(word, i))
        except ExpressionError as exc:
            return self.factor(exc)

    def factor(self, value):
        return [(value, 1)]

    def negate(self, value):
        return [(-1, 1)] + value

    def raise_to(self, value, e: int):
        return [(x, power * e) for x, power in value]

    def apply(self, kind: str, left, right):
        # every op returns a new list, so left may grow in place
        left += right if kind == "*" else [(x, -power) for x, power in right]
        return left

    def product(self, factors) -> RationalFunction:
        """The product of the factors, each declared factor checked, made monic and counted.

        The total power of each factor, and the degrees of the numerator and
        the denominator, are checked against DEGREE_BUDGET before the product
        is built.
        """
        field = self.field
        constant = field.one()
        powers: dict[Polynomial, int] = {}
        for value, power in factors:
            if type(value) is int:
                constant = constant * field.from_int(value) ** power
                continue
            if isinstance(value, Exception):
                raise value
            error = FactorError("factored input must be a product of polynomial factors")
            poly = self.terms.polynomial(value, error)
            if poly.is_zero():
                raise FactorError("zero factor in factored input")
            constant = constant * poly.leading_coefficient() ** power
            if poly.degree == 0:
                continue
            _check_power(poly, power)
            poly = poly.monic()
            powers[poly] = powers.get(poly, 0) + power
        pairs = [(p, e) for p, e in powers.items() if e]
        # a factor written many times, or many factors, pass the budget only together
        degrees = {"numerator": 0, "denominator": 0}
        for p, e in pairs:
            _check_power(p, e)
            degrees["numerator" if e > 0 else "denominator"] += p.degree * abs(e)
        for part, degree in degrees.items():
            if degree > DEGREE_BUDGET:
                raise DomainError(f"a {part} of degree {degree} is above the budget: degree <= {DEGREE_BUDGET}")
        return RationalFunction.from_factored(field, constant, pairs)


def parse_rational(text: str, field: BaseField) -> RationalFunction:
    """Parse a rational function in x over the field."""
    evaluator = _RationalEvaluator(field, text)
    return evaluator.rational(_Parser(text, evaluator).parse())


def parse_series(text: str, ring, prec: int = DEFAULT_PRECISION) -> LaurentSeries:
    """Parse a Laurent series in z over the coefficient ring, at a precision from 1 to PRECISION_BUDGET."""
    if prec < 1:
        raise DomainError(f"precision {prec} is out of range: 1 <= prec <= {PRECISION_BUDGET}")
    if prec > PRECISION_BUDGET:
        raise DomainError(f"precision {prec} is above the budget: prec <= {PRECISION_BUDGET}")
    evaluator = _SeriesEvaluator(ring, text, prec)
    return evaluator.lift(_Parser(text, evaluator, series_var="z").parse())


def parse_polynomial(text: str, field: BaseField) -> Polynomial:
    """Parse a polynomial in u over the field, as a field modulus is written."""
    evaluator = _RationalEvaluator(field, text, "u")
    value = _Parser(text, evaluator).parse()
    return evaluator.polynomial(value, ExpressionError("expected a polynomial, found a denominator"))


def parse_factored_rational(text: str, field: BaseField) -> RationalFunction:
    """Parse a product of declared-irreducible factors into a cached form.

    `*`, `/`, `^` and unary minus combine factors; every other
    subexpression, a name or a sum, is read as one declared factor (its
    leading coefficient joins the constant).
    """
    evaluator = _ProductEvaluator(field, text)
    return evaluator.product(_Parser(text, evaluator).parse())


# -- field and ring specs -----------------------------------------------------


def parse_field_spec(spec: str) -> BaseField:
    """`Q`, `F5` or `F9:u^2+1` -> the field, built once per spec (``_field_spec``)."""
    return _field_spec(spec.strip())


@lru_cache(maxsize=32)
def _field_spec(s: str) -> BaseField:
    if s in ("Q", "QQ"):
        return QQ
    if not s.startswith("F"):
        raise ExpressionError(f"unknown field spec {s!r}")
    body = s[1:]
    modulus_text = None
    if ":" in body:
        body, modulus_text = body.split(":", 1)
    q = _spec_int(body)
    if q is None:
        raise ExpressionError(f"unknown field spec {s!r}")
    if q < 2:
        raise ExpressionError(f"invalid field size {q}")
    if q >= PRIME_TEST_BOUND:
        # above it is_prime is no longer exact, and gets slow long before int() gives up
        raise DomainError(f"field size of {q.bit_length()} bits is too large: q must be below {PRIME_TEST_BOUND}")
    try:
        # the constructor is the one primality test of q
        field = PrimeField(q)
    except ValueError:
        pass
    else:
        if modulus_text is not None:
            raise ExpressionError("prime fields take no modulus")
        return field
    p, d = _prime_power(q)
    if p is None:
        raise ExpressionError(f"{q} is not a prime power")
    if modulus_text is None:
        return ExtensionField(p, find_irreducible(p, d))
    modulus = parse_polynomial(modulus_text, PrimeField(p))
    if modulus.degree != d:
        raise ExpressionError(f"modulus degree {modulus.degree} does not match F{q}")
    return ExtensionField(p, [c.data for c in modulus.coeffs])


def _spec_int(text: str) -> int | None:
    """The integer text spells in ASCII digits, [0-9]+ with spaces around it, or None."""
    text = text.strip()
    # an ASCII character is a digit only if it is one of 0-9
    return int(text) if text.isascii() and text.isdigit() else None


def _prime_power(q: int):
    """(p, d) with q = p^d, p prime and d >= 2, or (None, None); exact roots, no trial division."""
    d = 1
    for r in filter(is_prime, range(2, q.bit_length() + 1)):
        while (p := _integer_root(q, r)) ** r == q:
            q, d = p, d * r
    return (q, d) if d > 1 and is_prime(q) else (None, None)


def _integer_root(n: int, d: int) -> int:
    """floor(n^(1/d)), by Newton's method from a float estimate above it."""
    e = math.log2(n) / d + 1e-9
    x = int(2**e) + 2 if e < 1000 else 1 << -(-n.bit_length() // d)
    while (y := ((d - 1) * x + n // x ** (d - 1)) // d) < x:
        x = y
    return x


def parse_ring_spec(spec: str):
    """`Q[e1,e2]/(e1^2,e2^2)` -> ArtinianAlgebra; a bare field spec -> field; built once per spec (``_ring_spec``)."""
    return _ring_spec(spec.strip())


@lru_cache(maxsize=32)
def _ring_spec(s: str):
    if "[" not in s:
        return parse_field_spec(s)
    head, rest = s.split("[", 1)
    base = parse_field_spec(head)
    if "]" not in rest:
        raise ExpressionError("ring spec is missing ']'")
    names_part, tail = rest.split("]", 1)
    names = [n.strip() for n in names_part.split(",") if n.strip()]
    # a series text reads these names first, so a generator of the same name could never be written
    reserved = {"z": "the series variable", "O": "the precision marker O(z^N)"}
    if isinstance(base, ExtensionField):
        reserved[base.name] = f"the generator of {head.strip()}"
    for name in names:
        if name in reserved:
            raise ExpressionError(f"generator name {name!r} is reserved for {reserved[name]}")
    tail = tail.strip()
    if not tail.startswith("/(") or not tail.endswith(")"):
        raise ExpressionError("ring spec needs relations of the form /(e1^2,e2^2)")
    rels = {}
    for chunk in tail[2:-1].split(","):
        chunk = chunk.strip()
        if "^" not in chunk:
            raise ExpressionError(f"relation {chunk!r} must be a pure power")
        name, order_text = chunk.split("^", 1)
        name = name.strip()
        order = _spec_int(order_text)
        if order is None:
            raise ExpressionError(f"bad exponent in relation {chunk!r}")
        if name in rels:
            raise ExpressionError(f"duplicate relation for {name!r}")
        rels[name] = order
    if set(rels) != set(names):
        raise ExpressionError("relations must cover each generator exactly once")
    dimension = 1
    for n in names:
        dimension *= rels[n]
        if dimension > DIMENSION_BUDGET:
            raise DomainError(f"ring dimension {dimension} or more is above the budget: dimension <= {DIMENSION_BUDGET}")
    return ArtinianAlgebra(base, [(n, rels[n]) for n in names])
