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
reads the word list by index and builds a tree of tuples: ("num", n),
("name", word, index), ("neg", child), (op, left, right) for op in `+-*/`,
("^", base, e) and ("O", e).  A column is computed from the text only for an
error (`_column`), so a name keeps the index of its word.

Evaluation: a value is a term map {(k, m): c}, the sum of c * mono_m * v^k,
with v the variable, mono_m the monomial of index m of an Artinian ring (m
is 0 over a field) and c nonzero raw data of the base field.  An integer or
a name is one term, and zero the empty map.  `+` and `-` stay in the map,
and so do `*` by a single term, `/` by a unit monomial (one term with m = 0)
and `^` of a single term, negative only for a unit monomial; so text such as
`3*e^2*d*z^-2` or `98*x^7` costs no ring product, kernel call or series.
Any other operation lifts both sides once to the top type, a Polynomial or
RationalFunction for rational input and an exact LaurentSeries for series,
and goes on there: `/` and a negative `^` as RationalFunction arithmetic, or
as series `inverse`/`power` at the parse precision.

Field specs: `Q`, `F5`, `F9:u^2+1` (modulus over F_p in `u`; omitted
modulus picks the lexicographically first irreducible).  Ring specs:
`Q[e1,e2]/(e1^2,e2^2)` with one pure-power relation per generator, of
dimension (the product of the orders) at most `artinian.DIMENSION_BUDGET`.
"""

from __future__ import annotations

import math
import operator
import re
from functools import wraps

from .artinian import DIMENSION_BUDGET, ArtinianAlgebra
from .curve import RationalFunction
from .errors import DomainError, ExpressionError, FactorError
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


def _column(text: str, i: int) -> int:
    """The column of word i of text; one past the end of the text for i = len(words)."""
    for j, match in enumerate(re.finditer(_WORD, text)):
        if j == i:
            return match.start(1) + 1
    return len(text) + 1


class _Parser:
    def __init__(self, text: str, series_var: str | None):
        self.text = text
        self.words = _words(text) + [""]
        self.i = 0
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
        node = self.expr()
        if self.words[self.i]:
            self.error(f"unexpected {self.words[self.i]!r}")
        return node

    def expr(self):
        node = self.term()
        while (op := self.words[self.i]) == "+" or op == "-":
            self.i += 1
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while (op := self.words[self.i]) == "*" or op == "/":
            self.i += 1
            node = (op, node, self.factor())
        return node

    def factor(self):
        word = self.words[self.i]
        if word == "-":
            self.i += 1
            return ("neg", self.factor())
        if word == "+":
            self.i += 1
            return self.factor()
        node = self.atom()
        if self.words[self.i] != "^":
            return node
        self.i += 1
        e = self.signed_int()
        if abs(e) > DEGREE_BUDGET:
            raise DomainError(f"exponent {e} is above the budget: |e| <= {DEGREE_BUDGET}")
        return ("^", node, e)

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

    def atom(self):
        i = self.i
        word = self.words[i]
        kind = _KIND.get(word[:1], "NAME")
        if kind == "INT":
            self.i += 1
            return ("num", int(word))
        if kind == "NAME":
            self.i += 1
            if word == "O" and self.series_var is not None:
                return self.big_o()
            return ("name", word, i)
        if kind == "LPAREN":
            self.i += 1
            node = self.expr()
            self.expect(")", "RPAREN")
            return node
        self.error("unexpected end of input" if kind == "EOF" else f"unexpected {word!r}")

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
        return ("O", e)


def parse_ast(text: str, series_var: str | None = None):
    return _Parser(text, series_var).parse()


# -- evaluation ---------------------------------------------------------------


# every binary operator but `/`, which ``divide`` takes to the top type
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class _Evaluator:
    """The one AST walk, on term maps until an operation needs the top type.

    Subclasses give the top type: ``top`` lifts a term map to it, and
    ``divide`` and ``power`` are `/` and a negative `^` there.
    """

    def __init__(self, ring, var: str, text: str):
        self.ring, self.text = ring, text
        # name -> (key, raw base coefficient) of its one term
        if isinstance(ring, ArtinianAlgebra):
            base, self.products = ring.base, ring.monomial_products
            names = {name: ((0, m), base._one) for name, m in zip(ring.names, ring.generator_monomials)}
        else:
            # a field has one monomial, 1
            base, self.products, names = ring, ((0,),), {}
        if isinstance(base, ExtensionField):
            names[base.name] = ((0, 0), base.generator().data)
        names[var] = ((1, 0), base._one)
        self.base, self.names = base, names

    def eval(self, node):
        """The value of node; a term map it returns is new, so an operator may write into its left operand."""
        # the kinds in the order of their share of the benchmark texts
        kind = node[0]
        if kind == "name":
            term = self.names.get(node[1])
            if term is None:
                raise ExpressionError(f"unknown name {node[1]!r}", column=_column(self.text, node[2]))
            key, c = term
            return {key: c}
        if kind == "num":
            c = self.base.from_int(node[1]).data
            return {} if self.base._is_zero(c) else {(0, 0): c}
        if kind in _OPERATORS or kind == "/":
            return self.apply(kind, self.eval(node[1]), self.eval(node[2]))
        if kind == "^":
            return self.raise_to(self.eval(node[1]), node[2])
        if kind == "neg":
            value = self.eval(node[1])
            if type(value) is not dict:
                return -value
            neg = self.base._neg
            for key, c in value.items():
                value[key] = neg(c)
            return value
        return LaurentSeries.zero(self.ring, node[1])

    def apply(self, kind: str, left, right):
        """left kind right for a binary operator kind."""
        if type(left) is dict and type(right) is dict:
            if kind == "+" or kind == "-":
                return self.add(left, right, kind == "-")
            if kind == "*":
                if not (left and right):
                    return {}
                if len(right) == 1:
                    return self.times_term(left, right)
                if len(left) == 1:
                    return self.times_term(right, left)
            elif len(right) == 1:
                ((k, m), c), = right.items()
                if m == 0:
                    return self.times_term(left, {(-k, 0): self.base._inv(c)})
        left, right = self.lift(left), self.lift(right)
        return _OPERATORS.get(kind, self.divide)(left, right)

    def add(self, terms: dict, other: dict, subtract: bool) -> dict:
        """terms +- other, written into terms."""
        base = self.base
        op, is_zero = base._sub if subtract else base._add, base._is_zero
        for key, c in other.items():
            if key in terms:
                s = op(terms[key], c)
                if is_zero(s):
                    del terms[key]
                else:
                    terms[key] = s
            else:
                terms[key] = base._neg(c) if subtract else c
        return terms

    def times_term(self, terms: dict, term: dict) -> dict:
        """terms times the single term of ``term``, in a new map; a truncated monomial drops out."""
        ((k1, m1), c1), = term.items()
        row, mul = self.products[m1], self.base._mul
        out = {}
        for (k, m), c in terms.items():
            m2 = row[m]
            if m2 is not None:
                out[k + k1, m2] = mul(c, c1)
        return out

    def raise_to(self, value, e: int):
        if type(value) is dict:
            if e == 0:
                return {(0, 0): self.base._one}
            if len(value) == 1:
                ((k, m), c), = value.items()
                # a monomial of higher degree goes through the top type, which checks the budget
                if (e > 0 or m == 0) and abs(k * e) <= DEGREE_BUDGET:
                    if e < 0:
                        c = self.base._inv(c)
                    c2, m2, row, mul = c, m, self.products[m], self.base._mul
                    for _ in range(abs(e) - 1):
                        c2, m2 = mul(c2, c), row[m2]
                        if m2 is None:
                            return {}
                    return {(k * e, m2): c2}
            value = self.top(value)
        _check_power(value, e)
        return value**e if e >= 0 else self.power(value, e)

    def lift(self, value):
        return self.top(value) if type(value) is dict else value


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


def _bounded_depth(parse):
    """parse, with input nested deeper than the interpreter's stack an ExpressionError."""

    @wraps(parse)
    def bounded(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except RecursionError:
            raise ExpressionError("expression nests too deeply") from None

    return bounded


@_bounded_depth
def parse_rational(text: str, field: BaseField) -> RationalFunction:
    """Parse a rational function in x over the field."""
    evaluator = _RationalEvaluator(field, text)
    return evaluator.rational(evaluator.eval(parse_ast(text)))


@_bounded_depth
def parse_series(text: str, ring, prec: int = DEFAULT_PRECISION) -> LaurentSeries:
    """Parse a Laurent series in z over the coefficient ring, at a precision from 1 to PRECISION_BUDGET."""
    if prec < 1:
        raise DomainError(f"precision {prec} is out of range: 1 <= prec <= {PRECISION_BUDGET}")
    if prec > PRECISION_BUDGET:
        raise DomainError(f"precision {prec} is above the budget: prec <= {PRECISION_BUDGET}")
    evaluator = _SeriesEvaluator(ring, text, prec)
    return evaluator.lift(evaluator.eval(parse_ast(text, series_var="z")))


@_bounded_depth
def parse_polynomial(text: str, field: BaseField) -> Polynomial:
    """Parse a polynomial in u over the field, as a field modulus is written."""
    evaluator = _RationalEvaluator(field, text, "u")
    value = evaluator.eval(parse_ast(text))
    return evaluator.polynomial(value, ExpressionError("expected a polynomial, found a denominator"))


@_bounded_depth
def parse_factored_rational(text: str, field: BaseField) -> RationalFunction:
    """Parse a product of declared-irreducible factors into a cached form.

    The expression tree is walked structurally: `*`, `/`, `^` and unary
    minus combine factors; every other subtree is evaluated and becomes one
    declared factor (its leading coefficient joins the constant).
    """
    ast = parse_ast(text)
    evaluator = _RationalEvaluator(field, text)
    constant = [field.one()]
    factors: dict[Polynomial, int] = {}

    def walk(node, power: int):
        kind = node[0]
        if kind == "*" or kind == "/":
            walk(node[1], power)
            walk(node[2], power if kind == "*" else -power)
            return
        if kind == "^":
            walk(node[1], power * node[2])
            return
        if kind == "neg":
            constant[0] = constant[0] * field.from_int(-1) ** power
            walk(node[1], power)
            return
        if kind == "num":
            constant[0] = constant[0] * field.from_int(node[1]) ** power
            return
        error = FactorError("factored input must be a product of polynomial factors")
        poly = evaluator.polynomial(evaluator.eval(node), error)
        if poly.is_zero():
            raise FactorError("zero factor in factored input")
        lc = poly.leading_coefficient()
        constant[0] = constant[0] * lc**power
        if poly.degree == 0:
            return
        _check_power(poly, power)
        poly = poly.monic()
        factors[poly] = factors.get(poly, 0) + power

    walk(ast, 1)
    pairs = [(p, e) for p, e in factors.items() if e]
    return RationalFunction.from_factored(field, constant[0], pairs)


# -- field and ring specs -----------------------------------------------------


def parse_field_spec(spec: str) -> BaseField:
    s = spec.strip()
    if s in ("Q", "QQ"):
        return QQ
    if not s.startswith("F"):
        raise ExpressionError(f"unknown field spec {spec!r}")
    body = s[1:]
    modulus_text = None
    if ":" in body:
        body, modulus_text = body.split(":", 1)
    try:
        q = int(body)
    except ValueError:
        raise ExpressionError(f"unknown field spec {spec!r}") from None
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
    """`Q[e1,e2]/(e1^2,e2^2)` -> ArtinianAlgebra; a bare field spec -> field."""
    s = spec.strip()
    if "[" not in s:
        return parse_field_spec(s)
    head, rest = s.split("[", 1)
    base = parse_field_spec(head)
    if "]" not in rest:
        raise ExpressionError("ring spec is missing ']'")
    names_part, tail = rest.split("]", 1)
    names = [n.strip() for n in names_part.split(",") if n.strip()]
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
        try:
            order = int(order_text)
        except ValueError:
            raise ExpressionError(f"bad exponent in relation {chunk!r}") from None
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
